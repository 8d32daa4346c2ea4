import subprocess
import sys


def test_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize and scipy.integrate cost about 50 MB of memory; only the
    # functions that call them import them
    code = ("import sys, poincarelab; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
