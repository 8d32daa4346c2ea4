import subprocess
import sys


def _loaded_scipy_solvers(statements: str) -> str:
    code = (f"import sys; {statements}; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize and scipy.integrate cost about 50 MB of memory; only the
    # functions that call them import them
    assert _loaded_scipy_solvers("import poincarelab") == "[]"


def test_quadrature_and_its_oracle_need_no_scipy():
    assert _loaded_scipy_solvers(
        "from poincarelab import littlewood as lw; lw.monomial_integral_oracle(3); "
        "lw.disk_integral(lw.monomial_evaluator(2), 1e-3)") == "[]"
