import subprocess
import sys


def _loaded_scipy(statements: str) -> str:
    """The scipy modules loaded by running `statements` in a fresh interpreter."""
    code = (f"import sys; {statements}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_solvers_unloaded():
    # the package does not depend on scipy
    assert _loaded_scipy("import poincarelab") == "[]"


def test_quadrature_and_its_oracle_need_no_scipy():
    assert _loaded_scipy(
        "from poincarelab import littlewood as lw; lw.monomial_integral_oracle(3); "
        "lw.disk_integral(lw.monomial_evaluator(2), 1e-3)") == "[]"


def test_superattracting_search_needs_no_scipy():
    assert _loaded_scipy(
        "from poincarelab.chebfamily import find_superattracting; "
        "find_superattracting(3, (-1.79, -1.7))") == "[]"


def test_all_lists_every_public_name():
    """__all__ names exactly the public names that __init__ imports, so an
    entry left behind by a deletion, or one never added, fails."""
    import types

    import poincarelab

    bound = {name for name, value in vars(poincarelab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(poincarelab.__all__) == len(set(poincarelab.__all__))
    assert set(poincarelab.__all__) == bound
