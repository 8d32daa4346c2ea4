import ast
import inspect
import subprocess
import sys
from pathlib import Path


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


# The acceptance tests check the paper against these two reference checks;
# nothing in the library calls them.
_NO_CALLER_NEEDED = ("check_functional_equation", "order_estimate")


def _references(tree: ast.AST, skip=None) -> set:
    """Every identifier, attribute and string constant in tree, outside the
    node skip: a name is reached as a variable, as a module attribute, or
    by the name strings that perfbench patches."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller():
    """Every __all__ name is used somewhere in the package, perfbench or
    tools, outside its own definition and __init__: a public name that only
    tests reach fails."""
    import poincarelab

    repo = Path(__file__).resolve().parents[1]
    pkg = repo / "src" / "poincarelab"
    trees = {path: ast.parse(path.read_text())
             for path in [*pkg.glob("*.py"), *(repo / "perfbench").glob("*.py"),
                          *(repo / "tools").glob("*.py")]
             if path.name != "__init__.py"}
    missing = []
    for name in poincarelab.__all__:
        if name in _NO_CALLER_NEEDED:
            continue
        home = Path(inspect.getfile(getattr(poincarelab, name)))
        definition = next((node for node in trees[home].body
                           if getattr(node, "name", None) == name), None)
        assert definition is not None, f"{name} is not defined in {home.name}"
        if not any(name in _references(tree, definition if path == home else None)
                   for path, tree in trees.items()):
            missing.append(name)
    assert missing == []
