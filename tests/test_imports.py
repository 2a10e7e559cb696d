"""Every name a module imports is one it uses."""

import ast
import pathlib

import superalg

PACKAGE = pathlib.Path(superalg.__file__).parent


def unused_imports(source):
    """Names bound by an import that the module never reads; a name listed
    in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["b", "os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.path.join()\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


# Each module imports only from its own layer or an earlier one; the
# package itself re-exports the polynomial layer.
LAYERS = (
    ("_kernel", "scalars"),
    ("superpoly", "linalg", "__init__"),
    ("groebner", "oracle"),
    ("sdim",),
    ("hcgroup", "orbits"),
    ("dsl", "selftest"),
    ("cli",),
)
LAYER_OF = {name: i for i, names in enumerate(LAYERS) for name in names}


def superalg_imports(source):
    """The superalg modules a module imports anywhere, function-level
    imports included, by their names inside the package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("superalg."))
        elif isinstance(node, ast.ImportFrom) and node.module == "superalg":
            out.update(a.name for a in node.names if a.name in LAYER_OF)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("superalg."):
            out.add(node.module.split(".")[1])
    return out


def test_the_layer_scan_sees_every_import_form():
    source = "import superalg.dsl\nfrom superalg import sdim, QQ\ndef f():\n    from superalg.cli import main\n"
    assert superalg_imports(source) == {"dsl", "sdim", "cli"}


def test_no_module_imports_a_later_layer():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} == set(LAYER_OF)
    later = {
        path.stem: sorted(
            name
            for name in superalg_imports(path.read_text(encoding="utf-8"))
            if LAYER_OF[name] > LAYER_OF[path.stem]
        )
        for path in modules
    }
    assert {name: names for name, names in later.items() if names} == {}
