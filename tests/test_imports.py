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


def empty_containers(source):
    """Names a module binds, at its top level, to an empty ``{}``, ``[]``,
    ``set()`` or ``dict()``: a memo there outlives every object it was
    filled for, so a memo lives on the object whose lifetime it shares."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if (
            isinstance(value, ast.Dict) and not value.keys
            or isinstance(value, ast.List) and not value.elts
            or isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "dict")
            and not value.args
            and not value.keywords
        ):
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def test_the_scan_sees_a_module_level_memo():
    source = (
        "_INVERSE_CACHE = {}\na = b = []\nS = set()\nD: dict = dict()\n"
        "TABLE = {1: 2}\nONE = [0]\nP = set((1,))\nQ = dict(a=1)\n"
        "def f():\n    memo = {}\nclass C:\n    cache = {}\n"
    )
    assert empty_containers(source) == ["_INVERSE_CACHE", "a", "b", "S", "D"]


def test_no_module_keeps_a_module_level_memo():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {path.name: empty_containers(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


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


# Kept on purpose though no library module calls them: the dense oracles
# that tests and the benchmark's cross-checks compare against, and the
# entry points that the benchmark harness calls or traces.
UNCALLED = {
    "oracle.oracle_annihilator_basis",
    "sdim.verify_cover",
    "hcgroup.builtin_pairs",
    "sdim.is_odd_parameter_system",
}


def unreferenced(sources):
    """``module.function`` and ``module.Class.method`` for each function and
    method defined at the top of a module, or of a class there, that no
    module refers to: a method counts as referenced when some module uses
    its name as an attribute, a function when some module uses its name as
    a name or an attribute.  Dunder methods, ``main`` and the ``_cmd_*``
    handlers, which are dispatched by name, are exempt."""
    defined = []
    names = set()
    attributes = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append(("%s.%s" % (module, node.name), node.name, False))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    ("%s.%s.%s" % (module, node.name, f.name), f.name, True)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(
        qualified
        for qualified, name, method in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not name.startswith("_cmd_")
        and name != "main"
        and name not in attributes
        and (method or name not in names)
    )


def test_the_reference_scan_sees_unused_definitions():
    source = (
        "def used(): pass\ndef unused(): pass\ndef _cmd_x(): pass\n"
        "class C:\n    def __init__(self): pass\n    def m(self): pass\n    def used(self): pass\n"
        "    def dead(self): pass\n    def m2(self): pass\nm2 = 1\nused()\nC().m()\n"
    )
    # a method called only as a bare name, or a name bound to something else, is unreferenced
    assert unreferenced({"a": source}) == ["a.C.dead", "a.C.m2", "a.C.used", "a.unused"]


def test_every_library_function_has_a_library_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unreferenced(sources)) == UNCALLED
