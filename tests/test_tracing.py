"""The benchmark's tracer still finds every library function it wraps.

``perfbench/tracing.py`` rebinds the functions named in its ``SPANS`` and
``COUNTERS`` tables and lists a name it cannot find under ``missing``
without raising, so a renamed or removed function would read as a
per-layer metric of 0.  The test loads the tracer from ``perfbench/``,
installs and uninstalls it, and changes nothing there.
"""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings():
    """Every attribute of every loaded ``superalg`` module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "superalg" or module is None:
            continue
        for key, value in vars(module).items():
            out[name, key] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, key, attr] = id(member)
    return out


def test_every_traced_function_exists_and_is_restored():
    tracing = load_tracing()
    targets = tracing.SPANS + tracing.COUNTERS
    for module, _, _ in targets:
        importlib.import_module(module)
    before = library_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = library_bindings()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    rebound = {key for key, value in before.items() if during[key] != value}
    assert {key[-1] for key in rebound} >= {attr.split(".")[-1] for _, attr, _ in targets}
    assert library_bindings() == before
