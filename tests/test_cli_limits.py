"""Commands under a time and an address-space limit, each call in a child
process of its own (``conftest.run_cli_child``)."""

from conftest import run_cli_child

from superalg.groebner import MODULE_MAX_ODD
from superalg.sdim import KSDIM_MAX_ODD


def write_document(tmp_path, n):
    """k[x | y1..yn]/(x*y1y2y3) as a document, and its path."""
    odd = " ".join("y%d" % i for i in range(1, n + 1))
    path = tmp_path / ("xy123-%d.salg" % n)
    path.write_text("superalgebra big\n  even x\n  odd %s\n  rel x*y1y2y3\nend\n" % odd)
    return str(path)


def test_mono_check_at_sixteen_odd_generators_stays_small(tmp_path):
    """The identity map on k[x | y1..y16]/(x*y1y2y3) passes the condition,
    decided in N/N^2 with no superideal over the 2^16 components, within
    128 MB of address space and 60 s."""
    doc = write_document(tmp_path, 16)
    images = "; ".join(["x -> x"] + ["y%d -> y%d" % (i, i) for i in range(1, 17)])
    done = run_cli_child(["mono-check", doc, doc, "--images", images], timeout=60, memory_mb=128)
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")


def test_module_view_commands_exit_2_above_the_bound(tmp_path):
    """``ann``, ``gr`` and ``odd-regular`` build the module view over the
    2^n components, so above MODULE_MAX_ODD odd generators each is an
    input error that names the bound, refused before any Gröbner work."""
    n = MODULE_MAX_ODD + 1
    doc = write_document(tmp_path, n)
    message = "error: at most %d odd generators, not %d\n" % (MODULE_MAX_ODD, n)
    for argv in (["ann", doc, "--element", "y1"], ["gr", doc], ["odd-regular", doc, "--seq", "y4"]):
        done = run_cli_child(argv, timeout=10, memory_mb=128)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message), argv


def test_gr_at_the_bound_still_runs(tmp_path):
    doc = write_document(tmp_path, MODULE_MAX_ODD)
    done = run_cli_child(["gr", doc], timeout=60, memory_mb=128)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("gr relations: x*y1y2y3")


def test_ksdim_at_the_odd_bound_and_at_forty_even_generators(tmp_path):
    """``ksdim`` on k[x | y1..y14]/(x*y_i), at KSDIM_MAX_ODD, whose relation
    basis fills every component, within 256 MB and 30 s; and on
    k[x1..x40 | y1]/(x_i^2), whose Krull dimension is read off 40 leads of
    one variable each, within 10 s."""
    n = KSDIM_MAX_ODD
    odd = " ".join("y%d" % i for i in range(1, n + 1))
    rels = "".join("  rel x*y%d\n" % i for i in range(1, n + 1))
    path = tmp_path / "collapsing.salg"
    path.write_text("superalgebra collapsing\n  even x\n  odd %s\n%send\n" % (odd, rels))
    done = run_cli_child(["ksdim", str(path)], timeout=30, memory_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (0, "Ksdim = 1|0\n", "")
    even = " ".join("x%d" % i for i in range(1, 41))
    rels = "".join("  rel x%d^2\n" % i for i in range(1, 41))
    path = tmp_path / "squares.salg"
    path.write_text("superalgebra squares\n  even %s\n  odd y1\n%send\n" % (even, rels))
    done = run_cli_child(["ksdim", str(path)], timeout=10, memory_mb=256)
    assert (done.returncode, done.stdout, done.stderr) == (0, "Ksdim = 0|1\n", "")
