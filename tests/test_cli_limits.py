"""Commands under a time and an address-space limit, each call in a child
process of its own (``conftest.run_cli_child``)."""

from conftest import run_cli_child


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
