"""The command-line surface: outputs, exit codes, JSON stability."""

import argparse
import ast
import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

import superalg
from superalg import cli
from superalg.cli import run_command

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(superalg.__file__)))


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


def data(name):
    return os.path.join(DATA, name)


def test_ksdim():
    code, out = run(["ksdim", data("xy.salg")])
    assert code == 0
    assert out.strip() == "Ksdim = 1|0"
    code, out = run(["ksdim", data("lambda2.salg"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "0|2"
    assert payload["certificate"]["elements"] == ["y1", "y2"]


def test_bar_and_gr():
    code, out = run(["bar", data("xy.salg")])
    assert code == 0 and "even x" in out
    code, out = run(["gr", data("x2-y1y2.salg"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["odd_weight_homogeneous"] is True
    assert "x^2" in payload["result"]["relations"]


def test_ann():
    code, out = run(["ann", data("xy.salg"), "--element", "y"])
    assert code == 0
    assert "x" in out and "y" in out


def test_odd_params_and_regular():
    code, out = run(["odd-params", data("xy1y2.salg")])
    assert code == 0 and "y1" in out
    code, _ = run(["odd-regular", data("lambda2.salg"), "--seq", "y1, y2"])
    assert code == 0
    code, _ = run(["odd-regular", data("xy.salg"), "--seq", "y"])
    assert code == 1  # predicate false


def test_phi_dim():
    code, out = run(["phi-dim", data("lambda2.salg")])
    assert code == 0 and "2" in out
    code, out = run(["phi-dim", data("xy.salg"), "--point", "x = 1"])
    assert code == 0 and "0" in out


def test_phi_dim_has_no_bound_on_odd_generators(tmp_path, capsys):
    """k[x | y1..y40]/(x*y1y2y3, x*y1 - y2): y2 is x*y1, so 39 at x = 0 and
    at x = 1; phi-dim builds no Gröbner basis over the 2^40 components."""
    path = tmp_path / "forty.salg"
    odd = " ".join("y%d" % i for i in range(1, 41))
    path.write_text("superalgebra f\n  even x\n  odd %s\n  rel x*y1*y2*y3\n  rel x*y1 - y2\nend\n" % odd)
    for value in (0, 1):
        assert run(["phi-dim", str(path), "--point", "x = %d" % value]) == (0, "dim Phi = 39\n")
    assert capsys.readouterr().err == ""


def test_localize():
    code, out = run(["localize", data("xy.salg"), "--element", "x"])
    assert code == 0 and "inverse variable t" in out


def test_mono_check():
    code, _ = run(
        ["mono-check", data("a11.salg"), data("xy.salg"), "--images", "x -> x; y -> y"]
    )
    assert code == 0
    # purely even source into a target with surviving odd part: fails
    code, _ = run(
        ["mono-check", data("xy.salg"), data("a11.salg"), "--images", "x -> x; y -> y"]
    )
    assert code in (0, 1, 2)


def test_hc_commands(tmp_path, capsys):
    code, out = run(["hc", "validate", "unipotent"])
    assert code == 0 and "FAIL" not in out and "group_closed: ok" in out
    code, out = run(["hc", "validate", data("unipotent.shc")])
    assert code == 0
    code, out = run(["hc", "mul", "unipotent", "g[[1,2],[0,1]] e(s,1)", "e(t,1)"])
    assert code == 0 and "e(t + s, 1)" in out
    code, out = run(["hc", "inv", "unipotent", "g[[1,1],[0,1]] e(s,1)"])
    assert code == 0 and "e(-s, 1)" in out
    code, out = run(["hc", "sdim", "sl2-standard"])
    assert code == 0 and "3|2" in out
    code, _ = run(["hc", "graded", "gl1-weight"])
    assert code == 0
    code, _ = run(["hc", "graded", "unipotent"])
    assert code == 1
    # E11 lies outside the Lie algebra of the unipotent group
    doc = tmp_path / "diagonal.shc"
    doc.write_text(
        "hcpair diagonal\n  size 2\n  odd-dim 1\n"
        "  rel g11 - 1; g22 - 1; g21\n  rho 1\n  bracket 1 1: 1, 0; 0, 0\nend\n"
    )
    code, out = run(["hc", "validate", str(doc)])
    assert code == 1
    assert "bracket_in_lie: FAIL (bracket[0][0] outside the Lie algebra)" in out
    capsys.readouterr()
    code, out = run(["hc", "mul", "gl1-weight", "g[[s*t]]", "g[[1]]"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: matrix determinant st is not invertible\n"
    # the common options follow the subcommand
    for argv in (["hc", "--json", "sdim", "unipotent"], ["hc", "--field", "fp", "5", "sdim", "unipotent"]):
        assert run(argv) == (2, ""), argv
        assert capsys.readouterr().out == ""


def test_an_exponential_coefficient_with_a_constant_term_is_exit_2(capsys):
    """Rewriting terminates only for coefficients in the ideal of the odd
    generators, so e(1, 1) is rejected before any step; it used to print a
    normal form here, and on sl2-standard to rewrite without bound."""
    capsys.readouterr()
    for argv in (["hc", "mul", "unipotent", "e(1,1)e(-1,1)", "e(u,1)"],
                 ["hc", "inv", "gl1-weight", "g[[2]] e(s + 1/2, 1)"]):
        assert run(argv) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: exponential coefficient 1 has a term of odd degree 0",
                   "error: exponential coefficient s + 1/2 has a term of odd degree 0"]


def test_hc_mul_on_a_pair_not_proven_closed_still_checks_membership(tmp_path, capsys):
    """Neither pair is a built-in or validated, so their products keep the
    membership check: one group is not closed, the other's bracket lies
    outside its Lie algebra."""
    notgroup = tmp_path / "notgroup.shc"
    notgroup.write_text("hcpair notgroup\n  size 2\n  odd-dim 1\n  rel g11 + g22 - 2\n  rho 1\nend\n")
    diagonal = tmp_path / "diagonal.shc"
    diagonal.write_text(
        "hcpair diagonal\n  size 2\n  odd-dim 1\n"
        "  rel g11 - 1; g22 - 1; g21\n  rho 1\n  bracket 1 1: 1, 0; 0, 0\nend\n"
    )
    capsys.readouterr()
    for argv, err in (
        (["hc", "mul", str(notgroup), "g[[2,1],[1,0]]", "g[[2,1],[1,0]]"],
         "error: matrix leaves the group: g11 + g22 - 2 evaluates to 4\n"),
        (["hc", "mul", str(diagonal), "e(s,1)", "e(t,1)"],
         "error: matrix leaves the group: g11 - 1 evaluates to -1/2*st\n"),
    ):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == err
    code, out = run(["hc", "validate", str(notgroup)])
    assert code == 1
    assert "group_closed: FAIL (the product breaks g11 + g22 - 2)" in out
    assert out.count("FAIL") == 1
    code, out = run(["hc", "validate", str(notgroup), "--json"])
    assert code == 1 and json.loads(out)["result"]["group_closed"] is False


def test_hc_command_builds_only_the_named_pair(monkeypatch, capsys):
    from superalg import hcgroup

    argv = ["hc", "mul", "unipotent", "g[[1,2],[0,1]] e(s,1)", "e(t,1)", "--json"]
    expected = run(argv)

    def unused(field=None):
        raise AssertionError("built a pair the command did not name")

    for name in ("gl1-weight", "sl2-standard"):
        monkeypatch.setitem(hcgroup.BUILTIN_PAIRS, name, unused)
    assert run(argv) == expected
    capsys.readouterr()
    code, out = run(["hc", "validate", "no-such-pair"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(
        "error: 'no-such-pair' is not a built-in pair (gl1-weight, sl2-standard, unipotent)"
    )


def test_orbit_commands():
    code, out = run(
        ["orbit", data("a11.salg"), "--derivation", "translate", "--point", "x = 2"]
    )
    assert code == 0
    assert "I = (x - 2)" in out and "trivial" in out and "0|1" in out
    code, out = run(
        ["orbit", data("a11.salg"), "--derivation", "scale", "--point", "x = 0"]
    )
    assert code == 0 and "full" in out
    code, out = run(
        [
            "verify-orbits",
            data("a11.salg"),
            "--derivation",
            "scale",
            "--point",
            "x = 0",
            "--point",
            "x = 1",
        ]
    )
    assert code == 0 and out.count("checks ok") == 2


def test_named_blocks_from_file():
    # derivations and points declared inside the document are addressable
    code, out = run(
        ["orbit", data("xy.salg"), "--derivation", "scale", "--point", "origin"]
    )
    # phi(y) = x on k[x|y]/(xy): phi(x*y) = x^2 not in the ideal -> input error
    assert code == 2


def test_input_errors(tmp_path):
    code, _ = run(["ksdim", data("missing.salg")])
    assert code == 2
    code, _ = run(["ann", data("xy.salg"), "--element", "zz"])
    assert code == 2
    code, _ = run(["ann", data("xy.salg"), "--element", "1/0"])
    assert code == 2
    code, _ = run(["phi-dim", data("xy.salg"), "--point", "x = 1/0"])
    assert code == 2
    code, _ = run(["ann", data("xy.salg"), "--element", "(" * 400 + "x" + ")" * 400])
    assert code == 2
    code, _ = run(["ann", data("xy.salg"), "--element", "x+" + "-" * 1200 + "x"])
    assert code == 2
    huge = "7" * 3000  # its square is too long for CPython to print
    code, _ = run(["ann", data("xy.salg"), "--element", "%s*%s*x" % (huge, huge)])
    assert code == 2
    ten = tmp_path / "ten.salg"
    ten.write_text("superalgebra ten\n  even a b c d e f g h i j\nend\n")
    start = time.perf_counter()
    for element in ("(x+1)^3000", "((x+1)^64)^64", "x^" + "9" * 5000):
        code, _ = run(["ann", data("xy.salg"), "--element", element])
        assert code == 2
    for k in (8, 16):
        code, _ = run(["ann", str(ten), "--element", "(a+b+c+d+e+f+g+h+i+j+1)^%d" % k])
        assert code == 2
    assert time.perf_counter() - start < 1
    # pair documents: every integer is checked, so a bad one exits 2 (not 3),
    # an index beyond odd-dim is not ignored, and a size beyond the bound is
    # refused before any work
    pair = tmp_path / "pair.shc"
    start = time.perf_counter()
    for header, bracket in (
        ("size x\n  odd-dim 1", ""),
        ("size 2\n  odd-dim x", ""),
        ("size 0\n  odd-dim 1", ""),
        ("size 7\n  odd-dim 1", ""),
        ("size 10\n  odd-dim 1", ""),
        ("size 2\n  odd-dim 0", ""),
        ("size 2\n  odd-dim 1", "bracket 1 y: 0, 0; 0, 0"),
        ("size 2\n  odd-dim 1", "bracket 0 1: 0, 0; 0, 0"),
        ("size 2\n  odd-dim 1", "bracket 1 5: 0, 0; 0, 0"),
    ):
        pair.write_text("hcpair p\n  %s\n  rho 1\n  %s\nend\n" % (header, bracket))
        for command in ("sdim", "validate"):
            code, out = run(["hc", command, str(pair)])
            assert code == 2 and out == "", (header, bracket)
    assert time.perf_counter() - start < 1
    code, _ = run(["nonsense"])
    assert code == 2
    code, _ = run(["ksdim", data("xy.salg"), "--field", "fp", "4"])
    assert code == 2


def test_malformed_or_repeated_pair_directives_exit_2(tmp_path, capsys):
    pair = tmp_path / "pair.shc"
    for text, where in (
        ("hcpair p\n  size 2\n  odd 1\n  rho 1\nend\n", "line 3, column 7"),
        (
            "hcpair p\n  size 2\n  odd-dim 1\n  rho 1\n  bracket 1 1: 0, 2; 0, 0\n"
            "  bracket 1 1: 0, 0; 0, 0\nend\n",
            "line 6, column 3",
        ),
        (
            "hcpair p\n  size 2\n  odd-dim 1\n  rel g11 - 1; g22 - 1; g21\n  rho 1\n"
            "  brackt 1 1: 0, 2; 0, 0\nend\n",
            "line 6, column 3: expected size, odd-dim, rel, rho, bracket or end",
        ),
    ):
        pair.write_text(text)
        code, out = run(["hc", "graded", str(pair)])
        assert code == 2 and out == ""
        assert where in capsys.readouterr().err


# One input per command whose error the library raises (StructureError,
# ParityError or ActionError); run_command reports each on one line.
LIBRARY_ERRORS = [
    (["phi-dim", "x2-y1y2.salg", "--point", "x = 1"], "point does not satisfy relation x^2 - y1y2"),
    (["localize", "xy.salg", "--element", "y"], "can only localize at an even element"),
    (["mono-check", "xy.salg", "xy.salg", "--images", "x -> y; y -> x"], "image of x has wrong parity"),
    (
        ["orbit", "xy.salg", "--derivation", "x -> x", "--point", "x = 0"],
        "parity check failed: image of x has wrong parity: x",
    ),
    (
        ["verify-orbits", "x2-y1y2.salg", "--derivation", "y1 -> x", "--point", "x = 1"],
        "ideal_stable check failed: phi(x^2 - y1y2) = -x*y2 is not in the ideal",
    ),
]


@pytest.mark.parametrize("argv, message", LIBRARY_ERRORS, ids=[argv[0] for argv, _ in LIBRARY_ERRORS])
def test_library_errors_exit_2_with_their_message(argv, message, capsys):
    argv = [data(a) if a.endswith(".salg") else a for a in argv]
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def bounded_document(tmp_path, n):
    """k[x | y1..yn]/(x*y1y2y3) with the derivation yn -> 1 and the point
    x = 0."""
    odd = " ".join("y%d" % (i + 1) for i in range(n))
    doc = tmp_path / ("odd%d.salg" % n)
    doc.write_text(
        "superalgebra big\n  even x\n  odd %s\n  rel x*y1*y2*y3\nend\n"
        "derivation shift\n  y%d -> 1\nend\npoint origin\n  x = 0\nend\n" % (odd, n)
    )
    return str(doc)


KSDIM_COMMANDS = (
    ["ksdim"],
    ["odd-params"],
    ["verify-orbits", "--derivation", "shift"],
    ["orbit", "--derivation", "shift", "--point", "origin"],
)


@pytest.mark.parametrize("command", KSDIM_COMMANDS, ids=[c[0] for c in KSDIM_COMMANDS])
def test_ksdim_above_its_odd_bound_exits_2(command, tmp_path, capsys):
    from superalg.sdim import KSDIM_MAX_ODD

    doc = bounded_document(tmp_path, KSDIM_MAX_ODD + 1)
    code, out = run([command[0], doc] + command[1:])
    assert (code, out) == (2, "")
    message = "at most %d odd generators, not %d" % (KSDIM_MAX_ODD, KSDIM_MAX_ODD + 1)
    assert capsys.readouterr().err == "error: %s\n" % message


def test_the_odd_bound_is_ksdims_own(tmp_path):
    """At the bound ksdim still answers, and above it bar, which searches
    nothing, still does."""
    from superalg.sdim import KSDIM_MAX_ODD

    code, out = run(["ksdim", bounded_document(tmp_path, KSDIM_MAX_ODD)])
    assert (code, out) == (0, "Ksdim = 1|%d\n" % (KSDIM_MAX_ODD - 1))
    code, out = run(["bar", bounded_document(tmp_path, KSDIM_MAX_ODD + 1)])
    assert code == 0 and "even x" in out


def test_finite_field_flag():
    code, out = run(["ksdim", data("xy.salg"), "--field", "fp", "5"])
    assert code == 0 and "1|0" in out


def test_denominator_divisible_by_p_is_an_input_error(tmp_path, capsys):
    doc = tmp_path / "sevenths.salg"
    doc.write_text("superalgebra a\n  even x\n  odd y\n  rel 5/7*x*y\nend\n")
    code, out = run(["ksdim", str(doc), "--field", "fp", "7"])
    assert code == 2 and out == ""
    assert "divisible by 7" in capsys.readouterr().err
    code, _ = run(["ksdim", str(doc), "--field", "fp", "5"])
    assert code == 0


def test_huge_prime_field_is_accepted_quickly():
    start = time.perf_counter()
    code, out = run(["ksdim", data("xy.salg"), "--field", "fp", "1000000000000000003"])
    assert code == 0 and "1|0" in out
    assert time.perf_counter() - start < 5
    # beyond the deterministic Miller-Rabin range primality is not certified
    code, _ = run(["ksdim", data("xy.salg"), "--field", "fp", str(2**89 - 1)])
    assert code == 2


def test_unexpected_exception_exits_3_without_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_bar", broken)
    # run_command lets the exception through; only the process entry maps it
    with pytest.raises(RuntimeError):
        run(["bar", data("xy.salg")])
    monkeypatch.setattr(sys, "argv", ["superalg", "bar", data("xy.salg")])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    run(["bar", data("xy.salg")])  # warm-up: builds the shared parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run(["ksdim", data("xy.salg")])
    run(["gr", data("x2-y1y2.salg"), "--json"])
    assert built == []

    verify = ["verify-orbits", data("a11.salg"), "--derivation", "translate"]
    code, out = run(verify + ["--point", "x = 2"])
    assert code == 0 and "checks ok" in out
    # the --point list of the previous call must not become the default
    code, _ = run(verify)
    assert code == 2

    orbit = ["orbit", data("a11.salg"), "--derivation", "translate", "--point", "x = 2"]
    code, over_q = run(orbit)
    assert code == 0 and "x - 2" in over_q
    code, over_f7 = run(orbit + ["--field", "fp", "7"])
    assert code == 0 and over_f7 != over_q
    assert run(orbit) == (0, over_q)


def run_fresh(code):
    """Runs Python source in a fresh interpreter that imports superalg
    from the same tree as this test."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_imports_only_the_shared_layers():
    done = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import superalg.cli\n"
        "print(json.dumps([sorted(before), sorted(sys.modules)]))\n"
    )
    assert done.returncode == 0, done.stderr
    before, after = (set(names) for names in json.loads(done.stdout))
    for name in ("superalg.hcgroup", "superalg.orbits", "superalg.selftest", "superalg.oracle"):
        assert name not in after
    assert "dataclasses" not in after - before
    for name in ("superalg.dsl", "superalg.groebner", "superalg.sdim"):
        assert name in after
    # each new standard-library import is paid by every process at start-up
    new = {name for name in after - before if not name.startswith("superalg")}
    assert "bisect" not in new and new <= STARTUP_MODULES, new - STARTUP_MODULES


# What ``import superalg.cli`` loads from the standard library on Python
# 3.11; a new name here costs every process its import.
STARTUP_MODULES = {
    "__future__", "_decimal", "_heapq", "argparse", "decimal", "fractions", "gettext", "heapq", "numbers",
}  # fmt: skip


def test_hc_error_exits_2_in_a_fresh_process():
    """``run_command`` maps HCError to exit 2 before anything has imported
    ``hcgroup``; here the rewriting cap is cut to two steps."""
    done = run_fresh(
        "import sys\n"
        "from superalg import cli\n"
        "from superalg import hcgroup\n"
        "rewrite = hcgroup._rewrite\n"
        "hcgroup._rewrite = lambda *args, **kwargs: rewrite(*args[:4], max_steps=2)\n"
        "sys.argv = ['superalg', 'hc', 'inv', 'sl2-standard', 'e(s,1) e(t,2)']\n"
        "cli.main()\n"
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: rewriting did not terminate within 2 steps\n"


# One call per entry of cli.COMMANDS, with the exact inputs its JSON echoes.
JSON_CALLS = {
    "ksdim": (["xy.salg"], {"file"}),
    "bar": (["xy.salg"], {"file"}),
    "gr": (["x2-y1y2.salg"], {"file"}),
    "ann": (["xy.salg", "--element", "y"], {"file", "element"}),
    "odd-params": (["xy1y2.salg"], {"file"}),
    "odd-regular": (["lambda2.salg", "--seq", "y1, y2"], {"file", "seq"}),
    "phi-dim": (["xy.salg", "--point", "x = 1"], {"file", "point"}),
    "localize": (["xy.salg", "--element", "x"], {"file", "element"}),
    "mono-check": (["a11.salg", "xy.salg", "--images", "x -> x; y -> y"], {"src", "dst", "images"}),
    "hc validate": (["unipotent"], {"pair"}),
    "hc sdim": (["sl2-standard"], {"pair"}),
    "hc graded": (["gl1-weight"], {"pair"}),
    "hc mul": (["unipotent", "g[[1,2],[0,1]] e(s,1)", "e(t,1)"], {"pair", "left", "right"}),
    "hc inv": (["unipotent", "g[[1,1],[0,1]] e(s,1)"], {"pair", "element"}),
    "orbit": (["a11.salg", "--derivation", "translate", "--point", "x = 2"],
              {"file", "derivation", "point"}),
    "verify-orbits": (["a11.salg", "--derivation", "scale", "--point", "x = 0"], {"file", "derivation"}),
    "selftest": ([], {"seed"}),
}


def test_json_outputs_are_stable():
    assert list(JSON_CALLS) == list(cli.COMMANDS)
    for command, (rest, inputs) in JSON_CALLS.items():
        argv = command.split() + [data(a) if a.endswith(".salg") else a for a in rest] + ["--json"]
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert (code1, out1) == (code2, out2) == (0, out1), argv
        payload = json.loads(out1)
        assert payload["command"] == command
        assert set(payload["inputs"]) == inputs, command
        assert ("text" in payload) == (command != "selftest"), command
    code, out = run(["selftest", "--json", "--seed", "3"])
    assert code == 0 and json.loads(out)["inputs"] == {"seed": 3}


def test_every_handler_is_a_command_in_the_table():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = {
        node.name[len("_cmd_"):]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    }
    assert handlers == {name.replace("-", "_").replace(" ", "_") for name in cli.COMMANDS}


def outputs(argv):
    """(exit code, stdout, stderr) of one run_command call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def test_leaf_dispatch_matches_the_top_level_parser(monkeypatch):
    """A known command goes straight to its leaf parser; every output must
    be what parsing with the whole parser gives."""
    calls = []
    for command, (rest, _) in JSON_CALLS.items():
        words = command.split()
        good = words + [data(a) if a.endswith(".salg") else a for a in rest]
        if command == "selftest":
            good = words + ["--seed", "x"]  # its good call runs the whole corpus
        calls += [
            good,
            good + ["--json"],
            words,  # a missing required argument, for all but selftest
            good + ["--bogus"],
            good + ["--field", "fp"],
            good + ["extra"],
            words + ["--help"],
            words + ["-h", "--bogus"],
        ]
    calls += [["hc"], ["hc", "--json", "sdim", "unipotent"], ["hc", "nonsense"], ["hc validate", "unipotent"],
              ["nonsense"], ["--help"], ["--json"], []]  # fmt: skip
    leaf = [outputs(argv) for argv in calls]
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert [outputs(argv) for argv in calls] == leaf
    assert {code for code, _, _ in leaf} == {0, 2}


def test_repeated_point_entry_exits_2(capsys):
    assert run(["phi-dim", data("xy1y2.salg"), "--point", "x = 1; x = 0"]) == (2, "")
    assert capsys.readouterr().err == "error: line 1, column 8: repeated entry for 'x'\n"


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(command line, stdout lines) for each ``$ superalg ...`` line in the
    README's ``sh`` blocks: the lines after it, up to a blank line, are what
    it prints, with ``...`` standing for any text."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M):
        for chunk in block.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ superalg "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


README_EXAMPLES = readme_examples()


def test_the_readme_shows_its_examples():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize("line, shown", README_EXAMPLES, ids=[line for line, _ in README_EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(line, shown, monkeypatch):
    monkeypatch.chdir(README.parent)
    code, out = run(shlex.split(line)[1:])
    assert code == 0
    got = out.splitlines()
    assert len(got) == len(shown)
    for text, pattern in zip(got, shown):
        assert re.fullmatch(".*".join(map(re.escape, pattern.split("..."))), text), (text, pattern)
