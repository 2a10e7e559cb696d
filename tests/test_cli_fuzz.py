"""Fuzzing of the DSL and the CLI's exit-code contract.

Each example edits a shipped ``data/*.salg`` document once or twice
(inserting a token, a literal or a line, deleting a few characters,
dropping or repeating a line), picks a subcommand other than ``hc`` and
``selftest`` (neither reads a ``.salg`` document) with arguments built
from the document's generators or drawn from a pool of malformed ones,
and runs it over Q or F_7.  Pair examples edit a shipped ``data/*.shc``
document the same way (or move a line) and run ``hc validate``, ``sdim``
or ``graded`` on it.  ``run_command`` must return 0,
1 or 2, raise nothing, and explain every exit 2 on stderr.  Element-word
examples run ``hc mul`` or ``hc inv`` on words of ``g[...]`` and ``e(...)``
factors with nilpotent, constant and mixed coefficients, bad indices and
matrices of the wrong size; each call must end within a deadline, and an
exit 2 prints one ``error:`` line and no output.  All examples go through
the parsers that ``run_command`` builds once per process, each command's
arguments through that command's own parser.
"""

import contextlib
import io
import os
import signal
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from superalg.cli import run_command

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
DOCUMENTS = sorted(name for name in os.listdir(DATA) if name.endswith(".salg"))
PAIRS = sorted(name for name in os.listdir(DATA) if name.endswith(".shc"))
TEXTS = {}
for _name in DOCUMENTS + PAIRS:
    with open(os.path.join(DATA, _name), encoding="utf-8") as _fh:
        TEXTS[_name] = _fh.read()

FUZZ_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

PIECES = (
    "x", "y", "x1", "y1", "y2", "z", "*", "+", "-", "^", "(", ")", ";", ",",
    "/", "0", "2", "7", "1/2", "5/7", "1/0", "rel", "even", "odd", "end",
    "derivation", "point", "->", "=", "#", "\n", " ", "@",
)  # fmt: skip
PAIR_PIECES = (
    "g11", "g12", "g21", "g22", "d", "x", "*", "+", "-", "^", "(", ")", ";",
    ",", ":", "/", "0", "1", "2", "3", "5", "1/2", "1/0", "5/7", "size",
    "odd-dim", "odd", "rel", "rho", "bracket", "end", "hcpair", "#", "\n",
    " ", "@",
)  # fmt: skip
SCALARS = ("0", "1", "2", "-1", "1/2")
HOSTILE = ("5/7", "1/0")  # no value in F_7; no value at all
JUNK = ("", "zz", "(x", "x^", "->", "y ^ y") + HOSTILE
COMMANDS = (
    "ksdim", "bar", "gr", "ann", "odd-params", "odd-regular", "phi-dim",
    "localize", "mono-check", "orbit", "verify-orbits",
)  # fmt: skip


def generators(text):
    """(even, odd) generator names declared in a shipped document."""
    names = {"even": [], "odd": []}
    for line in text.splitlines():
        words = line.split()
        if words and words[0] in names:
            names[words[0]] += words[1:]
    return names["even"], names["odd"]


def polys(names):
    """A small polynomial in the given generator names, or (one time in
    four) junk."""
    factor = st.sampled_from(SCALARS + tuple(names))
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    poly = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    return st.one_of(poly, poly, poly, st.sampled_from(JUNK))


@st.composite
def assignments(draw, names, arrow, values):
    """'a <arrow> v; b <arrow> w' over a random subset of names, or junk."""
    if not names or draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(JUNK))
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    return "; ".join("%s %s %s" % (n, arrow, draw(values)) for n in chosen)


@st.composite
def documents(draw):
    """(text, even, odd): a shipped document with one or two random edits,
    and the generators it declared before them."""
    text = TEXTS[draw(st.sampled_from(DOCUMENTS))]
    even, odd = generators(text)
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(("relation", "relation", "insert", "delete", "drop-line", "repeat-line")))
        i = draw(st.sampled_from(range(len(lines))))
        line = lines[i]
        if edit == "relation":
            # into the superalgebra block, unless an earlier edit broke its header
            at = next((k + 1 for k, ln in enumerate(lines) if ln.startswith("superalgebra")), i)
            lines.insert(at, "  rel " + draw(polys(even + odd)))
        else:
            edit_line(draw, lines, edit, i, PIECES)
    return "\n".join(lines), even, odd


def edit_line(draw, lines, edit, i, pieces):
    """Edit lines[i] in place: insert a piece, delete one to three
    characters, or drop, repeat or move the line."""
    line = lines[i]
    if edit == "insert":
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + draw(st.sampled_from(pieces)) + line[at:]
    elif edit == "delete":
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + line[at + draw(st.integers(1, 3)) :]
    elif edit == "move-line":
        del lines[i]
        lines.insert(draw(st.integers(0, len(lines))), line)
    else:
        lines[i : i + 1] = [] if edit == "drop-line" else [line, line]


@st.composite
def pair_documents(draw):
    """A shipped pair document with one or two random edits."""
    lines = TEXTS[draw(st.sampled_from(PAIRS))].split("\n")
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(("insert", "insert", "delete", "drop-line", "repeat-line", "move-line")))
        edit_line(draw, lines, edit, draw(st.sampled_from(range(len(lines)))), PAIR_PIECES)
    return "\n".join(lines)


@st.composite
def invocations(draw, path, even, odd):
    """An argv for a subcommand other than hc and selftest, reading path,
    with arguments in the document's generators."""
    names = even + odd
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, path]
    if command in ("ann", "localize"):
        argv += ["--element", draw(polys(names))]
    elif command == "odd-regular":
        argv += ["--seq", ", ".join(draw(st.lists(polys(odd), max_size=3)))]
    elif command == "phi-dim":
        if draw(st.booleans()):
            argv += ["--point", draw(assignments(even, "=", st.sampled_from(SCALARS + HOSTILE)))]
    elif command == "mono-check":
        target = draw(st.sampled_from(DOCUMENTS))
        target_even, target_odd = generators(TEXTS[target])
        images = draw(assignments(names, "->", polys(target_even + target_odd)))
        argv += [os.path.join(DATA, target), "--images", images]
    elif command in ("orbit", "verify-orbits"):
        derivation = st.one_of(
            st.sampled_from(("translate", "scale")), assignments(names, "->", polys(names))
        )
        point = st.one_of(st.just("origin"), assignments(even, "=", st.sampled_from(SCALARS + HOSTILE)))
        argv += ["--derivation", draw(derivation)]
        for _ in range(1 if command == "orbit" else draw(st.integers(0, 2))):
            argv += ["--point", draw(point)]
    if draw(st.booleans()):
        argv += ["--field", "fp", "7"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@FUZZ_SETTINGS
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.salg")
    text, even, odd = data.draw(documents())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    keeps_the_contract(data.draw(invocations(path, even, odd)))


@FUZZ_SETTINGS
@given(data=st.data())
def test_mutated_pair_documents_keep_the_exit_code_contract(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.shc")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data.draw(pair_documents()))
    argv = ["hc", data.draw(st.sampled_from(("validate", "sdim", "graded"))), path]
    if data.draw(st.booleans()):
        argv += ["--field", "fp", "7"]
    if data.draw(st.booleans()):
        argv.append("--json")
    keeps_the_contract(argv)


def keeps_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_command(argv, out=out)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in err.getvalue()


# hc mul / hc inv element words over Lambda(s, t, u, w):
# pair -> (matrix size, odd dimension)
HC_PAIRS = {
    "unipotent": (2, 1), "gl1-weight": (1, 1), "sl2-standard": (2, 2),
    os.path.join(DATA, "unipotent.shc"): (2, 1),
}  # fmt: skip
ODD = ("s", "-t", "2*u", "s*t*u", "s + t*u*w", "1/2*w", "0")
EVEN_OR_MIXED = ("s*t", "s*t + u*w", "s + t*u")  # nilpotent, but not odd
CONSTANT = ("1", "-1", "2", "1/2")
MIXED = ("1 + s", "s*t - 1", "2 + s*t*u")  # a constant term plus a nilpotent
WORD_JUNK = ("", "(s", "s^", "1/0", "5/7", "x")
BAD_INDICES = ("0", "3", "s")
ENTRIES = ("0", "1", "2", "-1", "s*t", "1 + s*t", "u*w", "s", "1/2", "s*t - 2")
SECONDS = 10  # a call still running then has run away; the deadline is tighter


def one_in(draw, n):
    return draw(st.integers(1, n)) == 1


@st.composite
def group_factors(draw, n):
    """g[...] of size n (one time in ten n + 1): unitriangular, or one time
    in eight with every entry drawn."""
    size = n + 1 if one_in(draw, 10) else n
    drawn = one_in(draw, 8)

    def entry(r, c):
        if drawn or r < c or size == 1:
            return draw(st.sampled_from(ENTRIES))
        return "1" if r == c else "0"

    return "g[%s]" % ",".join("[%s]" % ",".join(entry(r, c) for c in range(size)) for r in range(size))


@st.composite
def element_words(draw, n, t):
    """One to three factors: a group factor, or e(coefficient, index) with
    an odd coefficient and an index in 1..t, each most of the time."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        if one_in(draw, 3):
            factors.append(draw(group_factors(n)))
            continue
        kind = draw(st.sampled_from((ODD,) * 12 + (EVEN_OR_MIXED, CONSTANT, MIXED, WORD_JUNK)))
        index = draw(st.sampled_from(BAD_INDICES)) if one_in(draw, 12) else draw(st.integers(1, t))
        factors.append("e(%s, %s)" % (draw(st.sampled_from(kind)), index))
    return draw(st.sampled_from(("", " "))).join(factors)


@st.composite
def hc_element_invocations(draw):
    command = draw(st.sampled_from(("mul", "mul", "inv")))
    pair = draw(st.sampled_from(sorted(HC_PAIRS)))
    argv = ["hc", command, pair]
    argv += [draw(element_words(*HC_PAIRS[pair])) for _ in range(2 if command == "mul" else 1)]
    if draw(st.booleans()):
        argv += ["--field", "fp", "7"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class RunAway(Exception):
    """A call still running after SECONDS: a deadline alone reports a slow
    call only once it returns."""


@contextlib.contextmanager
def time_limit(seconds):
    def stop(signum, frame):
        raise RunAway("still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True)
@given(argv=hc_element_invocations())
@example(argv=["hc", "mul", "sl2-standard", "e(1,2)e(1,1)e(1,2)", "e(u,1)"])
def test_element_words_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(SECONDS), contextlib.redirect_stderr(err):
        code = run_command(argv, out=out)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
