"""Seeded inputs for the four workloads.

The CLI workloads (ksdim-search, gb-dense, cli-mix) draw their operations
from a fixed pool of generated items whose outputs were recorded once in
``refs/<workload>.json``.  A run's seed picks one item from each cost
stratum of the pool (items sorted by their recorded cost and cut into
equal chunks), so every seed gives a different corpus with about the same
total work.  Items marked fixed run in every pass.

hc-words is not pooled: each block of operations is generated afresh from
the seed and the block number, and is checked by the group laws instead
of recorded bytes.

Everything here except ``hc_words`` is plain text generation and does not
import superalg, so pools can be rebuilt without touching the library.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
# relative to the checkout root, which is the working directory of a run;
# the paths end up inside the JSON output, so they must not vary
WORK_DIR = os.path.join(os.path.basename(BENCH_DIR), "work")
DATA_DIR = "data"

POOLED = ("ksdim-search", "gb-dense", "cli-mix")
POOL_SIZE = {"ksdim-search": 48, "gb-dense": 64, "cli-mix": 40}
STRATA = {"ksdim-search": 22, "gb-dense": 30, "cli-mix": 20}  # two items each
# The costliest items decide the tail metrics, so they run in every pass
# instead of being drawn.
TAIL = {"ksdim-search": 4, "gb-dense": 4, "cli-mix": 0}
FIELD_ARGS = {"q": ["--field", "q"], "fp7": ["--field", "fp", "7"], "fp32003": ["--field", "fp", "32003"]}
WORKLOAD_FIELDS = {
    "ksdim-search": "Q",
    "gb-dense": "F_32003",
    "hc-words": "Q",
    "cli-mix": "Q and F_7",
}


def _doc(name, even, odd, rels, extra=""):
    lines = ["superalgebra %s" % name]
    if even:
        lines.append("  even " + " ".join(even))
    if odd:
        lines.append("  odd " + " ".join(odd))
    lines.extend("  rel " + r for r in rels)
    lines.append("end")
    return "\n".join(lines) + "\n" + extra


def _monomial(rng, xs, ys, parity, max_exp=2, avoid=()):
    """A random monomial text of the given odd parity and degree >= 1."""
    allowed = [i for i, y in enumerate(ys) if y not in avoid]
    while True:
        sizes = [k for k in range(len(allowed) + 1) if k % 2 == parity and k <= 3]
        if not sizes:
            return None
        k = rng.choice(sizes)
        odd = sorted(rng.sample(allowed, k))
        exps = [rng.randint(1, max_exp) if rng.random() < 0.6 else 0 for _ in xs]
        if sum(exps) + k == 0:
            continue
        factors = []
        for x, e in zip(xs, exps):
            if e == 1:
                factors.append(x)
            elif e > 1:
                factors.append("%s^%d" % (x, e))
        if odd:
            factors.append("".join(ys[i] for i in odd))
        return "*".join(factors)


def _relation(rng, xs, ys, coeffs, terms, avoid=()):
    parity = rng.randint(0, 1)
    parts = []
    for _ in range(terms):
        mono = _monomial(rng, xs, ys, parity, avoid=avoid)
        if mono is None:
            mono = _monomial(rng, xs, ys, 1 - parity, avoid=avoid)
            if mono is None:
                return None
        parts.append("%s*%s" % (rng.choice(coeffs), mono))
    return " + ".join(parts)


def _item(item_id, files, ops):
    return {"id": item_id, "files": files, "ops": ops}


def _path(workload, name):
    return os.path.join(WORK_DIR, workload, name + ".salg")


# ---------------------------------------------------------------------------
# ksdim-search: seeded presentations plus the exhaustive-search family


def ksdim_item(i):
    rng = random.Random("ksdim-search:%d" % i)
    m = rng.choice([1, 2])
    n = rng.choice([3, 4])
    xs = ["x%d" % (k + 1) for k in range(m)]
    ys = ["y%d" % (k + 1) for k in range(n)]
    rels = []
    for _ in range(rng.randint(1, 3)):
        rels.append(_relation(rng, xs, ys, ["1", "-1", "2", "-2", "3"], rng.randint(1, 2)))
    item_id = "k%03d" % i
    path = _path("ksdim-search", item_id)
    return _item(item_id, {path: _doc(item_id, xs, ys, rels)}, [["ksdim", path, "--json"]])


def ksdim_fixed():
    """k[x | y1..yn]/(x*y_i): no odd parameter exists, so the candidate
    search runs to exhaustion."""
    out = []
    for n in (3, 4):
        ys = ["y%d" % (k + 1) for k in range(n)]
        item_id = "worst%d" % n
        path = _path("ksdim-search", item_id)
        doc = _doc(item_id, ["x"], ys, ["x*%s" % y for y in ys])
        out.append(_item(item_id, {path: doc}, [["ksdim", path, "--json"]]))
    return out


# ---------------------------------------------------------------------------
# gb-dense: Katsura-3 and cyclic-4 with odd generators coupled in

KATSURA3 = (
    ("u0", "u1", "u2", "u3"),
    [
        "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
        "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
    ],
)
CYCLIC4 = (
    ("a", "b", "c", "d"),
    ["a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"],
)


def gb_item(i):
    rng = random.Random("gb-dense:%d" % i)
    family = (KATSURA3, CYCLIC4)[i % 2]
    n = 1 + (i // 2) % 2
    xs = list(family[0])
    rng.shuffle(xs)  # the declaration order is the grevlex variable order
    ys = ["y%d" % (k + 1) for k in range(n)]
    rels = list(family[1])
    for k in range(n):
        a, b = rng.sample(xs, 2)
        rels.append(
            "%d*%s*%s + %d*%s*%s"
            % (rng.randint(1, 5), a, ys[k], rng.randint(1, 5), b, ys[(k + 1) % n])
        )
    item_id = "g%03d" % i
    path = _path("gb-dense", item_id)
    if (i // 4) % 2 == 0:
        argv = ["gr", path]
    else:
        element = rng.choice(ys)
        if rng.random() < 0.5:
            element = "%s*%s" % (rng.choice(xs), element)
        argv = ["ann", path, "--element", element]
    argv += ["--json"] + FIELD_ARGS["fp32003"]
    return _item(item_id, {path: _doc(item_id, xs, ys, rels)}, [argv])


# ---------------------------------------------------------------------------
# cli-mix: one call of every non-hc command per document


def _cli_ops(path, free_path, xs, ys, rng, field, derivation, point):
    """The eleven commands on one document; argument choices are seeded."""
    odd_seq = ", ".join(rng.sample(ys, rng.randint(1, len(ys))))
    element = rng.choice(ys)
    if xs and rng.random() < 0.5:
        element = "%s*%s" % (rng.choice(xs), element)
    values = "; ".join("%s = %d" % (x, rng.choice([0, 0, 1, -1])) for x in xs)
    target = rng.choice(xs) if xs else "1"
    local = rng.choice([target, target + " - 1", target + " + 2", ys[0]])  # odd: exit 2
    images = ["%s -> %s" % (x, x) for x in xs]
    dropped = rng.choice(ys) if rng.random() < 0.5 else None
    images += ["%s -> %s" % (y, "0" if y == dropped else y) for y in ys]
    tail = ["--json"] + FIELD_ARGS[field]
    return [
        ["ksdim", path] + tail,
        ["bar", path] + tail,
        ["gr", path] + tail,
        ["ann", path, "--element", element] + tail,
        ["odd-params", path] + tail,
        ["odd-regular", path, "--seq", odd_seq] + tail,
        ["phi-dim", path, "--point", values] + tail,
        ["localize", path, "--element", local] + tail,
        ["mono-check", free_path, path, "--images", "; ".join(images)] + tail,
        ["orbit", path, "--derivation", derivation, "--point", point] + tail,
        ["verify-orbits", path, "--derivation", derivation, "--point", point] + tail,
    ]


def climix_item(i):
    """A small document.  Half keep y1 out of the relations, so that the
    derivation y1 -> 1 is an odd unipotent action and the orbit commands
    succeed; on the other half they must exit 2.  Coefficients include
    fractions with denominators 2, 3 and 7."""
    rng = random.Random("cli-mix:%d" % i)
    m = rng.choice([1, 2])
    n = rng.choice([1, 2, 2])
    xs = ["x%d" % (k + 1) for k in range(m)]
    ys = ["y%d" % (k + 1) for k in range(n)]
    avoid = ("y1",) if rng.random() < 0.5 else ()
    coeffs = ["1", "-1", "2", "-3", "1/2", "-2/3", "5/7"]
    rels = []
    for _ in range(rng.randint(0, 2)):
        r = _relation(rng, xs, ys, coeffs, rng.randint(1, 2), avoid=avoid)
        if r is not None:
            rels.append(r)
    field = rng.choice(["q", "fp7"])
    extra = "\nderivation d\n  y1 -> 1\nend\n\npoint p\n%send\n" % "".join(
        "  %s = 0\n" % x for x in xs
    )
    item_id = "c%03d" % i
    path = _path("cli-mix", item_id)
    free_path = _path("cli-mix", item_id + "-free")
    files = {path: _doc(item_id, xs, ys, rels, extra), free_path: _doc("free", xs, ys, [])}
    return _item(item_id, files, _cli_ops(path, free_path, xs, ys, rng, field, "d", "p"))


SHIPPED = ("a11", "lambda2", "x1x2", "x2-y1y2", "xy", "xy1y2")


def _declared(text, keyword):
    """Words after ``keyword`` at the start of a line: generator names for
    ``even``/``odd``, block names for ``derivation``/``point``."""
    names = []
    for line in text.splitlines():
        words = line.split()
        if words and words[0] == keyword:
            names.extend(words[1:])
    return names


def climix_fixed():
    """The shipped examples under both fields."""
    out = []
    for name in SHIPPED:
        path = os.path.join(DATA_DIR, name + ".salg")
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            text = ""  # the commands then exit 2, which mismatches the references
        xs, ys = _declared(text, "even"), _declared(text, "odd")
        derivations = _declared(text, "derivation")
        points = _declared(text, "point")
        derivation = derivations[0] if derivations else "%s -> 1" % (ys[0] if ys else "x")
        point = points[0] if points else "; ".join("%s = 0" % x for x in xs)
        for field in ("q", "fp7"):
            rng = random.Random("cli-mix:%s:%s" % (name, field))
            item_id = "%s-%s" % (name, field)
            free_path = _path("cli-mix", "free-" + name)
            files = {free_path: _doc("free", xs, ys, [])}
            ops = _cli_ops(path, free_path, xs, ys or ["y"], rng, field, derivation, point)
            out.append(_item(item_id, files, ops))
    return out


GENERATORS = {"ksdim-search": ksdim_item, "gb-dense": gb_item, "cli-mix": climix_item}
FIXED = {"ksdim-search": ksdim_fixed, "gb-dense": lambda: [], "cli-mix": climix_fixed}


def _drawn(workload):
    return [GENERATORS[workload](i) for i in range(POOL_SIZE[workload])]


def pool(workload):
    """Every item of a pooled workload: fixed items first."""
    return FIXED[workload]() + _drawn(workload)


def item_digest(item):
    """Hash of what the library receives; refs are void when it changes."""
    blob = json.dumps([sorted(item["files"].items()), item["ops"]], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def refs_path(workload):
    return os.path.join(REFS_DIR, workload + ".json")


def load_refs(workload):
    with open(refs_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def select(workload, seed, refs):
    """The seeded pass: the fixed items, the costliest items, and one item
    per cost stratum of the rest, in a seeded order.  Items with an
    operation that raised at the reference commit are stratified apart,
    with strata in proportion to their number, so that every pass holds
    the same number of them."""

    def cost(item):
        return refs["items"][item["id"]]["cost_ms"], item["id"]

    def raised(item):
        return any("raises" in op for op in refs["items"][item["id"]]["ops"])

    drawn = sorted(_drawn(workload), key=cost)
    tail = len(drawn) - TAIL[workload]
    chosen = FIXED[workload]() + drawn[tail:]
    rng = random.Random(seed)
    for group in ([it for it in drawn[:tail] if raised(it)], [it for it in drawn[:tail] if not raised(it)]):
        k = round(STRATA[workload] * len(group) / tail)
        for s in range(k):
            chosen.append(rng.choice(group[s * len(group) // k : (s + 1) * len(group) // k]))
    rng.shuffle(chosen)
    return chosen


def write_files(items):
    for it in items:
        for path, text in it["files"].items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# hc-words: element words over the Grassmann algebra on s, t, u, w

HC_BLOCK = 60  # ops per block: 20 per built-in pair, one dense triple each
HC_DENSE_EVERY = 20


def hc_words(hcgroup, pair, coeff, rng, dense):
    """A raw word g * e(a_1, v_1) ... e(a_t, v_t): a group factor with
    small integer entries plus even nilpotents, and odd coefficients, all
    drawn as in the group-law acceptance check.  Dense words use every
    product and generator, sparse ones two of each."""
    vs = coeff.vs
    one, zero = vs.one(), vs.zero()
    odd = [vs.gen(name) for name in vs.odd]
    quads = [(i, j) for i in range(len(odd)) for j in range(i + 1, len(odd))]

    def even_nilpotent():
        acc = vs.zero()
        for i, j in quads if dense else rng.sample(quads, 2):
            acc = acc + (odd[i] * odd[j]).scale(rng.randint(-1, 1))
        return acc

    def odd_coefficient():
        acc = vs.zero()
        for y in odd if dense else rng.sample(odd, 2):
            acc = acc + y.scale(rng.randint(-1, 1))
        return acc + (odd[0] * odd[1] * odd[2]).scale(rng.randint(-1, 1))

    if pair.name == "unipotent":
        g = [[one, vs.const(rng.randint(-2, 2)) + even_nilpotent()], [zero, one]]
    elif pair.name == "gl1-weight":
        g = [[vs.const(rng.choice([1, 2, -1, 3])) + even_nilpotent()]]
    else:
        upper = [[one, vs.const(rng.randint(-1, 1)) + even_nilpotent()], [zero, one]]
        lower = [[one, zero], [vs.const(rng.randint(-1, 1)) + even_nilpotent(), one]]
        g = hcgroup.mat_mul(upper, lower)
    return [("g", g)] + [("e", odd_coefficient(), i) for i in range(pair.t)]


def hc_op_inputs(hcgroup, pairs, coeff, seed, index):
    """Pair name and three raw words for op ``index``."""
    names = sorted(pairs)
    name = names[index % len(names)]
    dense = (index // len(names)) % HC_DENSE_EVERY == 0
    rng = random.Random("hc-words:%d:%d" % (seed, index))
    words = [hc_words(hcgroup, pairs[name], coeff, rng, dense) for _ in range(3)]
    return name, words
