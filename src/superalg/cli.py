"""Command-line interface.

Every subcommand reads a ``.salg`` document (or an ``.shc`` pair document /
built-in pair name for the ``hc`` family), prints human-readable text by
default and a stable JSON schema ``{command, inputs, result[, certificate]}``
with ``--json``.

Exit codes: 0 success, 1 a predicate evaluated to false, 2 input error,
3 internal error (``main`` only; ``run_command`` lets the exception through).

``run_command`` may be called repeatedly in one process: the argument parser
is built on the first call and reused, and no state carries over between
calls.

A command imports only the layers it uses: ``dsl``, ``groebner``, ``sdim``,
``scalars`` and ``superpoly`` are shared by all of them, while ``hcgroup``
is imported by the ``hc`` handlers, ``orbits`` by ``orbit`` and
``verify-orbits`` and ``selftest`` by ``selftest``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from superalg import dsl, sdim
from superalg.groebner import (
    Morphism,
    annihilator,
    check_mono_necessary,
    localize_at_even,
)
from superalg.scalars import Field, FieldError, QQ
from superalg.superpoly import HCError, ParityError, StructureError


class InputError(ValueError):
    pass


def _field_from_args(args):
    spec = getattr(args, "field", None) or ["q"]
    if spec[0] == "q":
        if len(spec) != 1:
            raise InputError("--field q takes no further argument")
        return QQ
    if spec[0] == "fp":
        if len(spec) != 2:
            raise InputError("--field fp needs a prime, e.g. --field fp 5")
        try:
            return Field(int(spec[1]))
        except (ValueError, FieldError) as e:
            raise InputError(str(e))
    raise InputError("--field must be 'q' or 'fp <p>'")


def _load_manifest(path, field):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(str(e))
    return dsl.parse_document(text, field)


def _load_pair(spec, field):
    from superalg import hcgroup

    make = hcgroup.BUILTIN_PAIRS.get(spec)
    if make is not None:
        return make(field)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("%r is not a built-in pair (%s) or a readable file: %s"
                         % (spec, ", ".join(sorted(hcgroup.BUILTIN_PAIRS)), e))
    return dsl.parse_pair_document(text, field)


def _coeff_algebra(field):
    """The default coefficient superalgebra for hc element words."""
    from superalg import hcgroup

    return hcgroup.lambda_algebra(("s", "t", "u", "w"), field)


def _parse_element_word(text, pair, algebra):
    """``g[[1,s],[0,1]] e(s*t, 1) e(u, 2)`` -> normalized HCElement."""
    from superalg import hcgroup

    stream = dsl.TokenStream(dsl.tokenize(text))
    word = []
    vs = algebra.vs
    while stream.peek().kind != "eof":
        t = stream.peek()
        if t.kind == "ident" and t.text == "g":
            stream.next()
            stream.expect("[")
            rows = []
            while True:
                stream.expect("[")
                row = [dsl.PolyParser(stream, vs).parse()]
                while stream.peek().text == ",":
                    stream.next()
                    row.append(dsl.PolyParser(stream, vs).parse())
                stream.expect("]")
                rows.append(row)
                if stream.peek().text == ",":
                    stream.next()
                    continue
                break
            stream.expect("]")
            N = pair.group.N
            if len(rows) != N or any(len(r) != N for r in rows):
                raise dsl.ParseError("group factor must be a %d x %d matrix" % (N, N))
            word.append(("g", rows))
        elif t.kind == "ident" and t.text == "e":
            stream.next()
            stream.expect("(")
            a = dsl.PolyParser(stream, vs).parse()
            stream.expect(",")
            it = stream.peek()
            if it.kind != "int":
                stream.error("expected a basis index")
            stream.next()
            idx = int(it.text)
            stream.expect(")")
            if not 1 <= idx <= pair.t:
                raise dsl.ParseError("basis index %d out of range 1..%d" % (idx, pair.t))
            word.append(("e", a, idx - 1))
        else:
            stream.error("expected a g[...] or e(...) factor")
    if not word:
        raise dsl.ParseError("empty element word")
    return hcgroup.normalize_word(pair, algebra, word)


def _render_element(el):
    parts = ["g = " + _render_matrix(el.g)]
    for i, a in enumerate(el.odd):
        if a:
            parts.append("e(%s, %d)" % (a.render(), i + 1))
    return "; ".join(parts)


def _render_matrix(M):
    return "[" + ", ".join("[" + ", ".join(e.render() for e in row) + "]" for row in M) + "]"


def _element_json(el):
    return {
        "g": [[e.render() for e in row] for row in el.g],
        "odd": [a.render() for a in el.odd],
    }


def _emit(args, payload, out):
    if args.json:
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        out.write(payload["text"] + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an exit code)


def _cmd_ksdim(args, out):
    field = _field_from_args(args)
    manifest = _load_manifest(args.file, field)
    A = manifest.algebra
    dim, cert = sdim.ksdim(A, seed=args.seed)
    _emit(
        args,
        {
            "command": "ksdim",
            "inputs": {"file": args.file},
            "result": dim.render(),
            "certificate": {
                "elements": [e.render() for e in cert.elements],
                "reason": cert.reason,
            },
            "text": "Ksdim = %s" % dim.render(),
        },
        out,
    )
    return 0


def _cmd_bar(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    B = sdim.bar(A)
    rels = [r.render() for r in B.relations]
    text = "bar: even %s" % (" ".join(B.vs.even) or "(none)")
    if rels:
        text += "; rel " + "; ".join(rels)
    _emit(
        args,
        {
            "command": "bar",
            "inputs": {"file": args.file},
            "result": {"even": list(B.vs.even), "relations": rels},
            "text": text,
        },
        out,
    )
    return 0


def _cmd_gr(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    G = sdim.gr_presentation(A)
    rels = [r.render() for r in G.relations]
    homogeneous = all(sdim.is_odd_weight_homogeneous(r) for r in G.relations)
    text = "gr relations: %s (odd-weight homogeneous: %s)" % (
        "; ".join(rels) or "(none)",
        homogeneous,
    )
    _emit(
        args,
        {
            "command": "gr",
            "inputs": {"file": args.file},
            "result": {"relations": rels, "odd_weight_homogeneous": homogeneous},
            "text": text,
        },
        out,
    )
    return 0


def _cmd_ann(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    p = dsl.parse_poly(args.element, A.vs)
    ideal = annihilator(p, A)
    gens = [g.render() for g in ideal.generators]
    text = "Ann(%s) = (%s)%s" % (
        p.render() if p else "0",
        ", ".join(gens) or "0",
        " [unit ideal]" if ideal.is_unit_ideal() else "",
    )
    _emit(
        args,
        {
            "command": "ann",
            "inputs": {"file": args.file, "element": args.element},
            "result": {"generators": gens, "unit_ideal": ideal.is_unit_ideal()},
            "text": text,
        },
        out,
    )
    return 0


def _cmd_odd_params(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    dim, cert = sdim.ksdim(A, seed=args.seed)
    elements = [e.render() for e in cert.elements]
    text = "maximal odd parameter system: {%s} (odd dimension %s)" % (
        ", ".join(elements),
        dim.as_tuple()[1],
    )
    _emit(
        args,
        {
            "command": "odd-params",
            "inputs": {"file": args.file},
            "result": {"elements": elements, "odd_dimension": dim.as_tuple()[1]},
            "text": text,
        },
        out,
    )
    return 0


def _cmd_odd_regular(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    seq = dsl.parse_poly_list(args.seq, A.vs)
    ok = sdim.is_odd_regular_sequence(A, seq)
    _emit(
        args,
        {
            "command": "odd-regular",
            "inputs": {"file": args.file, "seq": args.seq},
            "result": bool(ok),
            "text": "true" if ok else "false",
        },
        out,
    )
    return 0 if ok else 1


def _cmd_phi_dim(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    values = dsl.parse_assignments(args.point or "", A.vs)
    missing = [x for x in A.vs.even if x not in values]
    if missing:
        raise InputError("point is missing values for: %s" % ", ".join(missing))
    pt = sdim.PointIdeal(values)
    d = sdim.phi_dim_at_point(A, pt)
    _emit(
        args,
        {
            "command": "phi-dim",
            "inputs": {"file": args.file, "point": args.point or ""},
            "result": d,
            "text": "dim Phi = %d" % d,
        },
        out,
    )
    return 0


def _cmd_localize(args, out):
    field = _field_from_args(args)
    A = _load_manifest(args.file, field).algebra
    a = dsl.parse_poly(args.element, A.vs)
    loc, tname = localize_at_even(A, a)
    rels = [r.render() for r in loc.relations]
    text = "localization: even %s; odd %s; rel %s (inverse variable %s)" % (
        " ".join(loc.vs.even) or "(none)",
        " ".join(loc.vs.odd) or "(none)",
        "; ".join(rels) or "(none)",
        tname,
    )
    _emit(
        args,
        {
            "command": "localize",
            "inputs": {"file": args.file, "element": args.element},
            "result": {
                "even": list(loc.vs.even),
                "odd": list(loc.vs.odd),
                "relations": rels,
                "inverse_variable": tname,
            },
            "text": text,
        },
        out,
    )
    return 0


def _cmd_mono_check(args, out):
    field = _field_from_args(args)
    src = _load_manifest(args.src, field).algebra
    dst = _load_manifest(args.dst, field).algebra
    raw = dsl.parse_images(args.images, dst.vs)
    phi = Morphism(src, dst, raw)
    ok = check_mono_necessary(phi)
    _emit(
        args,
        {
            "command": "mono-check",
            "inputs": {"src": args.src, "dst": args.dst, "images": args.images},
            "result": bool(ok),
            "text": "true" if ok else "false",
        },
        out,
    )
    return 0 if ok else 1


def _cmd_hc(args, out):
    from superalg import hcgroup

    field = _field_from_args(args)
    pair = _load_pair(args.pair, field)
    A = _coeff_algebra(field)
    if args.hc_command == "validate":
        report = hcgroup.validate_hc_pair(pair)
        ok = all(good for good, _ in report.values())
        lines = []
        for check in sorted(report):
            good, wit = report[check]
            lines.append("%s: %s%s" % (check, "ok" if good else "FAIL", " (%s)" % wit if wit else ""))
        _emit(
            args,
            {
                "command": "hc validate",
                "inputs": {"pair": args.pair},
                "result": {check: good for check, (good, _) in report.items()},
                "text": "\n".join(lines),
            },
            out,
        )
        return 0 if ok else 1
    if args.hc_command == "mul":
        e1 = _parse_element_word(args.left, pair, A)
        e2 = _parse_element_word(args.right, pair, A)
        prod = hcgroup.hc_mul(e1, e2)
        _emit(
            args,
            {
                "command": "hc mul",
                "inputs": {"pair": args.pair, "left": args.left, "right": args.right},
                "result": _element_json(prod),
                "text": _render_element(prod),
            },
            out,
        )
        return 0
    if args.hc_command == "inv":
        el = _parse_element_word(args.element, pair, A)
        inv = hcgroup.hc_inv(el)
        _emit(
            args,
            {
                "command": "hc inv",
                "inputs": {"pair": args.pair, "element": args.element},
                "result": _element_json(inv),
                "text": _render_element(inv),
            },
            out,
        )
        return 0
    if args.hc_command == "sdim":
        d = hcgroup.sdim_of_pair(pair)
        _emit(
            args,
            {
                "command": "hc sdim",
                "inputs": {"pair": args.pair},
                "result": d.render(),
                "text": "sdim = %s" % d.render(),
            },
            out,
        )
        return 0
    if args.hc_command == "graded":
        ok = hcgroup.is_graded_pair(pair)
        _emit(
            args,
            {
                "command": "hc graded",
                "inputs": {"pair": args.pair},
                "result": bool(ok),
                "text": "true" if ok else "false",
            },
            out,
        )
        return 0 if ok else 1
    raise InputError("unknown hc subcommand %r" % args.hc_command)


def _resolve_action(args, manifest):
    from superalg import orbits

    A = manifest.algebra
    if args.derivation in manifest.derivations:
        images = manifest.derivations[args.derivation].images
    else:
        images = dsl.parse_images(args.derivation, A.vs)
    action = orbits.OddAction(A, images)
    orbits.validate_action(action)
    return action


def _resolve_point(text, manifest):
    A = manifest.algebra
    if text in manifest.points:
        values = manifest.points[text].values
    else:
        values = dsl.parse_assignments(text or "", A.vs)
    missing = [x for x in A.vs.even if x not in values]
    if missing:
        raise InputError("point is missing values for: %s" % ", ".join(missing))
    return sdim.PointIdeal(values)


def _cmd_orbit(args, out):
    from superalg import orbits

    field = _field_from_args(args)
    manifest = _load_manifest(args.file, field)
    action = _resolve_action(args, manifest)
    pt = _resolve_point(args.point, manifest)
    result = orbits.orbit_ideal(action, pt)
    gens = [g.render() for g in result.ideal.generators]
    text = "I = (%s), sdim %s, stabilizer %s" % (
        ", ".join(gens) or "0",
        result.orbit_sdim.render(),
        result.stabilizer,
    )
    _emit(
        args,
        {
            "command": "orbit",
            "inputs": {"file": args.file, "derivation": args.derivation, "point": args.point},
            "result": {
                "ideal": gens,
                "sdim": result.orbit_sdim.render(),
                "stabilizer": result.stabilizer,
            },
            "text": text,
        },
        out,
    )
    return 0


def _cmd_verify_orbits(args, out):
    from superalg import orbits

    field = _field_from_args(args)
    manifest = _load_manifest(args.file, field)
    action = _resolve_action(args, manifest)
    points = [_resolve_point(p, manifest) for p in args.point]
    if not points:
        points = [_resolve_point(name, manifest) for name in sorted(manifest.points)]
    if not points:
        raise InputError("no points given (use --point)")
    all_ok = True
    entries = []
    lines = []
    for pt in points:
        result, report = orbits.verify_orbit_theorems(action, pt)
        ok = all(report.values())
        all_ok = all_ok and ok
        pt_desc = "; ".join(
            "%s=%s" % (k, manifest.algebra.vs.field.render(v)) for k, v in sorted(pt.point.items())
        )
        entries.append(
            {
                "point": pt_desc,
                "stabilizer": result.stabilizer,
                "sdim": result.orbit_sdim.render(),
                "checks": {k: bool(v) for k, v in report.items()},
            }
        )
        lines.append(
            "point {%s}: stabilizer %s, sdim %s, checks %s"
            % (pt_desc, result.stabilizer, result.orbit_sdim.render(), "ok" if ok else "FAIL")
        )
    _emit(
        args,
        {
            "command": "verify-orbits",
            "inputs": {"file": args.file, "derivation": args.derivation},
            "result": entries,
            "text": "\n".join(lines),
        },
        out,
    )
    return 0 if all_ok else 1


def _cmd_selftest(args, out):
    from superalg import selftest

    report = selftest.run(seed=args.seed)
    ok = all(entry["ok"] for entry in report["checks"])
    if args.json:
        out.write(
            json.dumps(
                {"command": "selftest", "inputs": {"seed": args.seed}, "result": report},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
    else:
        for entry in report["checks"]:
            out.write("%s: %s\n" % (entry["name"], "ok" if entry["ok"] else "FAIL"))
        out.write("selftest: %s\n" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit stable JSON")
    common.add_argument(
        "--field",
        nargs="+",
        metavar="F",
        help="scalar field: 'q' (default) or 'fp <p>' with p an odd prime",
    )
    common.add_argument("--seed", type=int, default=0, help="randomized-search seed")

    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact invariants of finitely generated supercommutative superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ksdim", parents=[common], help="Krull super-dimension")
    p.add_argument("file")

    p = sub.add_parser("bar", parents=[common], help="largest purely even quotient")
    p.add_argument("file")

    p = sub.add_parser("gr", parents=[common], help="associated graded presentation")
    p.add_argument("file")

    p = sub.add_parser("ann", parents=[common], help="annihilator superideal of an element")
    p.add_argument("file")
    p.add_argument("--element", required=True)

    p = sub.add_parser("odd-params", parents=[common], help="maximal system of odd parameters")
    p.add_argument("file")

    p = sub.add_parser("odd-regular", parents=[common], help="odd regular sequence predicate")
    p.add_argument("file")
    p.add_argument("--seq", required=True, help="comma-separated odd elements")

    p = sub.add_parser("phi-dim", parents=[common], help="odd minimal-generator count at a point")
    p.add_argument("file")
    p.add_argument("--point", default="", help="assignments like 'x = 0; z = 1'")

    p = sub.add_parser("localize", parents=[common], help="localization at an even element")
    p.add_argument("file")
    p.add_argument("--element", required=True)

    p = sub.add_parser("mono-check", parents=[common], help="monomorphism necessary condition")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--images", required=True, help="generator images like 'x -> x; y -> y'")

    p = sub.add_parser("hc", parents=[common], help="Harish-Chandra pair commands")
    hc_sub = p.add_subparsers(dest="hc_command", required=True)
    for name, helptext in (
        ("validate", "check the pair axioms"),
        ("sdim", "super-dimension of the pair"),
        ("graded", "zero-bracket (graded) predicate"),
    ):
        q = hc_sub.add_parser(name, parents=[common], help=helptext)
        q.add_argument("pair", help="built-in pair name or .shc file")
    q = hc_sub.add_parser("mul", parents=[common], help="normal form of a product")
    q.add_argument("pair")
    q.add_argument("left", help="element word, e.g. 'g[[1,s],[0,1]] e(t,1)'")
    q.add_argument("right")
    q = hc_sub.add_parser("inv", parents=[common], help="normal form of an inverse")
    q.add_argument("pair")
    q.add_argument("element")

    p = sub.add_parser("orbit", parents=[common], help="orbit of an odd unipotent action")
    p.add_argument("file")
    p.add_argument("--derivation", required=True, help="name from the file or 'x -> 0; y -> 1'")
    p.add_argument("--point", required=True, help="name from the file or 'x = 2'")

    p = sub.add_parser("verify-orbits", parents=[common], help="orbit theorems at given points")
    p.add_argument("file")
    p.add_argument("--derivation", required=True)
    p.add_argument("--point", action="append", default=[], help="repeatable")

    sub.add_parser("selftest", parents=[common], help="run the deterministic corpus")

    return parser


def run_command(argv, out=None):
    """Entry point used by tests: returns the exit code, writes to out."""
    out = out or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # Looked up per call, not bound into the shared parser, so a rebinding
    # of a module-level handler takes effect.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, out)
    except (
        InputError,
        dsl.ParseError,
        FieldError,
        ParityError,
        StructureError,
        HCError,
    ) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    """Process entry point.  An exception that run_command does not map to
    exit 2 is a bug, not a false predicate: it is reported on one line,
    without a traceback, and exits 3."""
    try:
        code = run_command(sys.argv[1:])
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
