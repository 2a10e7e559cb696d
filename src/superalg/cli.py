"""Command-line interface.

Every subcommand reads a ``.salg`` document (or an ``.shc`` pair document /
built-in pair name for the ``hc`` family), prints human-readable text by
default and a stable JSON schema ``{command, inputs, result[, certificate]}``
with ``--json``.

Each command is declared once, in ``COMMANDS``: its help line, its
arguments, and the names of the arguments that its JSON echoes as
``inputs``.  ``_build_parser`` builds every subparser from that table; a
name ``hc <sub>`` goes under the ``hc`` subparser.  The handler
``_cmd_<name>`` takes the parsed arguments and returns ``(ok, payload)``,
where ``payload`` holds ``result`` and ``text`` (and ``certificate`` for
``ksdim``).  ``run_command`` alone adds ``command`` and ``inputs`` and
writes the JSON or the text.

Exit codes: 0 success, 1 when the handler's ``ok`` is false (a checked
predicate), 2 input error (bad arguments, or a library error that
``run_command`` maps, reported on one line), 3 internal error (``main``
only; ``run_command`` lets the exception through).

``run_command`` may be called repeatedly in one process: the parsers are
built on the first call and reused, and no state carries over between
calls.  A known command's arguments go straight to its leaf parser; the
top-level parser reads only an empty, unknown or bare ``hc`` command line
and top-level ``--help``.

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
from superalg._kernel import TermOverflowError
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


def _arg(*flags, **options):
    return flags, options


FILE = _arg("file")
ELEMENT = _arg("--element", required=True)
PAIR = _arg("pair", help="built-in pair name or .shc file")

# name -> (help, arguments, the space-separated names of the arguments that
# the JSON echoes as inputs), in the order of ``superalg --help``
COMMANDS = {
    "ksdim": ("Krull super-dimension", [FILE], "file"),
    "bar": ("largest purely even quotient", [FILE], "file"),
    "gr": ("associated graded presentation", [FILE], "file"),
    "ann": ("annihilator superideal of an element", [FILE, ELEMENT], "file element"),
    "odd-params": ("maximal system of odd parameters", [FILE], "file"),
    "odd-regular": (
        "odd regular sequence predicate",
        [FILE, _arg("--seq", required=True, help="comma-separated odd elements")],
        "file seq",
    ),
    "phi-dim": (
        "odd minimal-generator count at a point",
        [FILE, _arg("--point", default="", help="assignments like 'x = 0; z = 1'")],
        "file point",
    ),
    "localize": ("localization at an even element", [FILE, ELEMENT], "file element"),
    "mono-check": (
        "monomorphism necessary condition",
        [_arg("src"), _arg("dst"),
         _arg("--images", required=True, help="generator images like 'x -> x; y -> y'")],
        "src dst images",
    ),
    "hc validate": ("check the pair axioms", [PAIR], "pair"),
    "hc sdim": ("super-dimension of the pair", [PAIR], "pair"),
    "hc graded": ("zero-bracket (graded) predicate", [PAIR], "pair"),
    "hc mul": (
        "normal form of a product",
        [_arg("pair"), _arg("left", help="element word, e.g. 'g[[1,s],[0,1]] e(t,1)'"),
         _arg("right")],
        "pair left right",
    ),
    "hc inv": ("normal form of an inverse", [_arg("pair"), _arg("element")], "pair element"),
    "orbit": (
        "orbit of an odd unipotent action",
        [FILE, _arg("--derivation", required=True, help="name from the file or 'x -> 0; y -> 1'"),
         _arg("--point", required=True, help="name from the file or 'x = 2'")],
        "file derivation point",
    ),
    "verify-orbits": (
        "orbit theorems at given points",
        [FILE, _arg("--derivation", required=True),
         _arg("--point", action="append", default=[], help="repeatable")],
        "file derivation",
    ),
    "selftest": ("run the deterministic corpus", [], "seed"),
}


def _field_from_args(args):
    spec = args.field or ["q"]
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


def _algebra(args):
    """The algebra of the one document a single-file command reads."""
    return _load_manifest(args.file, _field_from_args(args)).algebra


def _point(values, algebra):
    """The point with the given values, which must name every even generator."""
    missing = [x for x in algebra.vs.even if x not in values]
    if missing:
        raise InputError("point is missing values for: %s" % ", ".join(missing))
    return sdim.PointIdeal(values)


def _load_pair(args):
    from superalg import hcgroup

    field = _field_from_args(args)
    make = hcgroup.BUILTIN_PAIRS.get(args.pair)
    if make is not None:
        return make(field)
    try:
        with open(args.pair, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError("%r is not a built-in pair (%s) or a readable file: %s"
                         % (args.pair, ", ".join(sorted(hcgroup.BUILTIN_PAIRS)), e))
    return dsl.parse_pair_document(text, field)


def _elements(args, *words):
    """The pair's elements that the words name, over the default coefficient
    superalgebra Lambda(s, t, u, w)."""
    from superalg import hcgroup

    pair = _load_pair(args)
    algebra = hcgroup.lambda_algebra(("s", "t", "u", "w"), pair.group.field)
    return [hcgroup.normalize_word(pair, algebra, dsl.parse_element_word(w, pair, algebra.vs)) for w in words]


def _element(el):
    """The payload of an element: its entries and the text ``g = [...]; e(a, i)``."""
    g = [[e.render() for e in row] for row in el.g]
    parts = ["g = [" + ", ".join("[" + ", ".join(row) + "]" for row in g) + "]"]
    parts += ["e(%s, %d)" % (a.render(), i + 1) for i, a in enumerate(el.odd) if a]
    return {"result": {"g": g, "odd": [a.render() for a in el.odd]}, "text": "; ".join(parts)}


def _verdict(ok):
    return ok, {"result": bool(ok), "text": "true" if ok else "false"}


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (ok, payload)


def _cmd_ksdim(args):
    dim, cert = sdim.ksdim(_algebra(args))
    return True, {
        "result": dim.render(),
        "certificate": {
            "elements": [e.render() for e in cert.elements],
            "reason": cert.reason,
        },
        "text": "Ksdim = %s" % dim.render(),
    }


def _cmd_bar(args):
    B = sdim.bar(_algebra(args))
    rels = [r.render() for r in B.relations]
    text = "bar: even %s" % (" ".join(B.vs.even) or "(none)")
    if rels:
        text += "; rel " + "; ".join(rels)
    return True, {"result": {"even": list(B.vs.even), "relations": rels}, "text": text}


def _cmd_gr(args):
    G = sdim.gr_presentation(_algebra(args))
    rels = [r.render() for r in G.relations]
    homogeneous = all(sdim.is_odd_weight_homogeneous(r) for r in G.relations)
    text = "gr relations: %s (odd-weight homogeneous: %s)" % (
        "; ".join(rels) or "(none)",
        homogeneous,
    )
    return True, {
        "result": {"relations": rels, "odd_weight_homogeneous": homogeneous},
        "text": text,
    }


def _cmd_ann(args):
    A = _algebra(args)
    p = dsl.parse_poly(args.element, A.vs)
    ideal = annihilator(p, A)
    gens = [g.render() for g in ideal.generators]
    text = "Ann(%s) = (%s)%s" % (
        p.render() if p else "0",
        ", ".join(gens) or "0",
        " [unit ideal]" if ideal.is_unit_ideal() else "",
    )
    return True, {"result": {"generators": gens, "unit_ideal": ideal.is_unit_ideal()}, "text": text}


def _cmd_odd_params(args):
    dim, cert = sdim.ksdim(_algebra(args))
    elements = [e.render() for e in cert.elements]
    text = "maximal odd parameter system: {%s} (odd dimension %s)" % (
        ", ".join(elements),
        dim.odd,
    )
    return True, {"result": {"elements": elements, "odd_dimension": dim.odd}, "text": text}


def _cmd_odd_regular(args):
    A = _algebra(args)
    return _verdict(sdim.is_odd_regular_sequence(A, dsl.parse_poly_list(args.seq, A.vs)))


def _cmd_phi_dim(args):
    A = _algebra(args)
    d = sdim.phi_dim_at_point(A, _point(dsl.parse_assignments(args.point, A.vs), A))
    return True, {"result": d, "text": "dim Phi = %d" % d}


def _cmd_localize(args):
    A = _algebra(args)
    loc, tname = localize_at_even(A, dsl.parse_poly(args.element, A.vs))
    rels = [r.render() for r in loc.relations]
    text = "localization: even %s; odd %s; rel %s (inverse variable %s)" % (
        " ".join(loc.vs.even) or "(none)",
        " ".join(loc.vs.odd) or "(none)",
        "; ".join(rels) or "(none)",
        tname,
    )
    return True, {
        "result": {
            "even": list(loc.vs.even),
            "odd": list(loc.vs.odd),
            "relations": rels,
            "inverse_variable": tname,
        },
        "text": text,
    }


def _cmd_mono_check(args):
    field = _field_from_args(args)
    src = _load_manifest(args.src, field).algebra
    dst = _load_manifest(args.dst, field).algebra
    return _verdict(check_mono_necessary(Morphism(src, dst, dsl.parse_images(args.images, dst.vs))))


def _cmd_hc_validate(args):
    from superalg import hcgroup

    report = hcgroup.validate_hc_pair(_load_pair(args))
    lines = []
    for check in sorted(report):
        good, wit = report[check]
        lines.append("%s: %s%s" % (check, "ok" if good else "FAIL", " (%s)" % wit if wit else ""))
    result = {check: good for check, (good, _) in report.items()}
    return all(result.values()), {"result": result, "text": "\n".join(lines)}


def _cmd_hc_sdim(args):
    from superalg import hcgroup

    d = hcgroup.sdim_of_pair(_load_pair(args))
    return True, {"result": d.render(), "text": "sdim = %s" % d.render()}


def _cmd_hc_graded(args):
    from superalg import hcgroup

    return _verdict(hcgroup.is_graded_pair(_load_pair(args)))


def _cmd_hc_mul(args):
    from superalg import hcgroup

    return True, _element(hcgroup.hc_mul(*_elements(args, args.left, args.right)))


def _cmd_hc_inv(args):
    from superalg import hcgroup

    return True, _element(hcgroup.hc_inv(*_elements(args, args.element)))


def _resolve_action(args, manifest):
    from superalg import orbits

    A = manifest.algebra
    if args.derivation in manifest.derivations:
        images = manifest.derivations[args.derivation]
    else:
        images = dsl.parse_images(args.derivation, A.vs)
    action = orbits.OddAction(A, images)
    orbits.validate_action(action)
    return action


def _resolve_point(text, manifest):
    A = manifest.algebra
    if text in manifest.points:
        values = manifest.points[text]
    else:
        values = dsl.parse_assignments(text, A.vs)
    return _point(values, A)


def _cmd_orbit(args):
    from superalg import orbits

    manifest = _load_manifest(args.file, _field_from_args(args))
    action = _resolve_action(args, manifest)
    result = orbits.orbit_ideal(action, _resolve_point(args.point, manifest))
    gens = [g.render() for g in result.ideal.generators]
    text = "I = (%s), sdim %s, stabilizer %s" % (
        ", ".join(gens) or "0",
        result.orbit_sdim.render(),
        result.stabilizer,
    )
    return True, {
        "result": {
            "ideal": gens,
            "sdim": result.orbit_sdim.render(),
            "stabilizer": result.stabilizer,
        },
        "text": text,
    }


def _cmd_verify_orbits(args):
    from superalg import orbits

    manifest = _load_manifest(args.file, _field_from_args(args))
    action = _resolve_action(args, manifest)
    points = [_resolve_point(p, manifest) for p in args.point or sorted(manifest.points)]
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
    return all_ok, {"result": entries, "text": "\n".join(lines)}


def _cmd_selftest(args):
    from superalg import selftest

    report = selftest.run(seed=args.seed)
    ok = all(entry["ok"] for entry in report["checks"])
    if args.json:
        return ok, {"result": report}  # the selftest JSON schema has no text key
    lines = ["%s: %s" % (e["name"], "ok" if e["ok"] else "FAIL") for e in report["checks"]]
    lines.append("selftest: %s" % ("ok" if ok else "FAIL"))
    return ok, {"result": report, "text": "\n".join(lines)}


# ---------------------------------------------------------------------------
# argument parsing and the one place that writes output


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The top-level parser and its leaf parsers, keyed by the command's
    words: ("ksdim",), ("hc", "mul")."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit stable JSON")
    common.add_argument(
        "--field",
        nargs="+",
        metavar="F",
        help="scalar field: 'q' (default) or 'fp <p>' with p an odd prime",
    )
    common.add_argument("--seed", type=int, default=0, help="seed of the selftest sample")

    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact invariants of finitely generated supercommutative superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hc_sub = None
    leaves = {}
    for name, (helptext, arguments, _) in COMMANDS.items():
        group, leaf = sub, name
        if name.startswith("hc "):
            if hc_sub is None:
                # the common options belong to each leaf, after the subcommand
                hc = sub.add_parser("hc", help="Harish-Chandra pair commands")
                hc_sub = hc.add_subparsers(dest="hc_command", required=True)
            group, leaf = hc_sub, name[3:]
        p = group.add_parser(leaf, parents=[common], help=helptext)
        p.set_defaults(command=name)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        leaves[tuple(name.split())] = p
    return parser, leaves


def run_command(argv, out=None):
    """Entry point used by tests: returns the exit code, writes to out."""
    out = out or sys.stdout
    parser, leaves = _build_parser()
    words = 2 if argv[:1] == ["hc"] else 1
    leaf = leaves.get(tuple(argv[:words]))
    try:
        if leaf is None:
            args = parser.parse_args(argv)
        else:
            # arguments the leaf leaves are reported as parse_args would
            args, rest = leaf.parse_known_args(argv[words:])
            if rest:
                parser.error("unrecognized arguments: %s" % " ".join(rest))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # Looked up per call, not bound into the shared parser, so a rebinding
    # of a module-level handler takes effect.
    handler = globals()["_cmd_" + args.command.replace("-", "_").replace(" ", "_")]
    try:
        ok, payload = handler(args)
    except (
        InputError,
        dsl.ParseError,
        FieldError,
        ParityError,
        StructureError,
        HCError,
        TermOverflowError,
    ) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.json:
        inputs = {name: getattr(args, name) for name in COMMANDS[args.command][2].split()}
        payload = dict(payload, command=args.command, inputs=inputs)
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        out.write(payload["text"] + "\n")
    return 0 if ok else 1


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
