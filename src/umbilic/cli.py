"""Command-line interface.

Subcommands:

  validate FILE      check a route file, print the verdict report
  leaves FILE        synthesize and list the leaf family
  audit FILE         synthesize and cross-check pairwise disjointness
  render FILE        synthesize and write an SVG figure
  examples           list the built-in closed-form families
  lemma-check        compare disjointness predicates against the oracle

Exit codes: 0 success / clean, 2 validation or audit failure, 1 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .errors import GeometryError, InvalidRouteError, RouteParseError
from .foliation import (
    BUILTIN_FAMILIES,
    extend_slice,
    run_disjointness_agreement,
    synthesize,
    verify_disjoint,
)
from .leaves import Circle, ideal_endpoints
from .render import Viewport, render_svg
from .routes_io import dumps_document, load_route, validate_document
from .validation import Route, validate

REPORT_SCHEMA = "umbilic.report/1"


def _num(x: float):
    """Report numbers at 12 significant digits; infinities as strings."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _verdict_report(verdict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "report": "verdict",
        "mode": verdict.mode,
        "valid": verdict.valid,
        "zones": {
            "t_minus": _num(verdict.zones.t_minus),
            "t_plus": _num(verdict.zones.t_plus),
        },
        "worst_slack": _num(verdict.worst_slack),
        "violations": [
            {
                "kind": v.kind,
                "t1": _num(v.t1),
                "t2": _num(v.t2),
                "slack": _num(v.slack),
            }
            for v in verdict.violations
        ],
        "notes": list(verdict.notes),
    }


def _audit_report(report) -> dict:
    def contacts(items):
        return [
            {
                "t1": _num(c.t1),
                "t2": _num(c.t2),
                "kind": c.kind,
                "x": _num(c.x),
                "y": _num(c.y),
            }
            for c in items
        ]

    return {
        "schema": REPORT_SCHEMA,
        "report": "audit",
        "clean": report.clean,
        "pairs_checked": report.pair_count,
        "intersecting": contacts(report.intersecting),
        "tangent": contacts(report.tangent),
    }


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="umbilic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    p = {
        name: sub.add_parser(name, help=help_)
        for name, help_ in (
            ("validate", "check a route file"),
            ("leaves", "list the synthesized leaf family"),
            ("audit", "cross-check pairwise disjointness"),
            ("render", "write an SVG figure"),
            ("examples", "list built-in families"),
            ("lemma-check", "predicate vs oracle agreement"),
        )
    }
    for name in ("validate", "leaves", "audit", "render"):
        p[name].add_argument("file", help="route document (JSON)")
        p[name].add_argument("--tol", type=float, default=None, help="route tolerance")
    for name in ("leaves", "audit", "render"):
        p[name].add_argument("--force", action="store_true",
                             help="build even if invalid")
    p["validate"].add_argument("--c1", action="store_true",
                               help="pointwise derivative check")
    p["render"].add_argument("--out", default="slice.svg", help="output path")
    p["render"].add_argument("--extend", type=int, default=0, metavar="N",
                             help="add N extension leaves on each side (hypercycles)")
    p["render"].add_argument("--viewport", default=None,
                             help="xmin,xmax,ymax,width_px,height_px")
    p["lemma-check"].add_argument("--seed", type=int, default=0)
    p["lemma-check"].add_argument("--n", type=int, default=10000)
    return parser


def _load_route(args) -> Route:
    route = load_route(args.file)
    if args.tol is None:
        return route
    if not args.tol > 0:
        raise _UsageError(f"--tol must be positive, got {args.tol}")
    return replace(route, tol=args.tol)


def _cmd_validate(args) -> int:
    route = _load_route(args)
    verdict = validate(route, c1=args.c1)
    _print_json(_verdict_report(verdict))
    return 0 if verdict.valid else 2


def _cmd_leaves(args) -> int:
    route = _load_route(args)
    slice_ = synthesize(route, force=args.force)
    print("index\tt\tkind\tbeta\th\textension\tshape\ta_minus\ta_plus")
    for i, (t, leaf, ext) in enumerate(slice_.all_entries()):
        ends = ideal_endpoints(leaf)
        s = leaf.shape
        if isinstance(s, Circle):
            shape = f"circle {s.cx:.12g} {s.cy:.12g} {s.radius:.12g}"
        else:
            shape = f"line {s.x0:.12g} {s.y0:.12g} {s.dx:.12g} {s.dy:.12g}"
        print(
            f"{i}\t{t:.12g}\t{leaf.kind.value}\t{leaf.beta:.12g}\t"
            f"{leaf.h:.12g}\t{int(ext)}\t{shape}\t{ends.a_minus:.12g}\t"
            f"{ends.a_plus:.12g}"
        )
    return 0


def _cmd_audit(args) -> int:
    route = _load_route(args)
    slice_ = synthesize(route, force=args.force)
    report = verify_disjoint(slice_)
    _print_json(_audit_report(report))
    return 0 if report.clean else 2


def _parse_viewport(text: str) -> Viewport:
    parts = text.split(",")
    if len(parts) != 5:
        raise _UsageError("--viewport needs xmin,xmax,ymax,width_px,height_px")
    try:
        return Viewport(
            float(parts[0]), float(parts[1]), float(parts[2]),
            int(parts[3]), int(parts[4]),
        )
    except (ValueError, GeometryError) as exc:
        raise _UsageError(f"bad viewport: {exc}") from exc


def _cmd_render(args) -> int:
    route = _load_route(args)
    slice_ = synthesize(route, force=args.force)
    if args.extend:
        slice_ = extend_slice(slice_, args.extend, allow_noop=True)
    viewport = _parse_viewport(args.viewport) if args.viewport else Viewport()
    svg = render_svg(slice_, viewport)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    total = len(slice_.leaves) + len(slice_.extension_leaves)
    print(f"wrote {args.out}: {total} leaf paths")
    return 0


def _cmd_examples(args) -> int:
    for name in sorted(BUILTIN_FAMILIES):
        print(f"{name}\t{BUILTIN_FAMILIES[name]}")
    doc = {
        "transversal": {"kind": "geodesic"},
        "closed_form": {"name": "pencil"},
        "window": [-3.0, 3.0],
        "n": 121,
    }
    print()
    print("sample route document:")
    print(dumps_document(validate_document(doc)), end="")
    return 0


def _cmd_lemma_check(args) -> int:
    if args.n <= 0:
        raise _UsageError(f"--n must be positive, got {args.n}")
    all_ok = True
    for family in ("geodesic", "hypercycle"):
        stats = run_disjointness_agreement(family, n=args.n, seed=args.seed)
        print(
            f"{family}: agreement {stats.agreements}/{stats.compared} outside "
            f"the tangency margin ({stats.skipped_margin} margin skips, "
            f"{stats.skipped_tangent} tangency skips of {stats.total})"
        )
        for params in stats.mismatches:
            print(f"  mismatch at {tuple(round(p, 12) for p in params)}")
        all_ok = all_ok and stats.agreements == stats.compared
    return 0 if all_ok else 2


_COMMANDS = {
    "validate": _cmd_validate,
    "leaves": _cmd_leaves,
    "audit": _cmd_audit,
    "render": _cmd_render,
    "examples": _cmd_examples,
    "lemma-check": _cmd_lemma_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except InvalidRouteError as exc:
        print(f"umbilic: {exc}", file=sys.stderr)
        if exc.verdict is not None:
            _print_json(_verdict_report(exc.verdict))
        return 2
    except RouteParseError as exc:
        print(f"umbilic: route file invalid: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, OSError, GeometryError) as exc:
        print(f"umbilic: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
