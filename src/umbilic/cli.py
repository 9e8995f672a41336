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
import functools
import json
import math
import re
import sys
from dataclasses import replace
from itertools import repeat

import numpy as np

from .errors import GeometryError, InvalidRouteError, RouteParseError
from .foliation import (
    BUILTIN_FAMILIES,
    FoliationSlice,
    PairContacts,
    extend_slice,
    leaf_table,
    run_disjointness_agreement,
    synthesize,
    verify_disjoint,
)
from .leaves import _circle_ends, _line_ends
from .render import Viewport, render_svg
from .routes_io import (
    MAX_CLOSED_FORM_N,
    _without_advice,
    dumps_document,
    dumps_json,
    load_route,
    template_rows,
    validate_document,
)
from .validation import Route, Violations, tol_limit, validate

REPORT_SCHEMA = "umbilic.report/1"


def _num(x: float):
    """Report numbers at 12 significant digits; infinities as strings."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _plain(x: np.ndarray) -> np.ndarray:
    """Where ``"%.12g" % x`` is ``json.dumps(_num(x))``.

    That is the repr of x rounded to 12 significant digits.  For a normal
    x whose rounding is not a whole number, the rounding printed by
    ``%.12g`` is that repr already: a 12-digit decimal round-trips through
    a double, and both forms choose fixed or exponent notation alike below
    1e11, above which every 12-digit rounding is whole.  The other values
    (whole numbers, zeros, subnormal and non-finite ones) are not plain."""
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite values
        return (a >= 1e-300) & (np.abs(x - np.round(x)) > 1e-11 * a)


def _json_num(x: float) -> str:
    """``json.dumps(_num(x))``; json writes a finite float as its repr."""
    num = _num(x)
    return "null" if num is None else repr(num) if type(num) is float else json.dumps(num)


def _number_texts(x: np.ndarray) -> list[str]:
    """``_json_num`` of each value of the float array ``x``: one conversion
    a value, ``%.12g`` where ``_plain`` holds."""
    values = x.tolist()
    texts = list(map(float.__format__, values, repeat(".12g")))
    for i in np.flatnonzero(~_plain(x)).tolist():
        texts[i] = _json_num(values[i])
    return texts


#: The time columns of a pair table (``Violations``, ``PairContacts``):
#: sample or leaf times, so a long table repeats a few values many times.
_TIMES = ("t1", "t2")


def _time_texts(*columns: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The texts of the distinct values of ``columns``, and each column's
    indices into them.  A value is distinct by its bit pattern, so 0.0 and
    -0.0 (and nans of any payload) each get their own text, and each text
    is written once, by ``_number_texts``."""
    bits, where = np.unique(np.concatenate(columns).view(np.int64), return_inverse=True)
    texts = np.array(_number_texts(bits.view(float)), dtype=object)
    return texts, np.split(where, len(columns))


#: How ``json.dumps(indent=2)`` opens an item of a top-level list, ends its
#: fields and items but the last, and closes it.
_OPEN, _SEP, _CLOSE = "    {\n", ",\n", "\n    }"


def _report_items(items, table) -> list[str]:
    """The pieces of the report's list body for ``items``, for
    ``dumps_json`` to join once.

    ``items`` is a row table of class ``table`` (``Violations``,
    ``PairContacts``) or a sequence of its rows, whose kinds may be any
    text; rows become columns first.  Each row is written in the order of
    the table's fields.  Each distinct kind gets one JSON string, and each
    distinct t1 or t2 one text (``_time_texts``); the field labels and the
    item's braces and commas are folded into those texts, the item's
    opening into the first field's.  Every other number gets one text a
    row (``_number_texts``).  The pieces are a rows x pieces grid read row
    by row.  So k rows with d distinct times cost O(k log k) numpy, d + k
    number writes for a verdict (d + 2k for an audit), and one join."""
    if not len(items):
        return []
    fields = table.__slots__
    if isinstance(items, table):
        columns, kinds = dict(zip(fields, items.columns)), table._kinds
    else:
        rows = tuple(items)
        columns = {
            name: np.array([getattr(r, name) for r in rows], dtype=object if name == "kind" else float)
            for name in fields
        }
        kinds, columns["kind"] = np.unique(columns["kind"], return_inverse=True)
    times, where = _time_texts(*(columns[name] for name in _TIMES))
    distinct = {name: (times, codes) for name, codes in zip(_TIMES, where)}
    distinct["kind"] = (np.array(list(map(json.dumps, kinds)), dtype=object), columns["kind"])
    # [texts, codes]: the column of pieces texts[codes], or texts (one text,
    # or one a row) where codes is None.
    pieces = []

    def put(text):  # onto the texts of a distinct column just before, or alone
        if pieces and pieces[-1][1] is not None:
            pieces[-1][0] = pieces[-1][0] + text
        else:
            pieces.append([text, None])

    for k, name in enumerate(fields):
        text = f"{_SEP if k else _OPEN}      {json.dumps(name)}: "
        if name in distinct:
            texts, codes = distinct[name]
            pieces.append([text + texts, codes])
        else:
            put(text)
            pieces.append([_number_texts(columns[name]), None])
    put(_CLOSE + _SEP)
    grid = np.empty((columns["kind"].size, len(pieces)), dtype=object)
    for j, (texts, codes) in enumerate(pieces):
        grid[:, j] = texts if codes is None else texts[codes]
    grid[-1, -1] = grid[-1, -1][: -len(_SEP)]  # no comma after the last item
    return grid.ravel().tolist()


def _verdict_report(verdict) -> str:
    """The verdict as report text; its violations as ``_report_items``."""
    head = {
        "schema": REPORT_SCHEMA,
        "report": "verdict",
        "mode": verdict.mode,
        "valid": verdict.valid,
        "zones": {
            "t_minus": _num(verdict.zones.t_minus),
            "t_plus": _num(verdict.zones.t_plus),
        },
        "worst_slack": _num(verdict.worst_slack),
        "violations": [],
        "notes": list(verdict.notes),
    }
    return dumps_json(head, violations=_report_items(verdict.violations, Violations))


def _audit_report(report) -> str:
    """The audit as report text; its flagged pairs as ``_report_items``."""
    head = {
        "schema": REPORT_SCHEMA,
        "report": "audit",
        "clean": report.clean,
        "pairs_checked": report.pair_count,
        "intersecting": [],
        "tangent": [],
    }
    return dumps_json(
        head,
        intersecting=_report_items(report.intersecting, PairContacts),
        tangent=_report_items(report.tangent, PairContacts),
    )


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value that starts with a negative number, such as the viewport
        # -3,3,3,800,400, is a value: no option here starts with a digit.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse would sys.exit(2); we want 1
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: argparse keeps no state
    between parses."""
    parser = _Parser(prog="umbilic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    p = {}
    for name, help_, handler in (
        ("validate", "check a route file", _cmd_validate),
        ("leaves", "list the synthesized leaf family", _cmd_leaves),
        ("audit", "cross-check pairwise disjointness", _cmd_audit),
        ("render", "write an SVG figure", _cmd_render),
        ("examples", "list built-in families", _cmd_examples),
        ("lemma-check", "predicate vs oracle agreement", _cmd_lemma_check),
    ):
        p[name] = sub.add_parser(name, help=help_)
        p[name].set_defaults(handler=handler)
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
    limit = tol_limit(route.transversal)
    if not 0 < args.tol < limit:
        raise _UsageError(f"--tol must lie in (0, {limit!r}), got {args.tol}")
    return replace(route, tol=args.tol)


def _family(args) -> FoliationSlice:
    """The route's leaf family, as ``leaves``, ``audit`` and ``render`` build it."""
    return synthesize(_load_route(args), force=args.force)


def _cmd_validate(args) -> int:
    route = _load_route(args)
    verdict = validate(route, c1=args.c1)
    print(_verdict_report(verdict))
    return 0 if verdict.valid else 2


#: One leaf-table row per leaf shape; numbers at 12 significant digits.
_LEAF_ROW = "%d\t%.12g\t%s\t%.12g\t%.12g\t%d\t{}\t%.12g\t%.12g"
_CIRCLE_ROW = _LEAF_ROW.format("circle %.12g %.12g %.12g")
_LINE_ROW = _LEAF_ROW.format("line %.12g %.12g %.12g %.12g")


def _leaf_rows(slice_) -> list[str]:
    """The leaf table's rows, one template call per leaf."""
    tb = leaf_table(slice_)
    line = np.isnan(tb.radius)
    head = (np.arange(slice_.t.size), slice_.t, tb.kind, tb.beta, tb.h, slice_.extension)
    groups = []
    for rows, template, shape, ends in (
        (~line, _CIRCLE_ROW, (tb.cx, tb.cy, tb.radius), _circle_ends),
        (line, _LINE_ROW, (tb.x0, tb.y0, tb.dx, tb.dy), _line_ends),
    ):
        rows = np.flatnonzero(rows)
        shape = [c[rows] for c in shape]
        groups.append((rows, template, [*(c[rows] for c in head), *shape, *ends(*shape)]))
    return template_rows(slice_.t.size, groups)


def _cmd_leaves(args) -> int:
    rows = _leaf_rows(_family(args))  # built first, so a refusal prints nothing
    print("\n".join(["index\tt\tkind\tbeta\th\textension\tshape\ta_minus\ta_plus", *rows]))
    return 0


def _cmd_audit(args) -> int:
    report = verify_disjoint(_family(args))
    print(_audit_report(report))
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
    except (ValueError, OverflowError, GeometryError) as exc:  # an int past the float range
        raise _UsageError(f"bad viewport: {_without_advice(exc)}") from exc


def _cmd_render(args) -> int:
    if args.extend > MAX_CLOSED_FORM_N:
        raise _UsageError(f"--extend is capped at {MAX_CLOSED_FORM_N}, got {args.extend}")
    slice_ = _family(args)
    if args.extend:
        slice_ = extend_slice(slice_, args.extend, allow_noop=True)
    viewport = _parse_viewport(args.viewport) if args.viewport else Viewport()
    svg = render_svg(slice_, viewport)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    total = slice_.t.size
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
    if args.seed < 0:
        raise _UsageError(f"--seed must not be negative, got {args.seed}")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.handler(args)
    except InvalidRouteError as exc:
        print(f"umbilic: {exc}", file=sys.stderr)
        if exc.verdict is not None:
            print(_verdict_report(exc.verdict))
        return 2
    except RouteParseError as exc:
        print(f"umbilic: route file invalid: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, OSError, GeometryError) as exc:
        print(f"umbilic: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
