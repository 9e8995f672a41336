"""The JSON writer and the column-wise sample check against their references.

Reports are written by ``umbilic.cli`` and documents by
``routes_io.dumps_document``, both through ``routes_io.dumps_json``,
which joins each long list once: a report's list from one text per
distinct time and kind and one per other number (``TestWriterWork``
counts them), a document's samples from one row template per sample.  Their text must equal
``json.dumps(reference, indent=2)``, where the reference is the dict the
report stands for, built as below: these builders are the ones the CLI
printed through ``json.dumps`` before it had a writer.

``routes_io._checked_samples`` checks samples column by column.  It must
give what the per-sample walker ``_walk_samples`` gives: the same
columns, bit for bit, or the same error with the same path.

``routes_io.loads_route`` reads a samples list straight into the route's
columns.  It must give what the canonical document gives,
``document_to_route(validate_document(json.loads(text)))``: the same
route, bit for bit, or the same error with the same path; and
``document_to_route`` must give it on the parsed document itself.
"""

from __future__ import annotations

import json
import math
import os
import sys
from itertools import zip_longest

import numpy as np
from hypothesis import example, given, settings, strategies as st

from umbilic import Transversal, cli, routes_io, validation
from umbilic.cli import REPORT_SCHEMA, _audit_report, _verdict_report
from umbilic.errors import RouteParseError
from umbilic.foliation import DisjointnessReport, PairContact, PairContacts
from umbilic.routes_io import (
    _checked_samples,
    _walk_samples,
    document_to_route,
    dumps_document,
    dumps_json,
    loads_route,
    validate_document,
)
from umbilic.validation import Verdict, Violation, Violations, Zones


def reference_num(x: float):
    """Report numbers at 12 significant digits; infinities as strings."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def reference_verdict_report(verdict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "report": "verdict",
        "mode": verdict.mode,
        "valid": verdict.valid,
        "zones": {
            "t_minus": reference_num(verdict.zones.t_minus),
            "t_plus": reference_num(verdict.zones.t_plus),
        },
        "worst_slack": reference_num(verdict.worst_slack),
        "violations": [
            {
                "kind": v.kind,
                "t1": reference_num(v.t1),
                "t2": reference_num(v.t2),
                "slack": reference_num(v.slack),
            }
            for v in verdict.violations
        ],
        "notes": list(verdict.notes),
    }


def reference_audit_report(report) -> dict:
    def contacts(items):
        return [
            {
                "t1": reference_num(c.t1),
                "t2": reference_num(c.t2),
                "kind": c.kind,
                "x": reference_num(c.x),
                "y": reference_num(c.y),
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


#: Where the printed forms change: ``repr`` switches to an exponent below
#: 1e-4 and from 1e16 on, ``%.12g`` from 1e12 on; 12-digit rounding makes
#: whole numbers of near-whole ones; subnormals round-trip at fewer digits.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    1e-5, 1e-4, 9.99999999999e-5, 9.999999999995e-5,
    1e11, 99999999999.99999, 1e12, 1e13, 1e14, 1e15, 1e16, 1e300, -1e300,
    0.5, 2.5, 0.9999999999995, 3.0000000000001, 3.000000000001, 3.00000000001,
    4.0, -4.0, 1.7976931348623157e308,
]

numbers = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.integers(-10**6, 10**6).map(float),
    # Near-whole numbers, on both sides of where 12 digits make them whole.
    st.tuples(st.integers(-10**6, 10**6), st.integers(-16, -9)).map(
        lambda p: p[0] * (1 + 10.0 ** p[1])
    ),
    st.integers(12, 16).map(lambda e: 10.0**e),
    st.floats(-1e4, 1e4).map(lambda x: round(x, 3)),
)
kinds = st.one_of(st.sampled_from(["transverse", "tangent", "coincident"]), st.text(max_size=4))


@st.composite
def violations(draw):
    kind = draw(st.sampled_from(["bound", "zone", "pair", "pointwise"]))
    t1 = draw(numbers)
    t2 = math.nan if kind in ("bound", "pointwise") else draw(numbers)
    slack = -math.inf if kind == "zone" else draw(numbers)
    return Violation(kind, t1, t2, slack)


@st.composite
def verdicts(draw):
    zone = st.one_of(numbers, st.sampled_from([-math.inf, math.inf]))
    return Verdict(
        valid=draw(st.booleans()),
        zones=Zones(draw(zone), draw(zone)),
        worst_slack=draw(numbers),
        violations=tuple(draw(st.lists(violations(), max_size=12))),
        notes=tuple(draw(st.lists(st.text(max_size=30), max_size=3))),
        mode=draw(st.sampled_from(["c0", "c1", "horocycle"])),
    )


contacts = st.builds(PairContact, numbers, numbers, kinds, numbers, numbers)
audits = st.builds(
    DisjointnessReport,
    st.booleans(),
    st.integers(0, 10**12),
    st.lists(contacts, max_size=8).map(tuple),
    st.lists(contacts, max_size=8).map(tuple),
)


class TestReports:
    @given(verdicts())
    @example(Verdict(True, Zones(-math.inf, math.inf), math.inf, (), (), "c0"))
    @example(Verdict(
        False, Zones(0.0, 1.0), -math.inf,
        (Violation("zone", 0.0, 1.0, -math.inf),),
        ('\n  "violations": [', '"violations": []'), "c0",
    ))
    def test_verdict_text_is_json_dumps_of_the_reference(self, verdict):
        want = json.dumps(reference_verdict_report(verdict), indent=2)
        assert _verdict_report(verdict) == want

    @given(audits)
    def test_audit_text_is_json_dumps_of_the_reference(self, report):
        assert _audit_report(report) == json.dumps(reference_audit_report(report), indent=2)

    @given(st.lists(numbers, max_size=50))
    @example(EDGES + [math.inf, -math.inf, math.nan])
    def test_numbers_are_encoded_as_json_encodes_num(self, values):
        # Each value in each number column of a contact table, as the audit
        # writes it: a nan anywhere, and any value that is not plain.
        table = PairContacts(values, values[::-1], [k % 3 for k in range(len(values))],
                             values, values[::-1])
        report = DisjointnessReport(False, len(values), table, table[::2])
        assert _audit_report(report) == json.dumps(reference_audit_report(report), indent=2)

    def test_a_list_without_rows_stays_empty(self):
        doc = {"a": [], "b": 1}
        assert dumps_json(doc, a=iter(())) == json.dumps(doc, indent=2)


#: Times of a pair table: both zeros, the least subnormal, where ``%.12g``
#: switches to an exponent, and a whole number; nan only as a missing t2.
TIMES = [0.0, -0.0, 5e-324, 1e12, 4.0]


def first_difference(got: str, want: str):
    """The first line at which two texts differ, with its number, or None;
    a short failure message where a diff of long texts would take minutes."""
    for k, lines in enumerate(zip_longest(got.splitlines(), want.splitlines())):
        if lines[0] != lines[1]:
            return k, *lines
    return None


class TestRepeatedTimes:
    """Long tables whose t1 and t2 repeat a few values, as the verdict of a
    steep route does; each time is written once per bit pattern."""

    def test_violations(self):
        rng = np.random.default_rng(0)
        n = 2000
        table = Violations(
            rng.integers(0, 4, n),
            rng.choice(TIMES, n),
            rng.choice(TIMES + [math.nan], n),
            rng.choice([-1e-3, -0.25, -math.inf, 4.0, math.nan, -0.0], n),
        )
        verdict = Verdict(False, Zones(-math.inf, math.inf), -0.25, table, (), "c0")
        want = json.dumps(reference_verdict_report(verdict), indent=2)
        assert first_difference(_verdict_report(verdict), want) is None

    def test_pair_contacts(self):
        rng = np.random.default_rng(1)
        n = 2000
        table = PairContacts(
            rng.choice(TIMES, n),
            rng.choice(TIMES + [math.nan], n),
            rng.integers(0, 3, n),
            rng.choice([0.5, -0.0, 1e12, math.nan, 2.5e-7], n),
            rng.choice([0.75, 0.0, math.inf, 3.0], n),
        )
        report = DisjointnessReport(False, n * n, table, table[::3])
        want = json.dumps(reference_audit_report(report), indent=2)
        assert first_difference(_audit_report(report), want) is None


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def documents(draw):
    doc = {"transversal": draw(st.sampled_from([
        {"kind": "geodesic"},
        {"kind": "hypercycle", "phi": 0.9},
        {"kind": "horocycle", "height": 1.5},
    ]))}
    if draw(st.booleans()):
        doc["closed_form"] = {"name": "constant"}
        if draw(st.booleans()):
            doc["closed_form"]["params"] = {"c": draw(finite)}
        doc["window"] = [-1.0, 1.0]
        doc["n"] = draw(st.integers(2, 100))
    else:
        fields = draw(st.sampled_from([("t", "h"), ("t", "h", "dh")]))
        doc["samples"] = [
            {k: draw(numbers) for k in fields}
            for _ in range(draw(st.integers(0, 12)))
        ]
        if doc["samples"] and draw(st.booleans()):
            # Off the template's path: mixed keys, other orders and types.
            i = draw(st.integers(0, len(doc["samples"]) - 1))
            doc["samples"][i] = draw(st.dictionaries(
                st.sampled_from(["t", "h", "dh", "k"]),
                st.one_of(numbers, st.integers(), st.booleans(), st.none()),
            ))
    if draw(st.booleans()):
        doc["tol"] = draw(numbers)
    return doc


class TestDocuments:
    @given(documents())
    @example({"transversal": {"kind": "geodesic"}, "samples": [{"t": 0.0, "h": math.nan}]})
    @example({"transversal": {"kind": "geodesic"}, "samples": [{"t": -math.inf, "h": 0.0}]})
    @example({"transversal": {"kind": "geodesic"}, "samples": [{"t": 0.0, "h": True}]})
    def test_text_is_json_dumps(self, doc):
        assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"


#: Values the walker refuses, or accepts only as ints.
ODD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.integers(-1000, 1000),
    st.sampled_from([10**400, -10**400, 2**53 + 1, 2**64 + 1, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.lists(st.integers(), max_size=2),
)

MUTATIONS = ["value", "drop", "extra", "reorder", "swap", "repeat", "non-object", "dh"]


@st.composite
def sample_lists(draw):
    """Samples the walker accepts, then up to three mutations of them."""
    ts = sorted(set(draw(st.lists(finite, min_size=1, max_size=8))))
    with_dh = draw(st.booleans())
    items = []
    for t in ts:
        item = {"t": t, "h": draw(finite)}
        if with_dh:
            item["dh"] = draw(finite)
        items.append(item)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(items) - 1))
        item = items[i]
        mutation = draw(st.sampled_from(MUTATIONS))
        if not isinstance(item, dict):
            continue
        if mutation == "value":
            item[draw(st.sampled_from(["t", "h", "dh"]))] = draw(ODD_VALUES)
        elif mutation == "drop" and item:
            del item[draw(st.sampled_from(sorted(item)))]
        elif mutation == "extra":
            item["k"] = 0.0
        elif mutation == "reorder":
            items[i] = dict(reversed(list(item.items())))
        elif mutation == "swap" and i + 1 < len(items):
            items[i], items[i + 1] = items[i + 1], items[i]
        elif mutation == "repeat" and i > 0 and isinstance(items[i - 1], dict):
            item["t"] = items[i - 1].get("t")
        elif mutation == "non-object":
            items[i] = draw(st.one_of(st.none(), st.text(max_size=2), st.just([item])))
        elif mutation == "dh":
            if "dh" in item:
                del item["dh"]
            else:
                item["dh"] = 0.0
    return items


def _outcome(check, items):
    try:
        return "ok", [column.tobytes() for column in check(items)]
    except RouteParseError as exc:
        return "error", str(exc), exc.path


class TestSampleColumns:
    @settings(max_examples=500)
    @given(sample_lists())
    @example([{"t": 0.0, "h": True}])
    @example([{"t": 0.0, "h": math.inf}])
    @example([{"t": 0.0, "h": 0.0, "dh": math.nan}, {"t": 1.0, "h": 0.0, "dh": 0.0}])
    @example([{"t": "0", "h": 0.0}])
    @example([{"t": 0, "h": 1}, {"t": 2**64 + 1, "h": -(2**53 + 1)}])
    @example([{"t": 10**400, "h": 0.0}])
    @example([{"t": -1e308, "h": 0.0}, {"t": 1e308, "h": 0.0}])
    @example([{"t": 0.0, "h": -0.0, "dh": 0.0}, {"t": 1.0, "h": 0.0}])
    def test_columns_give_what_the_walker_gives(self, items):
        assert _outcome(_checked_samples, items) == _outcome(_walk_samples, items)


def _route_outcome(read, text):
    """The route ``read`` makes of ``text``, its columns as bits, or the
    error it raises."""
    try:
        route = read(text)
    except Exception as exc:
        return "error", type(exc), str(exc), getattr(exc, "path", None)
    dh = None if route.dh is None else route.dh.tobytes()
    return "ok", route.t.tobytes(), route.h.tobytes(), dh, route.transversal, route.tol


def _reference_loads_route(text):
    return document_to_route(validate_document(json.loads(text)))


TRANSVERSALS = [
    {"kind": "geodesic"},
    {"kind": "hypercycle", "phi": 0.9},
    {"kind": "horocycle", "height": 1.5},
]
#: Tolerances at and past each transversal's limit (1, sin 0.9), and
#: values the schema refuses.
TOLS = [1e-9, 0.5, math.sin(0.9), math.nextafter(math.sin(0.9), 0.0), 1.0, 2, 1e300,
        0.0, -1.0, True, "1e-9"]


@st.composite
def document_texts(draw):
    """Route document texts: ``documents()``, or a transversal with
    ``sample_lists()``, with or without a tolerance."""
    if draw(st.booleans()):
        doc = draw(documents())
    else:
        doc = {"transversal": draw(st.sampled_from(TRANSVERSALS)), "samples": draw(sample_lists())}
    if draw(st.booleans()):
        doc["tol"] = draw(st.one_of(st.sampled_from(TOLS), numbers))
    return json.dumps(doc)


def _samples_text(samples, transversal=None, tol=None):
    doc = {"transversal": transversal or {"kind": "geodesic"}, "samples": samples}
    if tol is not None:
        doc["tol"] = tol
    return json.dumps(doc)


class TestLoadsRoute:
    @settings(max_examples=400)
    @given(document_texts())
    @example(_samples_text([{"h": 0.5, "t": -1.0}, {"h": -0.5, "t": 1.0}]))
    @example(_samples_text([{"t": 0, "h": 0}, {"t": 2**64 + 1, "h": -(2**53 + 1)}]))
    @example(_samples_text([{"t": 0.0, "h": 0.5, "dh": -0.25}, {"t": 1.0, "h": 0.0, "dh": 3}]))
    @example(_samples_text([{"t": 0.0, "h": 0.0}], tol=1.0))
    @example(_samples_text([{"t": 0.0, "h": 0.0}], tol=2.0))
    @example(_samples_text([{"t": 0.0, "h": 0.0}], TRANSVERSALS[1], tol=math.sin(0.9)))
    @example(_samples_text([{"t": 0.0, "h": 0.0}], TRANSVERSALS[2], tol=1e300))
    @example(_samples_text([{"t": float(k), "h": True if k == 3 else 0.0} for k in range(6)]))
    @example(_samples_text([{"t": float(k), "h": 0.0} for k in range(3)] + [{"t": 2.0, "h": 0.0}]))
    @example(_samples_text([{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": 10**400}]))
    def test_route_is_the_canonical_documents(self, text):
        assert _route_outcome(loads_route, text) == _route_outcome(_reference_loads_route, text)

    @given(documents())
    @example({"transversal": {"kind": "geodesic"}, "samples": [{"t": 0.0, "h": True}]})
    @example({"transversal": {"kind": "geodesic"}, "closed_form": {"name": "constant"}, "n": 10**6 + 1})
    @example({"samples": [{"t": 0.0, "h": 0.0}]})
    def test_document_to_route_is_loads_route(self, doc):
        # The parsed document, or its text: one path, one outcome.
        assert _route_outcome(document_to_route, doc) == _route_outcome(loads_route, json.dumps(doc))

    def test_no_canonical_rows_are_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built canonical sample rows")

        for name in ("_sample_rows", "_walk_samples"):
            monkeypatch.setattr(routes_io, name, refuse)
        rng = np.random.default_rng(0)
        t = np.linspace(-4.0, 4.0, 4000)
        h, dh = rng.uniform(-0.9, 0.9, (2, t.size))
        samples = [{"t": a, "h": b, "dh": c} for a, b, c in zip(t.tolist(), h.tolist(), dh.tolist())]
        route = loads_route(_samples_text(samples))
        for got, want in ((route.t, t), (route.h, h), (route.dh, dh)):
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def steep_route(n=1000, start=500, m=100, seed=1008):
    """A route over the hypercycle phi = 0.9 drawn in profile coordinates,
    with slopes past the rate bound over the m steps from sample ``start``
    (long-route's steep document at seed 1): its verdict lists 15 160 rows
    over a few hundred distinct times at n = 1 000."""
    tr = Transversal.hypercycle(0.9)
    rate = tr.curvature_bound
    rng = np.random.default_rng(seed)
    t = np.linspace(-4.0, 4.0, n)
    slopes = rng.uniform(-0.8 * rate, rate - 1e-3, n - 1)
    slopes[start:start + m] = rate + 0.5
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    return validation.Route(tr, t, validation.profile_inverse(0.9, g))


class TestWriterWork:
    """A verdict table is written as one text per distinct time and kind,
    one text a row for each other number, and one join."""

    def test_steep_verdict(self, monkeypatch):
        verdict = validation.validate(steep_route())
        table = verdict.violations
        written = []
        number_texts = cli._number_texts

        def counted(x):
            written.append(x.size)
            return number_texts(x)

        monkeypatch.setattr(cli, "_number_texts", counted)
        joins = []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__qualname__", "") == "str.join":
                if frame.f_code.co_filename.startswith(os.path.dirname(cli.__file__)):
                    joins.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            text = _verdict_report(verdict)
        finally:
            sys.setprofile(None)
        times = np.unique(np.concatenate((table.t1, table.t2)).view(np.int64)).size
        assert len(table) == 15160 and times < 400
        assert written == [times, len(table)]
        assert joins == ["dumps_json"]
        assert first_difference(text, json.dumps(reference_verdict_report(verdict), indent=2)) is None
