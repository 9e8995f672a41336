"""The columnar verdict against the per-``Violation`` one it replaces.

The validators hand violation columns to ``validation._verdict``, and
``cli._verdict_report`` writes them without building a ``Violation`` per
row.  The references below keep the old per-object path: one
``Violation`` per row, the key sort on (t1, t2, or t1 where t2 is nan),
``min`` over the slacks in that order, and ``json.dumps`` of the report's
dict, which ``test_writer`` builds, as its edge values are.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umbilic import Route, Transversal, validate_c0, validate_c1, validate_horocycle
from umbilic import validation
from umbilic.cli import _verdict_report, main
from umbilic.validation import (
    VIOLATION_KINDS,
    Verdict,
    Violation,
    Violations,
    Zones,
    _part,
    _verdict,
)

from test_writer import EDGES, reference_verdict_report


def reference_report(verdict) -> str:
    return json.dumps(reference_verdict_report(verdict), indent=2)


def reference_verdict(mode, zones, worst, parts, notes) -> Verdict:
    """``_verdict`` as it was: a list of ``Violation``, sorted by key."""
    violations = [
        Violation(VIOLATION_KINDS[k], t1, math.nan if math.isnan(t2) else t2, s)
        for part in parts
        for k, t1, t2, s in zip(*(c.tolist() for c in part))
    ]
    violations.sort(key=lambda v: (v.t1, v.t2 if not math.isnan(v.t2) else v.t1))
    return Verdict(
        valid=not violations,
        zones=zones,
        worst_slack=min([worst, *(v.slack for v in violations)]),
        violations=tuple(violations),
        notes=tuple(notes),
        mode=mode,
    )


times = st.one_of(
    st.sampled_from([-1.0, 0.0, -0.0, 0.25, 1.0]),  # ties across kinds and parts
    st.sampled_from(EDGES + [math.inf, -math.inf]),
    st.floats(allow_nan=False),
)
numbers = st.one_of(st.floats(), st.sampled_from(EDGES), st.integers(-10**6, 10**6).map(float))


@st.composite
def parts(draw):
    """Violation columns of one kind, as the validators make them: t2 is
    nan for bound and pointwise rows, slack -inf for zone rows."""
    kind = draw(st.integers(0, len(VIOLATION_KINDS) - 1))
    n = draw(st.integers(1, 6))
    t1 = draw(st.lists(times, min_size=n, max_size=n))
    if VIOLATION_KINDS[kind] in ("bound", "pointwise"):
        t2 = math.nan
    else:
        t2 = np.array(draw(st.lists(times, min_size=n, max_size=n)))
    if VIOLATION_KINDS[kind] == "zone":
        slack = -math.inf
    else:
        slack = np.array(draw(st.lists(numbers, min_size=n, max_size=n)))
    return _part(kind, np.array(t1), t2, slack)


verdict_args = st.tuples(
    st.sampled_from(["c0", "c1", "horocycle"]),
    st.builds(Zones, numbers, numbers),
    st.one_of(numbers, st.just(math.inf)),
    st.lists(parts(), max_size=4),
    st.lists(st.text(max_size=12), max_size=2),
)

# Bound and pointwise rows at one t1, and a pair starting there: the
# missing t2 sorts as t1, so before the pair; ties keep their order.
MIXED = [
    _part(2, np.array([0.0, 0.0]), np.array([1.0, 0.5]), np.array([-2.0, -1e-9])),
    _part(0, np.array([0.0, 1.0]), math.nan, np.array([-0.5, -0.0])),
    _part(3, np.array([0.0, -0.0]), math.nan, np.array([0.0, 5e-324])),
]


class TestVerdictColumns:
    @settings(max_examples=300)
    @given(verdict_args)
    @example(("c0", Zones(-math.inf, math.inf), math.inf, MIXED, []))
    @example(("c1", Zones(0.0, 1.0), 0.0, MIXED, []))
    @example(("c1", Zones(0.0, 1.0), math.nan, MIXED, []))
    @example(("c0", Zones(-math.inf, math.inf), math.inf, [], []))
    def test_matches_the_per_violation_verdict(self, args):
        mode, zones, worst, parts_, notes = args
        got = _verdict(mode, zones, worst, list(parts_), notes)
        want = reference_verdict(mode, zones, worst, parts_, notes)
        assert repr(got) == repr(want)
        assert repr(got.worst_slack) == repr(want.worst_slack)  # -0.0 against 0.0
        assert len(got.violations) == len(want.violations)
        assert bool(got.violations) == bool(want.violations)
        assert _verdict_report(got) == reference_report(want)
        assert _verdict_report(want) == reference_report(want)

    def test_mixed_kinds_at_one_t1(self):
        got = _verdict("c1", Zones(0.0, 1.0), math.inf, list(MIXED), ())
        assert [(v.kind, v.t1, v.t2) for v in got.violations][:4] == [
            ("bound", 0.0, math.nan),
            ("pointwise", 0.0, math.nan),
            ("pointwise", -0.0, math.nan),
            ("pair", 0.0, 0.5),
        ]
        assert got.worst_slack == -2.0


def _rows():
    return (
        Violation("bound", 0.0, math.nan, -0.5),
        Violation("pair", 0.0, 1.0, -2.0),
        Violation("zone", 1.0, 2.0, -math.inf),
    )


class TestViolationsSequence:
    """``Verdict.violations`` reads as the tuple it replaced."""

    def test_reads_as_the_tuple(self):
        rows = _rows()
        table = Violations.of(rows)
        assert len(table) == 3 and table
        assert table == rows and rows == table and not table != rows
        assert table == Violations.of(rows)
        assert table != list(rows)
        assert repr(table) == repr(rows)
        assert hash(table) == hash(rows)
        assert list(table) == list(rows)
        assert table[0] == rows[0] and table[-1] == rows[-1]
        assert table[1:] == rows[1:] and repr(table[::-1]) == repr(rows[::-1])
        assert table.index(rows[2]) == 2 and rows[1] in table
        assert table[np.int64(1)] == rows[1]
        with pytest.raises(IndexError):
            table[3]
        with pytest.raises(IndexError):
            table[-4]

    def test_empty(self):
        table = Violations.of(())
        assert len(table) == 0 and not table
        assert table == () and repr(table) == "()"

    def test_columns_are_read_only(self):
        table = Violations.of(_rows())
        for column in table.columns:
            with pytest.raises(ValueError):
                column[0] = 0

    def test_a_verdict_built_from_a_tuple_reports_as_before(self):
        verdict = Verdict(False, Zones(0.0, 1.0), -math.inf, _rows(), (), "c0")
        columnar = Verdict(False, Zones(0.0, 1.0), -math.inf, Violations.of(_rows()), (), "c0")
        assert verdict == columnar
        assert _verdict_report(verdict) == _verdict_report(columnar) == reference_report(verdict)


def _steep_route(transversal):
    """Bound and zone violations, and pair and pointwise ones from a
    steep middle run."""
    b = transversal.curvature_bound
    t = np.linspace(-1.0, 1.0, 41)
    h = -np.tanh(3 * t) * 0.9 * b
    h[[5, 30]] = 1.2 * b  # beyond the bound
    h[[10, 35]] = -b  # pinned lows after the leading run
    return Route(transversal, t, h)


class TestNoViolationObjects:
    """Validating and reporting build no ``Violation``; only reading a row
    does."""

    @pytest.fixture
    def no_violations(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Violation was built")

        monkeypatch.setattr(validation, "Violation", refuse)

    @pytest.mark.parametrize("validator, kind", [(validate_c0, "pair"), (validate_c1, "pointwise")])
    def test_validate_and_report(self, no_violations, validator, kind):
        verdict = validator(_steep_route(Transversal.hypercycle(0.9)))
        kinds = {VIOLATION_KINDS[k] for k in verdict.violations.kind.tolist()}
        assert len(verdict.violations) > 20 and verdict.violations
        assert kinds == {"bound", "zone", kind}
        report = json.loads(_verdict_report(verdict))
        assert len(report["violations"]) == len(verdict.violations)
        with pytest.raises(AssertionError):
            verdict.violations[0]

    def test_horocycle(self, no_violations):
        t = np.linspace(-1.0, 1.0, 9)
        verdict = validate_horocycle(Route(Transversal.horocycle(1.0), t, t))
        assert len(verdict.violations) == 8
        assert json.loads(_verdict_report(verdict))["violations"][0]["kind"] == "pointwise"

    @pytest.mark.parametrize("argv", [["validate"], ["validate", "--c1"]])
    def test_cli(self, no_violations, tmp_path, capsys, argv):
        t = np.linspace(-1.0, 1.0, 41)
        doc = {
            "transversal": {"kind": "geodesic"},
            "samples": [{"t": x, "h": -math.tanh(3 * x)} for x in t.tolist()],
        }
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([*argv, str(path)]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["violations"] and out.err == ""
