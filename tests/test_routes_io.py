import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_cli import fuzz_documents

from umbilic import (
    Route,
    RouteParseError,
    Transversal,
    builtin_route,
    document_to_route,
    dumps_document,
    load_route,
    loads_route,
    route_to_document,
    validate_document,
)
from umbilic import routes_io
from umbilic.routes_io import MAX_CLOSED_FORM_N, _json_loads_route


def geodesic_doc(**extra):
    doc = {
        "transversal": {"kind": "geodesic"},
        "samples": [{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": 0.1}],
    }
    doc.update(extra)
    return doc


class TestValidateDocument:
    def test_minimal_samples_document(self):
        out = validate_document(geodesic_doc())
        assert out["transversal"] == {"kind": "geodesic"}
        assert out["samples"] == [{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": 0.1}]

    def test_closed_form_document(self):
        out = validate_document(
            {
                "transversal": {"kind": "hypercycle", "phi": 0.8},
                "closed_form": {"name": "constant", "params": {"c": 0.3}},
                "window": [-2, 2],
                "n": 41,
            }
        )
        assert out["closed_form"] == {"name": "constant", "params": {"c": 0.3}}
        assert out["window"] == [-2.0, 2.0]
        assert out["n"] == 41

    def test_not_an_object(self):
        with pytest.raises(RouteParseError, match="must be an object"):
            validate_document([1, 2, 3])

    def test_unknown_root_field(self):
        with pytest.raises(RouteParseError) as exc:
            validate_document(geodesic_doc(color="red"))
        assert exc.value.path == "color"

    def test_missing_transversal(self):
        with pytest.raises(RouteParseError) as exc:
            validate_document({"samples": [{"t": 0.0, "h": 0.0}]})
        assert exc.value.path == "transversal"

    def test_both_forms_rejected(self):
        doc = geodesic_doc(closed_form={"name": "pencil"})
        with pytest.raises(RouteParseError, match="exactly one"):
            validate_document(doc)

    def test_neither_form_rejected(self):
        with pytest.raises(RouteParseError, match="exactly one"):
            validate_document({"transversal": {"kind": "geodesic"}})

    def test_window_only_with_closed_form(self):
        with pytest.raises(RouteParseError) as exc:
            validate_document(geodesic_doc(window=[-1, 1]))
        assert exc.value.path == "window"

    def test_n_only_with_closed_form(self):
        with pytest.raises(RouteParseError) as exc:
            validate_document(geodesic_doc(n=10))
        assert exc.value.path == "n"


class TestTransversalStanza:
    @staticmethod
    def refusal(transversal):
        with pytest.raises(RouteParseError) as exc:
            validate_document(geodesic_doc(transversal=transversal))
        return str(exc.value)

    def test_bad_kind(self):
        assert self.refusal({"kind": "circle"}) == (
            "transversal.kind: kind must be geodesic, hypercycle or horocycle, got 'circle'"
        )

    def test_hypercycle_needs_phi(self):
        assert self.refusal({"kind": "hypercycle"}) == "transversal.phi: missing field"
        # The missing parameter is named before a parameter the kind does not take.
        assert self.refusal({"kind": "hypercycle", "height": 1.0}) == (
            "transversal.phi: missing field"
        )

    def test_phi_range(self):
        for phi, text in ((0.0, "0.0"), (math.pi / 2, "1.5707963267948966"), (-1.0, "-1.0")):
            assert self.refusal({"kind": "hypercycle", "phi": phi}) == (
                f"transversal.phi: phi must lie in (0, pi/2), got {text}"
            )

    def test_horocycle_needs_positive_height(self):
        assert self.refusal({"kind": "horocycle"}) == "transversal.height: missing field"
        assert self.refusal({"kind": "horocycle", "phi": 0.5}) == (
            "transversal.height: missing field"
        )
        assert self.refusal({"kind": "horocycle", "height": 0.0}) == (
            "transversal.height: height must be positive, got 0.0"
        )

    def test_cross_kind_fields_rejected(self):
        for transversal, text in (
            ({"kind": "geodesic", "phi": 0.5}, "transversal.phi: not valid for the geodesic"),
            ({"kind": "geodesic", "height": 1.0}, "transversal.height: not valid for the geodesic"),
            (
                {"kind": "geodesic", "height": 1.0, "phi": 0.5},
                "transversal.phi: not valid for the geodesic",
            ),
            (
                {"kind": "hypercycle", "phi": 0.5, "height": 1.0},
                "transversal.height: only valid for horocycles",
            ),
        ):
            assert self.refusal(transversal) == text

    def test_transversal_must_be_an_object(self):
        with pytest.raises(RouteParseError, match=r"^transversal: must be an object$"):
            validate_document(geodesic_doc(transversal="geodesic"))

    def test_phi_on_a_horocycle_rejected(self):
        assert self.refusal({"kind": "horocycle", "height": 1.0, "phi": 0.5}) == (
            "transversal.phi: only valid for hypercycles"
        )


class TestSamplesStanza:
    def test_field_path_in_message(self):
        doc = geodesic_doc(
            samples=[{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": "x"}]
        )
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "samples[1].h"
        assert "samples[1].h" in str(exc.value)

    def test_bool_is_not_a_number(self):
        doc = geodesic_doc(samples=[{"t": 0.0, "h": True}])
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "samples[0].h"

    def test_nonfinite_rejected(self):
        doc = geodesic_doc(samples=[{"t": 0.0, "h": math.inf}])
        with pytest.raises(RouteParseError, match="finite"):
            validate_document(doc)

    def test_missing_field(self):
        doc = geodesic_doc(samples=[{"t": 0.0}])
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "samples[0].h"

    def test_unknown_sample_field(self):
        doc = geodesic_doc(samples=[{"t": 0.0, "h": 0.0, "k": 1.0}])
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "samples[0].k"

    def test_empty_samples(self):
        with pytest.raises(RouteParseError, match="nonempty"):
            validate_document(geodesic_doc(samples=[]))

    def test_increasing_t_enforced(self):
        doc = geodesic_doc(
            samples=[{"t": 0.0, "h": 0.0}, {"t": 0.0, "h": 0.1}]
        )
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "samples[1].t"

    def test_dh_all_or_none(self):
        doc = geodesic_doc(
            samples=[{"t": 0.0, "h": 0.0, "dh": -1.0}, {"t": 1.0, "h": 0.1}]
        )
        with pytest.raises(RouteParseError, match="every sample or on none"):
            validate_document(doc)

    def test_tol_must_be_positive(self):
        with pytest.raises(RouteParseError) as exc:
            validate_document(geodesic_doc(tol=0.0))
        assert exc.value.path == "tol"


class TestClosedFormStanza:
    def test_unknown_family(self):
        doc = {
            "transversal": {"kind": "geodesic"},
            "closed_form": {"name": "spiral"},
        }
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "closed_form.name"

    def test_unknown_param(self):
        doc = {
            "transversal": {"kind": "geodesic"},
            "closed_form": {"name": "constant", "params": {"c": 0.1, "z": 2}},
        }
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert exc.value.path == "closed_form.params.z"

    def test_bad_window(self):
        base = {
            "transversal": {"kind": "geodesic"},
            "closed_form": {"name": "pencil"},
        }
        with pytest.raises(RouteParseError):
            validate_document({**base, "window": [0.0]})
        with pytest.raises(RouteParseError):
            validate_document({**base, "window": [1.0, -1.0]})

    def test_bad_n(self):
        base = {
            "transversal": {"kind": "geodesic"},
            "closed_form": {"name": "pencil"},
        }
        with pytest.raises(RouteParseError):
            validate_document({**base, "n": 1})
        with pytest.raises(RouteParseError):
            validate_document({**base, "n": 2.5})
        with pytest.raises(RouteParseError):
            validate_document({**base, "n": True})


    @pytest.mark.parametrize(
        "closed_form, path",
        [
            ("pencil", "closed_form"),
            ({"name": "constant", "params": [0.1]}, "closed_form.params"),
        ],
    )
    def test_stanza_must_be_an_object(self, closed_form, path):
        doc = {"transversal": {"kind": "geodesic"}, "closed_form": closed_form}
        with pytest.raises(RouteParseError) as exc:
            validate_document(doc)
        assert str(exc.value) == f"{path}: must be an object"
        assert exc.value.path == path


class TestRoundTrips:
    def test_closed_form_expands_like_builtin(self):
        for sampling, direct in (
            ({"window": [-2, 2], "n": 41}, builtin_route("pencil", window=(-2, 2), n=41)),
            ({}, builtin_route("pencil")),  # builtin_route's own window and n
        ):
            doc = validate_document(
                {"transversal": {"kind": "geodesic"}, "closed_form": {"name": "pencil"}, **sampling}
            )
            route = document_to_route(doc)
            for column in ("t", "h", "dh"):
                assert getattr(route, column).tobytes() == getattr(direct, column).tobytes()
            assert route.tol == direct.tol

    def test_samples_round_trip(self):
        route = builtin_route("constant", transversal=Transversal.hypercycle(0.8), c=0.2, n=11)
        doc = route_to_document(route)
        back = document_to_route(validate_document(doc))
        assert np.array_equal(back.t, route.t)
        assert np.array_equal(back.h, route.h)
        assert np.array_equal(back.dh, route.dh)
        assert back.tol == route.tol
        assert back.transversal == route.transversal

    def test_horocycle_round_trip(self):
        route = loads_route(dumps_document(route_to_document(
            Route(Transversal.horocycle(2.5), [-1.0, 0.0, 2.0], [0.0, -0.3, -1.0])
        )))
        doc = route_to_document(route)
        assert doc["transversal"] == {"kind": "horocycle", "height": 2.5}
        assert [s["h"] for s in doc["samples"]] == [0.0, -0.3, -1.0]
        assert route.transversal == Transversal.horocycle(2.5)
        assert route.t.tolist() == [-1.0, 0.0, 2.0]

    def test_serialization_idempotent(self):
        route = builtin_route("pencil", n=7)
        text = dumps_document(route_to_document(route))
        doc = validate_document(json.loads(text))
        assert dumps_document(doc) == text
        assert text.endswith("\n")

    def test_tol_override_reaches_the_route(self):
        route = loads_route(json.dumps(geodesic_doc(tol=0.5)))
        assert route.tol == 0.5

    @pytest.mark.parametrize(
        "transversal, tol",
        [
            ({"kind": "geodesic"}, 1.0),
            ({"kind": "geodesic"}, 2.0),
            ({"kind": "hypercycle", "phi": 0.3}, math.sin(0.3)),
        ],
    )
    def test_tol_at_the_curvature_bound_is_rejected(self, transversal, tol):
        # The pinned-low and pinned-high bands of the validators overlap.
        with pytest.raises(RouteParseError) as exc:
            loads_route(json.dumps(geodesic_doc(transversal=transversal, tol=tol)))
        assert exc.value.path == "tol"

    def test_default_tol(self):
        route = loads_route(json.dumps(geodesic_doc()))
        assert route.tol == 1e-9

    def test_dh_carries_through(self):
        doc = geodesic_doc(
            samples=[
                {"t": 0.0, "h": 0.0, "dh": -1.0},
                {"t": 1.0, "h": -0.5, "dh": -0.75},
            ]
        )
        route = loads_route(json.dumps(doc))
        assert route.dh == pytest.approx([-1.0, -0.75])

    def test_bad_json_text(self):
        with pytest.raises(RouteParseError, match="JSON"):
            loads_route("{not json")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "route.json"
        p.write_text(json.dumps(geodesic_doc()), encoding="utf-8")
        route = load_route(str(p))
        assert route.n == 2


class TestDocumentToRoute:
    """``document_to_route`` makes ``validate_document``'s checks, so it
    refuses what ``loads_route`` refuses, at the same path."""

    @pytest.mark.parametrize(
        "doc, path",
        [
            (geodesic_doc(samples=[{"t": 0.0, "h": True}]), "samples[0].h"),
            (geodesic_doc(samples=[{"t": 0.0, "h": "0.5"}]), "samples[0].h"),
            (geodesic_doc(samples=[{"t": 0.0, "h": 0.0, "k": 1.0}]), "samples[0].k"),
            (
                {
                    "transversal": {"kind": "geodesic"},
                    "closed_form": {"name": "pencil"},
                    "n": MAX_CLOSED_FORM_N + 1,
                },
                "n",
            ),
            ({"samples": [{"t": 0.0, "h": 0.0}]}, "transversal"),
            (geodesic_doc(samples=[{"t": 1.0, "h": 0.0}, {"t": 0.0, "h": 0.0}]), "samples[1].t"),
            (geodesic_doc(transversal={"kind": "geodesic", "phi": 0.5}), "transversal.phi"),
        ],
        ids=["h-true", "h-string", "extra-key", "n-past-cap", "no-transversal",
             "descending-t", "geodesic-phi"],
    )
    def test_refused_at_its_path(self, doc, path):
        with pytest.raises(RouteParseError) as exc:
            document_to_route(doc)
        assert exc.value.path == path
        with pytest.raises(RouteParseError) as again:
            loads_route(json.dumps(doc))
        assert str(again.value) == str(exc.value)

    def test_missing_transversal_is_a_missing_field(self):
        with pytest.raises(RouteParseError, match="^transversal: missing field$"):
            document_to_route({"samples": [{"t": 0.0, "h": 0.0}]})


#: Values where the written form changes or the float range ends.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)
values = st.one_of(finite, st.sampled_from(EDGE_VALUES))


@st.composite
def routes(draw):
    """Routes on each transversal kind, with and without ``dh``: sorted
    distinct finite t over a finite span, and h and dh at the edges of
    the float range as well as anywhere in it."""
    transversal = draw(st.sampled_from([
        Transversal.geodesic(),
        Transversal.hypercycle(draw(st.floats(0.01, 1.5))),
        Transversal.horocycle(draw(st.floats(1e-300, 1e300))),
    ]))
    t = sorted(draw(st.lists(st.floats(-1e307, 1e307), min_size=1, max_size=20, unique=True)))
    h = draw(st.lists(values, min_size=len(t), max_size=len(t)))
    dh = draw(st.none() | st.lists(values, min_size=len(t), max_size=len(t)))
    tol = draw(st.sampled_from([1e-9, 5e-324, 0.005]))  # below every curvature bound drawn
    return Route(transversal, t, h, dh=dh, tol=tol)


class TestRouteToDocument:
    @given(routes())
    def test_round_trip_keeps_every_bit(self, route):
        text = dumps_document(route_to_document(route))
        assert text == json.dumps(route_to_document(route), indent=2) + "\n"
        back = loads_route(text)
        assert back.t.tobytes() == route.t.tobytes()
        assert back.h.tobytes() == route.h.tobytes()
        if route.dh is None:
            assert back.dh is None
        else:
            assert back.dh.tobytes() == route.dh.tobytes()
        assert back.tol == route.tol
        assert back.transversal == route.transversal


def parse_outcome(parse, text):
    """What ``parse(text)`` gives: a route as its transversal, tol and
    columns' bytes, or a refusal as its class, text and path."""
    try:
        route = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "path", None)
    columns = (route.t, route.h, route.dh)
    return route.transversal, route.tol, *(c if c is None else c.tobytes() for c in columns)


def assert_parity(text):
    """``loads_route`` answers ``text`` as the stdlib path does."""
    assert parse_outcome(loads_route, text) == parse_outcome(_json_loads_route, text)


#: Number literals json reads as non-finite floats and orjson refuses.
NONFINITE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e400"]
#: Integer literals of 20 to 400 digits, which json reads as ints and
#: orjson as floats past [-2**63, 2**64) (or refuses past the float range).
big_integer_literals = st.tuples(
    st.sampled_from(["", "-"]),
    st.sampled_from("123456789"),
    st.text("0123456789", min_size=19, max_size=399),
).map("".join)


def number_slots(value):
    """(container, key) of every number in a parsed JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    slots = []
    for key, item in items:
        if isinstance(item, (dict, list)):
            slots += number_slots(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            slots.append((value, key))
    return slots


#: Characters one edit may put into a document's text: JSON's own, a
#: form feed, a NUL, a BOM and a lone surrogate.
EDIT_CHARS = list('[]{}:,"\\ \t\n\r-+.eE019') + ["\x0c", "\x00", "\ufeff", "\ud800"]


@st.composite
def route_texts(draw):
    """``fuzz_documents``' documents as JSON text, with up to three number
    fields written as a non-finite or a 20- to 400-digit integer literal,
    and sometimes one character inserted or replaced."""
    doc = draw(fuzz_documents())
    slots = number_slots(doc)
    picks = draw(st.lists(st.sampled_from(range(len(slots))), max_size=3, unique=True))
    literals = {}
    for k in picks:
        container, key = slots[k]
        container[key] = mark = f"@{k}@"
        literals[json.dumps(mark)] = draw(
            st.sampled_from(NONFINITE_LITERALS) | big_integer_literals
        )
    text = json.dumps(doc)
    for mark, literal in literals.items():
        text = text.replace(mark, literal)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(EDIT_CHARS)) + text[at + draw(st.integers(0, 1)):]
    return text


def samples_text(*rows):
    """A geodesic samples document with each row's text spliced in."""
    return '{"transversal": {"kind": "geodesic"}, "samples": [%s]}' % ", ".join(rows)


#: Texts the two parsers read differently or one of them refuses.
PINNED_TEXTS = {
    "n-30-digits": '{"transversal": {"kind": "geodesic"}, "closed_form": {"name": "pencil"}, '
                   '"window": [-3.0, 3.0], "n": 123456789012345678901234567890}',
    "kind-10**25": '{"transversal": {"kind": %d}, "samples": [{"t": 0, "h": 0}]}' % 10**25,
    "kind-[10**25]": '{"transversal": {"kind": [%d]}, "samples": [{"t": 0, "h": 0}]}' % 10**25,
    "t-25-digits": samples_text('{"t": 1234567890123456789012345, "h": 0.5}',
                                '{"t": 2234567890123456789012345, "h": 0.25}'),
    "t-25-digits-tied": samples_text('{"t": 1234567890123456789012345, "h": 0.5}',
                                     '{"t": 1234567890123456789012346, "h": 0.25}'),
    "t-below-int64": samples_text('{"t": -9223372036854775809, "h": 0}', '{"t": 0, "h": 0}'),
    "h-nan": samples_text('{"t": 0.0, "h": 0.0}', '{"t": 1.0, "h": NaN}'),
    "kind-lone-surrogate": '{"transversal": {"kind": "\\ud800"}, "samples": [{"t": 0, "h": 0}]}',
    "nested-2000": '{"transversal": {"kind": %s}, "samples": [{"t": 0, "h": 0}]}'
                   % ("[" * 2000 + "]" * 2000),
    "bom": "\ufeff" + samples_text('{"t": 0.0, "h": 0.0}'),
    "duplicate-keys": samples_text('{"t": 0.0, "h": 1.0, "h": 0.5}', '{"t": 1.0, "h": 0.25}'),
    "ci-ints": json.dumps({"transversal": {"kind": "geodesic"},
                           "samples": [{"h": 0, "t": k, "dh": 0} for k in range(50)]}),
}


#: Characters that open, close or separate JSON values, for strings that
#: imitate them.
JSON_MARKS = "[]{}:,\\\" "


class TestOrjsonParity:
    """``loads_route`` parses with ``orjson`` and sends a text orjson
    refuses or may nest too deep for, or a document ``document_to_route``
    refuses, through the stdlib path: so on any text it gives the stdlib
    path's route or its exception."""

    @settings(max_examples=300)
    @given(route_texts())
    def test_same_route_or_same_refusal(self, text):
        assert_parity(text)

    @pytest.mark.parametrize("text", PINNED_TEXTS.values(), ids=PINNED_TEXTS.keys())
    def test_pinned_texts(self, text):
        assert_parity(text)

    def test_an_accepted_text_is_parsed_once(self, monkeypatch):
        def refuse(text):
            raise AssertionError("an accepted text reached the stdlib path")

        monkeypatch.setattr(routes_io, "_json_loads_route", refuse)
        route = loads_route(PINNED_TEXTS["t-25-digits"])
        assert route.t.tolist() == [1.2345678901234568e24, 2.2345678901234568e24]

    @given(
        st.recursive(
            st.none() | st.integers() | st.text(JSON_MARKS),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(JSON_MARKS), inner),
        ),
        st.sampled_from([None, 0, 2, "\t"]),
        st.sampled_from([":", ": ", ":\n\r\t "]),
    )
    def test_nesting_bound_holds(self, value, indent, colon):
        def depth(v):
            if isinstance(v, dict):
                v = list(v.values())
            return 1 + max(map(depth, v), default=0) if isinstance(v, list) else 0

        text = json.dumps(value, indent=indent, separators=(",", colon))
        assert depth(value) <= routes_io._nesting_bound(text)

    def test_deep_text_is_refused_without_a_crash(self):
        # orjson recurses without a limit and overflows an 8 MiB stack
        # before 10**6 levels; the stdlib path refuses the text instead.
        code = (
            "from umbilic import RouteParseError, loads_route\n"
            "try:\n"
            "    loads_route('[' * 10**6 + ']' * 10**6)\n"
            "except RouteParseError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(routes_io.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("JSON text not readable: maximum recursion depth exceeded")
