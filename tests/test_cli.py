import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from umbilic import Transversal, dumps_document, perturbed_invalid_route, route_to_document
from umbilic import cli
from umbilic.cli import _build_parser, main
from umbilic.foliation import BUILTIN_FAMILIES, AgreementStats


@pytest.fixture
def route_file(tmp_path):
    def write(doc, name="route.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    return write


PENCIL = {
    "transversal": {"kind": "geodesic"},
    "closed_form": {"name": "pencil"},
    "window": [-2.0, 2.0],
    "n": 41,
}

TOO_STEEP = {
    "transversal": {"kind": "geodesic"},
    "samples": [
        {"t": 0.0, "h": 0.9},
        {"t": 0.1, "h": -0.9},
    ],
}

HYPERCYCLE_CONSTANT = {
    "transversal": {"kind": "hypercycle", "phi": 0.8},
    "closed_form": {"name": "constant", "params": {"c": 0.2}},
    "window": [-1.0, 1.0],
    "n": 9,
}

HOROCYCLE_FLAT = {
    "transversal": {"kind": "horocycle", "height": 1.0},
    "samples": [{"t": -1.0, "h": 0.0}, {"t": 0.0, "h": 0.0}, {"t": 1.0, "h": 0.0}],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_route(self, route_file, capsys):
        code, out, _ = run(capsys, ["validate", route_file(PENCIL)])
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "umbilic.report/1"
        assert report["report"] == "verdict"
        assert report["valid"] is True
        assert report["zones"] == {"t_minus": "-inf", "t_plus": "inf"}

    def test_invalid_route(self, route_file, capsys):
        code, out, _ = run(capsys, ["validate", route_file(TOO_STEEP)])
        assert code == 2
        report = json.loads(out)
        assert report["valid"] is False
        assert report["violations"]
        assert report["violations"][0]["kind"] == "pair"
        assert report["worst_slack"] < 0

    def test_c1_flag(self, route_file, capsys):
        code, out, _ = run(capsys, ["validate", "--c1", route_file(PENCIL)])
        assert code == 0
        assert json.loads(out)["mode"] == "c1"

    def test_horocycle_routes_use_the_flat_check(self, route_file, capsys):
        code, out, _ = run(capsys, ["validate", route_file(HOROCYCLE_FLAT)])
        assert code == 0
        assert json.loads(out)["mode"] == "horocycle"

    def test_tol_flag_reaches_validation(self, route_file, capsys):
        doc = dict(HOROCYCLE_FLAT, samples=[{"t": 0.0, "h": 0.5}, {"t": 1.0, "h": 0.5}])
        path = route_file(doc)
        code, _, _ = run(capsys, ["validate", path])
        assert code == 2
        code, _, _ = run(capsys, ["validate", "--tol", "0.6", path])
        assert code == 0

    def test_negative_tol_is_a_usage_error(self, route_file, capsys):
        code, _, err = run(capsys, ["validate", "--tol", "-1", route_file(PENCIL)])
        assert code == 1
        assert "--tol" in err

    @pytest.mark.parametrize("tol", ["1", "2"])
    def test_tol_at_or_above_the_curvature_bound_is_a_usage_error(
        self, tmp_path, capsys, tol
    ):
        # At tol >= 1 the pinned bands overlap: this route, with five pair
        # violations at the default tol, would pass with t_minus > t_plus.
        route, _ = perturbed_invalid_route(Transversal.geodesic(), seed=3)
        path = tmp_path / "route.json"
        path.write_text(dumps_document(route_to_document(route)), encoding="utf-8")
        code, out, err = run(capsys, ["validate", "--tol", tol, str(path)])
        assert code == 1
        assert "--tol" in err
        assert out == ""

    def test_infinite_tol_is_a_usage_error(self, route_file, capsys):
        # An infinite tolerance would pass every route, this steep one too.
        code, out, err = run(capsys, ["validate", "--tol", "inf", route_file(TOO_STEEP)])
        assert code == 1
        assert "--tol" in err
        assert out == ""


class TestLeaves:
    def test_table_shape(self, route_file, capsys):
        code, out, _ = run(capsys, ["leaves", route_file(PENCIL)])
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split("\t")
        assert header[:3] == ["index", "t", "kind"]
        assert len(lines) == 42
        middle = lines[21].split("\t")
        assert middle[2] == "totally_geodesic"

    def test_invalid_route_prints_verdict_and_exits_2(self, route_file, capsys):
        code, out, err = run(capsys, ["leaves", route_file(TOO_STEEP)])
        assert code == 2
        assert "failed validation" in err
        assert json.loads(out)["valid"] is False

    def test_force_builds_anyway(self, route_file, capsys):
        code, out, _ = run(capsys, ["leaves", "--force", route_file(TOO_STEEP)])
        assert code == 0
        assert len(out.splitlines()) == 3


class TestAudit:
    def test_clean_family(self, route_file, capsys):
        code, out, _ = run(capsys, ["audit", route_file(PENCIL)])
        assert code == 0
        report = json.loads(out)
        assert report["report"] == "audit"
        assert report["clean"] is True
        assert report["pairs_checked"] == 41 * 40 // 2
        assert report["intersecting"] == []

    def test_forced_dirty_family(self, route_file, capsys):
        code, out, _ = run(capsys, ["audit", "--force", route_file(TOO_STEEP)])
        assert code == 2
        report = json.loads(out)
        assert report["clean"] is False
        assert report["intersecting"]
        contact = report["intersecting"][0]
        assert contact["kind"] in ("transverse", "coincident")

    def test_unforced_invalid_route_exits_2(self, route_file, capsys):
        code, _, err = run(capsys, ["audit", route_file(TOO_STEEP)])
        assert code == 2
        assert "failed validation" in err


class TestRender:
    def test_writes_svg(self, route_file, tmp_path, capsys):
        out_path = str(tmp_path / "fig.svg")
        code, out, _ = run(
            capsys, ["render", route_file(PENCIL), "--out", out_path]
        )
        assert code == 0
        assert f"wrote {out_path}: 41 leaf paths" in out
        text = (tmp_path / "fig.svg").read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0"')
        assert text.count('class="leaf') == 41

    def test_extend_flag(self, route_file, tmp_path, capsys):
        out_path = str(tmp_path / "fig.svg")
        code, out, _ = run(
            capsys,
            ["render", route_file(HYPERCYCLE_CONSTANT), "--out", out_path, "--extend", "3"],
        )
        assert code == 0
        assert "15 leaf paths" in out

    def test_extend_is_a_noop_on_geodesics(self, route_file, tmp_path, capsys):
        out_path = str(tmp_path / "fig.svg")
        code, out, _ = run(
            capsys,
            ["render", route_file(PENCIL), "--out", out_path, "--extend", "2"],
        )
        assert code == 0
        assert "41 leaf paths" in out

    def test_custom_viewport(self, route_file, tmp_path, capsys):
        out_path = str(tmp_path / "fig.svg")
        # The = form keeps argparse from reading the leading minus as a flag.
        code, _, _ = run(
            capsys,
            [
                "render", route_file(PENCIL), "--out", out_path,
                "--viewport=-2,2,2,400,200",
            ],
        )
        assert code == 0
        svg = (tmp_path / "fig.svg").read_text(encoding="utf-8")
        assert 'width="400" height="200"' in svg

    def test_viewport_as_a_separate_value(self, route_file, tmp_path, capsys):
        # README's form: a value after --viewport may start with a minus.
        svgs = []
        for k, argv in enumerate((["--viewport", "-3,3,3,800,400"], ["--viewport=-3,3,3,800,400"])):
            out_path = tmp_path / f"fig{k}.svg"
            code, _, err = run(capsys, ["render", route_file(PENCIL), "--out", str(out_path), *argv])
            assert (code, err) == (0, "")
            svgs.append(out_path.read_text(encoding="utf-8"))
        assert svgs[0] == svgs[1] and 'width="800" height="400"' in svgs[0]

    def test_viewport_with_infinite_scale_is_rejected(self, route_file, tmp_path, capsys):
        out_path = tmp_path / "fig.svg"
        code, _, err = run(
            capsys,
            [
                "render", route_file(PENCIL), "--out", str(out_path),
                "--viewport=-inf,inf,2,400,200",
            ],
        )
        assert code == 1
        assert "viewport" in err
        assert not out_path.exists()

    def test_extend_above_the_sample_cap_is_rejected(self, route_file, tmp_path, capsys):
        # Checked before synthesis: 10^6 + 1 extension leaves a side would
        # be 2 * 10^6 + 2 leaves.
        out_path = tmp_path / "fig.svg"
        code, _, err = run(
            capsys,
            [
                "render", route_file(HYPERCYCLE_CONSTANT), "--out", str(out_path),
                "--extend", str(10**6 + 1),
            ],
        )
        assert code == 1
        assert "--extend" in err
        assert not out_path.exists()

    def test_bad_viewport(self, route_file, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["render", route_file(PENCIL), "--viewport", "1,2,3"],
        )
        assert code == 1
        assert "viewport" in err


class TestExamples:
    def test_lists_families_and_a_sample_document(self, capsys):
        code, out, _ = run(capsys, ["examples"])
        assert code == 0
        for name in ("pencil", "horospherical", "totally_geodesic", "constant"):
            assert name in out
        sample = out.split("sample route document:\n", 1)[1]
        doc = json.loads(sample)
        assert doc["closed_form"]["name"] == "pencil"


class TestOptionScope:
    @pytest.mark.parametrize("argv", [["examples"], ["lemma-check", "--n", "10"]])
    def test_tol_is_only_for_commands_that_read_a_file(self, capsys, argv):
        code, _, err = run(capsys, argv + ["--tol", "1"])
        assert code == 1
        assert "--tol" in err


class TestLemmaCheck:
    def test_small_run_agrees(self, capsys):
        code, out, _ = run(capsys, ["lemma-check", "--n", "300", "--seed", "7"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("geodesic: agreement ")
        assert lines[1].startswith("hypercycle: agreement ")
        assert "of 300)" in lines[0]

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, ["lemma-check", "--n", "0"])
        assert code == 1
        assert "--n" in err

    def test_negative_seed(self, capsys):
        code, _, err = run(capsys, ["lemma-check", "--n", "10", "--seed", "-1"])
        assert code == 1
        assert "--seed" in err

    def test_mismatch_is_listed_and_fails(self, capsys, monkeypatch):
        def sweep(family, n, seed):
            mismatches = ()
            if family == "hypercycle":
                mismatches = ((0.123456789012345, 1.0, 2.0, 1.5, 0.25),)
            return AgreementStats(family, n, 9, 9 - len(mismatches), 1, 0, mismatches)

        monkeypatch.setattr(cli, "run_disjointness_agreement", sweep)
        code, out, _ = run(capsys, ["lemma-check", "--n", "10"])
        assert code == 2
        assert out.splitlines() == [
            "geodesic: agreement 9/9 outside the tangency margin (1 margin skips, "
            "0 tangency skips of 10)",
            "hypercycle: agreement 8/9 outside the tangency margin (1 margin skips, "
            "0 tangency skips of 10)",
            "  mismatch at (0.123456789012, 1.0, 2.0, 1.5, 0.25)",
        ]


class TestErrorPaths:
    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "usage" in err

    def test_calls_in_a_row_print_what_fresh_calls_do(self, route_file, capsys):
        # The parser is built once per process: no call, a refused one
        # included, leaves anything behind for the next.
        calls = [
            ["validate", route_file(PENCIL)],
            ["validate", "--bogus", route_file(PENCIL)],
            ["validate", "--c1", "--tol", "1e-6", route_file(PENCIL)],
            [],
            ["lemma-check", "--n", "x"],
            ["render", "--extend", "1"],
            ["examples"],
            ["validate", route_file(PENCIL)],
        ]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        _build_parser.cache_clear()
        assert [run(capsys, argv) for argv in calls] == fresh
        assert [code for code, _, _ in fresh] == [0, 1, 0, 1, 1, 1, 0, 0]

    def test_unknown_flag(self, route_file, capsys):
        code, _, _ = run(capsys, ["validate", "--bogus", route_file(PENCIL)])
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", str(tmp_path / "absent.json")])
        assert code == 1

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops", encoding="utf-8")
        code, _, err = run(capsys, ["validate", str(p)])
        assert code == 1

    HUGE = 10**400  # an integer literal beyond the float range

    @pytest.mark.parametrize(
        "doc, path",
        [
            (
                {"transversal": {"kind": "geodesic"}, "samples": [{"t": HUGE, "h": 0.0}]},
                "samples[0].t",
            ),
            (
                {**HYPERCYCLE_CONSTANT, "transversal": {"kind": "hypercycle", "phi": HUGE}},
                "transversal.phi",
            ),
            ({**PENCIL, "tol": HUGE}, "tol"),
            ({**PENCIL, "window": [0.0, HUGE]}, "window[1]"),
            (
                {**HYPERCYCLE_CONSTANT, "closed_form": {"name": "constant", "params": {"c": HUGE}}},
                "closed_form.params.c",
            ),
        ],
    )
    def test_huge_integer_literal_is_refused(self, route_file, capsys, doc, path):
        code, out, err = run(capsys, ["validate", route_file(doc)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"umbilic: route file invalid: {path}: expected a finite number")

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe" + json.dumps(PENCIL).encode("utf-16-le"),  # UTF-16 with its BOM
            b"[" * 100_000 + b"]" * 100_000,  # nested past the parser's depth
            b'{"n": 1' + b"0" * 5000 + b"}",  # past the integer digit limit
        ],
        ids=["utf-16", "deep-nesting", "long-integer"],
    )
    def test_unreadable_file_is_one_line_of_error(self, tmp_path, capsys, data):
        p = tmp_path / "route.json"
        p.write_bytes(data)
        code, out, err = run(capsys, ["validate", str(p)])
        assert code == 1
        assert out == ""
        assert err.startswith("umbilic: route file invalid: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, echo",
        [
            ('{"transversal": {"kind": "geodesic"}, "samples": [{"t": 1%s, "h": 0}]}' % ("0" * 400),
             "samples[0].t: expected a finite number, got an integer literal of 401 digits"),
            ('{"transversal": {"kind": "geodesic"}, "samples": [{"t": 0, "h": 0}], "tol": -%s}'
             % ("9" * 4300),
             "tol: expected a finite number, got an integer literal of 4300 digits"),
            ('{"n": 1%s}' % ("0" * 5000), "JSON text not readable: Exceeds the limit (4300 digits)"),
        ],
        ids=["401-digits", "4300-digits", "5001-digits"],
    )
    def test_refused_numbers_are_not_echoed_in_full(self, tmp_path, capsys, text, echo):
        p = tmp_path / "route.json"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(p)])
        assert (code, out) == (1, "")
        assert err.startswith(f"umbilic: route file invalid: {echo}")
        assert err.count("\n") == 1 and len(err) < 200
        assert "set_int_max_str_digits" not in err

    def test_huge_closed_form_n_is_rejected(self, route_file, capsys):
        # Sampling 10^12 points would ask numpy for terabytes.
        code, _, err = run(capsys, ["validate", route_file({**PENCIL, "n": 10**12})])
        assert code == 1
        assert "route file invalid: n:" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"transversal": {"kind": "hypercycle", "phi": 0.5}, "closed_form": {"name": "pencil"}},
                "the pencil family lives on the geodesic",
            ),
            (
                {"transversal": {"kind": "geodesic"}, "closed_form": {"name": "constant"}},
                "the constant family needs the level c",
            ),
            (
                {
                    "transversal": {"kind": "geodesic"},
                    "closed_form": {"name": "constant", "params": {"c": 2}},
                },
                "constant level 2.0 exceeds the curvature bound 1.0",
            ),
            (
                {**PENCIL, "window": [1e300, 1.0000000000000002e300], "n": 1000},
                "t must be strictly increasing",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "leaves", "audit", "render"])
    def test_refused_closed_form_names_the_stanza(
        self, route_file, capsys, tmp_path, doc, message, command
    ):
        svg = tmp_path / "x.svg"
        argv = [command, route_file(doc), "--out", str(svg)]
        code, out, err = run(capsys, argv if command == "render" else argv[:2])
        assert (code, out) == (1, "")
        assert err == f"umbilic: route file invalid: closed_form: {message}\n"  # no traceback
        assert not svg.exists()

    def test_schema_violation_names_the_field(self, route_file, capsys):
        doc = {
            "transversal": {"kind": "geodesic"},
            "samples": [{"t": 0.0, "h": "zero"}],
        }
        code, _, err = run(capsys, ["validate", route_file(doc)])
        assert code == 1
        assert "samples[0].h" in err

    def test_unrealizable_curvature_is_an_input_error(self, route_file, capsys):
        doc = {
            "transversal": {"kind": "horocycle", "height": 1.0},
            "samples": [{"t": 0.0, "h": 0.5}, {"t": 1.0, "h": 0.5}],
        }
        code, _, err = run(capsys, ["leaves", "--force", route_file(doc)])
        assert code == 1
        assert "no leaf" in err


class TestFloatRange:
    """Documents at the edge of the float range end in exit 1 and a
    message, never a traceback, a warning or nan/inf geometry."""

    # e^(t L) is finite here, but the carrier radius s / (1 + cos beta) is not.
    HUGE_CARRIER = {
        "transversal": {"kind": "geodesic"},
        "samples": [{"t": 708.0, "h": 0.9}, {"t": 709.0, "h": 0.9}],
    }

    @pytest.mark.parametrize("command", ["leaves", "audit", "render"])
    def test_non_finite_carriers_are_refused(self, route_file, capsys, tmp_path, command):
        svg = tmp_path / "x.svg"
        argv = [command, route_file(self.HUGE_CARRIER), "--out", str(svg)]
        code, out, err = run(capsys, argv if command == "render" else argv[:2])
        assert code == 1
        assert "finite" in err
        assert "inf" not in out and "nan" not in out
        assert not svg.exists()

    # e^(t L) itself overflows: the crossing leaves the float range.
    LARGE_T = {
        "transversal": {"kind": "geodesic"},
        "samples": [{"t": 800.0, "h": 0.0}, {"t": 800.25, "h": 0.0}],
    }

    @pytest.mark.parametrize("command", ["leaves", "audit", "render"])
    def test_overflowing_crossing_is_refused(self, route_file, capsys, tmp_path, command):
        svg = tmp_path / "x.svg"
        argv = [command, route_file(self.LARGE_T), "--out", str(svg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, argv if command == "render" else argv[:2])
        assert code == 1
        assert err == "umbilic: the crossing at t=800.0 leaves the float range\n"
        assert not svg.exists()

    # Each once warned before its refusal: the audit's scale 2**k past the
    # int range, or an extension leaf's t past the float range.
    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (
                {"transversal": {"kind": "geodesic"},
                 "samples": [{"t": 1.7e308, "h": 0.0}, {"t": 1.75e308, "h": 0.0}]},
                ["audit"],
                "the crossing at t=1.7e+308 leaves the float range",
            ),
            (
                {"transversal": {"kind": "geodesic"}, "closed_form": {"name": "horospherical"},
                 "window": [800.0, 1e300], "n": 50},
                ["audit"],
                "the crossing at t=800.0 leaves the float range",
            ),
            (
                {"transversal": {"kind": "hypercycle", "phi": 0.9},
                 "samples": [{"t": 1.6e308, "h": 0.0}, {"t": 1.7e308, "h": 0.0}]},
                ["render", "--force", "--extend", "2"],
                "slice row 4 has t=inf, which is not finite",
            ),
        ],
        ids=["audit-1e308", "audit-horospherical", "render-extend-1e308"],
    )
    def test_refused_without_a_warning(self, route_file, capsys, tmp_path, doc, argv, message):
        svg = tmp_path / "x.svg"
        argv = [*argv, route_file(doc)] + (["--out", str(svg)] if argv[0] == "render" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(capsys, argv)
        assert result == (1, "", f"umbilic: {message}\n")
        assert not svg.exists()

    def test_render_past_the_float_range_is_refused(self, route_file, capsys, tmp_path):
        # The second leaf's radius, 8.2e306, is finite; in pixels it is not.
        doc = {
            "transversal": {"kind": "geodesic"},
            "samples": [{"t": 0.0, "h": 0.5}, {"t": 706.0, "h": 0.5}],
        }
        svg = tmp_path / "x.svg"
        assert run(capsys, ["validate", route_file(doc)])[0] == 0
        code, _, err = run(capsys, ["render", route_file(doc), "--out", str(svg)])
        assert code == 1
        assert "float range" in err
        assert not svg.exists()

    def test_non_finite_horocycle_radius_is_refused(self, route_file, capsys):
        doc = {
            "transversal": {"kind": "horocycle", "height": 1e308},
            "samples": [{"t": 0.0, "h": -0.5}, {"t": 1.0, "h": -0.5}],
        }
        code, _, err = run(capsys, ["leaves", "--force", route_file(doc)])
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize(
        "height, ts", [(1e-300, [0.0, 1e10]), (1e-320, [0.0, 1.0])]
    )
    def test_horocycle_audit_beyond_its_scale_is_refused(
        self, route_file, capsys, height, ts
    ):
        doc = {
            "transversal": {"kind": "horocycle", "height": height},
            "samples": [{"t": t, "h": 0.0} for t in ts],
        }
        assert run(capsys, ["validate", route_file(doc)])[0] == 0
        code, _, err = run(capsys, ["audit", route_file(doc)])
        assert code == 1
        assert "float range" in err

    def test_horocycle_audit_at_a_small_level_is_refused(self, route_file, capsys):
        # A circle's radius is height / |h|: at h = -1e-200 its square
        # leaves the float range at the audit's scale.
        doc = {
            "transversal": {"kind": "horocycle", "height": 1e-3},
            "tol": 1e-300,
            "samples": [{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": -1e-200}],
        }
        code, out, err = run(capsys, ["audit", "--force", route_file(doc)])
        assert (code, out) == (1, "")
        assert err == (
            "umbilic: the leaves at t=0.0 and t=1.0 leave the float range "
            "at the audit's scale 2**-9\n"
        )

    def test_geodesic_audit_beyond_its_scale_is_refused(self, route_file, capsys):
        # The upper carrier's squared radius overflows at the lower leaf's scale.
        doc = {
            "transversal": {"kind": "geodesic"},
            "samples": [{"t": -350.0, "h": 0.5}, {"t": 350.0, "h": 0.5}],
        }
        code, _, err = run(capsys, ["audit", route_file(doc)])
        assert code == 1
        assert "float range" in err

    @pytest.mark.parametrize(
        "transversal, closed_form, half",
        [
            ({"kind": "hypercycle", "phi": 0.9}, {"name": "totally_geodesic"}, 383.0),
            ({"kind": "geodesic"}, {"name": "constant", "params": {"c": 0.5}}, 360.0),
        ],
        ids=["totally-geodesic-0.9", "constant-0.5"],
    )
    def test_wide_family_audits_clean(self, route_file, capsys, transversal, closed_form, half):
        # Far leaves' squared radii overflow at the lower leaf's scale, but
        # the links certify every far pair, so none is intersected.
        doc = {
            "transversal": transversal,
            "closed_form": closed_form,
            "window": [-half, half],
            "n": 1000,
        }
        code, out, err = run(capsys, ["audit", route_file(doc)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["clean"], report["pairs_checked"]) == (True, 499500)

    @pytest.mark.parametrize(
        "doc, path",
        [
            (
                {
                    "transversal": {"kind": "geodesic"},
                    "closed_form": {"name": "totally_geodesic"},
                    "window": [-1e308, 1e308],
                },
                "window:",
            ),
            (
                {
                    "transversal": {"kind": "geodesic"},
                    "samples": [{"t": -1e308, "h": 0.0}, {"t": 1e308, "h": 0.0}],
                },
                "samples[1].t:",
            ),
        ],
    )
    def test_infinite_t_span_is_refused(self, route_file, capsys, doc, path):
        # Warnings are errors under pytest, so a numpy overflow would fail here.
        code, _, err = run(capsys, ["validate", route_file(doc)])
        assert code == 1
        assert f"route file invalid: {path}" in err
        assert "finite" in err


class TestFloatRangeOutputs:
    """Finite documents whose arithmetic passes the float range on the way
    still give finite reports and exit codes, without a warning."""

    def test_c1_differences_past_the_float_range(self, route_file, capsys):
        doc = {
            "transversal": {"kind": "geodesic"},
            "samples": [
                {"t": 0.0, "h": 1e308}, {"t": 0.5, "h": 0.0}, {"t": 2.0, "h": 1e308},
            ],
        }
        code, out, _ = run(capsys, ["validate", "--c1", route_file(doc)])
        assert code == 2
        report = json.loads(out)
        assert report["valid"] is False
        assert [v["kind"] for v in report["violations"]] == ["bound", "pointwise", "bound"]

    # The second leaf's radius squared overflows; its endpoints do not.
    WIDE_LEAF = {
        "transversal": {"kind": "geodesic"},
        "samples": [{"t": -700.0, "h": 0.5}, {"t": 700.0, "h": 0.5}],
    }

    def test_leaves_of_huge_radius_have_finite_endpoints(self, route_file, capsys):
        code, out, _ = run(capsys, ["leaves", route_file(self.WIDE_LEAF)])
        assert code == 0
        row = out.splitlines()[2].split("\t")
        a_minus, a_plus = float(row[7]), float(row[8])
        # Orthogonal to the axis at s = e^700 with beta = 2 pi / 3: the
        # endpoints are +-s tan(beta / 2).
        assert a_plus == pytest.approx(math.exp(700.0) * math.sqrt(3.0), rel=1e-11)
        assert a_minus == -a_plus

    def test_leaves_of_tiny_radius_have_their_endpoints(self, route_file, capsys):
        # The first leaf's r^2 - cy^2 underflows; its endpoints do not.
        code, out, _ = run(capsys, ["leaves", route_file(self.WIDE_LEAF)])
        assert code == 0
        row = out.splitlines()[1].split("\t")
        a_minus, a_plus = float(row[7]), float(row[8])
        assert a_plus == pytest.approx(math.exp(-700.0) * math.sqrt(3.0), rel=1e-11)
        assert a_minus == -a_plus

    def test_render_of_huge_radius_writes_no_nan(self, route_file, capsys, tmp_path):
        svg = tmp_path / "wide.svg"
        code, _, _ = run(capsys, ["render", route_file(self.WIDE_LEAF), "--out", str(svg)])
        assert code == 0
        assert "nan" not in svg.read_text(encoding="utf-8")


class TestOutputErrors:
    """``leaves`` and ``render`` refuse these documents with the exit code and
    message that listing and drawing them one ``Leaf`` at a time gave:
    ``leaves`` prints nothing on stdout, and ``render`` writes no figure."""

    GEODESIC = {"kind": "geodesic"}
    # e^(t L) underflows to 0 below t L = -745, for a circle and for a line.
    UNDERFLOW = {"transversal": GEODESIC, "samples": [{"t": -800.0, "h": 0.0}, {"t": -799.0, "h": 0.0}]}
    UNDERFLOW_LINE = {"transversal": GEODESIC, "samples": [{"t": -800.0, "h": 1.0}, {"t": 0.0, "h": 1.0}]}
    OVERFLOW = {"transversal": GEODESIC, "samples": [{"t": 0.0, "h": 0.9}, {"t": 709.0, "h": 0.9}]}
    # The second circle's radius is 1.3e306: finite, but not in pixels.
    WIDE = {
        "transversal": {"kind": "hypercycle", "phi": 1.1},
        "samples": [{"t": 0.0, "h": 0.5}, {"t": 790.0, "h": 0.5}],
    }
    PENCIL = {**PENCIL, "window": [-3.0, 3.0], "n": 7}  # radii up to cosh 3
    HEIGHT = "umbilic: crossing height must be positive, got 0.0\n"
    RADIUS = "umbilic: circle radius must be positive and finite, got inf\n"
    RANGE = "umbilic: the figure has a coordinate past the float range, got "

    @pytest.mark.parametrize(
        "doc, stderr",
        [(UNDERFLOW, HEIGHT), (UNDERFLOW_LINE, HEIGHT), (OVERFLOW, RADIUS)],
        ids=["underflow", "underflow-line", "radius-overflow"],
    )
    def test_leaves(self, route_file, capsys, doc, stderr):
        for force in ([], ["--force"]):
            assert run(capsys, ["leaves", *force, route_file(doc)]) == (1, "", stderr)

    @pytest.mark.parametrize(
        "doc, viewport, stderr",
        [
            (UNDERFLOW, None, HEIGHT),
            (UNDERFLOW_LINE, None, HEIGHT),
            (OVERFLOW, None, RADIUS),
            (WIDE, None, RANGE + "-inf\n"),
            (WIDE, "-1e-305,1e-305,3,800,400", RANGE + "inf\n"),
            (PENCIL, "-1e-305,1e-305,3,800,400", RANGE + "inf\n"),
        ],
        ids=["underflow", "underflow-line", "radius-overflow", "wide", "wide-viewport", "pencil-viewport"],
    )
    def test_render(self, route_file, capsys, tmp_path, doc, viewport, stderr):
        svg = tmp_path / "x.svg"
        argv = ["render", route_file(doc), "--out", str(svg)]
        if viewport:
            argv.append(f"--viewport={viewport}")
        assert run(capsys, argv) == (1, "", stderr)
        assert not svg.exists()


class TestRefusalsStayShort:
    """Inputs that once ended in a warning, a traceback or a line the size
    of the input."""

    def test_c1_spacing_of_one_subnormal_step(self, route_file, capsys):
        # np.gradient divides by the spacing 5e-324 - 0.0 after rounding.
        doc = {
            "transversal": {"kind": "geodesic"},
            "samples": [{"t": t, "h": 0.0} for t in (-1.0, 0.0, 5e-324, 0.5, 1.0)],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["validate", "--c1", route_file(doc)])
        assert code in (0, 2)
        assert json.loads(out)["mode"] == "c1"
        assert err == ""

    def test_infinite_profile_value(self, route_file, capsys):
        # One ulp inside -sin(0.5) the profile is +inf, so both scans of
        # validate_c0 compute inf - inf; the verdict is the pairwise one.
        inside = math.nextafter(-math.sin(0.5), 0.0)
        doc = {
            "transversal": {"kind": "hypercycle", "phi": 0.5},
            "tol": 1e-300,
            "samples": [{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": inside}, {"t": 2.0, "h": 0.0}],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["validate", route_file(doc)])
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "schema": "umbilic.report/1",
            "report": "verdict",
            "mode": "c0",
            "valid": False,
            "zones": {"t_minus": "-inf", "t_plus": "inf"},
            "worst_slack": "-inf",
            "violations": [{"kind": "pair", "t1": 0.0, "t2": 1.0, "slack": "-inf"}],
            "notes": [
                "window only: behavior outside the sampled interval is unchecked",
                "one-sided growth condition is the normative check",
                "two-sided Lipschitz estimate fails by inf at pair (1.0, 2.0); "
                "this does not affect validity",
            ],
        }

    def test_viewport_width_past_the_float_range(self, route_file, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        viewport = "--viewport=-3,3,3,%s,400" % ("9" * 401)
        code, out, err = run(capsys, ["render", route_file(PENCIL), "--out", str(svg), viewport])
        assert (code, out) == (1, "")
        assert err.startswith("umbilic: bad viewport: ") and err.count("\n") == 1
        assert not svg.exists()

    def test_viewport_past_the_digit_limit_gives_no_advice(self, route_file, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        viewport = "--viewport=-3,3,3,400,%s" % ("9" * 5001)
        code, out, err = run(capsys, ["render", route_file(PENCIL), "--out", str(svg), viewport])
        assert (code, out) == (1, "")
        assert err.startswith("umbilic: bad viewport: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err and len(err) < 200
        assert not svg.exists()

    LONG = "x" * 100_000

    @pytest.mark.parametrize(
        "doc, echo",
        [
            ({"transversal": {"kind": "geodesic"}, "samples": [{"t": LONG, "h": 0.0}]},
             "samples[0].t: expected a number, got 'xxx"),
            ({"transversal": {"kind": LONG}, "samples": [{"t": 0.0, "h": 0.0}]},
             "transversal.kind: kind must be geodesic, hypercycle or horocycle, got 'xxx"),
            ({**PENCIL, "closed_form": {"name": LONG}}, "closed_form.name: unknown family 'xxx"),
            ({**PENCIL, "n": [0] * 50_000}, "n: expected an integer, got [0, 0"),
        ],
        ids=["sample-t", "transversal-kind", "family-name", "n"],
    )
    def test_refused_values_are_not_echoed_in_full(self, route_file, capsys, doc, echo):
        code, out, err = run(capsys, ["validate", route_file(doc)])
        assert (code, out) == (1, "")
        assert err.startswith(f"umbilic: route file invalid: {echo}")
        assert err.count("\n") == 1 and len(err) < 400

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({**PENCIL, LONG: 1}, ""),
            ({**PENCIL, "transversal": {"kind": "geodesic", LONG: 1}}, "transversal."),
            ({**PENCIL, "closed_form": {"name": "pencil", LONG: 1}}, "closed_form."),
            ({**PENCIL, "closed_form": {"name": "constant", "params": {"c": 0.1, LONG: 1}}},
             "closed_form.params."),
            ({"transversal": {"kind": "geodesic"}, "samples": [{"t": 0.0, "h": 0.0, LONG: 1}]},
             "samples[0]."),
        ],
        ids=["root", "transversal", "closed-form", "params", "sample"],
    )
    def test_unknown_keys_are_not_echoed_in_full(self, route_file, capsys, doc, path):
        code, out, err = run(capsys, ["validate", route_file(doc)])
        assert (code, out) == (1, "")
        assert err == (
            f"umbilic: route file invalid: {path}{'x' * 80}... "
            "(a key of 100000 characters): unknown field\n"
        )

    @pytest.mark.parametrize("key", ["extra", "k" * 80])
    def test_short_unknown_keys_keep_their_message(self, route_file, capsys, key):
        doc = {**PENCIL, "transversal": {"kind": "geodesic", key: 1}}
        _, _, err = run(capsys, ["validate", route_file(doc)])
        assert err == f"umbilic: route file invalid: transversal.{key}: unknown field\n"

    def test_short_refused_values_keep_their_message(self, route_file, capsys):
        doc = {"transversal": {"kind": "geodesic"}, "samples": [{"t": "1", "h": 0.0}]}
        _, _, err = run(capsys, ["validate", route_file(doc)])
        assert err == "umbilic: route file invalid: samples[0].t: expected a number, got '1'\n"


#: Edge pools of the subcommand fuzzer: t near where e^|t| overflows and
#: near the float range, with the least spacings; h at the curvature bound
#: and far past it; phi near 0 and pi/2; horocycle heights over the float
#: range; tolerances at their limits.
FUZZ_T = [709.78, -709.78, 710.63, 1e308, -1e308, 1.7e308, 0.0, 5e-324, 1.0]
FUZZ_H = [1 + 1e-12, 1 - 1e-12, -1 - 1e-12, -1 + 1e-12, 1e300, -1e300, 0.0, 0.5]
FUZZ_PHI = [5e-324, 1e-300, 1e-12, math.pi / 2 - 1e-12, math.nextafter(math.pi / 2, 0.0), 0.9]
FUZZ_HEIGHT = [1e-300, 1e-12, 1.0, 1e300, 1.7e308]
FUZZ_TOL = [5e-324, 1e-300, 1e-9, 0.5, math.nextafter(1.0, 0.0), 1.0, 1e300]
FUZZ_COMMANDS = (
    ["validate"], ["validate", "--c1"], ["leaves"], ["audit", "--force"],
    ["render", "--force", "--extend", "2"], ["render"],
)


@st.composite
def fuzz_documents(draw):
    kind = draw(st.sampled_from(["geodesic", "hypercycle", "horocycle"]))
    doc = {"transversal": {"kind": kind}}
    if kind == "hypercycle":
        doc["transversal"]["phi"] = draw(st.sampled_from(FUZZ_PHI))
    elif kind == "horocycle":
        doc["transversal"]["height"] = draw(st.sampled_from(FUZZ_HEIGHT))
    if draw(st.booleans()):
        doc["closed_form"] = {"name": draw(st.sampled_from(sorted(BUILTIN_FAMILIES)))}
        if draw(st.booleans()):
            doc["closed_form"]["params"] = {"c": draw(st.sampled_from(FUZZ_H))}
        t0 = draw(st.sampled_from(FUZZ_T))
        doc["window"] = [t0, t0 + draw(st.sampled_from([1e-300, 1.0, 100.0, 1e308]))]
        doc["n"] = draw(st.integers(2, 50))
    else:
        t = draw(st.sampled_from(FUZZ_T))
        samples = []
        for _ in range(draw(st.integers(1, 6))):
            samples.append({"t": t, "h": draw(st.sampled_from(FUZZ_H))})
            t = draw(st.sampled_from([math.nextafter(t, math.inf), t + 1.0, t * 2 + 1.0]))
        doc["samples"] = samples
    if draw(st.booleans()):
        doc["tol"] = draw(st.sampled_from(FUZZ_TOL))
    return doc


class TestFuzzSubcommands:
    """Every subcommand on edge documents: it exits 0, 1 or 2, an exit 1
    prints one ``umbilic:`` line, and no exception or warning escapes."""

    @settings(max_examples=25, deadline=None)
    @given(fuzz_documents())
    @example({"transversal": {"kind": "geodesic"}, "samples": [{"t": 710.63, "h": 0.0}]})
    @example({"transversal": {"kind": "geodesic"},
              "samples": [{"t": 1.7e308, "h": 0.0}, {"t": 1.75e308, "h": 0.0}]})
    @example({"transversal": {"kind": "geodesic"},
              "samples": [{"t": 0.0, "h": 1 + 1e-12}, {"t": 5e-324, "h": -1 + 1e-12}]})
    @example({"transversal": {"kind": "hypercycle", "phi": 1e-300},
              "samples": [{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": 1e300}], "tol": 5e-324})
    @example({"transversal": {"kind": "hypercycle", "phi": math.nextafter(math.pi / 2, 0.0)},
              "closed_form": {"name": "pencil"}, "window": [-709.78, -708.78], "n": 50})
    @example({"transversal": {"kind": "horocycle", "height": 1e-300},
              "samples": [{"t": 0.0, "h": 0.0}, {"t": 1.0, "h": -1e300}]})
    @example({"transversal": {"kind": "horocycle", "height": 1.7e308},
              "samples": [{"t": -1e308, "h": 0.5}, {"t": 1e308, "h": 0.0}], "tol": 1e300})
    @example({"transversal": {"kind": "geodesic"}, "closed_form": {"name": "constant"},
              "window": [709.78, 709.78 + 1e-300], "n": 2, "tol": math.nextafter(1.0, 0.0)})
    def test_exit_codes(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "route.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for command in FUZZ_COMMANDS:
                argv = [*command, path]
                if command[0] == "render":
                    argv += ["--out", os.path.join(tmp, "fig.svg")]
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                    warnings.simplefilter("error")
                    code = main(argv)
                assert code in (0, 1, 2), (argv, code)
                if code == 1:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("umbilic: "), (argv, lines)
