import json

import pytest

from umbilic.cli import main


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
        doc = {
            "transversal": {"kind": "hypercycle", "phi": 0.8},
            "closed_form": {"name": "constant", "params": {"c": 0.2}},
            "window": [-1.0, 1.0],
            "n": 9,
        }
        out_path = str(tmp_path / "fig.svg")
        code, out, _ = run(
            capsys,
            ["render", route_file(doc), "--out", out_path, "--extend", "3"],
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


class TestErrorPaths:
    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "usage" in err

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

    def test_huge_closed_form_n_is_rejected(self, route_file, capsys):
        # Sampling 10^12 points would ask numpy for terabytes.
        code, _, err = run(capsys, ["validate", route_file({**PENCIL, "n": 10**12})])
        assert code == 1
        assert "route file invalid: n:" in err

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
