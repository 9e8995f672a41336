"""Tests of the benchmark itself, at tiny input sizes.

Run with ``python -m pytest perfbench -q``; the library's own test suite
(``tests/``) does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Input sizes small enough for a test; every pass still has 100 ops.
TINY = {
    "audit_n": (9, 13, 17),
    "long_n": (40, 80),
    "long_draws": (2, 3),
    "steep_len": 6,
    "pencil_n": (80, 40),
    "lemma_pairs": 40,
    "lemma_batches": 100,
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)


def _run(capsys, tmp_path, workload, trace):
    rc = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.2",
         "--trace", str(trace)],
        out_dir=tmp_path,
    )
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(capsys, tmp_path, workload):
    summary, result = _run(capsys, tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_PASSES * 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in summary)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    p90_line = next(line for line in summary if line.startswith("op_p90_ms"))
    ops = int(p90_line.split("n=")[1].split()[0])
    assert ops >= 100 and "beyond" in p90_line
    assert (tmp_path / f"result-{workload}-seed5-trace0.json").is_file()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, tmp_path, workload):
    summary, result = _run(capsys, tmp_path, workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert (tmp_path / f"spans-{workload}-seed5.jsonl").is_file()


def test_traced_run_restores_the_library():
    from umbilic import cli, foliation, leaves

    before = (cli.main, cli.synthesize, foliation.carrier_contact, leaves.carrier_contact)
    with spans.instrument(spans.SpanRecorder()):
        assert cli.synthesize is not before[1]
    assert (cli.main, cli.synthesize, foliation.carrier_contact, leaves.carrier_contact) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_an_op_with_a_wrong_expectation_counts_as_failed(tmp_path, workload):
    inputs = workloads.build(workload, 5, str(tmp_path))
    ops = [op for op in inputs.ops if op.defect is None][:5]
    clean = run.Phase(len(ops))
    run.run_ops(ops, clean)
    assert clean.failures == []

    wrong = ops[0]
    if workload == "route-audit":
        wrong.expect = ("invalid", (0.0, 0.0)) if wrong.expect[0] == "valid" else ("valid", None)
    elif workload == "long-route":
        wrong.expect = 2 if wrong.expect == 0 else 0
    else:
        wrong.expect += 1
    phase = run.Phase(len(ops))
    run.run_ops(ops, phase)
    assert [f[0] for f in phase.failures] == [wrong.label]
    assert phase.failures[0][1] is None  # not a known defect: the run is incorrect
    phase.probes = [speed.REFERENCE_S] * (len(ops) + 1)
    assert run.end_to_end(1.0, phase)["pass_share"] == pytest.approx(1 - 1 / len(ops))


def test_known_defects_fail_and_are_tagged(tmp_path):
    inputs = workloads.build("long-route", 5, str(tmp_path))
    phase = run.Phase(len(inputs.ops))
    run.run_ops(inputs.ops, phase)
    assert {f[1] for f in phase.failures} == {"pencil-wide-window", "large-t"}


def test_only_valid_routes_carry_the_audit_scale_defect(tmp_path):
    ops = workloads.build("route-audit", 5, str(tmp_path)).ops
    tagged = [op for op in ops if op.defect == "audit-scale"]
    assert tagged and all(op.expect == ("valid", None) for op in tagged)

    perturbed = next(op for op in ops if op.label.startswith("perturbed") and "t-40" in op.label)
    assert perturbed.defect is None
    clean = run.Phase(1)
    run.run_ops([perturbed], clean)
    assert clean.failures == []
    perturbed.expect = ("valid", None)
    phase = run.Phase(1)
    run.run_ops([perturbed], phase)
    assert [f[:2] for f in phase.failures] == [(perturbed.label, None)]


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 9, str(tmp_path))
        b = workloads.build(workload, 9, str(tmp_path))
        c = workloads.build(workload, 10, str(tmp_path))
        assert a.digest == b.digest != c.digest


def test_self_time_subtracts_child_and_folded_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    rec = spans.SpanRecorder()
    rec.op = "p0.0"
    outer = rec.start("foliation.synthesize")       # t = 0
    inner = rec.start("validation.validate_c0")     # t = 1
    rec.end(inner)                                  # t = 2
    rec.fold("leaves.carrier_contact", 3.0)
    rec.discount(0.5)                               # counting work
    rec.end(outer)                                  # t = 3
    totals = rec.totals(setup=False)
    assert totals["foliation.synthesize.busy_s"] == 3.0
    assert totals["foliation.synthesize.self_s"] == 3.0 - 1.0 - 3.0 - 0.5
    assert totals["validation.validate_c0.self_s"] == 1.0
    assert totals["leaves.carrier_contact.calls"] == 1
    assert rec.totals(setup=True) == {}


def test_without_the_library_sources_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_pass_has_at_least_100_ops(tmp_path):
    for workload in workloads.WORKLOADS:
        assert len(workloads.build(workload, 1, str(tmp_path)).ops) >= 100


def test_speed_scale_uses_the_probes_around_each_op():
    ref = speed.REFERENCE_S
    probes = [ref] * 10 + [2 * ref] * 11
    scales = speed.scales(probes)
    assert len(scales) == 20
    assert scales[0] == 1.0 and scales[-1] == 0.5


def test_an_op_with_unreadable_output_counts_as_failed(tmp_path):
    op = workloads.build("long-route", 5, str(tmp_path)).ops[3]  # leaves
    op.run = lambda: (0, "index\tt\nnot-a-row\n")
    phase = run.Phase(1)
    run.run_ops([op], phase)
    assert phase.failures[0][2].startswith("check raised")
