"""Benchmark for the umbilic library.

    python3 perfbench/run.py --workload route-audit --seed 1 --seconds 15 --trace 0

Runs one workload (route-audit, long-route or lemma-sweep; see README.md
in this directory) in one process and one thread, closed loop: the next
op starts when the previous one has returned.  The library is imported
from ``src/`` of the checkout that holds this file.

Phases:

1. set-up, three times: generate the inputs from the seed, serialise
   them, and run the untimed warm-up ops.  ``setup_s`` is the import time
   plus the median set-up (the set-up scaled, the import not).
2. timed: whole passes over the workload's ops (at least 100 per pass)
   until ``--seconds`` have passed and at least three passes have run.
   Only the library call is timed; each op's output is checked after.
   An op's latency is the median of its runs, and the end-to-end
   figures are taken over the ops of one pass.
3. with ``--trace 1`` only: the inputs are generated again and run for as
   long again with every layer boundary wrapped in a span.

Every end-to-end time is scaled to a reference machine speed measured by
a probe run next to each op (see ``speed.py``), because the speed of a
shared machine drifts by more than any bound worth keeping.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it give the same figures with sample counts, the machine facts,
the input sizes and every failure.  Full results and the spans are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
#: Layers that run only while the inputs are generated.
SETUP_LAYERS = ("foliation.random_valid_route", "foliation.perturbed_invalid_route")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_share": "share",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Op latencies in run order, the speed probes between them, failures."""

    width: int  # ops per pass
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[tuple[str, str | None, str]] = field(default_factory=list)
    passes: int = 0

    def op_latencies(self, scaled: bool = True) -> list[float]:
        """Each op's latency, the median of its runs: at the reference
        speed (needs a probe after the last op), or as measured."""
        times = self.latencies
        if scaled:
            times = [t * f for t, f in zip(times, speed.scales(self.probes))]
        return [statistics.median(times[k::self.width]) for k in range(self.width)]

    def ops_per_s(self, scaled: bool = True) -> float:
        return self.width / sum(self.op_latencies(scaled))


def run_ops(ops, phase: Phase, rec=None, tag: str = "", probe: bool = False) -> None:
    """Run each op once, timing only the call; check its output after."""
    for k, op in enumerate(ops):
        if probe:
            phase.probes.append(speed.probe())
        if rec is not None:
            rec.op = f"{tag}{k}"
        t0 = time.perf_counter()
        try:
            result = op.run()
            reason = None
        except Exception as exc:  # an uncaught library error fails the op
            reason = f"raised {type(exc).__name__}: {exc}"
        phase.latencies.append(time.perf_counter() - t0)
        if reason is None:
            try:
                reason = op.check(op.expect, result)
            except Exception as exc:  # output too malformed to inspect
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            phase.failures.append((op.label, op.defect, reason))
        # Drop the result before the next probe, so the probe's
        # allocations never share the heap with a large report.
        result = None


def timed_phase(ops, seconds: float, rec=None) -> Phase:
    phase = Phase(len(ops))
    gc.collect()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or phase.passes < MIN_PASSES:
        run_ops(ops, phase, rec, tag=f"p{phase.passes}.", probe=True)
        phase.passes += 1
    phase.probes.append(speed.probe())
    return phase


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "umbilic").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest()[:16],
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(setup_s: float, phase: Phase) -> dict[str, float]:
    lat = phase.op_latencies()
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": _p90(lat) * 1e3,
        "pass_share": 1.0 - len(phase.failures) / len(phase.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec, untraced: Phase, traced: Phase) -> dict[str, tuple[float, str]]:
    """Per-layer figures per pass over the inputs (set-up layers: per
    set-up), from the traced run's spans, in unscaled seconds."""
    setup = rec.totals(setup=True)
    timed = rec.totals(setup=False)
    passes = traced.passes
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in (
        "routes_io.loads_route", "routes_io.validate_document",
        "routes_io.document_to_route", "cli.main",
        "validation.validate_c0", "validation.validate_c1",
        "validation.validate_horocycle", "foliation.synthesize",
        "foliation.extend_slice", "foliation.verify_disjoint",
        "foliation.run_disjointness_agreement", "leaves.carrier_contact",
        "leaves.disjoint_along_geodesic", "leaves.disjoint_along_hypercycle",
        "leaves.leaf_orthogonal_to_geodesic", "leaves.leaf_orthogonal_to_hypercycle",
        "render.render_svg",
    ):
        put(f"{layer}.calls", timed[f"{layer}.calls"] / passes, "count")
        put(f"{layer}.busy_s", timed[f"{layer}.busy_s"] / passes, "s")
        if layer in spans.WITH_CHILDREN:
            put(f"{layer}.self_s", timed[f"{layer}.self_s"] / passes, "s")
    for layer in SETUP_LAYERS:
        put(f"{layer}.calls", setup[f"{layer}.calls"], "count")
        put(f"{layer}.busy_s", setup[f"{layer}.busy_s"], "s")
        put(f"{layer}.samples", setup[f"{layer}.samples"], "count")
    for name, unit in (
        ("routes_io.loads_route.bytes", "B"),
        ("cli.main.stdout_bytes", "B"),
        ("validation.validate_c0.pairs", "count"),
        ("validation.validate_c0.violations", "count"),
        ("foliation.synthesize.leaves", "count"),
        ("foliation.extend_slice.leaves", "count"),
        ("foliation.verify_disjoint.pairs", "count"),
        ("foliation.verify_disjoint.flagged", "count"),
        ("foliation.run_disjointness_agreement.compared", "count"),
        ("foliation.run_disjointness_agreement.skipped", "count"),
        ("render.render_svg.bytes", "B"),
    ):
        put(name, timed[name] / passes, unit)
    busy = timed["foliation.verify_disjoint.busy_s"]
    put(
        "foliation.verify_disjoint.pairs_per_s",
        timed["foliation.verify_disjoint.pairs"] / busy if busy else 0.0,
        "1/s",
    )
    drawn = timed["foliation.run_disjointness_agreement.total"]
    put(
        "foliation.run_disjointness_agreement.compared_ratio",
        timed["foliation.run_disjointness_agreement.compared"] / drawn if drawn else 0.0,
        "share",
    )
    put("op.busy_s", sum(traced.latencies) / passes, "s")
    put("trace.overhead", untraced.ops_per_s() / traced.ops_per_s(), "ratio")
    return out


def _print_summary(args, meta, sizes, setup, e2e, phase, failures):
    print(f"# umbilic benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# machine " + json.dumps(meta))
    print("# inputs " + json.dumps(sizes))
    print(
        f"# set-up: import {setup['import_s']:.3f} s + median of "
        f"{len(setup['runs_s'])} set-ups ({', '.join(f'{s:.3f}' for s in setup['runs_s'])} s) "
        f"times {setup['scale']:.3f} to reference speed"
    )
    lat = phase.op_latencies()
    raw = phase.op_latencies(scaled=False)
    p90 = _p90(lat)
    beyond = sum(1 for x in lat if x > p90)
    runs = f"n={len(lat)} ops, each the median of {phase.passes} runs"
    attempted = len(phase.latencies)
    notes = {
        "ops_per_s": f"{runs}; {sum(phase.latencies):.2f} s busy before scaling",
        "op_p50_ms": runs,
        "op_p90_ms": f"{runs}; {beyond} beyond",
        "pass_share": f"fail_share {len(phase.failures) / attempted:.6g} = "
                      f"{len(phase.failures)}/{attempted} op runs failed",
    }
    for name, value in e2e.items():
        print(f"{name:<12} {value:>14.6g} {END_TO_END_UNITS[name]:<6} {notes.get(name, '')}")
    scales = speed.scales(phase.probes)
    print(f"# speed scale per op: median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}..{max(scales):.3f}")
    print(f"# unscaled: ops_per_s {len(raw) / sum(raw):.6g} 1/s, "
          f"op_p50_ms {statistics.median(raw) * 1e3:.6g} ms, "
          f"op_p90_ms {_p90(raw) * 1e3:.6g} ms")
    by_reason: dict[tuple, int] = {}
    for label, defect, reason in failures:
        key = (defect or "UNEXPECTED", label, reason)
        by_reason[key] = by_reason.get(key, 0) + 1
    for (defect, label, reason), count in sorted(by_reason.items()):
        print(f"# failed x{count} [{defect}] {label}: {reason}")


def _print_layers(layers: dict, workload: str) -> None:
    op_busy = layers["op.busy_s"][0]
    print(f"# per layer, per pass over the {workload} inputs "
          "(share = busy time / op time):")
    for name, (value, unit) in layers.items():
        share = ""
        if name.endswith(".busy_s") and not name.startswith(SETUP_LAYERS):
            share = f"  share {value / op_busy:.3f}"
        print(f"  {name:<52} {value:>14.6g} {unit}{share}")


def main(argv: list[str] | None = None, out_dir: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "umbilic" / "__init__.py").is_file():
        print(f"perfbench: no umbilic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import umbilic

    if Path(umbilic.__file__).resolve().parent != ROOT / "src" / "umbilic":
        print(f"perfbench: imported umbilic from {umbilic.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - _T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = Path(out_dir) if out_dir is not None else ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = []  # correctness problems that are not op failures

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        setup_runs = []
        setup_probes = [speed.probe() for _ in range(3)]
        warm = Phase(0)
        digests = set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workloads.build(args.workload, args.seed, tmp)
            run_ops(inputs.warmup, warm)
            setup_runs.append(time.perf_counter() - t0)
            digests.add(inputs.digest)
            setup_probes += [speed.probe() for _ in range(3)]
        if len(digests) != 1:
            problems.append("the same seed generated different inputs")
        # Only the set-ups are scaled: the import is mostly file reads and
        # C-level module set-up, whose speed the probe does not track.
        setup_scale = speed.REFERENCE_S / statistics.median(setup_probes)
        setup_s = import_s + statistics.median(setup_runs) * setup_scale

        phase = timed_phase(inputs.ops, args.seconds)
        layers = None
        if args.trace:
            rec = spans.SpanRecorder()
            with spans.instrument(rec):
                traced_inputs = workloads.build(args.workload, args.seed, tmp)
                traced = timed_phase(traced_inputs.ops, args.seconds, rec)
            if traced_inputs.digest not in digests:
                problems.append("the traced run generated different inputs")
            rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            layers = per_layer(rec, phase, traced)

    failures = phase.failures + (traced.failures if args.trace else [])
    unexpected = [f for f in warm.failures + failures if f[1] is None]
    correct = not unexpected and not problems
    attempted = len(phase.latencies) + (len(traced.latencies) if args.trace else 0)

    meta = _machine()
    e2e = end_to_end(setup_s, phase)
    setup = {"import_s": import_s, "runs_s": setup_runs, "scale": setup_scale}
    _print_summary(args, meta, inputs.sizes, setup, e2e, phase, failures)
    for problem in problems:
        print(f"# problem: {problem}")
    if layers is not None:
        _print_layers(layers, args.workload)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}

    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": meta,
        "inputs": inputs.sizes, "setup": setup, "setup_probes_s": setup_probes,
        "end_to_end": e2e, "unscaled": {
            "ops_per_s": phase.ops_per_s(scaled=False),
            "op_p50_ms": statistics.median(phase.op_latencies(scaled=False)) * 1e3,
        },
        "per_layer": {k: v for k, (v, _) in (layers or {}).items()},
        "passes": phase.passes, "ops_per_pass": len(inputs.ops),
        "latencies_s": phase.latencies, "probes_s": phase.probes,
        "failures": [{"op": l, "defect": d, "reason": r} for l, d, r in failures],
        "known_defects": workloads.KNOWN_DEFECTS, "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
