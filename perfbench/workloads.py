"""The benchmark's workloads: inputs drawn from a seed, ops, output checks.

Each workload builds one *pass*: a fixed list of ops over inputs made
from the workload seed.  An op is one timed call into the library; its
check runs untimed afterwards and names what was wrong, or returns None.

Library functions are always looked up on their module at call time
(``foliation.synthesize``, never a local alias), so the traced run's
wrappers see every call.

Some inputs exercise defects the library has at the time the benchmark
was defined.  Their ops are expected to fail there and are counted as
failures like any other, but they carry the name of the defect, so a
run can tell a known failure from a new one.  An input is tagged by a
property it has, never by which workload it belongs to.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from umbilic import cli, foliation, render, routes_io, validation
from umbilic.errors import GeometryError
from umbilic.halfplane import Transversal, TransversalKind

#: Defects of the library that some inputs exercise on purpose.
KNOWN_DEFECTS = {
    "audit-scale": (
        "verify_disjoint uses absolute tolerances, so valid routes whose "
        "leaves are smaller than 1e-6 audit dirty"
    ),
    "pencil-wide-window": (
        "the pencil stored as h = -tanh t loses its zero slack to rounding, "
        "so it fails validation on windows reaching past |t| = 10"
    ),
    "large-t": (
        "t values whose scale exp(t L) overflows a float are not rejected "
        "as input errors (exit 1)"
    ),
}

#: Input sizes.  Every pass has at least 100 ops, so the 90th percentile
#: of the ops' latencies has at least 10 beyond it.
SIZES = {
    "audit_n": (61, 121, 241),
    "long_n": (1000, 4000),
    "long_draws": (2, 3),
    "steep_len": 100,
    "pencil_n": (4000, 1000),
    "lemma_pairs": 2000,
    "lemma_batches": 100,
}

#: Draws per kind of random route in route-audit.  (long-route takes
#: two per kind at its smaller size and three at its larger, which puts
#: the median op inside a cluster of like ops rather than in the gap
#: between two clusters, where it would jump from run to run.)
AUDIT_DRAWS = 2

WORKLOADS = ("route-audit", "long-route", "lemma-sweep")


@dataclass
class Op:
    """One timed call and the check of its result.

    ``check(expect, result)`` returns a failure reason or None; keeping
    the expectation a field lets a test plant a wrong one.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expect: Any
    defect: str | None = None


@dataclass
class Inputs:
    ops: list[Op]
    warmup: list[Op]
    digest: str
    sizes: dict


def build(workload: str, seed: int, tmp_dir: str) -> Inputs:
    """Generate a workload's inputs from its seed and serialise them."""
    if workload == "route-audit":
        return _route_audit(seed, SIZES)
    if workload == "long-route":
        return _long_route(seed, SIZES, tmp_dir)
    if workload == "lemma-sweep":
        return _lemma_sweep(seed, SIZES)
    raise ValueError(f"unknown workload {workload!r}")


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _rate_bound(tr: Transversal) -> float:
    return math.sin(tr.phi) if tr.kind == TransversalKind.HYPERCYCLE else 1.0


def _scale_defect(tr: Transversal, t_max: float) -> str | None:
    """The audit's absolute 1e-9 tolerances stop meaning anything once
    every leaf is smaller than 1e-6."""
    return "audit-scale" if t_max * _rate_bound(tr) < math.log(1e-6) else None


def _overlaps(t1: float, t2: float, window) -> bool:
    """A pair reaching into the window; reports round t to 12 digits."""
    eps = 1e-9 * max(1.0, abs(window[0]), abs(window[1]))
    return t1 <= window[1] + eps and window[0] - eps <= t2


# --------------------------------------------------------------------------
# route-audit: loads_route -> validate_c0 -> synthesize -> verify_disjoint


def _route_audit(seed: int, sizes: dict) -> Inputs:
    transversals = [Transversal.geodesic()] + [
        Transversal.hypercycle(phi) for phi in (0.5, 0.9, 1.1)
    ]
    docs = []  # (label, text, expect, defect)
    k = 0
    for tr in transversals:
        name = "geodesic" if tr.phi is None else f"phi={tr.phi}"
        for n in sizes["audit_n"]:
            for offset, _ in itertools.product((-40.0, 0.0, 40.0), range(AUDIT_DRAWS)):
                window = (-2.0 + offset, 2.0 + offset)
                draw = seed * 1000 + k
                k += 1
                defect = _scale_defect(tr, window[1])
                route = foliation.random_valid_route(tr, window=window, n=n, seed=draw)
                docs.append((
                    f"valid {name} n={n} t{offset:+g} #{draw}",
                    routes_io.dumps_document(routes_io.route_to_document(route)),
                    ("valid", None), defect,
                ))
                route, burst = foliation.perturbed_invalid_route(
                    tr, window=window, n=n, seed=draw
                )
                # The defect is valid routes auditing dirty; a perturbed
                # route must still fail, so its check stays untagged.
                docs.append((
                    f"perturbed {name} n={n} t{offset:+g} #{draw}",
                    routes_io.dumps_document(routes_io.route_to_document(route)),
                    ("invalid", burst), None,
                ))
    constant = routes_io.dumps_document(routes_io.validate_document({
        "transversal": {"kind": "geodesic"},
        "closed_form": {"name": "constant", "params": {"c": -0.3}},
        "window": [-30.0, -25.0],
    }))
    docs.append((
        "constant c=-0.3 on (-30,-25)", constant, ("valid", None),
        _scale_defect(Transversal.geodesic(), -25.0),
    ))

    ops = [
        Op(label, _audit_run(text), _audit_check, expect, defect)
        for label, text, expect, defect in docs
    ]
    samples = sum(_samples_of(text) for _, text, _, _ in docs)
    pairs = sum(n * (n - 1) // 2 for n in map(_samples_of, (d[1] for d in docs)))
    smallest = f"n={sizes['audit_n'][0]} "
    return Inputs(
        ops=ops,
        warmup=[op for op in ops if smallest in op.label],
        digest=_digest(d[1] for d in docs),
        sizes={"documents": len(docs), "samples": samples, "audit_pairs": pairs},
    )


def _samples_of(text: str) -> int:
    doc = json.loads(text)
    return len(doc["samples"]) if "samples" in doc else doc.get("n", 121)


def _audit_run(text: str):
    def run():
        route = routes_io.loads_route(text)
        verdict = validation.validate_c0(route)
        slice_ = foliation.synthesize(route, force=not verdict.valid)
        return verdict, foliation.verify_disjoint(slice_)

    return run


def _audit_check(expect, result) -> str | None:
    kind, burst = expect
    verdict, report = result
    flagged = len(report.intersecting) + len(report.tangent)
    if kind == "valid":
        if not verdict.valid:
            return f"valid route fails validation ({len(verdict.violations)} violations)"
        if not report.clean:
            return f"valid route audits dirty ({flagged} of {report.pair_count} pairs flagged)"
        return None
    if verdict.valid:
        return "perturbed route passes validation"
    if not any(_overlaps(c.t1, c.t2, burst) for c in report.intersecting):
        return f"no intersecting pair reaches the injected burst {burst}"
    return None


# --------------------------------------------------------------------------
# long-route: one in-process `umbilic` CLI call on a large document


_SUBCOMMANDS = ("validate", "validate-c1", "render", "leaves")
_EXTEND = 8


@dataclass
class _Doc:
    name: str
    text: str
    expect_rc: int  # 0 valid, 2 invalid, 1 rejected input
    n: int
    hypercycle: bool
    burst: tuple[float, float] | None = None  # injected over-steep window
    min_pair_violations: int = 0
    defect: str | None = None
    svg: str | None = None  # direct render_svg reference for valid documents


def _steep_route(tr, window, n, rng, start: int, m: int) -> validation.Route:
    """A route drawn in profile coordinates like ``random_valid_route``,
    with slopes L + 0.5 over the m steps from sample ``start``."""
    phi_eff = tr.phi if tr.kind == TransversalKind.HYPERCYCLE else math.pi / 2
    L = _rate_bound(tr)
    t = np.linspace(window[0], window[1], n)
    slopes = rng.uniform(-0.8 * L, L - 1e-3, n - 1)
    slopes[start:start + m] = L + 0.5
    g = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t)))) + rng.uniform(-1, 1)
    h = np.array([validation.profile_inverse(phi_eff, y) for y in g])
    return validation.Route(tr, t, h)


def _long_docs(seed: int, sizes: dict) -> list[_Doc]:
    window = (-4.0, 4.0)
    docs = []
    for n, phi, draws in zip(sizes["long_n"], (0.5, 1.1), sizes["long_draws"]):
        for tr, _ in itertools.product(
            (Transversal.geodesic(), Transversal.hypercycle(phi)), range(draws)
        ):
            tag = "geodesic" if tr.phi is None else f"phi={phi}"
            draw = seed * 1000 + len(docs)
            route = foliation.random_valid_route(tr, window=window, n=n, seed=draw)
            docs.append(_Doc(
                f"valid-{tag}-n{n}-{draw}",
                routes_io.dumps_document(routes_io.route_to_document(route)),
                0, n, tr.phi is not None,
            ))
            route, burst = foliation.perturbed_invalid_route(
                tr, window=window, n=n, seed=draw
            )
            docs.append(_Doc(
                f"perturbed-{tag}-n{n}-{draw}",
                routes_io.dumps_document(routes_io.route_to_document(route)),
                2, n, tr.phi is not None, burst=burst,
            ))
        # Every pair inside an over-steep run violates the growth bound,
        # so the verdict lists at least m(m+1)/2 pairs for m steep steps.
        m = sizes["steep_len"]
        rng = np.random.default_rng(seed * 1000 + len(docs))
        route = _steep_route(Transversal.hypercycle(0.9), window, n, rng, n // 2, m)
        docs.append(_Doc(
            f"steep-phi=0.9-n{n}",
            routes_io.dumps_document(routes_io.route_to_document(route)),
            2, n, True, min_pair_violations=m * (m + 1) // 2,
        ))
    for half, n in zip((3.0, 12.0), sizes["pencil_n"]):
        docs.append(_Doc(
            f"pencil-(-{half:g},{half:g})-n{n}",
            routes_io.dumps_document(routes_io.validate_document({
                "transversal": {"kind": "geodesic"},
                "closed_form": {"name": "pencil"},
                "window": [-half, half],
                "n": n,
            })),
            0, n, False,
            defect="pencil-wide-window" if half > 10.0 else None,
        ))
    n = sizes["long_n"][0]
    docs.append(_Doc(
        f"zero-horocycle-n{n}",
        routes_io.dumps_document({
            "transversal": {"kind": "horocycle", "height": 1.0},
            "samples": [{"t": float(t), "h": 0.0} for t in np.linspace(*window, n)],
        }),
        0, n, False,
    ))
    docs.append(_Doc(
        "large-t-800",
        routes_io.dumps_document({
            "transversal": {"kind": "geodesic"},
            "samples": [{"t": 800.0 + 0.25 * i, "h": 0.0} for i in range(5)],
        }),
        1, 5, False, defect="large-t",
    ))
    return docs


def _reference_svg(doc: _Doc) -> str | None:
    """What ``render --extend 8`` must write, built by direct calls.  The
    family is built with ``force`` so a valid route the validator wrongly
    rejects still has a reference."""
    try:
        route = routes_io.loads_route(doc.text)
        slice_ = foliation.synthesize(route, force=True)
        slice_ = foliation.extend_slice(slice_, _EXTEND, allow_noop=True)
        return render.render_svg(slice_, render.Viewport())
    except (GeometryError, OverflowError, ValueError):
        return None


def _long_route(seed: int, sizes: dict, tmp_dir: str) -> Inputs:
    docs = _long_docs(seed, sizes)
    for doc in docs:
        with open(os.path.join(tmp_dir, doc.name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(doc.text)
        if doc.expect_rc == 0:
            doc.svg = _reference_svg(doc)

    seen: dict[str, tuple[str, str | None]] = {}
    ops = []
    for doc in docs:
        path = os.path.join(tmp_dir, doc.name + ".json")
        for sub in _SUBCOMMANDS:
            svg_path = os.path.join(tmp_dir, doc.name + ".svg")
            argv = {
                "validate": ["validate", path],
                "validate-c1": ["validate", "--c1", path],
                "render": ["render", path, "--extend", str(_EXTEND), "--out", svg_path],
                "leaves": ["leaves", path],
            }[sub]
            ops.append(Op(
                f"{sub} {doc.name}",
                _cli_run(argv),
                _cli_check(doc, sub, svg_path, seen),
                doc.expect_rc,
                doc.defect,
            ))
    # Warm-up: every subcommand on the first document, then every
    # document read once through the O(n) `validate --c1`.
    per_doc = len(_SUBCOMMANDS)
    warmup = ops[:per_doc] + ops[per_doc + 1::per_doc]
    return Inputs(
        ops=ops,
        warmup=warmup,
        digest=_digest(d.text for d in docs),
        sizes={
            "documents": len(docs),
            "samples": sum(d.n for d in docs),
            "document_bytes": sum(len(d.text) for d in docs),
            "calls_per_pass": len(ops),
        },
    )


def _cli_run(argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return run


def _cli_check(doc: _Doc, sub: str, svg_path: str, seen: dict):
    """Check one CLI call.  The report is inspected in full the first time
    a call is made; later calls must print the same bytes."""
    key = f"{sub} {doc.name}"

    def check(expect_rc, result) -> str | None:
        rc, out = result
        if rc != expect_rc:
            return f"exit code {rc}, expected {expect_rc}"
        if sub == "render":
            reason = _check_svg(doc, svg_path, expect_rc)
            if reason:
                return reason
        digest = hashlib.sha256(out.encode()).hexdigest()
        if key not in seen:
            seen[key] = (digest, _check_output(doc, sub, rc, out))
        first_digest, reason = seen[key]
        if digest != first_digest:
            return "output differs from the first call"
        return reason

    return check


def _check_svg(doc: _Doc, svg_path: str, rc: int) -> str | None:
    if rc != 0:
        return "an SVG was written for a failing call" if os.path.exists(svg_path) else None
    try:
        with open(svg_path, "r", encoding="utf-8") as fh:
            svg = fh.read()
    except OSError:
        return "render wrote no SVG"
    os.remove(svg_path)  # a later call must write it afresh
    if svg != doc.svg:
        return "SVG differs from a direct render_svg call"
    return None


def _check_output(doc: _Doc, sub: str, rc: int, out: str) -> str | None:
    if rc == 1:
        return None
    if rc == 0 and sub == "render":
        leaves = doc.n + (2 * _EXTEND if doc.hypercycle else 0)
        if not out.endswith(f": {leaves} leaf paths\n"):
            return f"render summary wrong: {out.strip()!r}"
        return None
    if rc == 0 and sub == "leaves":
        rows = out.splitlines()[1:]
        ts = [float(r.split("\t")[1]) for r in rows]
        if len(rows) != doc.n or any(b <= a for a, b in zip(ts, ts[1:])):
            return f"leaf table has {len(rows)} rows, expected {doc.n} in t order"
        return None
    # validate, validate --c1, or the verdict printed by a failing build.
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "verdict report is not JSON"
    tol = validation.DEFAULT_TOL
    worst = report["worst_slack"]
    worst = float(worst) if isinstance(worst, (int, float, str)) else math.nan
    if rc == 0:
        if not report["valid"] or report["violations"] or worst < -tol:
            return "valid verdict with violations"
        return None
    if report["valid"] or not report["violations"] or not worst < -tol:
        return "invalid verdict without violations"
    if report["mode"] != "c0":
        return None
    pairs = [v for v in report["violations"] if v["kind"] == "pair"]
    if doc.burst and not any(_overlaps(v["t1"], v["t2"], doc.burst) for v in pairs):
        return f"no violating pair reaches the injected burst {doc.burst}"
    if len(pairs) < doc.min_pair_violations:
        return f"{len(pairs)} pair violations, expected at least {doc.min_pair_violations}"
    return None


# --------------------------------------------------------------------------
# lemma-sweep: predicate-versus-oracle agreement batches


def _lemma_sweep(seed: int, sizes: dict) -> Inputs:
    pairs = sizes["lemma_pairs"]
    ops = []
    for j in range(sizes["lemma_batches"]):
        family = ("geodesic", "hypercycle")[j % 2]
        draw = seed * 1000 + j
        ops.append(Op(f"{family} #{draw}", _lemma_run(family, pairs, draw), _lemma_check, pairs))
    return Inputs(
        ops=ops,
        warmup=ops[:2],
        digest=_digest(op.label for op in ops),
        sizes={"batches": len(ops), "pairs_per_batch": pairs, "pairs": pairs * len(ops)},
    )


def _lemma_run(family: str, pairs: int, draw: int):
    def run():
        return foliation.run_disjointness_agreement(family, n=pairs, seed=draw)

    return run


def _lemma_check(expect_total, stats) -> str | None:
    if stats.mismatches or stats.agreements != stats.compared:
        return f"{len(stats.mismatches)} predicate/oracle mismatches"
    if stats.total != expect_total:
        return f"{stats.total} pairs drawn, expected {expect_total}"
    if stats.compared + stats.skipped_margin + stats.skipped_tangent != stats.total:
        return "compared + skipped does not add up to the pairs drawn"
    return None
