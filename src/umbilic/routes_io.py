"""Route documents: JSON parsing, schema checks, canonical serialization.

A route document is a JSON object with a ``transversal`` stanza and
exactly one of:

* ``closed_form``: ``{"name": ..., "params": {...}}`` together with the
  top-level sampling controls ``window`` ([t0, t1]) and ``n``;
* ``samples``: a list of ``{"t": ..., "h": ..., "dh": ...}`` objects
  (``dh`` optional, but all-or-none across the list).

``tol`` may override the validation tolerance.  Unknown fields anywhere
are rejected with the offending field path.  Serialization is canonical:
fixed key order, shortest-repr floats, two-space indentation, so parsing
and re-serializing a valid document is idempotent.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import RouteParseError
from .foliation import BUILTIN_FAMILIES, builtin_route
from .halfplane import Transversal, TransversalKind
from .validation import DEFAULT_TOL, Route, tol_limit

#: Most samples a closed-form document may ask for; bounds the arrays a
#: document can make the library allocate.
MAX_CLOSED_FORM_N = 10**6

_ROOT_KEYS = {"transversal", "closed_form", "samples", "window", "n", "tol"}
_TRANSVERSAL_KEYS = {"kind", "phi", "height"}
_CLOSED_FORM_KEYS = {"name", "params"}
_SAMPLE_KEYS = {"t", "h", "dh"}
_PARAM_KEYS = {"c"}


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RouteParseError(f"expected a number, got {value!r}", path)
    if not math.isfinite(value):
        raise RouteParseError(f"expected a finite number, got {value!r}", path)
    return float(value)


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise RouteParseError(
                "unknown field", f"{path}.{key}" if path else key
            )


def validate_document(doc: Any) -> dict:
    """Check a parsed JSON object against the schema and rebuild it in
    canonical form.  Raises :class:`RouteParseError` with a field path on
    the first problem found."""
    if not isinstance(doc, dict):
        raise RouteParseError(f"route document must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, _ROOT_KEYS, "")
    if "transversal" not in doc:
        raise RouteParseError("missing field", "transversal")
    out: dict = {"transversal": _canon_transversal(doc["transversal"])}

    has_closed = "closed_form" in doc
    has_samples = "samples" in doc
    if has_closed == has_samples:
        raise RouteParseError(
            "exactly one of closed_form and samples is required"
        )
    if has_closed:
        out["closed_form"] = _canon_closed_form(doc["closed_form"])
        if "window" in doc:
            out["window"] = _canon_window(doc["window"])
        if "n" in doc:
            n = doc["n"]
            if isinstance(n, bool) or not isinstance(n, int):
                raise RouteParseError(f"expected an integer, got {n!r}", "n")
            if n < 2:
                raise RouteParseError(f"need at least 2 samples, got {n}", "n")
            if n > MAX_CLOSED_FORM_N:
                raise RouteParseError(
                    f"at most {MAX_CLOSED_FORM_N} samples, got {n}", "n"
                )
            out["n"] = n
    else:
        for key in ("window", "n"):
            if key in doc:
                raise RouteParseError("only valid with closed_form", key)
        out["samples"] = _canon_samples(doc["samples"])
    if "tol" in doc:
        tol = _require_number(doc["tol"], "tol")
        if not tol > 0:
            raise RouteParseError(f"tolerance must be positive, got {tol}", "tol")
        out["tol"] = tol
    return out


def _canon_transversal(obj: Any) -> dict:
    if not isinstance(obj, dict):
        raise RouteParseError("must be an object", "transversal")
    _reject_unknown(obj, _TRANSVERSAL_KEYS, "transversal")
    kind = obj.get("kind")
    if kind not in ("geodesic", "hypercycle", "horocycle"):
        raise RouteParseError(
            f"kind must be geodesic, hypercycle or horocycle, got {kind!r}",
            "transversal.kind",
        )
    out = {"kind": kind}
    if kind == "hypercycle":
        if "phi" not in obj:
            raise RouteParseError("missing field", "transversal.phi")
        phi = _require_number(obj["phi"], "transversal.phi")
        if not 0.0 < phi < math.pi / 2:
            raise RouteParseError(
                f"phi must lie in (0, pi/2), got {phi}", "transversal.phi"
            )
        out["phi"] = phi
        if "height" in obj:
            raise RouteParseError("only valid for horocycles", "transversal.height")
    elif kind == "horocycle":
        if "height" not in obj:
            raise RouteParseError("missing field", "transversal.height")
        height = _require_number(obj["height"], "transversal.height")
        if not height > 0:
            raise RouteParseError(
                f"height must be positive, got {height}", "transversal.height"
            )
        out["height"] = height
        if "phi" in obj:
            raise RouteParseError("only valid for hypercycles", "transversal.phi")
    else:
        for key in ("phi", "height"):
            if key in obj:
                raise RouteParseError(
                    "not valid for the geodesic", f"transversal.{key}"
                )
    return out


def _canon_closed_form(obj: Any) -> dict:
    if not isinstance(obj, dict):
        raise RouteParseError("must be an object", "closed_form")
    _reject_unknown(obj, _CLOSED_FORM_KEYS, "closed_form")
    name = obj.get("name")
    if name not in BUILTIN_FAMILIES:
        raise RouteParseError(
            f"unknown family {name!r}; known: {', '.join(sorted(BUILTIN_FAMILIES))}",
            "closed_form.name",
        )
    out = {"name": name}
    if "params" in obj:
        params = obj["params"]
        if not isinstance(params, dict):
            raise RouteParseError("must be an object", "closed_form.params")
        _reject_unknown(params, _PARAM_KEYS, "closed_form.params")
        out["params"] = {
            k: _require_number(v, f"closed_form.params.{k}")
            for k, v in sorted(params.items())
        }
    return out


def _canon_window(obj: Any) -> list:
    if not isinstance(obj, list) or len(obj) != 2:
        raise RouteParseError("must be a [t0, t1] pair", "window")
    t0 = _require_number(obj[0], "window[0]")
    t1 = _require_number(obj[1], "window[1]")
    if not t0 < t1:
        raise RouteParseError(f"window must be increasing, got [{t0}, {t1}]", "window")
    if not math.isfinite(t1 - t0):
        raise RouteParseError(f"window must span a finite length, got [{t0}, {t1}]", "window")
    return [t0, t1]


def _canon_samples(obj: Any) -> list:
    if not isinstance(obj, list) or not obj:
        raise RouteParseError("must be a nonempty list", "samples")
    out = []
    with_dh = 0
    prev_t = -math.inf
    for i, item in enumerate(obj):
        path = f"samples[{i}]"
        if not isinstance(item, dict):
            raise RouteParseError("must be an object", path)
        _reject_unknown(item, _SAMPLE_KEYS, path)
        for key in ("t", "h"):
            if key not in item:
                raise RouteParseError("missing field", f"{path}.{key}")
        t = _require_number(item["t"], f"{path}.t")
        h = _require_number(item["h"], f"{path}.h")
        if not t > prev_t:
            raise RouteParseError(
                f"t values must be strictly increasing, got {t} after {prev_t}",
                f"{path}.t",
            )
        prev_t = t
        entry = {"t": t, "h": h}
        if "dh" in item:
            entry["dh"] = _require_number(item["dh"], f"{path}.dh")
            with_dh += 1
        out.append(entry)
    first, last = out[0]["t"], out[-1]["t"]
    if not math.isfinite(last - first):
        raise RouteParseError(
            f"t values must span a finite length, got {first} to {last}",
            f"samples[{len(out) - 1}].t",
        )
    if with_dh not in (0, len(out)):
        raise RouteParseError(
            "dh must be present on every sample or on none", "samples"
        )
    return out


def document_to_route(ndoc: dict) -> Route:
    """Build a Route from a canonical document (see validate_document)."""
    tr = ndoc["transversal"]
    transversal = Transversal(
        TransversalKind(tr["kind"]),
        phi=tr.get("phi"),
        height=tr.get("height"),
    )
    tol = ndoc.get("tol", DEFAULT_TOL)
    limit = tol_limit(transversal)
    if not tol < limit:
        raise RouteParseError(
            f"tolerance must stay below the curvature bound {limit!r}, got {tol}", "tol"
        )
    if "closed_form" in ndoc:
        cf = ndoc["closed_form"]
        window = tuple(ndoc.get("window", (-3.0, 3.0)))
        n = ndoc.get("n", 121)
        return builtin_route(
            cf["name"],
            transversal=transversal,
            window=window,
            n=n,
            tol=tol,
            **cf.get("params", {}),
        )
    samples = ndoc["samples"]
    t = [s["t"] for s in samples]
    h = [s["h"] for s in samples]
    dh = [s["dh"] for s in samples] if "dh" in samples[0] else None
    return Route(transversal, t, h, dh=dh, tol=tol)


def route_to_document(route: Route) -> dict:
    """Serialize a Route as a canonical samples-form document."""
    tr: dict = {"kind": route.transversal.kind.value}
    if route.transversal.phi is not None:
        tr["phi"] = float(route.transversal.phi)
    if route.transversal.height is not None:
        tr["height"] = float(route.transversal.height)
    samples = []
    for i in range(route.n):
        entry = {"t": float(route.t[i]), "h": float(route.h[i])}
        if route.dh is not None:
            entry["dh"] = float(route.dh[i])
        samples.append(entry)
    return {"transversal": tr, "samples": samples, "tol": route.tol}


def dumps_document(doc: dict) -> str:
    """Canonical text form: fixed key order (as built), two-space indent."""
    return json.dumps(doc, indent=2) + "\n"


def loads_route(text: str) -> Route:
    """Parse route document text into a Route."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RouteParseError(f"not valid JSON: {exc}") from exc
    return document_to_route(validate_document(doc))


def load_route(path: str) -> Route:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_route(fh.read())
