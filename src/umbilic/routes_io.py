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

Every indented JSON text the package writes, documents here and reports in
``umbilic.cli``, goes through :func:`dumps_json`, which is byte-identical
to ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

from .errors import DomainError, RouteParseError
from .foliation import BUILTIN_FAMILIES, builtin_route
from .halfplane import Transversal, TransversalKind
from .validation import DEFAULT_TOL, Route, tol_limit

#: Most samples a closed-form document may ask for; bounds the arrays a
#: document can make the library allocate.
MAX_CLOSED_FORM_N = 10**6

_ROOT_KEYS = {"transversal", "closed_form", "samples", "window", "n", "tol"}
_TRANSVERSAL_KEYS = {"kind", "phi", "height"}
#: Each transversal kind's parameters, as name: (end, words), where the
#: value must lie in (0, end), as the words say; and the message that
#: refuses a parameter the kind does not take.
_TRANSVERSAL_PARAMS = {
    "geodesic": ({}, "not valid for the geodesic"),
    "hypercycle": ({"phi": (math.pi / 2, "lie in (0, pi/2)")}, "only valid for horocycles"),
    "horocycle": ({"height": (math.inf, "be positive")}, "only valid for hypercycles"),
}
_CLOSED_FORM_KEYS = {"name", "params"}
_SAMPLE_KEYS = {"t", "h", "dh"}
_PARAM_KEYS = {"c"}


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RouteParseError(f"expected a number, got {_echo(value)}", path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise RouteParseError(
            f"expected a finite number, got an integer literal of {_digits(value)} digits", path
        ) from None
    if not math.isfinite(number):
        raise RouteParseError(f"expected a finite number, got {value!r}", path)
    return number


#: Longest ``repr`` of a refused value that a message echoes in full.
_ECHO_LIMIT = 80


def _echo(value: Any) -> str:
    """``repr(value)``, or past ``_ECHO_LIMIT`` characters its start and
    the length of the string (or of the repr, for other values), so a
    refused value of any size gives a short message."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    size = f"a string of {len(value)}" if isinstance(value, str) else f"a repr of {len(text)}"
    return f"{text[:_ECHO_LIMIT]}... ({size} characters)"


def _digits(n: int) -> int:
    """The number of decimal digits of a nonzero integer, without writing
    it out (Python refuses to past 4 300 digits)."""
    n = abs(n)
    digits = int(n.bit_length() * math.log10(2))  # one short at most
    while 10**digits <= n:
        digits += 1
    return digits


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    """Refuse the first key of ``obj`` outside ``allowed`` at its path,
    which names a key past ``_ECHO_LIMIT`` characters by its start and
    its length."""
    for key in obj:
        if key not in allowed:
            key = str(key)
            if len(key) > _ECHO_LIMIT:
                key = f"{key[:_ECHO_LIMIT]}... (a key of {len(key)} characters)"
            raise RouteParseError("unknown field", f"{path}.{key}" if path else key)


def validate_document(doc: Any) -> dict:
    """Check a parsed JSON object against the schema and rebuild it in
    canonical form.  Raises :class:`RouteParseError` with a field path on
    the first problem found.

    The checks are ``_check_document``'s; a samples list comes back from
    it as float columns, and its rows are rebuilt from them here, one dict
    per sample, here alone: ``document_to_route`` reads the columns."""
    out = _check_document(doc)
    if "samples" in out:
        out["samples"] = _sample_rows(out["samples"])
    return out


def _check_document(doc: Any) -> dict:
    """The canonical document of ``doc``, except that its samples, if it
    has any, are ``_checked_samples``' columns; refusals as for
    ``validate_document``."""
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
                raise RouteParseError(f"expected an integer, got {_echo(n)}", "n")
            if n < 2:
                raise RouteParseError(f"need at least 2 samples, got {_echo(n)}", "n")
            if n > MAX_CLOSED_FORM_N:
                raise RouteParseError(
                    f"at most {MAX_CLOSED_FORM_N} samples, got {_echo(n)}", "n"
                )
            out["n"] = n
    else:
        for key in ("window", "n"):
            if key in doc:
                raise RouteParseError("only valid with closed_form", key)
        out["samples"] = _checked_samples(doc["samples"])
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
    if kind not in list(_TRANSVERSAL_PARAMS):  # a list, as a JSON kind may be unhashable
        raise RouteParseError(
            f"kind must be geodesic, hypercycle or horocycle, got {_echo(kind)}",
            "transversal.kind",
        )
    taken, refusal = _TRANSVERSAL_PARAMS[kind]
    out = {"kind": kind}
    for key, (end, words) in taken.items():
        path = f"transversal.{key}"
        if key not in obj:
            raise RouteParseError("missing field", path)
        out[key] = _require_number(obj[key], path)
        if not 0.0 < out[key] < end:
            raise RouteParseError(f"{key} must {words}, got {out[key]}", path)
    for key in ("phi", "height"):
        if key in obj and key not in taken:
            raise RouteParseError(refusal, f"transversal.{key}")
    return out


def _canon_closed_form(obj: Any) -> dict:
    if not isinstance(obj, dict):
        raise RouteParseError("must be an object", "closed_form")
    _reject_unknown(obj, _CLOSED_FORM_KEYS, "closed_form")
    name = obj.get("name")
    if name not in BUILTIN_FAMILIES:
        raise RouteParseError(
            f"unknown family {_echo(name)}; known: {', '.join(sorted(BUILTIN_FAMILIES))}",
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


_SAMPLE_FIELDS = {2: ("t", "h"), 3: ("t", "h", "dh")}


def _checked_samples(obj: Any) -> tuple[np.ndarray, ...]:
    """The t, h (and dh) columns of a samples list, checked column by
    column; a list the columns refuse goes through ``_walk_samples``,
    which names the first problem, so every message and path is the
    walker's."""
    if not isinstance(obj, list) or not obj:
        raise RouteParseError("must be a nonempty list", "samples")
    return _sample_columns(obj) or _walk_samples(obj)


def _sample_rows(columns: tuple[np.ndarray, ...]) -> list[dict]:
    """Canonical sample dicts from t, h (and dh) columns."""
    columns = [column.tolist() for column in columns]
    if len(columns) == 2:
        return [{"t": t, "h": h} for t, h in zip(*columns)]
    return [{"t": t, "h": h, "dh": dh} for t, h, dh in zip(*columns)]


def _sample_columns(items: list) -> tuple[np.ndarray, ...] | None:
    """The t, h (and dh) columns of a sample list the walker would accept,
    as contiguous float arrays, or None when any check fails: every item a
    dict with exactly the keys t, h or exactly t, h, dh; every value an
    int or a float, finite as a float; t strictly increasing over a finite
    span.  Type sets and numpy passes over one list per column, so O(n)
    with no per-sample Python code."""
    if set(map(type, items)) != {dict}:
        return None
    sizes = set(map(len, items))
    fields = _SAMPLE_FIELDS.get(sizes.pop()) if len(sizes) == 1 else None
    if fields is None:
        return None
    try:
        values = [list(map(itemgetter(key), items)) for key in fields]
    except KeyError:
        return None
    if not set(map(type, chain.from_iterable(values))) <= {float, int}:
        return None
    try:
        columns = tuple(np.fromiter(v, dtype=float, count=len(v)) for v in values)
    except OverflowError:  # an integer beyond the float range
        return None
    t = columns[0]
    if not all(np.isfinite(c).all() for c in columns) or not (t[1:] > t[:-1]).all():
        return None
    if not math.isfinite(float(t[-1]) - float(t[0])):
        return None
    return columns


def _walk_samples(obj: list) -> tuple[np.ndarray, ...]:
    """Check a nonempty samples list one sample at a time, raising on the
    first problem with its path; the t, h (and dh) columns of the checked
    values, as contiguous float arrays."""
    ts, hs, dhs = [], [], []
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
        ts.append(t)
        hs.append(h)
        if "dh" in item:
            dhs.append(_require_number(item["dh"], f"{path}.dh"))
    first, last = ts[0], ts[-1]
    if not math.isfinite(last - first):
        raise RouteParseError(
            f"t values must span a finite length, got {first} to {last}",
            f"samples[{len(ts) - 1}].t",
        )
    if len(dhs) not in (0, len(ts)):
        raise RouteParseError(
            "dh must be present on every sample or on none", "samples"
        )
    return tuple(np.array(c, dtype=float) for c in (ts, hs, dhs) if c)


def document_to_route(doc: Any) -> Route:
    """Build a Route from a parsed route document, through every check of
    ``validate_document`` (its order, messages and paths) and then
    ``tol < tol_limit``: ``loads_route``'s path once the text is parsed.
    The samples, if any, go to the Route as ``_check_document``'s
    columns."""
    ndoc = _check_document(doc)
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
        sampling = {key: ndoc[key] for key in ("window", "n") if key in ndoc}
        try:
            return builtin_route(
                cf["name"], transversal=transversal, tol=tol, **sampling, **cf.get("params", {})
            )
        except DomainError as exc:  # a family, level or window the closed form refuses
            raise RouteParseError(str(exc), "closed_form") from exc
    t, h, *dh = ndoc["samples"]
    return Route(transversal, t, h, dh=dh[0] if dh else None, tol=tol)


def route_to_document(route: Route) -> dict:
    """Serialize a Route as a canonical samples-form document."""
    tr: dict = {"kind": route.transversal.kind.value}
    if route.transversal.phi is not None:
        tr["phi"] = float(route.transversal.phi)
    if route.transversal.height is not None:
        tr["height"] = float(route.transversal.height)
    columns = (route.t, route.h) if route.dh is None else (route.t, route.h, route.dh)
    return {"transversal": tr, "samples": _sample_rows(columns), "tol": route.tol}


def row_template(fields: Iterable[str]) -> str:
    """The ``%``-template of one list item ``{field: value, ...}`` as
    ``json.dumps(indent=2)`` lays it out inside a top-level list, with
    ``%s`` in each value's place: a value's JSON text, or a finite float,
    whose ``str`` is the ``repr`` that ``json`` writes."""
    lines = ",\n".join(f"      {json.dumps(name)}: %s" for name in fields)
    return "    {\n" + lines + "\n    }"


def dumps_json(doc: dict, **bodies: Iterable[str]) -> str:
    """``json.dumps(doc, indent=2)``, with each top-level list named in
    ``bodies`` given as the pieces of its text: ``"".join(bodies[key])`` is
    what ``json`` writes for the list's items, each opening at four spaces'
    indent, with ``",\\n"`` between them.  ``doc[key]`` itself only holds
    the key's place (its value is ignored).

    The head is written by ``json.dumps``; each body is joined once and
    spliced in at its key.  So writing is O(size of the text), and the
    text is byte-identical whenever each body is the one ``json`` writes
    at that depth."""
    text = json.dumps({**doc, **dict.fromkeys(bodies, [])}, indent=2)
    for key, pieces in bodies.items():
        body = "".join(pieces)
        if body:
            # Only top-level keys start a line with two spaces, and json
            # escapes every newline inside a string, so the key is found once.
            marker = f"\n  {json.dumps(key)}: ["
            at = text.index(marker) + len(marker)
            text = f"{text[:at]}\n{body}\n  {text[at:]}"
    return text


#: Rows per chunk of ``template_rows``: bounds the Python numbers alive at
#: once whatever the table's size.
_ROW_CHUNK = 1 << 10


def template_rows(count: int, groups: Iterable[tuple]) -> list[str]:
    """``count`` text rows filled from ``(rows, template, columns)``
    groups, one template call per row: row ``rows[k]`` is ``template %``
    the k-th item of each column, a numpy array read ``_ROW_CHUNK`` rows
    at a time."""
    out = np.empty(count, dtype=object)
    for rows, template, columns in groups:
        for lo in range(0, rows.size, _ROW_CHUNK):
            part = slice(lo, lo + _ROW_CHUNK)
            items = zip(*(column[part].tolist() for column in columns))
            out[rows[part]] = list(map(template.__mod__, items))
    return out.tolist()


_SAMPLE_ROWS = {fields: row_template(fields) for fields in _SAMPLE_FIELDS.values()}


def dumps_document(doc: dict) -> str:
    """Canonical text form: fixed key order (as built), two-space indent.

    A ``samples`` list of finite floats under the canonical keys is written
    one template call per sample, since ``json`` writes a finite float as
    its ``repr``, and its rows are joined here; any other document is
    written by ``json.dumps`` alone."""
    samples = doc.get("samples")
    template = None
    if type(samples) is list and samples and set(map(type, samples)) == {dict}:
        fields = set(map(tuple, samples))
        template = _SAMPLE_ROWS.get(fields.pop()) if len(fields) == 1 else None
    if template is not None:
        rows = list(map(tuple, map(dict.values, samples)))
        if set(map(type, chain.from_iterable(rows))) == {float} and np.isfinite(rows).all():
            return dumps_json(doc, samples=[",\n".join(map(template.__mod__, rows))]) + "\n"
    return dumps_json(doc) + "\n"


#: Deepest nesting ``loads_route`` lets through to ``orjson``, which recurses
#: without a limit: 3.8 overflows the C stack somewhere between 10**5 and
#: 2 * 10**5 levels on an 8 MiB stack, and between 5 000 and 10**4 on a
#: 512 KiB thread stack.  An accepted document nests 3 deep.
_ORJSON_DEPTH = 64

_OBJECT_IN_OBJECT = re.compile(r":\s*\{")


def _nesting_bound(text: str) -> int:
    """An upper bound on how deep ``text`` nests, from two C-level scans.

    Below the top, each level is an array, an object that is an array's
    item (one per array on the way down) or an object that is an object's
    value, which follows a colon and whitespace.  So the depth is at most
    1 + 2 * (count of ``[``) + (count of ``:`` then ``{``), counting in
    strings too, which only raises the bound."""
    return 1 + 2 * text.count("[") + len(_OBJECT_IN_OBJECT.findall(text))


def loads_route(text: str) -> Route:
    """Parse route document text into a Route.

    The text is parsed by ``orjson`` and built by ``document_to_route``:
    the checks of ``validate_document``, but no canonical document.  A
    samples list goes straight to the ``Route``'s columns
    (``_sample_columns``), so a document of n samples costs one ``orjson``
    parse plus O(n) C-level type sets and numpy passes, with no dict or
    list per sample; a list the columns refuse is walked sample by sample
    (``_walk_samples``) to name its first problem.

    A text ``orjson`` refuses, or one that may nest too deep for it
    (``_nesting_bound``), and a document ``document_to_route`` refuses go
    through ``_json_loads_route`` instead, so every refusal is the stdlib
    parser's, with its message and path.  On a text both accept, the two
    parsers differ only on an integer literal outside [-2**63, 2**64),
    which ``orjson`` reads as its float: every number field but ``n`` is
    read as a float anyway, and ``n`` refuses a float, so both give the
    same Route."""
    import orjson  # here, so that a caller that reads no document skips its 7 ms import

    if _nesting_bound(text) <= _ORJSON_DEPTH:
        try:
            return document_to_route(orjson.loads(text))
        except (orjson.JSONDecodeError, RouteParseError):
            pass
    return _json_loads_route(text)


def _json_loads_route(text: str) -> Route:
    """``loads_route`` with the stdlib parser: ``json.loads``, then
    ``document_to_route``; text ``json`` refuses is a ``RouteParseError``
    with ``json``'s message."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RouteParseError(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise RouteParseError(f"JSON text not readable: {_without_advice(exc)}") from None
    return document_to_route(doc)


def _without_advice(exc: Exception) -> str:
    """The message of ``exc`` up to the advice that ends the integer digit
    limit's, to raise the limit with sys.set_int_max_str_digits(), which
    the author of a document or a command line cannot take."""
    return str(exc).partition("; use sys.set_int_max_str_digits()")[0]


def load_route(path: str) -> Route:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise RouteParseError(f"not UTF-8 text: {exc}") from None
    return loads_route(text)
