"""Operator spec files: a strict JSON schema describing one operator.

Schema (all fields shown; unknown fields are rejected):

    {
      "name": "right_shift",
      "bands": [{"offset": 1, "prefix": [[re, im], ...], "tail": [re, im]}],
      "rank_terms": [{"left": [[re, im], ...], "right": [[re, im], ...]}],
      "params": {"trunc": 256, "tol": 1e-8, "samples": 1024}
    }

Inputs must be canonical: no trailing prefix entry equal to the tail, no
trailing zeros in rank-term vectors, no all-zero rank-term vectors.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from .core import DiagonalDescriptor, FiniteRankTerm, StructuredOperator
from .errors import ParseError, ValidationError

BUNDLED = ("right_shift", "defect_shift", "nilpotent_head_shift",
           "diagonal_head_shift", "unitary_diag", "selfadjoint_band")

# each run parameter's kind and least value
_PARAM_KEYS = {"trunc": (int, 0), "tol": (float, 0.0), "samples": (int, 1)}


def _run_param(key: str, value):
    """``value`` as the run parameter ``key``: a finite number of at least
    its least value, integral for an integer parameter; else ValueError."""
    kind, least = _PARAM_KEYS[key]
    if not (least <= value <= sys.float_info.max and kind(value) == value):
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'finite and'}"
                         f" >= {least}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class OperatorSpec:
    """Parsed spec file: a named operator plus optional parameter overrides."""

    name: str
    operator: StructuredOperator
    params: dict = field(default_factory=dict)


def _complex_pair(value, where):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise ParseError(f"{where}: expected [re, im] pair, got {value!r}")
    z = complex(value[0], value[1])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{where}: non-finite entry {value!r}")
    return z


def _pair_list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of [re, im] pairs")
    return [_complex_pair(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _reject_unknown(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def parse_spec_text(text: str, source: str = "<string>") -> OperatorSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    _reject_unknown(doc, {"name", "bands", "rank_terms", "params"}, source)
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{source}: 'name' must be a non-empty string")
    # spectrum writes <name>_curve.csv into the working directory
    if "/" in name or "\\" in name or not name.isprintable():
        raise ValidationError(f"{source}: 'name' {name!r} is not a safe file name")

    bands = {}
    for i, entry in enumerate(doc.get("bands", [])):
        where = f"{source}: bands[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        _reject_unknown(entry, {"offset", "prefix", "tail"}, where)
        offset = entry.get("offset")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ParseError(f"{where}: 'offset' must be an integer")
        if offset in bands:
            raise ParseError(f"{where}: duplicate offset {offset}")
        prefix = _pair_list(entry.get("prefix", []), f"{where}.prefix")
        tail = _complex_pair(entry.get("tail", [0.0, 0.0]), f"{where}.tail")
        if prefix and prefix[-1] == tail:
            raise ValidationError(
                f"{where}: non-canonical prefix (trailing entry equals tail)")
        bands[offset] = DiagonalDescriptor(tuple(prefix), tail)

    terms = []
    for i, entry in enumerate(doc.get("rank_terms", [])):
        where = f"{source}: rank_terms[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        _reject_unknown(entry, {"left", "right"}, where)
        left = _pair_list(entry.get("left", []), f"{where}.left")
        right = _pair_list(entry.get("right", []), f"{where}.right")
        for label, vec in (("left", left), ("right", right)):
            if not vec or all(v == 0 for v in vec):
                raise ValidationError(f"{where}.{label}: all-zero vector")
            if vec[-1] == 0:
                raise ValidationError(f"{where}.{label}: non-canonical "
                                      "(trailing zero entry)")
        terms.append(FiniteRankTerm(tuple(left), tuple(right)))

    params = {}
    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise ParseError(f"{source}: 'params' must be an object")
    _reject_unknown(raw_params, _PARAM_KEYS, f"{source}: params")
    for key, value in raw_params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{source}: params.{key} must be numeric")
        try:
            params[key] = _run_param(key, value)
        except ValueError as exc:
            raise ValidationError(f"{source}: params.{exc}") from None

    return OperatorSpec(name, StructuredOperator(bands, tuple(terms)), params)


def parse_spec(path) -> OperatorSpec:
    """Load and validate one operator spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec_text(handle.read(), source=str(path))


def _pair(z) -> list:
    """A complex number as its JSON form, the pair [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def serialize_spec(spec: OperatorSpec) -> str:
    doc = {
        "name": spec.name,
        "bands": [{"offset": k, "prefix": [_pair(v) for v in d.prefix],
                   "tail": _pair(d.tail)}
                  for k, d in sorted(spec.operator.bands.items())],
        "rank_terms": [{"left": [_pair(v) for v in t.left],
                        "right": [_pair(v) for v in t.right]}
                       for t in spec.operator.rank_terms],
    }
    if spec.params:
        doc["params"] = dict(spec.params)
    return json.dumps(doc, indent=2)


def load_bundled(name: str) -> OperatorSpec:
    """Load one of the operator specs shipped with the package."""
    if name not in BUNDLED:
        raise ParseError(f"unknown bundled spec {name!r}; "
                         f"available: {', '.join(BUNDLED)}")
    text = resources.files("opspectra").joinpath(f"specs/{name}.json").read_text()
    return parse_spec_text(text, source=f"bundled:{name}")


def resolve_spec(ref: str) -> OperatorSpec:
    """Treat the reference as a path if it exists, else as a bundled name."""
    if os.path.exists(ref):
        return parse_spec(ref)
    return load_bundled(ref)
