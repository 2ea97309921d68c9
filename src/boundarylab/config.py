"""JSON experiment configuration: validation and object construction.

Every record is validated against an explicit key schema before any
computation; unknown keys are rejected with the offending field named, so
typos never silently change an experiment.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import _FAMILIES, BoundaryGraph
from .modulus import constant, log_modulus, make_composite, power, table
from .pucci import EllipticityPair
from .solver import FixedOp, LaplaceOp, PucciOp

__all__ = [
    "load_config", "modulus_from_config", "graph_from_config",
    "operator_from_config", "ellipticity_from_config", "data_from_config",
]

SCHEMA_VERSION = 1


def _check_keys(rec: dict, where: str, required: set, optional: set = frozenset()):
    if not isinstance(rec, dict):
        raise ConfigError(f"{where}: expected an object, got {type(rec).__name__}")
    keys = set(rec)
    unknown = keys - required - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _finite(v, name) -> float:
    """v as a float; null, a boolean, a non-number or a non-finite value is a ConfigError."""
    # written so that NaN fails it; an int beyond the float range fails it too
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise ConfigError(f"{name}: expected a number, got {v!r}")
    return float(v)


def _positive(rec, key, where, default) -> float:
    """rec[key] read by _number, and positive."""
    v = _number(rec, key, where, default)
    if not v > 0:
        raise ConfigError(f"{where}.{key}: expected a positive number, got {v!r}")
    return v


def _number(rec, key, where, default) -> float:
    """rec[key] as a float, default when absent, checked by _finite."""
    return _finite(rec.get(key, default), f"{where}.{key}")


def _integer(rec, key, where, default) -> int:
    """rec[key] as an int, default when absent: any Python int, or a number
    with an integral value; anything else is a ConfigError."""
    v = rec.get(key, default)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if not _number(rec, key, where, default).is_integer():
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return int(v)


def _count(rec, key, where, default) -> int:
    """rec[key] read by _integer, and at least 1."""
    n = _integer(rec, key, where, default)
    if not n >= 1:
        raise ConfigError(f"{where}.{key}: expected a positive integer, got {n!r}")
    return n


def _floats(rec, where, *keys) -> dict:
    """Those keys that rec has, read by _number; an absent one takes the factory's default."""
    return {k: _number(rec, k, where, None) for k in keys if k in rec}


def _finites(rec, key, where) -> list:
    """rec[key], which must be a list, with each entry read by _finite."""
    raw = rec[key]
    if not isinstance(raw, list):
        raise ConfigError(f"{where}.{key}: expected a list of numbers, got {raw!r}")
    return [_finite(v, f"{where}.{key}[{i}]") for i, v in enumerate(raw)]


def _read_json(path, what: str, version: int) -> dict:
    """The JSON object at path, with schema_version == version; what names the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: root must be an object")
    v = raw.get("schema_version")
    # True == 1, so a boolean is refused by name
    if isinstance(v, bool) or v != version:
        raise ConfigError(f"{what}: schema_version {v!r} != {version}")
    return raw


def _non_finite(obj, where: str):
    """The field path and value of obj's first NaN or infinity in written
    (sorted-key) order, or None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return where, float(obj)
    items = (sorted(obj.items()) if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    found = (_non_finite(v, f"{where}[{k}]" if isinstance(k, int) else f"{where}.{k}".lstrip("."))
             for k, v in items)
    return next(filter(None, found), None)


def _write_json(path: Path, obj) -> None:
    """obj as JSON at path; a NaN or an infinity is a DomainError that names
    its field, raised before the file is opened."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        found = _non_finite(obj, "")
        if found is None:
            raise
        raise DomainError("%s: %s = %r is not JSON compliant" % (path.name, *found)) from None
    path.write_text(text + "\n")


def load_config(path) -> dict:
    """Read a config file and check the schema version field."""
    return _read_json(path, f"config {path}", SCHEMA_VERSION)


def modulus_from_config(rec, where: str = "modulus"):
    kind = rec.get("kind") if isinstance(rec, dict) else None
    if kind == "constant":
        _check_keys(rec, where, {"kind", "L"}, {"t0"})
        return constant(_number(rec, "L", where, None), **_floats(rec, where, "t0"))
    if kind == "power":
        _check_keys(rec, where, {"kind", "alpha"}, {"scale", "t0"})
        return power(_positive(rec, "alpha", where, None), **_floats(rec, where, "scale", "t0"))
    if kind == "log":
        _check_keys(rec, where, {"kind"}, {"c", "t0"})
        return log_modulus(**_floats(rec, where, "c", "t0"))
    if kind == "table":
        _check_keys(rec, where, {"kind", "ts", "values"}, {"t0"})
        return table(_finites(rec, "ts", where), _finites(rec, "values", where),
                     **_floats(rec, where, "t0"))
    if kind == "composite":
        _check_keys(rec, where, {"kind", "a", "b", "c", "omega1", "omega2"})
        return make_composite(
            _positive(rec, "a", where, None), _positive(rec, "b", where, None),
            _positive(rec, "c", where, None),
            modulus_from_config(rec["omega1"], where + ".omega1"),
            modulus_from_config(rec["omega2"], where + ".omega2"))
    raise ConfigError(f"{where}.kind: unknown modulus kind {kind!r}")


def graph_from_config(rec, where: str = "domain") -> BoundaryGraph:
    family = rec.get("family") if isinstance(rec, dict) else None
    if not (isinstance(family, str) and family in _FAMILIES):
        raise ConfigError(f"{where}.family: unknown family {family!r}")
    fam = _FAMILIES[family]
    _check_keys(rec, where, {"family"} | fam.required, {"dim", "chart_radius"} | fam.optional)
    kwargs = {k: rec[k] for k in fam.required | fam.optional if k in rec}
    if "omega" in kwargs:
        kwargs["omega"] = modulus_from_config(rec["omega"], where + ".omega")
    return BoundaryGraph(family, dim=_integer(rec, "dim", where, 2),
                         chart_radius=_number(rec, "chart_radius", where, 0.5), **kwargs)


def ellipticity_from_config(rec, where: str = "ellipticity") -> EllipticityPair:
    _check_keys(rec, where, {"lam", "Lam"})
    lam, Lam = _finite(rec["lam"], f"{where}.lam"), _finite(rec["Lam"], f"{where}.Lam")
    if not 0 < lam <= Lam:
        raise ConfigError(f"{where}: need numbers 0 < lam <= Lam, got {rec}")
    return EllipticityPair(lam, Lam)


def operator_from_config(rec, where: str = "operator"):
    kind = rec.get("kind") if isinstance(rec, dict) else None
    if kind == "laplace":
        _check_keys(rec, where, {"kind"})
        return LaplaceOp()
    if kind == "fixed":
        _check_keys(rec, where, {"kind", "A"}, {"ellipticity"})
        raw = rec["A"]
        if not (isinstance(raw, list) and len(raw) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in raw)):
            raise ConfigError(f"{where}.A: expected a symmetric 2x2 matrix")
        A = np.array([[_finite(v, f"{where}.A[{i}][{j}]") for j, v in enumerate(row)]
                      for i, row in enumerate(raw)])
        if not np.allclose(A, A.T):
            raise ConfigError(f"{where}.A: expected a symmetric 2x2 matrix")
        E = (ellipticity_from_config(rec["ellipticity"], where + ".ellipticity")
             if "ellipticity" in rec else None)
        # the constant (2, 2) matrix for every node array: one shared weight row
        return FixedOp(A=lambda x: A, E=E)
    if kind in ("pucci_minus", "pucci_plus"):
        _check_keys(rec, where, {"kind", "ellipticity"})
        E = ellipticity_from_config(rec["ellipticity"], where + ".ellipticity")
        return PucciOp(E, "minus" if kind == "pucci_minus" else "plus")
    raise ConfigError(f"{where}.kind: unknown operator kind {kind!r}")


def data_from_config(rec, dim: int, where: str):
    """Boundary/forcing data as a callable on (m, dim) point arrays.

    Forms: {"name": "zero"}, {"name": "constant", "value": v},
    {"name": "linear", "coeffs": [...], "offset": c} meaning
    offset + coeffs . x (length dim, so 2-D x_n data is coeffs=[0,1]).
    """
    name = rec.get("name") if isinstance(rec, dict) else None
    if name == "zero":
        _check_keys(rec, where, {"name"})
        return lambda p: np.zeros(len(np.atleast_2d(p)))
    if name == "constant":
        _check_keys(rec, where, {"name", "value"})
        v = _number(rec, "value", where, None)
        return lambda p: np.full(len(np.atleast_2d(p)), v)
    if name == "linear":
        _check_keys(rec, where, {"name", "coeffs"}, {"offset"})
        coeffs = np.array(_finites(rec, "coeffs", where))
        if len(coeffs) != dim:
            raise ConfigError(f"{where}.coeffs: expected {dim} numbers, one per coordinate, "
                              f"got {len(coeffs)}")
        off = _number(rec, "offset", where, 0.0)
        return lambda p: off + np.atleast_2d(p) @ coeffs
    raise ConfigError(f"{where}.name: unknown data form {name!r}")
