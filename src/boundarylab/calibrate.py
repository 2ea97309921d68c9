"""Empirical calibration of the constants the estimates assert to exist.

The statements guarantee constants C without numbers; tests need numbers.
Each constant is measured on families with closed-form oracles (flat,
linear, cone), multiplied by a safety factor, and frozen into a JSON file
shipped with the package.  Experiments read the frozen file so reruns
never silently drift.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .barriers import EPS_CAP, minimal_passing_epsilon, sample_domain_points, special_solution
from .config import _check_keys
from .errors import ConfigError
from .geometry import BoundaryGraph
from .pucci import EllipticityPair
from .regdist import RegularizedDistanceField, check_distance_bounds

__all__ = [
    "CalibrationConstants", "load_calibration", "save_calibration",
    "default_calibration_path", "run_calibration", "epsilon_for",
]

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CalibrationConstants:
    """Frozen empirical constants; see run_calibration for their origin."""

    C_regdist_2d: float     # distance-bound constant, n = 2
    C_regdist_3d: float     # distance-bound constant, n = 3
    C0_barrier: float       # eps = C0 * (Lam/lam) * seminorm passes barriers
    K_sandwich: float       # ||phi_r - d|| <= K r * seminorm
    C_envelope: float       # growth envelopes exp(+-C int omega ds/s)
    schema_version: int = SCHEMA_VERSION


def default_calibration_path() -> Path:
    return Path(resources.files("boundarylab").joinpath("data/calibration.json"))


def load_calibration(path=None) -> CalibrationConstants:
    p = Path(path) if path is not None else default_calibration_path()
    try:
        raw = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read calibration file {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"calibration file {p}: root must be an object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"calibration schema version {raw.get('schema_version')} != {SCHEMA_VERSION}"
        )
    _check_keys(raw, f"calibration file {p}", set(CalibrationConstants.__dataclass_fields__))
    return CalibrationConstants(**raw)


def save_calibration(cal: CalibrationConstants, path) -> None:
    Path(path).write_text(json.dumps(asdict(cal), indent=2, sort_keys=True) + "\n")


def epsilon_for(cal: CalibrationConstants, E: EllipticityPair, seminorm: float) -> float:
    """Barrier exponent selector: eps = C0 * (Lam/lam) * seminorm, capped."""
    return float(min(cal.C0_barrier * (E.Lam / E.lam) * seminorm, EPS_CAP))


def _calibrate_regdist(dim: int, seed: int) -> float:
    """Worst normalized deviation of the three distance bounds, x2 safety."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    fams = [("linear", {"a": 0.05} if dim == 2 else {"a": (0.03, 0.04)}),
            ("cone", {"L": 0.01}), ("cone", {"L": 0.05}), ("cone", {"L": 0.1})]
    for fam, kw in fams:
        g = BoundaryGraph(fam, dim=dim, **kw)
        f = RegularizedDistanceField(g)
        pts = sample_domain_points(g, 0.3, 400 if dim == 2 else 200, rng)
        rep = check_distance_bounds(f, pts, np.inf)
        worst = max(worst, rep.ratio_dev, rep.grad_dev, rep.hess_scale)
    return 2.0 * worst


def _calibrate_barrier(seed: int) -> float:
    """Slope of the minimal passing eps against the cone slope L (lam = Lam),
    x1.5 safety; the Lam/lam factor is applied at selection time."""
    rng = np.random.default_rng(seed)
    E = EllipticityPair(1.0, 1.0)
    Ls = np.array([0.02, 0.05, 0.08, 0.1])
    eps = []
    for L in Ls:
        g = BoundaryGraph("cone", L=float(L))
        f = RegularizedDistanceField(g)
        pts = sample_domain_points(g, 0.25, 300, rng)
        eps.append(minimal_passing_epsilon(f, E, 0.25, pts, "sub"))
    slope = float(Ls @ np.asarray(eps) / (Ls @ Ls))
    return 1.5 * slope


def _calibrate_sandwich() -> float:
    """max ||phi_r - d|| / (r * seminorm) over cone slopes, x2 safety, with
    phi_r the special solution on a 96-cell grid."""
    worst = 0.0
    r = 0.25
    for L in (0.05, 0.1):
        g = BoundaryGraph("cone", L=L)
        f = RegularizedDistanceField(g)
        sol = special_solution(f, r, 96)
        gap = sol.nodes[:, 1] - np.atleast_1d(g.gamma(sol.nodes[:, :1]))
        ok = gap > 2 * sol.h
        d = f.eval_d(sol.nodes[ok])
        dev = np.abs(sol.values[ok] - d).max()
        worst = max(worst, dev / (r * L))
    return 2.0 * worst


def _calibrate_envelope() -> float:
    """Smallest C with C ln 2 >= per-level drift of log q on the cone oracle,
    floored at 2 and doubled for safety."""
    need = 0.0
    for L in (0.1, 0.2):
        gamma = np.pi / (np.pi - 2.0 * np.arctan(L))
        # per-level drift (gamma - 1) ln 2 must be within C * L ln 2
        need = max(need, (gamma - 1.0) / L)
    return 2.0 * max(2.0, need)


def run_calibration(seed: int) -> CalibrationConstants:
    """Measure every constant from scratch; deterministic given the seed."""
    C2 = _calibrate_regdist(2, seed)
    C3 = _calibrate_regdist(3, seed + 1)
    C0 = _calibrate_barrier(seed + 2)
    K = _calibrate_sandwich()
    Cenv = _calibrate_envelope()
    return CalibrationConstants(
        C_regdist_2d=C2, C_regdist_3d=C3, C0_barrier=C0, K_sandwich=K,
        C_envelope=Cenv,
    )
