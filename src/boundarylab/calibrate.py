"""Empirical calibration of the constants the estimates assert to exist.

The statements guarantee constants C without numbers; tests need numbers.
Four constants are measured on families with closed-form oracles (flat,
linear, cone) and multiplied by a safety factor; C_envelope is stated.
All five are frozen into a JSON file shipped with the package, read and
written through config's JSON reader and writer, each constant checked
positive on reading.  Experiments read the frozen file so reruns never
silently drift.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .barriers import (EPS_CAP, check_special_solution_sandwich, minimal_passing_epsilon,
                       sample_domain_points)
from .config import _check_keys, _positive, _read_json, _write_json
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
    """Frozen constants, four measured and C_envelope stated; see run_calibration."""

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
    where = f"calibration file {p}"
    raw = _read_json(p, where, SCHEMA_VERSION)
    _check_keys(raw, where, set(CalibrationConstants.__dataclass_fields__))
    return CalibrationConstants(**{k: _positive(raw, k, where, None)
                                   for k in raw if k != "schema_version"})


def save_calibration(cal: CalibrationConstants, path) -> None:
    _write_json(Path(path), asdict(cal))


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
    """max ||phi_r - d|| / (r * seminorm) over cone slopes, x2 safety: the
    sandwich check's max_deviation on a 96-cell grid."""
    worst = 0.0
    r = 0.25
    for L in (0.05, 0.1):
        f = RegularizedDistanceField(BoundaryGraph("cone", L=L))
        # eps and K_hat enter the sandwich's pass flags, not its max_deviation
        rep = check_special_solution_sandwich(f, 0.0, r, 0.0, n=96)
        worst = max(worst, rep.max_deviation / (r * L))
    return 2.0 * worst


def run_calibration(seed: int) -> CalibrationConstants:
    """Measure four constants from scratch; deterministic given the seed."""
    C2 = _calibrate_regdist(2, seed)
    C3 = _calibrate_regdist(3, seed + 1)
    C0 = _calibrate_barrier(seed + 2)
    K = _calibrate_sandwich()
    return CalibrationConstants(
        C_regdist_2d=C2, C_regdist_3d=C3, C0_barrier=C0, K_sandwich=K,
        # stated, not measured: the floor 2 over the cone drift (gamma - 1) / L <= 0.72, doubled
        C_envelope=4.0,
    )
