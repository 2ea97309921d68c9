"""Report.to_dict against the hand-written encoder each report had before."""

import numpy as np
import pytest

from boundarylab import (
    Barrier, BoundaryGraph, EllipticityPair, GridProblem, LaplaceOp, abp_check,
    check_special_solution_sandwich, measure_boundary_modulus,
    measure_growth, power, sample_domain_points, solve, verify_barrier,
)
from boundarylab.regdist import RegularizedDistanceField, check_distance_bounds


def _distance_bounds_dict(rep):
    return {
        "pass": rep.passed,
        "ratio_dev": rep.ratio_dev,
        "grad_dev": rep.grad_dev,
        "hess_scale": rep.hess_scale,
        "flat_exact": rep.flat_exact,
        "C_hat": rep.C_hat,
        "n_samples": rep.n_samples,
    }


def _barrier_dict(rep):
    return {
        "pass": rep.passed,
        "min_value": rep.min_value,
        "argmin": list(map(float, rep.argmin)),
        "epsilon": rep.eps,
        "sign": rep.sign,
        "n_samples": rep.n_samples,
    }


def _sandwich_dict(rep):
    return {
        "pass": rep.passed,
        "lower_ok": rep.lower_ok,
        "upper_ok": rep.upper_ok,
        "closeness_ok": rep.closeness_ok,
        "worst_lower": rep.worst_lower,
        "worst_upper": rep.worst_upper,
        "max_deviation": rep.max_deviation,
        "deviation_bound": rep.deviation_bound,
        "n_nodes": rep.n_nodes,
        "slack": rep.slack,
    }


def _abp_dict(rep):
    return {
        "max_interior": rep.max_interior,
        "max_boundary": rep.max_boundary,
        "forcing_norm": rep.forcing_norm,
        "diameter": rep.diameter,
        "empirical_C": rep.bound_constant,
        "max_principle_exact": rep.max_principle_exact,
    }


def _growth_dict(rep):
    out = {
        "k": rep.ks.tolist(),
        "r": rep.radii.tolist(),
        "q": rep.q.tolist(),
        "m": rep.m.tolist(),
        "exponent": rep.exponent,
        "exponent_r2": rep.exponent_r2,
        "residuals": rep.residuals.tolist(),
    }
    for name in ("env_lower", "env_upper"):
        v = getattr(rep, name)
        if v is not None:
            out[name] = np.asarray(v).tolist()
    return out


def _distance_bounds():
    g = BoundaryGraph("cone", L=0.1)
    pts = sample_domain_points(g, 0.3, 20, np.random.default_rng(3))
    return check_distance_bounds(RegularizedDistanceField(g), pts, 5.0)


def _barrier():
    g = BoundaryGraph("cone", L=0.1)
    pts = sample_domain_points(g, 0.25, 20, np.random.default_rng(3))
    b = Barrier(field=RegularizedDistanceField(g), eps=0.3, sign="super",
                E=EllipticityPair(1.0, 2.0), r=0.25)
    return verify_barrier(b, pts)


def _sandwich():
    f = RegularizedDistanceField(BoundaryGraph("cone", L=0.1))
    return check_special_solution_sandwich(f, 0.2, 0.25, K_hat=8.0, n=48)


def _abp():
    g = BoundaryGraph("zero")
    return abp_check(solve(GridProblem(g, 0.5, 32, LaplaceOp(),
                                       lambda p: -np.ones(len(p)),
                                       lambda p: np.zeros(len(np.atleast_2d(p))))))


def _growth_with_every_sequence():
    return measure_growth(BoundaryGraph("cone", L=0.2), k_max=4, n_grid=32, omega=power(0.5))


def _growth_without_sequences():
    return measure_boundary_modulus(BoundaryGraph("cone", L=0.2), k_max=4, n_grid=32,
                                    g=lambda p: 0.1 + np.atleast_2d(p)[:, 0],
                                    grad_g0=[1.0])


@pytest.mark.parametrize("make, reference", [
    (_distance_bounds, _distance_bounds_dict),
    (_barrier, _barrier_dict),
    (_sandwich, _sandwich_dict),
    (_abp, _abp_dict),
    (_growth_with_every_sequence, _growth_dict),
    (_growth_without_sequences, _growth_dict),
], ids=["distance_bounds", "barrier", "sandwich", "abp", "growth_full", "growth_bare"])
def test_to_dict_matches_the_hand_written_encoder(make, reference):
    rep = make()
    got, want = rep.to_dict(), reference(rep)
    assert got == want
    assert list(got) == list(want)
