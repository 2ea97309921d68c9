import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from boundarylab import BoundaryGraph, DomainError, measure_boundary_modulus, power
from boundarylab.calibrate import (
    default_calibration_path, load_calibration, run_calibration, save_calibration,
)
from boundarylab import cli, harness
from boundarylab.cli import main
from boundarylab.geometry import _FAMILIES
from boundarylab.regdist import RegularizedDistanceField
from boundarylab.config import (
    ConfigError, data_from_config, ellipticity_from_config, graph_from_config,
    load_config, modulus_from_config, operator_from_config,
)


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


# ---------------------------------------------------------------- config


def test_load_config_schema_version(tmp_path):
    p = _write(tmp_path, "c.json", {"schema_version": 1, "r": 0.3})
    assert load_config(p)["r"] == 0.3
    bad = _write(tmp_path, "bad.json", {"schema_version": 2})
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_modulus_from_config_kinds():
    w = modulus_from_config({"kind": "power", "alpha": 0.5, "scale": 0.2})
    assert float(w(0.04)) == pytest.approx(0.04)
    comp = modulus_from_config({
        "kind": "composite", "a": 1.0, "b": 0.5, "c": 1.0,
        "omega1": {"kind": "power", "alpha": 1.0},
        "omega2": {"kind": "power", "alpha": 1.0}})
    assert float(comp(0.1)) > 0
    with pytest.raises(ConfigError):
        modulus_from_config({"kind": "power", "alpha": 0.5, "slope": 1.0})
    with pytest.raises(ConfigError):
        modulus_from_config({"kind": "gaussian"})


def test_unknown_key_error_names_the_field():
    with pytest.raises(ConfigError, match="omega1"):
        modulus_from_config({
            "kind": "composite", "a": 1.0, "b": 1.0, "c": 1.0,
            "omega1": {"kind": "power", "alpha": 1.0, "junk": 3},
            "omega2": {"kind": "power", "alpha": 1.0}})


def test_graph_from_config():
    g = graph_from_config({"family": "cone", "L": 0.1})
    assert g.dim == 2
    assert float(np.atleast_1d(g.gamma(np.array([[0.2]])))[0]) == pytest.approx(0.02)
    wide = graph_from_config({"family": "c1model", "sign": -1,
                              "omega": {"kind": "power", "alpha": 0.5, "scale": 0.2}})
    assert float(np.atleast_1d(wide.gamma(np.array([[0.1]])))[0]) < 0
    composite = graph_from_config({"family": "c1model", "omega": {
        "kind": "composite", "a": 0.05, "b": 0.4, "c": 1.0,
        "omega1": {"kind": "power", "alpha": 1.0, "scale": 0.05},
        "omega2": {"kind": "log", "c": 0.05}}})
    assert float(np.atleast_1d(composite.gamma(np.array([[0.1]])))[0]) > 0
    with pytest.raises(ConfigError):
        graph_from_config({"family": "cone"})          # missing L
    with pytest.raises(ConfigError):
        graph_from_config({"family": "zero", "sign": -1})


# one value for each parameter that geometry._FAMILIES names
_PARAMETER_VALUES = {
    "a": 0.1, "L": 0.1, "omega": {"kind": "power", "alpha": 0.5, "scale": 0.2},
    "A": 0.05, "k": 4, "ts": [-0.5, 0.0, 0.5], "values": [0.02, 0.01, 0.03],
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_graph_from_config_builds_every_family(family):
    fam = _FAMILIES[family]
    rec = {"family": family, **{k: _PARAMETER_VALUES[k] for k in fam.required}}
    g = graph_from_config(rec)
    assert (g.family, g.radial_kink, g.ray_affine, g.dilation_invariant) == (
        family, fam.radial_kink, fam.ray_affine, fam.dilation_invariant)
    # Gamma is affine on each ray from its kink on the cone alone
    assert fam.ray_affine == (family == "cone")
    assert g.gamma(0.0) == 0.0
    with pytest.raises(ConfigError, match=r"domain: unknown keys \['extra'\]"):
        graph_from_config({**rec, "extra": 1})


@pytest.mark.parametrize("L", ["steep", None])
def test_cli_rejects_a_parameter_that_is_not_a_number(tmp_path, capsys, L):
    cfg = _write(tmp_path, "c.json", {"schema_version": 1,
                                      "domain": {"family": "cone", "L": L}})
    assert main(["regdist-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: cone L must be a number, got {L!r}" in capsys.readouterr().err


# each used to pass: L true solved on a slope-1 cone and L "0.1" ran the
# check, A NaN and a [NaN] ended in the sampler's error, and L Infinity in a
# RuntimeWarning before "no interior grid nodes"
_FAMILY_CASES = {
    "solve-cone-L-true": ("solve", {"family": "cone", "L": True}, "cone L must be a number, got True"),
    "regdist-cone-L-string": ("regdist-check", {"family": "cone", "L": "0.1"},
                              "cone L must be a number, got '0.1'"),
    "regdist-sinusoid-A-nan": ("regdist-check", {"family": "sinusoid", "A": float("nan"), "k": 4},
                               "sinusoid A must be a number, got nan"),
    "regdist-linear-a-nan": ("regdist-check", {"family": "linear", "a": [float("nan")]},
                             "linear a must be numbers, got [nan]"),
    "solve-cone-L-inf": ("solve", {"family": "cone", "L": float("inf")},
                         "cone L must be a number, got inf"),
}


@pytest.mark.parametrize("case", sorted(_FAMILY_CASES))
def test_cli_rejects_a_family_parameter_that_is_not_a_finite_number(tmp_path, capsys, case):
    command, domain, message = _FAMILY_CASES[case]
    extra = {"operator": {"kind": "laplace"}, "n": 32} if command == "solve" else {"n_points": 5}
    cfg = _write(tmp_path, "c.json", {"schema_version": 1, "domain": domain, **extra})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["dim", "chart_radius"])
@pytest.mark.parametrize("value", [None, "3", True, float("nan"), float("inf")])
def test_cli_rejects_a_chart_key_that_is_not_a_number(tmp_path, capsys, key, value):
    cfg = _write(tmp_path, "c.json", {"schema_version": 1,
                                      "domain": {"family": "cone", "L": 0.1, key: value}})
    assert main(["regdist-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: domain.{key}: expected a number, got {value!r}" \
        in capsys.readouterr().err


_CONE = {"family": "cone", "L": 0.1}
_E = {"lam": 1.0, "Lam": 2.0}
# (command, config, the record that holds the key: the command itself for a
# top-level key, else the config key of the nested record, and the key)
_NUMBER_CASES = [
    ("growth", {"domain": _CONE}, "growth", "k_max"),
    ("growth", {"domain": _CONE}, "growth", "n_grid"),
    ("boundary-modulus", {"domain": _CONE}, "boundary-modulus", "k_max"),
    ("solve", {"domain": _CONE, "operator": {"kind": "laplace"}}, "solve", "n"),
    ("solve", {"domain": _CONE, "operator": {"kind": "laplace"}}, "solve", "r"),
    ("barrier-check", {"domain": _CONE, "ellipticity": _E}, "barrier-check", "r"),
    ("barrier-check", {"domain": _CONE, "ellipticity": _E}, "barrier-check", "n_points"),
    ("regdist-check", {"domain": _CONE}, "regdist-check", "r"),
    ("regdist-check", {"domain": _CONE}, "regdist-check", "n_points"),
    ("modulus-table", {"modulus": {"kind": "log"}}, "modulus-table", "n_points"),
    ("modulus-table", {"modulus": {"kind": "log"}}, "modulus-table", "t_min"),
    ("modulus-table", {"modulus": {"kind": "constant"}}, "modulus", "L"),
    ("modulus-table", {"modulus": {"kind": "constant", "L": 1.0}}, "modulus", "t0"),
    ("modulus-table", {"modulus": {"kind": "power", "alpha": 0.5}}, "modulus", "scale"),
    ("modulus-table", {"modulus": {"kind": "log"}}, "modulus", "c"),
    # the positive keys: each reads through the number check before its sign test
    ("modulus-table", {"modulus": {"kind": "power"}}, "modulus", "alpha"),
    ("modulus-table", {"modulus": {"kind": "composite", "b": 1.0, "c": 1.0,
                                   "omega1": {"kind": "power", "alpha": 1.0},
                                   "omega2": {"kind": "power", "alpha": 1.0}}},
     "modulus", "a"),
    ("barrier-check", {"domain": _CONE, "ellipticity": {"Lam": 2}}, "ellipticity", "lam"),
    ("barrier-check", {"domain": _CONE, "ellipticity": {"lam": 1}}, "ellipticity", "Lam"),
    ("solve", {"domain": _CONE, "operator": {"kind": "laplace"},
               "rhs": {"name": "constant"}}, "rhs", "value"),
    ("solve", {"domain": _CONE, "operator": {"kind": "laplace"},
               "dirichlet": {"name": "linear", "coeffs": [0, 1]}}, "dirichlet", "offset"),
]


def _run_with(tmp_path, command, cfg, record, key, value):
    """main's exit code on cfg with record.key set to value."""
    cfg = json.loads(json.dumps(cfg))
    (cfg if record == command else cfg[record])[key] = value
    path = _write(tmp_path, "c.json", {"schema_version": 1, **cfg})
    return main([command, "--config", str(path), "--out", str(tmp_path / "o")])


# JSON's true and false are not numbers, and its NaN and Infinity literals
# are not finite ones
@pytest.mark.parametrize("command, cfg, record, key", _NUMBER_CASES,
                         ids=[f"{c}-{rec}.{k}" for c, _, rec, k in _NUMBER_CASES])
@pytest.mark.parametrize("value", [None, [1], "5", True, False, float("nan"), float("inf"),
                                   -float("inf")])
def test_cli_rejects_a_number_key_that_is_not_a_number(tmp_path, capsys, command, cfg,
                                                       record, key, value):
    assert _run_with(tmp_path, command, cfg, record, key, value) == 2
    assert f"config error: {record}.{key}: expected a number, got {value!r}" \
        in capsys.readouterr().err


# the integer keys above, and a domain record's dim
_INTEGER_CASES = [case for case in _NUMBER_CASES
                  if case[3] in {"k_max", "n_grid", "n", "n_points"}] + [
    ("regdist-check", {"domain": _CONE}, "domain", "dim")]


@pytest.mark.parametrize("command, cfg, record, key", _INTEGER_CASES,
                         ids=[f"{c}-{rec}.{k}" for c, _, rec, k in _INTEGER_CASES])
def test_cli_rejects_an_integer_key_that_is_not_integral(tmp_path, capsys, command, cfg,
                                                         record, key):
    # 5.7 used to read 5
    assert _run_with(tmp_path, command, cfg, record, key, 5.7) == 2
    assert f"config error: {record}.{key}: expected an integer, got 5.7" \
        in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, "5", True, 5.7, float("nan"), [1]],
                         ids=["null", "string", "true", "5.7", "nan", "list"])
def test_cli_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys, value):
    # the config seed goes through the integer reader; its record is the subcommand
    assert _run_with(tmp_path, "modulus-table", {"modulus": {"kind": "log"}, "n_points": 3},
                     "modulus-table", "seed", value) == 2
    assert "config error: modulus-table.seed: expected a" in capsys.readouterr().err


def test_cli_accepts_any_integer_seed_and_an_integral_float(tmp_path):
    # a seed may exceed 2^53, and an integral float reads as its integer
    cfg = {"modulus": {"kind": "log"}, "n_points": 3.0}
    for seed in (2**70, -3, 5.0):
        assert _run_with(tmp_path, "modulus-table", cfg, "modulus-table", "seed", seed) == 0
    assert len((tmp_path / "o" / "modulus.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("coeffs", [[None, 1], [float("nan"), 1], [True, 1], [1, "0"], "01"],
                         ids=["null", "nan", "true", "string", "not-a-list"])
def test_cli_rejects_a_linear_coefficient_that_is_not_a_number(tmp_path, capsys, coeffs):
    # a null coefficient used to become NaN, and solve exited 0 with u = NaN
    cfg = {"domain": _CONE, "operator": {"kind": "laplace"}, "n": 32}
    data = {"name": "linear", "coeffs": [0, 1]}
    assert _run_with(tmp_path, "solve", {**cfg, "dirichlet": data}, "dirichlet", "coeffs",
                     coeffs) == 2
    assert "config error: dirichlet.coeffs" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [True, None, float("nan"), float("inf"), "1"],
                         ids=["true", "null", "nan", "inf", "string"])
def test_cli_rejects_a_fixed_matrix_entry_that_is_not_a_number(tmp_path, capsys, entry):
    # true used to read as 1, and a symmetric NaN or infinite entry passed the symmetry test
    cfg = {"domain": _CONE, "n": 32, "operator": {"kind": "fixed"}}
    assert _run_with(tmp_path, "solve", cfg, "operator", "A",
                     [[entry, 0], [0, 1]]) == 2
    assert f"config error: operator.A[0][0]: expected a number, got {entry!r}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("A", [5, [[1, 0], [0]], [[1, 0], [0, 1], [0, 0]], "11"],
                         ids=["number", "ragged", "3x2", "string"])
def test_cli_rejects_a_fixed_matrix_that_is_not_2x2(tmp_path, capsys, A):
    cfg = {"domain": _CONE, "n": 32, "operator": {"kind": "fixed"}}
    assert _run_with(tmp_path, "solve", cfg, "operator", "A", A) == 2
    assert "config error: operator.A: expected a symmetric 2x2 matrix" in capsys.readouterr().err


_POWER = {"kind": "power", "alpha": 0.5}
_CASCADE = {"domain": _CONE, "k_max": 2, "n_grid": 16}
# numbers out of their key's range: each used to end in an error that named
# no key (a bare numpy ValueError, after a RuntimeWarning for t_min -1) or,
# for t_min 5, in the modulus's domain error
_RANGE_CASES = {
    "r-negative": ("regdist-check", {"domain": _CONE, "n_points": 5}, "regdist-check", "r",
                   -0.3, "expected a positive number, got -0.3"),
    "n_points-negative": ("modulus-table", {"modulus": _POWER}, "modulus-table", "n_points",
                          -3, "expected a positive integer, got -3"),
    "t_min-negative": ("modulus-table", {"modulus": _POWER}, "modulus-table", "t_min",
                       -1, "expected a positive number, got -1.0"),
    "t_min-zero": ("modulus-table", {"modulus": _POWER}, "modulus-table", "t_min",
                   0, "expected a positive number, got 0.0"),
    "t_min-above-t0": ("modulus-table", {"modulus": _POWER}, "modulus-table", "t_min",
                       5, "expected a number below t0 = 1.0, got 5.0"),
    "g-coeffs-long": ("boundary-modulus", {**_CASCADE, "g": {"name": "linear", "coeffs": [0, 1]}},
                      "g", "coeffs", [1, 2, 3], "expected 2 numbers, one per coordinate, got 3"),
    "g-coeffs-short": ("boundary-modulus", {**_CASCADE, "g": {"name": "linear", "coeffs": [0, 1]}},
                       "g", "coeffs", [1], "expected 2 numbers, one per coordinate, got 1"),
    "dirichlet-coeffs-long": ("solve", {"domain": _CONE, "operator": {"kind": "laplace"}, "n": 32,
                                        "dirichlet": {"name": "linear", "coeffs": [0, 1]}},
                              "dirichlet", "coeffs", [0, 1, 2],
                              "expected 2 numbers, one per coordinate, got 3"),
}


@pytest.mark.parametrize("case", sorted(_RANGE_CASES))
def test_cli_rejects_a_number_out_of_its_range(tmp_path, capsys, case):
    command, cfg, record, key, value, message = _RANGE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_with(tmp_path, command, cfg, record, key, value) == 2
    assert capsys.readouterr().err == f"config error: {record}.{key}: {message}\n"


def test_cli_growth_names_its_omega_record(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"schema_version": 1, "domain": _CONE,
                                      "omega": {"kind": "bogus"}})
    assert main(["growth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: omega.kind: unknown modulus kind")


def test_operator_and_ellipticity_from_config():
    from boundarylab import LaplaceOp
    assert isinstance(operator_from_config({"kind": "laplace"}), LaplaceOp)
    op = operator_from_config({"kind": "pucci_minus",
                               "ellipticity": {"lam": 1.0, "Lam": 2.0}})
    assert op.E.Lam == 2.0
    with pytest.raises(ConfigError):
        ellipticity_from_config({"lam": -1.0, "Lam": 2.0})
    with pytest.raises(ConfigError):
        operator_from_config({"kind": "fixed", "A": [[1.0, 0.5], [0.4, 1.0]]})
    # a constant field returns its one matrix, which every node shares
    fixed = operator_from_config({"kind": "fixed", "A": [[1.0, 0.2], [0.2, 1.5]]})
    np.testing.assert_array_equal(fixed.A(np.zeros((5, 2))), [[1.0, 0.2], [0.2, 1.5]])


def test_data_from_config():
    f = data_from_config({"name": "linear", "coeffs": [0.0, 1.0], "offset": 2.0}, 2, "data")
    np.testing.assert_allclose(f(np.array([[0.3, 0.4]])), [2.4])
    f = data_from_config({"name": "linear", "coeffs": [1.0, 0.0, 1.0]}, 3, "data")
    np.testing.assert_allclose(f(np.array([[0.3, 0.4, 0.5]])), [0.8])
    with pytest.raises(ConfigError):
        data_from_config({"name": "quadratic"}, 2, "data")
    with pytest.raises(ConfigError, match="data.coeffs: expected 3 numbers"):
        data_from_config({"name": "linear", "coeffs": [0.0, 1.0]}, 3, "data")


# ------------------------------------------------------------ calibration


def test_calibration_roundtrip(tmp_path):
    cal = load_calibration()
    assert cal.schema_version == 2
    p = tmp_path / "cal.json"
    save_calibration(cal, p)
    assert load_calibration(p) == cal
    # corrupt files are rejected
    obj = json.loads(p.read_text())
    obj["extra_constant"] = 1.0
    p.write_text(json.dumps(obj))
    with pytest.raises(ConfigError):
        load_calibration(p)
    del obj["extra_constant"], obj["K_sandwich"]
    p.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=r"missing keys \['K_sandwich'\]"):
        load_calibration(p)


def test_cli_rejects_a_schema_1_calibration_file(tmp_path, capsys):
    # the schema-1 file carried A_recursion and C_abp, which nothing reads any more
    cal = _write(tmp_path, "cal.json", {
        "schema_version": 1, "A_recursion": 0.16151030936171373,
        "C0_barrier": 2.887937285839338, "C_abp": 0.03916325300623407,
        "C_envelope": 4.0, "C_regdist_2d": 3.738285423444542,
        "C_regdist_3d": 3.1722726662210876, "K_sandwich": 0.520415447025393})
    cfg = _write(tmp_path, "c.json", {"schema_version": 1, "domain": {"family": "zero"}})
    assert main(["regdist-check", "--config", str(cfg), "--calibration", str(cal),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error: calibration schema version 1 != 2" in capsys.readouterr().err


def test_cli_rejects_a_calibration_root_that_is_not_an_object(tmp_path, capsys):
    cal = _write(tmp_path, "cal.json", [1, 2])
    cfg = _write(tmp_path, "c.json", {"schema_version": 1, "domain": {"family": "zero"}})
    assert main(["regdist-check", "--config", str(cfg), "--calibration", str(cal),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: calibration file {cal}: root must be an object" \
        in capsys.readouterr().err


def test_calibration_values_positive():
    cal = load_calibration()
    for name in ("C_regdist_2d", "C_regdist_3d", "C0_barrier", "K_sandwich",
                 "C_envelope"):
        assert getattr(cal, name) > 0


def test_run_calibration_reproduces_the_packaged_constants():
    # the packaged file is `calibrate --seed 2026`; reruns agree to rounding
    packaged, fresh = asdict(load_calibration()), asdict(run_calibration(2026))
    assert fresh.keys() == packaged.keys()
    for name, value in packaged.items():
        assert fresh[name] == pytest.approx(value, rel=1e-9, abs=0), name


def test_packaged_calibration_is_what_calibrate_writes(tmp_path):
    # the packaged file is byte for byte the output of `calibrate --seed 2026`
    assert main(["calibrate", "--seed", "2026", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "calibration.json").read_bytes() == default_calibration_path().read_bytes()


# -------------------------------------------------------------------- cli


def test_cli_modulus_table(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "schema_version": 1, "n_points": 10,
        "modulus": {"kind": "power", "alpha": 0.5}})
    out = tmp_path / "out"
    assert main(["modulus-table", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "modulus.csv").read_text().splitlines()
    assert lines[0] == "t,omega,dini_to_t0"
    assert len(lines) == 11


def test_cli_modulus_table_composite(tmp_path):
    # the composite modulus has no closed-form Dini primitive: quadrature
    cfg = _write(tmp_path, "m.json", {
        "schema_version": 1, "n_points": 10,
        "modulus": {"kind": "composite", "a": 1.0, "b": 0.5, "c": 1.0,
                    "omega1": {"kind": "power", "alpha": 0.5},
                    "omega2": {"kind": "power", "alpha": 1.0}}})
    out = tmp_path / "out"
    assert main(["modulus-table", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "modulus.csv").read_text().splitlines()
    assert lines[0] == "t,omega,dini_to_t0"
    vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert vals.shape == (10, 3)
    assert np.all(np.isfinite(vals))


def test_cli_solve_and_determinism(tmp_path):
    cfg = _write(tmp_path, "s.json", {
        "schema_version": 1, "n": 32,
        "domain": {"family": "cone", "L": 0.1},
        "operator": {"kind": "laplace"},
        "dirichlet": {"name": "linear", "coeffs": [0.0, 1.0]}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    rep = json.loads((out1 / "solve_report.json").read_text())
    assert rep["certificate"]["monotone"]
    assert rep["abp"]["max_principle_exact"]


@pytest.mark.parametrize("operator", [{"kind": "laplace"},
                                      {"kind": "pucci_minus", "ellipticity": {"lam": 1, "Lam": 2}}])
def test_cli_solve_stencil_key_selects_nothing(tmp_path, capsys, operator):
    # the lattice directions follow from the operator: a schema-1 config's
    # "stencil": "wide" changes no output byte, and any other value, which
    # would run another scheme, is refused
    base = {"schema_version": 1, "n": 32, "operator": operator,
            "domain": {"family": "sinusoid", "A": 0.05, "k": 4.0},
            "rhs": {"name": "constant", "value": -1},
            "dirichlet": {"name": "linear", "coeffs": [0.3, 0.5], "offset": 0.1}}
    outs = []
    for name, extra in (("plain", {}), ("wide", {"stencil": "wide"})):
        cfg = _write(tmp_path, f"{name}.json", {**base, **extra})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert outs[0] == outs[1] and len(outs[0]) == 2
    for value in ("standard5", "wide9"):
        cfg = _write(tmp_path, "bad.json", {**base, "stencil": value})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: solve key 'stencil'")
        assert repr(value) in err and "follow from the operator" in err


def test_cli_pucci_growth_runs_the_full_policy_set(tmp_path, monkeypatch):
    # a Pucci cascade picks policies beyond the axis frame's four (lam I, the
    # two axis-aligned mixed matrices and Lam I, indices 0 to 3)
    policies = []
    real_solve = harness.solve

    def recorded(prob, system=None):
        sol = real_solve(prob, system=system)
        policies.append(sol.policy)
        return sol

    monkeypatch.setattr(harness, "solve", recorded)
    cfg = _write(tmp_path, "g.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "cone", "L": 0.2},
        "operator": {"kind": "pucci_minus", "ellipticity": {"lam": 1, "Lam": 2}}})
    assert main(["growth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(policies) == 4
    assert all(p.max() >= 4 for p in policies)


def test_cli_growth_flat(tmp_path):
    cfg = _write(tmp_path, "g.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "zero"},
        "outer_data": {"name": "linear", "coeffs": [0.0, 1.0]}})
    out = tmp_path / "out"
    assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "growth.csv").read_text().splitlines()
    assert rows[0] == "k,r,q,m"
    q = [float(r.split(",")[2]) for r in rows[1:]]
    np.testing.assert_allclose(q, 1.0, atol=1e-10)


def test_cli_growth_with_omega_writes_the_envelope_columns(tmp_path):
    cfg = _write(tmp_path, "g.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "zero"},
        "outer_data": {"name": "linear", "coeffs": [0.0, 1.0]},
        "omega": {"kind": "power", "alpha": 0.5, "scale": 0.2}})
    out = tmp_path / "out"
    assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "growth.csv").read_text().splitlines()
    assert rows[0] == "k,r,q,m,env_lower,env_upper"
    rep = json.loads((out / "growth_report.json").read_text())
    assert rep.keys() >= {"env_lower", "env_upper"}
    assert not rep.keys() & {"eps_seq", "c_seq"}


def test_cli_boundary_modulus_uses_the_exact_data_gradient(tmp_path):
    a, off = 0.123456789, 5.0
    cfg = _write(tmp_path, "bm.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "zero"},
        "g": {"name": "linear", "coeffs": [a, 0.0], "offset": off}})
    out = tmp_path / "out"
    assert main(["boundary-modulus", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "boundary_modulus_report.json").read_text())
    g = lambda p: off + np.atleast_2d(p) @ np.array([a, 0.0])
    want = measure_boundary_modulus(BoundaryGraph("zero"), k_max=4, n_grid=32, g=g,
                                    grad_g0=np.array([a]))
    assert rep["m"] == want.m.tolist()


@pytest.mark.parametrize("command", ["growth", "boundary-modulus"])
def test_cli_cascade_starts_on_the_chart_of_a_log_modulus_domain(tmp_path, command):
    # omega = 0.2 / log(1/t) lives on [0, 1/2), so the chart radius is 1/4
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "c1model", "omega": {"kind": "log", "c": 0.2}}})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "growth.csv").read_text().splitlines()
    assert float(rows[1].split(",")[1]) == 0.125


def test_cli_growth_sequences_line_up_with_a_chart_below_one_half(tmp_path):
    # the cascade starts on the chart radius 1/4, so r_1 = 1/8
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "c1model", "omega": {"kind": "log", "c": 0.2}}})
    out = tmp_path / "out"
    assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "growth_report.json").read_text())
    graph = graph_from_config({"family": "c1model", "omega": {"kind": "log", "c": 0.2}})
    assert rep["r"][0] == graph.working_radius / 2


def test_cli_boundary_modulus_evaluates_omega_tilde_at_each_radius(tmp_path):
    cfg = _write(tmp_path, "wt.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32, "domain": {"family": "zero"},
        "omega_tilde": {"kind": "power", "alpha": 0.5}})
    out = tmp_path / "out"
    assert main(["boundary-modulus", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "growth.csv").read_text().splitlines()
    assert rows[0] == "k,r,q,m,omega_tilde,ratio"
    _, r, _, m, wt, ratio = np.loadtxt(rows[1:], delimiter=",").T
    np.testing.assert_array_equal(wt, power(0.5)(r))
    np.testing.assert_array_equal(ratio, m * r / wt)


def test_cli_boundary_modulus_rejects_a_radius_outside_omega_tilde(tmp_path, capsys):
    # r_1 = 1/4 lies outside [0, 0.2), where omega_tilde has no value
    cfg = _write(tmp_path, "wt.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32, "domain": {"family": "zero"},
        "omega_tilde": {"kind": "power", "alpha": 0.5, "t0": 0.2}})
    assert main(["boundary-modulus", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "modulus of kind 'power' is defined on [0, 0.2)" in capsys.readouterr().err


def test_cli_barrier_check_pass(tmp_path):
    cfg = _write(tmp_path, "b.json", {
        "schema_version": 1, "n_points": 100,
        "domain": {"family": "cone", "L": 0.05},
        "ellipticity": {"lam": 1.0, "Lam": 1.0}})
    out = tmp_path / "out"
    assert main(["barrier-check", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "barrier_report.json").read_text())
    assert rep["reports"]["sub"]["pass"]
    assert rep["reports"]["super"]["pass"]


def test_cli_barrier_check_inverts_its_sample_once(tmp_path, monkeypatch):
    # the sub and the super check read one eval_all result
    sizes = []
    solve_d = RegularizedDistanceField._solve_d

    def counted(self, xp, yn):
        sizes.append(len(yn))
        return solve_d(self, xp, yn)

    monkeypatch.setattr(RegularizedDistanceField, "_solve_d", counted)
    cfg = _write(tmp_path, "b.json", {
        "schema_version": 1, "n_points": 40,
        "domain": {"family": "cone", "L": 0.05},
        "ellipticity": {"lam": 1.0, "Lam": 2.0}})
    out = tmp_path / "out"
    assert main(["barrier-check", "--config", str(cfg), "--out", str(out)]) == 0
    assert sizes == [40]
    rep = json.loads((out / "barrier_report.json").read_text())
    assert set(rep["reports"]) == {"sub", "super"}


def test_cli_exit_code_2_on_bad_config(tmp_path):
    cfg = _write(tmp_path, "bad.json", {
        "schema_version": 1,
        "domain": {"family": "cone", "L": 0.1},
        "ellipticity": {"lam": -1.0, "Lam": 2.0}})
    assert main(["barrier-check", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    unknown = _write(tmp_path, "u.json", {"schema_version": 1, "bogus": 1,
                                          "domain": {"family": "zero"}})
    assert main(["regdist-check", "--config", str(unknown),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_calibrate_takes_no_keys(tmp_path, capsys):
    # the 3-D regularized-distance constant is always measured
    cfg = _write(tmp_path, "cal.json", {"schema_version": 1, "include_3d": False})
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys for calibrate: ['include_3d']" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("regdist-check", {}),
    ("barrier-check", {"ellipticity": {"lam": 1.0, "Lam": 1.0}}),
])
def test_cli_exit_code_2_on_zero_points(tmp_path, command, extra):
    # an empty sample is bad input (exit 2), not a failed check (exit 1)
    cfg = _write(tmp_path, "z.json", {
        "schema_version": 1, "n_points": 0,
        "domain": {"family": "cone", "L": 0.1}, **extra})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_nonpositive_chart_radius_is_rejected(tmp_path):
    with pytest.raises(DomainError, match="chart radius"):
        BoundaryGraph("cone", L=0.1, chart_radius=0)
    domain = {"family": "cone", "L": 0.1, "chart_radius": -0.3}
    with pytest.raises(DomainError, match="chart radius"):
        graph_from_config(domain)
    cfg = _write(tmp_path, "c.json", {"schema_version": 1, "domain": domain})
    assert main(["regdist-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_regdist_check(tmp_path):
    cfg = _write(tmp_path, "r.json", {
        "schema_version": 1, "n_points": 100,
        "domain": {"family": "sinusoid", "A": 0.05, "k": 4.0}})
    out = tmp_path / "out"
    assert main(["regdist-check", "--config", str(cfg), "--out", str(out),
                 "--seed", "3"]) == 0
    rep = json.loads((out / "regdist_report.json").read_text())
    assert rep["pass"]
    lines = (out / "regdist.csv").read_text().splitlines()
    assert len(lines) == 101


def _per_value_csv(header, rows) -> bytes:
    """The writer that formatted each value on its own, kept as the byte reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % float(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_matches_the_per_value_formatter(tmp_path):
    rows = np.array([[-0.0, np.nan, np.inf], [5e-324, -np.inf, 1e300],
                     [0.1, 1.0 / 3.0, -2.0], [3.0, 1e-17, 123456789012345680.0]])
    for given in (rows, rows.tolist(), rows[:0]):
        cli._write_csv(tmp_path / "x.csv", ["a", "b", "c"], given)
        assert (tmp_path / "x.csv").read_bytes() == _per_value_csv(["a", "b", "c"], given)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_a_non_finite_value_and_writes_no_file(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(path, {"residual": value})
    assert not path.exists()


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"n": 32, "domain": {"family": "cone", "L": 0.1},
               "operator": {"kind": "laplace"},
               "dirichlet": {"name": "linear", "coeffs": [0.0, 1.0]}}),
    ("regdist-check", {"n_points": 20, "domain": {"family": "sinusoid", "A": 0.05, "k": 4.0}}),
    ("modulus-table", {"n_points": 10, "modulus": {"kind": "power", "alpha": 0.5}}),
    ("growth", {"k_max": 4, "n_grid": 32, "domain": {"family": "zero"},
                "outer_data": {"name": "linear", "coeffs": [0.0, 1.0]}}),
])
def test_cli_csv_bytes_match_the_per_value_formatter(tmp_path, monkeypatch, command, cfg):
    written = []
    write = cli._write_csv

    def recorded(path, header, rows):
        written.append((path, list(header), np.array(rows, dtype=float)))
        write(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    path = _write(tmp_path, "c.json", {"schema_version": 1, **cfg})
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(written) == 1
    out, header, rows = written[0]
    assert len(rows) > 0
    assert out.read_bytes() == _per_value_csv(header, rows)


# a small valid config of each command, and the values that replace one key at
# a time: each top-level key of the command, seed, and the domain's family
# parameter
_SWEEP_BASES = {
    "modulus-table": {"modulus": _POWER, "n_points": 3},
    "regdist-check": {"domain": _CONE, "n_points": 3},
    "barrier-check": {"domain": _CONE, "ellipticity": _E, "n_points": 3},
    "solve": {"domain": _CONE, "operator": {"kind": "laplace"}, "n": 32},
    "growth": {"domain": _CONE, "k_max": 4, "n_grid": 32},
    "boundary-modulus": {"domain": _CONE, "k_max": 4, "n_grid": 32},
    "calibrate": {},
}
_SWEEP_KEYS = [(command, key) for command in sorted(cli._COMMANDS)
               for key in sorted(cli._COMMANDS[command][1] | {"seed"})] + [
    (command, "domain.L") for command in sorted(_SWEEP_BASES) if "domain" in _SWEEP_BASES[command]]
_SWEEP_VALUES = {"null": None, "true": True, "list": [], "string": "5", "nan": float("nan"),
                 "inf": float("inf"), "minus-inf": -float("inf"), "minus-1": -1, "0": 0,
                 "5.7": 5.7}


def _no_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


@pytest.mark.parametrize("value", sorted(_SWEEP_VALUES))
@pytest.mark.parametrize("command, key", _SWEEP_KEYS, ids=[f"{c}-{k}" for c, k in _SWEEP_KEYS])
def test_cli_no_config_value_ends_in_a_traceback(tmp_path, capsys, command, key, value):
    cfg = json.loads(json.dumps(_SWEEP_BASES[command]))
    if key == "domain.L":
        cfg["domain"]["L"] = _SWEEP_VALUES[value]
    else:
        cfg[key] = _SWEEP_VALUES[value]
    path = _write(tmp_path, "c.json", {"schema_version": 1, **cfg})
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith(("config error:", "error:")), err
    else:
        assert code in (0, 1) and err == ""
        for f in out.glob("*.json"):
            json.loads(f.read_text(), parse_constant=_no_constant)
    if key == "domain.L" and value in ("true", "string"):
        assert code != 0
