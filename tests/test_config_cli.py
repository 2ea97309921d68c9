import json

import numpy as np
import pytest

from boundarylab import BoundaryGraph, DomainError, measure_boundary_modulus
from boundarylab.calibrate import (
    CalibrationConstants, load_calibration, run_calibration, save_calibration,
)
from boundarylab import cli
from boundarylab.cli import main
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
    with pytest.raises(ConfigError):
        graph_from_config({"family": "cone"})          # missing L
    with pytest.raises(ConfigError):
        graph_from_config({"family": "zero", "sign": -1})


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
    f = data_from_config({"name": "linear", "coeffs": [0.0, 1.0], "offset": 2.0})
    np.testing.assert_allclose(f(np.array([[0.3, 0.4]])), [2.4])
    with pytest.raises(ConfigError):
        data_from_config({"name": "quadratic"})


# ------------------------------------------------------------ calibration


def test_calibration_roundtrip(tmp_path):
    cal = load_calibration()
    assert cal.schema_version == 1
    p = tmp_path / "cal.json"
    save_calibration(cal, p)
    assert load_calibration(p) == cal
    # corrupt files are rejected
    obj = json.loads(p.read_text())
    obj["extra_constant"] = 1.0
    p.write_text(json.dumps(obj))
    with pytest.raises(ConfigError):
        load_calibration(p)


def test_calibration_values_positive():
    cal = load_calibration()
    for name in ("C_regdist_2d", "C_regdist_3d", "C0_barrier", "K_sandwich",
                 "C_envelope", "A_recursion", "C_abp"):
        assert getattr(cal, name) > 0


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


def test_cli_growth_flat(tmp_path):
    cfg = _write(tmp_path, "g.json", {
        "schema_version": 1, "k_max": 4, "n_grid": 32,
        "domain": {"family": "zero"},
        "outer_data": {"name": "linear", "coeffs": [0.0, 1.0]}})
    out = tmp_path / "out"
    assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "growth.csv").read_text().splitlines()
    assert rows[0].startswith("k,r,q,m")
    q = [float(r.split(",")[2]) for r in rows[1:]]
    np.testing.assert_allclose(q, 1.0, atol=1e-10)


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
