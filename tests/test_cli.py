import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bosonic_ds.cli import main
from bosonic_ds.io import save_matrix
from bosonic_ds.symplectic import beam_splitter, two_mode_squeezer


def write_config(tmp_path, **overrides):
    cfg = {
        "state1": "vacuum",
        "state2": "vacuum",
        "theta": float(np.pi / 4),
        "cutoff": 10,
        "seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_ds_run_vacuum(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["epsilon"] <= 1e-8
    assert report["config"]["seed"] == 5
    assert report["n"] == 1


def test_ds_run_interference_pair(tmp_path):
    cfg = write_config(tmp_path, state1="fock:1", state2="fock:1", cutoff=6)
    out = tmp_path / "report.json"
    assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["epsilon"] > 0.5
    assert report["bound1"] is None


def test_ds_run_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, state1="thermal:0.3",
                       state2={"kind": "mixture", "components": [
                           {"weight": 0.8, "state": "vacuum"},
                           {"weight": 0.2, "state": "fock:2"}]},
                       cutoff=12)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["ds-run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["ds-run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ds_run_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, theta=0.3)
    out = tmp_path / "report.json"
    assert main(["ds-run", "--config", str(cfg), "--theta", "0.6",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["theta"] == pytest.approx(0.6)


def test_ds_run_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ds-run", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_ds_run_missing_key(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state1": "vacuum", "theta": 0.7}))
    assert main(["ds-run", "--config", str(path)]) == 1


def test_ds_run_trivial_theta(tmp_path, capsys):
    cfg = write_config(tmp_path, theta=0.0)
    assert main(["ds-run", "--config", str(cfg)]) == 1


def test_ds_run_bound_failure_exit_code(tmp_path, capsys):
    # shrinking the convention tolerances to nothing makes the identity
    # check fail on numerical noise, exercising the exit-2 path
    cfg = write_config(tmp_path, state1="thermal:0.3", cutoff=12,
                       tolerances={"convention_rel": 1e-300,
                                   "convention_abs": 1e-300})
    out = tmp_path / "report.json"
    assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert "invariant_failure" in report


def test_ds_run_rejects_nan_theta(tmp_path, capsys):
    cfg = write_config(tmp_path, theta="nan")
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "theta" in err
    assert len(err.strip().splitlines()) == 1


def test_ds_run_rejects_zero_mixture_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, state2={"kind": "mixture", "components": [
        {"weight": 0.0, "state": "vacuum"},
        {"weight": 0.0, "state": "fock:1"}]})
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mixture weights" in err
    assert len(err.strip().splitlines()) == 1


def test_witness_heavily_squeezed_low_cutoff(capsys):
    assert main(["witness", "--state", "squeezed:1.2", "--theta", "0.7",
                 "--cutoff", "8"]) == 0


@pytest.mark.parametrize("state1", [
    "squeezed:1000", "squeezed:inf", "squeezed:nan", "displaced:nan,0",
    "displaced:1e200,0",
    {"kind": "gaussian", "d": [0, 0], "gamma": [[float("nan"), 0], [0, 1]]},
], ids=["squeezed-1000", "squeezed-inf", "squeezed-nan", "displaced-nan",
        "displaced-1e200", "gaussian-nan-gamma"])
def test_non_finite_or_weightless_gaussian_is_one_error_line(tmp_path, capsys,
                                                             state1):
    cfg = write_config(tmp_path, state1=state1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ds-run", "--config", str(cfg)]) == 1
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "uncertainty" not in err


def test_ds_run_rejects_bad_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"uncertainty": -1.0})
    assert main(["ds-run", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_ds_run_rejects_non_finite_tolerance(tmp_path, capsys, value):
    # NaN <= 0 is False, so a NaN leak budget once switched the flags off
    cfg = write_config(tmp_path, tolerances={"leak_budget": value})
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: tolerance leak_budget must be finite and "
                   f"positive, got {value}\n")


def test_ds_run_names_unknown_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"bogus": 1.0})
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown tolerance 'bogus'")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key, value", [
    ("cutoff", 8.7), ("seed", 0.9), ("modes_per_arm", 1.5), ("seed", True),
    ("seed", "x"),
])
def test_ds_run_rejects_fractional_integer(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and repr(value) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("overrides, flags, message", [
    ({"seed": -1}, [], "seed must be non-negative, got -1"),
    ({}, ["--seed", "-3"], "seed must be non-negative, got -3"),
    ({"theta": "abc"}, [], "theta must be a number, got 'abc'"),
    ({"theta": None}, [], "theta must be a number, got None"),
], ids=["negative-seed", "negative-seed-flag", "string-theta", "null-theta"])
def test_ds_run_names_bad_seed_or_theta_before_building_inputs(
        tmp_path, capsys, monkeypatch, overrides, flags, message):
    import bosonic_ds.states

    def no_inputs(*args):
        raise AssertionError("inputs built before the config was checked")

    monkeypatch.setattr(bosonic_ds.states, "parse_state_spec", no_inputs)
    cfg = write_config(tmp_path, **overrides)
    assert main(["ds-run", "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_constants_single_row(capsys):
    assert main(["constants", "--theta-min", str(np.pi / 4),
                 "--theta-max", str(np.pi / 4), "--steps", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "theta,curve,c1,c2_shape,c3"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(2.0)
    assert "quoted" in captured.err


def test_constants_symmetry(tmp_path):
    out = tmp_path / "sweep.csv"
    theta = 0.4
    assert main(["constants", "--theta-min", str(theta),
                 "--theta-max", str(np.pi / 2 - theta), "--steps", "2",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    curve_a = float(rows[0].split(",")[1])
    curve_b = float(rows[1].split(",")[1])
    assert curve_a == pytest.approx(curve_b, abs=1e-12)


def test_constants_zero_steps(capsys):
    assert main(["constants", "--theta-min", "0.3", "--theta-max", "0.5",
                 "--steps", "0"]) == 1


@pytest.mark.parametrize("option, value, field", [
    ("--modes", "0", "modes"),
    ("--kappa", "-1", "kappa"),
    ("--kappa", "nan", "kappa"),
], ids=["zero-modes", "negative-kappa", "nan-kappa"])
def test_constants_rejects_meaningless_input(capsys, option, value, field):
    assert main(["constants", "--theta-min", "0.3", "--theta-max", "0.5",
                 "--steps", "2", option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error:") and field in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("low, high, message", [
    ("0.2", "0.1", "theta range is inverted: theta_min 0.2 is above theta_max 0.1"),
    ("0.3", "2", "theta range must lie inside (0, pi/2)"),
    ("0", "0.5", "theta range must lie inside (0, pi/2)"),
    ("nan", "0.5", "theta range must lie inside (0, pi/2)"),
], ids=["inverted", "above-pi-half", "zero", "nan"])
def test_constants_rejects_bad_theta_range(capsys, low, high, message):
    assert main(["constants", "--theta-min", low, "--theta-max", high,
                 "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_constants_refuses_steps_beyond_memory(capsys, monkeypatch):
    # a table of 10^12 rows cannot fit in 8 GiB: refused before the theta
    # grid is allocated
    import os

    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PHYS_PAGES": 2 ** 21, "SC_PAGE_SIZE": 4096}[name])

    def no_grid(*args, **kwargs):
        raise AssertionError("theta grid allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    assert main(["constants", "--theta-min", "0.3", "--theta-max", "0.5",
                 "--steps", str(10 ** 12)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: steps 1000000000000: a table of that many "
                            "rows does not fit in 8.0 GiB of physical memory\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_constants_rejects_overflowing_constants(capsys, fmt):
    # c1 and c3 scale with kappa: at 1e308 they overflow to inf, which the
    # table would print as null
    assert main(["constants", "--theta-min", "0.5", "--theta-max", "0.6",
                 "--steps", "1", "--modes", "2", "--kappa", "1e308",
                 "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: kappa 1e+308 at modes 2: c1 or c3 "
                            "overflows a double\n")


def test_constants_json_notes(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["constants", "--theta-min", "0.3", "--theta-max", "0.5",
                 "--steps", "2", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["notes"]["c1_prefactor_quoted_50_50"] == 46.2
    assert data["notes"]["c1_prefactor_direct_50_50"] == pytest.approx(51.0646,
                                                                       abs=1e-3)


def test_constants_rejects_modes_whose_pi_power_overflows(capsys):
    # c1 and c2 divide by pi ** modes, which is finite up to 620 modes
    args = ["constants", "--theta-min", "0.3", "--theta-max", "0.5", "--steps", "2"]
    assert main(args + ["--modes", "620"]) == 0
    capsys.readouterr()
    assert main(args + ["--modes", "621"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: modes must be <= 620, got 621\n"


def test_classify_identity(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(np.eye(4), path)
    assert main(["classify", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "local"


def test_classify_beam_splitter(tmp_path, capsys):
    path = tmp_path / "bs.json"
    save_matrix(beam_splitter(np.pi / 4, 1), path)
    assert main(["classify", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "beam_splitter_like"
    assert data["alpha"] == pytest.approx(1.0)


def test_classify_squeezer_witness(tmp_path, capsys):
    path = tmp_path / "sq.json"
    save_matrix(two_mode_squeezer(0.6), path)
    assert main(["classify", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "not_preserving"
    assert "witness_gamma" in data


def test_classify_missing_file(capsys):
    assert main(["classify", "--matrix", "/nonexistent/m.json"]) == 1


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    assert main(["classify", "--matrix", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read matrix")
    assert len(err.strip().splitlines()) == 1


TMS = two_mode_squeezer(0.3)


@pytest.mark.parametrize("overrides, message", [
    ({"state1": "displaced:3,0", "cutoff": 6}, "increase the cutoff"),
    ({"modes_per_arm": 2, "cutoff": 5,
      "state1": {"kind": "gaussian", "d": [0.0] * 4,
                 "gamma": (TMS @ TMS.T).tolist()}}, "increase the cutoff"),
    ({"modes_per_arm": 3, "cutoff": 6}, "GiB"),
], ids=["displaced-cutoff-6", "two-mode-squeezed-cutoff-5", "3-modes-per-arm"])
def test_ds_run_cutoff_or_size_failure_is_one_line(tmp_path, capsys, overrides,
                                                    message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", ["state1", "state2"])
def test_ds_run_gaussify_failure_names_the_input(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, cutoff=6, **{bad: "displaced:3,0"})
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} at cutoff 6: gaussified covariance")
    assert len(err.strip().splitlines()) == 1


def test_ds_run_preflight_counts_full_rank_working_set(tmp_path, capsys,
                                                       monkeypatch):
    # two full-rank Gaussians at 2 modes/arm, cutoff 6 (dim 1296) peak at
    # 8.1 dense complex matrices above the interpreter; with physical memory
    # at 8 of them the run must be refused when kappa's factor is counted
    import os

    dim, page = 6 ** 4, 4096
    pages = 8 * dim ** 2 * 16 // page
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page}[name])
    cfg = write_config(tmp_path, modes_per_arm=2, cutoff=6,
                       state1={"kind": "gaussian", "d": [0.0] * 4,
                               "gamma": np.diag([1.3, 1.3, 1.2, 1.2]).tolist()},
                       state2={"kind": "gaussian", "d": [0.0] * 4,
                               "gamma": np.diag([1.6, 1.6, 1.5, 1.5]).tolist()})
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 1296") and "GiB" in err
    assert len(err.strip().splitlines()) == 1


def test_witness_lines(capsys):
    assert main(["witness", "--state", "fock:1", "--theta", str(np.pi / 4),
                 "--cutoff", "8"]) == 0
    assert capsys.readouterr().out.startswith("non-gaussian")
    assert main(["witness", "--state", "thermal:0.5", "--theta", str(np.pi / 4),
                 "--cutoff", "12"]) == 0
    assert capsys.readouterr().out.startswith("gaussian")


@pytest.mark.parametrize("state, theta, named", [
    ("vacuum", "nan", "theta"),
    ("thermal:inf", "0.6", "density"),
], ids=["nan-theta", "infinite-thermal"])
def test_witness_rejects_non_finite_input(capsys, state, theta, named):
    assert main(["witness", "--state", state, "--theta", theta,
                 "--cutoff", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_witness_rejects_meaningless_tolerance(capsys, tol):
    # vacuum has epsilon 0, which no NaN or negative tolerance can classify
    assert main(["witness", "--state", "vacuum", "--theta", "0.6",
                 "--cutoff", "6", "--witness-tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--witness-tol" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_witness_trivial_angle(capsys):
    assert main(["witness", "--state", "vacuum", "--theta", "0.0"]) == 1
    assert "trivial splitter" in capsys.readouterr().err


def test_witness_warns_on_input_truncation_flags(capsys):
    # squeezed:3 has most of its mass above cutoff 8: one warning per flag
    assert main(["witness", "--state", "squeezed:3", "--theta", "0.6",
                 "--cutoff", "8"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "non-gaussian (epsilon=1.385868e+00)\n"
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("warning: truncation:") for line in lines)
    assert any(line.startswith("warning: truncation:synthesis:mass-deficit=")
               for line in lines)
    assert main(["witness", "--state", "fock:1", "--theta", "0.6",
                 "--cutoff", "8"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("state, cutoff", [("fock:7", 8), ("fock:1", 2)])
def test_witness_warns_on_input_leak(capsys, state, cutoff):
    # a number state on a top level is the named state itself, with no flag
    # of its own, but the splitter's truncation clips it: the same leak
    # check that ds-run applies to its inputs prints a warning
    assert main(["witness", "--state", state, "--theta", "0.7853981633974483",
                 "--cutoff", str(cutoff)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "gaussian (epsilon=0.000000e+00)\n"
    assert captured.err == "warning: truncation:input:leak=1.000e+00\n"


def test_witness_singular_husimi_matrix_is_one_error_line(capsys):
    assert main(["witness", "--state", "squeezed:20", "--theta", "0.6",
                 "--cutoff", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Husimi" in captured.err
    assert "singular in double precision" in captured.err
    assert "smallest eigenvalue is 4.248e-18" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert main(["witness", "--state", "squeezed:18", "--theta", "0.6",
                 "--cutoff", "8"]) == 0


def test_witness_squeezing_past_double_precision_is_rejected_monotonically(capsys):
    # q's I/2 floor is lost to rounding once eps |q| reaches it (z just
    # above 18): from there on every z exits 1, not only those where inv raises
    codes = {}
    for z in range(15, 41):
        codes[z] = main(["witness", "--state", f"squeezed:{z}", "--theta", "0.6",
                         "--cutoff", "8"])
        captured = capsys.readouterr()
        if codes[z] == 1:
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: Gaussian state's Husimi matrix")
            assert "smallest eigenvalue is" in captured.err
    first = min(z for z, code in codes.items() if code == 1)
    assert all(codes[z] == (0 if z < first else 1) for z in codes)
    assert codes[19] == codes[24] == codes[30] == 1


def test_witness_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--state", "fock:1", "--theta", "0.6", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_no_command_loads_scipy(tmp_path):
    # numpy is the only runtime dependency: every command, selftest included,
    # runs without importing scipy
    cfg = write_config(tmp_path, state2="fock:1", cutoff=6)
    matrix = tmp_path / "s.json"
    save_matrix(beam_splitter(0.3, 1), matrix)
    script = f"""
import sys
from bosonic_ds.cli import main
for argv in (["witness", "--state", "fock:1", "--theta", "0.6", "--cutoff", "8"],
             ["ds-run", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "r.json")!r}],
             ["constants", "--theta-min", "0.2", "--theta-max", "1.2", "--steps", "3"],
             ["classify", "--matrix", {str(matrix)!r}],
             ["selftest"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("state1", ["thermal:0.3", "squeezed:0.3"],
                         ids=["sectors", "dense"])
def test_ds_run_leaves_numpy_ma_unloaded(tmp_path, state1):
    # a fresh ds-run pays for no numpy.ma import: block_groups lists its
    # roots without np.unique, on either path; nor does it or a witness on
    # the same input import scipy, whose linalg import costs more than a
    # whole set-up (the splitter's SVD is numpy's)
    cfg = write_config(tmp_path, state1=state1, state2="thermal:0.2", theta=0.6,
                       cutoff=12, seed=0)
    script = f"""
import sys
from bosonic_ds.cli import main
assert main(["ds-run", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "r.json")!r}]) == 0
assert "numpy.ma" not in sys.modules
assert main(["witness", "--state", {state1!r}, "--theta", "0.6", "--cutoff", "12"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "bosonic_ds.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ds-run" in proc.stdout


def _parsed(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser`` on ``argv``; code None when
    it parses."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["ds-run", "--help"], ["ds-run"], ["ds-run", "--config", "c.json", "--seed", "x"],
    ["constants", "--help"], ["constants", "--theta-min", "0.1"],
    ["constants", "--theta-min", "0.1", "--theta-max", "1", "--steps", "2",
     "--format", "xml"],
    ["classify", "--help"], ["classify"],
    ["witness", "--help"], ["witness", "--state", "fock:1"],
    ["witness", "--state", "fock:1", "--theta", "0.6", "--seed", "3"],
    ["selftest", "--help"], ["selftest", "--verbose"],
], ids=lambda argv: " ".join(argv))
def test_one_command_parser_speaks_like_the_full_parser(argv, capsys):
    # built for the command alone, the parser prints the same help, usage
    # and errors, with the same exit code, as the parser of every command
    from bosonic_ds.cli import build_parser

    full = _parsed(build_parser(), argv, capsys)
    one = _parsed(build_parser(argv[0]), argv, capsys)
    assert one == full
    assert full[0] in (0, 2) and (full[1] or full[2])


@pytest.mark.parametrize("argv, message", [
    ([], "bosonic-ds: error: the following arguments are required: command"),
    (["ds-rum"], "bosonic-ds: error: argument command: invalid choice: "),
], ids=["no-command", "unknown-command"])
def test_no_or_unknown_command_exits_2(argv, message, capsys):
    # the full parser answers both, with its usage line and one error line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage == "usage: bosonic-ds [-h] {ds-run,constants,classify,witness,selftest} ..."
    assert error.startswith(message)


def test_one_command_parser_builds_one_subparser(capsys):
    # the parser built for witness knows no other command
    from bosonic_ds.cli import build_parser

    argv = ["ds-run", "--config", "c.json"]
    assert build_parser().parse_args(argv).command == "ds-run"
    code, _, err = _parsed(build_parser("witness"), argv, capsys)
    assert code == 2 and "invalid choice" in err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "all checks passed" in out


def test_selftest_catches_corrupted_fixture(tmp_path, monkeypatch, capsys):
    import shutil

    from bosonic_ds import states

    shutil.copytree(states.golden_dir(), tmp_path / "fixtures")
    corrupt = json.loads((tmp_path / "fixtures" / "fock1.json").read_text())
    corrupt["real"][1][1] = 0.25   # trace no longer 1
    (tmp_path / "fixtures" / "fock1.json").write_text(json.dumps(corrupt))
    monkeypatch.setattr(states, "golden_dir", lambda: tmp_path / "fixtures")
    assert main(["selftest"]) == 1
    assert "[FAIL] golden fixture integrity" in capsys.readouterr().out


def _size_check_must_come_first(monkeypatch):
    def build_input(*args, **kwargs):
        raise AssertionError("an input state was built before the size check")

    monkeypatch.setattr("bosonic_ds.states.parse_state_spec", build_input)


def test_ds_run_size_check_precedes_the_inputs(tmp_path, capsys, monkeypatch):
    _size_check_must_come_first(monkeypatch)
    cfg = write_config(tmp_path, cutoff=100000)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 10000000000 ") and "physical memory" in err
    assert len(err.strip().splitlines()) == 1


def test_witness_size_check_precedes_the_input(capsys, monkeypatch):
    _size_check_must_come_first(monkeypatch)
    assert main(["witness", "--state", "vacuum", "--theta", "0.6",
                 "--cutoff", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 10000000000 ") and "physical memory" in err
    assert len(err.strip().splitlines()) == 1


def _physical_memory_of(monkeypatch, mib):
    monkeypatch.setattr("bosonic_ds.stability._physical_memory", lambda: mib * 2 ** 20)


def test_each_pair_is_admitted_once(tmp_path, monkeypatch):
    # a ds-run validates its two inputs and scans their populations, a
    # witness its one input, passed as both; each builds the splitter once.
    # Both pass the sector-array guard twice (before the inputs are built,
    # then in the pair's constructor); the ds-run also counts kappa's factor
    from bosonic_ds import stability

    names = ("validate_density", "_number_populations", "_check_fits_memory",
             "beam_splitter_unitary")
    calls = dict.fromkeys(names, 0)

    def count(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(stability, name, count(name, getattr(stability, name)))
    cfg = write_config(tmp_path, state1="thermal:0.3", theta=0.6, cutoff=12, seed=0,
                       state2={"kind": "mixture", "components": [
                           {"weight": 0.9, "state": "vacuum"},
                           {"weight": 0.1, "state": "fock:1"}]})
    assert main(["ds-run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    assert calls == dict(zip(names, (2, 2, 3, 1)))
    calls.update(dict.fromkeys(names, 0))
    assert main(["witness", "--state", "thermal:0.3", "--theta", "0.6",
                 "--cutoff", "20"]) == 0
    assert calls == dict(zip(names, (1, 1, 2, 1)))


def test_number_diagonal_witness_counts_its_sector_arrays(tmp_path, capsys,
                                                          monkeypatch):
    # at cutoff 30 the dense count asks for 117 MB and the sector arrays for
    # 5 MB: with 32 MiB of memory the thermal witness runs, and so does a
    # displaced state, whose pure pair takes the Schmidt path and forms a
    # factor of one column; a mixture of the two takes the dense path, whose
    # factor of rank r counts 9 dim r complex entries, and is refused in one
    # line
    from bosonic_ds.fock import FockSpace
    from bosonic_ds.stability import _DENSE_MATRICES
    from bosonic_ds.states import displaced_vacuum, mixture, save_density, thermal_state

    assert _DENSE_MATRICES * 900 ** 2 * 16 > 32 * 2 ** 20
    _physical_memory_of(monkeypatch, 32)
    assert main(["witness", "--state", "thermal:0.3", "--theta", "0.6",
                 "--cutoff", "30"]) == 0
    assert capsys.readouterr().out.startswith("gaussian")
    assert main(["witness", "--state", "displaced:0.5,0.3", "--theta", "0.6",
                 "--cutoff", "30"]) == 0
    assert capsys.readouterr().out.startswith("gaussian")
    space = FockSpace(1, 30)
    density = tmp_path / "mixed.json"
    save_density(mixture([(0.5, displaced_vacuum(space, np.array([0.5, 0.3]))),
                          (0.5, thermal_state(space, 0.3))]), density)
    assert main(["witness", "--state", f"file:{density}", "--theta", "0.6",
                 "--cutoff", "30"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 900 ") and "GiB of dense matrices" in err
    assert len(err.strip().splitlines()) == 1


def test_ds_run_on_number_diagonal_inputs_counts_dense_matrices(tmp_path, capsys,
                                                                 monkeypatch):
    _physical_memory_of(monkeypatch, 32)
    cfg = write_config(tmp_path, state1="thermal:0.3", state2="thermal:0.2", cutoff=30)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 900 ") and "GiB of dense matrices" in err


def test_pure_witness_counts_its_one_column_factor(capsys, monkeypatch):
    # a displaced state's pure pair takes the Schmidt path: its factor is one
    # column and it forms no dim x dim array, so at cutoff 100 (dim 10^4) it
    # runs in 1 GiB, where a dense count would ask for 13.4 GiB
    _physical_memory_of(monkeypatch, 1024)
    assert main(["witness", "--state", "displaced:0.5,0.3", "--theta", "0.6",
                 "--cutoff", "100"]) == 0
    assert capsys.readouterr().out.startswith("gaussian")


def test_low_rank_two_mode_ds_run_counts_its_factor(tmp_path, monkeypatch):
    # a rank-2 mixture with the vacuum at 2 modes/arm, cutoff 8 (dim 4096):
    # kappa's factor has 2 columns, so the run fits in 1 GiB, where 9 dense
    # dim x dim matrices would ask for 2.25 GiB; the photon sits on the first
    # mode and the second mode pair holds the vacuum, so epsilon is that of
    # the one-mode pair
    _physical_memory_of(monkeypatch, 1024)
    reports = []
    for modes, fock in ((2, "fock:1,0"), (1, "fock:1")):
        cfg = write_config(tmp_path, theta=0.6, cutoff=8, seed=0, modes_per_arm=modes,
                           state1={"kind": "mixture", "components": [
                               {"weight": 0.9, "state": "vacuum"},
                               {"weight": 0.1, "state": fock}]})
        out = tmp_path / f"report-{modes}.json"
        assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[1]["epsilon"] == pytest.approx(0.0975473928855757, rel=1e-12)
    assert reports[0]["epsilon"] == pytest.approx(reports[1]["epsilon"], rel=1e-12)


@pytest.mark.parametrize("out", [5, ["a"]], ids=["number", "list"])
def test_ds_run_refuses_an_out_that_is_not_a_path(tmp_path, capsys, monkeypatch, out):
    _size_check_must_come_first(monkeypatch)
    cfg = write_config(tmp_path, out=out)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out must be a path string, got {out!r}\n"


def test_witness_refuses_a_huge_cutoff_by_its_sector_arrays(capsys, monkeypatch):
    _size_check_must_come_first(monkeypatch)
    assert main(["witness", "--state", "thermal:0.3", "--theta", "0.6",
                 "--cutoff", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 10000000000 ") and "of sector arrays" in err
    assert len(err.strip().splitlines()) == 1


def test_size_check_of_an_astronomical_pair_is_one_line(tmp_path, capsys):
    # the bytes needed overflow a float; the message must still be one line
    cfg = write_config(tmp_path, modes_per_arm=300, cutoff=2)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim ") and "inf GiB" in err
    assert len(err.strip().splitlines()) == 1


def test_size_check_of_a_huge_pair_prints_a_short_need(tmp_path, capsys):
    # the 2^724 bytes of sector arrays still fit a float; the GiB figure
    # must not print in full
    cfg = write_config(tmp_path, modes_per_arm=200, cutoff=2)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 2^400 ")
    assert "6.13e+208 GiB of sector arrays" in err
    assert len(err.strip().splitlines()) == 1 and len(err) < 200


def test_size_check_names_a_pair_dim_too_long_to_print(tmp_path, capsys):
    # 2^16000 has more digits than Python converts to a string by default
    cfg = write_config(tmp_path, modes_per_arm=8000, cutoff=2)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair dim 2^16000 (8000 modes per arm, cutoff 2)")
    assert len(err.strip().splitlines()) == 1


def test_malformed_state_spec_names_the_spec(tmp_path, capsys):
    assert main(["witness", "--state", "fock:a", "--theta", "0.6"]) == 1
    assert capsys.readouterr().err == (
        "error: state spec 'fock:a': invalid literal for int() with base 10: 'a'\n")
    cfg = write_config(tmp_path, state2="thermal:abc")
    assert main(["ds-run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: state spec 'thermal:abc': could not convert string to float: 'abc'\n")


@pytest.mark.parametrize("overrides, message", [
    ({"state1": "displaced:1"},
     "state spec 'displaced:1': needs 2 components (q, p per mode), got 1"),
    ({"state1": {"kind": "gaussian", "d": "x", "gamma": [[1, 0], [0, 1]]}},
     "gaussian spec key 'd': could not convert string to float: 'x'"),
    ({"state2": {"kind": "mixture", "components": [
        {"weight": "a", "state": "vacuum"}]}},
     "mixture spec key 'weight': could not convert string to float: 'a'"),
    ({"tolerances": {"leak_budget": "x"}},
     "tolerance leak_budget must be finite and positive, got 'x'"),
    ({"state1": {"kind": "gaussian", "d": [1], "gamma": [[1, 0], [0, 1]]}},
     "gaussian spec keys 'd' and 'gamma': incompatible moment shapes "
     "d:(1,) gamma:(2, 2)"),
    ({"state1": {"kind": "gaussian", "d": [0] * 4, "gamma": np.eye(4).tolist()}},
     "gaussian spec keys 'd' and 'gamma': 2 modes, the space has 1"),
    ({"state2": {"kind": "mixture", "components": ["vacuum", "fock:1"]}},
     "mixture spec key 'components' must be a list of objects with 'weight' "
     "and 'state', got ['vacuum', 'fock:1']"),
    ({"state2": {"kind": "mixture", "components": {"a": 1}}},
     "mixture spec key 'components' must be a list of objects with 'weight' "
     "and 'state', got {'a': 1}"),
    ({"state1": "fock:50"}, "state spec 'fock:50': levels (50,) outside cutoff 10"),
    ({"state1": "fock:1,1"}, "state spec 'fock:1,1': need 1 level entries, got (1, 1)"),
    ({"modes_per_arm": 2, "cutoff": 3, "state1": "thermal:0.3"},
     "state spec 'thermal:0.3': a one-mode state, the space has 2 modes"),
    ({"modes_per_arm": 2, "cutoff": 3, "state2": "squeezed:0.3"},
     "state spec 'squeezed:0.3': a one-mode state, the space has 2 modes"),
    ({"state1": {"kind": "gaussian", "gamma": [[1, 0], [0, 1]]}},
     "gaussian spec is missing key 'd'"),
    ({"state1": {"kind": "file"}}, "file spec is missing key 'path'"),
    ({"state2": {"kind": "mixture", "components": [
        {"weight": True, "state": "vacuum"}]}},
     "mixture spec key 'weight': must be a number, got True"),
    ({"state1": {"kind": "gaussian", "d": [True, False], "gamma": [[1, 0], [0, 1]]}},
     "gaussian spec key 'd': must hold numbers, got [True, False]"),
    ({"tolerances": {"leak_budget": True}},
     "tolerance leak_budget must be finite and positive, got True"),
    # a JSON string is not a number, even when float() or int() reads it
    ({"theta": "0.6"}, "theta must be a number, got '0.6'"),
    ({"cutoff": "8"}, "cutoff must be an integer, got '8'"),
    ({"seed": "0"}, "seed must be an integer, got '0'"),
    ({"modes_per_arm": "1"}, "modes_per_arm must be an integer, got '1'"),
    ({"state2": {"kind": "mixture", "components": [
        {"weight": "0.9", "state": "vacuum"}]}},
     "mixture spec key 'weight': must be a number, got '0.9'"),
    ({"state1": {"kind": "gaussian", "d": ["0", "0"], "gamma": [[1, 0], [0, 1]]}},
     "gaussian spec key 'd': must hold numbers, got ['0', '0']"),
    ({"state1": {"kind": "gaussian", "d": [0, 0],
                 "gamma": [["1", "0"], ["0", "1"]]}},
     "gaussian spec key 'gamma': must hold numbers, got [['1', '0'], ['0', '1']]"),
    # ds-run never reads these, so setting one would be a silent no-op
    *(({"tolerances": {key: 5}}, f"tolerance {key!r} is not read by ds-run")
      for key in ("symplectic", "boundary", "kernel_psd", "residual",
                  "alpha_swap")),
], ids=["displaced-one-component", "gaussian-string-d", "mixture-string-weight",
        "string-tolerance", "gaussian-shape-mismatch", "gaussian-two-modes-on-one",
        "mixture-list-of-strings", "mixture-object", "fock-past-cutoff",
        "fock-two-levels-on-one-mode", "thermal-on-two-modes",
        "squeezed-on-two-modes", "gaussian-without-d", "file-without-path",
        "boolean-mixture-weight", "boolean-gaussian-d", "boolean-tolerance",
        "string-number-theta", "string-number-cutoff", "string-number-seed",
        "string-number-modes_per_arm", "string-number-mixture-weight",
        "string-number-gaussian-d", "string-number-gaussian-gamma",
        "unread-tolerance-symplectic",
        "unread-tolerance-boundary", "unread-tolerance-kernel_psd",
        "unread-tolerance-residual", "unread-tolerance-alpha_swap"])
def test_bad_input_names_its_spec_or_key(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ds_run_accepts_the_tolerances_it_reads(tmp_path):
    from dataclasses import asdict

    from bosonic_ds.config import DEFAULT_TOLERANCES

    read = ("uncertainty", "gamma_symmetry", "density_hermiticity",
            "density_trace", "density_psd", "leak_budget", "convention_rel",
            "convention_abs")
    tolerances = {key: asdict(DEFAULT_TOLERANCES)[key] for key in read}
    cfg = write_config(tmp_path, cutoff=4, tolerances=tolerances)
    out = tmp_path / "report.json"
    assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["tolerances"] == tolerances


def test_ds_run_rejects_unknown_config_key(tmp_path, capsys):
    # a misspelt modes_per_arm once ran silently at 1 mode per arm
    cfg = write_config(tmp_path, state1="fock:1", cutoff=6, seed=0, modes_per_am=2)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config key 'modes_per_am'\n"


@pytest.mark.parametrize("command", [
    ["witness", "--state", "fock:1", "--theta", "1e6", "--cutoff", "40"],
    ["witness", "--state", "fock:1", "--theta", "1e308", "--cutoff", "8"],
    ["ds-run", "--theta", "1e6", "--cutoff", "40"],
    ["ds-run", "--theta", "1e308"],
], ids=["witness-1e6", "witness-1e308", "ds-run-1e6", "ds-run-1e308"])
def test_theta_beyond_one_period_is_one_error_line(tmp_path, capsys, command):
    # the splitter is 2 pi-periodic; at theta = 1e6 and cutoff 40 its sector
    # phases lose the precision its calibration checks, and 1e308 overflows
    if command[0] == "ds-run":
        command += ["--config", str(write_config(tmp_path, state1="fock:1"))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(command) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: theta must lie in [-2 pi, 2 pi], got ")
    assert len(captured.err.splitlines()) == 1


def test_theta_within_one_period_still_runs(capsys):
    assert main(["witness", "--state", "fock:1", "--theta", str(2 * np.pi - 0.7),
                 "--cutoff", "8"]) == 0
    assert capsys.readouterr().out.startswith("non-gaussian")


@pytest.mark.parametrize("matrix", [TMS, np.eye(4)], ids=["two-mode-squeezer", "identity"])
def test_classify_names_a_negative_seed(tmp_path, capsys, matrix):
    path = tmp_path / "m.json"
    save_matrix(matrix, path)
    assert main(["classify", "--matrix", str(path), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -1\n"


def test_chain_never_builds_the_dense_splitter(tmp_path, monkeypatch, capsys):
    # witness and ds-run apply the splitter's sector blocks; the dense
    # cutoff^2 x cutoff^2 unitary, formed on reading Splitter.matrix, serves
    # only tests and oracles
    from bosonic_ds import fock

    def dense_splitter(self):
        raise AssertionError("dense beam-splitter unitary built")

    monkeypatch.setattr(fock.Splitter, "matrix", property(dense_splitter))
    assert main(["witness", "--state", "thermal:0.3", "--theta", "0.6",
                 "--cutoff", "8"]) == 0
    assert main(["witness", "--state", "squeezed:0.3", "--theta", "0.6",
                 "--cutoff", "8"]) == 0
    for modes, cutoff in ((1, 8), (2, 3)):
        cfg = write_config(tmp_path, state1={"kind": "mixture", "components": [
            {"weight": 0.9, "state": "vacuum"},
            {"weight": 0.1, "state": "fock:1" if modes == 1 else "fock:1,0"}]},
            modes_per_arm=modes, cutoff=cutoff)
        assert main(["ds-run", "--config", str(cfg),
                     "--out", str(tmp_path / "report.json")]) == 0


HUGE = 10 ** 400   # a JSON integer with 401 digits: beyond a double's range


def _density_file(tmp_path, text):
    path = tmp_path / "d.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("key, named", [
    ("theta", "theta must be a number, got 1000"),
    ("tolerances", "tolerance leak_budget must be finite and positive, got 1000"),
    ("weight", "mixture spec key 'weight': must be a number, got 1000"),
    ("d", "gaussian spec key 'd': must hold numbers, got [1000"),
    ("file", "cannot read density file "),
])
def test_integer_beyond_a_double_is_one_line(tmp_path, capsys, key, named):
    zero = [[0] * 10 for _ in range(10)]
    density = _density_file(tmp_path, json.dumps(
        {"n": 1, "cutoff": 10, "real": [[HUGE] + zero[0][1:]] + zero[1:],
         "imag": zero}))
    overrides = {
        "theta": {"theta": HUGE},
        "tolerances": {"tolerances": {"leak_budget": HUGE}},
        "weight": {"state1": {"kind": "mixture", "components": [
            {"weight": HUGE, "state": "vacuum"}]}},
        "d": {"state1": {"kind": "gaussian", "d": [HUGE, 0],
                         "gamma": [[1, 0], [0, 1]]}},
        "file": {"state1": f"file:{density}"},
    }[key]
    assert main(["ds-run", "--config", str(write_config(tmp_path, **overrides))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")
    assert len(captured.err.splitlines()) == 1
    if key == "file":
        assert f"{density}: key 'real': must hold numbers, got [[1000" in captured.err


def test_matrix_entry_beyond_a_double_is_one_line(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([[HUGE, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                  [0, 0, 0, 1]]))
    assert main(["classify", "--matrix", str(matrix)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read matrix {matrix}: must hold "
                                   "numbers, got [[1000")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("entry", ["true", '"1"'], ids=["bool", "string"])
def test_density_and_matrix_files_hold_only_numbers(tmp_path, capsys, entry):
    density = _density_file(tmp_path, '{"n": 1, "cutoff": 2, "real": [[%s, 0], '
                            '[0, 0]], "imag": [[0, 0], [0, 0]]}' % entry)
    assert main(["witness", "--state", f"file:{density}", "--theta", "0.6",
                 "--cutoff", "2"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read density file {density}: key 'real': must hold "
        f"numbers, got [[{'True' if entry == 'true' else repr('1')}, 0], [0, 0]]\n")
    matrix = tmp_path / "m.json"
    matrix.write_text("[[%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
                      % entry)
    assert main(["classify", "--matrix", str(matrix)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read matrix {matrix}: must hold "
                                   "numbers, got [[")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("text, reason", [
    ('{"n": 1, "cutoff": 4}', "missing key 'real'"),
    ("[1, 2]", "must be a JSON object with keys 'n', 'cutoff', 'real' and 'imag'"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    ('{"n": 1.5, "cutoff": 4, "real": [], "imag": []}',
     "key 'n': must be an integer, got 1.5"),
], ids=["missing-real", "array", "unparsable", "fractional-n"])
@pytest.mark.parametrize("command", ["witness", "ds-run"])
def test_density_file_error_names_the_file_and_key(tmp_path, capsys, text, reason,
                                                   command):
    density = _density_file(tmp_path, text)
    if command == "witness":
        argv = ["witness", "--state", f"file:{density}", "--theta", "0.6",
                "--cutoff", "4"]
    else:
        argv = ["ds-run", "--config",
                str(write_config(tmp_path, state1=f"file:{density}", cutoff=4))]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read density file {density}: {reason}\n")


@pytest.mark.parametrize("modes", [10 ** 9, HUGE], ids=["1e9", "1e400"])
def test_mode_count_is_refused_without_forming_the_pair_dim(tmp_path, capsys, modes):
    # cutoff^(2n) as an exact integer took seconds and gigabytes at n = 10^8;
    # a 401-digit count is cut short, as reprlib cuts it
    import reprlib
    import time

    cfg = write_config(tmp_path, modes_per_arm=modes, cutoff=4)
    start = time.perf_counter()
    assert main(["ds-run", "--config", str(cfg)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: pair dim 4^{reprlib.repr(2 * modes)} "
                          f"({reprlib.repr(modes)} modes per arm, cutoff 4) needs "
                          "about inf GiB")
    assert len(err.splitlines()) == 1 and len(err) < 200


def test_overflowing_mixture_weights_print_one_line(tmp_path):
    # the weights' sum overflows to inf: refused, with no numpy warning
    cfg = write_config(tmp_path, state1={"kind": "mixture", "components": [
        {"weight": 1e308, "state": "vacuum"}, {"weight": 1e308, "state": "fock:1"}]})
    proc = subprocess.run([sys.executable, "-m", "bosonic_ds.cli", "ds-run",
                           "--config", str(cfg)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ("error: mixture weights must have a positive finite "
                           "sum, got inf\n")


@pytest.mark.parametrize("diagonal", [(1e5, 1e-5), (1e300, 1e-300)],
                         ids=["1e5", "1e300"])
def test_classify_strongly_squeezed_local_map(tmp_path, capsys, diagonal):
    path = tmp_path / "m.json"
    save_matrix(np.diag([*diagonal, 1.0, 1.0]), path)
    assert main(["classify", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "local" and data["alpha"] == 0
    assert data["X"] == np.diag(diagonal).tolist()
    assert data["Y"] == np.eye(2).tolist()


def test_classify_large_identity_is_local(tmp_path, capsys):
    # n = 50 modes per arm: P+ alone would be 100^2 x 100^2 doubles (763 MiB)
    path = tmp_path / "eye.json"
    save_matrix(np.eye(200), path)
    assert main(["classify", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "local" and data["residual"] == 0


def _nested_mixture(count):
    state = "vacuum"
    for _ in range(count):
        state = {"kind": "mixture", "components": [{"weight": 1, "state": state}]}
    return state


@pytest.mark.parametrize("modes", [10 ** 9, HUGE], ids=["1e9", "1e400"])
@pytest.mark.parametrize("command", ["witness", "ds-run"])
def test_density_file_mode_count_is_refused_at_once(tmp_path, capsys, modes, command):
    # cutoff^n as an exact integer ran past 15 s at n = 10^9
    import reprlib
    import time

    density = _density_file(tmp_path, json.dumps(
        {"n": modes, "cutoff": 4, "real": [[1]], "imag": [[0]]}))
    if command == "witness":
        argv = ["witness", "--state", f"file:{density}", "--theta", "0.6",
                "--cutoff", "4"]
    else:
        argv = ["ds-run", "--config", str(write_config(
            tmp_path, state1={"kind": "file", "path": str(density)}, cutoff=4))]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: cannot read density file {density}: key 'n': "
        f"{reprlib.repr(modes)} modes at cutoff 4 cannot fit a matrix of "
        "shape (1, 1)\n")


@pytest.mark.parametrize("what", ["config", "config-mixtures", "matrix",
                                  "density file"])
def test_deeply_nested_json_is_one_line(tmp_path, capsys, what):
    # 100 000 brackets overflow the JSON decoder's recursion; 200 nested
    # mixtures (depth 601) parse, but the report's echo of the config overflowed
    import time

    path = tmp_path / "deep.json"
    if what == "config-mixtures":
        path.write_text(json.dumps({"state1": _nested_mixture(200),
                                    "state2": "vacuum", "theta": 0.6,
                                    "cutoff": 4, "seed": 0}))
    else:
        path.write_text("[" * 100_000)
    argv = {"matrix": ["classify", "--matrix", str(path)],
            "density file": ["witness", "--state", f"file:{path}", "--theta",
                             "0.6", "--cutoff", "4"]}.get(
        what, ["ds-run", "--config", str(path)])
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: cannot read {what.removesuffix('-mixtures')} {path}: arrays and "
        "objects nest deeper than 400\n")


def test_nested_mixtures_run_to_the_depth_limit(tmp_path, capsys):
    # 133 nested mixtures nest 400 deep: read, run and echoed in the report;
    # one more is refused
    cfg = write_config(tmp_path, state1=_nested_mixture(133), cutoff=4)
    out = tmp_path / "report.json"
    assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["state1"] == _nested_mixture(133)
    cfg = write_config(tmp_path, state1=_nested_mixture(134), cutoff=4)
    assert main(["ds-run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read config {cfg}: arrays and objects nest deeper than 400\n")


@pytest.mark.parametrize("command", ["witness", "ds-run"])
def test_out_of_memory_is_one_line_naming_the_command_and_pair(tmp_path, monkeypatch,
                                                               capsys, command):
    # a MemoryError past the preflight, which checks physical memory only
    # (under ``ulimit -v``, say), ends in one error line, not a traceback
    from bosonic_ds import stability

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.96 GiB for an array")

    monkeypatch.setattr(stability, "sector_output", no_memory)
    if command == "witness":
        argv = ["witness", "--state", "thermal:0.3", "--theta", "0.6", "--cutoff", "8"]
    else:
        argv = ["ds-run", "--config", str(write_config(
            tmp_path, state1="thermal:0.3", state2="thermal:0.1", cutoff=8))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {command}: out of memory: pair dim 64 (1 modes "
                            "per arm, cutoff 8): Unable to allocate 5.96 GiB for an "
                            "array\n")


def test_density_file_on_another_cutoff_names_the_file_and_option(tmp_path, capsys):
    from bosonic_ds.fock import FockSpace
    from bosonic_ds.states import save_density, vacuum

    density = tmp_path / "d.json"
    save_density(vacuum(FockSpace(1, 2)), density)
    assert main(["witness", "--state", f"file:{density}", "--theta", "0.6",
                 "--cutoff", "4"]) == 1
    assert capsys.readouterr().err == (
        f"error: density file {density} holds FockSpace(n_modes=1, cutoff=2), not "
        "the expected FockSpace(n_modes=1, cutoff=4) set by --cutoff (a witness "
        "state has one mode)\n")


def test_density_file_on_another_space_names_the_config_keys(tmp_path, capsys):
    from bosonic_ds.fock import FockSpace
    from bosonic_ds.states import save_density, vacuum

    density = tmp_path / "d.json"
    save_density(vacuum(FockSpace(1, 2)), density)
    cfg = write_config(tmp_path, state1={"kind": "file", "path": str(density)},
                       cutoff=4)
    assert main(["ds-run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: density file {density} holds FockSpace(n_modes=1, cutoff=2), not "
        "the expected FockSpace(n_modes=1, cutoff=4) set by config key 'cutoff' "
        "and config key 'modes_per_arm'\n")
    assert main(["ds-run", "--config", str(cfg), "--cutoff", "3"]) == 1
    assert capsys.readouterr().err.endswith(
        "FockSpace(n_modes=1, cutoff=3) set by --cutoff and config key "
        "'modes_per_arm'\n")


@pytest.mark.parametrize("key, value, least", [("n", 0, 1), ("cutoff", 1, 2)])
def test_density_file_with_no_space_names_the_key(tmp_path, capsys, key, value, least):
    data = {"n": 1, "cutoff": 2, "real": [[1, 0], [0, 0]], "imag": [[0, 0], [0, 0]]}
    data[key] = value
    density = _density_file(tmp_path, json.dumps(data))
    assert main(["witness", "--state", f"file:{density}", "--theta", "0.6",
                 "--cutoff", "2"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read density file {density}: key {key!r}: must be at least "
        f"{least}, got {value}\n")
