"""The output checks accept the program's real outputs and reject each field
perturbed beyond its tolerance."""

import contextlib
import copy
import io
import json

import pytest

import checks
import oracle
import workloads
from bosonic_ds import cli

CASE = workloads.Case("small", "ds-run", 10, 1, 0.5,
                      workloads._vac_fock(0.85, 1, 1, 10),
                      workloads._vac_fock(0.9, 3, 1, 10))


@pytest.fixture(scope="module")
def ds_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dsrun")
    (tmp / "cfg.json").write_text(json.dumps(CASE.config()))
    code = cli.main(["ds-run", "--config", str(tmp / "cfg.json"),
                     "--out", str(tmp / "report.json")])
    report = json.loads((tmp / "report.json").read_text())
    ref = oracle.ds_run_reference(CASE.state1.pops, CASE.state2.pops, CASE.theta)
    return report, ref, code


def problems(report, ref, code=0):
    return checks.check_ds_run(report, ref, code, CASE.modes, CASE.cutoff)


def test_real_report_passes(ds_run):
    report, ref, code = ds_run
    assert code == 0
    assert problems(report, ref) == []


def _shift(value, by):
    if isinstance(value, list):
        return [_shift(v, by) if i == 0 else v for i, v in enumerate(value)]
    return value + by


@pytest.mark.parametrize("field,by", [
    ("epsilon", 1e-7), ("gamma1", 1e-7), ("gamma2", -1e-7), ("cm_gap", 1e-7),
    ("trace_gamma_out", 1e-6), ("v_norm", 1e-5), ("dist_hs_1", 1e-6),
    ("dist_hs_2", -1e-6), ("kappa", -10.0),
])
def test_perturbed_field_is_rejected(ds_run, field, by):
    report, ref, _ = ds_run
    bad = copy.deepcopy(report)
    bad[field] = _shift(bad[field], by)
    found = problems(bad, ref)
    assert found and found[0].startswith(field if field != "kappa" else "kappa")


@pytest.mark.parametrize("change", [
    lambda r: r["margins"].update(state_distance=-1e-3),
    lambda r: r["margins"].update(cm_gap=None),
    lambda r: r.update(v_within_bound=False),
])
def test_broken_property_is_rejected(ds_run, change):
    report, ref, _ = ds_run
    bad = copy.deepcopy(report)
    change(bad)
    assert problems(bad, ref)


def test_nonzero_exit_is_rejected(ds_run):
    report, ref, _ = ds_run
    assert problems(report, ref, code=2) == ["exit code 2"]


def _witness(spec, theta=0.5, cutoff=10):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["witness", "--state", spec, "--theta", repr(theta),
                         "--cutoff", str(cutoff)])
    return buf.getvalue(), code


def test_witness_checks():
    out = oracle.splitter_output(*[oracle.fock_populations((1,), 10)] * 2, 0.5)
    want = oracle.epsilon(out)
    text, code = _witness("fock:1")
    assert checks.check_witness(text, code, "fock", want, out.cut) == []
    _, eps = checks.parse_witness(text)
    shifted = f"non-gaussian (epsilon={eps * (1 + 1e-5):.6e})"
    assert checks.check_witness(shifted, 0, "fock", want, out.cut)
    assert checks.check_witness(text.replace("non-", ""), 0, "fock", want, out.cut)
    assert checks.check_witness(text, 1, "fock", want, out.cut) == ["exit code 1"]

    text, code = _witness("thermal:0.3", cutoff=20)
    assert checks.check_witness(text, code, "thermal") == []
    assert checks.check_witness("gaussian (epsilon=1.0e-11)", 0, "thermal")

    text, code = _witness("squeezed:0.2", cutoff=20)
    assert checks.check_witness(text, code, "gaussian") == []
    assert checks.check_witness("gaussian (epsilon=2.0e-03)", 0, "gaussian")
    assert checks.check_witness("non-gaussian (epsilon=1.0e-04)", 0, "gaussian")
    assert checks.check_witness("garbled", 0, "gaussian")
