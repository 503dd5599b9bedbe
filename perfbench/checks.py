"""Output checks: each returns the list of problems found (empty when the
output is correct).  Tolerances are stated here and in the README."""

from __future__ import annotations

import re

import numpy as np

import oracle

# Epsilon agrees within EPS_CUT_FACTOR x (mass the cutoff cuts) + EPS_FLOOR.
EPS_CUT_FACTOR = 6.0
EPS_FLOOR = 1e-9
GAMMA_ABS = 1e-9          # entries of gamma1, gamma2
CM_GAP_ABS = 1e-9
# Output moments may differ by CUT_MOMENT x n x D x cut: a photon sector the
# cutoff cuts holds at most 2 n D quanta, and its mass is wrong in both the
# program and the oracle.
CUT_MOMENT = 8.0
TRACE_GAMMA_REL = 1e-9    # trace_gamma_out
V_NORM_REL = 1e-6         # v_norm against (cos^2 t / 2) cm_gap
V_NORM_ABS = 1e-9
DIST_HS_ABS = 1e-8        # dist_hs_1/2 against the truncated thermal state
KAPPA_SLACK = 1e-9
WITNESS_REL = 1e-6        # the witness prints epsilon with 7 digits
THERMAL_PAIR_EPS = 1e-12
WITNESS_TOL = 1e-3        # the program's default --witness-tol


def _close(name: str, got, want, tol: float, problems: list) -> None:
    diff = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want))))
    if not diff <= tol:
        problems.append(f"{name}: program {got!r} vs oracle {want!r} "
                        f"(diff {diff:.3e} > {tol:.3e})")


def check_ds_run(report: dict, ref: oracle.DsRunReference, exit_code: int,
                 modes: int, cutoff: int) -> list:
    """Check a ds-run report against the oracle and against properties the
    method must have."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    _close("epsilon", report["epsilon"], ref.epsilon,
           EPS_CUT_FACTOR * ref.cut + EPS_FLOOR, problems)
    _close("gamma1", report["gamma1"], ref.gamma1, GAMMA_ABS, problems)
    _close("gamma2", report["gamma2"], ref.gamma2, GAMMA_ABS, problems)
    _close("cm_gap", report["cm_gap"], ref.cm_gap, CM_GAP_ABS, problems)
    moment_slack = CUT_MOMENT * modes * cutoff * ref.cut
    _close("trace_gamma_out", report["trace_gamma_out"], ref.trace_gamma_out,
           TRACE_GAMMA_REL * ref.trace_gamma_out + moment_slack, problems)
    _close("v_norm", report["v_norm"], ref.v_norm,
           V_NORM_REL * ref.v_norm + V_NORM_ABS + moment_slack, problems)
    _close("dist_hs_1", report["dist_hs_1"], ref.dist_hs_1, DIST_HS_ABS, problems)
    _close("dist_hs_2", report["dist_hs_2"], ref.dist_hs_2, DIST_HS_ABS, problems)
    margins = report["margins"]
    for key in ("state_distance", "cm_gap"):
        value = margins.get(key)
        if value is None or not value >= 0:
            problems.append(f"margin {key} = {value!r}, expected >= 0")
    if report["v_within_bound"] is not True:
        problems.append(f"|V| = {report['v_norm']!r} exceeds its bound "
                        f"{report['v_bound']!r}")
    if not report["kappa"] >= ref.kappa_floor - KAPPA_SLACK:
        problems.append(f"kappa {report['kappa']!r} below the largest axis "
                        f"fourth moment {ref.kappa_floor!r}")
    return problems


_WITNESS_LINE = re.compile(r"^(gaussian|non-gaussian) \(epsilon=(\S+)\)$")


def parse_witness(text: str) -> tuple:
    match = _WITNESS_LINE.match(text.strip())
    if not match:
        raise ValueError(f"unexpected witness output {text!r}")
    return match.group(1), float(match.group(2))


def check_witness(text: str, exit_code: int, family: str,
                  want_eps: float | None = None, cut: float = 0.0) -> list:
    """Fock inputs match the oracle's epsilon ``want_eps``, equal thermal
    pairs give epsilon <= 1e-12, and every Gaussian spec is classified
    gaussian."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        verdict, eps = parse_witness(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    expected = "non-gaussian" if family == "fock" else "gaussian"
    if verdict != expected:
        problems.append(f"verdict {verdict!r}, expected {expected!r} (epsilon {eps!r})")
    if family == "fock":
        _close("epsilon", eps, want_eps,
               WITNESS_REL * want_eps + EPS_CUT_FACTOR * cut + EPS_FLOOR, problems)
    elif family == "thermal" and not eps <= THERMAL_PAIR_EPS:
        problems.append(f"equal thermal pair epsilon {eps!r} > {THERMAL_PAIR_EPS}")
    elif family == "gaussian" and not eps <= WITNESS_TOL:
        problems.append(f"gaussian spec epsilon {eps!r} > {WITNESS_TOL}")
    return problems
