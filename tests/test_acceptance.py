"""Release gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.  Run with plain pytest; the lines bypass capture.

Criteria, in order: exact factorization of equal-covariance Gaussian pairs,
two-photon interference epsilon against a brute-force oracle, stability
bounds on a mixture family, the cross-covariance identity, the |V| bound,
the quadrature/operator isometry, the 50-50 constant against a
high-precision oracle, derivative-based moment extraction, twisted-kernel
positivity, and the classifier round trip.
"""

import itertools
import time

import numpy as np
import pytest

from bosonic_ds.classify import build_canonical, decompose
from bosonic_ds.config import GridSpec
from bosonic_ds.fock import (FockSpace, beam_splitter_unitary, evolve,
                             gaussian_to_fock, hs_norm, moments, partial_trace,
                             tensor, trace_norm)
from bosonic_ds.phase_space import (char_grid, derivative_moments, ds_residual,
                                    parseval_distance, sigma_positivity_test)
from bosonic_ds.states import (displaced_vacuum, fock_state, load_golden,
                               mixture, thermal_state, vacuum)
from bosonic_ds.stability import (C1_QUOTED_50_50, c1_constant, run_experiment)
from bosonic_ds.symplectic import (GaussianState, random_covariance,
                                   random_local_symplectic, two_mode_squeezer)

D = 14
THETAS = (np.pi / 6, np.pi / 4, np.pi / 3)


@pytest.fixture
def gate(capsys):
    def _gate(criterion: str, passed: bool, detail: str):
        with capsys.disabled():
            mark = "PASS" if passed else "FAIL"
            print(f"[{mark}] {criterion}: {detail}")
        assert passed, f"{criterion}: {detail}"
    return _gate


@pytest.fixture(scope="module")
def interference_report():
    space = FockSpace(1, 6)
    return run_experiment(fock_state(space, 1), fock_state(space, 1),
                          np.pi / 4, seed=11, strict=False)


@pytest.fixture(scope="module")
def family_reports():
    space = FockSpace(1, D)
    reports = {}
    for p in (0.05, 0.1, 0.2):
        rho = mixture([(1 - p, vacuum(space)), (p, fock_state(space, 2))])
        reports[p] = run_experiment(rho, rho, np.pi / 4, seed=int(p * 100))
    return reports


def test_criterion_1_exact_factorization_of_gaussian_pairs(gate):
    start = time.time()
    rng = np.random.default_rng(2024)
    space = FockSpace(1, D)
    pair = FockSpace(2, D)
    worst_eps = worst_g = 0.0
    for i in range(20):
        theta = THETAS[i % 3]
        while True:
            gamma = random_covariance(1, rng, scale=0.3)
            if np.max(np.abs(np.linalg.eigvalsh(gamma))) <= 1.3:
                break
        r1 = gaussian_to_fock(GaussianState(rng.uniform(-0.15, 0.15, 2), gamma),
                              space)
        r2 = gaussian_to_fock(GaussianState(rng.uniform(-0.15, 0.15, 2), gamma),
                              space)
        u = beam_splitter_unitary(pair, theta)
        rho_ab = evolve(tensor(r1, r2), u)
        eps = trace_norm(rho_ab.matrix
                         - np.kron(partial_trace(rho_ab, "first").matrix,
                                   partial_trace(rho_ab, "second").matrix))
        res = ds_residual(r1, r2, theta, GridSpec(extent=2.5, points=9))
        worst_eps = max(worst_eps, eps)
        worst_g = max(worst_g, res.max_abs)
    elapsed = time.time() - start
    gate("criterion 1 (equal-covariance factorization)",
         worst_eps <= 1e-6 and worst_g <= 1e-6 and elapsed <= 30.0,
         f"worst eps={worst_eps:.2e} worst max|G|={worst_g:.2e} "
         f"({elapsed:.1f}s <= 30s)")


def test_criterion_2_interference_epsilon_oracle(gate, interference_report):
    rep = interference_report
    d = 6
    space = FockSpace(1, d)
    pair = FockSpace(2, d)
    u = beam_splitter_unitary(pair, np.pi / 4)
    rho_ab = evolve(tensor(fock_state(space, 1), fock_state(space, 1)), u)
    diff = rho_ab.matrix - np.kron(partial_trace(rho_ab, "first").matrix,
                                   partial_trace(rho_ab, "second").matrix)
    oracle = float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
    err = abs(rep.epsilon - oracle)
    gate("criterion 2 (interference epsilon vs brute force)",
         err <= 1e-8 and rep.epsilon > 0.5,
         f"epsilon={rep.epsilon:.10f} oracle diff={err:.1e}")


def test_criterion_3_stability_bounds_on_mixture_family(gate, family_reports):
    details = []
    ok = True
    for p, rep in family_reports.items():
        state_ok = (rep.margin_state is not None and rep.margin_state > 0
                    and rep.margin_cm > 0 and not rep.truncation_flags)
        ok = ok and state_ok
        ratio = rep.bound1 / max(rep.dist_hs_1, rep.dist_hs_2)
        details.append(f"p={p}: eps={rep.epsilon:.3f} "
                       f"margin1={rep.margin_state:.1f} (x{ratio:.0f} loose) "
                       f"margin2={rep.margin_cm:.1f}")
    gate("criterion 3 (stability bounds, mixture family)", ok,
         "; ".join(details))


def test_criterion_4_cross_covariance_identity(gate):
    from bosonic_ds.stability import _cross_cov_matrix

    rng = np.random.default_rng(77)
    space = FockSpace(1, 12)
    pair = FockSpace(2, 12)
    from conftest import random_low_energy_density

    worst = 0.0
    for i in range(10):
        theta = THETAS[i % 3]
        r1 = random_low_energy_density(rng, space)
        r2 = random_low_energy_density(rng, space)
        u = beam_splitter_unitary(pair, theta)
        rho_ab = evolve(tensor(r1, r2), u)
        g = rho_ab.matrix - np.kron(partial_trace(rho_ab, "first").matrix,
                                    partial_trace(rho_ab, "second").matrix)
        v = _cross_cov_matrix(g, pair, theta)
        gamma1 = moments(r1).gamma
        gamma2 = moments(r2).gamma
        defect = np.max(np.abs((gamma1 - gamma2)
                               - (2 / np.cos(theta) ** 2) * v.real))
        worst = max(worst, defect / (1 + np.max(np.abs(gamma1))))
    gate("criterion 4 (covariance-gap identity)", worst <= 1e-4,
         f"worst scaled defect={worst:.2e} (tolerance 1e-4)")


def test_criterion_5_cross_covariance_bound(gate, interference_report,
                                            family_reports):
    reports = [interference_report] + list(family_reports.values())
    ok = all(r.v_within_bound for r in reports)
    detail = "; ".join(f"|V|={r.v_norm:.2e} <= {r.v_bound:.2e}" for r in reports)
    gate("criterion 5 (|V| within its bound on all runs)", ok, detail)


def test_criterion_6_parseval_isometry(gate):
    space = FockSpace(1, D)
    names = ["vacuum", "fock1", "fock2", "thermal_nbar05", "squeezed_z025"]
    states = {n: load_golden(n) for n in names}
    grids = {n: char_grid(states[n], 6.0, 97) for n in names}
    worst = 0.0
    pairs = list(itertools.combinations(names, 2))
    assert len(pairs) == 10
    for a, b in pairs:
        quad = parseval_distance(grids[a], grids[b])
        hs2 = hs_norm(states[a].matrix - states[b].matrix) ** 2
        worst = max(worst, abs(quad - hs2) / (1 + hs2))
    gate("criterion 6 (quadrature vs operator isometry, 10 pairs)",
         worst <= 1e-3, f"worst scaled error={worst:.2e}")


def test_criterion_7_constant_against_high_precision_oracle(gate):
    import mpmath as mp

    with mp.workdps(50):
        oracle = float(32 * mp.sqrt(mp.mpf(8) / mp.pi))
    mine = c1_constant(np.pi / 4, 1, 1.0)
    rel = abs(mine - oracle) / oracle
    quoted_gap = abs(mine - C1_QUOTED_50_50) / C1_QUOTED_50_50
    gate("criterion 7 (50-50 constant vs oracle)",
         rel <= 1e-12 and 0.05 < quoted_gap < 0.15,
         f"direct={mine:.12f} rel err={rel:.1e}; quoted {C1_QUOTED_50_50} "
         f"differs by {100 * quoted_gap:.1f}% (documented finding)")


def test_criterion_8_moment_extraction(gate):
    space = FockSpace(1, D)
    fixtures = {
        "vacuum": vacuum(space),
        "fock1": fock_state(space, 1),
        "thermal05": thermal_state(space, 0.5),
        "displaced": displaced_vacuum(space, [1.0, 0.0]),
    }
    worst = 0.0
    for rho in fixtures.values():
        d, gamma = derivative_moments(rho)
        table = moments(rho)
        worst = max(worst, np.max(np.abs(d - table.d)),
                    np.max(np.abs(gamma - table.gamma)))
    gate("criterion 8 (derivative vs trace moments)", worst <= 1e-4,
         f"worst deviation={worst:.2e}")


def test_criterion_9_twisted_kernel_positivity(gate):
    fixtures = ["vacuum", "fock1", "fock2", "fock3", "thermal_nbar05",
                "squeezed_z025"]
    worst = 0.0
    for i, name in enumerate(fixtures):
        rep = sigma_positivity_test(load_golden(name), seed=100 + i, n_sets=200)
        worst = min(worst, rep.min_eigenvalue) if i else rep.min_eigenvalue
    sub = GaussianState(np.zeros(2), np.eye(2) / 4)
    hunt = sigma_positivity_test(sub, seed=9, search=True, max_trials=1000)
    gate("criterion 9 (positivity: fixtures pass, sub-vacuum falsified)",
         worst >= -1e-8 and hunt.min_eigenvalue < -0.01
         and hunt.sets_evaluated <= 1000,
         f"fixtures min eig={worst:.2e}; violation {hunt.min_eigenvalue:.3f} "
         f"in {hunt.sets_evaluated} trials")


def test_criterion_10_classifier_round_trip(gate):
    rng = np.random.default_rng(31415)
    worst_alpha = worst_res = 0.0
    for _ in range(100):
        x = random_local_symplectic(1, rng)
        y = random_local_symplectic(1, rng)
        alpha = rng.uniform(-5, 5)
        res = decompose(build_canonical(x, y, alpha))
        worst_alpha = max(worst_alpha, abs(res.alpha - alpha))
        worst_res = max(worst_res, res.reconstruction_residual)
    rejected = 0
    for _ in range(20):
        res = decompose(two_mode_squeezer(rng.uniform(0.2, 1.2)), seed=5)
        if res.verdict == "not_preserving" and res.witness_gamma is not None \
                and res.witness_offdiag > 1e-8:
            rejected += 1
    gate("criterion 10 (classifier round trip and rejection)",
         worst_alpha <= 1e-8 and worst_res <= 1e-9 and rejected == 20,
         f"alpha err={worst_alpha:.1e} residual={worst_res:.1e} "
         f"rejected {rejected}/20 with witnesses")
