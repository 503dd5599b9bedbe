import math

import numpy as np
import pytest

from bosonic_ds.config import Tolerances
from bosonic_ds.errors import (BoundViolationError, CalibrationError,
                               TrivialSplitterError, UncertaintyViolationError,
                               ValidationError)
from bosonic_ds.fock import (FockSpace, beam_splitter_unitary, block_groups,
                             evolve, gaussian_to_fock, moments, partial_trace,
                             tensor)
from bosonic_ds.stability import (C1_QUOTED_50_50, c1_constant, c1_direct_50_50,
                                  c2_constant, c2_shape, c3_constant,
                                  constants_sweep, cross_covariance_V, f_bound,
                                  nongaussianity_witness, pair_output,
                                  region_radius, run_experiment, theta_curve,
                                  _enforce_invariants, _hermitian_trace_norm,
                                  _schmidt_trace_norm)
from bosonic_ds.states import (fock_state, mixture, parse_state_spec,
                               thermal_state, vacuum)
from bosonic_ds.symplectic import GaussianState, two_mode_squeezer

from conftest import (axis_fourth_moments, benchmark_pairs, output_density,
                      random_low_energy_density)


def lowering(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1)


# --- constants -------------------------------------------------------------


def test_curve_value_at_50_50():
    assert theta_curve(np.pi / 4) == pytest.approx(2.0, abs=1e-14)


def test_curve_symmetry():
    for t in (0.2, 0.5, 0.7):
        assert theta_curve(t) == pytest.approx(theta_curve(np.pi / 2 - t), abs=1e-12)


def test_curve_divergence_near_endpoints():
    assert theta_curve(0.005) > 10.0
    assert theta_curve(np.pi / 2 - 0.005) > 10.0


def test_c1_at_50_50_exact():
    assert c1_constant(np.pi / 4, 1, 1.0) == pytest.approx(32 * math.sqrt(8 / math.pi),
                                                           rel=1e-15)
    assert c1_direct_50_50() != pytest.approx(C1_QUOTED_50_50, rel=0.05)


def test_c3_scaling():
    assert c3_constant(np.pi / 4, 1, 1.0) == pytest.approx(math.sqrt(384.0))
    assert c3_constant(np.pi / 8, 1, 1.0) > c3_constant(np.pi / 4, 1, 1.0)


def test_c2_shape_consistency():
    assert c2_constant(2.0, 3.0, 1) == pytest.approx(
        c2_shape(1) * math.sqrt(2.0 * 3.0))


def test_f_bound_examples():
    assert f_bound(np.pi / 4, 1, 1.0, 0.5, 0.0) == 0.0
    assert f_bound(np.pi / 4, 1, 1.0, 1.0, 1.0) == pytest.approx(0.5)
    values = [f_bound(np.pi / 4, 1, 1.0, e, 1.0) for e in (0.1, 0.3, 0.9)]
    assert values == sorted(values)
    with pytest.raises(TrivialSplitterError):
        f_bound(np.pi / 2, 1, 1.0, 0.5, 1.0)


def test_region_radius_examples():
    r, floor = region_radius(0.5, 2.0 ** -12)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert floor == pytest.approx(6.0)
    r_close, _ = region_radius(0.5, 1 - 1e-12)
    assert r_close < 1e-5
    with pytest.raises(ValidationError):
        region_radius(0.0, 0.5)
    with pytest.raises(ValidationError):
        region_radius(0.5, 1.5)


def test_region_floor_empirically():
    # The displayed floor 12 eps^(1/12) exceeds 1 for any moderate eps, which
    # no characteristic function can meet; the proof's concluding inequality
    # |chi| > eps^(1/12) is the checkable statement and holds with room.
    eps = 1e-6
    r, quoted = region_radius(0.5, eps)
    assert quoted > 1.0
    xs = np.linspace(-r, r, 101)
    grid = np.array([[x, y] for x in xs for y in xs])
    grid = grid[np.linalg.norm(grid, axis=1) <= r]
    chi_min = np.min(np.exp(-np.sum(grid ** 2, axis=1) / 4))
    assert chi_min > eps ** (1.0 / 12.0)


def test_constants_sweep_rows():
    rows = constants_sweep(0.3, 1.2, 4, 1, 1.0)
    assert len(rows) == 4
    assert rows[0]["theta"] == pytest.approx(0.3)
    assert all(r["c2_shape"] == pytest.approx(c2_shape(1)) for r in rows)
    with pytest.raises(ValidationError):
        constants_sweep(0.3, 1.2, 0, 1, 1.0)
    with pytest.raises(ValidationError):
        constants_sweep(-0.1, 1.0, 3, 1, 1.0)


# --- experiments -----------------------------------------------------------


def test_vacuum_pair_is_exact_product():
    space = FockSpace(1, 10)
    rep = run_experiment(vacuum(space), vacuum(space), np.pi / 4, seed=0)
    assert rep.epsilon <= 1e-8
    assert max(rep.dist_hs_1, rep.dist_hs_2) <= 1e-5
    assert rep.cm_gap <= 1e-8
    assert rep.epsilon_3x == pytest.approx(3 * rep.epsilon)
    assert not rep.truncation_flags


def test_interference_epsilon_matches_oracle():
    d = 6
    space = FockSpace(1, d)
    rep = run_experiment(fock_state(space, 1), fock_state(space, 1), np.pi / 4,
                         seed=0)
    # brute force: eigenvalues of the Hermitian difference at the same cutoff
    pair = FockSpace(2, d)
    u = beam_splitter_unitary(pair, np.pi / 4)
    rho_ab = evolve(tensor(fock_state(space, 1), fock_state(space, 1)), u)
    diff = rho_ab.matrix - np.kron(partial_trace(rho_ab, "first").matrix,
                                   partial_trace(rho_ab, "second").matrix)
    oracle = float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
    assert rep.epsilon == pytest.approx(oracle, abs=1e-8)
    assert rep.epsilon > 0.5
    assert rep.bound1 is None and rep.bound2 is None   # epsilon > 1


def test_cm_gap_matches_direct_frobenius():
    space = FockSpace(1, 24)
    r1 = gaussian_to_fock(GaussianState(np.zeros(2), 2 * np.eye(2)), space)
    r2 = gaussian_to_fock(GaussianState(np.zeros(2), np.eye(2)), space)
    rep = run_experiment(r1, r2, np.pi / 4, seed=1)
    assert rep.cm_gap == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert rep.cm_gap == pytest.approx(float(np.linalg.norm(rep.gamma1 - rep.gamma2)),
                                       abs=1e-12)


def test_cross_covariance_identity_on_random_products():
    rng = np.random.default_rng(23)
    space = FockSpace(1, 12)
    pair = FockSpace(2, 12)
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        u = beam_splitter_unitary(pair, theta)
        for _ in range(3):
            r1 = random_low_energy_density(rng, space)
            r2 = random_low_energy_density(rng, space)
            rho_ab = evolve(tensor(r1, r2), u)
            ra = partial_trace(rho_ab, "first")
            rb = partial_trace(rho_ab, "second")
            res = cross_covariance_V(rho_ab, ra, rb, theta, kappa=None)
            from bosonic_ds.fock import moments
            gap = moments(r1).gamma \
                - moments(r2).gamma
            np.testing.assert_allclose((2 / np.cos(theta) ** 2) * res.v, gap,
                                       atol=1e-10)
            assert np.max(np.abs(res.v.imag)) <= 1e-8


def test_cross_covariance_bound_fields():
    d = 6
    space = FockSpace(1, d)
    pair = FockSpace(2, d)
    u = beam_splitter_unitary(pair, np.pi / 4)
    rho_ab = evolve(tensor(fock_state(space, 1), fock_state(space, 1)), u)
    ra = partial_trace(rho_ab, "first")
    rb = partial_trace(rho_ab, "second")
    res = cross_covariance_V(rho_ab, ra, rb, np.pi / 4, kappa=11.25)
    assert res.bound == pytest.approx(math.sqrt(24 * 11.25 * 1.5), rel=1e-6)
    assert res.within_bound
    # identical inputs: V vanishes
    assert res.norm <= 1e-10


def test_strict_mode_aborts_on_broken_convention():
    space = FockSpace(1, 12)
    r1 = mixture([(0.9, vacuum(space)), (0.1, fock_state(space, 2))])
    tiny = Tolerances(convention_rel=1e-30, convention_abs=1e-30)
    with pytest.raises(CalibrationError):
        run_experiment(r1, vacuum(space), np.pi / 4, seed=0, tol=tiny)


def test_enforce_invariants_flags_negative_margin():
    space = FockSpace(1, 10)
    rep = run_experiment(vacuum(space), vacuum(space), np.pi / 4, seed=0)
    import dataclasses

    broken = dataclasses.replace(rep, margin_state=-1.0, margin_cm=0.5)
    with pytest.raises(BoundViolationError):
        _enforce_invariants(broken)


def test_enforce_invariants_passes_flagged_reports():
    # the guarantees hold for clean runs only: the gate itself lets a report
    # with truncation flags through
    space = FockSpace(1, 10)
    rep = run_experiment(vacuum(space), vacuum(space), np.pi / 4, seed=0)
    import dataclasses

    flagged = dataclasses.replace(rep, margin_state=-1.0, margin_cm=0.5,
                                  truncation_flags=("truncation:input1:leak",))
    _enforce_invariants(flagged)


@pytest.mark.parametrize("modes, cutoff, samples", [(1, 6, 100), (2, 3, 148)])
def test_kappa_samples_count_the_search_plan(modes, cutoff, samples):
    # (4m)^2 canonical pairs on the 4m quadratures of the 2m-mode pair
    # space, 64 random pairs and 20 refine steps
    space = FockSpace(modes, cutoff)
    rep = run_experiment(vacuum(space), vacuum(space), 0.6, seed=0)
    assert rep.kappa_samples == samples


def test_obtuse_angle_region():
    # beyond pi/2 the in-region constant has no real value (its radicand is
    # negative), but the experiment and the covariance-gap identity still work
    space = FockSpace(1, 12)
    r1 = mixture([(0.9, vacuum(space)), (0.1, fock_state(space, 2))])
    rep = run_experiment(r1, vacuum(space), 2.0, seed=1)
    assert rep.c1 is None and rep.bound1 is None
    ident = (2 / np.cos(2.0) ** 2) * rep.v_norm
    assert rep.cm_gap == pytest.approx(ident, abs=1e-10)


@pytest.mark.parametrize("theta", [0.6, 2.0, -0.6, -2.0])
def test_cm_margin_wherever_bound2_holds(theta):
    # bound2 = c3 sqrt(eps) holds for every non-trivial theta, c1 (and with it
    # bound1) only where sin 2 theta > 0
    space = FockSpace(1, 12)   # a clean run: no truncation flag
    r1 = mixture([(0.9, vacuum(space)), (0.1, fock_state(space, 1))])
    rep = run_experiment(r1, thermal_state(space, 0.3), theta, seed=0)
    assert not rep.truncation_flags
    assert rep.bound2 is not None
    assert rep.margin_cm == rep.bound2 - rep.cm_gap > 0
    assert (rep.margin_state is None) == (math.sin(2 * theta) < 0)


@pytest.mark.parametrize("theta", [2.0, -0.6])
def test_enforce_invariants_checks_cm_margin_without_c1(theta):
    import dataclasses

    space = FockSpace(1, 12)   # a clean run: no truncation flag
    r1 = mixture([(0.9, vacuum(space)), (0.1, fock_state(space, 1))])
    rep = run_experiment(r1, thermal_state(space, 0.3), theta, seed=0)
    assert not rep.truncation_flags
    assert rep.margin_state is None
    with pytest.raises(BoundViolationError, match="cm margin -1.0"):
        _enforce_invariants(dataclasses.replace(rep, margin_cm=-1.0))


def test_trivial_angles_rejected():
    space = FockSpace(1, 6)
    for theta in (0.0, np.pi / 2, np.pi):
        with pytest.raises(TrivialSplitterError):
            run_experiment(vacuum(space), vacuum(space), theta, seed=0)


def test_mismatched_spaces_rejected():
    with pytest.raises(ValidationError):
        run_experiment(vacuum(FockSpace(1, 6)), vacuum(FockSpace(1, 8)),
                       np.pi / 4, seed=0)


def test_report_serialization_keys():
    space = FockSpace(1, 8)
    rep = run_experiment(vacuum(space), vacuum(space), np.pi / 4, seed=0,
                         config_echo={"cutoff": 8, "seed": 0})
    payload = rep.to_dict()
    for key in ("theta", "n", "epsilon", "epsilon_3x", "lambda", "kappa", "r",
                "c1", "c2", "c3", "dist_hs_1", "dist_hs_2", "cm_gap", "bound1",
                "bound2", "margins", "V", "truncation_flags", "config"):
        assert key in payload
    assert payload["config"] == {"cutoff": 8, "seed": 0}
    assert payload["notes"]["c1_prefactor_quoted_50_50"] == C1_QUOTED_50_50


# --- witness ---------------------------------------------------------------


def test_witness_vacuum(space14):
    assert nongaussianity_witness(vacuum(space14), np.pi / 4) <= 1e-8


def test_witness_fock1():
    space = FockSpace(1, 6)
    eps = nongaussianity_witness(fock_state(space, 1), np.pi / 4)
    assert eps == pytest.approx(1.5, abs=1e-8)
    assert eps > 0.5


def test_witness_thermal(space14):
    assert nongaussianity_witness(thermal_state(space14, 0.5), np.pi / 4) <= 1e-5


def test_witness_monotone_in_mixture_weight():
    space = FockSpace(1, 10)
    values = []
    for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        rho = mixture([(1 - p, vacuum(space)), (p, fock_state(space, 2))])
        values.append(nongaussianity_witness(rho, np.pi / 4))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_witness_trivial_angle():
    with pytest.raises(TrivialSplitterError):
        nongaussianity_witness(vacuum(FockSpace(1, 6)), 0.0)


def test_two_modes_per_arm_experiment():
    # inputs live on the lowest levels, so epsilon, moments and V are exact
    # and the covariance-gap identity must hold to machine precision at n = 2;
    # the Gaussified references are hot thermals that cannot fit a cutoff of
    # 5, and the report must say so through truncation flags
    d = 5
    one = FockSpace(1, d)
    from bosonic_ds.fock import tensor

    r1 = tensor(mixture([(0.9, vacuum(one)), (0.1, fock_state(one, 1))]),
                vacuum(one))
    r2 = tensor(fock_state(one, 1), vacuum(one))
    rep = run_experiment(r1, r2, np.pi / 4, seed=3)
    assert rep.modes_per_arm == 2
    ident = (2 / np.cos(np.pi / 4) ** 2) * rep.v_norm
    assert rep.cm_gap == pytest.approx(ident, abs=1e-10)
    assert rep.c1 == pytest.approx(c1_constant(np.pi / 4, 2, rep.kappa))
    assert rep.v_within_bound
    assert any("synthesis" in f for f in rep.truncation_flags)
    # product-structured two-mode synthesis path produced both references
    assert rep.dist_hs_1 > 0 and rep.dist_hs_2 > 0


def test_correlated_two_mode_synthesis_matches_expm():
    from scipy.linalg import expm

    from bosonic_ds.fock import moments, validate_density
    from bosonic_ds.symplectic import two_mode_squeezer

    # exp(r (a1+ a2+ - a1 a2)) realizes two_mode_squeezer(r); displaced
    # thermal inputs, built far above the cutoff and then truncated
    r, big, cutoff = 0.3, 24, 8
    al1, al2, nb1, nb2 = 0.2 + 0.1j, -0.15 + 0.25j, 0.1, 0.05
    a = lowering(big)
    a1, a2 = np.kron(a, np.eye(big)), np.kron(np.eye(big), a)
    u = expm(al1 * a1.T - np.conj(al1) * a1 + al2 * a2.T - np.conj(al2) * a2) \
        @ expm(r * (a1.T @ a2.T - a1 @ a2))
    pops = [(nb / (1 + nb)) ** np.arange(big) / (1 + nb) for nb in (nb1, nb2)]
    rho_big = u @ np.diag(np.kron(*pops)) @ u.conj().T
    idx = (np.arange(cutoff)[:, None] * big + np.arange(cutoff)[None, :]).ravel()
    block = rho_big[np.ix_(idx, idx)]
    block /= np.trace(block).real

    s = two_mode_squeezer(r)
    gs = GaussianState(np.sqrt(2) * np.array([al1.real, al1.imag, al2.real, al2.imag]),
                       s @ np.diag([2 * nb1 + 1] * 2 + [2 * nb2 + 1] * 2) @ s.T)
    rho = validate_density(gaussian_to_fock(gs, FockSpace(2, cutoff)))
    assert np.max(np.abs(rho.matrix - block)) <= 1e-12

    # correlated vacuum: moments return once the top-level defect of the
    # truncated quadratures is negligible
    vac = GaussianState(np.zeros(4), s @ s.T)
    table = moments(gaussian_to_fock(vac, FockSpace(2, 10)))
    np.testing.assert_allclose(table.gamma, vac.gamma, atol=1e-8)
    np.testing.assert_allclose(table.d, 0.0, atol=1e-8)


# --- the single splitter-output core ---------------------------------------


def test_witness_equals_experiment_epsilon():
    space = FockSpace(1, 8)
    rho = mixture([(0.7, vacuum(space)), (0.3, fock_state(space, 1))])
    rep = run_experiment(rho, rho, 0.6, seed=0, strict=False)
    assert nongaussianity_witness(rho, 0.6) == rep.epsilon


@pytest.mark.parametrize("n, cutoff", [(1, 8), (2, 3)])
def test_cross_cov_matrix_matches_dense_reference(n, cutoff):
    from bosonic_ds.fock import quadratures
    from bosonic_ds.stability import _cross_cov_matrix

    rng = np.random.default_rng(11)
    pair = FockSpace(2 * n, cutoff)
    a = rng.normal(size=(pair.dim, pair.dim)) + 1j * rng.normal(size=(pair.dim, pair.dim))
    g = (a + a.conj().T) / pair.dim
    quads = [q.matrix for q in quadratures(pair)]
    theta = 0.6
    ref = np.array([[np.trace(g @ r1 @ r2) for r2 in quads[2 * n:]]
                    for r1 in quads[:2 * n]]) / math.tan(theta)
    v = _cross_cov_matrix(g, pair, theta)
    assert np.max(np.abs(v - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _mixture_spec(*components):
    return {"kind": "mixture", "components": [
        {"weight": w, "state": name} for w, name in components]}


@pytest.mark.parametrize("spec1, spec2, modes, cutoff, rank", [
    ("thermal:0.3", "thermal:0.2", 1, 10, 100),
    ("squeezed:0.3", "squeezed:0.3", 1, 16, 1),
    (_mixture_spec((0.9, "vacuum"), (0.1, "fock:1,0")),
     _mixture_spec((0.6, "vacuum"), (0.2, "fock:0,1"), (0.2, "fock:1,1")),
     2, 4, 6),
], ids=["full-rank-thermals", "rank-1-squeezed-witness", "two-modes-per-arm"])
def test_pair_output_matches_dense_reference(spec1, spec2, modes, cutoff, rank):
    # rho_ab = W diag(p) W* from the inputs' eigenpairs agrees with the dense
    # U (rho1 x rho2) U*
    from bosonic_ds.states import parse_state_spec

    space = FockSpace(modes, cutoff)
    r1, r2 = parse_state_spec(spec1, space), parse_state_spec(spec2, space)
    theta = 0.6
    out = pair_output(r1, r2, theta)
    ref = evolve(tensor(r1, r2),
                 beam_splitter_unitary(FockSpace(2 * modes, cutoff), theta))
    g = ref.matrix - np.kron(partial_trace(ref, "first").matrix,
                             partial_trace(ref, "second").matrix)
    eps = float(np.sum(np.abs(np.linalg.eigvalsh(g))))
    w, p = out.factor
    assert w.shape == (space.dim ** 2, rank)
    assert np.max(np.abs((w * p) @ w.conj().T - ref.matrix)) <= 1e-14
    assert np.max(np.abs(out.rho_a.matrix - partial_trace(ref, "first").matrix)) <= 1e-14
    assert np.max(np.abs(out.rho_b.matrix - partial_trace(ref, "second").matrix)) <= 1e-14
    assert np.max(np.abs(out.g - g)) <= 1e-14
    assert out.epsilon == pytest.approx(eps, rel=1e-13)


def test_report_v_matches_cross_covariance_V():
    # a mixed input that is not number-diagonal: the report's V is read from
    # the dense g, bit for bit
    space = FockSpace(1, 8)
    r1 = _displaced_mixture(space, 0.5)
    r2 = thermal_state(space, 0.2)
    theta = 0.7
    rep = run_experiment(r1, r2, theta, seed=2, strict=False)
    rho_ab = output_density(pair_output(r1, r2, theta))
    res = cross_covariance_V(rho_ab, partial_trace(rho_ab, "first"),
                             partial_trace(rho_ab, "second"), theta,
                             kappa=rep.kappa, epsilon=rep.epsilon)
    np.testing.assert_array_equal(rep.v, res.v)
    assert rep.v_norm == res.norm
    assert rep.v_bound == res.bound


def _displaced_mixture(space, weight):
    """``weight`` of displaced:0.5,0.3 and the rest vacuum: mixed, and not
    number-diagonal."""
    return mixture([(weight, parse_state_spec("displaced:0.5,0.3", space)),
                    (1.0 - weight, vacuum(space))])


def test_gaussify_fails_before_the_splitter(monkeypatch):
    # a two-mode-squeezed input cut hard at cutoff 5 fails in gaussify,
    # before U is built
    from bosonic_ds import stability
    from bosonic_ds.symplectic import two_mode_squeezer

    def no_splitter(*args):
        raise AssertionError("beam splitter built before gaussify")

    monkeypatch.setattr(stability, "beam_splitter_unitary", no_splitter)
    tms = two_mode_squeezer(0.3)
    space = FockSpace(2, 5)
    rho1 = gaussian_to_fock(GaussianState(np.zeros(4), tms @ tms.T), space)
    with pytest.raises(UncertaintyViolationError):
        run_experiment(rho1, vacuum(space), np.pi / 4, seed=0)


@pytest.mark.parametrize("bad_first", [True, False], ids=["state1", "state2"])
def test_gaussify_failure_names_the_input(bad_first):
    # the uncertainty violation says which input failed, and at what cutoff
    from bosonic_ds.symplectic import two_mode_squeezer

    tms = two_mode_squeezer(0.3)
    space = FockSpace(2, 5)
    bad = gaussian_to_fock(GaussianState(np.zeros(4), tms @ tms.T), space)
    pair = (bad, vacuum(space)) if bad_first else (vacuum(space), bad)
    label = "state1" if bad_first else "state2"
    with pytest.raises(UncertaintyViolationError,
                       match=f"^{label} at cutoff 5: gaussified covariance"):
        run_experiment(*pair, np.pi / 4, seed=0)


# --- epsilon on the exact zero blocks of g -----------------------------------


@pytest.mark.parametrize("g, expected", [
    ([[0, 1j], [-1j, 0]], 2.0),                   # zero diagonal
    ([[1, 0.5, 0], [0, 2, 0], [0, 0, -3]], 6.0),  # upper entry, no lower mirror
    ([[1, 0, 0], [0.5, 2, 0], [0, 0, -3]], None),
], ids=["zero-diagonal", "upper-only", "lower-only"])
def test_block_epsilon_on_small_patterns(g, expected):
    # blocks are principal (off-diagonal 1 x 1 blocks would read 0 for the
    # first case), and eigvalsh reads the same stored lower triangle of
    # each block as of the whole matrix
    g = np.array(g, dtype=complex)
    dense = float(np.sum(np.abs(np.linalg.eigvalsh(g))))
    assert _hermitian_trace_norm(g) == pytest.approx(dense, rel=1e-15)
    if expected is not None:
        assert dense == pytest.approx(expected, rel=1e-15)


def _one_mode_pair(spec, cutoff):
    space = FockSpace(1, cutoff)
    return (parse_state_spec(spec, space),
            mixture([(0.7, vacuum(space)), (0.3, fock_state(space, 1))]))


def _two_mode_mixture_pair():
    space = FockSpace(2, 4)
    return (mixture([(0.6, fock_state(space, (0, 0))),
                     (0.4, fock_state(space, (1, 2)))]),
            mixture([(0.5, fock_state(space, (0, 1))),
                     (0.5, fock_state(space, (2, 0)))]))


@pytest.mark.parametrize("make, several", [
    (lambda: _one_mode_pair("fock:2", 12), True),
    (lambda: _one_mode_pair("thermal:0.5", 12), True),
    (lambda: _one_mode_pair("squeezed:0.3", 16), True),
    (lambda: _one_mode_pair("displaced:0.6,-0.4", 14), False),
    (_two_mode_mixture_pair, True),
], ids=["fock", "thermal", "squeezed", "displaced", "two-modes-per-arm"])
def test_block_epsilon_matches_dense_eigenvalues(make, several):
    rho1, rho2 = make()
    out = pair_output(rho1, rho2, 0.6)
    dense = float(np.sum(np.abs(np.linalg.eigvalsh(out.g))))
    assert out.epsilon == pytest.approx(dense, rel=1e-13)
    pattern = out.g != 0
    np.fill_diagonal(pattern, True)
    assert (len(block_groups(pattern)) > 1) == several


def test_block_epsilon_skips_zero_lines(monkeypatch):
    # random Hermitian blocks on scattered lines, every other line all zero:
    # one eigvalsh call per block, none for the zero lines
    rng = np.random.default_rng(8)
    n = 40
    lines = rng.permutation(n)
    g = np.zeros((n, n), dtype=complex)
    blocks = [lines[0:3], lines[3:4], lines[4:9]]
    for idx in blocks:
        a = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
        g[np.ix_(idx, idx)] = a + a.conj().T
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    eps = _hermitian_trace_norm(g)
    monkeypatch.undo()
    dense = float(np.sum(np.abs(np.linalg.eigvalsh(g))))
    assert eps == pytest.approx(dense, rel=1e-14)
    assert sorted(calls) == sorted((len(idx),) * 2 for idx in blocks)


def test_block_epsilon_of_zero_g_is_zero():
    assert _hermitian_trace_norm(np.zeros((9, 9), dtype=complex)) == 0.0
    out = pair_output(vacuum(FockSpace(1, 8)), vacuum(FockSpace(1, 8)), 0.6)
    assert not np.any(out.g) and out.epsilon == 0.0


@pytest.mark.parametrize("modes, cutoff", [(1, 10), (2, 4)])
def test_output_moments_from_the_arms(modes, cutoff):
    # every axis of the output lives in one arm: the report's trace of
    # Gamma_out matches the moments of the whole output, and its kappa lies
    # above every axis fourth moment of the whole output
    space = FockSpace(modes, cutoff)
    first = (1,) if modes == 1 else (1, 0)
    rho1 = mixture([(0.8, vacuum(space)), (0.2, fock_state(space, first))])
    rho2 = mixture([(0.6, vacuum(space)), (0.4, fock_state(space, first[::-1]))])
    rep = run_experiment(rho1, rho2, 0.6, seed=0, strict=False)
    rho = output_density(pair_output(rho1, rho2, 0.6))
    assert rep.trace_gamma_out == pytest.approx(np.trace(moments(rho).gamma),
                                                rel=1e-14)
    assert rep.kappa >= np.max(axis_fourth_moments(rho))


# --- epsilon of a pure output from its Schmidt coefficients ----------------


@pytest.mark.parametrize("schmidt_rank", [1, 2, 5])
def test_schmidt_epsilon_of_a_maximally_entangled_state(schmidt_rank):
    # psi = I / sqrt(D): rho_a x rho_b = I / D^2 and |g|_1 = 2 - 2 / D^2
    psi = np.eye(schmidt_rank) / math.sqrt(schmidt_rank)
    vec = psi.reshape(-1)
    g = np.outer(vec, vec) - np.eye(schmidt_rank ** 2) / schmidt_rank ** 2
    dense = float(np.sum(np.abs(np.linalg.eigvalsh(g))))
    eps = _schmidt_trace_norm(psi)
    assert eps == pytest.approx(2.0 - 2.0 / schmidt_rank ** 2, rel=1e-14, abs=1e-15)
    assert eps == pytest.approx(dense, rel=1e-14, abs=1e-15)


_TMS = two_mode_squeezer(0.2)


@pytest.mark.parametrize("spec1, spec2, modes, cutoff", [
    ("vacuum", "vacuum", 1, 8),
    ("fock:1", "vacuum", 1, 8),
    ("fock:2", "fock:2", 1, 24),
    ("squeezed:0.29", "squeezed:0.29", 1, 32),
    ("displaced:0.6,-0.5", "displaced:0.6,-0.5", 1, 28),
    ("fock:1,0", "vacuum", 2, 6),
    ({"kind": "gaussian", "d": [0.3, 0.0, 0.0, -0.2],
      "gamma": (_TMS @ _TMS.T).tolist()}, "vacuum", 2, 6),
], ids=["vacuum", "fock-1-vacuum", "fock-2", "squeezed", "displaced",
        "two-modes-fock", "two-modes-gaussian"])
def test_pure_pair_epsilon_from_schmidt_coefficients(monkeypatch, spec1, spec2,
                                                     modes, cutoff):
    # both inputs pure (r = 1): no eigensolve on the pair space, and the
    # closed form agrees with the block eigenvalues of g
    from bosonic_ds import stability

    space = FockSpace(modes, cutoff)
    rho1, rho2 = parse_state_spec(spec1, space), parse_state_spec(spec2, space)

    def no_dense(g):
        raise AssertionError("pure pair took the dense eigensolve")

    monkeypatch.setattr(stability, "_hermitian_trace_norm", no_dense)
    out = pair_output(rho1, rho2, 0.6)
    monkeypatch.undo()
    assert out.factor[0].shape[1] == 1
    dense = _hermitian_trace_norm(out.g)
    if spec1 == "vacuum":
        assert out.epsilon == dense == 0.0
    assert abs(out.epsilon - dense) <= max(1e-12 * dense, 1e-14)


def test_rank_two_pair_epsilon_takes_the_block_path(monkeypatch):
    from bosonic_ds import stability

    def no_schmidt(psi):
        raise AssertionError("mixed pair took the Schmidt closed form")

    monkeypatch.setattr(stability, "_schmidt_trace_norm", no_schmidt)
    space = FockSpace(1, 10)
    rho1 = _displaced_mixture(space, 0.1)
    out = pair_output(rho1, vacuum(space), 0.6)
    assert out.factor[0].shape[1] == 2
    assert out.epsilon == _hermitian_trace_norm(out.g)


_DISPLACED_MIXTURE = {"kind": "mixture", "components": [
    {"weight": 0.5, "state": "displaced:0.5,0.3"}, {"weight": 0.5, "state": "vacuum"}]}


@pytest.mark.parametrize("spec, dense", [
    ("fock:2", False), ("displaced:0.5,0.3", False), ("thermal:0.3", False),
    pytest.param(_DISPLACED_MIXTURE, True, id="displaced-mixture-True"),
])
def test_witness_reduces_only_a_mixed_output(monkeypatch, spec, dense):
    # a pure witness takes epsilon from the output vector and a
    # number-diagonal one from the sector blocks, and neither forms a
    # reduction of the pair space; any other mixed one still needs g
    from bosonic_ds import stability

    calls = {"partial_trace": 0, "leak_flags": 0}
    for name in calls:
        original = getattr(stability, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stability, name, counted)
    rho = parse_state_spec(spec, FockSpace(1, 12))
    nongaussianity_witness(rho, 0.6)
    if dense:
        assert calls == {"partial_trace": 2, "leak_flags": 1}
    else:
        assert calls == {"partial_trace": 0, "leak_flags": 0}


@pytest.mark.parametrize("first", ["g", "epsilon", "rho_a"])
def test_pair_output_members_do_not_depend_on_read_order(first):
    space = FockSpace(1, 10)
    rho1 = mixture([(0.9, vacuum(space)), (0.1, fock_state(space, 1))])
    rho2 = thermal_state(space, 0.2)
    ref = pair_output(rho1, rho2, 0.6)
    out = pair_output(rho1, rho2, 0.6)
    getattr(out, first)
    np.testing.assert_array_equal(out.rho_a.matrix, ref.rho_a.matrix)
    np.testing.assert_array_equal(out.rho_b.matrix, ref.rho_b.matrix)
    np.testing.assert_array_equal(out.g, ref.g)
    assert out.flags == ref.flags
    assert out.epsilon == ref.epsilon


@pytest.mark.parametrize("modes", [10 ** 9, 10 ** 400], ids=["1e9", "1e400"])
def test_memory_check_never_forms_a_huge_pair_dim(modes):
    import reprlib
    import time

    from bosonic_ds.stability import _check_pair_fits

    start = time.perf_counter()
    with pytest.raises(ValidationError) as exc:
        _check_pair_fits(FockSpace(2 * modes, 4))
    assert time.perf_counter() - start < 1.0
    assert str(exc.value).startswith(
        f"pair dim 4^{reprlib.repr(2 * modes)} ({reprlib.repr(modes)} modes per "
        "arm, cutoff 4) needs about inf GiB")
    assert len(str(exc.value)) < 200


def test_dense_pairs_and_the_experiment_keep_the_dense_count(monkeypatch):
    # the pair of a mixture with a displaced state takes the dense path, so
    # its witness counts dense matrices where a number-diagonal one would not
    from bosonic_ds.states import displaced_vacuum

    monkeypatch.setattr("bosonic_ds.stability._physical_memory", lambda: 32 * 2 ** 20)
    space = FockSpace(1, 30)
    nongaussianity_witness(thermal_state(space, 0.3), 0.6)
    rho = mixture([(0.5, displaced_vacuum(space, np.array([0.5, 0.3]))),
                   (0.5, thermal_state(space, 0.3))])
    with pytest.raises(ValidationError, match="GiB of dense matrices"):
        nongaussianity_witness(rho, 0.6)
    # the experiment's kappa factor may be full rank, whatever its inputs
    with pytest.raises(ValidationError, match="GiB of dense matrices"):
        run_experiment(thermal_state(space, 0.3), thermal_state(space, 0.2), 0.6)


def test_experiment_names_the_sector_count_on_a_number_diagonal_pair(monkeypatch):
    # at cutoff 30 the sector arrays ask for 5 MB and the dense matrices for
    # 117 MB: with 1 MiB neither fits, and the pair's constructor refuses
    # first, naming the sector-array guard that every pair passes
    monkeypatch.setattr("bosonic_ds.stability._physical_memory", lambda: 2 ** 20)
    space = FockSpace(1, 30)
    with pytest.raises(ValidationError, match="GiB of sector arrays"):
        run_experiment(thermal_state(space, 0.3), thermal_state(space, 0.2), 0.6)


# --- number-diagonal pairs, per photon-number sector ------------------------


def _dense_oracle(out, theta):
    """epsilon, rho_a, rho_b, the output flags and V of a ``pair_output``,
    from the dense rho_ab its factor builds."""
    from bosonic_ds.fock import leak_flags

    rho_ab = output_density(out)
    rho_a, rho_b = partial_trace(rho_ab, "first"), partial_trace(rho_ab, "second")
    g = rho_ab.matrix - np.kron(rho_a.matrix, rho_b.matrix)
    return (_hermitian_trace_norm(g), rho_a.matrix, rho_b.matrix,
            leak_flags(rho_ab, "output"),
            cross_covariance_V(rho_ab, rho_a, rho_b, theta).v)


def _assert_sectors_match_dense(rho1, rho2, theta):
    out = pair_output(rho1, rho2, theta)
    eps, rho_a, rho_b, flags, v = _dense_oracle(out, theta)
    # the sector members, whichever path the pair takes
    s_rho_a, s_rho_b, s_flags, s_eps, s_v = out._sectors
    for got, ref in ((s_eps, eps), (s_rho_a.matrix, rho_a), (s_rho_b.matrix, rho_b),
                     (s_v, v)):
        assert np.all(np.abs(got - ref) <= np.maximum(1e-13 * np.abs(ref), 1e-15))
    assert s_flags == flags
    return out, s_eps, eps


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("workload", ["dsrun-1mode", "dsrun-2mode"])
def test_sector_path_matches_dense_on_benchmark_cases(monkeypatch, workload, seed):
    for rho1, rho2, theta in benchmark_pairs(monkeypatch, workload, seed):
        out, _, _ = _assert_sectors_match_dense(rho1, rho2, theta)
        assert out.path == "sectors"


def _fock_mixture(space, *components):
    return mixture([(w, fock_state(space, levels)) for w, levels in components])


@pytest.mark.parametrize("make, theta", [
    # 1, 2 and 3 modes per arm
    (lambda: (thermal_state(FockSpace(1, 12), 0.3),
              _fock_mixture(FockSpace(1, 12), (0.7, 0), (0.3, 2))), 0.6),
    (lambda: (_fock_mixture(FockSpace(2, 4), (0.6, (0, 0)), (0.4, (1, 2))),
              _fock_mixture(FockSpace(2, 4), (0.5, (0, 1)), (0.5, (2, 0)))), 0.9),
    (lambda: (_fock_mixture(FockSpace(3, 3), (0.5, (0, 0, 0)), (0.3, (1, 0, 2)),
                            (0.2, (0, 2, 1))),
              _fock_mixture(FockSpace(3, 3), (0.6, (0, 1, 0)), (0.4, (2, 2, 2)))), 0.7),
    # equal (1, 0) and (0, 1) weights: degenerate populations
    (lambda: (_fock_mixture(FockSpace(2, 4), (0.4, (0, 0)), (0.3, (1, 0)), (0.3, (0, 1))),
              _fock_mixture(FockSpace(2, 4), (0.5, (0, 0)), (0.5, (1, 1)))), 0.5),
    # weight on the top levels, where the sectors are clipped
    (lambda: (thermal_state(FockSpace(1, 8), 2.0),
              _fock_mixture(FockSpace(1, 8), (0.5, 7), (0.5, 6))), 0.5),
    (lambda: (_fock_mixture(FockSpace(1, 8), (0.5, 7), (0.5, 0)),
              fock_state(FockSpace(1, 8), 7)), math.pi / 4),
], ids=["1-mode", "2-modes", "3-modes", "degenerate", "top-levels", "top-pi/4"])
def test_sector_path_matches_dense(make, theta):
    out, _, _ = _assert_sectors_match_dense(*make(), theta)
    assert out.path == "sectors"


@pytest.mark.parametrize("level, cutoff, theta", [(0, 8, 0.6), (7, 8, math.pi / 4)],
                         ids=["vacuum", "fock-7-top"])
def test_sector_epsilon_is_exactly_zero_on_a_product_output(level, cutoff, theta):
    # vacuum stays vacuum, and |7, 7> fills the one-state top sector at
    # cutoff 8: both outputs are products, so g is exactly 0 on either path
    rho = fock_state(FockSpace(1, cutoff), level)
    out, s_eps, eps = _assert_sectors_match_dense(rho, rho, theta)
    assert out.path == "schmidt" and s_eps == eps == out.epsilon == 0.0


@pytest.mark.parametrize("cutoff", [12, 26, 40])
@pytest.mark.parametrize("nbar", [0.3, 1.0])
def test_thermal_witness_reads_roundoff(cutoff, nbar):
    # thermal states are Gaussian: the sector blocks leave epsilon at a few
    # units of roundoff
    assert nongaussianity_witness(thermal_state(FockSpace(1, cutoff), nbar),
                                  0.6) < 1e-15


def _forbid(monkeypatch, owner, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense pair-space step on the sectors path")

    for name in names:
        monkeypatch.setattr(owner, name, forbidden)


def test_number_diagonal_witness_forms_no_pair_space_array(monkeypatch):
    from bosonic_ds import stability

    _forbid(monkeypatch, stability, "support", "apply_splitter",
            "_hermitian_trace_norm", "partial_trace")
    _forbid(monkeypatch, np, "kron")
    monkeypatch.setattr(stability.PairOutput, "_dense", property(
        lambda self: pytest.fail("dense g read on the sectors path")))
    rho = thermal_state(FockSpace(1, 16), 0.4)
    assert nongaussianity_witness(rho, 0.6) < 1e-15


def test_number_diagonal_ds_run_builds_the_factor_for_kappa_only(monkeypatch):
    from bosonic_ds import stability

    calls = []
    estimate = stability.estimate_kappa

    def counted(factor, space, **kwargs):
        calls.append(factor[0].shape)
        return estimate(factor, space, **kwargs)

    monkeypatch.setattr(stability, "estimate_kappa", counted)
    _forbid(monkeypatch, stability, "_hermitian_trace_norm", "partial_trace")
    monkeypatch.setattr(stability.PairOutput, "_dense", property(
        lambda self: pytest.fail("dense g read on the sectors path")))
    space = FockSpace(1, 10)
    rho1 = _fock_mixture(space, (0.8, 0), (0.2, 1))
    rep = run_experiment(rho1, thermal_state(space, 0.2), 0.6, seed=0, strict=False)
    assert calls == [(100, 20)]
    assert rep.v[0, 1] == rep.v[1, 0] == 0 and rep.v[0, 0] == rep.v[1, 1]


def test_mixed_pair_off_the_number_diagonal_takes_the_dense_path(monkeypatch):
    from bosonic_ds import stability

    _forbid(monkeypatch, stability, "sector_output")
    space = FockSpace(1, 10)
    out = pair_output(_displaced_mixture(space, 0.5), thermal_state(space, 0.2), 0.6)
    assert out.path == "dense"
    assert out.epsilon == _hermitian_trace_norm(out.g)


@pytest.mark.parametrize("spec, path", [
    ("vacuum", "schmidt"), ("fock:3", "schmidt"), ("squeezed:0.3", "schmidt"),
    ("thermal:0.3", "sectors"), (_DISPLACED_MIXTURE, "dense"),
])
def test_witness_path_follows_the_input(spec, path):
    rho = parse_state_spec(spec, FockSpace(1, 12))
    assert pair_output(rho, rho, 0.6).path == path
