import numpy as np
import pytest

from bosonic_ds.config import GridSpec
from bosonic_ds.errors import DimensionError, ValidationError
from bosonic_ds.fock import FockSpace, gaussian_to_fock, hs_norm, moments
from bosonic_ds.phase_space import (char_callable, char_function, char_grid,
                                    derivative_moments, ds_residual,
                                    parseval_distance, sigma_positivity_test)
from bosonic_ds.states import (displaced_vacuum, fock_state, thermal_state,
                               vacuum)
from bosonic_ds.symplectic import GaussianState

from conftest import random_low_energy_density


def fock1_char(xs):
    """Independent closed form for the one-photon characteristic function."""
    xs = np.atleast_2d(xs)
    n2 = np.sum(xs ** 2, axis=1)
    return (1 - n2 / 2) * np.exp(-n2 / 4)


# --- pointwise chi ---------------------------------------------------------


def test_char_at_origin(space14):
    assert char_function(vacuum(space14), np.zeros(2)) == pytest.approx(1.0)


def test_char_vacuum_closed_form(space14):
    rng = np.random.default_rng(0)
    vac = vacuum(space14)
    for _ in range(5):
        xi = rng.uniform(-2, 2, 2)
        assert char_function(vac, xi) == pytest.approx(
            np.exp(-np.sum(xi ** 2) / 4), abs=1e-6)


def test_char_fock1_closed_form(space14):
    rng = np.random.default_rng(1)
    f1 = fock_state(space14, 1)
    xs = rng.uniform(-2, 2, size=(8, 2))
    vals = np.array([char_function(f1, x) for x in xs])
    np.testing.assert_allclose(vals, fock1_char(xs), atol=1e-5)


# --- grids -----------------------------------------------------------------


def test_grid_origin_and_symmetry(space14):
    g = char_grid(fock_state(space14, 1), 6.0, 33)
    i0 = g.origin_index()
    assert g.values[i0, i0] == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(g.values, np.conj(g.values[::-1, ::-1]), atol=1e-8)


def test_grid_matches_pointwise(space14):
    rho = thermal_state(space14, 0.5)
    g = char_grid(rho, 4.0, 17)
    ax = g.axis()
    for i in (0, 5, 16):
        for j in (2, 8):
            assert g.values[i, j] == pytest.approx(
                char_function(rho, np.array([ax[i], ax[j]])), abs=1e-12)


def test_grid_boundary_flag(space14):
    g = char_grid(vacuum(space14), 1.0, 9)
    assert any(f.startswith("chi:boundary") for f in g.flags)
    g = char_grid(vacuum(space14), 8.0, 33)
    assert not any(f.startswith("chi:boundary") for f in g.flags)


# --- parseval --------------------------------------------------------------


def test_parseval_identical_is_zero(space14):
    g = char_grid(vacuum(space14), 6.0, 97)
    assert parseval_distance(g, g) == 0.0


def test_parseval_orthogonal_pure_states(space14):
    g0 = char_grid(vacuum(space14), 6.0, 97)
    g1 = char_grid(fock_state(space14, 1), 6.0, 97)
    assert parseval_distance(g0, g1) == pytest.approx(2.0, abs=1e-3)


def test_parseval_matches_operator_side(space14):
    rng = np.random.default_rng(12)
    for _ in range(4):
        r1 = random_low_energy_density(rng, space14, top=3)
        r2 = random_low_energy_density(rng, space14, top=3)
        g1 = char_grid(r1, 6.0, 97)
        g2 = char_grid(r2, 6.0, 97)
        quad = parseval_distance(g1, g2)
        hs2 = hs_norm(r1.matrix - r2.matrix) ** 2
        assert abs(quad - hs2) <= 1e-3 * (1 + hs2)


def test_two_mode_grid_and_parseval():
    # exercises the (2 pi)^n normalization and grid invariants at n = 2
    from bosonic_ds.fock import tensor

    one = FockSpace(1, 6)
    r1 = tensor(vacuum(one), fock_state(one, 1))
    r2 = tensor(fock_state(one, 1), vacuum(one))
    g1 = char_grid(r1, 5.0, 21)
    g2 = char_grid(r2, 5.0, 21)
    i0 = g1.origin_index()
    assert g1.values[i0, i0, i0, i0] == pytest.approx(1.0, abs=1e-10)
    quad = parseval_distance(g1, g2)
    hs2 = hs_norm(r1.matrix - r2.matrix) ** 2
    assert abs(quad - hs2) <= 1e-2 * (1 + hs2)


def test_parseval_geometry_mismatch(space14):
    g1 = char_grid(vacuum(space14), 6.0, 97)
    g2 = char_grid(vacuum(space14), 6.0, 65)
    with pytest.raises(DimensionError):
        parseval_distance(g1, g2)


# --- sigma positivity ------------------------------------------------------


def test_positivity_vacuum_passes(space14):
    rep = sigma_positivity_test(vacuum(space14), seed=21, n_sets=200)
    assert rep.passed
    assert rep.min_eigenvalue >= -1e-8


def test_positivity_single_point_always_passes():
    gs = GaussianState(np.zeros(2), np.eye(2) / 4)
    rep = sigma_positivity_test(gs, seed=3, set_sizes=(1,), n_sets=50)
    # 1x1 kernels are [chi(0)] = [1]
    assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_positivity_falsifies_subvacuum_gaussian():
    gs = GaussianState(np.zeros(2), np.eye(2) / 4)
    rep = sigma_positivity_test(gs, seed=3, search=True, max_trials=1000)
    assert rep.min_eigenvalue < -0.01
    assert rep.sets_evaluated <= 1000
    assert not rep.passed


def test_positivity_from_sampled_grid(space14):
    good = char_grid(vacuum(space14), 6.0, 97)
    rep = sigma_positivity_test(good, seed=4, n_sets=100)
    assert rep.passed and rep.min_eigenvalue >= -1e-8

    bad = char_grid(GaussianState(np.zeros(2), np.eye(2) / 4), 6.0, 97,
                    n_modes=1)
    rep = sigma_positivity_test(bad, seed=4, search=True, max_trials=1000)
    assert rep.min_eigenvalue < -0.01
    # reported points must be actual grid nodes
    steps = rep.point_set / bad.step
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)


# --- marginals -------------------------------------------------------------


def classical_marginal(source, direction, ts):
    """chi(t u) along a unit direction u: the characteristic function of the
    classical marginal distribution of u . R."""
    return char_callable(source)(np.asarray(ts, dtype=float)[:, None]
                                 * np.asarray(direction, dtype=float)[None, :])


def test_marginal_vacuum_any_direction(space14):
    rng = np.random.default_rng(6)
    ts = np.linspace(-3, 3, 31)
    vac = vacuum(space14)
    for _ in range(3):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        vals = classical_marginal(vac, u, ts)
        np.testing.assert_allclose(vals, np.exp(-ts ** 2 / 4), atol=1e-6)


def test_marginal_origin_is_one(space14):
    vals = classical_marginal(vacuum(space14), np.array([1.0, 0.0]), [0.0])
    assert vals[0] == pytest.approx(1.0)


def test_marginal_fock1_laguerre_form(space14):
    ts = np.linspace(-2.5, 2.5, 21)
    vals = classical_marginal(fock_state(space14, 1), np.array([1.0, 0.0]), ts)
    np.testing.assert_allclose(vals, fock1_char(np.column_stack([ts, 0 * ts])),
                               atol=1e-6)


def test_marginal_bounded_on_fixtures(fixture_states):
    rng = np.random.default_rng(17)
    ts = np.linspace(-4, 4, 41)
    for rho in fixture_states.values():
        for _ in range(20):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            vals = classical_marginal(rho, u, ts)
            assert np.max(np.abs(vals)) <= 1 + 1e-9
            np.testing.assert_allclose(vals, np.conj(vals[::-1]), atol=1e-9)


# --- derivative moments ----------------------------------------------------


def test_derivative_moments_vacuum(space14):
    d, gamma = derivative_moments(vacuum(space14))
    np.testing.assert_allclose(d, 0, atol=1e-5)
    np.testing.assert_allclose(gamma, np.eye(2), atol=1e-5)


def test_derivative_moments_displaced(space14):
    rho = displaced_vacuum(space14, [1.0, 0.0])
    d, gamma = derivative_moments(rho)
    np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-5)
    np.testing.assert_allclose(gamma, np.eye(2), atol=1e-4)


def test_derivative_moments_fock1(space14):
    _, gamma = derivative_moments(fock_state(space14, 1))
    np.testing.assert_allclose(gamma, 3 * np.eye(2), atol=1e-4)


def test_derivative_moments_agree_with_traces(fixture_states):
    for name, rho in fixture_states.items():
        d, gamma = derivative_moments(rho)
        table = moments(rho)
        assert np.max(np.abs(d - table.d)) <= 1e-4, name
        assert np.max(np.abs(gamma - table.gamma)) <= 1e-4, name


# --- factorization residual ------------------------------------------------


def test_residual_zero_for_identical_gaussians():
    space = FockSpace(1, 14)
    rho = gaussian_to_fock(GaussianState(np.zeros(2), 1.2 * np.eye(2)), space)
    res = ds_residual(rho, rho, 0.6, GridSpec(extent=2.5, points=9))
    assert res.max_abs <= 1e-6


def test_residual_detects_fock1(space14):
    f1 = fock_state(space14, 1)
    res = ds_residual(f1, f1, np.pi / 4, GridSpec(extent=2.5, points=9))
    assert res.max_abs > 0.05


def test_residual_transparent_splitter(space14):
    f1 = fock_state(space14, 1)
    th = thermal_state(space14, 0.5)
    res = ds_residual(f1, th, 0.0, GridSpec(extent=2.0, points=7))
    assert res.max_abs <= 1e-12


def test_residual_exclusion_counting(space14):
    f1 = fock_state(space14, 1)
    res = ds_residual(f1, f1, np.pi / 4, GridSpec(extent=2.0, points=7),
                      max_arg_norm=1.0)
    assert res.excluded > 0
    full = ds_residual(f1, f1, np.pi / 4, GridSpec(extent=2.0, points=7))
    assert full.excluded == 0
    assert res.max_abs <= full.max_abs


def test_residual_gaussian_closed_form_inputs():
    g1 = GaussianState(np.array([0.3, 0.1]), 1.5 * np.eye(2))
    g2 = GaussianState(np.array([-0.2, 0.4]), 1.5 * np.eye(2))
    res = ds_residual(g1, g2, np.pi / 3, GridSpec(extent=3.0, points=9), n_modes=1)
    assert res.max_abs <= 1e-12


def test_residual_of_bare_callables_needs_n_modes():
    with pytest.raises(ValidationError, match="n_modes"):
        ds_residual(fock1_char, fock1_char, 0.6, GridSpec(extent=2.0, points=3))
