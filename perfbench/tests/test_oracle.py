import math

import numpy as np
import pytest

import oracle


def test_two_photon_interference_at_50_50():
    p = oracle.fock_populations((1,), 4)
    out = oracle.splitter_output(p, p, math.pi / 4)
    assert out.cut == 0.0
    assert oracle.epsilon(out) == pytest.approx(1.5, abs=1e-12)
    psi = oracle.pair_amplitudes(1, 1, math.pi / 4, 4)
    expected = np.zeros((4, 4))
    expected[2, 0], expected[0, 2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert np.allclose(np.abs(psi), np.abs(expected), atol=1e-15)


def test_equal_thermal_pair_stays_product():
    p = oracle.thermal_populations(0.2, 20)
    out = oracle.splitter_output(p, p, 0.7)
    assert out.cut < 1e-13
    assert oracle.epsilon(out) < 1e-12


def test_hand_built_two_level_case():
    a, b, t = 0.3, 0.4, 0.6
    c, s = math.cos(t), math.sin(t)
    out = oracle.splitter_output(np.array([1 - a, a]), np.array([1 - b, b]), t)
    # |1,1> needs sector 2, which two levels per mode cannot hold.
    assert out.cut == pytest.approx(a * b)
    # Basis |j1 j2>: 00, 01, 10, 11.  |1,0> -> c|1,0> + s|0,1>,
    # |0,1> -> -s|1,0> + c|0,1>.
    psi10 = np.array([0, s, c, 0])
    psi01 = np.array([0, c, -s, 0])
    want = (a * (1 - b) * np.outer(psi10, psi10) + (1 - a) * b * np.outer(psi01, psi01))
    want[0, 0] = (1 - a) * (1 - b)
    assert np.allclose(out.rho, want, atol=1e-15)
    # Level 1 is the top level, where <a a+ + a+ a> = D - 1 = 1.
    assert np.allclose(oracle.gamma_diag(np.array([1 - a, a])), np.eye(2))


def test_pair_amplitudes_are_normalized_and_conserve_photons():
    for m, k in [(0, 3), (2, 2), (4, 1), (5, 6)]:
        psi = oracle.pair_amplitudes(m, k, 0.9, 12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        j1, j2 = np.nonzero(psi)
        assert set(j1 + j2) == {m + k}


def test_truncated_moments():
    p = oracle.fock_populations((2,), 6)
    assert np.allclose(oracle.gamma_diag(p), 5 * np.eye(2))
    assert oracle.max_axis_fourth_moment(p) == pytest.approx((6 * 4 + 6 * 2 + 3) / 4)
    two = oracle.fock_populations((1, 0), 4)
    assert np.allclose(np.diag(oracle.gamma_diag(two)), [3, 3, 1, 1])


def test_thermal_distance_is_zero_for_thermal_states():
    assert oracle.thermal_distance(oracle.thermal_populations(0.4, 40)) < 1e-12
    p = oracle.fock_populations((1,), 8)
    ref = oracle.thermal_populations(1.0, 8)
    want = np.linalg.norm(p - ref)
    assert oracle.thermal_distance(p) == pytest.approx(want)


def test_two_mode_output_factors_over_mode_pairs():
    # Arm 1 excites mode 1 and arm 2 mode 2, so each mode pair carries one
    # photon and the arm reductions are products of the pair reductions.
    p1 = oracle.fock_populations((1, 0), 3)
    p2 = oracle.fock_populations((0, 1), 3)
    out = oracle.splitter_output(p1, p2, 0.4)
    assert out.cut == 0.0
    assert np.trace(out.rho) == pytest.approx(1.0)
    one = oracle.fock_populations((1,), 3)
    zero = oracle.fock_populations((0,), 3)
    pair1 = oracle.reductions(oracle.splitter_output(one, zero, 0.4))
    pair2 = oracle.reductions(oracle.splitter_output(zero, one, 0.4))
    rho_a, rho_b = oracle.reductions(out)
    assert np.allclose(rho_a, np.kron(pair1[0], pair2[0]), atol=1e-15)
    assert np.allclose(rho_b, np.kron(pair1[1], pair2[1]), atol=1e-15)
