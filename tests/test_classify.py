import math

import numpy as np
import pytest

from bosonic_ds.classify import (build_canonical, decompose, find_witness,
                                 preserves_arbitrary, preserves_identical,
                                 symmetric_projector)
from bosonic_ds.errors import DimensionError, ValidationError
from bosonic_ds.symplectic import (beam_splitter, is_symplectic,
                                   random_local_symplectic, two_mode_squeezer)


def swap_matrix(n2: int = 2) -> np.ndarray:
    z = np.zeros((n2, n2))
    return np.block([[z, np.eye(n2)], [np.eye(n2), z]])


def test_symmetric_projector_properties():
    p = symmetric_projector(2)
    np.testing.assert_allclose(p @ p, p, atol=1e-14)
    np.testing.assert_allclose(p, p.T, atol=1e-14)
    assert np.trace(p) == pytest.approx(3.0)   # dim of Sym^2(R^2)


def test_preserves_identical_block_diagonal():
    rng = np.random.default_rng(0)
    x = random_local_symplectic(1, rng)
    y = random_local_symplectic(1, rng)
    s = np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), y]])
    ok, residual = preserves_identical(s)
    assert ok and residual <= 1e-12


def test_preserves_identical_beam_splitter():
    ok, residual = preserves_identical(beam_splitter(np.pi / 3, 1))
    assert ok and residual <= 1e-12


def test_preserves_identical_rejects_squeezer_with_witness():
    s = two_mode_squeezer(0.7)
    ok, _ = preserves_identical(s)
    assert not ok
    gamma, off = find_witness(s, seed=1)
    # direct check that the witness really correlates the arms
    doubled = np.block([[gamma, np.zeros((2, 2))], [np.zeros((2, 2)), gamma]])
    out = s @ doubled @ s.T
    assert np.max(np.abs(out[:2, 2:])) == pytest.approx(off)
    assert off > 1e-9


def test_preserves_arbitrary_examples():
    rng = np.random.default_rng(1)
    x = random_local_symplectic(1, rng)
    y = random_local_symplectic(1, rng)
    diag = np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), y]])
    assert preserves_arbitrary(diag)
    assert preserves_arbitrary(swap_matrix())
    assert not preserves_arbitrary(beam_splitter(np.pi / 4, 1))


def test_arbitrary_implies_identical():
    rng = np.random.default_rng(2)
    for _ in range(100):
        choice = rng.integers(0, 3)
        x = random_local_symplectic(1, rng)
        y = random_local_symplectic(1, rng)
        if choice == 0:
            s = np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), y]])
        elif choice == 1:
            s = swap_matrix() @ np.block([[x, np.zeros((2, 2))],
                                          [np.zeros((2, 2)), y]])
        else:
            s = build_canonical(x, y, rng.uniform(-3, 3))
        if preserves_arbitrary(s):
            ok, _ = preserves_identical(s)
            assert ok


def test_decompose_identity():
    res = decompose(np.eye(4))
    assert res.verdict == "local"
    assert res.alpha == 0.0
    np.testing.assert_allclose(res.blocks[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(res.blocks[1], np.eye(2), atol=1e-12)


def test_decompose_beam_splitter_gives_tan_theta():
    for theta in (np.pi / 8, np.pi / 4, 0.4):
        res = decompose(beam_splitter(theta, 1))
        assert res.verdict == "beam_splitter_like"
        assert res.alpha == pytest.approx(math.tan(theta), abs=1e-12)
        np.testing.assert_allclose(res.blocks[0], np.eye(2), atol=1e-10)


def test_decompose_swap():
    res = decompose(swap_matrix())
    assert res.verdict == "swap"
    assert math.isinf(res.alpha)
    np.testing.assert_allclose(build_canonical(*res.blocks, res.alpha),
                               swap_matrix(), atol=1e-12)


def test_decompose_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_local_symplectic(1, rng)
        y = random_local_symplectic(1, rng)
        alpha = rng.uniform(-5, 5)
        s = build_canonical(x, y, alpha)
        assert is_symplectic(s, 1e-10)
        res = decompose(s)
        assert abs(res.alpha - alpha) <= 1e-8
        assert res.reconstruction_residual <= 1e-9
        np.testing.assert_allclose(res.blocks[0], x, atol=1e-8)
        np.testing.assert_allclose(res.blocks[1], y, atol=1e-8)


def test_decompose_two_mode_blocks():
    rng = np.random.default_rng(4)
    x = random_local_symplectic(2, rng)
    y = random_local_symplectic(2, rng)
    s = build_canonical(x, y, -1.7)
    res = decompose(s)
    assert res.verdict == "beam_splitter_like"
    assert res.alpha == pytest.approx(-1.7, abs=1e-10)


def test_decompose_near_singular_a_uses_stable_branch():
    rng = np.random.default_rng(5)
    x = random_local_symplectic(1, rng)
    y = random_local_symplectic(1, rng)
    for alpha in (1e9, -3e10):
        s = build_canonical(x, y, alpha)
        res = decompose(s)
        assert res.verdict == "beam_splitter_like"
        assert res.alpha == pytest.approx(alpha, rel=1e-6)
        assert res.reconstruction_residual <= 1e-9


def test_decompose_huge_alpha_is_swap():
    rng = np.random.default_rng(6)
    x = random_local_symplectic(1, rng)
    y = random_local_symplectic(1, rng)
    s = build_canonical(x, y, 1e13)
    res = decompose(s)
    assert res.verdict == "swap"


def test_decompose_rejects_squeezer_with_witness():
    res = decompose(two_mode_squeezer(0.5), seed=7)
    assert res.verdict == "not_preserving"
    assert res.witness_gamma is not None
    assert res.witness_offdiag > 1e-8
    assert res.blocks is None


def test_non_symplectic_input_raises():
    with pytest.raises(ValidationError):
        preserves_identical(np.diag([2.0, 2.0, 2.0, 2.0]))
    with pytest.raises(DimensionError):
        decompose(np.eye(6))


def test_result_serialization():
    res = decompose(beam_splitter(np.pi / 4, 1))
    d = res.to_dict()
    assert d["verdict"] == "beam_splitter_like"
    assert d["alpha"] == pytest.approx(1.0)
    assert not d["alpha_infinite"]
    res = decompose(swap_matrix())
    d = res.to_dict()
    assert d["alpha"] is None and d["alpha_infinite"]


@pytest.mark.parametrize("diagonal", [(1e5, 1e-5), (1e300, 1e-300)],
                         ids=["1e5", "1e300"])
def test_decompose_strongly_squeezed_local_map(diagonal):
    # cond(A) is far above 1e8, but B = 0: the branch follows the larger of
    # A and B, never a solve with B
    x = np.diag(diagonal)
    res = decompose(build_canonical(x, np.eye(2), 0.0))
    assert res.verdict == "local" and res.alpha == 0.0
    np.testing.assert_array_equal(res.blocks[0], x)
    np.testing.assert_array_equal(res.blocks[1], np.eye(2))

