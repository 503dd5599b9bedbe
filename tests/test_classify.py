import math

import numpy as np
import pytest

from bosonic_ds import classify
from bosonic_ds.classify import (build_canonical, decompose, find_witness,
                                 preserves_arbitrary, preserves_identical,
                                 split_blocks, symmetric_projector)
from bosonic_ds.config import DEFAULT_TOLERANCES
from bosonic_ds.errors import DimensionError, ValidationError
from bosonic_ds.symplectic import (OMEGA, beam_splitter, is_symplectic,
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


def _projector_residual(*products) -> float:
    """max |(sum of the Kronecker products) P+|, P+ formed in full."""
    dim = math.isqrt(products[0].shape[0])
    return float(np.max(np.abs(sum(products) @ symmetric_projector(dim))))


def _criterion_maps():
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        x, y = random_local_symplectic(n, rng), random_local_symplectic(n, rng)
        yield f"local-{n}", build_canonical(x, y, 0.0)
        yield f"swap-{n}", swap_matrix(2 * n)
        yield f"squeezer-{n}", two_mode_squeezer(0.4, n)
        for theta in (0.3, np.pi / 4, 1.1):
            yield f"beam-splitter-{n}-{theta:.2f}", beam_splitter(theta, n)
        for alpha in (0.5, -0.5, 3.0, -3.0, 1e7, math.inf):
            yield f"canonical-{n}-{alpha:g}", build_canonical(x, y, alpha)


@pytest.mark.parametrize("s", [pytest.param(s, id=name)
                               for name, s in _criterion_maps()])
def test_predicates_read_the_projector_criterion_entry_by_entry(monkeypatch, s):
    # the residual is the projector product's, bit for bit, and neither
    # predicate forms P+ or a Kronecker product of the blocks; np.kron serves
    # only the symplectic form
    a, b, c, d = split_blocks(s)
    identical = _projector_residual(np.kron(a, c), np.kron(b, d))
    arbitrary = max(_projector_residual(np.kron(a, c)),
                    _projector_residual(np.kron(b, d)))
    kron = np.kron

    def form_only(x, y):
        assert y is OMEGA, "a Kronecker product of the blocks was formed"
        return kron(x, y)

    def no_projector(dim):
        raise AssertionError("P+ was formed")

    monkeypatch.setattr(np, "kron", form_only)
    monkeypatch.setattr(classify, "symmetric_projector", no_projector)
    tol = 10 * DEFAULT_TOLERANCES.symplectic
    assert preserves_identical(s) == (identical <= tol, identical)
    assert preserves_arbitrary(s) == (arbitrary <= tol)


def test_residual_kernel_on_random_blocks():
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        a, b, c, d = (rng.standard_normal((2 * n, 2 * n)) for _ in range(4))
        assert classify._residual([(a, c), (b, d)]) == _projector_residual(
            np.kron(a, c), np.kron(b, d))
        assert classify._residual([(b, d)]) == _projector_residual(np.kron(b, d))


def test_preserves_identical_stays_small_at_d40():
    # P+ alone would be 40^2 x 40^2 doubles (19.5 MiB); with the two
    # Kronecker products the predicate peaked at 78 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        ok, residual = preserves_identical(np.eye(80))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and residual == 0.0
    assert peak <= 8 * 2 ** 20


def test_symplectic_check_runs_once_per_predicate(monkeypatch):
    calls = []
    defect = classify.symplectic_defect
    monkeypatch.setattr(classify, "symplectic_defect",
                        lambda s: calls.append(s) or defect(s))
    assert preserves_identical(beam_splitter(0.3, 2))[0]
    assert not preserves_arbitrary(beam_splitter(0.3, 2))
    assert len(calls) == 2
    # the shape is checked first, then symplecticity, in the same words
    with pytest.raises(DimensionError, match=r"^need a 4n x 4n matrix, got \(6, 6\)$"):
        preserves_arbitrary(2 * np.eye(6))
    for predicate in (preserves_identical, preserves_arbitrary):
        with pytest.raises(ValidationError,
                           match=r"^matrix is not symplectic \(defect 3\.000e\+00\)$"):
            predicate(np.diag([2.0, 2.0, 2.0, 2.0]))
