import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from bosonic_ds import fock
from bosonic_ds.errors import (CalibrationError, DimensionError,
                               UncertaintyViolationError, ValidationError)
from bosonic_ds.fock import (_KAPPA_BATCH_ENTRIES, FockOperator, FockSpace,
                             _boxed_rows, _calibrate_beam_splitter,
                             _gram_trace_norm_bounds, _head_bounds,
                             _kappa_blocks, _kappa_products, _kappa_values,
                             _level_tops, _quadrature_norms, _row_order,
                             _sector_grid, _transport_defects,
                             apply_quadratures, apply_splitter,
                             beam_splitter_unitary, block_groups,
                             certified_levels,
                             char_batch, density, displacement_elements,
                             estimate_kappa, evolve,
                             gaussian_to_fock, gaussify, hs_norm,
                             leak_population, moments, pair_blocks,
                             partial_trace, quadratures, safe_extent, support,
                             tensor, trace_norm, validate_density,
                             weyl_alphas, weyl_operator)
from bosonic_ds.stability import pair_output
from bosonic_ds.states import (displaced_vacuum, fock_state, mixture,
                               parse_state_spec,
                               squeezed_surrogate, thermal_state, vacuum)
from bosonic_ds.symplectic import (GaussianState, beam_splitter,
                                   symplectic_form, transform_gaussian)

from conftest import (axis_fourth_moments, benchmark_pairs, output_density,
                      random_low_energy_density)


def lowering(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1)


# --- quadratures -----------------------------------------------------------


def test_quadrature_matrix_cutoff_two():
    q, p = quadratures(FockSpace(1, 2))
    np.testing.assert_allclose(q.matrix, np.array([[0, 1], [1, 0]]) / np.sqrt(2),
                               atol=1e-15)
    np.testing.assert_allclose(p.matrix, np.array([[0, -1j], [1j, 0]]) / np.sqrt(2),
                               atol=1e-15)


def test_vacuum_quadrature_variance():
    q, _ = quadratures(FockSpace(1, 2))
    assert (q.matrix @ q.matrix)[0, 0].real == pytest.approx(0.5)


def test_commutator_on_vacuum():
    q, p = quadratures(FockSpace(1, 3))
    comm = q.matrix @ p.matrix - p.matrix @ q.matrix
    assert comm[0, 0] == pytest.approx(1j)


def test_commutator_below_truncation():
    space = FockSpace(1, 10)
    q, p = quadratures(space)
    comm = q.matrix @ p.matrix - p.matrix @ q.matrix
    np.testing.assert_allclose(comm[:-1, :-1], 1j * np.eye(9), atol=1e-14)


def _dense_quadratures(n, d):
    """(Q1, P1, ..., Qn, Pn) as Kronecker products of the local lowering."""
    a = lowering(d)
    one_mode = [(a + a.T) / np.sqrt(2), -1j * (a - a.T) / np.sqrt(2)]
    return [np.kron(np.kron(np.eye(d ** mode), op), np.eye(d ** (n - mode - 1)))
            for mode in range(n) for op in one_mode]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_quadratures_matches_dense_kronecker(n, d):
    # each mode is a shift by its stride on the flat index; the top level
    # and the step from one block of a mode's levels into the next are where
    # a shift could reach the wrong state
    space = FockSpace(n, d)
    quads = _dense_quadratures(n, d)
    rng = np.random.default_rng(10 * n + d)
    x = rng.normal(size=(3, d ** n)) + 1j * rng.normal(size=(3, d ** n))
    for c in [*np.eye(2 * n), rng.normal(size=2 * n)]:
        dense = x @ sum(ck * r for ck, r in zip(c, quads))
        np.testing.assert_allclose(apply_quadratures(x, c, space), dense,
                                   rtol=0, atol=1e-14)


def test_apply_quadratures_batch_equals_single_calls():
    space = FockSpace(3, 3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 27)) + 1j * rng.normal(size=(4, 27))
    cs = rng.normal(size=(5, 6))
    cs[1, :2] = 0.0   # one row skips a mode the others use
    cs[:, 4:] = 0.0   # every row skips the last mode
    singles = np.array([apply_quadratures(x, c, space) for c in cs])
    assert np.array_equal(apply_quadratures(x[None], cs, space), singles)
    xs = rng.normal(size=(5, 4, 27)) + 1j * rng.normal(size=(5, 4, 27))
    singles = np.array([apply_quadratures(xk, c, space) for xk, c in zip(xs, cs)])
    assert np.array_equal(apply_quadratures(xs, cs, space), singles)


# --- Weyl operators --------------------------------------------------------


def test_weyl_zero_is_identity():
    w = weyl_operator(FockSpace(1, 8), np.zeros(2))
    np.testing.assert_allclose(w.matrix, np.eye(8), atol=1e-14)


def test_weyl_relation():
    # composition law on the certified low-energy block; the top levels of a
    # product of truncated exponentials are corrupted by construction
    space = FockSpace(1, 20)
    sigma = symplectic_form(1)
    k = certified_levels(space)
    assert k == 10
    rng = np.random.default_rng(8)
    for _ in range(4):
        xi = rng.uniform(-1, 1, 2)
        eta = rng.uniform(-1, 1, 2)
        xi *= min(1.0, 1.0 / np.linalg.norm(xi))
        eta *= min(1.0, 1.0 / np.linalg.norm(eta))
        w1 = weyl_operator(space, xi).matrix
        w2 = weyl_operator(space, eta).matrix
        w12 = weyl_operator(space, xi + eta).matrix
        phase = np.exp(-0.5j * (xi @ sigma @ eta))
        assert np.max(np.abs((w1 @ w2 - phase * w12)[:k, :k])) <= 1e-5


def test_weyl_vacuum_expectation():
    space = FockSpace(1, 20)
    rng = np.random.default_rng(1)
    vac = vacuum(space)
    for _ in range(5):
        xi = rng.uniform(-1.4, 1.4, 2)
        val = np.trace(weyl_operator(space, xi).matrix @ vac.matrix)
        assert val == pytest.approx(np.exp(-np.sum(xi ** 2) / 4), abs=1e-6)


def test_weyl_unitary_and_extent_flag():
    space = FockSpace(1, 12)
    w = weyl_operator(space, np.array([0.5, 0.5]))
    np.testing.assert_allclose(w.matrix @ w.matrix.conj().T, np.eye(12), atol=1e-12)
    assert w.flags == ()
    big = weyl_operator(space, np.array([10.0, 0.0]))
    assert any("safe-extent" in f for f in big.flags)
    assert safe_extent(space) < 10.0


@pytest.mark.parametrize("n, d", [(1, 20), (2, 6)])
def test_weyl_matches_expm(n, d):
    # the eigendecomposition against expm of the Kronecker-built generator
    # xi . sigma R, with Q = (a + a*)/sqrt2 and P = -i (a - a*)/sqrt2
    space = FockSpace(n, d)
    a = lowering(d)
    one_mode = [(a + a.T) / np.sqrt(2), -1j * (a - a.T) / np.sqrt(2)]
    quads = [np.kron(np.kron(np.eye(d ** mode), op), np.eye(d ** (n - mode - 1)))
             for mode in range(n) for op in one_mode]
    rng = np.random.default_rng(11)
    for _ in range(3):
        xi = rng.uniform(-1.5, 1.5, 2 * n)
        gen = sum(c * r for c, r in zip(symplectic_form(n).T @ xi, quads))
        np.testing.assert_allclose(weyl_operator(space, xi).matrix,
                                   expm(1j * gen), rtol=0, atol=1e-12)


def test_char_batch_matches_expm_path():
    # closed-form matrix elements vs exponential of the truncated generator
    space = FockSpace(1, 20)
    rho = random_low_energy_density(np.random.default_rng(4), space, top=3)
    xs = np.random.default_rng(5).uniform(-2, 2, size=(6, 2))
    fast = char_batch(rho, xs)
    slow = np.array([np.trace(weyl_operator(space, x).matrix @ rho.matrix)
                     for x in xs])
    np.testing.assert_allclose(fast, slow, atol=5e-6)


def test_char_batch_three_modes_matches_dense_kronecker():
    # Tr[(D_1 (x) D_2 (x) D_3) rho] with the Weyl operator built densely
    space = FockSpace(3, 3)
    rng = np.random.default_rng(12)
    a = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    rho = density(space, a @ a.conj().T / np.trace(a @ a.conj().T).real)
    xs = rng.uniform(-1.5, 1.5, size=(5, 6))
    dense = []
    for alphas in weyl_alphas(xs, 3):
        d1, d2, d3 = displacement_elements(alphas, 3)
        dense.append(np.trace(np.kron(np.kron(d1, d2), d3) @ rho.matrix))
    np.testing.assert_allclose(char_batch(rho, xs), dense, rtol=0, atol=1e-12)


def test_char_batch_factorizes_on_product_states():
    one = FockSpace(1, 4)
    rng = np.random.default_rng(13)
    parts = [random_low_energy_density(rng, one, top=3) for _ in range(3)]
    rho = tensor(tensor(parts[0], parts[1]), parts[2])
    xs = rng.uniform(-1.5, 1.5, size=(7, 6))
    product = np.prod([char_batch(part, xs[:, 2 * l:2 * l + 2])
                       for l, part in enumerate(parts)], axis=0)
    np.testing.assert_allclose(char_batch(rho, xs), product, rtol=0, atol=1e-12)


def test_displacement_elements_match_mpmath_at_cutoff_40():
    # normal order, independent of the Laguerre form: D = e^(-|a|^2/2) L U with
    # L[m, j] = sqrt(m!/j!) a^(m-j)/(m-j)! and U[j, n] = sqrt(n!/j!) (-a*)^(n-j)/(n-j)!
    import mpmath as mp

    d = 40
    alphas = np.array([1.5 + 1.5j, -1.5 + 0.4j, 0.7 - 1.5j, -0.3 - 0.9j])
    got = displacement_elements(alphas, d)
    with mp.workdps(50):
        fact = [mp.factorial(k) for k in range(d)]
        for alpha, block in zip(alphas, got):
            a = mp.mpc(alpha.real, alpha.imag)
            env = mp.exp(-abs(a) ** 2 / 2)
            low = [[mp.sqrt(fact[m] / fact[j]) * a ** (m - j) / fact[m - j]
                    for j in range(m + 1)] for m in range(d)]
            up = [[mp.sqrt(fact[n] / fact[j]) * (-mp.conj(a)) ** (n - j) / fact[n - j]
                   for j in range(n + 1)] for n in range(d)]
            ref = np.array([[complex(env * mp.fdot(low[m][:min(m, n) + 1],
                                                   up[n][:min(m, n) + 1]))
                             for n in range(d)] for m in range(d)])
            np.testing.assert_allclose(block, ref, rtol=0, atol=1e-13)


# --- beam splitter ---------------------------------------------------------


def test_beam_splitter_zero_angle():
    u = beam_splitter_unitary(FockSpace(2, 5), 0.0)
    np.testing.assert_allclose(u.matrix, np.eye(25), atol=1e-14)


def test_two_photon_interference_amplitudes():
    d = 6
    u = beam_splitter_unitary(FockSpace(2, d), np.pi / 4)
    idx = lambda m, n: m * d + n
    col = u.matrix[:, idx(1, 1)]
    assert abs(col[idx(2, 0)]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(col[idx(0, 2)]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert col[idx(1, 1)] == pytest.approx(0.0, abs=1e-12)


def test_moment_transport_matches_symplectic():
    space = FockSpace(1, 14)
    pair = FockSpace(2, 14)
    theta = 0.57
    r1 = gaussian_to_fock(GaussianState(np.array([0.2, -0.1]),
                                        np.diag([1.3, 0.85])), space)
    r2 = thermal_state(space, 0.2)
    out = evolve(tensor(r1, r2), beam_splitter_unitary(pair, theta))
    table = moments(out)
    g1, g2 = gaussify(r1), gaussify(r2)
    big = GaussianState(np.concatenate([g1.d, g2.d]),
                        np.block([[g1.gamma, np.zeros((2, 2))],
                                  [np.zeros((2, 2)), g2.gamma]]))
    expected = transform_gaussian(beam_splitter(theta, 1), big)
    np.testing.assert_allclose(table.d, expected.d, atol=1e-6)
    np.testing.assert_allclose(table.gamma, expected.gamma, atol=1e-6)


def _dense_transport_defects(blocks, theta, cutoff):
    """The transport defects from dense lowering blocks <N|a_l|N + 1>/sqrt2
    on the full sectors N = 0 .. cutoff - 3: max |B_N^T L_l B_(N + 1) -
    sum_m S_lm L_m| over every entry."""
    total, n1 = np.nonzero(np.tri(cutoff - 2, cutoff - 1, dtype=bool))
    low = np.zeros((2, cutoff - 2, cutoff, cutoff))
    low[0, total, n1, n1 + 1] = np.sqrt(n1 + 1.0) / np.sqrt(2)
    low[1, total, n1, n1] = np.sqrt(total - n1 + 1.0) / np.sqrt(2)
    top = cutoff - 2
    lhs = np.swapaxes(blocks[:top], -1, -2) @ low @ blocks[1:top + 1]
    rhs = np.tensordot(beam_splitter(theta, 1)[0::2, 0::2], low, axes=1)
    return np.max(np.abs(lhs - rhs), axis=(1, 2, 3), initial=0.0)


@pytest.mark.parametrize("cutoff", [2, 3, 8, 24])
def test_transport_defects_match_dense_lowering_blocks(cutoff):
    # the row-scaled slices take the same maximum over the same entries as
    # the products by dense lowering blocks, on a calibrated splitter, one at
    # another angle and random blocks alike
    rng = np.random.default_rng(14)
    for blocks in (pair_blocks(cutoff, 0.4), pair_blocks(cutoff, -0.7),
                   rng.normal(size=(2 * cutoff - 1, cutoff, cutoff))):
        ref = _dense_transport_defects(blocks, 0.4, cutoff)
        np.testing.assert_allclose(_transport_defects(blocks, 0.4, cutoff), ref,
                                   rtol=1e-12, atol=1e-14)


def test_calibration_rejects_reversed_angle():
    # the certified-block comparison still catches a sign flip of theta
    blocks = pair_blocks(8, -0.4)
    with pytest.raises(CalibrationError):
        _calibrate_beam_splitter(blocks, 0.4, 8)


def test_calibration_rejects_nan_matrix():
    # a NaN defect must not compare as within tolerance
    with pytest.raises(CalibrationError):
        _calibrate_beam_splitter(np.full((11, 6, 6), np.nan), 0.6, 6)


def test_calibration_rejects_nan_in_an_uncalibrated_sector():
    # sector 14 (the state |7, 7>) lies past the transport check's reach, so
    # only the finiteness check sees a NaN there
    blocks = pair_blocks(8, 0.4).copy()
    blocks[14, 0, 0] = np.nan
    with pytest.raises(CalibrationError, match="non-finite"):
        _calibrate_beam_splitter(blocks, 0.4, 8)


@pytest.mark.parametrize("theta", [0.3, -0.6, 1.2])
@pytest.mark.parametrize("cutoff", [2, 3, 7, 8, 16, 32, 33])
def test_sector_pair_unitary_matches_dense_expm(cutoff, theta):
    # applied sector by sector, U equals the exponential of the dense
    # Kronecker generator and never couples two total-photon sectors.  An
    # odd cutoff makes the even/odd coupling of the full-size blocks
    # non-square, with a null vector
    u = beam_splitter_unitary(FockSpace(2, cutoff), theta).matrix
    a = lowering(cutoff)
    dense = expm(theta * (np.kron(a, a.T) - np.kron(a.T, a)))
    assert np.max(np.abs(u - dense)) <= 1e-12
    total = np.add.outer(np.arange(cutoff), np.arange(cutoff)).ravel()
    assert np.all(u[total[:, None] != total[None, :]] == 0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(cutoff ** 2))) <= 1e-11


@pytest.mark.parametrize("theta", [0.3, -0.6, 1.2, np.pi / 2 - 1e-3,
                                   -2 * np.pi + 0.1])
@pytest.mark.parametrize("cutoff", [2, 3, 7, 8, 33])
def test_each_sector_block_is_the_exponential_of_its_own_generator(cutoff, theta):
    # every block, full or clipped, of either parity of size, equals scipy's
    # expm of that sector's tridiagonal generator on its own slots, is real,
    # orthogonal there, and exactly 0 on the padding.  expm's own error grows
    # with the generator's norm (against 40-digit mpmath it is off by up to
    # 4.3e-12 at cutoff 32, theta -2 pi + 0.1, where the blocks are off by
    # 7.8e-14), so the entries are compared to 1e-13 per unit of its 1-norm
    blocks = pair_blocks(cutoff, theta)
    slot_n1, _, inside = _sector_grid(cutoff)
    assert blocks.dtype == np.float64
    for total, held in enumerate(inside):
        n1 = slot_n1[total][held]
        n2 = total - n1
        hop = np.sqrt(n1[1:] * (n2[1:] + 1.0))   # <n1, n2| a2* a1 |n1 + 1, n2 - 1>
        gen = theta * (np.diag(hop, 1) - np.diag(hop, -1))
        block = blocks[total][np.ix_(held, held)]
        tol = 1e-13 * max(1.0, np.linalg.norm(gen, 1))
        assert np.max(np.abs(block - expm(gen))) <= tol, total
        assert np.max(np.abs(block.T @ block - np.eye(len(n1)))) <= 1e-13, total
        assert np.all(blocks[total][~(held[:, None] & held[None, :])] == 0.0), total


def _per_sector_splitter(u, x):
    """U x by one product per mode pair and sector on the sector's own
    slots: the reference for the stacked ``apply_splitter``."""
    d, n = u.space.cutoff, u.space.n_modes // 2
    _, idx, inside = _sector_grid(d)
    t = x.reshape((d,) * (2 * n) + (-1,))
    for l in range(n):
        moved = np.moveaxis(t, (l, n + l), (0, 1))
        flat = moved.reshape(d * d, -1)
        out = np.empty(flat.shape, dtype=np.result_type(u.blocks, flat))
        for total, held in enumerate(inside):
            rows = idx[total][held]
            out[rows] = u.blocks[total][np.ix_(held, held)] @ flat[rows]
        t = np.moveaxis(out.reshape(moved.shape), (0, 1), (l, n + l))
    return t.reshape(x.shape)


class _CountedBlocks(np.ndarray):
    """Sector blocks that count the products taken with them."""

    products = 0

    def __matmul__(self, other):
        _CountedBlocks.products += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n,cutoff", [(1, 5), (1, 6), (2, 3)])
@pytest.mark.parametrize("columns", [1, 3, "chunks"])
def test_stacked_splitter_matches_per_sector_products(monkeypatch, n, cutoff,
                                                      columns, dtype):
    # one stacked product per column chunk equals one product per sector on
    # its own slots, for real and complex columns (complex ones go in as
    # real pairs); with the chunk cap at its floor of cutoff columns, 3
    # cutoff + 1 columns per mode pair take at least three chunks
    monkeypatch.setattr(fock, "_SPLITTER_CHUNK_ENTRIES", 1)
    space = FockSpace(2 * n, cutoff)
    u = beam_splitter_unitary(space, 0.6)
    counted = fock.Splitter(space, u.blocks.view(_CountedBlocks))
    per_pair = cutoff ** (2 * n - 2) * (2 if dtype is complex else 1)
    r = 3 * cutoff + 1 if columns == "chunks" else columns
    rng = np.random.default_rng(cutoff)
    x = rng.normal(size=(space.dim, r))
    if dtype is complex:
        x = x + 1j * rng.normal(size=x.shape)
    _CountedBlocks.products = 0
    out = apply_splitter(counted, x)
    assert out.shape == x.shape and out.dtype == dtype
    chunks = _CountedBlocks.products / n
    assert chunks == -(-r * per_pair // cutoff)
    if columns == "chunks":
        assert chunks >= 3
    ref = _per_sector_splitter(u, x)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("total", range(1, 7))
def test_calibration_rejects_one_reversed_sector(total):
    # every certified sector (total quanta <= cutoff - 2 = 6) is checked:
    # one block taken from the reversed angle is caught.  Sector 0 is the
    # 1 x 1 identity at every angle, so reversing it changes nothing
    blocks = pair_blocks(8, 0.4).copy()
    blocks[total] = pair_blocks(8, -0.4)[total]
    with pytest.raises(CalibrationError):
        _calibrate_beam_splitter(blocks, 0.4, 8)


def test_calibration_passes_a_reversed_sector_past_its_reach():
    # sector cutoff - 1 = 7 meets no certified pair (N, N + 1), N + 1 <= 6:
    # only the empty-slot and finiteness checks reach it
    blocks = pair_blocks(8, 0.4).copy()
    blocks[7] = pair_blocks(8, -0.4)[7]
    _calibrate_beam_splitter(blocks, 0.4, 8)


def test_calibration_rejects_complex_blocks():
    # the two lowering transports stand for all four quadratures only on
    # real blocks, so a complex array is refused, even with zero imaginary part
    blocks = pair_blocks(8, 0.4).astype(complex)
    with pytest.raises(CalibrationError, match="complex") as info:
        _calibrate_beam_splitter(blocks, 0.4, 8)
    assert "beam splitter at cutoff 8, theta 0.4:" in str(info.value)


def test_calibration_rejects_weight_between_sectors():
    # U must conserve the total photon number; in the block form weight can
    # pass between sectors only through an empty slot, so 1e-6 on the empty
    # slot (0, 1) of sector 0 breaks it, although every sector is intact
    blocks = pair_blocks(8, 0.4).copy()
    blocks[0, 0, 1] = 1e-6
    with pytest.raises(CalibrationError, match="between photon-number sectors"):
        _calibrate_beam_splitter(blocks, 0.4, 8)


def test_calibration_rejects_wrong_angle():
    # a correct splitter at another angle fails the transport check, from
    # the one certified pair of sectors at cutoff 3 up to cutoff 40
    for cutoff in (3, 8, 40):
        with pytest.raises(CalibrationError, match="transport defect"):
            _calibrate_beam_splitter(pair_blocks(cutoff, 0.41), 0.4, cutoff)


def _weight_between_sectors(blocks):
    blocks[0, 0, 1] = 1e-6


def _nan_in_last_sector(blocks):
    blocks[14, 0, 0] = np.nan


@pytest.mark.parametrize("built_at, corrupt, message", [
    (0.4, _weight_between_sectors, "between photon-number sectors"),
    (0.4, _nan_in_last_sector, "non-finite"),
    (0.41, None, "transport defect"),
], ids=["weight-between-sectors", "non-finite", "transport-defect"])
def test_calibration_errors_name_cutoff_and_theta(built_at, corrupt, message):
    # each of the three calibration failures names the splitter's size and
    # angle, so a failing run says which splitter broke
    blocks = pair_blocks(8, built_at).copy()
    if corrupt:
        corrupt(blocks)
    with pytest.raises(CalibrationError, match=message) as info:
        _calibrate_beam_splitter(blocks, 0.4, 8)
    assert "beam splitter at cutoff 8, theta 0.4:" in str(info.value)


def test_pair_unitary_is_cached_read_only():
    first = pair_blocks(8, 0.3)
    assert pair_blocks(8, 0.3) is first
    assert beam_splitter_unitary(FockSpace(4, 8), 0.3).blocks is first
    assert not first.flags.writeable
    assert first.dtype == float
    assert first.shape == (15, 8, 8)


def test_pair_blocks_are_zero_on_every_empty_slot():
    # a padded block exponentiates to the identity on its padding, and eigh
    # may mix degenerate eigenvectors across it; the cached blocks hold
    # exact zeros there
    _, _, inside = _sector_grid(16)
    empty = ~(inside[:, :, None] & inside[:, None, :])
    assert np.all(pair_blocks(16, np.pi / 4)[empty] == 0)


def _kronecker_generator(n, d):
    """The generator sum_l (a2l* a1l - a1l* a2l) on n modes per arm, cutoff
    d, built from Kronecker products of the local lowering."""
    a = lowering(d)

    def embed(op, mode):
        return np.kron(np.kron(np.eye(d ** mode), op),
                       np.eye(d ** (2 * n - mode - 1)))

    return sum(embed(a.T, n + l) @ embed(a, l) - embed(a.T, l) @ embed(a, n + l)
               for l in range(n))


def test_per_pair_splitter_matches_full_generator():
    # 1-3 modes per arm, cutoffs 2-5: the dense U and the sector-by-sector
    # product on a complex block of columns equal the exponential of the
    # Kronecker generator G.  G is real antisymmetric, so exp(theta G) =
    # V exp(-i theta lam) V* from the eigenpairs of the Hermitian i G; scipy's
    # expm is the blunter reference here (off by 1.4e-13 at 3 modes/arm,
    # cutoff 3).  3 modes/arm at cutoff 5 is left out: its dense reference
    # (dim 15625) would take 3.9 GB
    theta = 0.6
    for n, d in [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        space = FockSpace(2 * n, d)
        lam, v = np.linalg.eigh(1j * _kronecker_generator(n, d))
        dense = (v * np.exp(-1j * theta * lam)) @ v.conj().T
        u = beam_splitter_unitary(space, theta)
        assert np.max(np.abs(u.matrix - dense)) <= 1e-13
        rng = np.random.default_rng(n * 10 + d)
        x = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
        out = apply_splitter(u, x)
        assert out.shape == x.shape and out.dtype == complex
        np.testing.assert_allclose(out, dense @ x, rtol=0, atol=1e-13)


def test_odd_mode_count_rejected():
    with pytest.raises(DimensionError):
        beam_splitter_unitary(FockSpace(3, 4), 0.3)


# --- tensor algebra --------------------------------------------------------


def test_tensor_identity():
    a = FockOperator(FockSpace(1, 3), np.eye(3))
    t = tensor(a, a)
    np.testing.assert_array_equal(t.matrix, np.eye(9))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(0)
    a = FockOperator(FockSpace(1, 3), rng.normal(size=(3, 3)) + 0j)
    b = FockOperator(FockSpace(1, 3), rng.normal(size=(3, 3)) + 0j)
    assert np.trace(tensor(a, b).matrix) == pytest.approx(
        np.trace(a.matrix) * np.trace(b.matrix))


def test_partial_trace_recovers_factors():
    space = FockSpace(1, 5)
    r1 = thermal_state(space, 0.4)
    r2 = fock_state(space, 2)
    both = tensor(r1, r2)
    np.testing.assert_allclose(partial_trace(both, "first").matrix, r1.matrix,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(both, "second").matrix, r2.matrix,
                               atol=1e-12)


def test_partial_trace_interference_output():
    d = 6
    pair = FockSpace(2, d)
    u = beam_splitter_unitary(pair, np.pi / 4)
    rho = evolve(tensor(fock_state(FockSpace(1, d), 1),
                        fock_state(FockSpace(1, d), 1)), u)
    reduced = partial_trace(rho, "first").matrix
    expected = np.zeros((d, d))
    expected[0, 0] = expected[2, 2] = 0.5
    np.testing.assert_allclose(reduced, expected, atol=1e-12)


def test_partial_trace_of_correlated_state():
    # maximally correlated two-level embedding reduces to the maximally mixed
    space = FockSpace(2, 4)
    psi = np.zeros(16)
    psi[0 * 4 + 0] = psi[1 * 4 + 1] = 1 / np.sqrt(2)
    rho = FockOperator(space, np.outer(psi, psi.conj()))
    reduced = partial_trace(rho, "first").matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 0.5
    np.testing.assert_allclose(reduced, expected, atol=1e-14)


def test_partial_trace_scales_by_trace():
    rng = np.random.default_rng(2)
    a = FockOperator(FockSpace(1, 4), rng.normal(size=(4, 4)) + 0j)
    b = FockOperator(FockSpace(1, 4), rng.normal(size=(4, 4)) + 0j)
    left = partial_trace(tensor(a, b), (0,)).matrix
    np.testing.assert_allclose(left, a.matrix * np.trace(b.matrix), atol=1e-12)


# --- norms -----------------------------------------------------------------


def test_norm_basics():
    space = FockSpace(1, 5)
    rho = thermal_state(space, 0.3)
    assert trace_norm(rho.matrix - rho.matrix) == pytest.approx(0.0, abs=1e-15)
    diff = fock_state(space, 0).matrix - fock_state(space, 1).matrix
    assert trace_norm(diff) == pytest.approx(2.0, abs=1e-12)
    assert hs_norm(diff) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_trace_norm_vs_eigenvalue_oracle():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    herm = (a + a.conj().T) / 2
    oracle = float(np.sum(np.abs(np.linalg.eigvalsh(herm))))
    assert trace_norm(herm) == pytest.approx(oracle, abs=1e-10)
    assert hs_norm(herm) <= trace_norm(herm) + 1e-12


# --- moments and kappa -----------------------------------------------------


def test_vacuum_moments(space14):
    table = moments(vacuum(space14))
    np.testing.assert_allclose(table.d, 0, atol=1e-12)
    np.testing.assert_allclose(table.gamma, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2])
def test_fock_covariance(space14, m):
    table = moments(fock_state(space14, m))
    np.testing.assert_allclose(table.gamma, (2 * m + 1) * np.eye(2), atol=1e-10)


def test_vacuum_fourth_moment_and_kappa():
    rho = tensor(vacuum(FockSpace(1, 8)), vacuum(FockSpace(1, 8)))
    kappa, _, kappa_samples = estimate_kappa(support(rho), rho.space, seed=0)
    # <0|Q^4|0> = 3/4 in this convention
    assert axis_fourth_moments(rho)[0] == pytest.approx(0.75, abs=1e-12)
    assert kappa >= 0.75 - 1e-12
    assert kappa >= np.max(axis_fourth_moments(rho)) - 1e-12
    assert kappa_samples > 0


def test_moments_match_full_product_traces():
    # elementwise trace sums against the traces of the full products
    rng = np.random.default_rng(6)
    space = FockSpace(2, 4)
    a = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    rho = density(space, a @ a.conj().T / np.trace(a @ a.conj().T).real)
    table = moments(rho)
    quads = [q.matrix for q in quadratures(space)]
    m = rho.matrix
    d = np.array([np.trace(m @ q).real for q in quads])
    gamma = np.array([[2 * np.trace(m @ qk @ ql).real - 2 * d[k] * d[l]
                       for l, ql in enumerate(quads)] for k, qk in enumerate(quads)])
    np.testing.assert_allclose(table.d, d, rtol=0, atol=1e-14)
    np.testing.assert_allclose(table.gamma, gamma, rtol=0, atol=1e-13)


def _output_and_factor(rho1, rho2, theta):
    """rho_ab = U (rho1 x rho2) U* and its factor (U (v1 x v2), p1 x p2)."""
    pair = FockSpace(2 * rho1.space.n_modes, rho1.space.cutoff)
    u = beam_splitter_unitary(pair, theta)
    (v1, p1), (v2, p2) = support(rho1), support(rho2)
    return (evolve(tensor(rho1, rho2), u),
            (u.matrix @ np.kron(v1, v2), np.kron(p1, p2)))


def _fock_mixtures():
    space = FockSpace(1, 10)
    return (mixture([(0.7, vacuum(space)), (0.3, fock_state(space, 2))]),
            mixture([(0.6, fock_state(space, 1)), (0.4, fock_state(space, 3))]))


def _thermal_and_mixture():
    space = FockSpace(1, 10)
    return (thermal_state(space, 0.3),
            mixture([(0.8, vacuum(space)), (0.2, fock_state(space, 1))]))


def _synthesized_thermal_vacuum():
    space = FockSpace(1, 24)
    return (gaussian_to_fock(GaussianState(np.zeros(2), 2 * np.eye(2)), space),
            gaussian_to_fock(GaussianState(np.zeros(2), np.eye(2)), space))


def _two_mode_mixtures():
    one, two = FockSpace(1, 4), FockSpace(2, 4)
    r1 = tensor(mixture([(0.9, vacuum(one)), (0.1, fock_state(one, 1))]),
                vacuum(one))
    r2 = mixture([(0.6, fock_state(two, (0, 0))), (0.3, fock_state(two, (1, 1))),
                  (0.1, fock_state(two, (0, 2)))])
    return r1, r2


@pytest.mark.parametrize("make, rank, n_dirs", [
    (_fock_mixtures, 4, 20),               # exact zero eigenvalues
    (_thermal_and_mixture, 20, 20),
    (_synthesized_thermal_vacuum, 24, 5),  # dense SVDs at dim 576 are slow
    (_two_mode_mixtures, 6, 20),
], ids=["fock-mixtures", "thermal-mixture", "synthesized-cutoff-24",
        "two-modes-per-arm"])
def test_kappa_factor_matches_dense(make, rank, n_dirs):
    # the factor's rank is the product of the input ranks, and every sampled
    # trace norm agrees with the dense rho_ab path
    rho1, rho2 = make()
    rho_ab, (w, p) = _output_and_factor(rho1, rho2, 0.6)
    assert len(p) == rank
    left = p[:, None] * w.conj().T
    blocks = _kappa_blocks(left, rho_ab.space)
    quads = np.array([q.matrix for q in quadratures(rho_ab.space)])
    rng = np.random.default_rng(2)
    for _ in range(n_dirs):
        u, v = rng.normal(size=(2, 2 * rho_ab.space.n_modes))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        ru, rv = np.tensordot(u, quads, 1), np.tensordot(v, quads, 1)
        dense = trace_norm(rho_ab.matrix @ ru @ ru @ rv @ rv)
        assert _kappa_values(left, rho_ab.space, u[None], v[None], blocks)[0] == \
            pytest.approx(dense, rel=1e-12)


def test_support_drops_roundoff_and_keeps_weights():
    vac = gaussian_to_fock(GaussianState(np.zeros(2), np.eye(2)), FockSpace(1, 24))
    assert len(support(vac)[1]) == 1
    space = FockSpace(1, 10)
    mix = mixture([(0.5, vacuum(space)), (0.3, fock_state(space, 2)),
                   (0.2, fock_state(space, 7))])
    np.testing.assert_allclose(np.sort(support(mix)[1]), [0.2, 0.3, 0.5],
                               atol=1e-15)


def test_kappa_search_ties_resolve_alike_on_factor_and_dense():
    # (Q2, Q2) and (P2, P2) tie exactly by joint phase symmetry; roundoff
    # must not let either factor of one output, the splitter's (W, p) or the
    # eigenpairs of the dense rho_ab, pick a different pair to refine from
    # (without the tie margin the second input set picks (Q2, Q2) on one
    # factor and (P2, P2) on the other)
    space = FockSpace(1, 14)
    for vac, one, nbar, theta in ((0.8924, 0.1076, 0.3357, 0.638025),
                                  (0.9372, 0.0628, 0.2247, 0.680994)):
        rho1 = mixture([(vac, vacuum(space)), (one, fock_state(space, 1))])
        out = pair_output(rho1, thermal_state(space, nbar), theta)
        rho_ab = output_density(out)
        dense, dense_pair, _ = estimate_kappa(support(rho_ab), rho_ab.space, seed=0)
        low, low_pair, _ = estimate_kappa(out.factor, rho_ab.space, seed=0)
        assert low == pytest.approx(dense, rel=1e-12)
        for a, b in zip(low_pair, dense_pair):
            np.testing.assert_array_equal(a, b)


def test_block_groups_recover_permuted_hermitian_blocks():
    rng = np.random.default_rng(4)
    sizes = [1, 3, 2, 5, 4]
    parts = [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in sizes]
    m = np.zeros((sum(sizes),) * 2, dtype=complex)
    start = np.cumsum([0] + sizes)
    for lo, a in zip(start, parts):
        m[lo:lo + len(a), lo:lo + len(a)] = a + a.conj().T
    perm = rng.permutation(len(m))
    h = m[np.ix_(perm, perm)]
    groups = block_groups(h != 0)
    found = []
    for rows, cols in groups:
        np.testing.assert_array_equal(rows.ravel(), cols.ravel())
        found.append(tuple(sorted(perm[rows.ravel()])))
    assert sorted(found) == [tuple(range(lo, lo + k)) for lo, k in zip(start, sizes)]
    eigs = np.sort(np.concatenate([np.linalg.eigvalsh(h[idx]) for idx in groups]))
    np.testing.assert_allclose(eigs, np.linalg.eigvalsh(h), atol=1e-12)


def test_block_groups_rectangular_and_empty_lines():
    # row 1 and column 3 are empty: they carry only zero singular values
    pattern = np.array([[1, 0, 0, 0],
                        [0, 0, 0, 0],
                        [0, 1, 1, 0],
                        [0, 0, 1, 0]], dtype=bool)
    groups = [(r.ravel().tolist(), c.ravel().tolist())
              for r, c in block_groups(pattern)]
    assert groups == [([0], [0]), ([2, 3], [1, 2])]


def test_block_groups_single_block_is_the_matrix_itself():
    m = np.arange(1.0, 13.0).reshape(3, 4)
    m[0, 1] = 0.0
    [idx] = block_groups(m != 0)
    assert m[idx].shape == m.shape
    assert np.shares_memory(m[idx], m)


def _permuted_blocks(sizes, seed):
    """A pattern block diagonal on ``sizes`` up to a row and a column
    permutation."""
    rng = np.random.default_rng(seed)
    pattern = np.zeros((sum(sizes),) * 2, dtype=bool)
    start = np.cumsum([0] + list(sizes))
    for lo, k in zip(start, sizes):
        pattern[lo:lo + k, lo:lo + k] = rng.random((k, k)) < 0.6
        pattern[lo + np.arange(k), lo + np.arange(k)] = True
    return pattern[np.ix_(rng.permutation(len(pattern)), rng.permutation(len(pattern)))]


@pytest.mark.parametrize("pattern", [
    np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]], dtype=bool),
    _permuted_blocks([1, 3, 2, 5, 4], 4),
    _permuted_blocks([1, 2, 3] * 24, 5),
    _permuted_blocks([7, 1, 30, 10] * 27, 6),
], ids=["rectangular", "m15", "m144", "m1296"])
def test_block_groups_list_their_roots_in_ascending_order(pattern):
    # a group's root is the smallest row it reaches, its first row; the
    # groups come in ascending order of their roots, as np.unique lists them,
    # and every row and column of a nonzero line is in exactly one group
    groups = block_groups(pattern)
    roots = [int(rows.ravel()[0]) for rows, _ in groups]
    assert roots == np.unique(roots).tolist() and len(groups) > 1
    for rows, cols in groups:
        assert rows.ravel()[0] == rows.min()
    rows = np.sort(np.concatenate([r.ravel() for r, _ in groups]))
    cols = np.sort(np.concatenate([c.ravel() for _, c in groups]))
    np.testing.assert_array_equal(rows, np.flatnonzero(pattern.any(axis=1)))
    np.testing.assert_array_equal(cols, np.flatnonzero(pattern.any(axis=0)))


def _number_diagonal_pair():
    space = FockSpace(1, 10)
    return thermal_state(space, 0.3), thermal_state(space, 0.2)


def _displaced_pair():
    space = FockSpace(1, 10)
    return displaced_vacuum(space, np.array([0.5, -0.3])), vacuum(space)


@pytest.mark.parametrize("make, n_blocks", [
    (_number_diagonal_pair, 2),   # total photon number parity
    (_displaced_pair, 1),
], ids=["number-diagonal", "displaced"])
def test_kappa_blocks_follow_photon_parity(make, n_blocks):
    # each quadrature moves one quantum, so every product X = R_u^2 R_v^2
    # keeps the total photon number's parity; the block trace norm is the
    # trace norm of the whole product
    rho1, rho2 = make()
    rho_ab, (w, p) = _output_and_factor(rho1, rho2, 0.6)
    left = p[:, None] * w.conj().T
    blocks = _kappa_blocks(left, rho_ab.space)
    assert len(blocks) == n_blocks
    quads = np.array([q.matrix for q in quadratures(rho_ab.space)])
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v = rng.normal(size=(2, 2 * rho_ab.space.n_modes))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        ru, rv = np.tensordot(u, quads, 1), np.tensordot(v, quads, 1)
        dense = trace_norm(left @ ru @ ru @ rv @ rv)
        assert _kappa_values(left, rho_ab.space, u[None], v[None], blocks)[0] == \
            pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("make", [_number_diagonal_pair, _displaced_pair],
                         ids=["number-diagonal", "displaced"])
def test_kappa_values_batch_equals_single_pairs(make):
    rho1, rho2 = make()
    rho_ab, (w, p) = _output_and_factor(rho1, rho2, 0.6)
    left = p[:, None] * w.conj().T
    blocks = _kappa_blocks(left, rho_ab.space)
    rng = np.random.default_rng(6)
    us, vs = rng.normal(size=(2, 7, 2 * rho_ab.space.n_modes))
    us[:2], vs[:2] = np.eye(4)[:2], np.eye(4)[2:]   # canonical pairs too
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    assert _kappa_values(left, rho_ab.space, us, vs, blocks) == \
        [_kappa_values(left, rho_ab.space, u[None], v[None], blocks)[0]
         for u, v in zip(us, vs)]


def _fixed_pairs(dim, rng):
    """The kappa search's fixed pairs: every canonical pair, then the random
    pairs drawn from ``rng``."""
    eye = np.eye(dim)
    pairs = [(eye[i], eye[j]) for i in range(dim) for j in range(dim)]
    for _ in range(fock._KAPPA_RANDOM_PAIRS):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    return pairs


def _phase_images(n_modes):
    """The canonical pairs (i, j) of a pair space of ``n_modes`` modes that a
    phase rotation exp(i pi/2 N_l) of the mode pairs' totals maps onto an
    earlier canonical pair, (i, j) in search order.  The rotation of pair l
    (mode l with mode n + l) flips the Q/P bit, i % 2, of every axis on its
    two modes, and any set of pairs may be rotated at once."""
    n, dim = n_modes // 2, 2 * n_modes
    images = set()
    for i in range(dim):
        for j in range(dim):
            for flips in itertools.product((0, 1), repeat=n):
                if (i ^ flips[i // 2 % n], j ^ flips[j // 2 % n]) < (i, j):
                    images.add((i, j))
    return images


def _sequential_kappa(factor, space, seed):
    """The kappa search one pair at a time: every canonical pair, the random
    pairs, then the refine steps, each kept when it beats the best by more
    than dim roundoff units.  Also returns the refine steps that raised the
    best."""
    w, p = factor
    left = p[:, None] * w.conj().T
    blocks = _kappa_blocks(left, space)
    margin = 1.0 + space.dim * np.finfo(float).eps
    dim = 2 * space.n_modes
    rng = np.random.default_rng(seed)
    best, best_pair, n_eval = -np.inf, None, 0

    def consider(u, v):
        nonlocal best, best_pair, n_eval
        val = _kappa_values(left, space, u[None], v[None], blocks)[0]
        n_eval += 1
        if val > best * margin:
            best, best_pair = val, (u.copy(), v.copy())
            return True
        return False

    for u, v in _fixed_pairs(dim, rng):
        consider(u, v)
    gains = []
    for step in range(fock._KAPPA_REFINE_STEPS):
        u0, v0 = best_pair
        u = u0 + fock._KAPPA_REFINE_SCALE * rng.normal(size=dim)
        v = v0 + fock._KAPPA_REFINE_SCALE * rng.normal(size=dim)
        if consider(u / np.linalg.norm(u), v / np.linalg.norm(v)):
            gains.append(step)
    return best, best_pair, n_eval, gains


def _full_rank_thermals():
    space = FockSpace(1, 12)
    return thermal_state(space, 0.3), thermal_state(space, 0.2)


def _full_rank_thermals_cutoff_10():
    space = FockSpace(1, 10)
    return thermal_state(space, 0.3), thermal_state(space, 0.2)


def _full_rank_gaussians_two_modes():
    space = FockSpace(2, 3)
    return (gaussian_to_fock(GaussianState(np.zeros(4), np.diag([1.3, 1.3, 1.2, 1.2])),
                             space),
            gaussian_to_fock(GaussianState(np.zeros(4), np.diag([1.6, 1.6, 1.5, 1.5])),
                             space))


def _displaced_gaussian_and_thermal():
    space = FockSpace(1, 10)
    return (gaussian_to_fock(GaussianState(np.array([0.6, -0.4]),
                                           np.array([[1.6, 0.2], [0.2, 1.4]])), space),
            thermal_state(space, 0.3))


def _mixture_and_thermal_cutoff_16():
    space = FockSpace(1, 16)
    return (mixture([(0.9, vacuum(space)), (0.1, fock_state(space, 1))]),
            thermal_state(space, 0.3))


def _head_stages(calls):
    """The (head rows, box cutoff, pairs) calls of one kappa search, split
    into the first stage's and the second's.  Each batch opens with one call
    on the first stage's head; the second stage's calls follow on a longer
    head, in chunks of one head."""
    stages, prev = ([], []), None
    for call in calls:
        second = prev is not None and (call[0] > prev[0][0] or
                                       (call[0] == prev[0][0] and prev[1]))
        stages[second].append(call)
        prev = call, second
    return stages


@pytest.mark.parametrize("make, batched", [
    (_thermal_and_mixture, True),
    (_two_mode_mixtures, True),
    (_full_rank_thermals, False),            # r = dim = 144: one pair at a time
    (_full_rank_gaussians_two_modes, True),  # r = dim = 81
    (_displaced_gaussian_and_thermal, False),  # r = dim = 100, one zero block
    (_full_rank_thermals_cutoff_10, False),  # head batches of several pairs
    (_fock_mixtures, True),   # a refine batch meets a gain before its last pair
    (_mixture_and_thermal_cutoff_16, True),  # boxed heads; stage one skips pairs
], ids=["thermal-mixture", "two-modes-per-arm", "full-rank-thermals",
        "full-rank-gaussians-two-modes", "displaced-gaussian-thermal",
        "head-batches", "refine-gain-inside-a-batch", "mixture-thermal-cutoff-16"])
def test_batched_kappa_search_matches_sequential_search(monkeypatch, make, batched):
    # the search skips pairs that provably cannot beat the running best and
    # takes the refine steps in batches from the running best; the unpruned
    # sequential search must agree with it on kappa, pair and count
    rho1, rho2 = make()
    out = pair_output(rho1, rho2, 0.6)
    space = FockSpace(2 * rho1.space.n_modes, rho1.space.cutoff)
    if make in (_full_rank_thermals, _full_rank_gaussians_two_modes,
                _displaced_gaussian_and_thermal, _full_rank_thermals_cutoff_10):
        assert len(out.factor[1]) == space.dim
    if make is _displaced_gaussian_and_thermal:
        # the displacement breaks the photon parity: one block holds every row
        w, p = out.factor
        [(rows, _)] = _kappa_blocks(p[:, None] * w.conj().T, space)
        assert isinstance(rows, slice)
    assert (_KAPPA_BATCH_ENTRIES // out.factor[0].size > 1) == batched
    head_bounds, kappa_values = fock._head_bounds, fock._kappa_values
    head_batches, evaluated = [], []

    def counting_bounds(head, us, *args):
        head_batches.append((len(head.left), head.space.cutoff, len(us)))
        return head_bounds(head, us, *args)

    def counting_values(left, space, us, *args):
        evaluated.append(len(us))
        return kappa_values(left, space, us, *args)

    monkeypatch.setattr(fock, "_head_bounds", counting_bounds)
    monkeypatch.setattr(fock, "_kappa_values", counting_values)
    for seed in (0, 3):
        head_batches.clear()
        evaluated.clear()
        kappa, pair, n_eval = estimate_kappa(out.factor, space, seed=seed)
        ref, ref_pair, ref_n, gains = _sequential_kappa(out.factor, space, seed)
        assert kappa == ref and n_eval == ref_n
        for a, b in zip(pair, ref_pair):
            np.testing.assert_array_equal(a, b)
        if make is _full_rank_thermals_cutoff_10:
            # the heads hold a few of the 100 rows, so one head bound takes
            # several pairs although a full product takes one at a time
            assert max(pairs for _, _, pairs in head_batches) > 1
        if make is _mixture_and_thermal_cutoff_16:
            # the heads' rows stop below the top levels, so their products
            # are boxed; the first stage's short head bounds every batch and
            # proves some pairs unable to win before the second stage
            first, second = _head_stages(head_batches)
            assert max(cut for _, cut, _ in head_batches) < space.cutoff
            assert 0 < sum(n for *_, n in second) < sum(n for *_, n in first)
        if make is _fock_mixtures:
            # every row is in the head, so nothing is skipped by bound and
            # one batch holds every remaining refine step: a gain before the
            # last step drops the rest of its batch, evaluated but rebuilt
            # from the new best (the canonical pairs' phase images are never
            # formed)
            assert not head_batches
            assert _KAPPA_BATCH_ENTRIES // out.factor[0].size >= fock._KAPPA_REFINE_STEPS
            assert any(step < fock._KAPPA_REFINE_STEPS - 1 for step in gains)
            assert sum(evaluated) > n_eval - len(_phase_images(space.n_modes))


@pytest.mark.parametrize("make", [_two_mode_mixtures, _full_rank_thermals],
                         ids=["two-modes-per-arm", "full-rank-thermals"])
def test_kappa_search_evaluates_no_fixed_pair_twice(monkeypatch, make):
    # a gain inside a batch of fixed pairs keeps the values already taken:
    # no canonical or random pair reaches the full product twice
    rho1, rho2 = make()
    out = pair_output(rho1, rho2, 0.6)
    space = FockSpace(2 * rho1.space.n_modes, rho1.space.cutoff)
    kappa_values = fock._kappa_values
    seen = Counter()

    def counting(left, space, us, vs, blocks, floor):
        seen.update(u.tobytes() + v.tobytes() for u, v in zip(us, vs))
        return kappa_values(left, space, us, vs, blocks, floor)

    monkeypatch.setattr(fock, "_kappa_values", counting)
    estimate_kappa(out.factor, space, seed=0)
    fixed = [u.tobytes() + v.tobytes() for u, v in
             _fixed_pairs(2 * space.n_modes, np.random.default_rng(0))]
    assert max(seen[pair] for pair in fixed) == 1
    if make is _two_mode_mixtures:
        # r = 6: no pair is skipped by bound, so every fixed pair is formed
        # once, except the canonical pairs' phase images, which are never
        # formed
        dim = 2 * space.n_modes
        images = {i * dim + j for i, j in _phase_images(space.n_modes)}
        assert len(images) == 40
        assert all(seen[pair] == (k not in images) for k, pair in enumerate(fixed))


@pytest.mark.parametrize("make", [
    _full_rank_thermals, _displaced_gaussian_and_thermal, _two_mode_mixtures,
    _displaced_pair,
], ids=["full-rank-thermals", "displaced-gaussian-thermal", "two-modes-per-arm",
        "pure-pair"])
def test_kappa_covers_every_axis_fourth_moment(make):
    # the search evaluates every canonical pair (e_k, e_k), and
    # |rho R_k^4|_1 >= Tr[rho R_k^4], so kappa needs no separate floor
    rho1, rho2 = make()
    out = pair_output(rho1, rho2, 0.6)
    space = FockSpace(2 * rho1.space.n_modes, rho1.space.cutoff)
    kappa, _, _ = estimate_kappa(out.factor, space, seed=0)
    assert kappa >= np.max(axis_fourth_moments(output_density(out)))


def _displaced_and_thermal():
    space = FockSpace(1, 10)
    return displaced_vacuum(space, np.array([0.5, -0.3])), thermal_state(space, 0.3)


@pytest.mark.parametrize("make", [
    _number_diagonal_pair, _displaced_and_thermal, _full_rank_gaussians_two_modes,
], ids=["number-diagonal", "displaced", "two-modes-per-arm"])
def test_kappa_bounds_hold(make):
    # the bound that lets the kappa search skip a pair lies above the trace
    # norm of the dense product, for any head of rows, with the head's trace
    # norm taken on the blocks of the head's own rows in its level box
    rho1, rho2 = make()
    rho_ab, (w, p) = _output_and_factor(rho1, rho2, 0.6)
    space = rho_ab.space
    left = p[:, None] * w.conj().T
    r = len(left)
    assert r >= 4   # three distinct heads
    quads = np.array([q.matrix for q in quadratures(space)])
    rng = np.random.default_rng(8)
    us, vs = rng.normal(size=(2, 6, 2 * space.n_modes))
    us[0], vs[0] = np.eye(2 * space.n_modes)[:2]   # a canonical pair too
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    dense = np.array([trace_norm(left @ ru @ ru @ rv @ rv)
                      for ru, rv in zip(np.tensordot(us, quads, 1),
                                        np.tensordot(vs, quads, 1))])
    order, tail = _row_order(left)
    reach = np.maximum.accumulate(_level_tops(left, space)[order])
    # one head row lies in one block of its own products
    assert len(_boxed_rows(left, space, order[:1], reach[0]).blocks) == 1
    # the heads of both stages at the floor of the largest dense value, and
    # three more head sizes
    sup = (fock._mode_quadrature_norm(space.cutoff) ** 2 * space.n_modes) ** 2
    stages = [int(np.searchsorted(-tail, -share * np.max(dense) / sup))
              for share in fock._KAPPA_HEAD_SHARES]
    assert stages == sorted(set(stages)) and stages[-1] < r
    for h in (*stages, 1, r // 2, r - 1):
        head = _boxed_rows(left, space, order[:h], reach[h - 1])
        bound = _head_bounds(head, us, vs, tail[h], space.cutoff)
        assert np.all(bound >= dense * (1 - 1e-12))


def _boxes_of(left, space):
    """``_boxed_rows`` of the whole ``left`` and of its heads of 1, r/4 and
    r/2 rows by norm, each with the rows it holds."""
    order, _ = _row_order(left)
    reach = np.maximum.accumulate(_level_tops(left, space)[order])
    heads = [order[:h] for h in {1, max(1, len(left) // 4), max(1, len(left) // 2)}]
    return ([(slice(None), _boxed_rows(left, space, slice(None), reach[-1]))]
            + [(rows, _boxed_rows(left, space, rows, reach[len(rows) - 1]))
               for rows in heads])


def test_boxed_products_hold_the_whole_space_bits(monkeypatch):
    # on every dsrun-1mode case of seed 0, the products of the whole left and
    # of its heads, formed in their level boxes, hold the bits of the
    # whole-space product inside the box; outside it that product is 0
    rng = np.random.default_rng(13)
    for rho1, rho2, theta in benchmark_pairs(monkeypatch, "dsrun-1mode", 0):
        out = pair_output(rho1, rho2, theta)
        space = FockSpace(2, rho1.space.cutoff)
        w, p = out.factor
        left = p[:, None] * w.conj().T
        us = np.vstack([np.eye(4), rng.normal(size=(3, 4))])
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        vs = np.roll(us, 1, axis=0)
        whole = _kappa_products(left, space, us, vs)
        boxes = _boxes_of(left, space)
        assert min(boxed.space.cutoff for _, boxed in boxes) < space.cutoff
        for rows, boxed in boxes:
            got = _kappa_products(boxed.left, boxed.space, us, vs)
            ref = np.array(whole[:, rows]).reshape(len(us), -1, space.cutoff, space.cutoff)
            inside = (slice(None), slice(None)) + (slice(boxed.space.cutoff),) * 2
            np.testing.assert_array_equal(
                got.view(np.uint64), ref[inside].reshape(got.shape).view(np.uint64))
            ref[inside] = 0
            assert not np.any(ref)


@pytest.mark.parametrize("make", [
    _displaced_gaussian_and_thermal, _full_rank_gaussians_two_modes,
], ids=["displaced-gaussian-thermal", "two-modes-per-arm"])
def test_dense_gaussian_rows_keep_the_whole_space(make):
    # rows with weight on every level reach the top: each box is the whole
    # space, and the whole left is taken as it is, uncopied
    rho1, rho2 = make()
    out = pair_output(rho1, rho2, 0.6)
    space = FockSpace(2 * rho1.space.n_modes, rho1.space.cutoff)
    w, p = out.factor
    left = p[:, None] * w.conj().T
    boxes = _boxes_of(left, space)
    assert all(boxed.space == space for _, boxed in boxes)
    assert boxes[0][1].left is not left and np.shares_memory(boxes[0][1].left, left)


def _with_singular_values(rng, rows, cols, sv):
    """A stack of three complex rows x cols matrices with singular values
    ``sv`` (the rest zero), each with its own random singular vectors."""
    k = len(sv)
    out = []
    for _ in range(3):
        a = np.linalg.qr(rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k)))[0]
        b = np.linalg.qr(rng.normal(size=(cols, k)) + 1j * rng.normal(size=(cols, k)))[0]
        out.append((a * sv) @ b.conj().T)
    return np.array(out)


def _rank_deficient_product(rng):
    # a product of a 6 x 2 and a 2 x 20 factor: rank 2 of 6
    a = rng.normal(size=(3, 6, 2)) + 1j * rng.normal(size=(3, 6, 2))
    return a @ (rng.normal(size=(3, 2, 20)) + 1j * rng.normal(size=(3, 2, 20)))


def _near_eps_singular_values(rng):
    eps = np.finfo(float).eps
    return _with_singular_values(rng, 6, 20, [1.0, 3 * eps, eps, eps / 2, eps / 8])


def _single_row(rng):
    return rng.normal(size=(3, 1, 30)) + 1j * rng.normal(size=(3, 1, 30))


def _tall_block(rng):
    return _with_singular_values(rng, 12, 5, [2.0, 1.0, 1e-3, 1e-9, 0.0])


@pytest.mark.parametrize("make, short", [
    (_rank_deficient_product, 6),
    (_near_eps_singular_values, 6),
    (_single_row, 1),
    (_tall_block, 5),   # more rows than columns: the Gram matrix is 5 x 5
], ids=["rank-deficient-product", "singular-values-near-eps", "single-row",
        "more-rows-than-columns"])
def test_gram_bound_lies_above_the_trace_norm(monkeypatch, make, short):
    # sum sqrt(max(lam, 0) + delta) over the Gram eigenvalues of the short
    # side is at least the exact trace norm, and close to it
    m = make(np.random.default_rng(11))
    eigvalsh = np.linalg.eigvalsh
    sizes = []

    def recording_eigvalsh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    bound = _gram_trace_norm_bounds(m)
    exact = np.sum(np.linalg.svd(m, compute_uv=False), axis=-1)
    assert sizes == [short]
    assert np.all(bound >= exact)
    assert np.all(bound <= exact * (1 + 1e-5))


def test_gram_bound_falls_back_to_the_svd(monkeypatch):
    # entries near 1e160 overflow the Gram matrix: tr G is not finite, so the
    # bound is the exact SVD sum, and no eigenvalue is taken
    m = 1e160 * _rank_deficient_product(np.random.default_rng(12))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    bound = _gram_trace_norm_bounds(m)
    np.testing.assert_array_equal(
        bound, np.sum(np.linalg.svd(m, compute_uv=False), axis=-1))
    assert np.all(np.isfinite(bound))


@pytest.mark.parametrize("n_modes", [2, 4], ids=["one-mode-per-arm", "two-modes-per-arm"])
def test_quadrature_norms_match_dense_spectrum(n_modes):
    space = FockSpace(n_modes, 4)
    quads = np.array([q.matrix for q in quadratures(space)])
    rng = np.random.default_rng(9)
    coeffs = np.vstack([np.eye(2 * n_modes), rng.normal(size=(6, 2 * n_modes))])
    closed = _quadrature_norms(coeffs, space.cutoff)
    for c, norm in zip(coeffs, closed):
        dense = np.max(np.abs(np.linalg.eigvalsh(np.tensordot(c, quads, 1))))
        assert norm == pytest.approx(dense, abs=1e-12)
        assert _quadrature_norms(c, space.cutoff) == norm


def test_kappa_search_skips_most_full_rank_pairs(monkeypatch):
    # two full-rank thermals: all but a few of the 100 evaluations are
    # proved unable to beat the running best before their full product
    # reaches the block SVDs
    space = FockSpace(1, 12)
    out = pair_output(thermal_state(space, 0.3), thermal_state(space, 0.2), 0.6)
    r = len(out.factor[1])
    reached = []
    block_trace_norms = fock._block_trace_norms

    def counting(prod, blocks):
        if prod.shape[1] == r:
            reached.append(len(prod))
        return block_trace_norms(prod, blocks)

    monkeypatch.setattr(fock, "_block_trace_norms", counting)
    kappa, _, n_eval = estimate_kappa(out.factor, FockSpace(2, 12), seed=0)
    assert n_eval == 100
    assert 0 < sum(reached) <= 20


def test_kappa_search_svds_stay_within_blocks(monkeypatch):
    # every SVD of the kappa search, bounds included, is taken on one zero
    # block: none is wider than the widest block of the products
    space = FockSpace(1, 12)
    out = pair_output(thermal_state(space, 0.3), thermal_state(space, 0.2), 0.6)
    w, p = out.factor
    ab = FockSpace(2, 12)
    blocks = _kappa_blocks(p[:, None] * w.conj().T, ab)
    widest = max(np.size(cols) for _, cols in blocks)
    assert widest < ab.dim
    columns = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        columns.append(a.shape[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    estimate_kappa(out.factor, ab, seed=0)
    assert columns and max(columns) <= widest


def _canonical_axes(dim):
    return [(i, j) for i in range(dim) for j in range(dim)]


def _conserving_pairs(monkeypatch):
    """Input pairs whose output keeps every mode pair's photon total: every
    dsrun case of seeds 0-5, CI's full-rank Gaussians at 2 modes/arm,
    cutoff 4, and a pure Fock pair at 2 modes/arm."""
    for workload in ("dsrun-1mode", "dsrun-2mode"):
        for seed in range(6):
            yield from benchmark_pairs(monkeypatch, workload, seed)
    space = FockSpace(2, 4)
    gaussians = [gaussian_to_fock(GaussianState(np.zeros(4), np.diag([a, a, b, b])),
                                  space) for a, b in ((1.3, 1.2), (1.6, 1.5))]
    yield (*gaussians, 0.6)
    yield fock_state(space, (1, 0)), vacuum(space), 0.6


def test_phase_images_tie_with_their_representatives(monkeypatch):
    # on an output that keeps every mode pair's photon total, each canonical
    # pair the search leaves out as a phase image, evaluated anyway, ties
    # with its orbit's first pair, the one kept, within the search's tie
    # margin (1 + dim eps); the kept pairs are the orbits' first pairs
    n_cases = 0
    for rho1, rho2, theta in _conserving_pairs(monkeypatch):
        out = pair_output(rho1, rho2, theta)
        space = out.space
        w, p = out.factor
        left = p[:, None] * w.conj().T
        assert fock._conserves_pair_totals(left, space)
        dim = 2 * space.n_modes
        axes = _canonical_axes(dim)
        images = _phase_images(space.n_modes)
        kept = fock._phase_orbit_representatives(axes, space.n_modes // 2)
        assert kept == [pair for pair in axes if pair not in images]
        assert len(kept) == {2: 8, 4: 24}[space.n_modes]
        blocks = _kappa_blocks(left, space)
        eye = np.eye(dim)
        values = {}
        for at in range(0, len(axes), 8):
            part = axes[at:at + 8]
            values.update(zip(part, _kappa_values(
                left, space, eye[[i for i, _ in part]], eye[[j for _, j in part]],
                blocks)))
        margin = 1.0 + space.dim * np.finfo(float).eps
        n = space.n_modes // 2
        for i, j in images:
            first = min((i ^ f[i // 2 % n], j ^ f[j // 2 % n])
                        for f in itertools.product((0, 1), repeat=n))
            assert values[i, j] <= values[first] * margin
            assert values[first] <= values[i, j] * margin
        n_cases += 1
    assert n_cases == 6 * 4 + 6 * 2 + 2


def _squeezed_and_thermal_cutoff_16():
    space = FockSpace(1, 16)
    return (parse_state_spec("squeezed:0.3", space),
            parse_state_spec("thermal:0.2", space))


@pytest.mark.parametrize("make", [_squeezed_and_thermal_cutoff_16,
                                  _displaced_and_thermal],
                         ids=["squeezed-thermal", "displaced-thermal"])
def test_dense_path_factors_offer_every_canonical_pair(monkeypatch, make):
    # the rows of a dense-path factor mix photon totals, so no phase
    # rotation leaves rho fixed: every canonical pair reaches a head bound
    # or a full product
    rho1, rho2 = make()
    out = pair_output(rho1, rho2, 0.6)
    assert out.path == "dense"
    w, p = out.factor
    assert not fock._conserves_pair_totals(p[:, None] * w.conj().T, out.space)
    head_bounds, kappa_values = fock._head_bounds, fock._kappa_values
    offered = set()

    def offer(us, vs):
        offered.update((int(np.argmax(u)), int(np.argmax(v)))
                       for u, v in zip(us, vs) if np.count_nonzero(u) == 1)

    def bounds(head, us, vs, *args):
        offer(us, vs)
        return head_bounds(head, us, vs, *args)

    def values(left, space, us, vs, *args):
        offer(us, vs)
        return kappa_values(left, space, us, vs, *args)

    monkeypatch.setattr(fock, "_head_bounds", bounds)
    monkeypatch.setattr(fock, "_kappa_values", values)
    estimate_kappa(out.factor, out.space, seed=0)
    assert offered >= set(_canonical_axes(2 * out.space.n_modes))


@pytest.mark.parametrize("make", [
    _number_diagonal_pair, _displaced_and_thermal, _full_rank_gaussians_two_modes,
    _two_mode_mixtures,
], ids=["number-diagonal", "displaced", "full-rank-two-modes", "two-mode-mixtures"])
def test_frobenius_bound_lies_above_the_trace_norm(make):
    # sum over blocks of sqrt(min(h, c)) ||block||_F is at least each
    # product's block trace norm and its dense trace norm
    rho1, rho2 = make()
    rho_ab, (w, p) = _output_and_factor(rho1, rho2, 0.6)
    space = rho_ab.space
    left = p[:, None] * w.conj().T
    blocks = _kappa_blocks(left, space)
    quads = np.array([q.matrix for q in quadratures(space)])
    rng = np.random.default_rng(14)
    dim = 2 * space.n_modes
    us, vs = rng.normal(size=(2, 6, dim))
    us[:2], vs[:2] = np.eye(dim)[:2], np.eye(dim)[1:3]   # canonical pairs too
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    prod = _kappa_products(left, space, us, vs)
    bound = fock._frobenius_bounds(prod, blocks)
    assert np.all(bound >= fock._block_trace_norms(prod, blocks))
    dense = [trace_norm(left @ ru @ ru @ rv @ rv)
             for ru, rv in zip(np.tensordot(us, quads, 1), np.tensordot(vs, quads, 1))]
    assert np.all(bound >= np.array(dense) * (1 - 1e-12))


def test_prefiltered_pairs_could_not_be_kept(monkeypatch):
    # a pair whose Frobenius bound is at most the floor takes no SVD; its
    # trace norm, taken anyway, is at most that floor, and every other pair
    # keeps the value it has with no floor
    kappa_values = fock._kappa_values
    calls = Counter()

    def checked(left, space, us, vs, blocks, floor):
        got = kappa_values(left, space, us, vs, blocks, floor)
        every = kappa_values(left, space, us, vs, blocks)
        for val, ref in zip(got, every):
            if val == -np.inf:
                calls["filtered"] += 1
                assert ref <= floor
            else:
                calls["kept"] += 1
                assert val == ref
        return got

    monkeypatch.setattr(fock, "_kappa_values", checked)
    pairs = list(benchmark_pairs(monkeypatch, "dsrun-2mode", 0))
    pairs += list(benchmark_pairs(monkeypatch, "dsrun-1mode", 0))[2:3]   # c16
    for rho1, rho2, theta in pairs:
        out = pair_output(rho1, rho2, theta)
        estimate_kappa(out.factor, out.space, seed=0)
    assert calls["filtered"] > calls["kept"] > 0


def test_shared_u_products_hold_the_unshared_bits():
    # pairs that share u in a batch share one left R_u R_u; each product
    # holds the bits of the pair formed alone
    rho1, rho2 = _two_mode_mixtures()
    rho_ab, (w, p) = _output_and_factor(rho1, rho2, 0.6)
    space = rho_ab.space
    left = p[:, None] * w.conj().T
    dim = 2 * space.n_modes
    eye = np.eye(dim)
    rng = np.random.default_rng(15)
    random_u = rng.normal(size=dim)
    random_u /= np.linalg.norm(random_u)
    us = np.array([eye[2]] * 3 + [random_u] * 2 + [eye[2], eye[5]])
    vs = np.vstack([eye[[0, 3, 7, 1, 6]], rng.normal(size=(2, dim))])
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    shared = _kappa_products(left, space, us, vs)
    alone = np.array([_kappa_products(left, space, u[None], v[None])[0]
                      for u, v in zip(us, vs)])
    np.testing.assert_array_equal(shared.view(np.uint64), alone.view(np.uint64))


def test_block_trace_norms_sum_like_the_per_pair_loop():
    # the one-pass sum over the sorted singular values of every pair holds
    # the bits of summing each pair's own sorted values
    for seed in range(200):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 6, size=rng.integers(1, 5)).tolist()
        pattern = _permuted_blocks(sizes, seed)
        blocks = block_groups(pattern)
        b = int(rng.integers(1, 5))
        prod = (rng.normal(size=(b,) + pattern.shape)
                + 1j * rng.normal(size=(b,) + pattern.shape)) * pattern
        prod *= 10.0 ** rng.uniform(-3, 3, size=(b, 1, 1))
        svs = [np.linalg.svd(prod[(slice(None),) + idx], compute_uv=False)
               for idx in blocks]
        loop = [np.sum(np.sort(np.concatenate([sv[k] for sv in svs]))[::-1])
                for k in range(b)]
        np.testing.assert_array_equal(
            fock._block_trace_norms(prod, blocks).view(np.uint64),
            np.array(loop).view(np.uint64))


def test_gaussify_round_trip():
    space = FockSpace(1, 14)
    gs = GaussianState(np.array([0.4, 0.2]), np.diag([1.4, 0.9]))
    rho = gaussian_to_fock(gs, space)
    back = gaussify(rho)
    np.testing.assert_allclose(back.d, gs.d, atol=1e-7)
    np.testing.assert_allclose(back.gamma, gs.gamma, atol=1e-6)


def test_gaussify_fock_and_mixture(space14):
    gs = gaussify(fock_state(space14, 1))
    np.testing.assert_allclose(gs.d, 0, atol=1e-10)
    np.testing.assert_allclose(gs.gamma, 3 * np.eye(2), atol=1e-10)
    mix = mixture([(0.5, fock_state(space14, 0)), (0.5, fock_state(space14, 2))])
    gs = gaussify(mix)
    np.testing.assert_allclose(gs.gamma, 3 * np.eye(2), atol=1e-10)


def test_gaussify_rejects_unphysical_moments():
    # a signed (non-PSD) operator can fake sub-vacuum second moments
    space = FockSpace(1, 6)
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0], m[1, 1] = 1.01, -0.01
    rho = FockOperator(space, m)
    with pytest.raises(UncertaintyViolationError):
        gaussify(rho)


# --- synthesis -------------------------------------------------------------


def test_synthesis_vacuum():
    space = FockSpace(1, 12)
    rho = gaussian_to_fock(GaussianState(np.zeros(2), np.eye(2)), space)
    expected = np.zeros((12, 12))
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-6


def test_synthesis_thermal_populations():
    space = FockSpace(1, 14)
    nbar = 0.5
    rho = gaussian_to_fock(GaussianState(np.zeros(2), (2 * nbar + 1) * np.eye(2)),
                           space)
    m = np.arange(14)
    expected = nbar ** m / (1 + nbar) ** (m + 1.0)
    np.testing.assert_allclose(np.real(np.diag(rho.matrix)), expected, atol=1e-5)


def test_synthesis_displaced_mean():
    space = FockSpace(1, 14)
    rho = gaussian_to_fock(GaussianState(np.array([1.0, 0.0]), np.eye(2)), space)
    q = quadratures(space)[0]
    assert np.trace(rho.matrix @ q.matrix).real == pytest.approx(1.0, abs=1e-6)


def test_synthesis_squeezed_orientation():
    # the larger variance must land on Q, not P
    space = FockSpace(1, 14)
    gamma = np.diag([np.exp(0.5), np.exp(-0.5)])
    rho = gaussian_to_fock(GaussianState(np.zeros(2), gamma), space)
    table = moments(rho)
    np.testing.assert_allclose(table.gamma, gamma, atol=1e-6)


def test_synthesis_mass_deficit_flag():
    space = FockSpace(1, 6)
    rho = gaussian_to_fock(GaussianState(np.zeros(2), 3 * np.eye(2)), space)
    assert any("mass-deficit" in f for f in rho.flags)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_synthesis_matches_expm_construction():
    # D(alpha) R(phi) S(r) nu_th built by matrix exponentials far above the
    # cutoff; its Heisenberg action is R -> M_R M_S R + sqrt(2)(Re, Im) alpha
    alpha, phi, r, nbar = 0.4 - 0.3j, 0.7, 0.35, 0.2
    big, cutoff = 80, 12
    a = lowering(big)
    squeeze = expm((r / 2) * (a @ a - a.T @ a.T))
    rotate = np.diag(np.exp(-1j * phi * np.arange(big)))
    displace = expm(alpha * a.T - np.conj(alpha) * a)
    u = displace @ rotate @ squeeze
    pops = (nbar / (1 + nbar)) ** np.arange(big) / (1 + nbar)
    block = (u @ np.diag(pops) @ u.conj().T)[:cutoff, :cutoff]
    block /= np.trace(block).real

    m = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]) \
        @ np.diag([np.exp(-r), np.exp(r)])
    gs = GaussianState(np.sqrt(2) * np.array([alpha.real, alpha.imag]),
                       (2 * nbar + 1) * m @ m.T)
    assert abs(gs.gamma[0, 1]) > 0.5
    rho = gaussian_to_fock(gs, FockSpace(1, cutoff))
    assert np.max(np.abs(rho.matrix - block)) <= 1e-12


def test_synthesis_heavily_squeezed_at_low_cutoff():
    # 9.8% of squeezed:1.2 lies beyond cutoff 8: flagged, renormalized, valid
    rho = validate_density(squeezed_surrogate(FockSpace(1, 8), 1.2))
    assert any(f.startswith("truncation:synthesis:mass-deficit=") for f in rho.flags)
    # at a cutoff that holds the state, its moments come back
    table = moments(squeezed_surrogate(FockSpace(1, 160), 1.2))
    np.testing.assert_allclose(table.gamma, np.diag([np.exp(2.4), np.exp(-2.4)]),
                               atol=1e-8)
    np.testing.assert_allclose(table.d, 0.0, atol=1e-8)


def test_synthesis_rejects_invalid_covariance():
    with pytest.raises(ValidationError):
        gaussian_to_fock(GaussianState(np.zeros(2), np.eye(2) / 8), FockSpace(1, 8))


# --- validation / flags ----------------------------------------------------


def test_density_validation_errors():
    space = FockSpace(1, 4)
    with pytest.raises(ValidationError):
        density(space, np.diag([0.5, 0.5, 0.0, 0.2]).astype(complex))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(ValidationError):
        density(space, bad)
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        density(space, negative)


def test_leak_flags_on_hot_thermal():
    rho = thermal_state(FockSpace(1, 6), 1.0)
    assert leak_population(rho) > 1e-6
    assert any(f.startswith("truncation:") for f in rho.flags)


def test_space_validation():
    with pytest.raises(ValidationError):
        FockSpace(0, 4)
    with pytest.raises(ValidationError):
        FockSpace(1, 1)
    with pytest.raises(DimensionError):
        FockOperator(FockSpace(1, 4), np.eye(3))


def test_mode_populations_match_partial_traces():
    from bosonic_ds.fock import mode_populations

    space = FockSpace(3, 3)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    m = a @ a.conj().T
    rho = density(space, m / np.trace(m).real)
    ref = np.array([np.real(np.diag(partial_trace(rho, (l,)).matrix))
                    for l in range(3)])
    np.testing.assert_allclose(mode_populations(rho), ref, atol=1e-14)
