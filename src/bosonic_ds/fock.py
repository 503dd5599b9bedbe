"""Truncated Fock-space operator algebra.

Dense complex matrices on n modes with a per-mode cutoff D (levels 0..D-1).
Combined two-arm spaces order the modes arm-1 first, then arm-2, matching
the Kronecker-product convention ``kron(arm1, arm2)``.

Truncation policy: cutoff effects are never hidden, and each is flagged once:
a builder flags the mass it cut (``flags``), and the stage that reads a state
flags its top-level leak, under its role there (``truncation_flags``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (CalibrationError, DimensionError,
                     UncertaintyViolationError, ValidationError)
from .symplectic import (GaussianState, beam_splitter, check_uncertainty,
                         symplectic_form)

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class FockSpace:
    """n modes, each truncated to ``cutoff`` levels; dim = cutoff**n."""

    n_modes: int
    cutoff: int

    def __post_init__(self):
        if self.n_modes < 1 or self.cutoff < 2:
            raise ValidationError("need n_modes >= 1 and cutoff >= 2")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.n_modes


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on a FockSpace with truncation flags."""

    space: FockSpace
    matrix: np.ndarray
    flags: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise DimensionError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}"
            )
        object.__setattr__(self, "matrix", m)


def validate_density(op: FockOperator,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    """Check finiteness, Hermiticity, unit trace and positivity of a density
    operator."""
    m = op.matrix
    if not np.all(np.isfinite(m)):
        raise ValidationError("density has non-finite entries")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > tol.density_hermiticity:
        raise ValidationError(f"density not Hermitian: defect {herm:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol.density_trace:
        raise ValidationError(f"density trace {tr!r} deviates from 1")
    mineig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if mineig < -tol.density_psd:
        raise ValidationError(f"density has eigenvalue {mineig:.3e}")
    return op


def density(space: FockSpace, matrix: np.ndarray, flags: tuple = (),
            tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    return validate_density(FockOperator(space, matrix, flags), tol)


# ---------------------------------------------------------------------------
# Ladder and quadrature operators


@functools.lru_cache(maxsize=16)
def _shift_weights(n_modes: int, cutoff: int) -> tuple:
    """The stride cutoff^(n-1-l) of each mode l on the flat index j, and the
    read-only (n, dim) weights up[l, j] = sqrt(k+1)/sqrt2 and down[l, j] =
    sqrt(k)/sqrt2 of a shift from j to mode l's level k + 1 and k - 1, k
    being its level at j.  up is 0 on the top level and down on level 0, so
    no shift by a stride reaches into the next block of that mode's levels."""
    strides = cutoff ** np.arange(n_modes - 1, -1, -1)
    k = np.arange(cutoff ** n_modes) // strides[:, None] % cutoff
    up = np.where(k < cutoff - 1, np.sqrt(k + 1.0) / SQRT2, 0.0)
    down = np.sqrt(k.astype(float)) / SQRT2
    up.flags.writeable = down.flags.writeable = False
    return tuple(strides.tolist()), up, down


def apply_quadratures(x: np.ndarray, coeffs, space: FockSpace) -> np.ndarray:
    """x @ sum_k c_k R_k on the last axis of x, R = (Q1, P1, ..., Qn, Pn).

    ``coeffs`` is one vector (2n,) or a batch (b, 2n); for a batch, x has
    shape (b or 1, ..., dim) and entry i of the result uses row i.  The
    one-mode M = c_Q Q + c_P P is tridiagonal, M[k, k+1] = (c_Q - i c_P)
    sqrt(k+1)/sqrt2 and M[k+1, k] = (c_Q + i c_P) sqrt(k+1)/sqrt2, so mode l
    is two products by ``_shift_weights``, each added to the result shifted
    by the mode's stride on the flat index of the whole array (a shift past
    the end of a row carries a zero weight).  A mode is skipped when every
    row's coefficients on it are zero.
    """
    coeffs = np.asarray(coeffs)
    strides, up, down = _shift_weights(space.n_modes, space.cutoff)
    cq, cp = coeffs[..., 0::2, None], coeffs[..., 1::2, None]
    c_up, c_down = cq - 1j * cp, cq + 1j * cp
    active = np.any(coeffs.reshape(-1, len(strides), 2), axis=(0, 2))
    lead = coeffs.shape[:-1] + (1,) * (x.ndim - coeffs.ndim)
    out = np.zeros(np.broadcast_shapes(x.shape, lead + x.shape[-1:]),
                   dtype=complex)
    term = np.empty_like(out)
    flat_out, flat_term = out.reshape(-1), term.reshape(-1)
    for mode, s in enumerate(strides):
        if active[mode]:
            w = c_up[..., mode, :] * up[mode]
            np.multiply(x, w.reshape(lead + (-1,)), out=term)
            flat_out[s:] += flat_term[:-s]
            w = c_down[..., mode, :] * down[mode]
            np.multiply(x, w.reshape(lead + (-1,)), out=term)
            flat_out[:-s] += flat_term[s:]
    return out


def quadratures(space: FockSpace) -> list:
    """The 2n operators (Q1, P1, ..., Qn, Pn) built from truncated ladders,
    as dense matrices (the quadrature primitive applied to the identity).

    [Q_l, P_l] = i holds exactly below the top Fock level; the defect at
    level cutoff-1 is the unavoidable truncation artifact.
    """
    eye = np.eye(space.dim)
    return [FockOperator(space, apply_quadratures(eye, e, space))
            for e in np.eye(2 * space.n_modes)]


@functools.lru_cache(maxsize=16)
def _mode_quadratures(cutoff: int) -> np.ndarray:
    """One mode's (Q, P) as a read-only complex (2, cutoff, cutoff) array."""
    quads = np.array([q.matrix for q in quadratures(FockSpace(1, cutoff))])
    quads.flags.writeable = False
    return quads


@functools.lru_cache(maxsize=16)
def _mode_quadrature_norm(cutoff: int) -> float:
    """||Q||_op of one truncated mode: its largest |eigenvalue|."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_mode_quadratures(cutoff)[0]))))


def _quadrature_norms(coeffs, cutoff: int) -> np.ndarray:
    """||sum_k c_k R_k||_op for each coefficient vector on the last axis of
    ``coeffs``, in closed form: q sum_l |(c_2l, c_2l+1)|, q = ||Q||_op.  The
    phase rotation exp(i phi N) of mode l keeps the truncated space and maps
    c_Q Q + c_P P onto |c| Q, whose spectrum is symmetric (Q is tridiagonal
    with a zero diagonal); the modes commute, so the extreme eigenvalue of
    the sum is the sum of theirs."""
    c = np.asarray(coeffs)
    per_mode = np.linalg.norm(c.reshape(c.shape[:-1] + (-1, 2)), axis=-1)
    return _mode_quadrature_norm(cutoff) * per_mode.sum(axis=-1)


# ---------------------------------------------------------------------------
# Weyl operators
#
# W_xi = exp(i xi . sigma R) factorizes over modes as displacement operators
# D(alpha_l) with alpha_l = -(xi_{2l} + i xi_{2l+1}) / sqrt(2).


def weyl_alphas(xs: np.ndarray, n_modes: int) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 2 * n_modes:
        raise DimensionError(f"points have dimension {xs.shape[1]}, "
                             f"expected {2 * n_modes}")
    return -(xs[:, 0::2] + 1j * xs[:, 1::2]) / SQRT2


def displacement_elements(alpha: np.ndarray, cutoff: int) -> np.ndarray:
    """Matrix elements <m|exp(alpha a^+ - conj(alpha) a)|n> for a batch.

    Closed form via associated Laguerre polynomials; exact for operators
    supported below the cutoff, unlike the exponential of the truncated
    generator.  Returns an array of shape alpha.shape + (cutoff, cutoff).
    """
    alpha = np.asarray(alpha, dtype=complex)
    a = alpha.ravel()   # the batch is the last axis below: rows are contiguous
    x = (a * a.conj()).real
    env = np.exp(-x / 2.0)
    d = cutoff
    k = np.arange(d)[:, None]

    # alpha^k and (-conj(alpha))^k for k = 0..d-1, as repeated products
    pow_a = np.ones((d,) + a.shape, dtype=complex)
    pow_b = np.ones_like(pow_a)
    pow_a[1:] = a
    pow_b[1:] = -a.conj()
    pow_a, pow_b = np.cumprod(pow_a, axis=0), np.cumprod(pow_b, axis=0)

    # lag[n, k] = L_n^(k)(x) by the standard three-term recurrence in n
    lag = np.ones((d, d) + a.shape)
    if d > 1:
        lag[1] = 1.0 + k - x
        for n in range(1, d - 1):
            lag[n + 1] = ((2 * n + k + 1 - x) * lag[n] - (n + k) * lag[n - 1]) / (n + 1)

    lg = np.array([math.lgamma(m + 1) for m in range(d)])   # log m!
    out = np.empty((d * d,) + a.shape, dtype=complex)   # row m d + n holds <m|D|n>
    for j in range(d):   # <m + j|D|m> and <m|D|m + j> for m = 0..d-j-1
        base = np.exp(0.5 * (lg[:d - j] - lg[j:]))[:, None] * env * lag[:d - j, j]
        out[j * d::d + 1] = base * pow_a[j]
        out[j:(d - j) * d:d + 1] = base * pow_b[j]
    return out.T.reshape(alpha.shape + (d, d))


def safe_extent(space: FockSpace) -> float:
    """Heuristic radius within which truncated Weyl operators are trustworthy.

    A displacement by ``xi`` carries weight up to roughly |xi|^2/2 quanta;
    keeping a few levels of headroom gives |xi| <= sqrt(2) (sqrt(D) - 2).
    """
    return max(0.0, SQRT2 * (np.sqrt(space.cutoff) - 2.0))


def certified_levels(space: FockSpace) -> int:
    """Size of the declared low-energy block on which products of truncated
    unitaries obey their operator identities.

    The top half of the spectrum is inherently corrupted: a product of two
    truncated exponentials is missing every path through the removed levels,
    so composition laws are only certified below cutoff // 2.
    """
    return space.cutoff // 2


def weyl_operator(space: FockSpace, xi: np.ndarray) -> FockOperator:
    """Unitary exp(i xi . sigma R) on the truncated space, from the
    eigendecomposition of the Hermitian generator H = xi . sigma R:
    W = V diag(exp(i lam)) V* for H = V diag(lam) V*."""
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.size != 2 * space.n_modes:
        raise DimensionError(f"xi has size {xi.size}, expected {2 * space.n_modes}")
    if not np.all(np.isfinite(xi)):
        raise ValidationError("xi must be finite")
    sigma = symplectic_form(space.n_modes)
    coeff = sigma.T @ xi   # xi . sigma R = sum_k (sigma^T xi)_k R_k
    lam, v = np.linalg.eigh(apply_quadratures(np.eye(space.dim), coeff, space))
    w = (v * np.exp(1j * lam)) @ v.conj().T
    flags = ()
    if float(np.linalg.norm(xi)) > safe_extent(space):
        flags = ("weyl:beyond-safe-extent",)
    return FockOperator(space, w, flags)


# ---------------------------------------------------------------------------
# Characteristic-function evaluation (trace against Weyl operators)


def char_batch(rho: FockOperator, xs: np.ndarray) -> np.ndarray:
    """chi(xs) = Tr[W_xs rho] for a batch of points, shape (M, 2n) -> (M,).

    Uses the closed-form Weyl matrix elements, which evaluate the exact
    characteristic function of the truncated operator at any point.  W_xi is
    the product of one displacement D_l per mode, so Tr[W rho] is the sum of
    rho[a, b] prod_l D_l[b_l, a_l], contracted one mode at a time.  Points
    go in batches of max(1, 2**20 // cutoff**(2n)): a batch's displacement
    elements and partial contractions then hold at most 2**20 complex
    entries, or one point's worth where a single point needs more.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n, d = rho.space.n_modes, rho.space.cutoff
    # rho[a, b] -> t[(b_1, a_1), (b_2, a_2, ..., b_n, a_n)]
    order = [axis for mode in range(n) for axis in (n + mode, mode)]
    t = rho.matrix.reshape((d,) * (2 * n)).transpose(order).reshape(d * d, -1)
    batch = max(1, 2 ** 20 // d ** (2 * n))
    out = np.empty(xs.shape[0], dtype=complex)
    for lo in range(0, xs.shape[0], batch):
        alphas = weyl_alphas(xs[lo:lo + batch], n)
        m = len(alphas)
        acc = displacement_elements(alphas[:, 0], d).reshape(m, d * d) @ t
        for mode in range(1, n):
            acc = np.einsum("mk,mkr->mr",
                            displacement_elements(alphas[:, mode], d).reshape(m, d * d),
                            acc.reshape(m, d * d, -1))
        out[lo:lo + batch] = acc[:, 0]
    return out


# ---------------------------------------------------------------------------
# Beam-splitter unitary


def _sector_grid(cutoff: int) -> tuple:
    """The photon-number sectors of a mode pair, each padded to ``cutoff``
    slots: row N holds the states |n1, N - n1> inside the cutoff in ascending
    n1, for N = 0 .. 2 cutoff - 2.  Returns the slots' n1 and pair-space
    indices, both (2 cutoff - 1, cutoff), and the mask of slots that hold a
    state (the index of an empty slot is 0)."""
    total = np.arange(2 * cutoff - 1)[:, None]
    n1 = np.maximum(0, total - cutoff + 1) + np.arange(cutoff)
    inside = n1 <= np.minimum(total, cutoff - 1)
    return n1, np.where(inside, n1 * cutoff + total - n1, 0), inside


def _sector_exponential(hop: np.ndarray) -> np.ndarray:
    """exp(A) for the real antisymmetric tridiagonal A with A[j, j + 1] =
    hop[j] = -A[j + 1, j], batched over the leading axes of ``hop``, in
    closed form and real arithmetic.  With D = diag(i^j), D A D* = -i T for
    the real symmetric tridiagonal T with off-diagonal ``hop``, so exp(A)[j,
    k] = i^(k - j) (cos T - i sin T)[j, k].

    T couples only slots of opposite parity: in even/odd slot order T =
    [[0, B], [B^T, 0]], with B the ceil(c/2) x floor(c/2) lower bidiagonal
    B[a, a] = hop[2a], B[a, a - 1] = hop[2a - 1] (c slots).  From one SVD B =
    U S V^T with U square, cos T = diag(U cos S U^T, V cos S V^T) (cos 0 = 1
    on U's extra column when c is odd) and sin T holds U sin S V^T and its
    transpose off the diagonal.  So exp(A)[j, k] is (-1)^((k - j)/2) cos T[j,
    k] when j = k (mod 2) and (-1)^((k - j - 1)/2) sin T[j, k] otherwise;
    the signs (-1)^a are folded into U's and V's rows.  Every array formed is
    real and of half size.  Functions of T do not depend on the basis an SVD
    picks inside a degenerate singular subspace (zero hops, or the null
    vector of an odd c)."""
    c = hop.shape[-1] + 1
    even, odd = (c + 1) // 2, c // 2
    b = np.zeros(hop.shape[:-1] + (even, odd))
    diag, sub = np.arange(odd), np.arange(1, even)
    b[..., diag, diag] = hop[..., 0::2]
    b[..., sub, sub - 1] = hop[..., 1::2]
    u, s, vt = np.linalg.svd(b)
    sign = 1.0 - 2.0 * (np.arange(even) % 2)
    u *= sign[:, None]
    v = np.swapaxes(vt, -1, -2) * sign[:odd, None]
    cos_u = np.ones(u.shape[:-1])
    cos_u[..., :odd] = np.cos(s)
    out = np.empty(hop.shape[:-1] + (c, c))
    out[..., 0::2, 0::2] = (u * cos_u[..., None, :]) @ np.swapaxes(u, -1, -2)
    out[..., 1::2, 1::2] = (v * cos_u[..., None, :odd]) @ np.swapaxes(v, -1, -2)
    out[..., 0::2, 1::2] = (u[..., :odd] * np.sin(s)[..., None, :]) @ np.swapaxes(v, -1, -2)
    out[..., 1::2, 0::2] = -np.swapaxes(out[..., 0::2, 1::2], -1, -2)
    return out


def _sector_hops(cutoff: int) -> np.ndarray:
    """<n1, N - n1| a2* a1 |n1 + 1, N - n1 - 1> on each sector of
    ``_sector_grid``, the weight into slot j from slot j + 1, as a real
    (2 cutoff - 1, cutoff - 1) array: sqrt((n1 + 1) (N - n1)), 0 where slot
    j + 1 is empty.  It is also <n1 + 1, N - n1 - 1| a1* a2 |n1, N - n1>."""
    n1, _, inside = _sector_grid(cutoff)
    n2 = np.arange(2 * cutoff - 1)[:, None] - n1
    return np.sqrt(np.where(inside[:, 1:], n1[:, 1:] * (n2[:, 1:] + 1.0), 0.0))


@functools.lru_cache(maxsize=8)
def pair_blocks(cutoff: int, theta: float) -> np.ndarray:
    """exp(theta (a2* a1 - a1* a2)) on one mode pair, FockSpace(2, cutoff),
    as its photon-number sector blocks: a read-only real (2 cutoff - 1,
    cutoff, cutoff) array in the slots of ``_sector_grid``, calibrated once
    at construction against the block rotation (``_calibrate_beam_splitter``).

    The generator conserves n1 + n2, and so does its truncation, so U is the
    direct sum over totals N of the exponential of the generator on the
    states |n1, N - n1> inside the cutoff.  There it is real tridiagonal:
    a2* a1 takes |n1, n2> to |n1 - 1, n2 + 1> with weight sqrt(n1 (n2 + 1)),
    and a1* a2 is its transpose.  ``_sector_exponential`` takes all blocks
    from one batched real SVD of half their size.  Every entry on an empty
    slot is exactly 0: the exponential of a padded block is the identity on
    its padding, whose zero hops give zero singular values, and the SVD may
    mix that degenerate subspace with the sector's own, so the padding is
    zeroed after the exponential."""
    _, _, inside = _sector_grid(cutoff)
    blocks = np.where(inside[:, :, None] & inside[:, None, :],
                      _sector_exponential(theta * _sector_hops(cutoff)), 0.0)
    _calibrate_beam_splitter(blocks, theta, cutoff)
    blocks.flags.writeable = False   # one cached array serves every caller
    return blocks


def _transport_defects(blocks: np.ndarray, theta: float, cutoff: int) -> np.ndarray:
    """max |B_N^T (L_l B_(N + 1)) - sum_m S_lm L_m| for the two lowering
    blocks L_l = <N|a_l|N + 1>/sqrt2 (l = 1, 2) of a mode pair, over the full
    sectors N = 0 .. cutoff - 3 and every entry, in the slots of
    ``_sector_grid`` (slot n1 of a full sector is |n1, N - n1>).  a_1 takes
    |n1 + 1, n2> to |n1, n2> with weight sqrt(n1 + 1), a_2 takes |n1, n2 + 1>
    to it with weight sqrt(n2 + 1), so L_1 lies on the superdiagonal and L_2
    on the diagonal of slots n1 <= N, and L_l B is B's rows, shifted by one
    for a_1 and scaled: one batched product by B_N^T, from which the two
    scaled diagonals of S L are subtracted."""
    top = cutoff - 2
    total, n1 = np.arange(top)[:, None], np.arange(cutoff - 1)
    held = n1 <= total
    w1 = np.where(held, np.sqrt(n1 + 1.0) / SQRT2, 0.0)
    w2 = np.sqrt(np.where(held, total - n1 + 1.0, 0.0)) / SQRT2
    nxt = blocks[1:top + 1]
    moved = np.zeros((2,) + nxt.shape)
    np.multiply(w1[:, :, None], nxt[:, 1:], out=moved[0, :, :-1])
    np.multiply(w2[:, :, None], nxt[:, :-1], out=moved[1, :, :-1])
    diff = np.swapaxes(blocks[:top], -1, -2) @ moved
    s = beam_splitter(theta, 1)[0::2, 0::2]
    for l in range(2):
        diff[l, :, n1, n1 + 1] -= s[l, 0] * w1.T
        diff[l, :, n1, n1] -= s[l, 1] * w2.T
    return np.max(np.abs(diff), axis=(1, 2, 3), initial=0.0)


_TRANSPORT_TOL = 1e-9   # on <N|a_l|N + 1>/sqrt2, the quadratures' scale


def _calibrate_beam_splitter(blocks: np.ndarray, theta: float,
                             cutoff: int) -> None:
    # The pair unitary is the direct sum of its sector blocks, so weight can
    # pass between photon-number sectors only through an empty slot of a
    # block: every entry there must be exactly zero, and every entry finite.
    # Then U's Heisenberg transport U* R_k U, which moves one quantum, lives
    # on adjacent sectors (N, N + 1), and it must match the block rotation
    # sum_m S_km R_m there on every sector the truncation leaves intact,
    # N + 1 <= cutoff - 2.  There c_Q Q + c_P P acts as (c_Q - i c_P) a and
    # S rotates P as it rotates Q, so on real blocks each P defect equals
    # its mode's Q defect: the two lowering transports check all four.  The
    # splitter on n mode pairs is a product of commuting pair unitaries, so
    # its transport follows from this one.
    where = f"beam splitter at cutoff {cutoff}, theta {float(theta)!r}"
    _, _, inside = _sector_grid(cutoff)
    empty = ~(inside[:, :, None] & inside[:, None, :])
    leaked = np.count_nonzero(blocks[empty])   # NaN counts as nonzero
    if leaked:
        raise CalibrationError(
            f"{where}: blocks have {leaked} nonzero entries on empty slots, "
            "weight between photon-number sectors; it must conserve the total "
            "photon number"
        )
    broken = np.count_nonzero(~np.isfinite(blocks))
    if broken:
        raise CalibrationError(f"{where}: blocks have {broken} non-finite entries")
    if np.iscomplexobj(blocks):
        raise CalibrationError(f"{where}: blocks are complex; the transport "
                               "check holds for real sector blocks only")
    defect = _transport_defects(blocks, theta, cutoff)
    for l in range(2):
        if not defect[l] <= _TRANSPORT_TOL:   # a NaN defect fails too
            raise CalibrationError(
                f"{where}: transport defect {defect[l]:.3e} on component "
                f"{2 * l}; sign or phase convention broke"
            )


@dataclass(frozen=True)
class Splitter:
    """The beam splitter on a two-arm ``space``, held as the sector blocks of
    its pair unitary (``pair_blocks``) and applied by ``apply_splitter``.
    The dense unitary, ``matrix``, is reference API formed only when read:
    by tests and oracles, never by the ``ds-run`` and ``witness`` chains."""

    space: FockSpace
    blocks: np.ndarray

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return apply_splitter(self, np.eye(self.space.dim, dtype=complex))


_SPLITTER_CHUNK_ENTRIES = 2 ** 16   # a column chunk's gathered entries, past cutoff columns


def apply_splitter(u: Splitter, x: np.ndarray) -> np.ndarray:
    """U x for x of shape (dim, r) on the splitter's two-arm space.  On each
    mode pair (arm-1 mode l, arm-2 mode l), x is read as (cutoff^2, rest) on
    the pair's flat index; for each chunk of its columns, the rows of every
    sector, gathered by ``_sector_grid``, form one (2 cutoff - 1, cutoff,
    columns) stack, multiplied by the blocks in one stacked product.  The
    whole padded block is applied: the rows gathered for empty slots are
    row 0, and they meet exact zeros in the block, so only the sectors' own
    rows are scattered back.  Complex columns go in as pairs of real ones,
    so the real blocks are never cast.  A chunk takes
    ``_SPLITTER_CHUNK_ENTRIES`` // ((2 cutoff - 1) cutoff) columns, and
    cutoff at least, so its stack is no larger than that cap or than the
    blocks themselves: small stacks stay in cache, and no product is thinner
    than a block.  No cutoff^2 x cutoff^2 array is formed."""
    d, n = u.space.cutoff, u.space.n_modes // 2
    _, idx, inside = _sector_grid(d)
    rows = idx[inside]
    step = max(d, _SPLITTER_CHUNK_ENTRIES // idx.size)
    dtype = complex if np.iscomplexobj(x) else float
    t = x.reshape((d,) * (2 * n) + (-1,))
    for l in range(n):
        moved = np.moveaxis(t, (l, n + l), (0, 1))
        flat = np.ascontiguousarray(moved.reshape(d * d, -1), dtype=dtype).view(float)
        out = np.empty_like(flat)
        for lo in range(0, flat.shape[1], step):
            cols = slice(lo, lo + step)
            out[rows, cols] = (u.blocks @ flat[idx, cols])[inside]
        t = np.moveaxis(out.view(dtype).reshape(moved.shape), (0, 1), (l, n + l))
    return t.reshape(x.shape)


@functools.lru_cache(maxsize=8)
def _label_slots(cutoff: int, n_pairs: int) -> tuple:
    """The labels (N_1, ..., N_n) of n mode pairs' photon-number totals and,
    in each, the slots (s_1, ..., s_n) of ``_sector_grid``, both in C order:
    the arm-1 and arm-2 flat indices of each slot's state and whether the
    slot holds one, three read-only ((2 cutoff - 1)^n, cutoff^n) arrays.  An
    empty slot's indices are 0."""
    n1, _, inside = _sector_grid(cutoff)
    n2 = np.arange(2 * cutoff - 1)[:, None] - n1
    arm1, arm2, held = 0, 0, True
    for l in range(n_pairs):
        shape = [1] * (2 * n_pairs)
        shape[l], shape[n_pairs + l] = 2 * cutoff - 1, cutoff
        arm1 = arm1 * cutoff + np.where(inside, n1, 0).reshape(shape)
        arm2 = arm2 * cutoff + np.where(inside, n2, 0).reshape(shape)
        held = held & inside.reshape(shape)
    full = (2 * cutoff - 1,) * n_pairs + (cutoff,) * n_pairs
    out = tuple(np.broadcast_to(x, full).reshape(-1, cutoff ** n_pairs)
                for x in (arm1, arm2, held))
    for x in out:
        x.flags.writeable = False
    return out


def sector_output(u: Splitter, q1: np.ndarray, q2: np.ndarray) -> tuple:
    """U diag(q1 x q2) U* for real populations q1 and q2 of the arms' number
    states (flat index), as (blocks, arm1, arm2, held).

    Each mode pair's unitary is the direct sum of its real sector blocks B_N
    (``pair_blocks``), so the output is block diagonal on the labels
    (N_1, ..., N_n) of the pairs' totals, and its block on label L is
    M_L diag(q_L) M_L^T with M_L = B_{N_1} x ... x B_{N_n} and q_L the input
    populations of the label's states.  ``blocks`` holds them as a real
    (labels, slots, slots) array in the slots of ``_label_slots``, whose
    arm1, arm2 and held arrays come with it; rows and columns of empty slots
    are exact zeros.  No pair-space array is formed: the blocks hold
    (2 cutoff - 1)^n cutoff^(2n) entries."""
    d, n = u.space.cutoff, u.space.n_modes // 2
    arm1, arm2, held = _label_slots(d, n)
    m = np.ones((1, 1, 1))
    for _ in range(n):
        m = np.einsum("Ast,Buv->ABsutv", m, u.blocks).reshape(
            len(m) * len(u.blocks), m.shape[1] * d, -1)
    q = np.where(held, q1[arm1] * q2[arm2], 0.0)
    return (m * q[:, None, :]) @ np.swapaxes(m, 1, 2), arm1, arm2, held


def sector_exchange(blocks: np.ndarray, cutoff: int, n_pairs: int) -> np.ndarray:
    """Tr[x a_l* b_l] for each mode pair l (arm-1 mode l, arm-2 mode l) of a
    real x held as label blocks (``sector_output``).  a_l* b_l keeps N_l and
    every other total, so the trace reads the entries of pair l's slot j and
    j + 1 with every other slot alike, weighted by ``_sector_hops``."""
    grid = blocks.reshape((2 * cutoff - 1,) * n_pairs + (cutoff,) * (2 * n_pairs))
    labels, rows = "ABCDEFGHIJKL"[:n_pairs], "abcdefghijkl"[:n_pairs]
    hops = _sector_hops(cutoff)
    out = np.empty(n_pairs)
    for l in range(n_pairs):
        cols = rows[:l] + "z" + rows[l + 1:]
        pair = np.einsum(f"{labels}{rows}{cols}->{labels[l]}{rows[l]}z", grid)
        out[l] = np.sum(np.diagonal(pair[:, :-1, 1:], axis1=1, axis2=2) * hops)
    return out


def beam_splitter_unitary(space: FockSpace, theta: float) -> Splitter:
    """The splitter on a two-arm space whose moment transport realizes the
    block rotation: Gamma' = S Gamma S^T, d' = S d.

    The generator convention is verified when the sector blocks are built:
    the two lowering transports (the P quadratures follow from them) must
    match the block rotation on every sector pair below the top two.  The
    blocks are cached, so a second call builds nothing.
    """
    if space.n_modes % 2:
        raise DimensionError("beam splitter needs two equal arms (even mode count)")
    return Splitter(space, pair_blocks(space.cutoff, float(theta)))


def evolve(rho: FockOperator, u: Splitter) -> FockOperator:
    """U rho U* by the dense unitary, keeping rho's flags: reference API that
    the tests compare the per-sector ``apply_splitter`` path against."""
    if rho.space != u.space:
        raise DimensionError("state and unitary live on different spaces")
    out = u.matrix @ rho.matrix @ u.matrix.conj().T
    return FockOperator(rho.space, out, rho.flags)


# ---------------------------------------------------------------------------
# Tensor algebra, partial trace, norms


def tensor(a: FockOperator, b: FockOperator) -> FockOperator:
    """Dense a (x) b with both flags: reference API for the tests' inputs."""
    if a.space.cutoff != b.space.cutoff:
        raise DimensionError("tensor factors must share the cutoff")
    space = FockSpace(a.space.n_modes + b.space.n_modes, a.space.cutoff)
    return FockOperator(space, np.kron(a.matrix, b.matrix),
                        tuple(dict.fromkeys(a.flags + b.flags)))


def partial_trace(op: FockOperator, keep) -> FockOperator:
    """Trace out all modes not listed in ``keep`` (an iterable of mode indices,
    or "first"/"second" to keep one arm of a two-arm space)."""
    n = op.space.n_modes
    if keep == "first":
        keep = tuple(range(n // 2))
    elif keep == "second":
        keep = tuple(range(n // 2, n))
    keep = tuple(sorted(keep))
    if not keep or any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise DimensionError(f"invalid mode subset {keep} for {n} modes")
    return FockOperator(FockSpace(len(keep), op.space.cutoff),
                        _reduce(op.matrix, op.space, keep), op.flags)


def _reduce(matrix: np.ndarray, space: FockSpace, keep: tuple) -> np.ndarray:
    """Partial trace of a dim x dim array over every mode not in the sorted
    tuple ``keep``."""
    n, d = space.n_modes, space.cutoff
    letters = "abcdefghijkl"
    row = letters[:n]
    col = "".join(letters[i].upper() if i in keep else letters[i]
                  for i in range(n))
    out = "".join(letters[i] for i in keep) + "".join(letters[i].upper() for i in keep)
    reduced = np.einsum(f"{row}{col}->{out}", matrix.reshape((d,) * (2 * n)))
    dk = d ** len(keep)
    return reduced.reshape(dk, dk)


def mode_pair_moments(x: np.ndarray, space: FockSpace, i: int,
                      j: int) -> np.ndarray:
    """Tr[x R_{i,a} R_{j,b}] for a, b in (Q, P), on modes i < j of a dim x dim
    array x, as a (2, 2) array.  R_{i,a} R_{j,b} acts on two modes only, so
    this is the same contraction on the two-mode reduction of x: with it
    indexed [(a, b), (c, e)], sum x_abce R_a[c, a] R_b[e, b]."""
    d = space.cutoff
    quads = _mode_quadratures(d)
    red = _reduce(x, space, (i, j)).reshape(d, d, d, d)
    return np.einsum("abce,kca,leb->kl", red, quads, quads)


def block_groups(pattern: np.ndarray) -> list:
    """Index groups of the connected components of the bipartite row/column
    graph of a boolean (m, n) ``pattern``: a matrix that is zero wherever
    ``pattern`` is False is block diagonal on them up to a permutation.

    Each group is an ``np.ix_(rows, cols)`` index, so ``m[group]`` is its
    block; a pattern with one component that touches every row and column
    gives ``(slice(None), slice(None))``, so ``m[group]`` is ``m`` itself,
    uncopied.  Empty rows and columns (zero singular values only) belong to
    no group.  Rows carry the smallest row index they reach: labels pass
    row -> column -> row by masked minima, then jump to their label's label,
    until nothing changes."""
    m = pattern.shape[0]
    label = np.arange(m)

    def column_labels(rows):
        return np.min(np.broadcast_to(rows[:, None], pattern.shape), axis=0,
                      where=pattern, initial=m)

    while True:
        reach = np.min(np.broadcast_to(column_labels(label), pattern.shape),
                       axis=1, where=pattern, initial=m)
        new = np.minimum(label, reach)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    cols = column_labels(label)
    if not label.any() and not cols.any():   # every line reaches row 0
        return [(slice(None), slice(None))]
    return [np.ix_(np.flatnonzero(label == root), np.flatnonzero(cols == root))
            for root in np.flatnonzero(np.bincount(cols[cols < m], minlength=m))]


def trace_norm(op: FockOperator | np.ndarray) -> float:
    """||op||_1 by a dense SVD: reference API for the tests' epsilon checks."""
    m = op.matrix if isinstance(op, FockOperator) else np.asarray(op)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def hs_norm(op: FockOperator | np.ndarray) -> float:
    m = op.matrix if isinstance(op, FockOperator) else np.asarray(op)
    return float(np.linalg.norm(m))


def mode_populations(rho: FockOperator) -> np.ndarray:
    """Per-mode level occupations, shape (n_modes, cutoff): the diagonal as
    a (cutoff,) * n_modes array, summed over every other mode."""
    return _mode_populations(np.real(np.diag(rho.matrix)), rho.space)


def _mode_populations(diagonal: np.ndarray, space: FockSpace) -> np.ndarray:
    n = space.n_modes
    pops = diagonal.reshape((space.cutoff,) * n)
    return np.array([pops.sum(axis=tuple(k for k in range(n) if k != l))
                     for l in range(n)])


def leak_population(rho: FockOperator) -> float:
    """Largest per-mode population above level cutoff - 3 (the top two levels)."""
    return _top_population(np.real(np.diag(rho.matrix)), rho.space)


def _top_population(diagonal: np.ndarray, space: FockSpace) -> float:
    pops = _mode_populations(diagonal, space)
    return float(np.max(np.sum(pops[:, space.cutoff - 2:], axis=1)))


def leak_flags(rho: FockOperator, label: str,
               tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """``rho``'s truncation flag, named by ``label``, if its top-level
    population exceeds the leak budget."""
    return diagonal_leak_flags(np.real(np.diag(rho.matrix)), rho.space, label, tol)


def diagonal_leak_flags(diagonal: np.ndarray, space: FockSpace, label: str,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """``leak_flags`` of a state on ``space`` whose real diagonal, its number
    populations, is ``diagonal``: all the check reads."""
    leak = _top_population(diagonal, space)
    if leak > tol.leak_budget:
        return (f"truncation:{label}:leak={leak:.3e}",)
    return ()


def truncation_flags(rho: FockOperator, label: str,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """Every truncation flag of ``rho``, read as ``label``: what its builder
    cut (``rho.flags``), then its leak (``leak_flags``)."""
    return rho.flags + leak_flags(rho, label, tol)


# ---------------------------------------------------------------------------
# Moments


def support(rho: FockOperator) -> tuple:
    """Eigenpairs (v, p) of a density with |p| > len(p) eps max|p|, the
    accuracy of ``eigh`` itself (``numpy.linalg.matrix_rank``'s default
    floor), so rho = v diag(p) v* holds to roundoff."""
    p, v = np.linalg.eigh(rho.matrix)
    keep = np.abs(p) > len(p) * np.finfo(float).eps * np.max(np.abs(p))
    return v[:, keep], p[keep]


def _kappa_blocks(left: np.ndarray, space: FockSpace) -> list:
    """``block_groups`` of a pattern that holds the nonzeros of every product
    left R_u R_u R_v R_v.  Each R_u is nonzero only where the sum of the Q_l
    is, so the pattern is that of the indicator of ``left`` times that sum
    four times; all its terms are positive, so none cancels to zero.  Each
    step is taken on the boolean pattern: an entry reaches one level up or
    down in each mode, wherever ``_shift_weights`` is nonzero."""
    strides, up, down = _shift_weights(space.n_modes, space.cutoff)
    reach = left != 0
    for _ in range(4):
        step = np.zeros_like(reach)
        for mode, s in enumerate(strides):
            step[:, s:] |= reach[:, :-s] & (up[mode, :-s] != 0)
            step[:, :-s] |= reach[:, s:] & (down[mode, s:] != 0)
        reach = step
    return block_groups(reach)


@dataclass(frozen=True)
class _KappaRows:
    """Rows of a kappa search's ``left`` in their level box: ``left`` holds
    them on ``space`` = FockSpace(n, min(cutoff, m + 5)), m their top nonzero
    level over all modes, and ``blocks`` are their products' exact zero
    blocks there (``_kappa_blocks``).  Four quadrature steps raise a level
    by at most 4, so a product never reaches level m + 5; inside the box
    each of its entries takes the same float operations as on the whole
    space (the entries it adds from outside are zeros), and outside it the
    whole-space product is exactly 0."""
    left: np.ndarray
    space: FockSpace
    blocks: list


def _level_tops(left: np.ndarray, space: FockSpace) -> np.ndarray:
    """Each row's top nonzero level over all modes (the top level for a zero
    row): per mode, the highest level at which the row has a nonzero entry."""
    n, cutoff = space.n_modes, space.cutoff
    nonzero = (left != 0).reshape((len(left),) + (cutoff,) * n)
    tops = []
    for mode in range(1, n + 1):
        held = np.any(nonzero, axis=tuple(a for a in range(1, n + 1) if a != mode))
        tops.append(cutoff - 1 - np.argmax(held[:, ::-1], axis=1))
    return np.max(tops, axis=0)


def _boxed_rows(left: np.ndarray, space: FockSpace, rows, top: int) -> _KappaRows:
    """The rows ``rows`` (an index of ``left``'s first axis) of ``left``,
    whose top nonzero level is ``top``, in their level box: one indexing
    step, a view when the box is the whole space and ``rows`` a slice."""
    box = FockSpace(space.n_modes, min(space.cutoff, int(top) + 5))
    shape = (len(left),) + (space.cutoff,) * space.n_modes
    sub = left.reshape(shape)[(rows,) + (slice(box.cutoff),) * space.n_modes]
    sub = sub.reshape(-1, box.dim)
    return _KappaRows(sub, box, _kappa_blocks(sub, box))


def _kappa_products(left: np.ndarray, space: FockSpace, us: np.ndarray,
                    vs: np.ndarray) -> np.ndarray:
    """left R_u R_u R_v R_v for each row pair (u, v) of the (b, 2n) arrays
    ``us`` and ``vs``, shape (b, rows, dim), applied left to right by the
    quadrature primitive on the whole batch at once.  A run of pairs with
    equal u shares one left R_u R_u: the two u passes take one row per run,
    and their product is indexed out to the run's pairs before the v passes.
    Row i of product k depends only on row i of ``left`` and on pair k, so it
    holds the same bits in any batch and beside any other rows."""
    first = np.ones(len(us), dtype=bool)
    first[1:] = np.any(us[1:] != us[:-1], axis=1)
    prod = left[None]
    for c in (us[first], us[first]):
        prod = apply_quadratures(prod, c, space)
    if not first.all():
        prod = prod[np.cumsum(first) - 1]
    for c in (vs, vs):
        prod = apply_quadratures(prod, c, space)
    return prod


def _row_squares(x: np.ndarray) -> np.ndarray:
    """Squared norms of the rows (last axis) of a complex array, summed from
    views of its real and imaginary parts, with no temporary the size of
    ``x``."""
    sq = np.einsum("...j,...j->...", x.real, x.real)
    sq += np.einsum("...j,...j->...", x.imag, x.imag)
    return sq


def _row_order(left: np.ndarray) -> tuple:
    """The rows of ``left`` by norm, largest first, and tail[k], the summed
    norms of rows order[k:] (tail[r] = 0)."""
    weight = np.sqrt(_row_squares(left))
    order = np.argsort(weight)[::-1]
    return order, np.append(np.cumsum(weight[order][::-1])[::-1], 0.0)


def _block_trace_norms(prod: np.ndarray, blocks: list) -> np.ndarray:
    """The trace norm of each matrix of a (b, rows, dim) stack that is zero
    outside ``blocks`` (``block_groups`` indices): one stacked SVD per block,
    each matrix's singular values summed largest first."""
    svs = [np.linalg.svd(prod[(slice(None),) + idx], compute_uv=False)
           for idx in blocks]
    return np.sum(np.sort(np.concatenate(svs, -1), -1)[:, ::-1], -1)


def _frobenius_bounds(prod: np.ndarray, blocks: list) -> np.ndarray:
    """Upper bounds on the trace norm of each matrix of a (b, rows, dim)
    stack that is zero outside ``blocks``: the sum over blocks of
    sqrt(min(h, c)) ||block||_F, h x c the block's shape, as a block's rank
    is at most min(h, c) and ||B||_1 <= sqrt(rank B) ||B||_F.  A row lies in
    at most one block and is zero outside it, so a block's Frobenius norm
    sums the squared norms of its rows, read from the stack in one pass.
    The roundoff of the sums is left to the caller's slack."""
    sq = _row_squares(prod)
    bound = np.zeros(len(prod))
    for rows, cols in blocks:
        if isinstance(rows, slice):
            h, c = prod.shape[1:]
        else:
            rows = rows.ravel()
            h, c = len(rows), np.size(cols)
        bound += math.sqrt(min(h, c)) * np.sqrt(np.sum(sq[:, rows], axis=-1))
    return bound


def _gram_trace_norm_bounds(m: np.ndarray) -> np.ndarray:
    """Upper bounds on the trace norm of each matrix of a (b, rows, cols)
    stack, from the eigenvalues of its Gram matrix on the short side.

    Take each M as h x c with h <= c (its transpose otherwise, which has the
    same singular values), so sigma_i(M)^2 = lambda_i(G) for G = M M*.  The
    bound is sum_i sqrt(max(lam_i, 0) + delta), lam_i the computed
    eigenvalues, with delta = (c + 10 h) eps tr G:
    - each entry of the computed G sums c complex products, so
      |fl(G) - G| <= gamma_(c+2) |M| |M|^T entrywise (Higham, *Accuracy and
      Stability of Numerical Algorithms*, ch. 3; the 2 is complex
      multiplication's), and ||fl(G) - G||_2 <= gamma_(c+2) ||M||_F^2 =
      gamma_(c+2) tr G;
    - ``eigvalsh`` returns the exact eigenvalues of fl(G) + F, with
      ||F||_2 <= p(h) eps ||fl(G)||_2 for a modestly growing p (LAPACK's
      own error bounds take p = 1); p(h) = 8 h here, and ||fl(G)||_2 <=
      tr G to first order;
    - by Weyl's inequality each lam_i then lies within (c + 2 + 8 h) eps tr G
      <= delta of lambda_i(G), h >= 1, and lambda_i(G) >= 0.
    Terms of second order in eps, the rounding of tr G and of the square
    roots and sums are left to the caller's roundoff slack, at least 16 dim
    eps relative.  A stack whose tr G is not finite (the squares overflow)
    takes the exact SVD instead."""
    if m.shape[-2] > m.shape[-1]:
        m = np.swapaxes(m, -1, -2)
    h, c = m.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):   # caught by tr G
        g = m @ np.swapaxes(m.conj(), -1, -2)
    tr = np.einsum("...ii->...", g).real
    if not np.all(np.isfinite(tr)):
        return np.sum(np.linalg.svd(m, compute_uv=False), axis=-1)
    delta = (c + 10 * h) * np.finfo(float).eps * tr
    lam = np.maximum(np.linalg.eigvalsh(g), 0.0)
    return np.sum(np.sqrt(lam + delta[:, None]), axis=-1)


def _head_bounds(head: _KappaRows, us: np.ndarray, vs: np.ndarray,
                 tail: float, cutoff: int) -> np.ndarray:
    """Upper bounds on ||left X||_1, X = R_u^2 R_v^2, for each pair, from the
    rows ``head`` of ``left`` alone: ||head X||_1 + ||X||_op tail, where
    ``tail`` is at least the summed norms of the other rows.  By the triangle
    inequality each other row adds at most the norm of row_i X, which is at
    most ||row_i|| ||R_u||^2 ||R_v||^2 (``_quadrature_norms``), taken at the
    whole space's ``cutoff``, on which those rows live.  The head's trace
    norm is bounded per block of its own products in its level box
    (``_KappaRows``) by ``_gram_trace_norm_bounds``, with no SVD."""
    op = (_quadrature_norms(us, cutoff) * _quadrature_norms(vs, cutoff)) ** 2
    prod = _kappa_products(head.left, head.space, us, vs)
    return sum(_gram_trace_norm_bounds(prod[(slice(None),) + idx])
               for idx in head.blocks) + op * tail


def _kappa_values(left: np.ndarray, space: FockSpace, us: np.ndarray,
                  vs: np.ndarray, blocks: list, floor: float = -np.inf) -> list:
    """Trace norms of left R_u R_u R_v R_v for each row pair (u, v) of the
    (b, 2n) arrays ``us`` and ``vs`` (``_kappa_products``), taken per block
    of ``blocks``, the product's exact zero blocks (``_kappa_blocks``), by
    ``_block_trace_norms``.  With a finite ``floor``, a pair whose
    ``_frobenius_bounds`` bound is at most ``floor`` takes no SVD and reads
    -inf."""
    prod = _kappa_products(left, space, us, vs)
    values = np.full(len(us), -np.inf)
    keep = slice(None)
    if floor > -np.inf:
        keep = np.flatnonzero(~(_frobenius_bounds(prod, blocks) <= floor))
        if len(keep) < len(us):
            prod = prod[keep]
    if len(prod):
        values[keep] = _block_trace_norms(prod, blocks)
    return values.tolist()


def _conserves_pair_totals(left: np.ndarray, space: FockSpace) -> bool:
    """Whether each row of ``left`` lies in one label (N_1, ..., N_n) of the
    photon totals of ``space``'s mode pairs, pair l being mode l with mode
    n + l of the 2n modes, the totals a splitter conserves."""
    if space.n_modes % 2:
        return False
    n, d = space.n_modes // 2, space.cutoff
    levels = np.arange(space.dim) // d ** np.arange(2 * n - 1, -1, -1)[:, None] % d
    label = np.ravel_multi_index(tuple(levels[:n] + levels[n:]), (2 * d - 1,) * n)
    table = np.broadcast_to(label, left.shape)
    held = left != 0
    lo = np.min(table, axis=1, where=held, initial=(2 * d - 1) ** n)
    hi = np.max(table, axis=1, where=held, initial=-1)
    return bool(np.all(lo >= hi))


def _phase_orbit_representatives(axes: list, n_pairs: int) -> list:
    """The axis pairs (i, j) of ``axes``, in order, less each one that is the
    image of an earlier one under the phase rotations exp(i pi/2 N_l) of the
    mode pairs' totals.  Axis i is quadrature i % 2 (Q, P) of mode i // 2,
    and the rotation of pair l maps (Q, P) to (P, -Q) on both its modes, so
    it flips that bit on every axis of the two.  Both axes on one pair flip
    together, and only the xor of their bits is kept; on two pairs each
    flips alone."""
    seen, kept = set(), []
    for i, j in axes:
        mi, mj = i // 2, j // 2
        key = (mi, mj, (i ^ j) & 1) if mi % n_pairs == mj % n_pairs else (mi, mj)
        if key not in seen:
            seen.add(key)
            kept.append((i, j))
    return kept


# The kappa search's products hold at most this many complex entries (256 KiB
# per array): enough pairs to spread numpy's per-call cost when the rows are
# few, few enough to stay in cache and add little to peak memory.  It sizes
# both kinds of batch: a head bound takes b pairs of h x dim products, h the
# head rows, and a full evaluation b pairs of r x dim.  Two full-rank
# thermals at cutoff 12 (r = dim = 144) go one pair at a time through full
# evaluations, but their heads of 23-24 rows take 4 pairs per bound.  Where
# one pair's product exceeds the cap, a batch holds one pair.
_KAPPA_BATCH_ENTRIES = 2 ** 14

# The head bounds of ``estimate_kappa``: the tail weight each stage's head of
# rows may leave out, as a share of the floor, first stage first, and the
# relative roundoff allowance on the bound.  A short first head proves most
# pairs unable to win; the longer second head is formed only for the pairs
# it leaves.  The search's time (fastest and slowest of 3 runs, 2 for the
# Gaussians) for first shares of 0.03, 0.1 and 0.3 before 0.01, and for
# 0.01 alone:
#
#   input pair                        0.01 alone  0.03       0.1        0.3
#   thermals 0.3, 0.2, cutoff 40      0.40-0.42   0.42-0.52  0.38-0.38  0.38-0.41 s
#   thermals 0.3, 0.2, cutoff 28      0.24-0.25   0.22-0.24  0.22-0.25  0.22-0.23 s
#   Gaussians, 2 modes/arm, cutoff 6  6.65-6.66   5.31-5.42  4.21-4.38  3.74-4.21 s
#   24 dsrun-1mode cases, seeds 0-5   0.47-0.53   0.43-0.46  0.41-0.42  0.41-0.41 s
#
# The Gaussians are CI's full-rank pair (r = 1296).  At 0.1 the first heads
# hold 36 of the 437 thermal rows at cutoff 40 and 131 of the 1296 Gaussian
# rows, the second 50 and 250.  0.3 gains only on the Gaussians, within
# their spread.
_KAPPA_HEAD_SHARES = (0.1, 0.01)
_KAPPA_SKIP_SLACK = 1e-9
# The search plan: random pairs after the canonical ones, then refine steps,
# each a Gaussian move of this spread per component from the current best.
_KAPPA_RANDOM_PAIRS = 64
_KAPPA_REFINE_STEPS = 20
_KAPPA_REFINE_SCALE = 0.15


def estimate_kappa(factor: tuple, space: FockSpace, *, seed: int = 0) -> tuple:
    """Sampled maximum of the trace norm of rho R_u^2 R_v^2 over unit u, v,
    as (kappa, (u, v), evaluations), for rho = w diag(p) w* on ``space``.

    Directions are taken in quadrature space; the target supremum ranges
    over xi . sigma R, but sigma is orthogonal so both direction sets
    coincide.  All canonical axis pairs, ``_KAPPA_RANDOM_PAIRS`` random
    pairs, then ``_KAPPA_REFINE_STEPS`` steps of greedy local refinement.
    The canonical pairs evaluated hold every pair (e_i, e_j) or its exact
    phase image.  When every row of the factor lies in one label (N_1, ...,
    N_n) of the mode pairs' photon totals (``_conserves_pair_totals``, read
    from the factor's nonzeros; never on the dense path), rho commutes with
    each pair's exp(i pi/2 N_l), which keeps the truncated space and maps
    (Q, P) to (P, -Q) on both modes of pair l.  The trace norm is unitarily
    invariant and R_{-e}^2 = R_e^2, so (e_i, e_j) ties exactly with its
    image, and only the first pair of each orbit, in search order, is
    offered (``_phase_orbit_representatives``); the others still count as
    evaluations.  (e_k, e_k) or its image (e_k', e_k') is evaluated for
    every axis k, the two tie, and ||rho R_k^4||_1 >= |Tr[rho R_k^4]|, so
    kappa is never below an axis fourth moment.

    ``factor = (w, p)`` with orthonormal columns w gives the same singular
    values from the r x dim matrix diag(p) w* X.
    Every product is formed only on its rows' level box (``_KappaRows``):
    for rows whose top nonzero level over all modes is m, on the levels
    below min(cutoff, m + 5), the only levels four quadrature steps reach.
    The entries there hold the bits of the whole-space product, and the
    rest are zero, so each evaluation, on the box of all r rows built once
    per search, takes the same blocks into the same SVDs.  Those exact zero
    blocks are found once per search (``_kappa_blocks``); each evaluation
    takes its singular values block by block (``_block_trace_norms``), and
    each head bound its Gram eigenvalues (``_gram_trace_norm_bounds``) on
    the blocks of the head's own rows in the head's own box.  The pairs of
    a batch that share u, as the canonical pairs do in runs, share one
    left R_u R_u (``_kappa_products``).
    Pairs are offered in order, in batches whose products hold at most
    ``_KAPPA_BATCH_ENTRIES`` entries each, sized for the boxed rows the
    batch's first product holds: the first head when a head bound comes
    first, otherwise all r.  The canonical and random pairs are fixed before
    the search, so a gain inside a batch keeps the values already taken and
    no fixed pair is multiplied out twice.  The refine moves are drawn up front
    (the same stream as one step at a time) and each batch of candidates is
    formed from the current best; at the first candidate that raises the
    best, the rest of its batch is dropped and rebuilt from the new best.
    A candidate must beat the best by more than dim roundoff units, so
    pairs that tie exactly (by symmetry) keep the first one whichever
    factor of the state evaluates them.

    That threshold is the floor: a pair whose trace norm provably cannot
    pass it skips its product and SVDs, and still counts as an evaluation.
    It is skipped once an upper bound b on its trace norm has (1 + s) b <=
    floor, s a roundoff allowance of at least 16 dim eps.  With a floor
    above 0 the bounds are ``_head_bounds``, before the full products, in
    two stages, one per share of ``_KAPPA_HEAD_SHARES``: each on the
    shortest head of rows by norm (``_row_order``) whose tail weight t has
    sup ||X||_op t <= share floor, sup ||X||_op = q^4 n^2 over unit u, v on
    n modes, and only when that head leaves out a row.  The batch is
    bounded on the short head of the larger share first; only the pairs
    that survive it are bounded on the longer head, each stage within
    ``_KAPPA_BATCH_ENTRIES`` of its own boxed rows.  A head is boxed once
    per row count, while the floor keeps that count.  The bounds are taken
    against the floor at the batch's start, and each full evaluation, r x
    dim at a time within ``_KAPPA_BATCH_ENTRIES``, against the running
    floor.  Within a full evaluation, a formed product takes its SVDs only
    when its ``_frobenius_bounds`` bound b has b > floor / (1 + s), the
    floor at the chunk's start (``_kappa_values``); the first chunk, with no
    floor yet, takes every SVD.  Every row of a product holds the same bits
    whichever pairs share its batch, so kappa, its pair and the count are
    those of the one-by-one search with no skip.
    """
    w, p = factor
    left = p[:, None] * w.conj().T
    r = len(left)
    order, tail = _row_order(left)
    # reach[h - 1]: the top nonzero level of the head of h rows
    reach = np.maximum.accumulate(_level_tops(left, space)[order])
    full = _boxed_rows(left, space, slice(None), reach[-1])
    margin = 1.0 + space.dim * np.finfo(float).eps
    slack = 1.0 + max(_KAPPA_SKIP_SLACK, 16 * space.dim * np.finfo(float).eps)
    sup = (_mode_quadrature_norm(space.cutoff) ** 2 * space.n_modes) ** 2
    dim = 2 * space.n_modes
    chunk = max(1, _KAPPA_BATCH_ENTRIES // full.left.size)
    rng = np.random.default_rng(seed)
    best, best_pair = -np.inf, None
    heads = {}   # the boxed heads of the current floor, by row count

    def stages():
        # the head sizes the next call bounds on, shortest first, and its
        # batch of pairs
        nonlocal heads
        floor = best * margin
        sizes = []
        if floor > 0:
            sizes = sorted({int(np.searchsorted(-tail, -share * floor / sup))
                            for share in _KAPPA_HEAD_SHARES} - {r})
        heads = {h: heads[h] if h in heads else
                 _boxed_rows(left, space, order[:h], reach[h - 1]) for h in sizes}
        if not sizes:
            return sizes, chunk
        return sizes, max(1, _KAPPA_BATCH_ENTRIES // heads[sizes[0]].left.size)

    def consider(us, vs, sizes, restart):
        # offers the pairs in order; returns how many it took: all of them,
        # or with ``restart`` those up to the first that raises the best
        nonlocal best, best_pair
        bounds = np.full(len(us), np.inf)
        live = np.arange(len(us))
        for h in sizes:
            live = live[slack * bounds[live] > best * margin]
            step = max(1, _KAPPA_BATCH_ENTRIES // heads[h].left.size)
            for at in range(0, len(live), step):
                part = live[at:at + step]
                bounds[part] = np.minimum(bounds[part], _head_bounds(
                    heads[h], us[part], vs[part], tail[h], space.cutoff))
        while True:
            live = live[slack * bounds[live] > best * margin]
            if not live.size:
                return len(us)
            part, live = live[:chunk], live[chunk:]
            for k, val in zip(part, _kappa_values(full.left, full.space, us[part],
                                                  vs[part], full.blocks,
                                                  best * margin / slack)):
                if val > best * margin:
                    best, best_pair = val, (us[k].copy(), vs[k].copy())
                    if restart:
                        return k + 1

    eye = np.eye(dim)
    axes = [(i, j) for i in range(dim) for j in range(dim)]
    if _conserves_pair_totals(left, space):
        axes = _phase_orbit_representatives(axes, space.n_modes // 2)
    pairs = [(eye[i], eye[j]) for i, j in axes]
    for _ in range(_KAPPA_RANDOM_PAIRS):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        pairs.append((u / np.linalg.norm(u), v / np.linalg.norm(v)))
    us, vs = np.array(pairs).transpose(1, 0, 2)
    taken = 0
    while taken < len(pairs):
        sizes, batch = stages()
        taken += consider(us[taken:taken + batch], vs[taken:taken + batch], sizes,
                          restart=False)
    moves = _KAPPA_REFINE_SCALE * rng.normal(size=(_KAPPA_REFINE_STEPS, 2, dim))
    taken = 0
    while taken < _KAPPA_REFINE_STEPS:
        sizes, batch = stages()
        steps = np.array(best_pair) + moves[taken:taken + batch]
        steps = np.array([[x / np.linalg.norm(x) for x in step] for step in steps])
        taken += consider(steps[:, 0], steps[:, 1], sizes, restart=True)
    return best, best_pair, dim * dim + _KAPPA_RANDOM_PAIRS + _KAPPA_REFINE_STEPS


def moments(rho: FockOperator) -> GaussianState:
    """The Gaussian state of rho's displacement and covariance
    (anticommutator convention); no uncertainty check (see ``gaussify``).

    Every product R_k R_l touches at most two modes, so d and the one-mode
    blocks of Gamma are read from the one-mode reductions of rho, and the
    cross-mode blocks of Gamma from its two-mode reductions
    (``mode_pair_moments``).  Each trace is an elementwise sum,
    Tr[A B] = sum(A * B.T).  Gamma is mirrored from its upper triangle, so
    it is exactly symmetric."""
    space = rho.space
    quads = _mode_quadratures(space.cutoff)
    dim = 2 * space.n_modes
    d = np.empty(dim)
    second = np.empty((dim, dim))   # Re Tr[rho R_l R_k], read for k <= l
    for mode in range(space.n_modes):
        red = _reduce(rho.matrix, space, (mode,))
        prods = [q @ red for q in quads]
        blk = slice(2 * mode, 2 * mode + 2)
        d[blk] = [np.sum(red * q.T).real for q in quads]
        second[blk, blk] = [[np.sum(quads[l] * prods[k].T).real
                             for l in range(2)] for k in range(2)]
    for i in range(space.n_modes):
        for j in range(i + 1, space.n_modes):
            second[2 * i:2 * i + 2, 2 * j:2 * j + 2] = \
                mode_pair_moments(rho.matrix, space, i, j).real
    second = np.triu(second) + np.triu(second, 1).T
    return GaussianState(d, 2.0 * second - 2.0 * np.outer(d, d))


def gaussify(rho: FockOperator,
             tol: Tolerances = DEFAULT_TOLERANCES) -> GaussianState:
    """``moments(rho)``, the Gaussian state with rho's first and second
    moments.

    Raises when the measured covariance violates the uncertainty relation
    beyond tolerance, which signals an unphysical truncation.
    """
    gs = moments(rho)
    mineig = check_uncertainty(gs.gamma, tol)
    if mineig < -tol.uncertainty:
        raise UncertaintyViolationError(
            f"gaussified covariance has min eig(Gamma + i sigma) = {mineig:.3e}; "
            "increase the cutoff"
        )
    return gs


# ---------------------------------------------------------------------------
# Gaussian states: characteristic function and Fock-basis synthesis


def gaussian_char_values(gs: GaussianState, xs: np.ndarray) -> np.ndarray:
    """Closed-form chi(xs) of a Gaussian state at a batch of points.

    chi(xi) = exp(-xi.(sigma Gamma sigma^T)xi/4 + i xi.(sigma d)); the sigma
    twist keeps the operator-level moment convention (vacuum -> exp(-|xi|^2/4)).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    sigma = symplectic_form(gs.n)
    a = sigma @ gs.gamma @ sigma.T
    quad = np.einsum("mi,ij,mj->m", xs, a, xs)
    phase = xs @ (sigma @ gs.d)
    return np.exp(-quad / 4.0 + 1j * phase)


def _hermite_grid(a: np.ndarray, y: np.ndarray, g0: complex,
                  cutoff: int) -> np.ndarray:
    """Renormalized multidimensional Hermite array on (cutoff,) * len(y):
    G_0 = g0 and G_{k+e_i} sqrt(k_i + 1) = y_i G_k + sum_j a_ij sqrt(k_j) G_{k-e_j}.

    The k_0 = 0 slice is the same problem on the remaining axes; slice
    k_0 + 1 follows from slices k_0 and k_0 - 1 by the recurrence along
    axis 0, with shifted views for the other axes.
    """
    m = len(y)
    if m == 0:
        return np.asarray(g0, dtype=complex)
    out = np.zeros((cutoff,) * m, dtype=complex)
    out[0] = _hermite_grid(a[1:, 1:], y[1:], g0, cutoff)
    root = np.sqrt(np.arange(cutoff))
    lift = root[1:].reshape((-1,) + (1,) * (m - 2))
    for k in range(cutoff - 1):
        nxt = y[0] * out[k]
        if k:
            nxt += a[0, 0] * root[k] * out[k - 1]
        for j in range(1, m):
            np.moveaxis(nxt, j - 1, 0)[1:] += \
                a[0, j] * lift * np.moveaxis(out[k], j - 1, 0)[:-1]
        out[k + 1] = nxt / root[k + 1]
    return out


def _singular_husimi(gamma: np.ndarray) -> ValidationError:
    return ValidationError(
        "Gaussian state's Husimi matrix (Gamma + I)/2 is singular in double "
        f"precision: Gamma's smallest eigenvalue is {np.linalg.eigvalsh(gamma)[0]:.3e}")


def gaussian_to_fock(gs: GaussianState, space: FockSpace,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    """Density matrix of an n-mode Gaussian state on a truncated space.

    Exact matrix elements by the renormalized multidimensional-Hermite
    recurrence (Dodonov, Man'ko & Man'ko, PRA 50, 813 (1994); Miatto &
    Quesada, Quantum 4, 366 (2020)).  The truncated matrix is a principal
    block of a positive trace-one operator, so it is positive with trace at
    most 1; missing mass above the leak budget is flagged, then the block
    is renormalized to unit trace.
    """
    gs = gs.validate(tol)
    n = gs.n
    if n != space.n_modes:
        raise DimensionError("state and space mode counts differ")
    # Husimi covariance Q in the complex (alpha, conj alpha) basis, with the
    # quadratures reordered Q1..Qn, P1..Pn.
    xxpp = np.r_[0:2 * n:2, 1:2 * n:2]
    eye, zero = np.eye(n), np.zeros((n, n))
    w = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / SQRT2
    q = w @ gs.gamma[np.ix_(xxpp, xxpp)] @ w.conj().T / 2.0 + np.eye(2 * n) / 2.0
    # q >= I/2 exactly; once its rounding, eps |q|, reaches that floor, its
    # inverse is rounding noise whether or not ``inv`` raises
    if np.finfo(float).eps * np.linalg.norm(q, 2) >= 0.5:
        raise _singular_husimi(gs.gamma)
    try:
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError as exc:
        raise _singular_husimi(gs.gamma) from exc
    a = np.block([[zero, eye], [eye, zero]]) @ (np.eye(2 * n) - q_inv)
    alpha = (gs.d[0::2] + 1j * gs.d[1::2]) / SQRT2
    beta = np.concatenate([alpha, alpha.conj()])
    with np.errstate(over="ignore"):   # a far displacement gives g0 = 0
        g0 = np.exp(-0.5 * beta.conj() @ q_inv @ beta) / np.sqrt(np.linalg.det(q))
    grid = _hermite_grid(a, beta.conj() - a @ beta, g0, space.cutoff)
    rho = grid.reshape(space.dim, space.dim).T
    rho = (rho + rho.conj().T) / 2.0

    trace = float(np.trace(rho).real)
    if not trace > 0:   # NaN fails too
        raise ValidationError(f"Gaussian state has no weight below cutoff "
                              f"{space.cutoff}: synthesized trace {trace:.3e}")
    flags = ()
    if 1.0 - trace > tol.leak_budget:
        flags = (f"truncation:synthesis:mass-deficit={1.0 - trace:.3e}",)
    return FockOperator(space, rho / trace, flags)
