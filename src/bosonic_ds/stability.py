"""End-to-end beam-splitter stability experiments.

An experiment sends a product state through the splitter, measures how far
the output is from the product of its reductions (epsilon), Gaussifies the
inputs, and evaluates the explicit stability constants and both bounds:

    |rho_j - rho'_j|_2  <=  c1 eps^(1/3) + c2 / sqrt(ln(1/eps))
    |Gamma_1 - Gamma_2|_2  <=  c3 sqrt(eps)

epsilon is measured against the product of the true reduced states; any
product witness within eps implies the reduced product is within 3 eps, so
the report carries both numbers.
"""

from __future__ import annotations

import functools
import math
import os
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (BoundViolationError, CalibrationError,
                     TrivialSplitterError, UncertaintyViolationError,
                     ValidationError)
from .fock import (FockOperator, FockSpace, Splitter, apply_splitter,
                   beam_splitter_unitary, block_groups, diagonal_leak_flags,
                   estimate_kappa, gaussian_to_fock, gaussify, hs_norm,
                   leak_flags, mode_pair_moments, moments, partial_trace,
                   sector_exchange, sector_output, support, validate_density)
from .symplectic import GaussianState, is_trivial_angle

# Directly evaluated 50-50 one-mode prefactor vs the value quoted alongside
# the published curve; the ~10% gap is reported side by side, not reconciled.
C1_QUOTED_50_50 = 46.2


def c1_direct_50_50() -> float:
    return 32.0 * math.sqrt(8.0 / math.pi)


def theta_curve(theta: float) -> float:
    """Shape of the in-region constant versus transmittivity:
    sqrt((1 + 3 sin 2t) / sin 2t); diverges at t = 0 and t = pi/2."""
    s2 = math.sin(2.0 * theta)
    if s2 <= 0:
        raise ValidationError("theta must lie strictly inside (0, pi/2)")
    return math.sqrt((1.0 + 3.0 * s2) / s2)


def c1_constant(theta: float, n: int, kappa: float) -> float:
    s2 = math.sin(2.0 * theta)
    if s2 <= 0:
        raise ValidationError("c1 is defined for theta in (0, pi/2)")
    return 32.0 * math.sqrt((2.0 / math.pi ** n) * (1.0 + 3.0 * s2) / s2) \
        * n ** 2 * kappa


def c2_constant(lam: float, trace_gamma_out: float, n: int) -> float:
    return 8.0 * math.sqrt(3.0 * lam * trace_gamma_out / math.pi ** n)


def c2_shape(n: int) -> float:
    """theta-independent prefactor of c2 (multiplies sqrt(lam * Tr Gamma_out))."""
    return 8.0 * math.sqrt(3.0 / math.pi ** n)


def c3_constant(theta: float, n: int, kappa: float) -> float:
    s2 = math.sin(2.0 * theta)
    if s2 == 0:
        raise TrivialSplitterError("c3 diverges at multiples of pi/2")
    return math.sqrt(384.0 * n ** 2 * kappa) / abs(s2)


def f_bound(theta: float, n: int, kappa: float, epsilon: float,
            xi_norm: float) -> float:
    """Closed-form bound on the squared double-line-integral remainder:
    (n^2 kappa |xi|^4 / (2 tan^2 t)) eps^(2/3)."""
    if is_trivial_angle(theta):
        raise TrivialSplitterError("bound diverges at multiples of pi/2")
    t = math.tan(theta)
    return (n ** 2 * kappa * xi_norm ** 4 / (2.0 * t ** 2)) * epsilon ** (2.0 / 3.0)


def region_radius(lam: float, epsilon: float) -> tuple:
    """Radius of the ball where input characteristic functions stay away
    from zero, r = sqrt(log2(1/eps^(1/12)) / lam), and the value 12
    eps^(1/12) reported beside it as ``r_floor``.  That value is not a floor
    on |chi|: every |chi| is at most 1, and 12 eps^(1/12) exceeds 1 for
    every eps above 12^-12 (about 1.1e-13); reports read 9.5-9.9 where the
    smallest |chi| sampled over the ball is 0.85-0.87.  Only the paper's
    abstract is at hand, so the lemma these two values stand for is not
    checked here."""
    if lam <= 0:
        raise ValidationError("largest variance must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must lie in (0, 1)")
    r = math.sqrt(-math.log2(epsilon) / (12.0 * lam))
    return r, 12.0 * epsilon ** (1.0 / 12.0)


_MAX_MODES = 620   # the largest n with pi ** n finite, as c1 and c2 need


def constants_sweep(theta_min: float, theta_max: float, steps: int,
                    n: int, kappa: float) -> list:
    """Per-theta table of the shape curve and the three constants."""
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    physical = _physical_memory()
    # a row is a dict of five floats (~310 bytes); with the CLI's JSON text
    # of the table the peak measured about 1.1 KiB a row
    if 0 < physical < 1024 * steps:
        raise ValidationError(f"steps {steps}: a table of that many rows does not fit "
                              f"in {physical / 2 ** 30:.1f} GiB of physical memory")
    if not (0.0 < theta_min < math.pi / 2 and 0.0 < theta_max < math.pi / 2):
        raise ValidationError("theta range must lie inside (0, pi/2)")
    if theta_min > theta_max:
        raise ValidationError(f"theta range is inverted: theta_min {theta_min} "
                              f"is above theta_max {theta_max}")
    if n < 1:
        raise ValidationError(f"modes must be >= 1, got {n}")
    if n > _MAX_MODES:
        raise ValidationError(f"modes must be <= {_MAX_MODES}, got {n}")
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValidationError(f"kappa must be finite and >= 0, got {kappa}")
    thetas = np.linspace(theta_min, theta_max, steps) if steps > 1 \
        else np.array([theta_min])
    rows = []
    for t in thetas:
        rows.append({
            "theta": float(t),
            "curve": theta_curve(float(t)),
            "c1": c1_constant(float(t), n, kappa),
            "c2_shape": c2_shape(n),
            "c3": c3_constant(float(t), n, kappa),
        })
        if not (math.isfinite(rows[-1]["c1"]) and math.isfinite(rows[-1]["c3"])):
            raise ValidationError(f"kappa {kappa} at modes {n}: c1 or c3 overflows "
                                  "a double")
    return rows


# ---------------------------------------------------------------------------
# Cross covariance


@dataclass(frozen=True)
class CrossCovariance:
    v: np.ndarray
    norm: float
    bound: float | None
    within_bound: bool | None


def _cross_cov_matrix(g_mat: np.ndarray, space: FockSpace,
                      theta: float) -> np.ndarray:
    """Entries Tr[g R_{1k} R_{2l}] / tan(theta) on a two-arm space.

    Satisfies Gamma_1 - Gamma_2 = (2 / cos^2 theta) V exactly for centered
    product inputs; its Frobenius norm matches any orthogonally conjugated
    variant of the same object.  Each entry touches arm-1 mode i and arm-2
    mode j only, so each (2, 2) block is read from the two-mode reduction of
    g on those modes, as the cross-mode blocks of Gamma are.
    """
    n2 = space.n_modes
    if n2 % 2:
        raise ValidationError("cross covariance needs a two-arm space")
    t = math.tan(theta)
    if t == 0:
        raise TrivialSplitterError("cross covariance undefined at theta = m pi")
    n = n2 // 2
    return np.block([[mode_pair_moments(g_mat, space, i, n + j)
                      for j in range(n)] for i in range(n)]) / t


def _cross_covariance(v: np.ndarray, theta: float, kappa: float | None,
                      epsilon: float) -> CrossCovariance:
    """V, its Frobenius norm and, given kappa, the bound on that norm."""
    norm = float(np.linalg.norm(v))
    if kappa is None:
        return CrossCovariance(v, norm, None, None)
    n = len(v) // 2
    bound = math.sqrt(24.0 * n ** 2 * kappa * epsilon) / abs(math.tan(theta))
    return CrossCovariance(v, norm, bound, norm <= bound)


def cross_covariance_V(rho_ab: FockOperator, rho_a: FockOperator,
                       rho_b: FockOperator, theta: float, *,
                       kappa: float | None = None,
                       epsilon: float | None = None) -> CrossCovariance:
    g = rho_ab.matrix - np.kron(rho_a.matrix, rho_b.matrix)
    if epsilon is None:
        epsilon = _hermitian_trace_norm(g)
    return _cross_covariance(_cross_cov_matrix(g, rho_ab.space, theta), theta,
                             kappa, epsilon)


def _hermitian_trace_norm(g: np.ndarray) -> float:
    """|g|_1 of a Hermitian g: the sum of its absolute eigenvalues, taken
    block by block on the exact zeros of g and summed in ascending order of
    the signed eigenvalues (most negative first), not of their magnitudes.
    With the diagonal of every nonzero line in the pattern, row i and column
    i share a component, so every block of ``block_groups`` is a principal
    block; all-zero lines (eigenvalue 0) join no block."""
    pattern = g != 0
    live = np.flatnonzero(pattern.any(axis=0) | pattern.any(axis=1))
    pattern[live, live] = True
    return _absolute_sum(np.concatenate(
        [np.zeros(0)] + [np.linalg.eigvalsh(g[idx]) for idx in block_groups(pattern)]))


def _absolute_sum(eigs: np.ndarray) -> float:
    """sum |lambda| of the signed eigenvalues ``eigs``, added in ascending
    order of lambda (most negative first)."""
    return float(np.sum(np.abs(np.sort(eigs, axis=None))))


def _schmidt_trace_norm(psi: np.ndarray) -> float:
    """|g|_1 for a pure rho_ab = |psi><psi|, from psi as a matrix whose rows
    are arm 1 and columns arm 2, by its Schmidt coefficients s = sigma(psi)^2.
    In the Schmidt basis rho_a x rho_b = diag(s_j s_k), and rho_ab lives on
    span{|a_k b_k>} as sqrt(s) sqrt(s)^T, so g's eigenvalues are -s_j s_k for
    j != k and those of sqrt(s) sqrt(s)^T - diag(s^2): one SVD and one
    ``eigvalsh`` of psi's size instead of one on the pair space.  Each s_j
    multiplies the sum of the other s_k, from sums before and after it, so no
    sum cancels; the absolute eigenvalues are summed in ascending order."""
    s = np.linalg.svd(psi, compute_uv=False) ** 2
    before = np.concatenate([[0.0], np.cumsum(s[:-1])])
    after = np.concatenate([np.cumsum(s[:0:-1])[::-1], [0.0]])
    root = np.sqrt(s)
    inner = np.outer(root, root)
    inner[np.diag_indices_from(inner)] -= s * s
    eigs = np.concatenate([s * (before + after),
                           np.abs(np.linalg.eigvalsh(inner))])
    return float(np.sum(np.sort(eigs)))


# ---------------------------------------------------------------------------
# The splitter output


class PairOutput:
    """The splitter output rho_ab = U (rho1 x rho2) U*, read along one of
    three paths, chosen once from the inputs (``path``):

    - ``schmidt``: both inputs pure (of rank 1 by ``support``, or with one
      nonzero population when number-diagonal).  epsilon comes from the
      Schmidt coefficients of the output vector; the rest as on the dense
      path.
    - ``sectors``: both inputs number-diagonal (every off-diagonal Fock
      entry exactly 0, as for Fock and thermal states and their mixtures),
      not both pure.  The output is block diagonal on the labels (N_1, ...,
      N_n) of the pairs' photon-number totals (``fock.sector_output``), and
      so is g: rho_a and rho_b are diagonal, their diagonals the marginals of
      the blocks' diagonals.  epsilon is the sum of the blocks' absolute
      eigenvalues, the leak flags read the same diagonals, and V is read
      from the blocks (``_sectors``); no pair-space array is formed.
    - ``dense``: any other pair.  rho_a, rho_b, the flags and g = rho_ab -
      rho_a x rho_b (in rho_ab's buffer) are dense pair-space arrays, built
      together by ``_dense`` on the first read of any of them.

    The constructor admits the pair once: the angle, the inputs' densities
    and their common space, then each input's number populations, which
    choose ``path``, then the sector-array guard that every pair passes
    (``_check_pair_fits``).  One operator passed as both inputs (a witness)
    is validated, scanned and later decomposed once (``_each_input``).  The
    splitter on the pair ``space`` is built on first read, as is the factor
    (W, p): the splitter is passive, so with rho_j = V_j diag(p_j) V_j* the
    output is W diag(p) W*, W = U (V1 x V2), p = p1 x p2, and U acts once,
    on the rank(rho1) rank(rho2) columns of V1 x V2.  The factor serves
    kappa and the schmidt and dense paths.  Each dense array is counted
    where it is formed: the factor's dim x r columns once the ranks are
    known, the dense members' dim x dim before they are built.  The dense
    members are reference API on the sectors path, formed only when read,
    as ``fock.Splitter.matrix`` is."""

    def __init__(self, rho1: FockOperator, rho2: FockOperator, theta: float,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        if not math.isfinite(theta):
            raise ValidationError(f"theta must be finite, got {theta}")
        if abs(theta) > 2.0 * math.pi:   # far out, the splitter's phases lose precision
            raise ValidationError(f"theta must lie in [-2 pi, 2 pi], got {theta}; "
                                  "the splitter is 2 pi-periodic")
        if is_trivial_angle(theta):
            raise TrivialSplitterError(f"theta = {theta} does not mix the arms")
        self._inputs = (rho1, rho2)
        self._each_input(lambda rho: validate_density(rho, tol))
        if rho1.space != rho2.space:
            raise ValidationError("input states live on different spaces")
        self._populations = self._each_input(_number_populations)
        self._theta = theta
        self._tol = tol
        self.space = FockSpace(2 * rho1.space.n_modes, rho1.space.cutoff)
        _check_pair_fits(self.space)

    def _each_input(self, f) -> list:
        """[f(rho1), f(rho2)], with f called once when both inputs are one
        operator, as in a witness."""
        rho1, rho2 = self._inputs
        first = f(rho1)
        return [first, first if rho2 is rho1 else f(rho2)]

    @functools.cached_property
    def _splitter(self) -> Splitter:
        return beam_splitter_unitary(self.space, self._theta)

    @functools.cached_property
    def path(self) -> str:
        if any(q is None for q in self._populations):
            return "schmidt" if len(self.factor[1]) == 1 else "dense"
        pure = all(np.count_nonzero(q) == 1 for q in self._populations)
        return "schmidt" if pure else "sectors"

    def _check_dense_fits(self, k: int) -> None:
        """Refuse ``_DENSE_MATRICES`` complex dim x ``k`` arrays beyond
        physical memory."""
        _check_fits_memory(self.space, _DENSE_MATRICES * self.space.dim * k * 16,
                           "dense matrices")

    @functools.cached_property
    def factor(self) -> tuple:
        (v1, p1), (v2, p2) = self._each_input(support)
        self._check_dense_fits(len(p1) * len(p2))
        return apply_splitter(self._splitter, np.kron(v1, v2)), np.kron(p1, p2)

    @functools.cached_property
    def _dense(self) -> tuple:
        """(rho_a, rho_b, flags, g): reduce rho_ab, flag its leak, then form
        g in its buffer."""
        self._check_dense_fits(self.space.dim)
        w, p = self.factor
        rho_ab = FockOperator(self.space, (w * p) @ w.conj().T)
        rho_a = partial_trace(rho_ab, "first")
        rho_b = partial_trace(rho_ab, "second")
        flags = leak_flags(rho_ab, "output", self._tol)
        g = rho_ab.matrix
        g -= np.kron(rho_a.matrix, rho_b.matrix)
        return rho_a, rho_b, flags, g

    @functools.cached_property
    def _sectors(self) -> tuple:
        """(rho_a, rho_b, flags, epsilon, V) on the sectors path, from the
        label blocks of rho_ab.  g's blocks are rho_ab's less the diagonal of
        rho_a x rho_b.  V's cross-pair blocks are exactly 0: R_{a_i} R_{b_j}
        moves N_i and N_j, i != j, off g's blocks.  On pair i only the parts
        a b* and a* b of R_{a_i} R_{b_i} keep N_i, so with c = Tr[g a_i* b_i],
        real for real blocks, its block is (Re c) I / tan theta: QP and PQ
        read Im c = 0.  Those parts have a zero diagonal, so g's diagonal
        drops out of c."""
        space = self.space
        n, arm = space.n_modes // 2, space.cutoff ** (space.n_modes // 2)
        g, arm1, arm2, held = sector_output(self._splitter, *self._populations)
        slots = np.arange(g.shape[-1])
        pops = np.zeros((arm, arm))
        pops[arm1[held], arm2[held]] = g[:, slots, slots][held]
        pa, pb = pops.sum(axis=1), pops.sum(axis=0)
        flags = diagonal_leak_flags(pops.reshape(-1), space, "output", self._tol)
        g[:, slots, slots] -= np.where(held, pa[arm1] * pb[arm2], 0.0)
        epsilon = _absolute_sum(np.linalg.eigvalsh(g))
        v = np.zeros((2 * n, 2 * n), dtype=complex)
        for i, c in enumerate(sector_exchange(g, space.cutoff, n)):
            v[2 * i, 2 * i] = v[2 * i + 1, 2 * i + 1] = c / math.tan(self._theta)
        arm_space = FockSpace(n, space.cutoff)
        return (FockOperator(arm_space, np.diag(pa)),
                FockOperator(arm_space, np.diag(pb)), flags, epsilon, v)

    @property
    def _reductions(self) -> tuple:
        return self._sectors if self.path == "sectors" else self._dense

    rho_a = property(lambda self: self._reductions[0])
    rho_b = property(lambda self: self._reductions[1])
    flags = property(lambda self: self._reductions[2])
    g = property(lambda self: self._dense[3])

    @functools.cached_property
    def epsilon(self) -> float:
        """|g|_1, along ``path``."""
        if self.path == "sectors":
            return self._sectors[3]
        if self.path == "dense":
            return _hermitian_trace_norm(self.g)
        w, p = self.factor
        arm_dim = self.space.cutoff ** (self.space.n_modes // 2)
        return _schmidt_trace_norm(math.sqrt(p[0]) * w[:, 0].reshape(arm_dim, -1))

    @functools.cached_property
    def v(self) -> np.ndarray:
        """The cross covariance V (``_cross_cov_matrix``), along ``path``."""
        if self.path == "sectors":
            return self._sectors[4]
        return _cross_cov_matrix(self.g, self.space, self._theta)


def _number_populations(rho: FockOperator) -> np.ndarray | None:
    """rho's number populations, the real part of its diagonal, when every
    off-diagonal entry is exactly 0; otherwise None."""
    diagonal = np.diag(rho.matrix)
    if np.count_nonzero(rho.matrix) > np.count_nonzero(diagonal):
        return None
    return diagonal.real.copy()


# Complex dim x k arrays alive at once, counted where the chain forms them:
# k = r = rank rho1 rank rho2 when the factor W is formed (``factor``),
# k = dim before the dense members are (``_dense``).  The factor holds W
# while the kappa search holds diag(p) W*, the r x dim product it builds,
# the quadrature primitive's output and temporary, and the SVD's copy of one
# zero block; the dense members add rho_ab, reused for g, and rho_a x rho_b.
# Peak RSS above the interpreter's and the inputs' measures 6.3 dim x r
# arrays for two full-rank Gaussians at 2 modes/arm, cutoff 6 (r = dim =
# 1296), 3.78 for thermals 0.3 and 0.2 at cutoff 100 (dim 10^4, r = 396) and
# 2.11 dim x dim for squeezed:0.3 x thermal:0.2 at cutoff 40 (dense path).
# A batch of kappa pairs adds at most four arrays of 2**14 complex entries
# (256 KiB each).  The rest is headroom.
_DENSE_MATRICES = 9

# Real sector arrays, (2 cutoff - 1)^n cutoff^(2n) entries each on n mode
# pairs (``_sector_entries``): the guard that every pair passes, before its
# inputs are built and in ``PairOutput``'s constructor (``_check_pair_fits``).
# A number-diagonal pair whose epsilon alone is read, as by the witness,
# holds them alive at once: the splitter's sector blocks with the
# temporaries of their exponential and calibration, then the output's label
# blocks (``fock.sector_output``) and the copy ``eigvalsh`` takes.  Peak RSS
# above the interpreter's and the input's measures 4.3-5.1 of them for
# thermal and Fock witnesses at cutoffs 60-140 (the splitter's build and
# calibration are the peak).  The rest is headroom.  As 2 cutoff - 1 <=
# cutoff^2, the guard asks no more than ``_DENSE_MATRICES`` dim x dim arrays.
_SECTOR_ARRAYS = 12


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the platform does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 0


def _check_fits_memory(pair_space: FockSpace, need: int | float, held: str) -> None:
    """Refuse ``need`` bytes of ``held`` on ``pair_space`` beyond physical
    memory; skipped where memory is unknown."""
    physical = _physical_memory()
    if 0 < physical < need:
        gib = need / 2 ** 30 if need < 2 ** 1000 else math.inf   # no float overflow
        raise ValidationError(
            f"{_pair_size(pair_space)} needs about {gib:.3g} GiB of {held}; "
            f"physical memory is {physical / 2 ** 30:.1f} GiB"
        )


def _check_pair_fits(pair_space: FockSpace) -> None:
    """Refuse a pair space whose ``_SECTOR_ARRAYS`` real sector arrays
    exceed physical memory: the guard every pair passes."""
    _check_fits_memory(pair_space, _SECTOR_ARRAYS * _sector_entries(pair_space) * 8,
                       "sector arrays")


def _pair_dim(pair_space: FockSpace) -> int | float:
    """cutoff^n, formed only up to 2^1024: no memory holds a larger pair, and
    for a large n the exact power takes minutes and gigabytes to form."""
    n, cutoff = pair_space.n_modes, pair_space.cutoff
    return pair_space.dim if n <= 1024 / math.log2(cutoff) else math.inf


def _sector_entries(pair_space: FockSpace) -> int | float:
    """(2 cutoff - 1)^n cutoff^(2n) on n mode pairs, the entries of the
    output's label blocks (``fock.sector_output``), bounded as ``_pair_dim``
    bounds cutoff^(2n)."""
    dim = _pair_dim(pair_space)
    if dim == math.inf:
        return dim
    return dim * (2 * pair_space.cutoff - 1) ** (pair_space.n_modes // 2)


def _pair_size(pair_space: FockSpace) -> str:
    """``pair dim D (n modes per arm, cutoff c)`` in one short line: past 20
    digits D is written as the power, and past 40 characters a number is cut
    short (``reprlib``), as str() fails past 4300 digits."""
    n, cutoff = pair_space.n_modes, pair_space.cutoff
    dim = _pair_dim(pair_space)
    shown = dim if dim < 10 ** 20 else f"{cutoff}^{reprlib.repr(n)}"
    return (f"pair dim {shown} ({reprlib.repr(n // 2)} modes per arm, "
            f"cutoff {cutoff})")


def _names_the_pair(chain):
    """``chain``, whose first argument is an input state, with an
    out-of-memory error that names the pair space."""
    @functools.wraps(chain)
    def run(rho, *args, **kwargs):
        try:
            return chain(rho, *args, **kwargs)
        except MemoryError as exc:
            space = FockSpace(2 * rho.space.n_modes, rho.space.cutoff)
            detail = f": {exc}" if str(exc) else ""
            raise MemoryError(f"{_pair_size(space)}{detail}") from exc
    return run


# Send rho1 x rho2 through the splitter: the admitted ``PairOutput``.
pair_output = PairOutput


# ---------------------------------------------------------------------------
# The experiment


@dataclass(frozen=True)
class StabilityReport:
    theta: float
    modes_per_arm: int
    epsilon: float
    epsilon_3x: float
    lam: float
    kappa: float
    kappa_samples: int
    r: float | None
    r_floor: float | None
    c1: float | None
    c2: float
    c3: float
    trace_gamma_out: float
    dist_hs_1: float
    dist_hs_2: float
    cm_gap: float
    bound1: float | None
    bound2: float | None
    margin_state: float | None
    margin_cm: float | None
    v: np.ndarray
    v_norm: float
    v_bound: float
    v_within_bound: bool
    d1: np.ndarray
    d2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    truncation_flags: tuple
    notes: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "n": self.modes_per_arm,
            "epsilon": self.epsilon,
            "epsilon_3x": self.epsilon_3x,
            "lambda": self.lam,
            "kappa": self.kappa,
            "kappa_samples": self.kappa_samples,
            "r": self.r,
            "r_floor": self.r_floor,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "trace_gamma_out": self.trace_gamma_out,
            "dist_hs_1": self.dist_hs_1,
            "dist_hs_2": self.dist_hs_2,
            "cm_gap": self.cm_gap,
            "bound1": self.bound1,
            "bound2": self.bound2,
            "margins": {"state_distance": self.margin_state,
                        "cm_gap": self.margin_cm},
            "V": {"re": self.v.real.tolist(), "im": self.v.imag.tolist()},
            "v_norm": self.v_norm,
            "v_bound": self.v_bound,
            "v_within_bound": self.v_within_bound,
            "d1": self.d1.tolist(),
            "d2": self.d2.tolist(),
            "gamma1": self.gamma1.tolist(),
            "gamma2": self.gamma2.tolist(),
            "truncation_flags": list(self.truncation_flags),
            "notes": self.notes,
            "config": self.config,
        }


def _operator_norm(gamma: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(gamma))))


def _gaussify_input(rho: FockOperator, label: str,
                    tol: Tolerances) -> GaussianState:
    """``gaussify(rho)``; its failure names the input, ``label``, and the
    cutoff."""
    try:
        return gaussify(rho, tol)
    except UncertaintyViolationError as exc:
        raise UncertaintyViolationError(
            f"{label} at cutoff {rho.space.cutoff}: {exc}") from exc


@_names_the_pair
def run_experiment(rho1: FockOperator, rho2: FockOperator, theta: float, *,
                   seed: int = 0,
                   tol: Tolerances = DEFAULT_TOLERANCES,
                   strict: bool = True,
                   config_echo: dict | None = None) -> StabilityReport:
    """Full stability pipeline for one input pair and splitter angle.

    With ``strict`` the guaranteed invariants abort on violation: negative
    bound margins on clean (unflagged) runs raise BoundViolationError, and a
    mismatch between the covariance gap and the cross-covariance identity
    raises CalibrationError.  With ``strict=False`` the report is returned
    regardless, for callers that surface failures through exit codes.
    """
    # Gaussify before the splitter is built, so a cutoff too small for an
    # input fails before the pair is evolved.
    out = PairOutput(rho1, rho2, theta, tol)
    gs1 = _gaussify_input(rho1, "state1", tol)
    gs2 = _gaussify_input(rho2, "state2", tol)
    n = rho1.space.n_modes
    epsilon = out.epsilon

    flags = [*leak_flags(rho1, "input1", tol), *leak_flags(rho2, "input2", tol),
             *rho1.flags, *rho2.flags, *out.flags]

    # every axis of the output lives in one arm, so Tr Gamma_out is the sum of
    # the arms' covariance diagonals; kappa is searched on the output's
    # factor, of rank rank(rho1) rank(rho2)
    arms = (moments(out.rho_a), moments(out.rho_b))
    lam = 0.5 * max(_operator_norm(gs1.gamma), _operator_norm(gs2.gamma))
    kappa, _, kappa_samples = estimate_kappa(out.factor, out.space, seed=seed)
    trace_gamma_out = float(np.sum(np.concatenate([np.diag(m.gamma) for m in arms])))

    try:
        c1 = c1_constant(theta, n, kappa)
    except ValidationError:
        c1 = None
    c2 = c2_constant(lam, trace_gamma_out, n)
    c3 = c3_constant(theta, n, kappa)

    if 0.0 < epsilon < 1.0:
        r, r_floor = region_radius(lam, epsilon)
        bound1 = (c1 * epsilon ** (1.0 / 3.0)
                  + c2 / math.sqrt(math.log(1.0 / epsilon))) if c1 is not None else None
        bound2 = c3 * math.sqrt(epsilon)
    else:
        r = r_floor = bound1 = bound2 = None

    synth1 = gaussian_to_fock(gs1, rho1.space, tol)
    synth2 = gaussian_to_fock(gs2, rho2.space, tol)
    flags.extend(synth1.flags + synth2.flags)
    dist1 = hs_norm(rho1.matrix - synth1.matrix)
    dist2 = hs_norm(rho2.matrix - synth2.matrix)
    cm_gap = float(np.linalg.norm(gs1.gamma - gs2.gamma))

    cov = _cross_covariance(out.v, theta, kappa, epsilon)

    # bound2 holds for every non-trivial theta, bound1 only where c1 does
    margin_state = bound1 - max(dist1, dist2) if bound1 is not None else None
    margin_cm = bound2 - cm_gap if bound2 is not None else None

    flags = tuple(dict.fromkeys(flags))

    notes = {}
    if abs(theta - math.pi / 4) < 1e-9 and n == 1:
        notes["c1_prefactor_direct_50_50"] = c1_direct_50_50()
        notes["c1_prefactor_quoted_50_50"] = C1_QUOTED_50_50
        notes["c1_prefactor_gap"] = "direct evaluation and the quoted value " \
            "differ by ~10%; both are reported"

    report = StabilityReport(
        theta=float(theta), modes_per_arm=n,
        epsilon=epsilon, epsilon_3x=3.0 * epsilon,
        lam=lam, kappa=kappa, kappa_samples=kappa_samples,
        r=r, r_floor=r_floor, c1=c1, c2=c2, c3=c3,
        trace_gamma_out=trace_gamma_out,
        dist_hs_1=dist1, dist_hs_2=dist2, cm_gap=cm_gap,
        bound1=bound1, bound2=bound2,
        margin_state=margin_state, margin_cm=margin_cm,
        v=cov.v, v_norm=cov.norm, v_bound=cov.bound,
        v_within_bound=cov.within_bound,
        d1=gs1.d, d2=gs2.d, gamma1=gs1.gamma, gamma2=gs2.gamma,
        truncation_flags=flags, notes=notes,
        config=dict(config_echo or {}),
    )

    if strict:
        _enforce_invariants(report, tol)
    return report


def _enforce_invariants(report: StabilityReport,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Abort on violations the theory guarantees cannot happen.  The
    guarantees hold for clean runs only, so a report with truncation flags
    passes unchecked."""
    if report.truncation_flags:
        return
    ident = (2.0 / math.cos(report.theta) ** 2) * report.v_norm
    scale = 1.0 + float(np.linalg.norm(report.gamma1))
    if abs(report.cm_gap - ident) > tol.convention_rel * max(report.cm_gap, ident) \
            + tol.convention_abs * scale:
        raise CalibrationError(
            f"covariance gap {report.cm_gap:.6e} disagrees with the "
            f"cross-covariance identity value {ident:.6e}; convention bug"
        )
    if any(m is not None and m < 0 for m in (report.margin_state, report.margin_cm)):
        raise BoundViolationError(
            f"stability bound violated on a clean run: "
            f"state margin {report.margin_state}, cm margin {report.margin_cm}",
            report=report,
        )
    if not report.v_within_bound:
        raise BoundViolationError(
            f"|V| = {report.v_norm:.6e} exceeds its bound {report.v_bound:.6e}",
            report=report,
        )


@_names_the_pair
def nongaussianity_witness(rho: FockOperator, theta: float,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Distance of U (rho x rho) U* from the product of its reductions.

    Zero (within truncation noise) exactly when rho is Gaussian; the
    canonical two-photon interference case gives 1.5 at theta = pi/4.
    """
    return PairOutput(rho, rho, theta, tol).epsilon
