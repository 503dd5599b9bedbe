"""Characteristic-function numerics.

Grids are uniform and symmetric with an odd point count, so the origin is a
node.  The twisted-kernel positivity test is a falsifier only: sampled point
sets can reveal that a function is not a quantum characteristic function,
but no finite sample certifies that it is one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, GridSpec, Tolerances
from .errors import DimensionError, ValidationError
from .fock import FockOperator, char_batch, gaussian_char_values
from .symplectic import GaussianState, symplectic_form


def char_callable(source):
    """Vectorized chi evaluator for a FockOperator, GaussianState or callable."""
    if isinstance(source, FockOperator):
        return lambda xs: char_batch(source, xs)
    if isinstance(source, GaussianState):
        return lambda xs: gaussian_char_values(source, xs)
    if callable(source):
        return source
    raise ValidationError(f"cannot evaluate a characteristic function of {type(source)}")


def _mode_count(source, n_modes: int | None) -> int:
    """``n_modes``, or the mode count of a FockOperator or GaussianState."""
    if n_modes is not None:
        return n_modes
    if isinstance(source, FockOperator):
        return source.space.n_modes
    if isinstance(source, GaussianState):
        return source.n
    raise ValidationError("n_modes is required for a bare callable")


def char_function(rho: FockOperator, xi) -> complex:
    """chi(xi) = Tr[W_xi rho] at a single point."""
    xs = np.asarray(xi, dtype=float).reshape(1, -1)
    return complex(char_batch(rho, xs)[0])


# ---------------------------------------------------------------------------
# Dense grids


@dataclass(frozen=True)
class CharGrid:
    """Sampled chi on [-extent, extent]^(2n), values indexed per axis."""

    n_modes: int
    extent: float
    points: int
    values: np.ndarray
    flags: tuple = ()

    def __post_init__(self):
        shape = (self.points,) * (2 * self.n_modes)
        if self.values.shape != shape:
            raise DimensionError(f"grid values shape {self.values.shape} != {shape}")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points)

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.points - 1)

    def origin_index(self) -> int:
        return (self.points - 1) // 2


def _trapezoid_weights(points: int, step: float) -> np.ndarray:
    w = np.full(points, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def char_grid(source, extent: float, points: int, n_modes: int | None = None,
              tol: Tolerances = DEFAULT_TOLERANCES) -> CharGrid:
    """Dense chi evaluation over a uniform symmetric grid of a density.

    Flags the result when |chi| at the boundary exceeds the boundary
    tolerance, signaling that the extent is too small for the state.
    """
    n_modes = _mode_count(source, n_modes)
    spec = GridSpec(extent=extent, points=points)
    if points ** (2 * n_modes) > 2_000_000:
        raise DimensionError("grid too large; reduce points or mode count")
    chi = char_callable(source)

    ax = spec.axis()
    mesh = np.meshgrid(*([ax] * (2 * n_modes)), indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    values = chi(pts).reshape((points,) * (2 * n_modes))

    flags = ()
    origin = values[(spec.points // 2,) * (2 * n_modes)]
    if abs(origin - 1.0) > 1e-8:
        raise ValidationError(f"chi(0) = {origin} deviates from 1")
    sym_defect = float(np.max(np.abs(values - np.conj(values[(slice(None, None, -1),)
                                                             * (2 * n_modes)]))))
    if sym_defect > 1e-8:
        raise ValidationError(f"chi(-xi) != conj(chi(xi)): defect {sym_defect:.3e}")
    boundary = _boundary_max(values)
    if boundary > tol.boundary:
        flags += (f"chi:boundary={boundary:.3e}",)
    if isinstance(source, FockOperator):
        flags += source.flags
    return CharGrid(n_modes, float(extent), int(points), values, flags)


def _boundary_max(values: np.ndarray) -> float:
    worst = 0.0
    for axis in range(values.ndim):
        sl = [slice(None)] * values.ndim
        for edge in (0, -1):
            sl[axis] = edge
            worst = max(worst, float(np.max(np.abs(values[tuple(sl)]))))
    return worst


# ---------------------------------------------------------------------------
# Parseval distance


def parseval_distance(grid1: CharGrid, grid2: CharGrid) -> float:
    """Squared Hilbert-Schmidt distance by phase-space quadrature:
    (2 pi)^-n Integral |chi_1 - chi_2|^2."""
    if (grid1.n_modes, grid1.extent, grid1.points) != \
            (grid2.n_modes, grid2.extent, grid2.points):
        raise DimensionError("grids have different geometry")
    diff = np.abs(grid1.values - grid2.values) ** 2
    w = _trapezoid_weights(grid1.points, grid1.step)
    for _ in range(2 * grid1.n_modes):
        diff = diff @ w
    return float(diff / (2 * np.pi) ** grid1.n_modes)


# ---------------------------------------------------------------------------
# Twisted-kernel (sigma) positivity


@dataclass(frozen=True)
class SigmaPositivityReport:
    point_set: np.ndarray
    min_eigenvalue: float
    passed: bool
    sets_evaluated: int


def _kernel_min_eig(chi, pts: np.ndarray, sigma: np.ndarray) -> float:
    m = pts.shape[0]
    diffs = pts[:, None, :] - pts[None, :, :]
    chi_vals = chi(diffs.reshape(m * m, -1)).reshape(m, m)
    phases = np.exp(0.5j * np.einsum("ki,ij,lj->kl", pts, sigma, pts))
    kern = chi_vals * phases
    kern = (kern + kern.conj().T) / 2
    return float(np.linalg.eigvalsh(kern)[0])


_BOX = 2.0            # random points are drawn in [-_BOX, _BOX]^(2n)
_STOP_BELOW = -0.01   # a search stops at a minimum eigenvalue below this


def sigma_positivity_test(source, n_modes: int | None = None, *, seed: int,
                          set_sizes=(2, 4, 8), n_sets: int = 200,
                          search: bool = False, max_trials: int = 1000,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> SigmaPositivityReport:
    """Hunt for point sets violating twisted-kernel positivity.

    Builds M_kl = chi(xi_k - xi_l) exp(i xi_k . sigma xi_l / 2) for random
    point sets and reports the worst minimum eigenvalue.  With ``search``
    the worst set is refined by local perturbation until the minimum
    eigenvalue is below ``_STOP_BELOW`` or the trial budget runs out.  A
    sampled grid works as the chi source too: points then snap to grid nodes
    so that differences stay on the lattice.  Absence of a violation is not a
    proof of validity.
    """
    rng = np.random.default_rng(seed)
    if isinstance(source, CharGrid):
        # Integer lattice offsets within min(_BOX, extent/2) of the origin;
        # differences of such nodes are nodes, so chi is read off the grid.
        grid, n_modes, step = source, source.n_modes, source.step
        origin = grid.origin_index()
        reach = min(int(min(_BOX, grid.extent / 2) / step), origin // 2)
        if reach < 1:
            raise ValidationError("grid too coarse for lattice positivity sampling")

        def chi(xs):
            return grid.values[tuple((np.rint(xs / step).astype(int) + origin).T)]

        def draw(m):
            return rng.integers(-reach, reach + 1, size=(m, 2 * n_modes)) * step

        def perturb(pts, scale):   # a fixed jitter; scale is for the steps below
            jitter = rng.integers(-2, 3, size=pts.shape)
            return np.clip(np.rint(pts / step) + jitter, -reach, reach) * step
    else:
        n_modes = _mode_count(source, n_modes)
        chi = char_callable(source)

        def draw(m):
            return rng.uniform(-_BOX, _BOX, size=(m, 2 * n_modes))

        def perturb(pts, scale):
            return pts + rng.normal(scale=scale, size=pts.shape)
    sigma = symplectic_form(n_modes)
    worst = np.inf
    worst_set = np.zeros((1, 2 * n_modes))
    trials = 0
    for _ in range(n_sets):
        pts = draw(int(rng.choice(set_sizes)))
        val = _kernel_min_eig(chi, pts, sigma)
        trials += 1
        if val < worst:
            worst, worst_set = val, pts
        if search and worst < _STOP_BELOW:
            break
    scale = 0.3 * _BOX
    while search and trials < max_trials and worst >= _STOP_BELOW:
        pts = perturb(worst_set, scale)
        val = _kernel_min_eig(chi, pts, sigma)
        trials += 1
        if val < worst:
            worst, worst_set = val, pts
        else:
            scale = max(0.02 * _BOX, scale * 0.97)
    return SigmaPositivityReport(worst_set, worst, worst >= -tol.kernel_psd, trials)


# ---------------------------------------------------------------------------
# Derivative moments


def _finite_diff_moments(chi, dim: int, h: float) -> tuple:
    points = [np.zeros(dim)]
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        points.extend([e, -e])
    pair_index = {}
    for k in range(dim):
        for l in range(k + 1, dim):
            ekl = np.zeros(dim)
            ekl[k], ekl[l] = h, h
            elk = np.zeros(dim)
            elk[k], elk[l] = h, -h
            pair_index[(k, l)] = len(points)
            points.extend([ekl, -ekl, elk, -elk])
    vals = chi(np.array(points))
    chi0 = vals[0]
    grad = np.array([(vals[1 + 2 * k] - vals[2 + 2 * k]) / (2 * h)
                     for k in range(dim)])
    hess = np.empty((dim, dim), dtype=complex)
    for k in range(dim):
        hess[k, k] = (vals[1 + 2 * k] - 2 * chi0 + vals[2 + 2 * k]) / h ** 2
    for (k, l), base in pair_index.items():
        plus, minus = vals[base], vals[base + 1]
        cross, cross_m = vals[base + 2], vals[base + 3]
        hess[k, l] = hess[l, k] = (plus + minus - cross - cross_m) / (4 * h ** 2)
    return grad, hess


def derivative_moments(source, n_modes: int | None = None) -> tuple:
    """Recover (d, Gamma) from central differences of chi at the origin.

    Uses grad chi(0) = i sigma d and Hess chi(0) = -sigma (Gamma/2 + d d^T)
    sigma^T, Richardson-extrapolated over the steps 1e-2 and 1e-3.
    """
    n_modes = _mode_count(source, n_modes)
    chi = char_callable(source)
    dim = 2 * n_modes
    h1, h2 = 1e-2, 1e-3
    g1, hh1 = _finite_diff_moments(chi, dim, h1)
    g2, hh2 = _finite_diff_moments(chi, dim, h2)
    ratio = (h1 / h2) ** 2
    grad = (ratio * g2 - g1) / (ratio - 1.0)
    hess = (ratio * hh2 - hh1) / (ratio - 1.0)
    sigma = symplectic_form(n_modes)
    d = np.real(1j * sigma @ grad)
    gamma = np.real(-2.0 * sigma.T @ hess @ sigma) - 2.0 * np.outer(d, d)
    return d, (gamma + gamma.T) / 2


# ---------------------------------------------------------------------------
# Beam-splitter factorization residual


@dataclass(frozen=True)
class ResidualResult:
    max_abs: float
    g: np.ndarray            # (M, M) over eta_1 x eta_2 node pairs
    nodes: np.ndarray        # (M, 2n) grid nodes shared by both factors
    excluded: int = 0


def ds_residual(state1, state2, theta: float, grid: GridSpec,
                n_modes: int | None = None,
                max_arg_norm: float | None = None) -> ResidualResult:
    """Deviation from the beam-splitter factorization identity.

    G(e1, e2) = chi1(c e1 + s e2) chi2(c e2 - s e1)
              - chi1(c e1) chi1(s e2) chi2(c e2) chi2(-s e1)
    with c = cos(theta), s = sin(theta), evaluated by direct calls (no
    interpolation) on all pairs of grid nodes.  Pairs whose rotated
    arguments exceed ``max_arg_norm`` are excluded from the sup and counted.
    """
    n_modes = _mode_count(state1, n_modes)
    chi1 = char_callable(state1)
    chi2 = char_callable(state2)
    ax = grid.axis()
    mesh = np.meshgrid(*([ax] * (2 * n_modes)), indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    m = nodes.shape[0]
    if m * m > 20_000_000:
        raise DimensionError("residual grid too dense; reduce points")
    c, s = np.cos(theta), np.sin(theta)

    a1 = chi1(c * nodes)          # chi1(c eta1)
    a2 = chi1(s * nodes)          # chi1(s eta2)
    b1 = chi2(c * nodes)          # chi2(c eta2)
    b2 = chi2(-s * nodes)         # chi2(-s eta1)

    cross1 = c * nodes[:, None, :] + s * nodes[None, :, :]   # [eta1, eta2]
    cross2 = c * nodes[None, :, :] - s * nodes[:, None, :]   # [eta1, eta2]
    t1 = chi1(cross1.reshape(m * m, -1)).reshape(m, m)
    t2 = chi2(cross2.reshape(m * m, -1)).reshape(m, m)

    g = t1 * t2 - np.outer(a1 * b2, a2 * b1)
    excluded = 0
    mask = None
    if max_arg_norm is not None:
        n1 = np.linalg.norm(cross1, axis=2)
        n2 = np.linalg.norm(cross2, axis=2)
        mask = (n1 > max_arg_norm) | (n2 > max_arg_norm)
        excluded = int(np.sum(mask))
    mag = np.abs(g)
    if mask is not None:
        mag = np.where(mask, 0.0, mag)
    return ResidualResult(float(np.max(mag)), g, nodes, excluded)
