"""Symplectic linear algebra for continuous-variable systems.

Mode ordering is Q,P-interleaved throughout: R = (Q1, P1, ..., Qn, Pn).
Covariance matrices follow the anticommutator convention without a 1/2
factor, so the vacuum has Gamma = Identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionError, ValidationError

OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n form sigma = omega (+) ... (+) omega."""
    if n < 1:
        raise ValidationError("mode count must be >= 1")
    return np.kron(np.eye(n), OMEGA)


def _check_even_square(S: np.ndarray) -> int:
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {S.shape}")
    if S.shape[0] % 2:
        raise DimensionError(f"matrix dimension {S.shape[0]} is odd")
    return S.shape[0] // 2


def symplectic_defect(S: np.ndarray) -> float:
    """Max-norm of S sigma S^T - sigma."""
    n = _check_even_square(S)
    sigma = symplectic_form(n)
    return float(np.max(np.abs(S @ sigma @ S.T - sigma)))


def is_symplectic(S: np.ndarray, tol: float = DEFAULT_TOLERANCES.symplectic) -> bool:
    return symplectic_defect(S) <= tol


def beam_splitter(theta: float, n: int = 1) -> np.ndarray:
    """Block-rotation map mixing two n-mode arms.

    Returns the 4n x 4n matrix [[cos*I, -sin*I], [sin*I, cos*I]] with I the
    2n identity.  theta = m*pi/2 is allowed for construction; such values
    simply do not mix the arms.
    """
    if n < 1:
        raise ValidationError("modes per arm must be >= 1")
    eye = np.eye(2 * n)
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * eye, -s * eye], [s * eye, c * eye]])


def is_trivial_angle(theta: float, tol: float = 1e-12) -> bool:
    """True when theta is within tol of a multiple of pi/2."""
    return abs(np.sin(2.0 * theta)) <= tol


@dataclass(frozen=True)
class GaussianState:
    """First and second moments (d, Gamma) of an n-mode Gaussian state.

    Gamma_kl = Tr[rho {R_k - d_k, R_l - d_l}]; the vacuum is (0, Identity).
    """

    d: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        gamma = np.asarray(self.gamma, dtype=float)
        if d.ndim != 1 or gamma.shape != (d.size, d.size) or d.size % 2:
            raise DimensionError(
                f"incompatible moment shapes d:{d.shape} gamma:{gamma.shape}"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.d.size // 2

    def validate(self, tol: Tolerances = DEFAULT_TOLERANCES) -> "GaussianState":
        if not (np.all(np.isfinite(self.d)) and np.all(np.isfinite(self.gamma))):
            raise ValidationError("Gaussian moments d and Gamma must be finite")
        asym = float(np.max(np.abs(self.gamma - self.gamma.T)))
        if asym > tol.gamma_symmetry:
            raise ValidationError(f"covariance asymmetry {asym:.3e} above tolerance")
        mineig = check_uncertainty(self.gamma, tol)
        if mineig < -tol.uncertainty:
            raise ValidationError(
                f"uncertainty violation: min eig(Gamma + i sigma) = {mineig:.3e}"
            )
        return self


def check_uncertainty(
    gamma: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Smallest eigenvalue of the Hermitian matrix Gamma + i*sigma.

    The caller compares the result against -tolerance; values near zero are
    uncertainty-saturating (pure Gaussian) states.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = _check_even_square(gamma)
    asym = float(np.max(np.abs(gamma - gamma.T)))
    if asym > tol.gamma_symmetry:
        raise ValidationError(f"matrix asymmetry {asym:.3e} above tolerance")
    herm = gamma.astype(complex) + 1j * symplectic_form(n)
    return float(np.linalg.eigvalsh(herm)[0])


def transform_gaussian(S: np.ndarray, state: GaussianState) -> GaussianState:
    """Push moments through a symplectic map: d -> S d, Gamma -> S Gamma S^T."""
    S = np.asarray(S, dtype=float)
    if S.shape != (state.d.size, state.d.size):
        raise DimensionError(
            f"map shape {S.shape} does not match state dimension {state.d.size}"
        )
    return GaussianState(S @ state.d, S @ state.gamma @ S.T)


def rotation_1mode(phi: float) -> np.ndarray:
    return np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])


def squeeze_1mode(z: float) -> np.ndarray:
    return np.diag([np.exp(z), np.exp(-z)])


def random_local_symplectic(n: int, rng: np.random.Generator,
                            max_squeeze: float = 0.8) -> np.ndarray:
    """Random element of Sp(2n) built from one-mode rotations and squeezes.

    Three layers (rotation, squeeze, rotation) per mode give a generic
    one-mode block; blocks are direct-summed across modes.
    """
    blocks = []
    for _ in range(n):
        m = (rotation_1mode(rng.uniform(0, 2 * np.pi))
             @ squeeze_1mode(rng.uniform(-max_squeeze, max_squeeze))
             @ rotation_1mode(rng.uniform(0, 2 * np.pi)))
        blocks.append(m)
    out = np.zeros((2 * n, 2 * n))
    for i, m in enumerate(blocks):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = m
    return out


def two_mode_squeezer(r: float, n: int = 1) -> np.ndarray:
    """Two-arm squeezing map: correlates the arms, so it never preserves
    block-diagonal covariances (useful as a negative classifier fixture)."""
    eye = np.eye(2 * n)
    zz = np.kron(np.eye(n), np.diag([1.0, -1.0]))
    return np.block([[np.cosh(r) * eye, np.sinh(r) * zz],
                     [np.sinh(r) * zz, np.cosh(r) * eye]])


def random_covariance(n: int, rng: np.random.Generator,
                      scale: float = 0.5) -> np.ndarray:
    """Random valid covariance: vacuum plus a random PSD part, pushed through
    a random local symplectic so all entries are exercised."""
    a = rng.normal(size=(2 * n, 2 * n)) * scale
    base = np.eye(2 * n) + a @ a.T
    s = random_local_symplectic(n, rng)
    return s @ base @ s.T
