"""Classification of symplectic maps that keep two-arm covariances uncorrelated.

The for-all-covariances condition is discharged exactly through the
symmetric-subspace projector: with S split into 2n x 2n blocks A, B, C, D,

    S (Gamma (+) Gamma) S^T block-diagonal for every symmetric Gamma
        <=>  (A (x) C + B (x) D) P_plus = 0,

a finite linear identity, read entry by entry from the blocks in O(d^4)
time, d = 2n, without forming P_plus or a Kronecker product.  Random
covariance sampling only produces a human-readable witness when it fails.

Admissible maps decompose as S = diag(X, Y) (1 + a^2)^(-1/2)
[[I, -aI], [aI, I]] with X, Y symplectic; a = -Tr(A^{-1} B) / 2n.  With
this sign convention the two-arm block rotation at angle t has a = tan t
and X = Y = I.  The swap family is the a -> +-infinity limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DecompositionError, DimensionError, ValidationError
from .symplectic import random_covariance, symplectic_defect


def split_blocks(s: np.ndarray) -> tuple:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 4:
        raise DimensionError(f"need a 4n x 4n matrix, got {s.shape}")
    half = s.shape[0] // 2
    return (s[:half, :half], s[:half, half:],
            s[half:, :half], s[half:, half:])


def symmetric_projector(dim: int) -> np.ndarray:
    """Projector onto the symmetric subspace of R^dim (x) R^dim; reference
    API for the tests, never formed by the predicates below."""
    eye = np.eye(dim * dim)
    swap = eye.reshape((dim,) * 4).transpose(0, 1, 3, 2).reshape(eye.shape)
    return (eye + swap) / 2.0


def _symplectic_blocks(s: np.ndarray, tol: Tolerances) -> tuple:
    """S's blocks (A, B, C, D); a ValidationError unless S is symplectic."""
    blocks, defect = split_blocks(s), symplectic_defect(s)
    if not defect <= tol.symplectic:
        raise ValidationError(f"matrix is not symplectic (defect {defect:.3e})")
    return blocks


def _residual(pairs) -> float:
    """max |(sum of X (x) Y over the block pairs) P+|: entry ((k, l), (i, j))
    is T_klij/2 + T_klji/2, T_klij = sum X_ki Y_lj, the sum the product with
    P+ forms (exact halves off its diagonal, 1 on it), one row k at a time."""
    halves = (sum(x[k][None, :, None] * y[:, None, :] for x, y in pairs) / 2
              for k in range(len(pairs[0][0])))
    return float(np.max([np.max(np.abs(h + h.transpose(0, 2, 1)))
                         for h in halves]))


def preserves_identical(s: np.ndarray,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """(verdict, residual) for the identical-input condition
    (A x C + B x D) P+ = 0."""
    a, b, c, d = _symplectic_blocks(s, tol)
    residual = _residual([(a, c), (b, d)])
    return residual <= 10 * tol.symplectic, residual


def preserves_arbitrary(s: np.ndarray,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True when the two summands vanish separately, i.e. the map keeps
    arbitrary (not just identical) input pairs uncorrelated."""
    a, b, c, d = _symplectic_blocks(s, tol)
    return max(_residual([(a, c)]), _residual([(b, d)])) <= 10 * tol.symplectic


def find_witness(s: np.ndarray, seed: int = 0, trials: int = 64) -> tuple:
    """Covariance Gamma for which S (Gamma (+) Gamma) S^T has the largest
    off-diagonal block, as a counterexample certificate."""
    rng = np.random.default_rng(seed)
    n2 = s.shape[0] // 2
    best, best_gamma = -np.inf, None
    for _ in range(trials):
        gamma = random_covariance(n2 // 2, rng)
        big = np.zeros((2 * n2, 2 * n2))
        big[:n2, :n2] = big[n2:, n2:] = gamma
        out = s @ big @ s.T
        off = float(np.max(np.abs(out[:n2, n2:])))
        if off > best:
            best, best_gamma = off, gamma
    return best_gamma, best


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str                      # local | swap | beam_splitter_like | not_preserving
    blocks: tuple | None              # (X, Y) symplectic factors when applicable
    alpha: float                      # 0 for local, +-inf for swap
    residual: float                   # defining-equation residual
    reconstruction_residual: float | None = None
    witness_gamma: np.ndarray | None = None
    witness_offdiag: float | None = None

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "alpha": None if math.isinf(self.alpha) else self.alpha,
            "alpha_infinite": math.isinf(self.alpha),
            "residual": self.residual,
            "reconstruction_residual": self.reconstruction_residual,
        }
        if self.blocks is not None:
            out["X"] = self.blocks[0].tolist()
            out["Y"] = self.blocks[1].tolist()
        if self.witness_gamma is not None:
            out["witness_gamma"] = self.witness_gamma.tolist()
            out["witness_offdiag"] = self.witness_offdiag
        return out


def build_canonical(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """S from the canonical factors; the inverse of ``decompose``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if math.isinf(alpha):
        return np.block([[np.zeros_like(x), x], [y, np.zeros_like(y)]])
    scale = 1.0 / math.sqrt(1.0 + alpha * alpha)
    return scale * np.block([[x, -alpha * x], [alpha * y, y]])


def decompose(s: np.ndarray, seed: int = 0,
              tol: Tolerances = DEFAULT_TOLERANCES) -> ClassificationResult:
    """Classify S and, when admissible, extract (X, Y, alpha).

    An admissible S has B = -alpha A, so the larger of A and B, compared by
    their largest entries (a norm overflows on entries near 1e300), is the
    well-conditioned one to solve with: A when |alpha| <= 1, local maps
    (B = 0) included, and B otherwise, swaps (A = 0) included.
    """
    s = np.asarray(s, dtype=float)
    ok, residual = preserves_identical(s, tol)
    if not ok:
        gamma, off = find_witness(s, seed=seed)
        return ClassificationResult("not_preserving", None, math.nan, residual,
                                    witness_gamma=gamma, witness_offdiag=off)

    a, b, c, d = split_blocks(s)
    n2 = a.shape[0]
    if np.max(np.abs(b)) > np.max(np.abs(a)):
        gamma_par = float(-np.trace(np.linalg.solve(b, a)) / n2)
        if abs(gamma_par) < 1.0 / tol.alpha_swap:
            return _finalize(s, b.copy(), c.copy(), math.inf, residual, tol)
        alpha = 1.0 / gamma_par
        root = math.sqrt(1.0 + gamma_par * gamma_par)
        sign = math.copysign(1.0, gamma_par)
        x, y = -sign * root * b, sign * root * c
    else:
        alpha = float(-np.trace(np.linalg.solve(a, b)) / n2)
        root = math.sqrt(1.0 + alpha * alpha)
        x, y = root * a, root * d
    return _finalize(s, x, y, alpha, residual, tol)


def _finalize(s, x, y, alpha, residual, tol) -> ClassificationResult:
    for name, block in (("X", x), ("Y", y)):
        defect = symplectic_defect(block)
        if defect > 1e3 * tol.symplectic:
            raise DecompositionError(
                f"factor {name} is not symplectic (defect {defect:.3e}, "
                f"cond(A) = {np.linalg.cond(split_blocks(s)[0]):.3e})")
    rec = build_canonical(x, y, alpha)
    rec_res = float(np.max(np.abs(rec - s)))
    if rec_res > tol.residual * max(1.0, float(np.max(np.abs(s)))):
        raise DecompositionError(
            f"reconstruction residual {rec_res:.3e} exceeds tolerance; "
            f"cond(A) = {np.linalg.cond(split_blocks(s)[0]):.3e}")
    if math.isinf(alpha):
        verdict = "swap"
    elif abs(alpha) <= 1e-10:
        verdict, alpha = "local", 0.0
    else:
        verdict = "beam_splitter_like"
    return ClassificationResult(verdict, (x, y), alpha, residual, rec_res)
