"""Reference values for Fock-diagonal inputs, computed apart from bosonic_ds.

The splitter output is built by substituting creation operators on each
mode pair (arm-1 mode l with arm-2 mode l):

    a1+ -> cos(t) a1+ + sin(t) a2+,    a2+ -> -sin(t) a1+ + cos(t) a2+

and expanding (a1+)^m (a2+)^k |0,0> / sqrt(m! k!) binomially.  Only input
pairs whose photon sector m + k lies below the cutoff on every mode pair are
kept; their combined weight is reported as ``cut`` (mass in sectors the
cutoff cuts).  Epsilon of phase-invariant inputs does not depend on the sign
convention of the splitter, because any two conventions differ by a local
phase rotation that commutes with Fock-diagonal inputs.

Moments use the truncated ladder a = sum sqrt(m) |m-1><m| on levels
0..D-1, as a truncated simulation sees them: <a a+ + a+ a> on level m is
2m + 1 below the top level and D - 1 on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def pair_amplitudes(m: int, k: int, theta: float, cutoff: int) -> np.ndarray:
    """Amplitudes over (j1, j2) of the splitter image of |m, k>.

    Requires m + k < cutoff, so that the whole photon sector fits.
    """
    n = m + k
    if n >= cutoff:
        raise ValueError(f"sector {n} does not fit below cutoff {cutoff}")
    c, s = math.cos(theta), math.sin(theta)
    coef = np.zeros(n + 1)
    for a in range(m + 1):
        for b in range(k + 1):
            coef[a + b] += (math.comb(m, a) * c ** a * s ** (m - a)
                            * math.comb(k, b) * (-s) ** b * c ** (k - b))
    out = np.zeros((cutoff, cutoff))
    log_in = math.lgamma(m + 1) + math.lgamma(k + 1)
    for j in range(n + 1):
        norm = math.exp(0.5 * (math.lgamma(j + 1) + math.lgamma(n - j + 1) - log_in))
        out[j, n - j] = coef[j] * norm
    return out


@dataclass(frozen=True)
class PairOutput:
    rho: np.ndarray      # output density over (arm-1 modes, arm-2 modes)
    cut: float           # input mass in photon sectors the cutoff cuts
    modes_per_arm: int
    cutoff: int


def splitter_output(p1: np.ndarray, p2: np.ndarray, theta: float) -> PairOutput:
    """Output of diag(p1) (x) diag(p2) through the splitter.

    p1 and p2 are populations of shape (D,) * n, one axis per mode of the arm.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("both arms need the same shape")
    n, d = p1.ndim, p1.shape[0]
    dim = d ** (2 * n)
    rho = np.zeros((dim, dim))
    cut = 0.0
    order = [2 * l for l in range(n)] + [2 * l + 1 for l in range(n)]
    for m in zip(*np.nonzero(p1)):
        for k in zip(*np.nonzero(p2)):
            w = p1[m] * p2[k]
            if any(ml + kl >= d for ml, kl in zip(m, k)):
                cut += w
                continue
            psi = pair_amplitudes(m[0], k[0], theta, d)
            for l in range(1, n):
                psi = np.multiply.outer(psi, pair_amplitudes(m[l], k[l], theta, d))
            psi = psi.transpose(order).ravel()
            rho += w * np.outer(psi, psi)
    return PairOutput(rho, cut, n, d)


def reductions(out: PairOutput) -> tuple:
    side = out.cutoff ** out.modes_per_arm
    r = out.rho.reshape(side, side, side, side)
    return np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)


def epsilon(out: PairOutput) -> float:
    """Trace norm of rho_ab - rho_a (x) rho_b, from a Hermitian eigensolve."""
    rho_a, rho_b = reductions(out)
    g = out.rho - np.kron(rho_a, rho_b)
    return float(np.sum(np.abs(np.linalg.eigvalsh(g))))


def mode_marginals(pops: np.ndarray) -> list:
    """Per-mode level populations of a population array of shape (D,) * n."""
    pops = np.asarray(pops, dtype=float)
    axes = range(pops.ndim)
    return [pops.sum(axis=tuple(a for a in axes if a != l)) for l in axes]


def _number_weights(cutoff: int) -> np.ndarray:
    """<m| a a+ + a+ a |m> for the truncated ladder."""
    return np.append(np.arange(1.0, cutoff), 0.0) + np.arange(float(cutoff))


def gamma_diag(pops: np.ndarray) -> np.ndarray:
    """Covariance (anticommutator convention) of a Fock-diagonal state.

    The state is centred and has no Q-P correlation, so Gamma is diagonal
    with Gamma_QQ = Gamma_PP = <a a+ + a+ a> on each mode.
    """
    out = []
    for marg in mode_marginals(pops):
        g = float(marg @ _number_weights(marg.size))
        out += [g, g]
    return np.diag(out)


def output_populations(out: PairOutput) -> np.ndarray:
    return np.diag(out.rho).reshape((out.cutoff,) * (2 * out.modes_per_arm))


def trace_gamma(pops: np.ndarray) -> float:
    return float(np.trace(gamma_diag(pops)))


def max_axis_fourth_moment(pops: np.ndarray) -> float:
    """Largest Tr[rho R_k^4] over quadrature axes for a state whose one-mode
    marginals are Fock-diagonal (Q and P axes then agree)."""
    d = pops.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    q = (a + a.T) / math.sqrt(2.0)
    q4 = np.diag(np.linalg.matrix_power(q, 4))
    return max(float(marg @ q4) for marg in mode_marginals(pops))


def thermal_populations(nbar: float, cutoff: int) -> np.ndarray:
    """Geometric populations on levels 0..cutoff-1, renormalized."""
    if nbar <= 0:
        out = np.zeros(cutoff)
        out[0] = 1.0
        return out
    pops = (nbar / (1.0 + nbar)) ** np.arange(cutoff)
    return pops / pops.sum()


def thermal_distance(pops: np.ndarray) -> float:
    """Hilbert-Schmidt distance of diag(pops) from the product of truncated
    thermal states with the same per-mode covariance (mean photon number
    (Gamma_QQ - 1) / 2)."""
    gam = np.diag(gamma_diag(pops))[::2]
    ref = np.ones(())
    for g in gam:
        ref = np.multiply.outer(ref, thermal_populations((g - 1.0) / 2.0, pops.shape[0]))
    return float(np.linalg.norm(np.asarray(pops) - ref))


@dataclass(frozen=True)
class DsRunReference:
    epsilon: float
    cut: float
    gamma1: np.ndarray
    gamma2: np.ndarray
    cm_gap: float
    trace_gamma_out: float
    v_norm: float
    dist_hs_1: float
    dist_hs_2: float
    kappa_floor: float


def ds_run_reference(p1: np.ndarray, p2: np.ndarray, theta: float) -> DsRunReference:
    """Every ds-run report field the oracle can predict for Fock-diagonal
    inputs; ``v_norm`` follows from (Gamma_1 - Gamma_2) = (2 / cos^2 t) V."""
    out = splitter_output(p1, p2, theta)
    g1, g2 = gamma_diag(p1), gamma_diag(p2)
    cm_gap = float(np.linalg.norm(g1 - g2))
    pops_out = output_populations(out)
    return DsRunReference(
        epsilon=epsilon(out), cut=out.cut, gamma1=g1, gamma2=g2, cm_gap=cm_gap,
        trace_gamma_out=trace_gamma(pops_out),
        v_norm=0.5 * math.cos(theta) ** 2 * cm_gap,
        dist_hs_1=thermal_distance(p1), dist_hs_2=thermal_distance(p2),
        kappa_floor=max_axis_fourth_moment(pops_out))


def fock_populations(levels, cutoff: int) -> np.ndarray:
    levels = tuple(levels)
    out = np.zeros((cutoff,) * len(levels))
    out[levels] = 1.0
    return out
