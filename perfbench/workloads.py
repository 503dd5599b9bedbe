"""Seeded case lists for the three workloads.

A case is one `bosonic-ds` invocation.  The program receives only the spec
strings and configs built here; the populations are kept for the oracle.
Each workload has a fixed list of case templates (cutoff, modes, input
families); the seed draws the angles and the state parameters.  The ranges
keep every matrix and synthesis grid the same size whatever the seed: the
program sizes its Gaussian synthesis grid from the smallest covariance
eigenvalue in steps, so each input's Gamma_QQ stays inside one step
(squeezed:0.28-0.30 gives 201 points per axis, displaced states and Gamma = 1
give 117).

Input families keep the two input covariances at least 0.2 apart: a clean
ds-run whose covariances agree to about 1e-8 trips the program's covariance
identity check and exits 2 (see the FOUND line on `_enforce_invariants`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import oracle

NAMES = ("dsrun-1mode", "dsrun-2mode", "witness-sweep")

# Angles stay this far from multiples of pi/2.
THETA_MIN, THETA_MAX = 0.3, 1.27
WARMUP_THETA = 0.2


@dataclass(frozen=True)
class State:
    spec: object              # what the program parses
    pops: np.ndarray | None   # Fock populations, None for Gaussian specs
    family: str               # fock | thermal | mixture | gaussian


@dataclass(frozen=True)
class Case:
    name: str
    command: str              # ds-run | witness
    cutoff: int
    modes: int
    theta: float
    state1: State
    state2: State | None = None

    def config(self) -> dict:
        return {"state1": self.state1.spec, "state2": self.state2.spec,
                "theta": self.theta, "cutoff": self.cutoff, "seed": 0,
                "modes_per_arm": self.modes}


def thermal(nbar: float, cutoff: int) -> State:
    return State(f"thermal:{nbar!r}", oracle.thermal_populations(nbar, cutoff),
                 "thermal")


def fock(level: int, cutoff: int) -> State:
    return State(f"fock:{level}", oracle.fock_populations((level,), cutoff), "fock")


def mixture(components, modes: int, cutoff: int) -> State:
    """components: [(weight, levels), ...] with one level per mode."""
    pops = np.zeros((cutoff,) * modes)
    spec = []
    for weight, levels in components:
        pops[tuple(levels)] += weight
        name = "vacuum" if not any(levels) else "fock:" + ",".join(map(str, levels))
        spec.append({"weight": weight, "state": name})
    return State({"kind": "mixture", "components": spec}, pops / pops.sum(),
                 "mixture")


def gaussian(spec: str) -> State:
    return State(spec, None, "gaussian")


def _angle(rng: random.Random) -> float:
    return round(rng.uniform(THETA_MIN, THETA_MAX), 6)


def _vac_fock(weight: float, level: int, modes: int, cutoff: int) -> State:
    zero = (0,) * modes
    excited = (level,) + (0,) * (modes - 1)
    return mixture([(weight, zero), (1.0 - weight, excited)], modes, cutoff)


def _dsrun_1mode(rng: random.Random) -> list:
    u = lambda lo, hi: round(rng.uniform(lo, hi), 4)   # noqa: E731
    specs = [   # Gamma_QQ of each input in the comment
        (12, thermal(u(0.08, 0.13), 12),               # 1.16-1.26
         thermal(u(0.24, 0.30), 12)),                  # 1.48-1.60
        (14, _vac_fock(u(0.86, 0.92), 1, 1, 14),       # 1.16-1.28
         thermal(u(0.24, 0.34), 14)),                  # 1.48-1.68
        (16, _vac_fock(u(0.86, 0.92), 1, 1, 16),       # 1.16-1.28
         _vac_fock(u(0.79, 0.83), 3, 1, 16)),          # 2.02-2.26
        (18, thermal(u(0.36, 0.46), 18),               # 1.72-1.92
         _vac_fock(u(0.89, 0.92), 2, 1, 18)),          # 1.32-1.44
    ]
    return [Case(f"c{c}-{s1.family}-{s2.family}", "ds-run", c, 1, _angle(rng), s1, s2)
            for c, s1, s2 in specs]


def _dsrun_2mode(rng: random.Random) -> list:
    # At most two photons meet on a mode pair, so every photon sector fits
    # below cutoff 4 and the oracle is exact.  A Gaussified input cannot fit
    # in 4 levels, so these cases carry synthesis truncation flags and the
    # program skips its own invariant check; the benchmark checks margins.
    u = lambda lo, hi: round(rng.uniform(lo, hi), 4)   # noqa: E731
    w, v = u(0.67, 0.75), u(0.55, 0.63)
    a = [mixture([(w, (0, 0)), (1.0 - w, (1, 0))], 2, 4),       # 1.50-1.66, 1
         mixture([(v, (0, 0)), (1.0 - v, (0, 1))], 2, 4)]       # 1, 1.74-1.90
    w, v = u(0.86, 0.92), u(0.34, 0.50)
    b = [mixture([(w, (0, 0)), (1.0 - w, (1, 1))], 2, 4),       # 1.16-1.28 twice
         mixture([(v, (0, 0)), ((1.0 - v) / 2, (1, 0)),
                  ((1.0 - v) / 2, (0, 1))], 2, 4)]              # 1.50-1.66 twice
    return [Case(f"c4-2mode-{tag}", "ds-run", 4, 2, _angle(rng), s1, s2)
            for tag, (s1, s2) in (("a", a), ("b", b))]


def _witness(rng: random.Random) -> list:
    q, p = rng.uniform(0.3, 1.0), rng.uniform(-1.0, -0.3)
    specs = [
        (24, fock(rng.randint(1, 3), 24)),
        (26, thermal(round(rng.uniform(0.3, 1.0), 4), 26)),
        (28, gaussian(f"displaced:{q:.4f},{p:.4f}")),
        (30, fock(rng.randint(2, 4), 30)),
        (32, gaussian(f"squeezed:{rng.uniform(0.28, 0.30):.4f}")),
    ]
    return [Case(f"c{c}-{s.spec.partition(':')[0]}", "witness", c, 1, _angle(rng), s)
            for c, s in specs]


_CASE_LISTS = {"dsrun-1mode": _dsrun_1mode, "dsrun-2mode": _dsrun_2mode,
             "witness-sweep": _witness}


def cases(workload: str, seed: int) -> list:
    """The workload's fixed case list, with parameters drawn from ``seed``."""
    return _CASE_LISTS[workload](random.Random(f"{workload}:{seed}"))


def warmup(workload: str) -> Case:
    """A call on a size and angle no case of the workload uses."""
    if workload == "dsrun-1mode":
        return Case("warmup", "ds-run", 8, 1, WARMUP_THETA,
                    thermal(0.05, 8), _vac_fock(0.8, 1, 1, 8))
    if workload == "dsrun-2mode":
        return Case("warmup", "ds-run", 3, 2, WARMUP_THETA,
                    _vac_fock(0.9, 1, 2, 3), mixture([(1.0, (0, 0))], 2, 3))
    return Case("warmup", "witness", 12, 1, WARMUP_THETA, gaussian("squeezed:0.1"))
