import numpy as np
import pytest

from bosonic_ds.fock import FockOperator, FockSpace
from bosonic_ds.states import fock_state, thermal_state, vacuum


@pytest.fixture(scope="session")
def space14():
    return FockSpace(1, 14)


@pytest.fixture(scope="session")
def pair14():
    return FockSpace(2, 14)


@pytest.fixture(scope="session")
def fixture_states(space14):
    """The five reference states used by the grid-level consistency checks."""
    from bosonic_ds.states import squeezed_surrogate

    return {
        "vacuum": vacuum(space14),
        "fock1": fock_state(space14, 1),
        "fock2": fock_state(space14, 2),
        "thermal05": thermal_state(space14, 0.5),
        "squeezed025": squeezed_surrogate(space14, 0.25),
    }


def random_low_energy_density(rng, space, top=4):
    """Random density supported on the lowest ``top + 1`` levels."""
    from bosonic_ds.fock import density

    block = top + 1
    a = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    m = a @ a.conj().T
    m /= np.trace(m).real
    full = np.zeros((space.dim, space.dim), dtype=complex)
    full[:block, :block] = m
    return density(space, full)


def output_density(out):
    """The dense rho_ab = W diag(p) W* of a ``pair_output``, built from its
    factor (W, p) on the pair space."""
    w, p = out.factor
    arm = out.rho_a.space
    return FockOperator(FockSpace(2 * arm.n_modes, arm.cutoff), (w * p) @ w.conj().T)


def axis_fourth_moments(rho):
    """Tr[rho R_k^4] for every axis k, from the dense quadratures."""
    from bosonic_ds.fock import quadratures

    return np.array([np.trace(rho.matrix @ np.linalg.matrix_power(q.matrix, 4)).real
                     for q in quadratures(rho.space)])


def benchmark_pairs(monkeypatch, workload, seed):
    """The input pairs and angles of a ``perfbench`` ds-run workload."""
    from pathlib import Path

    from bosonic_ds.states import parse_state_spec

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for case in workloads.cases(workload, seed):
        space = FockSpace(case.modes, case.cutoff)
        yield (parse_state_spec(case.state1.spec, space),
               parse_state_spec(case.state2.spec, space), case.theta)
