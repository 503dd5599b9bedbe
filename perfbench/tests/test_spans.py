import contextlib
import io

import numpy as np
import pytest

import spans
from bosonic_ds import cli, fock, stability


def test_wrappers_nest_and_are_removed():
    original = fock.moments
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert stability.moments is not original and fock.moments is not original
        tracer.case = "fock1"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["witness", "--state", "fock:1", "--theta", "0.5",
                             "--cutoff", "8"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert fock.moments is original and stability.moments is original
    names = [s[1] for s in tracer.spans]
    assert names[0] == "cli.main_self" and tracer.spans[0][4] is None
    assert "stability.nongaussianity_witness_self" in names
    assert "fock.beam_splitter_unitary" in names
    assert all(s[0] == "fock1" for s in tracer.spans)
    totals = tracer.totals()
    root = tracer.spans[0][3] - tracer.spans[0][2]
    self_sum = sum(totals[f"{layer}_s"] for layer in spans.LAYERS)
    assert self_sum == pytest.approx(root, rel=1e-9)
    assert totals["fock.estimate_kappa_s"] == 0.0
    assert totals["fock.estimate_kappa_evals"] == 0


def test_peaks_are_measured_per_span():
    import tracemalloc

    tracer = spans.Tracer()
    inner = tracer.wrap("fock.gaussian_to_fock", lambda: np.ones(2 ** 20).sum())

    def hold_then_call():
        held = np.ones(2 ** 18)   # 2 MiB alive while the inner 8 MiB exists
        return inner() + held[0]

    outer = tracer.wrap("fock.beam_splitter_unitary", hold_then_call)
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    totals = tracer.totals()
    assert totals["fock.gaussian_to_fock_peak_mib"] >= 8.0
    assert totals["fock.beam_splitter_unitary_peak_mib"] >= 10.0
    assert totals["fock.gaussian_to_fock_calls"] == 1
