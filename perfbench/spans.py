"""Spans around the program's public functions, kept in memory.

Modules import functions by name, so a function is wrapped in every module
namespace that holds it (``stability.moments`` and ``fock.moments`` are the
same function called from two places).  Each span records its case, layer,
start, end, parent and, when tracemalloc runs, the peak traced allocation
inside it.  A layer's self time is its spans' durations minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# (module that defines the function, function name, layer)
TRACED = (
    ("cli", "main", "cli.main_self"),
    ("stability", "run_experiment", "stability.run_experiment_self"),
    ("stability", "nongaussianity_witness", "stability.nongaussianity_witness_self"),
    ("states", "parse_state_spec", "states.parse_state_spec"),
    ("io", "write_json", "io.write_json"),
    ("fock", "estimate_kappa", "fock.estimate_kappa"),
    ("fock", "moments", "fock.moments"),
    ("fock", "beam_splitter_unitary", "fock.beam_splitter_unitary"),
    ("fock", "gaussian_to_fock", "fock.gaussian_to_fock"),
    ("fock", "tensor", "fock.evolve"),
    ("fock", "evolve", "fock.evolve"),
    ("fock", "partial_trace", "fock.partial_trace"),
    ("fock", "trace_norm", "fock.trace_norm"),
    ("fock", "gaussify", "fock.gaussify"),
    ("fock", "validate_density", "fock.checks"),
    ("fock", "leak_population", "fock.checks"),
)
MODULES = ("cli", "states", "stability", "fock", "io")
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))
PEAK_LAYERS = ("fock.estimate_kappa", "fock.beam_splitter_unitary",
               "fock.gaussian_to_fock")
MIB = 1024.0 * 1024.0


def metric_names() -> list:
    """Every per-layer metric, in the order they are reported."""
    names = [f"{layer}_s" for layer in LAYERS]
    names += ["fock.estimate_kappa_evals", "fock.gaussian_to_fock_calls"]
    names += [f"{layer}_peak_mib" for layer in PEAK_LAYERS]
    return names


class Tracer:
    """Records spans while installed; ``case`` tags the spans that follow."""

    def __init__(self):
        self.spans = []      # [case, layer, start, end, parent, peak_bytes, evals]
        self.case = None
        self._stack = []     # (span index, traced bytes at entry, peak so far)
        self._saved = []

    def _enter(self, layer: str) -> int:
        parent = self._stack[-1][0] if self._stack else None
        current = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                idx, base, top = self._stack[-1]
                self._stack[-1] = (idx, base, max(top, peak))
            tracemalloc.reset_peak()
        self.spans.append([self.case, layer, time.perf_counter(), None, parent, 0, 0])
        self._stack.append((len(self.spans) - 1, current, current))
        return len(self.spans) - 1

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        _, base, top = self._stack.pop()
        span = self.spans[idx]
        span[3] = end
        if tracemalloc.is_tracing():
            top = max(top, tracemalloc.get_traced_memory()[1])
            span[5] = top - base
            if self._stack:
                pidx, pbase, ptop = self._stack[-1]
                self._stack[-1] = (pidx, pbase, max(ptop, top))
            tracemalloc.reset_peak()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if layer == "fock.estimate_kappa":
                self.spans[idx][6] = int(result[2])
            return result
        return traced

    def install(self) -> None:
        """Replace each traced function in every module namespace holding it."""
        mods = {name: importlib.import_module(f"bosonic_ds.{name}") for name in MODULES}
        for home, fname, layer in TRACED:
            original = getattr(mods[home], fname, None)
            if original is None:
                continue
            wrapper = self.wrap(layer, original)
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def totals(self, first: int = 0) -> dict:
        """Per-layer metrics over spans[first:]: self times and counts are
        summed, peaks are the largest single span."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[4] is not None and span[4] >= first:
                child_time[span[4] - first] += span[3] - span[2]
        out = {name: 0.0 for name in metric_names()}
        out["fock.estimate_kappa_evals"] = 0
        out["fock.gaussian_to_fock_calls"] = 0
        for span, children in zip(spans, child_time):
            layer = span[1]
            out[f"{layer}_s"] += (span[3] - span[2]) - children
            if layer in PEAK_LAYERS:
                key = f"{layer}_peak_mib"
                out[key] = max(out[key], span[5] / MIB)
            if layer == "fock.estimate_kappa":
                out["fock.estimate_kappa_evals"] += span[6]
            if layer == "fock.gaussian_to_fock":
                out["fock.gaussian_to_fock_calls"] += 1
        return out
