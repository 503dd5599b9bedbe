"""Named state fixtures and the text/JSON spec format the CLI accepts.

Spec strings: "vacuum", "fock:2" (aliases fock1..fock3), "thermal:0.5",
"squeezed:0.3", "displaced:1,0", or a JSON object with a "kind" key
(gaussian, mixture, file).
"""

from __future__ import annotations

import reprlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError
from .fock import FockOperator, FockSpace, gaussian_to_fock, validate_density
from .io import canonical_dumps, json_array, json_integer, json_number, read_json
from .symplectic import GaussianState


def vacuum(space: FockSpace) -> FockOperator:
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 0] = 1.0
    return FockOperator(space, m)


def fock_state(space: FockSpace, levels) -> FockOperator:
    """Projector onto a number basis state; levels is an int (one mode)
    or a tuple with one entry per mode."""
    if isinstance(levels, (int, np.integer)):
        levels = (int(levels),)
    if len(levels) != space.n_modes:
        raise ValidationError(f"need {space.n_modes} level entries, got {levels}")
    if any(l < 0 or l >= space.cutoff for l in levels):
        raise ValidationError(f"levels {levels} outside cutoff {space.cutoff}")
    idx = 0
    for l in levels:
        idx = idx * space.cutoff + l
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[idx, idx] = 1.0
    return FockOperator(space, m)


def thermal_state(space: FockSpace, nbar: float) -> FockOperator:
    """Geometric-population thermal state, renormalized on the truncation."""
    if space.n_modes != 1:
        raise ValidationError("thermal fixture is single mode")
    if not (np.isfinite(nbar) and nbar >= 0):
        raise ValidationError(
            f"thermal density needs a finite mean occupation >= 0, got {nbar}")
    if nbar == 0:
        return vacuum(space)
    m = np.arange(space.cutoff)
    pops = (nbar / (1.0 + nbar)) ** m / (1.0 + nbar)
    pops = pops / pops.sum()
    return FockOperator(space, np.diag(pops.astype(complex)))


def mixture(components) -> FockOperator:
    """Convex combination [(weight, FockOperator), ...]; weights renormalized,
    flags kept from the components of positive weight only."""
    if not components:
        raise ValidationError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights < 0):
        raise ValidationError("mixture weights must be nonnegative")
    with np.errstate(over="ignore"):   # an overflowing sum is refused below
        total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValidationError(f"mixture weights must have a positive finite sum, "
                              f"got {total}")
    weights = weights / total
    space = components[0][1].space
    m = np.zeros((space.dim, space.dim), dtype=complex)
    flags = ()
    for w, op in zip(weights, (op for _, op in components)):
        if op.space != space:
            raise ValidationError("mixture components live on different spaces")
        m += w * op.matrix
        flags += op.flags if w > 0 else ()
    return FockOperator(space, m, tuple(dict.fromkeys(flags)))


def squeezed_surrogate(space: FockSpace, z: float,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    """Gaussian state with covariance diag(e^{2z}, e^{-2z}), synthesized."""
    if not abs(2.0 * z) < np.log(np.finfo(float).max):   # NaN fails too
        raise ValidationError(f"squeezing z must keep e^(2|z|) finite, got {z}")
    gs = GaussianState(np.zeros(2), np.diag([np.exp(2 * z), np.exp(-2 * z)]))
    return gaussian_to_fock(gs, space, tol)


def displaced_vacuum(space: FockSpace, d,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    gs = GaussianState(np.asarray(d, dtype=float), np.eye(2 * space.n_modes))
    return gaussian_to_fock(gs, space, tol)


_ALIASES = {"fock1": "fock:1", "fock2": "fock:2", "fock3": "fock:3"}


@contextmanager
def _named(where: str):
    """Re-raise a TypeError or ValueError (ValidationError included) as a
    ValidationError that names ``where``, the spec or its key."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _spec_number(where: str, value, kind):
    """``kind(value)``, one argument of a state spec; a malformed one names
    ``where``."""
    with _named(where):
        return kind(value)


def _spec_key(spec: dict, key: str):
    """``spec[key]`` of a JSON state spec; a missing key is named."""
    if key not in spec:
        raise ValidationError(f"{spec['kind']} spec is missing key {key!r}")
    return spec[key]


def parse_state_spec(spec, space: FockSpace,
                     tol: Tolerances = DEFAULT_TOLERANCES, *,
                     space_from: str | None = None) -> FockOperator:
    """Build a density operator from a CLI state spec (string or JSON object);
    ``space_from`` names the option or config keys that set ``space``, for a
    density file on another space."""
    if isinstance(spec, str):
        spec = _ALIASES.get(spec, spec)
        where = f"state spec {spec!r}"
        head, _, arg = spec.partition(":")
        if head == "vacuum":
            return vacuum(space)
        if head == "fock":
            levels = tuple(_spec_number(where, x, int) for x in arg.split(",")) \
                if arg else (1,)
            with _named(where):
                return fock_state(space, levels if len(levels) > 1 else levels[0])
        if head in ("thermal", "squeezed") and space.n_modes != 1:
            raise ValidationError(f"{where}: a one-mode state, the space has "
                                  f"{space.n_modes} modes")
        if head == "thermal":
            return thermal_state(space, _spec_number(where, arg, float))
        if head == "squeezed":
            return squeezed_surrogate(space, _spec_number(where, arg, float), tol)
        if head == "displaced":
            d = np.array([_spec_number(where, x, float) for x in arg.split(",")])
            if d.size != 2 * space.n_modes:
                raise ValidationError(f"{where}: needs {2 * space.n_modes} "
                                      f"components (q, p per mode), got {d.size}")
            return displaced_vacuum(space, d, tol)
        if head == "file":
            return load_density(arg, expected_space=space, tol=tol,
                                space_from=space_from)
        raise ValidationError(f"unknown state spec {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "gaussian":
            d, gamma = (_spec_number(f"gaussian spec key {key!r}",
                                     _spec_key(spec, key), json_array)
                        for key in ("d", "gamma"))
            with _named("gaussian spec keys 'd' and 'gamma'"):
                gs = GaussianState(d, gamma)
                if gs.n != space.n_modes:
                    raise ValidationError(f"{gs.n} modes, the space has "
                                          f"{space.n_modes}")
            return gaussian_to_fock(gs, space, tol)
        if kind == "mixture":
            components = spec.get("components")
            if not (isinstance(components, list) and all(
                    isinstance(c, dict) and {"weight", "state"} <= c.keys()
                    for c in components)):
                raise ValidationError(
                    "mixture spec key 'components' must be a list of objects "
                    f"with 'weight' and 'state', got {components!r}")
            comps = [(_spec_number("mixture spec key 'weight'", c["weight"],
                                   json_number),
                      parse_state_spec(c["state"], space, tol,
                                       space_from=space_from))
                     for c in components]
            return mixture(comps)
        if kind == "file":
            return load_density(_spec_key(spec, "path"), expected_space=space,
                                tol=tol, space_from=space_from)
        raise ValidationError(f"unknown state spec kind {kind!r}")
    raise ValidationError(f"state spec must be a string or object, got {type(spec)}")


# ---------------------------------------------------------------------------
# Density-matrix files: JSON {n, cutoff, real, imag}


def density_to_dict(op: FockOperator) -> dict:
    return {
        "n": op.space.n_modes,
        "cutoff": op.space.cutoff,
        "real": op.matrix.real.tolist(),
        "imag": op.matrix.imag.tolist(),
    }


def density_from_dict(data: dict, tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    return validate_density(_density_operator(data), tol)


def _density_operator(data) -> FockOperator:
    """The operator a density file's JSON describes, not yet validated; a
    missing or malformed key is named."""
    if not isinstance(data, dict):
        raise ValidationError("must be a JSON object with keys 'n', 'cutoff', "
                              "'real' and 'imag'")
    fields = {}
    for key, read in (("n", json_integer), ("cutoff", json_integer),
                      ("real", json_array), ("imag", json_array)):
        if key not in data:
            raise ValidationError(f"missing key {key!r}")
        with _named(f"key {key!r}"):
            fields[key] = read(data[key])
    with _named("keys 'real' and 'imag'"):
        m = fields["real"] + 1j * fields["imag"]
    for key, least in (("n", 1), ("cutoff", 2)):
        if fields[key] < least:
            raise ValidationError(f"key {key!r}: must be at least {least}, got "
                                  f"{reprlib.repr(fields[key])}")
    space = FockSpace(fields["n"], fields["cutoff"])
    # cutoff >= 2, so cutoff^n rows need n <= log2(rows); checked before
    # FockOperator forms cutoff^n exactly, which at n = 10^9 outlasts 15 s
    if space.n_modes > max(m.shape, default=0).bit_length():
        raise ValidationError(f"key 'n': {reprlib.repr(space.n_modes)} modes at "
                              f"cutoff {reprlib.repr(space.cutoff)} cannot fit a "
                              f"matrix of shape {m.shape}")
    return FockOperator(space, m)


def save_density(op: FockOperator, path) -> None:
    Path(path).write_text(canonical_dumps(density_to_dict(op)))


def load_density(path, expected_space: FockSpace | None = None,
                 tol: Tolerances = DEFAULT_TOLERANCES, *,
                 space_from: str | None = None) -> FockOperator:
    """The validated density in ``path``; with ``expected_space``, one on
    that space, which ``space_from`` (an option or config keys) set."""
    op = validate_density(read_json("density file", path, _density_operator), tol)
    if expected_space is not None and op.space != expected_space:
        source = f" set by {space_from}" if space_from else ""
        raise ValidationError(f"density file {path} holds {op.space}, not the "
                              f"expected {expected_space}{source}")
    return op


def golden_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def load_golden(name: str, tol: Tolerances = DEFAULT_TOLERANCES) -> FockOperator:
    """Load one of the shipped golden states (vacuum, fock1..fock3,
    thermal_nbar05, squeezed_z025)."""
    path = golden_dir() / f"{name}.json"
    if not path.exists():
        available = sorted(p.stem for p in golden_dir().glob("*.json"))
        raise ValidationError(f"no golden state {name!r}; available: {available}")
    return load_density(path, tol=tol)
