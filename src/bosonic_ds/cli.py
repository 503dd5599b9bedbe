"""Batch command-line front end.

Subcommands: ds-run, constants, classify, witness, selftest.  Exit codes:
0 success, 1 configuration or I/O error, 2 a guaranteed bound margin failed.
All sampling paths require a seed; identical config and seed produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import reprlib
import sys
import time
from pathlib import Path

from .errors import (BoundViolationError, CalibrationError, DecompositionError,
                     TrivialSplitterError, UncertaintyViolationError,
                     ValidationError)


_COMMANDS = ("ds-run", "constants", "classify", "witness", "selftest")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only
    that subcommand's parser is built, under the full parser's usage line;
    otherwise every subcommand's is."""
    parser = argparse.ArgumentParser(
        prog="bosonic-ds",
        description="Beam-splitter experiments on truncated Fock spaces: "
                    "factorization residuals, Gaussification distances, "
                    "stability constants and symplectic classification.",
    )
    one = command in _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if one else None)

    def wanted(name):
        return not one or name == command

    if wanted("ds-run"):
        run = sub.add_parser("ds-run", help="run one stability experiment")
        run.add_argument("--config", required=True, help="experiment config JSON")
        run.add_argument("--theta", type=float, help="override config theta (radians)")
        run.add_argument("--cutoff", type=int, help="override per-mode cutoff")
        run.add_argument("--seed", type=int, help="override sampling seed")
        run.add_argument("--out", help="report path (default: config 'out' or stdout)")

    if wanted("constants"):
        con = sub.add_parser("constants", help="sweep the stability constants")
        con.add_argument("--theta-min", type=float, required=True)
        con.add_argument("--theta-max", type=float, required=True)
        con.add_argument("--steps", type=int, required=True)
        con.add_argument("--modes", type=int, default=1)
        con.add_argument("--kappa", type=float, default=1.0)
        con.add_argument("--out", help="output path (default stdout)")
        con.add_argument("--format", choices=("csv", "json"), default="csv")

    if wanted("classify"):
        cls = sub.add_parser("classify", help="classify a symplectic matrix")
        cls.add_argument("--matrix", required=True, help="JSON file: array of rows")
        cls.add_argument("--seed", type=int, default=0)
        cls.add_argument("--out", help="result path (default stdout)")

    if wanted("witness"):
        wit = sub.add_parser("witness", help="non-Gaussianity witness for one state")
        wit.add_argument("--state", required=True,
                         help='state spec, e.g. vacuum, fock:1, thermal:0.5')
        wit.add_argument("--theta", type=float, required=True)
        wit.add_argument("--cutoff", type=int, default=14)
        wit.add_argument("--witness-tol", type=float, default=1e-3,
                         help="epsilon below which the state counts as Gaussian "
                              "(keep above the truncation floor of the cutoff)")

    if wanted("selftest"):
        sub.add_parser("selftest", help="run the reduced invariant suite")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    commands = {"ds-run": _cmd_ds_run, "constants": _cmd_constants,
                "classify": _cmd_classify, "witness": _cmd_witness,
                "selftest": _cmd_selftest}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        return 1
    except TrivialSplitterError as exc:
        return _fail(f"trivial splitter: {exc}")
    except (ValueError, OSError, UncertaintyViolationError,
            DecompositionError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:   # the chains name the pair dim in the message
        return _fail(f"{args.command}: out of memory"
                     + (f": {exc}" if str(exc) else ""))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------


def _config_object(data) -> dict:
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _integer(key: str, value) -> int:
    """``value`` as an int; a fractional or non-finite number, or what
    ``json_integer`` refuses, names ``key`` instead of being truncated."""
    from .io import json_integer

    try:
        return json_integer(value)
    except ValueError:
        raise ValidationError(
            f"{key} must be an integer, got {reprlib.repr(value)}") from None


def _number(key: str, value) -> float:
    """``value`` as a float; what ``json_number`` refuses names ``key``."""
    from .io import json_number

    try:
        return float(json_number(value))
    except ValueError:
        raise ValidationError(
            f"{key} must be a number, got {reprlib.repr(value)}") from None


_CONFIG_KEYS = ("state1", "state2", "theta", "cutoff", "seed", "modes_per_arm",
                "tolerances", "out")
# The tolerances that the ds-run chain reads; the others serve only classify
# and the phase-space tools, so setting one here would change nothing.
_RUN_TOLERANCES = ("uncertainty", "gamma_symmetry", "density_hermiticity",
                   "density_trace", "density_psd", "leak_budget",
                   "convention_rel", "convention_abs")


def _run_inputs(args, cfg: dict) -> tuple:
    """(rho1, rho2, theta, seed, tol, echo) from the config and its overrides;
    a missing or unknown key or a mistyped value is a ValidationError."""
    from dataclasses import fields

    from .config import Tolerances
    from .fock import FockSpace
    from .stability import _check_pair_fits
    from .states import parse_state_spec

    for name in cfg:
        if name not in _CONFIG_KEYS:
            raise ValidationError(f"unknown config key {name!r}")
    try:
        theta = _number("theta", args.theta if args.theta is not None else cfg["theta"])
        cutoff = _integer("cutoff", args.cutoff if args.cutoff is not None
                          else cfg["cutoff"])
        seed = _integer("seed", args.seed if args.seed is not None else cfg["seed"])
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        modes = _integer("modes_per_arm", cfg.get("modes_per_arm", 1))
        out = cfg.get("out")
        if out is not None and not isinstance(out, str):
            raise ValidationError(f"out must be a path string, got {reprlib.repr(out)}")
        tolerances = cfg.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ValidationError("tolerances must be a JSON object")
        known = {f.name for f in fields(Tolerances)}
        for name in tolerances:
            if name not in known:
                raise ValidationError(f"unknown tolerance {name!r}")
            if name not in _RUN_TOLERANCES:
                raise ValidationError(f"tolerance {name!r} is not read by ds-run")
        tol = Tolerances(**tolerances)
        space = FockSpace(modes, cutoff)
        _check_pair_fits(FockSpace(2 * modes, cutoff))   # before any input is built
        space_from = ("--cutoff" if args.cutoff is not None
                      else "config key 'cutoff'") + " and config key 'modes_per_arm'"
        rho1 = parse_state_spec(cfg["state1"], space, tol, space_from=space_from)
        rho2 = parse_state_spec(cfg["state2"], space, tol, space_from=space_from)
    except KeyError as exc:
        raise ValidationError(f"config is missing {exc}") from exc
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    echo = {"theta": theta, "cutoff": cutoff, "seed": seed,
            "modes_per_arm": modes,
            "state1": cfg["state1"], "state2": cfg["state2"],
            "tolerances": cfg.get("tolerances", {})}
    return rho1, rho2, theta, seed, tol, echo


def _cmd_ds_run(args) -> int:
    from .io import canonical_dumps, read_json, write_json
    from .stability import run_experiment, _enforce_invariants

    cfg = read_json("config", args.config, _config_object)
    rho1, rho2, theta, seed, tol, echo = _run_inputs(args, cfg)
    report = run_experiment(rho1, rho2, theta, seed=seed, tol=tol,
                            strict=False, config_echo=echo)

    payload = report.to_dict()
    diagnostic = None
    try:
        _enforce_invariants(report, tol)
    except (BoundViolationError, CalibrationError) as exc:
        diagnostic = payload["invariant_failure"] = str(exc)
    out = args.out or cfg.get("out")
    if out:
        write_json(payload, out)
    else:
        sys.stdout.write(canonical_dumps(payload))
    if diagnostic:
        print(f"invariant failure: {diagnostic}", file=sys.stderr)
        return 2
    return 0


def _cmd_constants(args) -> int:
    from .io import csv_text, canonical_dumps
    from .stability import (C1_QUOTED_50_50, c1_direct_50_50, constants_sweep)

    rows = constants_sweep(args.theta_min, args.theta_max, args.steps,
                           args.modes, args.kappa)

    if args.format == "csv":
        header = ["theta", "curve", "c1", "c2_shape", "c3"]
        text = csv_text(header, ([r[k] for k in header] for r in rows))
    else:
        text = canonical_dumps({
            "rows": rows,
            "notes": {
                "c1_prefactor_direct_50_50": c1_direct_50_50(),
                "c1_prefactor_quoted_50_50": C1_QUOTED_50_50,
            },
        })
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"note: 50-50 one-mode c1 prefactor: direct {c1_direct_50_50():.6g} "
          f"vs quoted {C1_QUOTED_50_50} (~10% apart, reported side by side)",
          file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    from .classify import decompose
    from .io import canonical_dumps, load_matrix, write_json

    if args.seed < 0:   # decompose draws from the seed for some matrices only
        raise ValidationError(f"seed must be non-negative, got {args.seed}")
    result = decompose(load_matrix(args.matrix), seed=args.seed)
    payload = result.to_dict()
    if args.out:
        write_json(payload, args.out)
    else:
        sys.stdout.write(canonical_dumps(payload))
    return 0


def _cmd_witness(args) -> int:
    from .fock import FockSpace, truncation_flags
    from .states import parse_state_spec
    from .stability import _check_pair_fits, nongaussianity_witness

    if not (math.isfinite(args.witness_tol) and args.witness_tol >= 0):
        raise ValidationError(
            f"--witness-tol must be finite and >= 0, got {args.witness_tol}")
    _check_pair_fits(FockSpace(2, args.cutoff))   # before the input is built
    rho = parse_state_spec(args.state, FockSpace(1, args.cutoff),
                           space_from="--cutoff (a witness state has one mode)")
    eps = nongaussianity_witness(rho, args.theta)
    verdict = "gaussian" if eps <= args.witness_tol else "non-gaussian"
    print(f"{verdict} (epsilon={eps:.6e})")
    for flag in truncation_flags(rho, "input"):
        print(f"warning: {flag}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def _cmd_selftest(args) -> int:
    import numpy as np

    from . import classify, phase_space, stability, states, symplectic
    from .config import GridSpec
    from .fock import FockSpace, gaussian_to_fock, moments, weyl_operator
    from .symplectic import GaussianState

    t_start = time.time()
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"[ ok ] {name}")
        except Exception as exc:   # noqa: BLE001 - report and keep going
            failures.append(name)
            print(f"[FAIL] {name}: {exc}")

    def symplectic_basics():
        sigma = symplectic.symplectic_form(3)
        assert np.allclose(sigma @ sigma, -np.eye(6))
        assert symplectic.is_symplectic(symplectic.beam_splitter(0.3, 2), 1e-12)

    def weyl_relation():
        from .fock import certified_levels

        space = FockSpace(1, 16)
        k = certified_levels(space)
        xi = np.array([0.4, -0.2])
        eta = np.array([-0.3, 0.5])
        w1 = weyl_operator(space, xi).matrix
        w2 = weyl_operator(space, eta).matrix
        sigma = symplectic.symplectic_form(1)
        phase = np.exp(-0.5j * xi @ sigma @ eta)
        w12 = weyl_operator(space, xi + eta).matrix
        assert np.max(np.abs((w1 @ w2 - phase * w12)[:k, :k])) < 1e-5

    def two_photon_interference():
        space = FockSpace(1, 6)
        eps = stability.nongaussianity_witness(states.fock_state(space, 1),
                                               np.pi / 4)
        assert abs(eps - 1.5) < 1e-8

    def vacuum_is_fixed_point():
        space = FockSpace(1, 10)
        eps = stability.nongaussianity_witness(states.vacuum(space), np.pi / 4)
        assert eps < 1e-10

    def fock1_moments():
        space = FockSpace(1, 10)
        gs = moments(states.fock_state(space, 1))
        assert np.allclose(gs.gamma, 3 * np.eye(2), atol=1e-10)

    def synthesis_round_trip():
        space = FockSpace(1, 12)
        rho = gaussian_to_fock(GaussianState(np.zeros(2), np.eye(2)), space)
        assert abs(rho.matrix[0, 0].real - 1.0) < 1e-6

    def parseval_orthogonal():
        space = FockSpace(1, 12)
        g1 = phase_space.char_grid(states.vacuum(space), 6.0, 65)
        g2 = phase_space.char_grid(states.fock_state(space, 1), 6.0, 65)
        assert abs(phase_space.parseval_distance(g1, g2) - 2.0) < 1e-3

    def positivity_fixtures():
        space = FockSpace(1, 12)
        rep = phase_space.sigma_positivity_test(states.vacuum(space), seed=7,
                                                n_sets=40)
        assert rep.passed
        bad = GaussianState(np.zeros(2), np.eye(2) / 4)
        rep = phase_space.sigma_positivity_test(
            phase_space.char_callable(bad), n_modes=1, seed=7,
            search=True, max_trials=1000)
        assert rep.min_eigenvalue < -0.01

    def classifier_round_trip():
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = symplectic.random_local_symplectic(1, rng)
            y = symplectic.random_local_symplectic(1, rng)
            alpha = rng.uniform(-5, 5)
            res = classify.decompose(classify.build_canonical(x, y, alpha))
            assert abs(res.alpha - alpha) < 1e-8

    def derivative_moment_extraction():
        space = FockSpace(1, 12)
        d, gamma = phase_space.derivative_moments(states.vacuum(space))
        assert np.max(np.abs(d)) < 1e-6 and np.max(np.abs(gamma - np.eye(2))) < 1e-5

    def residual_vanishes_for_gaussians():
        space = FockSpace(1, 12)
        rho = gaussian_to_fock(GaussianState(np.zeros(2), 1.3 * np.eye(2)), space)
        res = phase_space.ds_residual(rho, rho, np.pi / 4,
                                      GridSpec(extent=2.0, points=7))
        assert res.max_abs < 1e-6

    def golden_fixture_integrity():
        from .fock import validate_density

        expected_gamma = {"vacuum": 1.0, "fock1": 3.0, "fock2": 5.0,
                          "fock3": 7.0, "thermal_nbar05": 2.0}
        for name, diag in expected_gamma.items():
            rho = validate_density(states.load_golden(name))
            gs = moments(rho)
            assert np.max(np.abs(gs.gamma - diag * np.eye(2))) < 1e-3, name
        validate_density(states.load_golden("squeezed_z025"))

    check("symplectic form and beam splitter", symplectic_basics)
    check("golden fixture integrity", golden_fixture_integrity)
    check("composition law of displacement unitaries", weyl_relation)
    check("two-photon interference epsilon", two_photon_interference)
    check("vacuum fixed point", vacuum_is_fixed_point)
    check("fock-1 covariance", fock1_moments)
    check("gaussian synthesis round trip", synthesis_round_trip)
    check("quadrature isometry", parseval_orthogonal)
    check("twisted-kernel positivity", positivity_fixtures)
    check("classifier round trip", classifier_round_trip)
    check("derivative moment extraction", derivative_moment_extraction)
    check("factorization residual on gaussian input", residual_vanishes_for_gaussians)

    elapsed = time.time() - t_start
    if failures:
        print(f"selftest: {len(failures)} failure(s) in {elapsed:.1f}s: "
              + ", ".join(failures))
        return 1
    print(f"selftest: all checks passed in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
