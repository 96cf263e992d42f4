"""Command-line front end.

Three subcommands: analyze (closed-form pipeline to JSON + covariance
curve CSV), simulate (sample path CSV + metadata), verify (consistency
suite, table + JSON report). Exit codes: 0 success, 1 verification
failures, 2 configuration or model errors. All outputs are deterministic
for a fixed config and seed; no timestamps are written anywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import covariance, markov, model, simulate
from .errors import CarkovError

_SEED_ENV = "CARKOV_SEED"


def _resolve_seed(value: int | None) -> int:
    """--seed, else $CARKOV_SEED, else 0; CarkovError naming the source of
    anything but an integer >= 0."""
    name, raw = "--seed", value
    if value is None:
        name, raw = f"${_SEED_ENV}", os.environ.get(_SEED_ENV) or "0"
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise CarkovError(f"{name} must be an integer >= 0, got {raw!r}")
    return seed


def _error_json(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 2


def _dump_json(payload: dict | list, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    from . import validate  # on first use: carkov simulate does not need it

    if args.tmax is not None and not 0.0 < args.tmax < math.inf:
        raise CarkovError(f"--tmax must be finite and positive, got {args.tmax}")
    if args.points < 1:
        raise CarkovError(f"--points must be at least 1, got {args.points}")
    spec = model.load_model(args.model)
    cov, system, law = markov.build(spec)

    eig = np.sort_complex(np.linalg.eigvals(system.companion))
    expected = np.sort_complex(np.array([1j * z for z in spec.roots]))
    eig_err = float(np.abs(eig - expected).max())
    a_from_moments, drift_gap = validate.moment_drift(system)

    payload = {
        "model": model.to_config(spec),
        "k": spec.k,
        "covariance": covariance.cov_to_config(cov),
        "moments": {
            "even": [float(v) for v in system.moments.even_moments],
            "top_plus": float(system.moments.top_plus),
        },
        "ito": markov.ito_to_config(system, law)
        | {"b_squared": float(system.diffusion**2)},
        "eigen_check": {
            "companion_eigenvalues": [[z.real, z.imag] for z in eig],
            "expected_i_times_roots": [[z.real, z.imag] for z in expected],
            "max_abs_error": eig_err,
        },
        "drift_vs_char_poly": {
            "a_from_moments": [float(x) for x in a_from_moments],
            "max_abs_difference": drift_gap,
        },
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(payload, out_dir / "analysis.json")

    tmax = args.tmax if args.tmax is not None else 5.0 * cov.tau
    grid = np.linspace(0.0, tmax, args.points)
    curve = np.column_stack([grid, covariance.eval_r(cov, 0, grid)])
    np.savetxt(
        out_dir / "covariance_curve.csv",
        curve,
        delimiter=",",
        header="t,r",
        comments="",
        fmt="%.17g",
    )

    print(
        f"k = {spec.k}: a = {[round(float(x), 10) for x in system.drift]}, "
        f"b^2 = {system.diffusion**2:.10g}, wrote {out_dir / 'analysis.json'}"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    spec = model.load_model(args.model)
    seed = _resolve_seed(args.seed)
    if not 0.0 < args.dt < math.inf:
        raise CarkovError(f"--dt must be finite and positive, got {args.dt}")
    if args.steps <= 0:
        raise CarkovError(f"--steps must be positive, got {args.steps}")
    if (args.steps > sys.float_info.max
            or not math.isfinite(args.dt * args.steps)):
        raise CarkovError(f"the grid's end --dt x --steps = {args.dt} x "
                          f"{args.steps} must be finite")

    # the exact and Euler paths go to path.csv one scan chunk at a time,
    # the spectral path as one chunk
    if args.method == "spectral":
        times = args.dt * np.arange(args.steps + 1)
        chunks = [simulate.sample_spectral(spec, times, seed).values.T]
    else:
        chunks = simulate.stream_path(*markov.assemble(spec), args.method,
                                      args.dt, args.steps, seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    simulate.write_csv(chunks, out_dir / "path.csv", args.dt)
    meta = {"method": args.method, "dt": args.dt, "seed": seed,
            "model": model.to_config(spec)}
    _dump_json(meta, out_dir / "path_meta.json")
    print(
        f"{args.method}: {args.steps + 1} points x {spec.k + 1} rows at "
        f"dt = {args.dt}, seed = {seed}, wrote {out_dir / 'path.csv'}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    from . import validate

    spec = model.load_model(args.model)
    seed = _resolve_seed(args.seed)
    reports = validate.run_suite(
        spec, budget=args.budget, seed=seed, perturb_coef=args.perturb
    )

    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  statistic {r.statistic: .3e}  "
              f"threshold {r.threshold: .3e}")
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed")

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump_json([asdict(r) for r in reports], out_dir / "verify_report.json")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carkov",
        description=(
            "Construct, analyze, simulate and cross-verify stationary "
            "Gaussian processes whose derivative stack is a vector Markov "
            "diffusion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form pipeline to JSON + CSV")
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--tmax", type=float, default=None,
                   help="covariance curve horizon (default 5 correlation times)")
    p.add_argument("--points", type=int, default=501,
                   help="covariance curve sample count")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="write a sample path CSV + metadata")
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--method", required=True,
                   choices=("exact", "euler", "spectral"))
    p.add_argument("--dt", type=float, default=0.01, help="grid spacing")
    p.add_argument("--steps", type=int, default=1000, help="number of steps")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default ${_SEED_ENV} or 0)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--budget", default="fast", choices=("fast", "full"))
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default ${_SEED_ENV} or 0)")
    p.add_argument("--out", default=None, help="directory for the JSON report")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="negative control: scale one covariance coefficient "
                        "by (1 + eps); nonzero values must make the suite fail")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CarkovError, OSError, json.JSONDecodeError, ValueError) as exc:
        return _error_json(exc)


if __name__ == "__main__":
    sys.exit(main())
