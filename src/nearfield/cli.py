"""Command-line interface: estimate, sweep, crlb, codebook, validate.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime anomaly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import harness
from .arraymodel import STEERING_DTYPE, STEERING_ENTRY_ERROR
from .bounds import crlb_diag, fim
from .codebook import angle_grid
from .harness import Scenario, ScenarioError, load_scenario

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_RUNTIME = 0, 1, 2, 3


def _int_at_least(least: int):
    """An argparse type: a decimal integer >= least."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {least}, got {text!r}")
        return int(text)
    return parse


def _snr_grid(text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",")]
        if all(math.isfinite(v) for v in grid):
            return grid
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be comma-separated finite numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfield",
        description="Near-field joint channel estimation and cooperative "
                    "localization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="scenario JSON path")
        if seed:
            p.add_argument("--seed", type=_int_at_least(0), default=None,
                           help="override the scenario seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    common(sub.add_parser("estimate", help="one scenario, one draw, full "
                                           "joint result as JSON"))
    sweep = common(sub.add_parser("sweep", help="Monte Carlo SNR sweep to CSV"))
    sweep.add_argument("--trials", type=_int_at_least(1), default=200)
    sweep.add_argument("--snr-db", type=_snr_grid, default="0,10,20,30",
                       help="comma-separated SNR grid in dB")
    sweep.add_argument("--threads", type=_int_at_least(1), default=1,
                       help="worker processes (default 1)")
    common(sub.add_parser("crlb", help="CRLB table for the scenario's LoS "
                                       "geometry to CSV"))
    common(sub.add_parser("codebook", help="dump the codebook as CSV"), seed=False)
    common(sub.add_parser("validate", help="run invariant checks on a scenario"))
    return parser


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load(args) -> Scenario:
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


def _cmd_estimate(args) -> int:
    scenario = _load(args)
    result_rows, result = harness.run_trial(scenario, None, 0, 0,
                                            return_joint=True)
    payload = {
        "fusion": result.step2.to_dict(),
        "anchored": result.anchored,
        "per_bs": [{
            "nmse_db_step1": row["nmse_db"],
            "nmse_db_step3": (None if math.isnan(row["step3_nmse_db"])
                              else row["step3_nmse_db"]),
            "paths": [{"theta": e.params.theta, "r": e.params.r,
                       "g": e.params.g, "phi": e.params.phi,
                       "cov": [float(v) for v in e.cov.ravel()]}
                      for e in result.step1[i]],
            "paths_step3": (None if result.step3[i] is None else
                            [{"theta": p.theta, "r": p.r, "g": p.g, "phi": p.phi}
                             for p in result.step3[i]]),
        } for i, row in enumerate(result_rows)],
        "metrics": [{k: _jsonable(v) for k, v in row.items()
                     if not k.startswith("_")} for row in result_rows],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _jsonable(v):
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return None
    return v


def _cmd_sweep(args) -> int:
    result = harness.sweep(_load(args), args.snr_db, args.trials, threads=args.threads)
    _emit(result.to_csv(), args.out)
    return EXIT_OK


def _cmd_crlb(args) -> int:
    scenario = _load(args)
    per_bs_paths = harness.draw_paths(scenario, scenario.trial_rng(0, 0))
    lines = ["bs,path,param,crlb,sqrt_crlb"]
    names = ["theta", "r", "g", "phi"]
    for i, paths in enumerate(per_bs_paths):
        F = fim(scenario.array, paths, scenario.sigma2)
        try:
            variances = crlb_diag(F)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"bs{i}: {exc}") from None
        for l in range(len(paths)):
            for j, name in enumerate(names):
                v = variances[4 * l + j]
                lines.append(f"{i},{l},{name},{v:.12g},{math.sqrt(max(v, 0)):.12g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_codebook(args) -> int:
    scenario = load_scenario(args.config)
    cb = scenario.codebook
    lines = ["n_theta,n_r,cos_theta,theta_rad,r_m"]
    grid_order = np.lexsort((cb.n_r, cb.n_theta))  # angle by angle
    for n_theta, n_r, cos_t, theta, r in zip(
            *(a[grid_order].tolist() for a in (cb.n_theta, cb.n_r, cb.cos_theta,
                                               cb.theta, cb.r))):
        lines.append(f"{n_theta},{n_r},{cos_t:.12g},{theta:.12g},{r:.12g}")
    _emit("\n".join(lines) + "\n", args.out)
    n_angles = len(angle_grid(scenario.array, cb.config.delta_alpha))
    stored = len(cb) - cb.num_twins
    mib = scenario.array.num_antennas * stored * STEERING_DTYPE.itemsize / 2**20
    sys.stderr.write(f"codebook: {len(cb)} codewords over {n_angles} angles, "
                     f"{stored} stored steering columns ({mib:.1f} MiB)\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load(args)
    arr = scenario.array
    checks: list[tuple[str, bool]] = []

    cb = scenario.codebook
    checks.append(("codebook non-empty", len(cb) > 0))
    checks.append(("codewords in near-field annulus",
                   bool(np.all((arr.min_near_distance < cb.r)
                               & (cb.r <= arr.rayleigh_distance)))))
    B = cb.steering_matrix
    checks.append(("steering entries unit modulus",
                   bool(np.allclose(np.abs(B), 1.0, rtol=0,
                                    atol=STEERING_ENTRY_ERROR))))
    # Noiseless single-draw pipeline sanity.
    noiseless = dataclasses.replace(scenario, sigma2=0.0)
    rows = harness.run_trial(noiseless, None, 0, 0)
    checks.append(("noiseless NMSE <= -40 dB",
                   all(r["nmse_db"] <= -40.0 for r in rows)))
    checks.append(("noiseless fused error < 1e-3 m",
                   all(r["fused_rmse_m"] < 1e-3 for r in rows)))

    _emit("".join(f"{'PASS' if passed else 'FAIL'}  {name}\n"
                  for name, passed in checks), args.out)
    return EXIT_OK if all(passed for _, passed in checks) else EXIT_RUNTIME


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = {  # argparse admits only these commands
        "estimate": _cmd_estimate,
        "sweep": _cmd_sweep,
        "crlb": _cmd_crlb,
        "codebook": _cmd_codebook,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, ScenarioError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"runtime error: {exc}\n")
        return EXIT_RUNTIME


def main() -> None:  # console entry point
    sys.exit(cli())


if __name__ == "__main__":
    main()
