"""Command-line surface.

Subcommands wire the file formats to the library: `simulate` writes a
ground truth and noisy observations, `fit` completes a matrix from an
observation file, `rank-estimate` runs the spectral rank search,
`experiment` executes a seeded trial grid from a config file, and
`theory` exposes the packing / Rademacher / rate tools as key=value
reports.  Exit codes: 0 success, 1 validation error.
"""

import argparse
import sys

import numpy as np

from .core import ConstraintSet, ValidationError, save_dense
from .harness import fit_scaling_slope, load_config, run_experiment
from .model_select import (PartialMatrix, RankSearchConfig, estimate_rank,
                           save_rank_report)
from .sampling import (NoiseModel, load_distribution, load_observations,
                       make_distribution, observe, sample_indices,
                       save_distribution, save_observations)
from .solver import (DEFAULT_MAX_ITERS, DEFAULT_TAU, DEFAULT_TOL, SolverConfig,
                     default_factor_width, fit_pgd)
from .theory import (PackingConfig, RateParams, format_report,
                     packing_generate, packing_report_items, packing_verify,
                     rademacher_report_items, rademacher_sign_sup,
                     rate_bounds, rate_report_items)
from .harness import make_ground_truth


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a validation error (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _solver_flags(p):
    p.add_argument("--tau", type=float, default=DEFAULT_TAU, help="step size")
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="relative objective-change stop")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxnorm-complete",
                     description="Matrix completion via max-norm constrained least squares.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a ground truth and noisy observations")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0, help="target elementwise max")
    p.add_argument("--truth-seed", type=int, default=0)
    p.add_argument("--dist", default="uniform",
                   help="'uniform' or a distribution file path")
    p.add_argument("--n", type=int, required=True, help="number of observations")
    p.add_argument("--noise", choices=["none", "gaussian", "laplace"], default="none")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="sampling/noise seed")
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-obs", required=True)
    p.add_argument("--out-dist", default=None)

    p = sub.add_parser("fit", help="complete a matrix from an observation file")
    p.add_argument("--obs", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--k", type=int, default=None, help="factor width (default: min(d1,d2,32))")
    _solver_flags(p)
    p.add_argument("--out", required=True, help="completed matrix (dense format)")
    p.add_argument("--trace-out", default=None, help="objective trace, one value per line")

    p = sub.add_parser("rank-estimate", help="spectral rank search on an observation file")
    p.add_argument("--obs", required=True)
    p.add_argument("--alpha0", type=float, default=None,
                   help="elementwise bound (default: max |observed value|)")
    p.add_argument("--r-max", type=int, required=True)
    _solver_flags(p)
    p.add_argument("--out", required=True, help="rank-search report file")

    p = sub.add_parser("experiment", help="run a seeded trial grid from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("theory", help="packing / rademacher / rate reports")
    tsub = p.add_subparsers(dest="tool", required=True)

    tp = tsub.add_parser("packing", help="generate and verify a packing sample")
    tp.add_argument("--d1", type=int, required=True)
    tp.add_argument("--d2", type=int, required=True)
    tp.add_argument("--alpha", type=float, default=1.0)
    tp.add_argument("--gamma", type=float, default=1.0)
    tp.add_argument("--r", type=float, required=True)
    tp.add_argument("--count-cap", type=int, default=100)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--out", default=None)

    tr = tsub.add_parser("rademacher", help="brute-force sign-class complexity")
    tr.add_argument("--d1", type=int, required=True)
    tr.add_argument("--d2", type=int, required=True)
    tr.add_argument("--n", type=int, required=True, help="uniform index draws")
    tr.add_argument("--draws", type=int, default=2000)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", default=None)

    tb = tsub.add_parser("rates", help="closed-form risk-rate calculators")
    tb.add_argument("--alpha", type=float, required=True)
    tb.add_argument("--sigma", type=float, required=True)
    tb.add_argument("--radius", type=float, required=True)
    tb.add_argument("--d1", type=int, required=True)
    tb.add_argument("--d2", type=int, required=True)
    tb.add_argument("--n", type=int, required=True)
    tb.add_argument("--mu", type=float, default=1.0)
    tb.add_argument("--L", type=float, default=1.0)
    tb.add_argument("--out", default=None)

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    M0 = make_ground_truth(args.d1, args.d2, args.rank, args.alpha, args.truth_seed)
    if args.dist == "uniform":
        dist = make_distribution("uniform", args.d1, args.d2)
    else:
        dist = load_distribution(args.dist)
        if (dist.d1, dist.d2) != (args.d1, args.d2):
            raise ValidationError("distribution file shape does not match --d1/--d2")
    idx = sample_indices(dist, args.n, args.seed)
    obs = observe(M0, idx, NoiseModel(kind=args.noise, sigma=args.sigma), args.seed)
    save_dense(args.out_truth, M0)
    save_observations(args.out_obs, obs)
    if args.out_dist:
        save_distribution(args.out_dist, dist)
    return 0


def _solver_config(args, k) -> SolverConfig:
    return SolverConfig(k=k, tau=args.tau, max_iters=args.max_iters, tol=args.tol,
                        seed=args.seed)


def _cmd_fit(args) -> int:
    obs = load_observations(args.obs)
    cfg = _solver_config(args, args.k if args.k is not None
                         else default_factor_width(obs.d1, obs.d2))
    constraints = ConstraintSet(alpha=args.alpha, radius=args.radius)
    result = fit_pgd(obs, constraints, cfg)
    save_dense(args.out, result.completed)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(f"{v:.17g}\n" for v in result.objective_trace)
    return 0


def _cmd_rank_estimate(args) -> int:
    obs = load_observations(args.obs)
    alpha0 = args.alpha0
    if alpha0 is None:
        alpha0 = float(np.abs(obs.values).max())
        if alpha0 <= 0:
            raise ValidationError("cannot infer alpha0 from all-zero observations")
    P = PartialMatrix.from_observations(obs)
    # The search sets the factor width of each candidate itself.
    solver_cfg = _solver_config(args, default_factor_width(obs.d1, obs.d2))
    est = estimate_rank(P, RankSearchConfig(alpha0=alpha0, r_max=args.r_max,
                                            solver=solver_cfg))
    save_rank_report(args.out, est)
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg)
    ok = [r for r in records if r.status == "ok"]
    lines = [("trials", len(records)), ("succeeded", len(ok))]
    distinct_n = {r.n for r in ok}
    if len(distinct_n) >= 3:
        slope = fit_scaling_slope(records)
        lines += [("slope", slope.slope), ("intercept", slope.intercept), ("r2", slope.r2)]
    sys.stdout.write(format_report(lines))
    return 0


def _cmd_theory(args) -> int:
    if args.tool == "packing":
        cfg = PackingConfig(d1=args.d1, d2=args.d2, alpha=args.alpha,
                            gamma=args.gamma, r=args.r, count_cap=args.count_cap)
        mats = packing_generate(cfg, args.seed)
        report = packing_verify(mats, cfg.alpha, cfg.gamma)
        _emit(format_report(packing_report_items(cfg, report)), args.out)
        return 0
    if args.tool == "rademacher":
        dist = make_distribution("uniform", args.d1, args.d2)
        idx = sample_indices(dist, args.n, args.seed)
        rep = rademacher_sign_sup(args.d1, args.d2, idx, args.draws, args.seed)
        _emit(format_report(rademacher_report_items(args.d1, args.d2, rep)), args.out)
        return 0
    params = RateParams(alpha=args.alpha, sigma=args.sigma, R=args.radius,
                        d1=args.d1, d2=args.d2, n=args.n, mu=args.mu, L=args.L)
    _emit(format_report(rate_report_items(params, rate_bounds(params))), args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "rank-estimate": _cmd_rank_estimate,
    "experiment": _cmd_experiment,
    "theory": _cmd_theory,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
