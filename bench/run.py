"""Benchmark of the maxnorm_completion package: one workload per process.

    python3 bench/run.py --workload fit-large-sparse --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from --seed several times (set-up), runs its
user-visible operation repeatedly for --seconds, checks every output and
prints two JSON lines: a record of the environment and every figure, then,
last, {"correct", "attempted", "failed", "metrics"}.  The metrics are the
end-to-end ones with --trace 0.  With --trace 1 the same untraced
measurement runs first, then one traced set-up and a few traced operations;
the metrics are then the per-layer ones.  Everything runs in this one
process with BLAS pinned to one thread.  See README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed at least SETUP_MIN_REPS times, and again while the time it
# has taken stays under SETUP_SHARE of --seconds; setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 50
SETUP_SHARE = 0.2
TRACED_SHARE = 1 / 3  # traced operations run for this share of --seconds
REPLAY_REPS = 5  # calls per kernel when replaying the PGD phases

SETUP, OP = "bench.setup", "bench.op"  # the benchmark's own root spans

END_TO_END = {"setup_s": "s", "wall_s": "s", "mse": "1", "pi_mse": "1",
              "peak_rss_mb": "MB", "iters_used_frac": "1"}

PER_LAYER = {
    "solver.fits": "count", "solver.iterations": "count", "solver.capped_fits": "count",
    "solver.fit_s_p50": "s", "solver.ms_per_iter": "ms", "solver.init_factors_s": "s",
    "solver.loss_and_grad_ms": "ms", "solver.linf_rescale_ms": "ms",
    "solver.project_rows_ms": "ms", "core.product_ms": "ms",
    "sampling.make_distribution_s": "s", "sampling.sample_indices_s": "s",
    "sampling.observe_s": "s", "harness.make_ground_truth_s": "s",
    "sampling.parse_s": "s", "sampling.format_s": "s", "core.format_dense_s": "s",
    "model_select.from_observations_s": "s", "model_select.to_observations_s": "s",
    "model_select.column_mean_init_s": "s", "model_select.spectral_s": "s",
    "model_select.candidates": "count", "model_select.iterations_per_candidate_p50": "count",
    "model_select.estimate_rank_s": "s", "model_select.rank_err": "count",
    "core.pi_weighted_sq_norm_s": "s", "harness.run_trial_s_p50": "s",
    "harness.mse_meanfill": "1", "cli.simulate_s": "s", "cli.rank_estimate_s": "s",
    "sampling.self_s": "s", "core.self_s": "s", "solver.self_s": "s",
    "model_select.self_s": "s", "harness.self_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "1",
}

# Per-layer inclusive times: metric -> span name.  Each is the time per
# cycle: its set-up spans plus its operation spans divided by the operations.
PER_CYCLE_SPANS = {
    "solver.init_factors_s": "solver.init_factors",
    "sampling.make_distribution_s": "sampling.make_distribution",
    "sampling.sample_indices_s": "sampling.sample_indices",
    "sampling.observe_s": "sampling.observe",
    "harness.make_ground_truth_s": "harness.make_ground_truth",
    "sampling.parse_s": "sampling.parse_observations",
    "sampling.format_s": "sampling.format_observations",
    "core.format_dense_s": "core.format_dense",
    "model_select.from_observations_s": "model_select.PartialMatrix.from_observations",
    "model_select.to_observations_s": "model_select.PartialMatrix.to_observations",
    "model_select.column_mean_init_s": "model_select.column_mean_init",
    "model_select.spectral_s": "model_select.spectral_magnitude",
    "model_select.estimate_rank_s": "model_select.estimate_rank",
    "core.pi_weighted_sq_norm_s": "core.pi_weighted_sq_norm",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["fit-large-sparse", "grid-skewed-dense", "rank-search-cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement length")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="problem size; tiny is for the smoke test")
    p.add_argument("--out", default=None, help="also write the full record to this JSON file")
    return p.parse_args(argv)


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _bits(x: float) -> str:
    return float(x).hex()


class Run:
    """What one set-up/operation phase measured."""

    def __init__(self):
        self.setup_s, self.op_s, self.outcomes = [], [], []
        self.setup_attempted = self.setup_failed = 0
        self.inputs = self.raw = None


def run_phase(wl, setup_budget: float, op_seconds: float, tracer=None) -> Run:
    """Time repeated set-ups, then the operation until `op_seconds` have passed.

    Traced: one set-up and the operations under the benchmark's root spans.
    """
    run = Run()
    start = time.perf_counter()

    def more_setups():
        reps = len(run.setup_s)
        if tracer:
            return reps < 1
        return reps < SETUP_MIN_REPS or (time.perf_counter() - start < setup_budget
                                         and reps < SETUP_MAX_REPS)

    while more_setups():
        run.inputs = None  # free the previous inputs before building new ones
        with tracer.span(SETUP) if tracer else nullcontext():
            t0 = time.perf_counter()
            run.inputs = wl.setup()
            run.setup_s.append(time.perf_counter() - t0)
        attempted, failed = wl.check_setup(run.inputs)
        run.setup_attempted += attempted
        run.setup_failed += failed
    start = time.perf_counter()
    while not run.op_s or time.perf_counter() - start < op_seconds:
        run.raw = None  # free the previous result before the next solve
        with tracer.span(OP) if tracer else nullcontext():
            t0 = time.perf_counter()
            run.raw = wl.operate(run.inputs)
            run.op_s.append(time.perf_counter() - t0)
        run.outcomes.append(wl.check(run.inputs, run.raw))
    return run


def replay_kernels(solver, last_fit) -> dict:
    """p50 ms per call of the public PGD kernels on the last fitted factors."""
    obs, constraints, result = last_fit
    F = result.factorization
    kernels = {
        "solver.loss_and_grad_ms": lambda: solver.empirical_loss_and_grad(F, obs),
        "solver.linf_rescale_ms": lambda: solver.linf_rescale(F, constraints.alpha),
        "solver.project_rows_ms": lambda: solver.project_factor_rows(F.U, constraints.radius),
        "core.product_ms": F.product,
    }
    out = {}
    for name, call in kernels.items():
        times = []
        for _ in range(REPLAY_REPS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = 1000.0 * statistics.median(times)
    return out


def layer_metrics(spans, n_ops: int, cap: int) -> dict:
    spans = [s for s in spans if s.root in (SETUP, OP)]

    def per_cycle(keep, attr="duration") -> float:
        """Time per cycle: the set-up's spans plus the operations' spans over their count."""
        setup = sum(getattr(s, attr) for s in spans if s.root == SETUP and keep(s))
        op = sum(getattr(s, attr) for s in spans if s.root == OP and keep(s))
        return float(setup + op / n_ops)

    fits = [s for s in spans if s.name == "solver.fit_pgd"]
    iterations = sum(s.iterations for s in fits)
    candidates = [s for s in spans if s.name == "solver.fit" and s.parent is not None
                  and s.parent.name == "model_select.estimate_rank"]
    m = {metric: per_cycle(lambda s, name=name: s.name == name)
         for metric, name in PER_CYCLE_SPANS.items()}
    m.update({f"{layer}.self_s": per_cycle(lambda s, layer=layer: s.layer == layer, "self_s")
              for layer in tracing.LAYERS})
    m.update({
        "solver.fits": len(fits) / n_ops,
        "solver.iterations": iterations / n_ops,
        "solver.capped_fits": sum(s.iterations >= cap for s in fits) / n_ops,
        "solver.fit_s_p50": _p50(s.duration for s in fits),
        "solver.ms_per_iter": 1000.0 * sum(s.duration for s in fits) / iterations
        if iterations else 0.0,
        "model_select.candidates": len(candidates) / n_ops,
        "model_select.iterations_per_candidate_p50": _p50(s.iterations for s in candidates),
        "harness.run_trial_s_p50": _p50(s.duration for s in spans
                                        if s.name == "harness.run_trial"),
        "cli.simulate_s": per_cycle(lambda s: s.name == "cli.main" and s.root == SETUP),
        "cli.rank_estimate_s": per_cycle(lambda s: s.name == "cli.main" and s.root == OP),
    })
    return m


def git_commit() -> str:
    """The checkout's commit, read from .git when there is one (never outside ROOT)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, seed: int, scale: str, workload_types) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "scale": scale,
        "iteration_caps": {name: w.SIZES[scale]["cap"] for name, w in workload_types.items()},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})  # before numpy loads
    if not (SRC / "maxnorm_completion" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import maxnorm_completion
    from maxnorm_completion import solver
    if Path(maxnorm_completion.__file__).resolve().parent != (SRC / "maxnorm_completion").resolve():
        print(f"error: imported {maxnorm_completion.__file__}, not the source under {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    layer_modules = [getattr(maxnorm_completion, name) for name in tracing.LAYERS]
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.scale, args.seed, workdir)
        run = run_phase(wl, SETUP_SHARE * args.seconds, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes = run.outcomes
        attempted = run.setup_attempted + sum(o.attempted for o in outcomes)
        failed = run.setup_failed + sum(o.failed for o in outcomes)
        # Determinism: every operation on the same inputs gives the same MSE, bit for bit.
        failed += sum(_bits(o.mse) != _bits(outcomes[0].mse) for o in outcomes)
        fits = sum(o.fits for o in outcomes)
        end_to_end = {
            "setup_s": statistics.median(run.setup_s),
            "wall_s": statistics.median(run.op_s),
            "mse": outcomes[0].mse,
            "pi_mse": outcomes[0].pi_mse,
            "peak_rss_mb": peak_rss_mb,
            "iters_used_frac": sum(o.iterations for o in outcomes) / (fits * wl.cap),
        }
        references = wl.references(run.inputs, run.raw)
        run.inputs = run.raw = None

        per_layer = spans = None
        if args.trace:
            with tracing.Tracer(solver.SolveResult) as tracer:
                tracer.install(layer_modules)
                traced = run_phase(wl, 0.0, TRACED_SHARE * args.seconds, tracer)
            attempted += traced.setup_attempted + sum(o.attempted for o in traced.outcomes)
            failed += traced.setup_failed + sum(o.failed for o in traced.outcomes)
            failed += sum(_bits(o.mse) != _bits(outcomes[0].mse) for o in traced.outcomes)
            per_layer = layer_metrics(tracer.spans, len(traced.op_s), wl.cap)
            per_layer.update(replay_kernels(solver, tracer.last_fit))
            per_layer["harness.mse_meanfill"] = references["harness.mse_meanfill"]
            per_layer["model_select.rank_err"] = traced.outcomes[0].rank_err or 0
            per_layer["trace.overhead_frac"] = (statistics.median(traced.op_s)
                                                / end_to_end["wall_s"] - 1.0)
            spans = [s.as_dict() for s in tracer.spans]

    failed = min(failed, attempted)
    record = {
        "workload": args.workload,
        "why": wl.why,
        "env": environment(np, args.seed, args.scale, workloads.WORKLOADS),
        "samples": {"setup_s": run.setup_s, "wall_s": run.op_s},
        "end_to_end": end_to_end,
        "references": references,
        "capped_frac": sum(o.capped for o in outcomes) / fits,
        "failed_frac": failed / attempted,
        "rank_err": outcomes[0].rank_err,
        "per_layer": per_layer,
    }
    chosen, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    result = {"correct": failed == 0 and all(map(math.isfinite, chosen.values())),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": chosen[k], "unit": u} for k, u in units.items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**record, "result": result, "spans": spans}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
