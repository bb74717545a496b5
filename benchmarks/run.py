"""Benchmark entry point: end-to-end and per-layer metrics for trish.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-envelope --seed 0 --seconds 12 --trace 0

Each run starts ``WORKERS`` fresh worker processes one after another
(never concurrently), so set-up time and peak memory belong to the
workload alone, and set-up is measured once per worker.  Every worker
gets an equal share of ``--seconds`` for its timed passes.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it give the
machine record and every metric, ``failed_frac`` included, by name with
its unit.  Exit code 0 means the run finished (the result says whether
it was correct), 1 that a worker failed, 2 that no trish source tree
was found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("verify-envelope", "tune-logistic", "run-trace", "run-exact")
WORKERS = 3
DEADLINE_S = 170.0  # the whole run must end within 180 s
SUITES = ("pl-fixed", "pl-merging", "pl-sublinear", "geometric", "nonconvex-fixed")


def run_worker(args, index: int, workdir: Path, deadline: float) -> dict:
    here = Path(__file__).resolve().parent
    cmd = [sys.executable, str(here / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
           "--trace", str(args.trace), "--workdir", str(workdir), "--index", str(index)]
    env = {k: v for k, v in os.environ.items() if k != "TRISH_OUTPUT_DIR"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {index} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "error" in result:
        raise RuntimeError(f"worker {index} raised:\n{result['error']}")
    return result


def _rates(workers: list[dict], key: str) -> list[float]:
    return [steps / secs for w in workers for steps, secs in zip(w["pass_steps"], w[key])]


def end_to_end(workers: list[dict], failed_frac: float) -> dict:
    """End-to-end metrics from the untraced passes of all workers, with units."""
    return {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "steps_per_s": (statistics.median(_rates(workers, "pass_scaled_s")), "1/s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
        "passed_frac": (1.0 - failed_frac, "frac"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workers: list[dict]) -> dict:
    """Per-layer metrics from the traced passes of all workers, with units."""
    t = {}
    for w in workers:
        for key, value in w["trace"].items():
            t[key] = t.get(key, 0.0) + value
    steps, passes = t["steps"], t["passes"]
    elapsed = {suite: [s["elapsed_s"][suite] for w in workers for s in w["pass_stats"]
                       if suite in s.get("elapsed_s", {})] for suite in SUITES}
    us = 1e-3
    return {
        "core.sample_us_per_step": (_ratio(t["core_sample_ns"] * us, steps), "us"),
        "core.hess_dense_us_per_step": (_ratio(t["hess_dense_ns"] * us, steps), "us"),
        "problems.grad_calls_per_step": (_ratio(t["grad_in_steps"], steps), "count"),
        "problems.hvp_calls_per_step": (_ratio(t["hvp_in_steps"], steps), "count"),
        "problems.value_us_per_step": (_ratio(t["value_ns"] * us, steps), "us"),
        "problems.grad_us_per_step": (_ratio(t["grad_ns"] * us, steps), "us"),
        "problems.hvp_us_per_step": (_ratio(t["hvp_ns"] * us, steps), "us"),
        "problems.batch_grad_us_per_step": (_ratio(t["batch_grad_ns"] * us, steps), "us"),
        "subproblem.steihaug_us_per_call": (_ratio(t["steihaug_ns"] * us, t["steihaug_calls"]), "us"),
        "subproblem.exact_us_per_call": (_ratio(t["exact_ns"] * us, t["exact_calls"]), "us"),
        "subproblem.radius_us_per_call": (_ratio(t["radius_ns"] * us, t["radius_calls"]), "us"),
        "subproblem.cg_iters_per_step": (_ratio(t["cg_iters"], t["trish_steps"]), "count"),
        "schedules.us_per_step": (_ratio(t["schedules_ns"] * us, steps), "us"),
        "schedules.precondition_violations": (_ratio(t["precondition_violations"], passes), "count"),
        "optimizer.self_us_per_step": (_ratio(t["optimizer_ns"] * us, steps), "us"),
        "optimizer.lanes": (_ratio(t["lanes"], passes), "count"),
        "optimizer.aborted_lanes": (_ratio(t["aborted_lanes"], passes), "count"),
        "bounds.envelope_us": (_ratio(t["bounds_ns"] * us, passes), "us"),
        "checks.us_per_checked_step": (_ratio(t["checks_ns"] * us, t["steps_checked"]), "us"),
        "checks.steps_checked": (_ratio(t["steps_checked"], passes), "count"),
        "experiment.csv_us_per_row": (_ratio(t["csv_ns"] * us, t["csv_rows"]), "us"),
        "experiment.csv_bytes": (_ratio(t["csv_bytes"], passes), "bytes"),
        "grid.baseline_s": (_ratio(t["baseline_ns"] * 1e-9, passes), "s"),
        "grid.lanes": (_ratio(t["grid_lanes"], passes), "count"),
        "grid.diverged_lanes": (_ratio(t["grid_diverged"], passes), "count"),
        **{f"suites.{suite}.elapsed_s": (statistics.median(v) if v else 0.0, "s")
           for suite, v in elapsed.items()},
        "config.build_us": (_ratio(t["config_ns"] * us, passes), "us"),
        "trace_overhead_frac": (_ratio(t["traced_s"], t["untraced_s"]) - 1.0, "frac"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "trish" / "__init__.py").is_file():
        print(f"no trish source tree at {root / 'src' / 'trish'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    workdir = root / ".bench_runs"
    workdir.mkdir(exist_ok=True)

    try:
        workers = [run_worker(args, i, workdir, deadline) for i in range(WORKERS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for problem in [p for w in workers for p in w["problems"]][:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    print("machine " + json.dumps(workers[0]["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {WORKERS} workers, "
          f"{sum(len(w['pass_s']) for w in workers)} timed passes, "
          f"{attempted} lanes checked, {failed} failed, "
          f"{sum(w['warnings'] for w in workers)} advisory warnings captured")
    if args.trace:
        table, extra = per_layer(workers), {}
    else:
        table = end_to_end(workers, failed / attempted)
        extra = {"failed_frac": (failed / attempted, "frac"),
                 "raw_setup_s": (statistics.median(w["raw_setup_s"] for w in workers), "s"),
                 "raw_steps_per_s": (statistics.median(_rates(workers, "pass_s")), "1/s")}
    for name, (value, unit) in {**table, **extra}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
