"""One fresh process per worker of a benchmark run.

Set-up (importing trish, building the workload's problems and configs,
warm-up) is timed from the first line of this file.  The worker then
runs timed passes until its share of ``--seconds`` is used, checks every
pass against the reference, and with ``--trace 1`` repeats the same
number of passes with the span tracer installed.  It prints one JSON
object on its last stdout line.

The host these numbers were taken on is shared: its speed drifts by 20
to 40 % over seconds to minutes, far beyond any useful regression
bound.  So a fixed calibration loop, independent of trish, runs between
entry-point calls (never inside a timed call), and each call's wall
time is rescaled to the host's reference speed by ``CAL_REF_S`` over the
mean of the calibrations just before and after it.  Set-up, too short to
bracket, is rescaled by the square root of the same ratio taken with the
worker's median calibration.  Raw wall times are reported alongside.

    python3 benchmarks/worker.py --workload run-trace --seed 0 --seconds 4 \
        --trace 0 --workdir .bench_runs --index 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


class _CountingHandler(logging.Handler):
    """Keeps trish's advisory warnings off stderr, so no I/O is timed."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def machine_record() -> dict:
    """nproc, Python, numpy, the BLAS library with its thread count, cache sizes."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {level: libc.sysconf(code) for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(np)},
        "cache_bytes": caches,
    }


def _blas_threads(np):
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return os.environ.get("OPENBLAS_NUM_THREADS")


CAL_REPS = 1500
CAL_REF_S = 0.0105  # calibration time on the reference host in its fastest state
# Set-up (imports, module execution) slows about half as much as the
# calibration loop when the host slows: over 60 runs the log-log slope
# of set-up time on calibration time was 0.4 to 0.75 per workload.
SETUP_CAL_EXPONENT = 0.5


def calibrate() -> float:
    """Wall time of a fixed loop of Python arithmetic and numpy calls on
    10-vectors and on a 2000 x 20 block, the sizes the workloads use."""
    import numpy as np

    a = np.full((10, 10), 0.05) + 0.5 * np.eye(10)
    big = np.full((2000, 20), 0.01)
    x, w = np.ones(10), np.ones(20)
    acc = 0.0
    t = time.perf_counter()
    for i in range(CAL_REPS):
        x = a @ x
        x = x / float(np.linalg.norm(x))
        acc += sum(k * 0.5 for k in range(20))
        if i % 20 == 0:
            acc += float(np.logaddexp(0.0, big @ w).sum())
    return time.perf_counter() - t


class Stopwatch:
    """Sums the wall time of the calls between laps, raw and rescaled."""

    def __init__(self) -> None:
        self.cals: list[float] = []

    def _calibrate(self) -> float:
        self.cals.append(calibrate())
        return self.cals[-1]

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.cal = self._calibrate()
        self.t = time.perf_counter()

    def lap(self) -> None:
        dt = time.perf_counter() - self.t
        cal = self._calibrate()
        self.raw += dt
        self.scaled += dt * CAL_REF_S / (0.5 * (self.cal + cal))
        self.cal = cal
        self.t = time.perf_counter()


def _passes(workload, reference, tally, *, count=None, seconds=0.0) -> dict:
    """Run timed passes; check each one outside its timed section."""
    out = {"pass_s": [], "pass_scaled_s": [], "pass_steps": [], "pass_stats": []}
    watch = Stopwatch()

    def more() -> bool:
        if count is not None:
            return len(out["pass_s"]) < count
        return len(out["pass_s"]) < workload.MIN_PASSES or sum(out["pass_s"]) < seconds

    while more():
        watch.start()
        outputs = workload.run_pass(watch.lap)
        out["pass_s"].append(watch.raw)
        out["pass_scaled_s"].append(watch.scaled)
        out["pass_steps"].append(workload.steps(outputs))
        out["pass_stats"].append(workload.report_stats(outputs))
        attempted, failed, problems = workload.check(outputs, reference)
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["problems"].extend(problems)
    out["cal_s"] = watch.cals
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args()

    warnings = _CountingHandler()
    trish_logger = logging.getLogger("trish")
    trish_logger.addHandler(warnings)
    trish_logger.propagate = False

    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - T0
    reference = workloads.load_reference(args.workload)

    tally = {"attempted": 0, "failed": 0, "problems": []}
    result = {"raw_setup_s": setup_s}
    try:
        untraced = _passes(workload, reference, tally, seconds=args.seconds)
        # Set-up is too short to bracket with calibrations, so it is rescaled
        # by the worker's median calibration, which follows the slow drift.
        speed = CAL_REF_S / statistics.median(untraced["cal_s"])
        result.update(untraced, setup_s=setup_s * speed ** SETUP_CAL_EXPONENT,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            traced = _passes(workload, reference, tally, count=len(untraced["pass_s"]))
            tracer.save(str(workdir / f"spans-{args.workload}-w{args.index}.npz"))
            result["trace"] = {
                **tracer.totals(),
                "steps": sum(traced["pass_steps"]),
                "passes": len(traced["pass_s"]),
                "traced_s": sum(traced["pass_scaled_s"]),
                "untraced_s": sum(untraced["pass_scaled_s"]),
                "steps_checked": sum(s.get("steps_checked", 0) for s in traced["pass_stats"]),
            }
    except Exception:  # a pass that raises fails the run; the traceback says why
        result["error"] = traceback.format_exc()
    result.update(tally, warnings=warnings.count)
    if args.index == 0:
        result["machine"] = machine_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
