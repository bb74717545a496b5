"""Record the reference outputs the benchmark's correctness gate compares with.

Run from the repository root, on the commit whose outputs are the
reference (the seed commit for the files committed here):

    python3 benchmarks/record_reference.py

verify-envelope has one reference (the suites' fixed seeds); the other
workloads have one per input variant, ``seed % VARIANTS``.
"""

import json
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def record(name: str, workdir: Path) -> dict:
    cls = workloads.WORKLOADS[name]
    if name == "verify-envelope":
        wl = cls(0, workdir)
        return wl.record(wl.run_pass(lambda: None))
    variants = {}
    for variant in range(workloads.VARIANTS):
        wl = cls(variant, workdir)
        variants[str(variant)] = wl.record(wl.run_pass(lambda: None))
    return {"variants": variants}


def main() -> int:
    logging.getLogger("trish").setLevel(logging.ERROR)  # tune's advisory warnings
    workdir = Path.cwd() / ".bench_runs"
    workdir.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        ref = record(name, workdir)
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
