"""The pinned verification-suite reports, and the script that re-records them.

``tests/data/suite_reports.json`` holds every check's name, verdict and
stats for all 11 suites at quick and at full size (``elapsed_s`` is
left out: it is the only timing in a report).  ``test_acceptance.py``
compares the reports its fixtures produce with it through
``mismatches``: names, verdicts, integers and strings must match
exactly, floats within ``REL_TOL`` relative (NaN matches NaN).

Re-record from the repository root, on the commit whose reports are to
be pinned, and say in CHANGES.md which values moved and why:

    PYTHONPATH=src python3 tests/suite_reports.py
"""

import json
import math
import sys
from pathlib import Path

PINNED = Path(__file__).parent / "data" / "suite_reports.json"
SIZES = {"quick": True, "full": False}
REL_TOL = 1e-12  # the benchmark's trace tolerance


def summary(report) -> list:
    """A ``SuiteReport``'s checks as pinned (name, verdict and stats), read
    back from the JSON they are written as."""
    return json.loads(json.dumps([{key: check[key] for key in ("name", "passed", "stats")}
                                  for check in report.to_dict()["checks"]]))


def load() -> dict:
    """The pinned summaries, ``{"quick": {suite: [...]}, "full": {...}}``."""
    with open(PINNED) as fh:
        return json.load(fh)


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Where ``actual`` differs from ``expected``, as readable paths."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{path}: keys {sorted(actual)} != pinned {sorted(expected)}"]
        return [m for key in expected
                for m in mismatches(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != pinned {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    if type(expected) is float and type(actual) is float:
        if (expected == actual or (math.isnan(expected) and math.isnan(actual))
                or abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual))):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != pinned {expected!r}"]


def main() -> int:
    from trish.harness.suites import SUITES, verify

    record = {size: {name: summary(verify(name, quick=quick)) for name in sorted(SUITES)}
              for size, quick in SIZES.items()}
    PINNED.parent.mkdir(exist_ok=True)
    with open(PINNED, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"recorded {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
