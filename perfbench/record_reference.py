"""Record perfbench/reference.json from the program as it stands.

Usage: python3 perfbench/record_reference.py

Runs every workload once, untraced, with seed 0 and stores each check's
detail under its reference key, plus the seed-table digest where the
workload makes one.  It refuses to record a failed or escaped check.  Run
it only when a change is meant to alter a verify detail or the seed table;
the benchmark's point is that optimisations leave them byte-identical.
"""

import json
import sys

from run import HERE, WORKLOADS, git_sha, run_child


def main() -> int:
    workloads = {}
    for name, spec in WORKLOADS.items():
        res, _, error = run_child(spec, 0, False, 900)
        if res is None or res["escaped"] or not all(
                ok for _, ok, _ in res["checks"]):
            print(f"{name}: not recorded: {error or res}", file=sys.stderr)
            return 1
        workloads[name] = {
            "checks": {key: detail for key, _, detail in res["checks"]},
            "digest": res["digest"],
        }
        print(f"{name}: {len(res['checks'])} checks recorded")
    (HERE / "reference.json").write_text(json.dumps(
        {"commit": git_sha(), "workloads": workloads}, indent=1,
        sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
