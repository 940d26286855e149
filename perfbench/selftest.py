"""Self-test of the benchmark on a tiny input: the idempotents suite on C2.

Usage: python3 perfbench/selftest.py

Asserts that the speed sampler leaves its calibration out of a pass; that
an untraced run emits exactly the end-to-end metrics of BENCHMARK.json and
a traced run exactly its per-layer metrics, each with its unit; that an altered reference detail counts as a failed operation;
and that run.py refuses, without a result line, a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys

import time

from run import HERE, ROOT, measure, run_child
from speed import SAMPLE_EVERY_S, SpeedSampler

TINY = {"suites": ["idempotents"], "groups": ["C2"]}


def declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def emitted(summary: dict) -> dict:
    return {name: m["unit"] for name, m in summary["metrics"].items()}


def check_sampler():
    """The sampler leaves its own calibration out of the pass and reads the
    machine's speed about every SAMPLE_EVERY_S seconds."""
    t0 = time.perf_counter()
    sampler = SpeedSampler().start()
    while time.perf_counter() - t0 < 10 * SAMPLE_EVERY_S:
        sum(range(1000))
    sampler.stop()
    elapsed = time.perf_counter() - t0
    wall, ref = sampler.totals()
    calibrating = sum(cal for _, cal in sampler.samples)
    assert len(sampler.samples) >= 5, sampler.samples
    assert abs(wall + calibrating - elapsed) < 0.01, (wall, elapsed)
    assert ref > 0


def main() -> int:
    check_sampler()
    res, _, error = run_child(TINY, 0, False, 120)
    assert res is not None and not res["escaped"], error
    ref = {"checks": {key: detail for key, _, detail in res["checks"]},
           "digest": None}

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        summary = measure(TINY, ref, seed=1, seconds=1, trace=trace)
        assert emitted(summary) == declared(section), section
        assert summary["attempted"] > 0 and summary["failed"] == 0, \
            summary["problems"]

    altered = {"checks": dict(ref["checks"]), "digest": None}
    key = sorted(altered["checks"])[0]
    altered["checks"][key] += " (altered)"
    summary = measure(TINY, altered, seed=1, seconds=1, trace=False)
    assert summary["failed"] == summary["passes"] >= 1, summary["problems"]
    summary = measure(TINY, altered, seed=1, seconds=1, trace=True)
    layers = {n: m["value"] for n, m in summary["metrics"].items()}
    assert layers["verify.checks_failed"] == 1
    assert layers["verify.fail_ratio"] == 1 / layers["verify.checks"]

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linkage",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
