"""Benchmark of the sbw workbench: three verify workloads, end to end and
layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/sbw; sbw is imported from
src/, not from an installed package.  Every pass is a fresh child process,
one at a time, because every cache in sbw lives for one process.

With --trace 0 the run repeats the workload in fresh children while
another pass still fits in S seconds (at least one pass), times 15
set-up-only children around those passes, and reports medians of
wall_ref_s, setup_s and peak_rss_mb.  wall_ref_s is in reference seconds: the pass's wall time
with each slice scaled by the machine speed measured next to it (see
speed.py), because this shared host's speed drifts by up to 1.7x.  The
plain wall_s is printed on the line before the result.
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass; trace.overhead_s is the traced
wall time minus the untraced one.

Every check is compared with perfbench/reference.json, recorded from the
program before any optimisation.  A check that is not ok, whose detail
differs, that is missing or unexpected, or that was lost to an escaped
exception, a crash or a timeout of its child counts as failed.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; the line
before it gives fail_ratio, the plain wall_s and the run's environment,
which is also written to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Why each workload, with the class-product repeat ratio measured on it:
# idempotents repeats class products (0.96), essential almost never does
# (0.001) and linkage makes none, so a gamma memo or kernel change shows
# as a gain on one, a cost or a gain on the other and nothing on the third.
WORKLOADS = {
    "idempotents": {"suites": ["idempotents"],
                    "groups": ["C2xC2", "C4xC2", "D8", "Q8"]},
    "essential": {"suites": ["essential", "seeds"], "groups": None,
                  "digest": True},
    "linkage": {"suites": ["linkage"], "groups": None},
}

SETUP_PROBES = 15
RUN_LIMIT_S = 170          # every run must end within 180 s

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


FUNCTIONS = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for base in FUNCTIONS:
        units.update({base + ".calls": "count", base + ".total_s": "s",
                      base + ".self_s": "s"})
    units.update({
        "gamma.compose_classes.distinct": "count",
        "gamma.compose_classes.repeat_ratio": "ratio",
        "classify.rational_rank.rows": "count",
        "verify.checks": "count",
        "verify.checks_failed": "count",
        "verify.fail_ratio": "ratio",
        "jsonio.bytes": "bytes",
        "process.cpu_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def run_child(spec: dict, seed: int, trace: bool, timeout: float):
    """One fresh child; returns (result or None, elapsed seconds, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec),
           str(seed), "1" if trace else "0"]
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, f"timed out after {timeout:.0f} s"
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1]), elapsed, None
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
    return None, elapsed, f"exit {proc.returncode}: {tail[0]}"


def score(ref: dict, res) -> tuple:
    """(attempted, failed, problems) of one pass against the reference."""
    expected = ref["checks"]
    digest_ops = int(ref.get("digest") is not None)
    if res is None:
        ops = len(expected) + digest_ops
        return ops, ops, ["pass did not finish"]
    failures = []
    got = {}
    for key, ok, detail in res["checks"]:
        if key in got:
            failures.append(f"duplicate check: {key}")
        got[key] = (ok, detail)
    keys = sorted(expected.keys() | got.keys())
    for key in keys:
        if key not in expected:
            failures.append(f"unexpected check: {key}")
        elif key not in got:
            failures.append(f"missing check: {key}")
        elif not got[key][0]:
            failures.append(f"failed check: {key}: {got[key][1]}")
        elif got[key][1] != expected[key]:
            failures.append(f"detail differs: {key}: {got[key][1]!r} "
                            f"!= {expected[key]!r}")
    if digest_ops and res["digest"] != ref["digest"]:
        failures.append("seed table digest differs")
    attempted = len(keys) + len(res["checks"]) - len(got) + digest_ops
    return attempted, len(failures), res["escaped"] + failures


def median(values, fallback):
    return statistics.median(values) if values else fallback


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def measure(spec: dict, ref: dict, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one benchmark run; returns its summary with metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S

    def child(traced, child_spec=spec):
        return run_child(child_spec, seed, traced,
                         max(1.0, deadline - time.monotonic()))

    probes = []
    passes = []                # (traced, result, elapsed, error)
    if trace:
        passes = [(t,) + child(t) for t in (False, True)]
    else:
        # Half the set-up probes run before the passes and half after, so
        # the median spans the run, not one moment of the host's speed.
        probe_spec = dict(spec, suites=[], digest=False)
        probes = [child(False, probe_spec) for _ in range(SETUP_PROBES // 2)]
        start = time.monotonic()
        while True:
            passes.append((False,) + child(False))
            longest = max(p[2] for p in passes)
            now = time.monotonic()
            if now - start + longest > seconds or now + longest > deadline:
                break
        probes += [child(False, probe_spec)
                   for _ in range(SETUP_PROBES - len(probes))]

    attempted = failed = 0
    problems = []
    for _, res, _, error in passes:
        a, f, probs = score(ref, res)
        attempted, failed = attempted + a, failed + f
        problems += ([error] if error else []) + probs
    problems += [p[2] for p in probes if p[2]]
    done = [p for p in passes if p[1] is not None]

    def wall(p, key="wall_s"):
        return p[1][key] if p[1] is not None else p[2]

    plain = {}
    if not trace:
        started = [r for r, _, _ in probes + [p[1:] for p in done]
                   if r is not None]
        children_rss = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        fallback = median([p[1] for p in probes], 0.0)
        metrics = {
            "wall_ref_s": statistics.median(wall(p, "wall_ref_s")
                                            for p in passes),
            "setup_s": median([r["setup_s"] for r in started], fallback),
            "peak_rss_mb": median([p[1]["peak_rss_mb"] for p in done],
                                  children_rss),
        }
        plain = {
            "wall_s": {"value": statistics.median(wall(p) for p in passes),
                       "unit": "s"},
        }
        units = END_TO_END
    else:
        untraced, traced = passes
        metrics = layer_metrics(ref, traced[1])
        metrics["process.cpu_s"] = (untraced[1]["cpu_s"] if untraced[1]
                                    else untraced[2])
        metrics["trace.overhead_s"] = wall(traced) - wall(untraced)
        units = per_layer_units()
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "plain": plain,
        "passes": len(passes),
        "setup_samples": len(probes) + (0 if trace else len(done)),
        "numpy": done[0][1]["numpy"] if done else "unknown",
        "spans": (passes[-1][1] or {}).get("spans", []) if trace else [],
    }


def layer_metrics(ref: dict, res) -> dict:
    """Per-layer metrics of the traced pass; zeros where it did not finish."""
    functions = res["functions"] if res else {}
    metrics = {}
    for base in FUNCTIONS:
        calls, total, self_s = functions.get(base, (0, 0.0, 0.0))
        metrics.update({base + ".calls": calls, base + ".total_s": total,
                        base + ".self_s": self_s})
    calls = metrics["gamma.compose_classes.calls"]
    distinct = res["compose_distinct"] if res else 0
    attempted, failed, _ = score(ref, res)
    metrics.update({
        "gamma.compose_classes.distinct": distinct,
        "gamma.compose_classes.repeat_ratio":
            1 - distinct / calls if calls else 0.0,
        "classify.rational_rank.rows": res["rank_rows"] if res else 0,
        "verify.checks": attempted,
        "verify.checks_failed": failed,
        "verify.fail_ratio": failed / attempted,
        "jsonio.bytes": res["dumped_bytes"] if res else 0,
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "sbw" / "__init__.py").is_file():
        print(f"error: no sbw sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    summary = measure(WORKLOADS[args.workload],
                      reference["workloads"][args.workload], args.seed,
                      args.seconds, bool(args.trace))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": {"value": summary["failed"] / summary["attempted"],
                       "unit": "ratio"},
        **summary["plain"],
        "passes": summary["passes"],
        "setup_samples": summary["setup_samples"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": summary["numpy"],
        "git_sha": git_sha(),
    }
    for problem in summary["problems"][:20]:
        print("problem:", problem, file=sys.stderr)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(info, metrics=summary["metrics"],
                  problems=summary["problems"], spans=summary["spans"])
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
