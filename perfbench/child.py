"""One workload pass in a fresh process; every cache in sbw is per process.

Usage: python3 perfbench/child.py SPEC_JSON SEED TRACE

SPEC_JSON names the verify suites to run, the catalog groups to hand them
(null for the whole catalog) and whether to digest the seed table.  SEED
shuffles the catalog entries handed to the suites.  TRACE is 0 or 1.  The
environment variable PERFBENCH_SPAWNED holds the parent's time.monotonic()
just before it spawned this process, so set-up time includes interpreter
start.  An untraced pass is also timed in reference seconds (see
speed.py).  The last line on stdout is one JSON
object with the pass's measurements and raw results; the parent compares
them to the reference.
"""

import hashlib
import json
import os
import random
import resource
import sys
import time

from speed import SpeedSampler


def check_key(check) -> str:
    """Reference key of a check; a linkage check is keyed by its unordered
    group pair, because the seed decides which side is searched."""
    if check.suite == "linkage":
        ga, _, gb, *rest = check.name.split()
        return " ".join(["linkage", *sorted((ga, gb)), *rest])
    return f"{check.suite} {check.name}"


def main(argv) -> int:
    spec, seed, trace = json.loads(argv[1]), int(argv[2]), argv[3] == "1"
    spawned = float(os.environ["PERFBENCH_SPAWNED"])

    import numpy
    from sbw import classify, jsonio, verify
    from sbw.catalog import Catalog, default_catalog

    full = default_catalog()
    entries = [e for e in full.entries
               if spec["groups"] is None or e.gid in spec["groups"]]
    random.Random(seed).shuffle(entries)
    cat = Catalog(entries=tuple(entries), complete_orders=full.complete_orders)
    setup_s = time.monotonic() - spawned

    tracer = sampler = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler().start()

    checks, escaped, digest = [], [], None
    cpu0, t0 = time.process_time(), time.perf_counter()
    for suite in spec["suites"]:
        try:
            checks.extend(verify.SUITES[suite](catalog=cat))
        except Exception as exc:  # the suite lost its remaining checks
            escaped.append(f"{suite}: {type(exc).__name__}: {exc}")
    if spec["suites"]:
        report = verify.VerifyReport(checks=tuple(checks), max_order=8)
        jsonio.dumps(verify.report_to_json(report))
    if spec.get("digest"):
        try:
            text = jsonio.dumps(jsonio.seeds_to_json(classify.seeds(cat)))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        except Exception as exc:
            escaped.append(f"seeds digest: {type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    wall_ref_s = None
    if sampler is not None:
        sampler.stop()
        wall_s, wall_ref_s = sampler.totals()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_ref_s": wall_ref_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "checks": [[check_key(c), c.ok, c.detail] for c in checks],
        "digest": digest,
        "escaped": escaped,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["functions"] = tracer.per_function()
        out["spans"] = tracer.table()
        out["compose_distinct"] = len(tracer.pairs)
        out["rank_rows"] = tracer.rows
        out["dumped_bytes"] = tracer.dumped_bytes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
