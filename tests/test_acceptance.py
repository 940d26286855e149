"""Acceptance gate: each property suite at full desk scale, under budget.

One test per guarantee.  Each runs the corresponding verification suite
over every catalog group of order at most 8, asserts every check passed,
enforces the wall-clock budget, and prints a single PASS/FAIL line (visible
with pytest -s; the per-test PASSED/FAILED line carries the same verdict).
"""

import time

from sbw import catalog, classify, crossed, verify

CAT = catalog.default_catalog()


def run_gate(label: str, suite: str, budget: float):
    t0 = time.perf_counter()
    report = verify.run_suites([suite], max_order=8, catalog=CAT)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} {label}: "
          f"{len(report.checks)} checks, {elapsed:.1f}s (budget {budget:.0f}s)")
    bad = [c for c in report.checks if not c.ok]
    assert not bad, [f"{c.name}: {c.detail}" for c in bad]
    assert elapsed < budget, f"{label} took {elapsed:.1f}s"
    return report


def test_goursat_roundtrip_under_ten_seconds():
    report = run_gate("goursat round-trip", "goursat", 10.0)
    names = {c.name.split(" ")[0] for c in report.checks}
    for pair in ("C1xC2", "C2xC3", "C4xC4", "C2xC2xS3", "S3xS3"):
        assert pair in names


def test_mackey_products_under_a_minute():
    report = run_gate("associativity and identities", "mackey", 60.0)
    tags = {c.tag for c in report.checks}
    assert "mackey-assoc-exhaustive" in tags
    assert "mackey-assoc-random" in tags


# The product counts of the covering checks on the groups of the
# idempotents benchmark, pinned so that a count drift shows here.
COVERING_DETAILS = {
    "C2xC2": ("14160 products, explicit two-sided",
              "2950 class actions over 118 covering classes"),
    "C4xC2": ("24576 products, centrality",
              "24576 class actions over 384 covering classes"),
    "D8": ("17568 products, explicit two-sided",
           "1403 class actions over 61 covering classes"),
    "Q8": ("19695 products, explicit two-sided",
           "2323 class actions over 101 covering classes"),
}


def test_idempotent_laws_under_a_minute():
    report = run_gate("idempotent laws", "idempotents", 60.0)
    details = {(c.name.split(" ")[0], c.tag): c.detail for c in report.checks}
    for gid, (centrality, actions) in COVERING_DETAILS.items():
        assert details[gid, "covering-centrality"] == centrality
        assert details[gid, "covering-left-action"] == actions


def test_gamma_groups_match_out_under_two_minutes():
    run_gate("pair groups against Out", "gamma", 120.0)
    V4 = CAT.by_id("C2xC2").group
    one, full = V4.trivial_subgroup(), V4.full_subgroup()
    gg = classify.gamma_group(V4, one, full)
    ao = crossed.aut_out(crossed.from_pair(V4, one, full))
    assert gg.order == len(ao.out_reps) == 6


def test_matrix_decomposition_under_five_minutes():
    run_gate("blockwise matrix shape", "matrix", 300.0)
    rep = classify.matrix_decomposition(CAT.by_id("C2").group)
    assert sorted(b.dim for b in rep.blocks) == [1, 1, 1, 1]
    assert rep.covering_dim == 4


def test_essential_quotient_under_five_minutes():
    run_gate("essential quotient against the span oracle", "essential", 300.0)
    rep = classify.essential_report(CAT.by_id("C2").group, CAT)
    assert rep.essential_dim == 3


def test_seed_table_under_a_minute():
    run_gate("seed rows and transport", "seeds", 60.0)
    table = classify.seeds(CAT)
    merged = {tuple(sorted({e.gid for e in row.entries}))
              for row in table.rows if len(row.entries) > 1}
    assert ("D8", "Q8") in merged


def test_linkage_routes_agree_under_five_minutes():
    run_gate("linkage by modules and by sections", "linkage", 300.0)


def test_reduced_rules_under_a_minute():
    run_gate("reduced-pair rules", "reduced", 60.0)
    part = classify.linkage_partition(CAT.by_id("C2").group)
    verdicts = {classify.reduced_status(CAT.by_id("C2").group, p, CAT).verdict
                for p in part.pairs}
    assert verdicts == {"Reduced", "NotReduced"}
