"""The property-suite runner itself: registry, reports, serialization."""

import pytest

from sbw import (catalog, classify, crossed, gamma, groups, posets,
                 sections, verify)
from sbw.errors import WorkbenchError

CAT = catalog.default_catalog()


def test_suite_registry():
    assert sorted(verify.SUITES) == [
        "essential", "gamma", "goursat", "groups", "idempotents",
        "linkage", "mackey", "matrix", "reduced", "seeds",
    ]
    for fn in verify.SUITES.values():
        assert callable(fn)


def test_run_suites_rejects_unknown_names():
    with pytest.raises(WorkbenchError):
        verify.run_suites(["goursat", "nope"])


def test_run_suites_at_small_order():
    report = verify.run_suites(["groups", "goursat"], max_order=3)
    assert report.ok
    assert report.max_order == 3
    assert len(report.checks) > 0
    suites = {c.suite for c in report.checks}
    assert suites == {"groups", "goursat"}
    for c in report.checks:
        assert c.ok
        assert c.seconds >= 0


def test_suites_run_in_registry_order():
    report = verify.run_suites(["goursat", "groups"], max_order=2)
    order = [c.suite for c in report.checks]
    boundary = order.index("goursat")
    assert all(s == "groups" for s in order[:boundary])
    assert all(s == "goursat" for s in order[boundary:])


def test_report_serialization_excludes_seconds_by_default():
    report = verify.run_suites(["goursat"], max_order=2)
    plain = verify.report_to_json(report)
    assert plain["ok"] is True
    assert plain["max_order"] == 2
    for item in plain["checks"]:
        assert "seconds" not in item
        assert set(item) == {"suite", "name", "tag", "ok", "detail"}
    timed = verify.report_to_json(report, include_seconds=True)
    assert all("seconds" in item for item in timed["checks"])


def test_run_suites_accepts_custom_catalog():
    small = catalog.default_catalog().restrict(2)
    report = verify.run_suites(["idempotents"], max_order=8, catalog=small)
    assert report.ok
    named = {c.name.split(" ")[0] for c in report.checks}
    assert named <= {"C1", "C2"}


def test_every_check_carries_a_tag():
    report = verify.run_suites(["mackey"], max_order=3)
    assert report.ok
    for c in report.checks:
        assert c.tag
        assert c.suite == "mackey"


def test_mackey_checks_pass_on_an_empty_catalog():
    checks = verify.suite_mackey(max_order=0)
    assert all(c.ok for c in checks)
    random_check, = (c for c in checks if c.tag == "mackey-assoc-random")
    assert random_check.detail == f"0 random triples, seed {verify._MACKEY_SEED}"


def test_run_suites_rejects_max_order_below_one():
    with pytest.raises(WorkbenchError, match="max_order >= 1"):
        verify.run_suites(["mackey"], max_order=0)


def test_unexpected_exception_is_recorded_and_later_checks_run():
    out = []

    def broken():
        raise KeyError("lost")

    verify._run(out, "demo", "broken", "demo-tag", broken)
    verify._run(out, "demo", "after", "demo-tag", lambda: "fine")
    assert [(c.name, c.ok, c.tag, c.detail) for c in out] == [
        ("broken", False, "internal-error", "KeyError: 'lost'"),
        ("after", True, "demo-tag", "fine"),
    ]


def test_a_suite_survives_a_bug_in_every_check(monkeypatch):
    def broken(*args):
        raise KeyError("lost")

    monkeypatch.setattr(verify.crossed, "linked", broken)
    checks = verify.suite_linkage(max_order=2)
    assert len(checks) == 3
    assert all(not c.ok and c.tag == "internal-error" for c in checks)


def test_linkage_asks_the_section_route(monkeypatch):
    # Flip the section route's answer for one combination of C2 x C2: the
    # two routes then disagree there, and only that check fails.
    real = verify.sections.has_constrained_section

    def flipped(X, K, P, L, Q):
        found = real(X, K, P, L, Q)
        if K.parent.order == L.parent.order == 2 and \
                K.elems == P.elems == L.elems == Q.elems == (0,):
            return not found
        return found

    monkeypatch.setattr(verify.sections, "has_constrained_section", flipped)
    checks = verify.suite_linkage(max_order=2)
    n = len(posets.normal_commuting_pairs(CAT.by_id("C2").group)) ** 2
    assert len(checks) == 3
    assert [(c.name, c.detail) for c in checks if not c.ok] == [
        ("C2 vs C2 two linkage routes", f"AssertionError: 1 of {n} disagree")]


def _linkage_all_combinations(max_order: int) -> dict:
    """Row name -> (disagreements, combinations), with both linkage routes
    called on every combination of every row: the reference that the
    signature-reduced suite must agree with."""
    rows = {}
    cat = verify._groups(max_order)
    for i, (ga, G) in enumerate(cat):
        for gb, H in cat[i:]:
            X = groups.direct_product(G, H)
            pg = posets.normal_commuting_pairs(G)
            ph = posets.normal_commuting_pairs(H)
            mism = sum((crossed.linked(X, K, P, L, Q) is not None)
                       != sections.has_constrained_section(X, K, P, L, Q)
                       for K, P in pg for L, Q in ph)
            name = f"{ga} vs {gb} two linkage routes"
            rows[name] = (mism, len(pg) * len(ph))
    return rows


def test_linkage_suite_agrees_with_the_all_combinations_sweep():
    reference = _linkage_all_combinations(4)
    assert len(reference) == 15
    assert all(mism == 0 for mism, _ in reference.values())
    checks = verify.suite_linkage(max_order=4)
    assert {c.name: (c.ok, c.detail) for c in checks} == {
        name: (mism == 0, f"{n} pair combinations agree")
        for name, (mism, n) in reference.items()}


def test_linkage_runs_both_routes_only_where_orders_match(monkeypatch):
    # One row, C2xC2 vs D8: both routes on each order-matched combination
    # and on one combination per mismatched pair of order signatures.
    G, H = CAT.by_id("C2xC2").group, CAT.by_id("D8").group
    real = verify.crossed.linked
    calls = []

    def counted(X, K, P, L, Q):
        if K.parent is G and L.parent is H:
            calls.append((K, P, L, Q))
        return real(X, K, P, L, Q)

    monkeypatch.setattr(verify.crossed, "linked", counted)
    checks = verify.suite_linkage(max_order=8)
    assert all(c.ok for c in checks)
    sg = [(P.order, K.index) for K, P in posets.normal_commuting_pairs(G)]
    sh = [(Q.order, L.index) for L, Q in posets.normal_commuting_pairs(H)]
    matched = sum(a == b for a in sg for b in sh)
    mismatched = len({(a, b) for a in sg for b in sh if a != b})
    assert (matched, mismatched) == (56, 109)
    assert len(calls) == matched + mismatched < len(sg) * len(sh)


def test_linkage_fetches_each_product_once(monkeypatch):
    real = verify.direct_product
    fetched = []

    def counted(G, H):
        fetched.append((G.name, H.name))
        return real(G, H)

    for module in (verify, verify.crossed, verify.sections, groups):
        monkeypatch.setattr(module, "direct_product", counted)
    checks = verify.suite_linkage(max_order=4)
    assert all(c.ok for c in checks)
    # one check and one fetch per unordered pair of the 5 groups
    assert len(checks) == 15
    assert sorted(fetched) == sorted(set(fetched))
    assert len(fetched) == 15


def test_linkage_checks_the_cap_on_each_product(monkeypatch):
    monkeypatch.setenv("SBW_MAX_ORDER", "32")
    checks = verify.suite_linkage(max_order=8)
    orders = {gid: G.order for gid, G in verify._groups(8)}
    assert len(checks) == 105
    for c in checks:
        ga, _, gb = c.name.split()[:3]
        if orders[ga] * orders[gb] > 32:
            assert not c.ok and c.detail.startswith("OrderLimitExceeded")
        else:
            assert c.ok, c.detail


@pytest.mark.parametrize("limit", [verify._FULL_COVERING_LIMIT, -1])
def test_a_raise_in_one_groups_set_up_fails_only_that_group(monkeypatch,
                                                            limit):
    # limit -1 sends every group to witness mode.
    monkeypatch.setattr(verify, "_FULL_COVERING_LIMIT", limit)
    passing = verify.suite_idempotents(max_order=4)
    C3 = CAT.by_id("C3").group
    real = classify.linkage_partition

    def broken(G):
        if G is C3:
            raise KeyError("lost")
        return real(G)

    monkeypatch.setattr(verify.classify, "linkage_partition", broken)
    checks = verify.suite_idempotents(max_order=4)
    assert [(c.name, c.tag, c.detail) for c in checks if not c.ok] == [
        ("C3 e-join grid", "internal-error", "KeyError: 'lost'")]
    assert [(c.name, c.detail) for c in checks if c.ok] == [
        (c.name, c.detail) for c in passing if not c.name.startswith("C3 ")]


@pytest.mark.parametrize("wrong_side", ["E_z o b", "b o E_z"])
def test_covering_checks_catch_a_wrong_product(monkeypatch, wrong_side):
    G = CAT.by_id("C2xC2").group
    out = []
    verify._idempotents_full(out, "C2xC2", G)  # build every memo first
    assert all(c.ok for c in out)
    pairs = posets.normal_commuting_pairs(G)
    e_classes = {gamma.e_class(G, *p) for p in pairs}
    Ez = gamma.e_class(G, *pairs[0])
    # A b that is no E class, so the products among E classes, which the
    # e and f laws read and cache in the elements, stay right.
    b = next(c for c in classify.covering_basis(G) if c not in e_classes)
    left, right = (Ez, b) if wrong_side == "E_z o b" else (b, Ez)
    compose_row = gamma.compose_row

    def wrong_row(a, bs):
        row = list(compose_row(a, bs))  # a copy: the memo stays right
        if a is left:
            for k, c in enumerate(bs):
                if c is right:
                    (cls, m), = row[k].items()
                    row[k] = {cls: m + 1}
        return row

    monkeypatch.setattr(verify.gamma, "compose_row", wrong_row)
    out = []
    verify._idempotents_full(out, "C2xC2", G)
    failed = {c.name: c.detail for c in out if not c.ok}
    for name in ("C2xC2 covering centrality", "C2xC2 covering class actions"):
        assert failed[name].startswith("AssertionError"), failed


@pytest.mark.parametrize("gid", ["C2xC2", "D8"])
def test_witness_mode_passes_on_small_groups(monkeypatch, gid):
    calls = []
    class_actions = verify._class_actions

    def counted(b, *args):
        calls.append(b)
        return class_actions(b, *args)

    monkeypatch.setattr(verify, "_class_actions", counted)
    out = []
    verify._idempotents_witness(out, gid, CAT.by_id(gid).group)
    assert [c.tag for c in out] == [
        "e-join-grid", "join-lattice", "mobius-f-laws",
        "covering-left-action", "covering-self-opposite"]
    assert all(c.ok for c in out), [(c.name, c.detail) for c in out]
    # One call per witness class, one witness per distinct left middle.
    assert calls and len(set(calls)) == len(calls)
    assert out[3].detail.endswith(f" over {len(calls)} witness classes")
