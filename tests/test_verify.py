"""The property-suite runner itself: registry, reports, serialization."""

import pytest

from sbw import catalog, classify, gamma, posets, verify
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
    b = next(c for c in classify.covering_basis(G).classes
             if c not in e_classes)
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
