"""The memo protocol: what ``memo.keyed`` stores, and who calls
``memo.table`` directly."""

import ast
from pathlib import Path

import pytest

import sbw
from sbw import classify, crossed, memo, posets
from sbw.catalog import default_catalog
from sbw.errors import NotInPoset
from sbw.groups import Group


def fresh(gid):
    """A group equal to the catalog's, with memo tables of its own."""
    return Group(default_catalog().by_id(gid).group.table, name=gid)


def test_keyed_stores_a_none_result():
    poset = posets.FinitePoset(["a", "b"], lambda x, y: x == y)
    assert poset.join_index(0, 1) is None
    assert memo.table(poset, "join_index") == {(0, 1): None}
    poset.up = []   # a recomputation would now raise IndexError
    assert poset.join_index(1, 0) is None


def test_keyed_stores_nothing_when_the_call_raises():
    G = fresh("S3")
    A3 = G.subgroup((0, 3, 4))
    for _ in range(2):
        with pytest.raises(NotInPoset):
            crossed.from_pair(G, A3, G.full_subgroup())
    assert memo.table(G, "from_pair") == {}


def test_keyed_keeps_one_essential_report_per_catalog():
    G = fresh("C2")
    cat = default_catalog()
    small = cat.restrict(2)
    reports = [classify.essential_report(G, c) for c in (cat, small, None)]
    assert len(memo.table(G, "essential_report")) == 2
    assert reports[0] is reports[2] is not reports[1]
    assert classify.essential_report(G, small) is reports[1]


def test_gamma_group_keeps_one_entry_per_pair():
    G = fresh("C2xC2")
    pairs = posets.normal_commuting_pairs(G)
    for K, P in pairs:
        gg = classify.gamma_group(G, K, P)
        assert (gg.K, gg.P) == (K, P)
    assert len(memo.table(G, "gamma_group")) == len(pairs)


# Every direct caller of memo.table, as (module, table name).  A per-owner
# result belongs behind memo.once or memo.keyed; the memo docstring gives
# the reason for each of these.
RAW_TABLES = sorted([
    ("catalog", "default_catalog"),
    ("gamma", "class_of_rows"),
    ("gamma", "compose_classes"),
    ("gamma", "shared_products"),
    ("groups", "as_group"),
    ("groups", "direct_product"),
    ("groups", "isomorphisms"),
    ("groups", "quotient"),
    ("sections", "canonical_section"),
])


def test_raw_memo_tables_are_only_the_listed_sites():
    found = []
    for path in sorted(Path(sbw.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "table"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "memo"):
                name = node.args[1]
                found.append((path.stem, name.value
                              if isinstance(name, ast.Constant) else None))
    assert sorted(found) == RAW_TABLES
