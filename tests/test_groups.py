"""Group core: tables, subgroups, quotients, cosets, automorphisms."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import sbw
from sbw.catalog import default_catalog
from sbw.classify import gamma_group
from sbw.errors import (MixedParents, NoIdentity, NonAssociative, NotClosed,
                        NotNormal, NotSubgroup, OrderLimitExceeded)
from sbw.groups import (Group, automorphism_count, conjugacy_classes, cyclic,
                        dihedral, direct_product, double_cosets,
                        generated_subgroup, group_from_perm_gens,
                        isomorphisms, normal_subgroups, product_set,
                        quaternion, quotient, subgroup_lattice, symmetric,
                        _validate_table)
from sbw.jsonio import group_from_json


def cg(gid):
    return default_catalog().by_id(gid).group


ALL_IDS = ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "C8",
           "C4xC2", "C2xC2xC2", "D8", "Q8")

# (subgroup count, conjugacy class count, |Aut|) per catalog group
LATTICE_CLASSES_AUT = {
    "C1": (1, 1, 1),
    "C2": (2, 2, 1),
    "C3": (2, 3, 2),
    "C4": (3, 4, 2),
    "C2xC2": (5, 4, 6),
    "C5": (2, 5, 4),
    "C6": (4, 6, 2),
    "S3": (6, 3, 6),
    "C7": (2, 7, 6),
    "C8": (4, 8, 4),
    "C4xC2": (8, 8, 8),
    "C2xC2xC2": (16, 8, 168),
    "D8": (10, 5, 8),
    "Q8": (6, 5, 24),
}


def test_constructors_have_expected_orders():
    assert cyclic(5).order == 5
    assert dihedral(8).order == 8
    assert quaternion(8).order == 8
    assert symmetric(3).order == 6
    with pytest.raises(NotClosed):
        dihedral(5)


def test_table_must_be_a_group():
    # Latin square with identity, still not associative
    loop5 = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 3, 4, 0, 1],
             [3, 4, 1, 2, 0],
             [4, 2, 0, 1, 3]]
    with pytest.raises(NonAssociative):
        Group(loop5)
    with pytest.raises(NoIdentity):
        Group([[1, 0], [0, 1]])
    with pytest.raises(NotClosed):
        Group([[0, 1], [1, 5]])
    with pytest.raises(NotClosed):
        Group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cols = [set(range(n)) - {j} for j in range(n)]
    free = [set(range(n)) - {i} for i in range(n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield [row[:] for row in rows]
            return
        i, j = divmod(cell, n - 1)
        i, j = i + 1, j + 1
        for x in sorted(free[i] & cols[j]):
            rows[i][j] = x
            free[i].discard(x)
            cols[j].discard(x)
            yield from fill(cell + 1)
            free[i].add(x)
            cols[j].add(x)
        rows[i][j] = None

    yield from fill(0)


def _least_failing_left_factor(t):
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return a
    return None


@pytest.mark.parametrize("n, squares, groups", [(4, 4, 4), (5, 56, 6),
                                                (6, 9408, 80)])
def test_validator_accepts_exactly_the_associative_latin_squares(n, squares,
                                                                   groups):
    # Light's test checks only the generator columns; a cubic scan over
    # every reduced Latin square of the order is the reference.
    seen = accepted = 0
    for table in _reduced_latin_squares(n):
        seen += 1
        bad = _least_failing_left_factor(table)
        if bad is None:
            assert Group(table).order == n
            accepted += 1
        else:
            with pytest.raises(NonAssociative) as err:
                Group(table)
            assert str(err.value) == \
                f"associativity fails for left factor {bad}"
    assert (seen, accepted) == (squares, groups)


# Digests computed when tables were packed by numpy as uint16.
CATALOG_DIGESTS = {
    "C1": "4f14dbe1da4a8f3701abf73b",
    "C2": "71e4f78da75eaf3ac2e5721b",
    "C3": "356ce4e56b2e580ec374bbf5",
    "C2xC2": "64ca731682593464a254f1ed",
    "C4": "d02f7c8ff148fd5dbff57149",
    "C5": "741f1f0a9f67f0bca8e5179e",
    "C6": "aaf9e1f8c67f17a6516c12f7",
    "S3": "729f22a35f4ec99be7c35ae3",
    "C7": "b25abdef5a4f8b3c35d6b852",
    "C2xC2xC2": "517e417c5de90a87ffb5f290",
    "C4xC2": "d8c2d73e667cbf99f7a50e24",
    "C8": "b496226ba33d05e246c5e1a4",
    "D8": "c0d0311627c4403bd5c74e3c",
    "Q8": "449bbb54a53d205967db98e6",
}


def test_table_digests_are_pinned():
    assert {gid: cg(gid).digest for gid in ALL_IDS} == CATALOG_DIGESTS
    G = cg("C2xC2xC2")
    gamma = gamma_group(G, G.trivial_subgroup(), G.full_subgroup()).group
    assert (gamma.order, gamma.digest) == (168, "8699588dde20bf614056e515")


def test_order_cap_blocks_large_tables(monkeypatch):
    monkeypatch.setenv("SBW_MAX_ORDER", "4")
    with pytest.raises(OrderLimitExceeded):
        cyclic(5)
    assert cyclic(4).order == 4
    monkeypatch.setenv("SBW_MAX_ORDER", "600")
    assert cyclic(600).order == 600


def test_interned_direct_product_is_refused_once_the_cap_drops(monkeypatch):
    C2, C4 = cyclic(2), cyclic(4)
    assert direct_product(C2, C4).order == 8
    monkeypatch.setenv("SBW_MAX_ORDER", "4")
    with pytest.raises(OrderLimitExceeded):
        direct_product(C2, C4)


@pytest.mark.parametrize("build, arg", [(cyclic, 1500), (dihedral, 1500),
                                        (symmetric, 9)])
def test_constructors_refuse_an_order_over_the_cap_before_building(build,
                                                                    arg):
    # Without the early check these build a table of millions of entries.
    tracemalloc.start()
    try:
        with pytest.raises(OrderLimitExceeded):
            build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("gid", ALL_IDS)
def test_frozen_lattice_and_class_counts(gid):
    G = cg(gid)
    subs, classes, aut = LATTICE_CLASSES_AUT[gid]
    assert len(subgroup_lattice(G).all) == subs
    assert len(conjugacy_classes(G)) == classes
    assert automorphism_count(G) == aut


def test_memo_tables_belong_to_each_group_object():
    # Equal tables make equal groups, but names (and so derived names)
    # differ: a memo keyed by the group would hand G2 the results of G1.
    table = cg("C4").table
    G1, G2 = Group(table, name="A"), Group(table, name="B")
    assert G1 == G2
    assert subgroup_lattice(G1).group is G1
    assert subgroup_lattice(G2).group is G2
    Q1, pi1 = quotient(G1, G1.subgroup((0, 2)))
    Q2, pi2 = quotient(G2, G2.subgroup((0, 2)))
    assert pi1.source is G1 and pi2.source is G2
    assert (Q1.name, Q2.name) == ("A/2", "B/2")


SHARED_SUBGROUPS = """
from sbw import classify, posets
from sbw.catalog import default_catalog
from sbw.groups import Group, shared_subgroup, subgroup_lattice

cat = default_catalog()
D8, C42 = cat.by_id("D8").group, cat.by_id("C4xC2").group
assert "subgroup_lattice" not in D8._memo
assert "subgroup_lattice" not in C42._memo
# D8: every shared subgroup exists before the lattice; C4xC2: after it.
for s in subgroup_lattice(Group(D8.table)).all:
    shared_subgroup(D8, s.elems)
subgroup_lattice(D8)
subgroup_lattice(C42)
for G in (D8, C42):
    for pair in posets.normal_commuting_pairs(G):
        for s in pair:
            assert s is shared_subgroup(G, s.elems), s
    for b in classify.covering_basis(G):
        for s in b.middles()[0] + b.middles()[1]:
            assert s is shared_subgroup(G, s.elems), s
"""


def test_lattice_pairs_and_class_middles_are_the_shared_subgroups():
    # A fresh process, so that which of shared_subgroup and
    # subgroup_lattice makes a subgroup first is set by the script.
    src = os.path.dirname(os.path.dirname(sbw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SHARED_SUBGROUPS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_subgroup_checks_closure():
    G = cg("C4")
    with pytest.raises(NotSubgroup):
        G.subgroup((0, 1))
    H = G.subgroup((0, 2))
    assert H.order == 2


def test_generated_subgroup_closes_generators():
    Q8 = cg("Q8")
    H = generated_subgroup(Q8, [1])
    assert H.order == 4
    assert generated_subgroup(Q8, [1, 4]).order == 8


def test_quotient_orders_and_normality():
    C4 = cg("C4")
    Qg, pi = quotient(C4, C4.subgroup((0, 2)))
    assert Qg.order == 2
    assert pi.images[0] == 0
    S3 = cg("S3")
    with pytest.raises(NotNormal):
        quotient(S3, S3.subgroup((0, 1)))
    Qg, _ = quotient(S3, generated_subgroup(S3, [4]))
    assert Qg.order == 2


def test_normal_subgroups_of_s3():
    S3 = cg("S3")
    orders = sorted(N.order for N in normal_subgroups(S3))
    assert orders == [1, 3, 6]


def test_double_cosets_partition_the_group():
    S3 = cg("S3")
    A = S3.subgroup((0, 1))
    reps = double_cosets(A, S3, A)
    assert reps == [0, 2]
    covered = set()
    for t in reps:
        coset = {S3.mul(S3.mul(a, t), b) for a in A.elems for b in A.elems}
        assert not (covered & coset)
        covered |= coset
    assert covered == set(range(6))
    with pytest.raises(MixedParents):
        double_cosets(A, cg("C6"), A)


def test_product_set_sizes():
    D8 = cg("D8")
    A = generated_subgroup(D8, [2])
    B = generated_subgroup(D8, [1])
    meet = len(set(A.elems) & set(B.elems))
    assert product_set(A, B).order == A.order * B.order // meet


def test_direct_product_metadata_round_trips():
    G, H = cg("S3"), cg("C2")
    X = direct_product(G, H)
    assert X.order == 12
    assert X.factors[0].digest == G.digest
    for g in range(G.order):
        for h in range(H.order):
            x = X.pair(g, h)
            assert divmod(x, H.order) == (g, h)
    a = X.pair(1, 1)
    b = X.pair(2, 0)
    assert divmod(X.mul(a, b), H.order) == (G.mul(1, 2), H.mul(1, 0))


def test_direct_product_tables_pass_the_full_group_check():
    # direct_product builds its Group without validation, on the argument
    # that a product of group tables is a group table; the full check
    # must accept each product it builds.
    small = [cg(gid) for gid in ALL_IDS]
    products = [direct_product(G, H) for G in small for H in small]
    C2 = cg("C2")
    products.append(direct_product(direct_product(C2, C2), C2))
    given = group_from_json({"perm_gens": [[1, 2, 0], [1, 0, 2]],
                             "name": "J"})
    products += [direct_product(given, cg("C4")),
                 direct_product(cg("Q8"), given)]
    assert len(products) == 14 * 14 + 3
    for X in products:
        G, H = X.factors
        assert X.order == G.order * H.order
        _validate_table(X.table)


def test_perm_gens_build_symmetric_group():
    G = group_from_perm_gens([(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    assert len(conjugacy_classes(G)) == 3


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=16))
def test_cyclic_automorphism_count_is_euler_phi(n):
    assert automorphism_count(cyclic(n)) == _phi(n)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_generated_subgroups_satisfy_lagrange(data):
    gid = data.draw(st.sampled_from(("C6", "S3", "D8", "Q8", "C2xC2xC2")))
    G = cg(gid)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    H = generated_subgroup(G, gens)
    assert G.order % H.order == 0
    elems = set(H.elems)
    assert all(G.mul(a, b) in elems for a in elems for b in elems)


def test_isomorphism_search_leaves_no_reference_cycle():
    # The backtracking search calls itself through its closure cell; an
    # uncached call must break that cycle, so reference counting alone
    # frees what the search built, with or without a limit.
    D8, C6 = dihedral(8), cyclic(6)
    gc.collect()
    gc.disable()
    try:
        assert len(isomorphisms(D8, D8)) == 8
        assert len(isomorphisms(C6, C6, limit=1)) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()
