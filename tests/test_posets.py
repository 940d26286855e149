"""Pair posets, Moebius inversion, and the idempotent elements."""

from fractions import Fraction

import pytest

from sbw import gamma, groups, posets
from sbw.catalog import default_catalog
from sbw.errors import NotInPoset


def cg(gid):
    return default_catalog().by_id(gid).group


PAIR_COUNTS = {
    "C1": 1, "C2": 4, "C3": 4, "C4": 9, "C2xC2": 25, "C5": 4, "C6": 16,
    "S3": 6, "C7": 4, "C8": 16, "C4xC2": 64, "C2xC2xC2": 256, "D8": 23,
    "Q8": 23,
}


@pytest.mark.parametrize("gid", sorted(PAIR_COUNTS))
def test_frozen_pair_counts(gid):
    G = cg(gid)
    pairs = posets.normal_commuting_pairs(G)
    assert len(pairs) == PAIR_COUNTS[gid]
    for K, P in pairs:
        kset, pset = set(K.elems), set(P.elems)
        assert all(G.mul(G.mul(g, k), G.inv(g)) in kset
                   for g in range(G.order) for k in K.elems)
        # [K, P] = 1 elementwise
        assert all(G.mul(k, p) == G.mul(p, k)
                   for k in K.elems for p in P.elems)


def test_order_relation_grows_k_and_shrinks_p():
    G = cg("C4")
    one = G.trivial_subgroup()
    c2 = G.subgroup((0, 2))
    full = G.full_subgroup()
    assert posets.pair_leq((one, full), (one, c2))
    assert posets.pair_leq((one, full), (c2, c2))
    assert not posets.pair_leq((c2, full), (one, full))
    assert not posets.pair_leq((one, c2), (one, full))


def leq(poset, i, j):
    """Whether position i lies below position j, read off the up bits."""
    return poset.up[i] >> j & 1 == 1


@pytest.mark.parametrize("gid", ("C4", "S3", "D8"))
def test_join_is_the_least_upper_bound(gid):
    poset = posets.build_poset(cg(gid))
    n = len(poset)
    for x in range(n):
        for y in range(n):
            j = poset.join_index(x, y)
            assert leq(poset, x, j) and leq(poset, y, j)
            for z in range(n):
                if leq(poset, x, z) and leq(poset, y, z):
                    assert leq(poset, j, z)


def test_building_the_poset_compares_no_subgroup_objects(monkeypatch):
    # Joins and the bottom and top pairs are checked as element tuples.
    calls = []
    eq = groups.Subgroup.__eq__
    monkeypatch.setattr(groups.Subgroup, "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    G = groups.Group(cg("C4xC2").table)
    assert len(posets.build_poset(G)) == 64
    assert calls == []


def _brute_mobius(poset):
    """Invert the zeta matrix recursively, independent of the library."""
    elems = range(len(poset))
    mu = {}

    def get(x, y):
        if (x, y) not in mu:
            if x == y:
                mu[(x, y)] = 1
            else:
                mu[(x, y)] = -sum(get(x, z) for z in elems
                                  if leq(poset, x, z) and leq(poset, z, y)
                                  and z != y)
        return mu[(x, y)]

    for x in elems:
        for y in elems:
            if leq(poset, x, y):
                get(x, y)
    return mu


@pytest.mark.parametrize("gid", ("C2", "C4", "S3", "Q8"))
def test_mobius_matches_brute_force_inversion(gid):
    poset = posets.build_poset(cg(gid))
    mob = poset.mobius()
    brute = _brute_mobius(poset)
    assert {k: v for k, v in mob.items() if v} == \
        {k: v for k, v in brute.items() if v}


@pytest.mark.parametrize("gid", ("C2", "C4", "S3"))
def test_e_recovers_from_f_by_summing_upward(gid):
    G = cg(gid)
    pairs = posets.normal_commuting_pairs(G)
    poset = posets.build_poset(G)
    fs = [posets.f_idempotent(G, p) for p in pairs]
    for x, pair in enumerate(pairs):
        acc = gamma.zero(G, G)
        for y, f in enumerate(fs):
            if leq(poset, x, y):
                acc = acc + f
        assert acc.coeffs == posets.e_idempotent(G, pair).coeffs


def chained_f(G, pair):
    """f_(K,P) by a chain of element additions, sum of mu * e_(L,Q) over
    the (L,Q) >= (K,P), as ``f_idempotent`` once built it."""
    poset = posets.build_poset(G)
    i = poset.index[pair]
    mob = poset.mobius()
    out = gamma.zero(G, G)
    for j in range(len(poset)):
        if leq(poset, i, j):
            L, Q = poset.elements[j]
            out = out + mob[(i, j)] * gamma.e_idempotent(G, L, Q)
    return out


@pytest.mark.parametrize("gid", [gid for gid in default_catalog().ids()
                                 if cg(gid).order <= 8])
def test_f_idempotent_matches_the_chain_of_additions(gid):
    G = cg(gid)
    for pair in posets.normal_commuting_pairs(G):
        f, ref = posets.f_idempotent(G, pair), chained_f(G, pair)
        assert f.den == ref.den
        assert list(f.nums.items()) == list(ref.nums.items())


def test_idempotents_require_pairs_from_the_poset():
    S3 = cg("S3")
    c2 = S3.subgroup((0, 1))   # not normal
    with pytest.raises(NotInPoset):
        posets.f_idempotent(S3, (c2, S3.full_subgroup()))


def test_e_elements_are_idempotent():
    G = cg("C6")
    for p in posets.normal_commuting_pairs(G):
        e = posets.e_idempotent(G, p)
        assert gamma.compose(e, e).coeffs == e.coeffs
        (coeff,) = set(e.coeffs.values())
        assert coeff == Fraction(1, G.order // p[1].order)


def class_idempotents(G, partition):
    """Per linkage class, the sums (e_class, f_class) over its members.

    The partition must cover the poset of G exactly once.
    """
    poset = posets.build_poset(G)
    seen = set()
    for block in partition:
        for pair in block:
            i = poset.index[pair]
            assert i not in seen, "blocks overlap"
            seen.add(i)
    assert len(seen) == len(poset), "blocks do not cover the poset"
    out = {}
    for block in partition:
        e_sum = gamma.zero(G, G)
        f_sum = gamma.zero(G, G)
        for pair in block:
            e_sum = e_sum + posets.e_idempotent(G, pair)
            f_sum = f_sum + posets.f_idempotent(G, pair)
        out[tuple(sorted(block, key=lambda kp: (kp[0].elems, kp[1].elems)))] = \
            (e_sum, f_sum)
    return out


def test_class_idempotents_sum_to_identity():
    G = cg("S3")
    part = [[p] for p in posets.normal_commuting_pairs(G)]
    out = class_idempotents(G, part)
    total_f = gamma.zero(G, G)
    for _e_sum, f_sum in out.values():
        total_f = total_f + f_sum
    assert total_f.coeffs == gamma.identity_element(G).coeffs
