"""Sections of groups and of direct products, and their invariants."""

import pytest

from sbw import gamma, posets, sections
from sbw.catalog import default_catalog
from sbw.errors import ConditionViolated, NotNormal, NotSubgroup
from sbw.groups import direct_product, generated_subgroup
from sbw.jsonio import section_from_json, section_to_json


def cg(gid):
    return default_catalog().by_id(gid).group


SECTION_COUNTS = {
    "C1": 1, "C2": 3, "C3": 3, "C4": 6, "C2xC2": 12, "C5": 3, "C6": 9,
    "S3": 8, "C7": 3, "C8": 10, "C4xC2": 26, "C2xC2xC2": 66, "D8": 24,
    "Q8": 18,
}


@pytest.mark.parametrize("gid", sorted(SECTION_COUNTS))
def test_frozen_section_class_counts(gid):
    G = cg(gid)
    classes = sections.enumerate_sections(G)
    assert len(classes) == SECTION_COUNTS[gid]
    total = sum(cls.orbit_size for cls in classes)
    pairs = 0
    from sbw.groups import subgroup_lattice
    for T in subgroup_lattice(G).all:
        for S in subgroup_lattice(G).all:
            if set(S.elems) <= set(T.elems) and _normal_in(G, S, T):
                pairs += 1
    # orbit sizes sum to the raw count of pairs S normal in T
    assert total == pairs


def _normal_in(G, S, T):
    s = set(S.elems)
    return all(G.mul(G.mul(t, x), G.inv(t)) in s
               for t in T.elems for x in S.elems)


def test_canonical_section_is_conjugation_invariant():
    X = direct_product(cg("S3"), cg("C2"))
    for cls in sections.enumerate_sections(X):
        for g in range(0, X.order, 3):
            T = tuple(sorted(X.mul(X.mul(g, t), X.inv(g)) for t in cls.T))
            S = tuple(sorted(X.mul(X.mul(g, s), X.inv(g)) for s in cls.S))
            assert sections.canonical_section(X, T, S).key == cls.key


def test_section_constructor_rejects_bad_pairs():
    S3 = cg("S3")
    full = S3.full_subgroup()
    with pytest.raises(NotNormal):
        sections.Section(S3, full, S3.subgroup((0, 1)))
    with pytest.raises(NotSubgroup):
        sections.Section(S3, S3.subgroup((0, 1)), full)
    with pytest.raises(NotSubgroup):
        S3.subgroup((0, 1, 2))


def test_class_keys_separate_equal_tables_with_different_splits():
    # C1 x C2 and C2 x C1 share the same multiplication table, so the key
    # has to remember the factor split to keep compose caches apart.
    C1, C2 = cg("C1"), cg("C2")
    a = sections.enumerate_sections(direct_product(C1, C2))[0]
    b = sections.enumerate_sections(direct_product(C2, C1))[0]
    assert a.ambient.digest == b.ambient.digest
    assert (a.T, a.S) == (b.T, b.S)
    assert a.key != b.key
    assert a.uid != b.uid and a != b
    # The key is still the 4-tuple it was before classes carried ids.
    for cls in (a, b):
        amb = cls.ambient
        assert cls.key == (amb.digest, amb.factor_digests, cls.T, cls.S)
        assert sections.canonical_section(cls.ambient, cls.T, cls.S) is cls


@pytest.mark.parametrize("left,right", [("S3", "C2"), ("D8", "D8"),
                                        ("C2", "Q8")])
def test_section_classes_are_interned(left, right):
    # Classes compare and hash by identity, so every route to a class must
    # reach the one object that enumerate_sections lists for it.
    G, H = cg(left), cg(right)
    X = direct_product(G, H)
    classes = sections.enumerate_sections(X)
    by_pair = {(c.T, c.S): c for c in classes}
    assert len(by_pair) == len(classes)
    perms = [X.conj_perm(g) for g in X.generators()]
    moved = 0
    for cls in classes:
        for perm in perms:
            T = tuple(sorted(perm[x] for x in cls.T))
            S = tuple(sorted(perm[x] for x in cls.S))
            if (T, S) != (cls.T, cls.S):
                assert sections.canonical_section(X, T, S) is cls
                moved += 1
                break
        assert sections.opposite_class(sections.opposite_class(cls)) is cls
        assert section_from_json(section_to_json(cls), X) is cls
    # C2 x Q8 is Hamiltonian: every class there is its own orbit.
    assert moved == sum(c.orbit_size > 1 for c in classes)
    for c in sections.enumerate_sections(direct_product(G, G))[:8]:
        for prod in gamma.class_products(c, classes[:60]):
            for r in prod:
                assert by_pair[(r.T, r.S)] is r
    if G is H:
        for K, P in posets.normal_commuting_pairs(G):
            e = gamma.e_class(G, K, P)
            assert by_pair[(e.T, e.S)] is e


def test_goursat_round_trip_on_every_subgroup():
    X = direct_product(cg("C4"), cg("C2xC2"))
    from sbw.groups import subgroup_lattice
    for U in subgroup_lattice(X).all:
        q = sections.goursat(X, U)
        back = sections.subgroup_from_goursat(X, q)
        assert set(back.elems) == set(U.elems)


def test_goursat_quintuple_of_the_diagonal():
    C2 = cg("C2")
    X = direct_product(C2, C2)
    diag = X.subgroup((0, 3))
    q = sections.goursat(X, diag)
    assert q.P.order == 2 and q.Q.order == 2
    assert q.K.order == 1 and q.L.order == 1


def test_section_quintuples_satisfy_containments():
    X = direct_product(cg("S3"), cg("S3"))
    for cls in sections.enumerate_sections(X)[:40]:
        T, S = cls.subgroups()
        qT, qS = sections.section_quintuples(sections.Section(X, T, S))
        assert set(qS.P.elems) <= set(qT.P.elems)
        assert set(qS.K.elems) <= set(qT.K.elems)
        rebuilt = sections.section_from_goursat_pair(qT, qS)
        assert rebuilt.classify().key == cls.key


def test_mismatched_quintuple_pairs_report_condition_tags():
    X = direct_product(cg("C4"), cg("C2"))
    classes = sections.enumerate_sections(X)
    quints = []
    for c in classes:
        T, S = c.subgroups()
        quints.append(sections.section_quintuples(sections.Section(X, T, S)))
    tags = set()
    for qT, _ in quints[:12]:
        for _, qS in quints[:12]:
            try:
                sec = sections.section_from_goursat_pair(qT, qS)
            except ConditionViolated as exc:
                tags.add(exc.tag)
            else:
                assert set(sec.S.elems) <= set(sec.T.elems)
    assert tags
    assert tags <= {"S3", "S4", "S5", "S6", "S7"}


def test_opposite_class_is_an_involution_and_swaps_sides():
    X = direct_product(cg("S3"), cg("C2"))
    for cls in sections.enumerate_sections(X):
        op = sections.opposite_class(cls)
        assert sections.opposite_class(op).key == cls.key
        assert cls.middles()[0] == op.middles()[1]
        assert cls.middles()[1] == op.middles()[0]


def test_left_and_right_invariants_of_the_q8_d8_section():
    Q8, D8 = cg("Q8"), cg("D8")
    X = direct_product(Q8, D8)
    x, y, a, b = 1, 4, 1, 4
    T = generated_subgroup(X, [X.pair(x, a), X.pair(y, b)])
    S = generated_subgroup(X, [X.pair(x, a)])
    cls = sections.canonical_section(X, T.elems, S.elems)
    p1t, k1t, p1s, k1s = sections.left_invariant(cls)
    q2t, l2t, q2s, l2s = sections.right_invariant(cls)
    assert p1t.order == 8
    assert k1t.elems == generated_subgroup(Q8, [Q8.mul(x, x)]).elems
    assert p1s.elems == generated_subgroup(Q8, [x]).elems
    assert k1s.order == 1
    assert q2t.order == 8
    assert l2t.elems == generated_subgroup(D8, [D8.mul(a, a)]).elems
    assert q2s.elems == generated_subgroup(D8, [a]).elems
    assert l2s.order == 1


def test_covering_classes_have_full_projections_and_trivial_kernels():
    X = direct_product(cg("C4"), cg("C4"))
    n = 0
    for cls in sections.enumerate_sections(X):
        if not sections.is_covering(cls):
            continue
        n += 1
        pT, kT, pS, kS = sections.left_invariant(cls)
        qT, lT, qS, lS = sections.right_invariant(cls)
        assert pT.order == 4 and qT.order == 4
        assert kS.order == 1 and lS.order == 1
    assert n == 14


def test_constrained_sections_find_the_q8_d8_bimodule():
    Q8, D8 = cg("Q8"), cg("D8")
    K = Q8.subgroup((0, 2))
    P = Q8.subgroup((0, 1, 2, 3))
    L = D8.subgroup((0, 2))
    Q = D8.subgroup((0, 1, 2, 3))
    found = sections.constrained_sections(Q8, D8, K, P, L, Q)
    assert found
    for cls in found:
        (mk, mp), (ml, mq) = cls.middles()
        assert (mk.elems, mp.elems) == (K.elems, P.elems)
        assert (ml.elems, mq.elems) == (L.elems, Q.elems)


@pytest.mark.parametrize("gid_g,gid_h", [
    ("C2xC2", "C4"), ("C4", "C2xC2"), ("S3", "S3"), ("C2", "S3"),
    ("C2xC2", "C2xC2"), ("D8", "Q8"), ("Q8", "D8"), ("S3", "C6"),
])
def test_constrained_sections_match_brute_force(gid_g, gid_h):
    G, H = cg(gid_g), cg(gid_h)
    X = direct_product(G, H)
    by_middles = {}
    for cls in sections.enumerate_sections(X):
        if sections.is_covering(cls):
            middles = cls.middles()[0] + cls.middles()[1]
            by_middles.setdefault(tuple(m.elems for m in middles),
                                  []).append(cls)
    for K, P in posets.normal_commuting_pairs(G):
        for L, Q in posets.normal_commuting_pairs(H):
            key = (K.elems, P.elems, L.elems, Q.elems)
            expected = tuple(sorted(by_middles.get(key, ())))
            assert sections.constrained_sections(G, H, K, P, L, Q) \
                == expected, key
            assert sections.has_constrained_section(X, K, P, L, Q) \
                == bool(expected), key


def test_section_classes_share_their_factor_subgroups():
    # Classes hold p1(S), p2(S) and their middles as subgroups of the
    # factors; each distinct one is stored once, not once per class.
    seen = {}
    for cls in sections.enumerate_sections(direct_product(cg("S3"), cg("D8"))):
        subs = cls.rows()[2:] + cls.middles()[0] + cls.middles()[1]
        for sub in subs:
            assert seen.setdefault((id(sub.parent), sub.elems), sub) is sub


def test_star_product_size_of_diagonals():
    C2 = cg("C2")
    X = direct_product(C2, C2)
    diag = X.subgroup((0, 3))
    starred = sections.star(diag, diag)
    assert set(starred.elems) == {0, 3}
