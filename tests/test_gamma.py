"""Composition calculus on the section modules.

The two-term product below was derived by hand on C2 before the
composition code existed; it stays frozen as a regression anchor.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sbw import catalog, gamma, groups, memo, posets, sections
from sbw.errors import MiddleMismatch, SpaceMismatch

CAT = catalog.default_catalog()


def cg(gid):
    return CAT.by_id(gid).group


def gamma_basis(G, H):
    amb = groups.direct_product(G, H)
    return sections.enumerate_sections(amb)


def test_identity_class_is_double_diagonal():
    G = cg("S3")
    ident = gamma.identity_element(G)
    (cls, c), = ident.coeffs.items()
    assert c == 1
    diag = tuple(sorted(g * G.order + g for g in range(G.order)))
    assert cls.T == diag
    assert cls.S == diag


@pytest.mark.parametrize("gid", ["C2", "C4", "S3"])
def test_identity_is_two_sided_neutral(gid):
    G = cg(gid)
    ident = gamma.identity_element(G)
    for cls in gamma_basis(G, G):
        b = gamma.basis_element(G, G, cls)
        assert gamma.compose(ident, b) == b
        assert gamma.compose(b, ident) == b


def test_compose_is_bilinear():
    G = cg("C4")
    basis = gamma_basis(G, G)
    a = gamma.basis_element(G, G, basis[1], 2)
    b = gamma.basis_element(G, G, basis[3], Fraction(-1, 3))
    c = gamma.basis_element(G, G, basis[2], 5)
    left = gamma.compose(a + b, c)
    right = gamma.compose(a, c) + gamma.compose(b, c)
    assert left == right
    left = gamma.compose(c, a - b)
    right = gamma.compose(c, a) - gamma.compose(c, b)
    assert left == right


def test_compose_rejects_mismatched_middle():
    C2, C3 = cg("C2"), cg("C3")
    a = gamma.identity_element(C2)
    b = gamma.identity_element(C3)
    with pytest.raises(MiddleMismatch):
        gamma.compose(a, b)


def test_add_rejects_mismatched_space():
    C2, C3 = cg("C2"), cg("C3")
    with pytest.raises(SpaceMismatch):
        gamma.identity_element(C2) + gamma.identity_element(C3)


def test_zero_absorbs():
    G = cg("S3")
    z = gamma.zero(G, G)
    ident = gamma.identity_element(G)
    assert gamma.compose(z, ident).is_zero()
    assert gamma.compose(ident, z).is_zero()
    assert (ident + z) == ident


def test_e_class_square_doubles():
    # [Delta(C2), 1] composed with itself picks up both cosets of the
    # trivial middle, so the unnormalized class squares to twice itself.
    G = cg("C2")
    one = G.subgroup((0,))
    E = gamma.basis_element(G, G, gamma.e_class(G, one, one))
    assert gamma.compose(E, E) == 2 * E


def test_e_idempotents_are_idempotent_under_compose():
    G = cg("S3")
    for K, P in posets.normal_commuting_pairs(G):
        e = gamma.e_idempotent(G, K, P)
        assert gamma.compose(e, e) == e
        (cls, c), = e.coeffs.items()
        assert c == Fraction(1, P.index)


def test_f_compose_e_regression_on_c2():
    # f_(1,1) o [Delta(C2), 1] on C2, derived by hand.
    G = cg("C2")
    one = G.subgroup((0,))
    E = gamma.basis_element(G, G, gamma.e_class(G, one, one))
    f = posets.f_idempotent(G, (one, one))
    prod = gamma.compose(f, E)
    amb = E.ambient
    expected = {
        sections.canonical_section(amb, (0, 3), (0,)): Fraction(1),
        sections.canonical_section(amb, (0, 1, 2, 3), (0,)): Fraction(-1),
    }
    assert prod.coeffs == expected


def test_opposite_is_an_involution():
    G, H = cg("S3"), cg("C2")
    for cls in gamma_basis(G, H):
        a = gamma.basis_element(G, H, cls, 3)
        back = gamma.opposite_element(gamma.opposite_element(a))
        assert back == a


def test_opposite_reverses_composition():
    G, H = cg("S3"), cg("C2")
    left = gamma_basis(G, H)
    right = gamma_basis(H, G)
    for i in range(0, len(left), 3):
        for j in range(0, len(right), 3):
            a = gamma.basis_element(G, H, left[i])
            b = gamma.basis_element(H, G, right[j])
            lhs = gamma.opposite_element(gamma.compose(a, b))
            rhs = gamma.compose(gamma.opposite_element(b),
                                gamma.opposite_element(a))
            assert lhs == rhs


def test_induction_restriction_on_full_subgroup():
    G = cg("C4")
    full = G.subgroup(range(G.order))
    ident = gamma.identity_element(G)
    assert gamma.induction(G, full) == ident
    assert gamma.restriction(G, full) == ident


def test_inflation_by_trivial_subgroup():
    G = cg("S3")
    triv = G.subgroup((0,))
    assert gamma.inflation(G, triv).coeffs == gamma.identity_element(G).coeffs
    assert gamma.deflation(G, triv).coeffs == gamma.identity_element(G).coeffs


def test_induction_after_restriction_is_subgroup_diagonal():
    # Ind_H o Res_H lands on the class [Delta(H), Delta(H)] inside G x G.
    G = cg("S3")
    H = G.subgroup((0, 1))
    prod = gamma.compose(gamma.induction(G, H), gamma.restriction(G, H))
    amb = prod.ambient
    diag = tuple(sorted(h * G.order + h for h in H.elems))
    expected = gamma.basis_element(
        G, G, sections.canonical_section(amb, diag, diag))
    assert prod == expected


def iso_element(f):
    """Iso(f): Gamma(G, H) class of the graph of an isomorphism f: H -> G."""
    assert f.is_bijective()
    H, G = f.source, f.target
    ambient = groups.direct_product(G, H)
    graph = tuple(sorted(f.images[h] * H.order + h for h in range(H.order)))
    return gamma.basis_element(
        G, H, sections.canonical_section(ambient, graph, graph))


def test_iso_element_of_identity_map():
    G = cg("S3")
    f = groups.Hom(G, G, range(G.order))
    assert iso_element(f) == gamma.identity_element(G)


def test_iso_elements_compose_like_maps():
    # conjugation by a transposition is an automorphism of S3
    G = cg("S3")
    g = 3
    images = [G.mul(G.mul(g, x), G.inv(g)) for x in range(G.order)]
    f = groups.Hom(G, G, images)
    a = iso_element(f)
    assert gamma.compose(a, iso_element(f.inverse())) \
        == gamma.identity_element(G)


def test_factorize_recovers_every_class():
    G, H = cg("S3"), cg("C2")
    classes = gamma_basis(G, H)
    assert len(classes) == 31
    for cls in classes:
        chain = gamma.factorize(cls)
        assert len(chain) == 5
        middle = chain[2]
        (mid_cls, c), = middle.coeffs.items()
        assert c == 1
        assert sections.is_covering(mid_cls)
        out = gamma.compose_chain(chain)
        assert out.coeffs == {cls: Fraction(1)}


def reference_product(a, b):
    """The sum in the gamma module docstring, built from Subgroup objects,
    as (class, multiplicity) items in order of first appearance."""
    _, H = a.ambient.factors
    Ta, Sa = a.subgroups()
    Tb, Sb = b.subgroups()
    p2sa = sections.subgroup_parts(a.ambient, a.S)[3]
    p1sb = sections.subgroup_parts(b.ambient, b.S)[0]
    out = {}
    for t in groups.double_cosets(p2sa, H, p1sb):
        T = sections.star(Ta, sections.conj_left(t, Tb))
        S = sections.star(Sa, sections.conj_left(t, Sb))
        cls = sections.canonical_section(T.parent, T.elems, S.elems)
        out[cls] = out.get(cls, 0) + 1
    return list(out.items())


def test_class_kernel_matches_the_definition_over_a_nonabelian_middle():
    # S3 in the middle makes the (t,1) twist act nontrivially.
    left = gamma_basis(cg("C2"), cg("S3"))
    right = gamma_basis(cg("S3"), cg("C2"))
    for a in left:
        for b in right:
            assert list(gamma.compose_classes(a, b).items()) == \
                reference_product(a, b)


def test_class_kernel_matches_the_definition_with_rows_wider_than_a_byte():
    # A middle group of order 12 gives row bitmasks above 255.
    G, H = cg("C2"), groups.dihedral(12)
    left = gamma_basis(G, H)[::5]
    right = gamma_basis(H, G)[::5]
    for a in left:
        for b in right:
            assert list(gamma.compose_classes(a, b).items()) == \
                reference_product(a, b)


def test_class_kernel_matches_the_definition_on_e_classes():
    G = cg("C2xC2")
    ecls = [gamma.e_class(G, K, P)
            for K, P in posets.normal_commuting_pairs(G)]
    for a in ecls:
        for b in ecls:
            assert list(gamma.compose_classes(a, b).items()) == \
                reference_product(a, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_compose_is_associative(data):
    G, H = cg("S3"), cg("C2")
    ab = gamma_basis(G, H)
    bc = gamma_basis(H, H)
    ca = gamma_basis(H, G)
    a = gamma.basis_element(G, H, data.draw(st.sampled_from(ab)))
    b = gamma.basis_element(H, H, data.draw(st.sampled_from(bc)))
    c = gamma.basis_element(H, G, data.draw(st.sampled_from(ca)))
    left = gamma.compose(gamma.compose(a, b), c)
    right = gamma.compose(a, gamma.compose(b, c))
    assert left == right


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_compose_multiplicities_are_nonnegative_integers(data):
    G, H = cg("C4"), cg("S3")
    a_cls = data.draw(st.sampled_from(gamma_basis(G, H)))
    b_cls = data.draw(st.sampled_from(gamma_basis(H, G)))
    out = gamma.compose_classes(a_cls, b_cls)
    assert out
    for mult in out.values():
        assert isinstance(mult, int) and mult > 0


def naive_compose(a, b):
    """compose(a, b) as the bilinear sum of class products, term by term."""
    acc = {}
    for ca, x in a.coeffs.items():
        for cb, y in b.coeffs.items():
            for cls, mult in gamma.compose_classes(ca, cb).items():
                acc[cls] = acc.get(cls, 0) + x * y * mult
    return {cls: q for cls, q in acc.items() if q}


def colliding_triples(left, right):
    """(a, b1, b2) with b1 != b2 and equal class products a.b1 == a.b2."""
    out = []
    for a in left:
        seen = {}
        for b in right:
            prod = frozenset(gamma.compose_classes(a, b).items())
            if prod in seen:
                out.append((a, seen[prod], b))
            else:
                seen[prod] = b
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_compose_matches_the_naive_bilinear_sum(data):
    G, H, K = cg("S3"), cg("C2"), cg("C2")
    left, right = gamma_basis(G, H), gamma_basis(H, K)
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                      st.integers(1, 6))
    a = gamma.GammaElement(G, H, data.draw(st.dictionaries(
        st.sampled_from(left), coeff, min_size=1, max_size=4)))
    b = gamma.GammaElement(H, K, data.draw(st.dictionaries(
        st.sampled_from(right), coeff, min_size=1, max_size=4)))
    # a.b1 - a.b2 cancels to zero inside compose's accumulation.
    cls_a, b1, b2 = data.draw(st.sampled_from(colliding_triples(left, right)))
    q = data.draw(coeff)
    cancel = (gamma.basis_element(H, K, b1, q)
              - gamma.basis_element(H, K, b2, q))
    assert not cancel.is_zero()
    assert gamma.compose(gamma.basis_element(G, H, cls_a, q),
                         cancel).is_zero()
    before = (dict(a.coeffs), dict(b.coeffs))
    for right_elt in (b, b + cancel):
        out = gamma.compose(a, right_elt)
        assert out.coeffs == naive_compose(a, right_elt)
        assert all(type(c) is Fraction and c for c in out.coeffs.values())
    assert gamma.compose(a, b - b).is_zero()
    # The same objects again, b also as a left operand.
    for left_elt, right_elt in ((a, b), (b, b), (a, b), (b, b)):
        assert gamma.compose(left_elt, right_elt).coeffs == \
            naive_compose(left_elt, right_elt)
    assert (a.coeffs, b.coeffs) == before
    for elt in (a, b):
        assert {cls: Fraction(n, elt.den) for cls, n in elt.nums.items()} \
            == elt.coeffs


def fraction_sum(*terms):
    """The zero-free Fraction dict of sum q * {cls: c} over (q, dict) terms,
    in order of first appearance."""
    acc = {}
    for q, coeffs in terms:
        for cls, c in coeffs.items():
            acc[cls] = acc.get(cls, 0) + q * Fraction(c)
    return {cls: c for cls, c in acc.items() if c}


def assert_integer_form(elt, ref):
    """elt is in lowest terms over one denominator and equals ref."""
    assert type(elt.den) is int and elt.den > 0
    assert all(type(n) is int and n for n in elt.nums.values())
    assert gcd(elt.den, *elt.nums.values()) == 1
    assert all(type(c) is Fraction for c in elt.coeffs.values())
    assert elt.coeffs == ref


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_integer_form_matches_fraction_arithmetic(data):
    G, H = cg("S3"), cg("C2")
    left, right = gamma_basis(G, H), gamma_basis(H, G)
    coeff = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))

    def draw(classes):
        return data.draw(st.dictionaries(st.sampled_from(classes), coeff,
                                         max_size=6))
    da, db, dc = draw(left), draw(left), draw(right)
    q = data.draw(coeff)
    a, b = gamma.GammaElement(G, H, da), gamma.GammaElement(G, H, db)
    c = gamma.GammaElement(H, G, dc)
    for elt, ref in ((a, fraction_sum((1, da))), (c, fraction_sum((1, dc))),
                     (a + b, fraction_sum((1, da), (1, db))),
                     (a - b, fraction_sum((1, da), (-1, db))),
                     (q * a, fraction_sum((q, da))),
                     (a * q, fraction_sum((q, da)))):
        assert_integer_form(elt, ref)
        assert list(elt.coeffs) == list(ref)
    assert_integer_form(gamma.compose(a, c), naive_compose(a, c))
    assert_integer_form(gamma.compose(c, b), naive_compose(c, b))
    assert (a == b) == (fraction_sum((1, da)) == fraction_sum((1, db)))
    for same in (gamma.GammaElement(G, H, dict(reversed(da.items()))),
                 (a + b) - b, -(-a)):
        assert same == a and hash(same) == hash(a)
    assert a != c and gamma.zero(G, H) != gamma.zero(H, G)


def test_row_sum_memo_equals_the_bilinear_sum():
    G, H = cg("S3"), cg("C2")
    left, right = gamma_basis(G, H), gamma_basis(H, H)
    B = gamma.GammaElement(H, H, {right[1]: Fraction(3, 2), right[4]: -2,
                                  right[7]: Fraction(1, 3), right[9]: 5})
    before = dict(B.coeffs)
    a1 = gamma.GammaElement(G, H, {cls: Fraction(i + 1, 2 * i + 3)
                                   for i, cls in enumerate(left[2:8])})
    # The same classes as a1 inserted in reverse order, so a row memo keyed
    # by position instead of class id would hand a3 a1's rows.
    a3 = gamma.GammaElement(G, H, {cls: a1.coeffs[cls]
                                   for cls in reversed(list(a1.coeffs))})
    a2 = gamma.GammaElement(H, H, {right[0]: 2, right[5]: Fraction(-1, 4),
                                   right[9]: 1})
    one = gamma.basis_element(H, H, right[3], -3)
    operands = (a1, a2, a3, one)
    for _ in range(2):
        for a in operands:
            assert gamma.compose(a, B).coeffs == naive_compose(a, B)
    assert B.coeffs == before
    # Rows are stored for the multi-class operands only.
    stored = {cls.uid for a in (a1, a2) for cls in a.coeffs}
    assert set(B._row_sums) == stored
    fresh = B + gamma.zero(H, H)
    assert fresh is not B and fresh._row_sums is None
    for a in operands:
        assert gamma.compose(a, fresh).coeffs == naive_compose(a, B)
    assert set(fresh._row_sums) == stored


def test_class_product_matches_the_memoized_product_on_a_gamma_set():
    G = cg("D8")
    K = G.subgroup(groups.center(G).elems)
    P = G.subgroup((0,))
    found = sections.constrained_sections(G, G, K, P, K, P)
    assert len(found) == 6
    for a in found:
        for b in found:
            fresh = gamma.class_product(a, b)
            assert list(fresh.items()) == \
                list(gamma.compose_classes(a, b).items())


def assert_batch_matches_the_definition(left, right):
    for a in left:
        batch = gamma.class_products(a, right)
        assert len(batch) == len(right)
        for b, prod in zip(right, batch):
            assert list(prod.items()) == reference_product(a, b)


def test_batched_kernel_matches_the_definition_on_every_pair():
    C2xS3 = gamma_basis(cg("C2"), cg("S3"))
    S3xC2 = gamma_basis(cg("S3"), cg("C2"))
    assert_batch_matches_the_definition(C2xS3, S3xC2)
    assert_batch_matches_the_definition(S3xC2, C2xS3)


def test_batched_kernel_matches_the_definition_with_rows_wider_than_a_byte():
    G, H = cg("C2"), groups.dihedral(12)
    assert_batch_matches_the_definition(gamma_basis(G, H)[::5],
                                        gamma_basis(H, G))


def test_batched_kernel_rejects_another_middle_inside_a_batch():
    a = gamma_basis(cg("C2"), cg("S3"))[-1]
    right = (gamma_basis(cg("S3"), cg("C2"))[:3]
             + gamma_basis(cg("C3"), cg("C2"))[:1])
    with pytest.raises(MiddleMismatch):
        gamma.class_products(a, right)


def test_twist_memo_belongs_to_each_middle_group():
    # Equal tables make equal groups; each keeps its own double cosets.
    table = cg("S3").table
    H1, H2 = groups.Group(table, name="A"), groups.Group(table, name="B")
    twists = []
    for H in (H1, H2):
        A, B = H.subgroup((0, 1)), H.subgroup((0, 2))
        twists.append(gamma._twists(H, A, B))
        assert sum(c for _, c in twists[-1]) == \
            len(groups.double_cosets(A, H, B))
        assert list(memo.table(H, "twists")) == [(A.elems, B.elems)]
    assert twists[0] == twists[1]
    assert memo.table(H1, "twists") is not memo.table(H2, "twists")


def forget_products(a, bs):
    """Drop the memoized products a o b, so that compose_row misses; returns
    the memo, which maps a.uid to {b.uid: product}."""
    table = memo.table(None, "compose_classes")
    for b in bs:
        table.get(a.uid, {}).pop(b.uid, None)
    return table


def assert_row_matches_the_kernel(left, right):
    for a in left:
        forget_products(a, right)
        row = gamma.compose_row(a, right)
        assert [list(p.items()) for p in row] == \
            [list(gamma.class_product(a, b).items()) for b in right]
        # The memo now holds the row: compose_classes hands back its dicts.
        known = memo.table(None, "compose_classes")[a.uid]
        for b, prod in zip(right, row):
            assert known[b.uid] is prod
            assert gamma.compose_classes(a, b) is prod


def test_memoized_row_matches_the_kernel_on_every_pair():
    C2xS3 = gamma_basis(cg("C2"), cg("S3"))
    S3xC2 = gamma_basis(cg("S3"), cg("C2"))
    assert_row_matches_the_kernel(C2xS3, S3xC2)
    assert_row_matches_the_kernel(S3xC2, C2xS3)


def test_memoized_row_mixes_hits_and_misses():
    a = gamma_basis(cg("C2"), cg("S3"))[7]
    right = gamma_basis(cg("S3"), cg("C2"))
    forget_products(a, right)
    hits = {k: gamma.compose_classes(a, right[k])
            for k in range(0, len(right), 2)}
    row = gamma.compose_row(a, right)
    assert [list(p.items()) for p in row] == \
        [list(gamma.class_product(a, b).items()) for b in right]
    for k, prod in hits.items():
        assert row[k] is prod
    for b, prod in zip(right, row):
        assert gamma.compose_classes(a, b) is prod


def test_memoized_row_stores_nothing_when_the_batch_fails():
    a = gamma_basis(cg("C2"), cg("S3"))[-1]
    right = (gamma_basis(cg("S3"), cg("C2"))[:3]
             + gamma_basis(cg("C3"), cg("C2"))[:1])
    table = forget_products(a, right)
    with pytest.raises(MiddleMismatch):
        gamma.compose_row(a, right)
    assert not [b for b in right if b.uid in table.get(a.uid, {})]
