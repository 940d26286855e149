"""Conjugation crossed modules, their automorphisms, and linkage witnesses."""

import pytest

from sbw import catalog, crossed, gamma, groups, posets, sections
from sbw.errors import AxiomFailed, NotInPoset, NotNormal

CAT = catalog.default_catalog()


def cg(gid):
    return CAT.by_id(gid).group


def cyclic4_subgroup(G):
    lat = groups.subgroup_lattice(G)
    return next(H for H in lat.all
                if H.order == 4
                and max(G.element_orders()[x] for x in H.elems) == 4)


def test_from_pair_shapes():
    G = cg("C4")
    K = G.subgroup((0, 2))
    P = G.full_subgroup()
    cm = crossed.from_pair(G, K, P)
    assert cm.a.order == P.order
    assert cm.b.order == G.order // K.order
    # boundary sends p to its K-coset; the kernel is K itself here
    kernel = [x for x in range(cm.a.order) if cm.boundary.images[x] == 0]
    assert len(kernel) == K.order


def test_from_pair_is_cached():
    G = cg("C4")
    K = G.subgroup((0, 2))
    P = G.full_subgroup()
    assert crossed.from_pair(G, K, P) is crossed.from_pair(G, K, P)


def test_from_pair_rejects_noncommuting_pair():
    G = cg("S3")
    A3 = G.subgroup((0, 3, 4))
    with pytest.raises(NotInPoset):
        crossed.from_pair(G, A3, G.full_subgroup())


def test_axioms_reject_nontrivial_identity_action():
    C2 = cg("C2")
    boundary = groups.Hom(C2, C2, (0, 0), check=False)
    flip = (1, 0)
    with pytest.raises(AxiomFailed):
        crossed.CrossedModule(C2, C2, boundary, (flip, flip))


def test_axioms_reject_broken_peiffer_identity():
    # boundary = identity forces the action to be conjugation; the
    # trivial action on a nonabelian A violates the Peiffer identity.
    S3 = cg("S3")
    ident = tuple(range(6))
    boundary = groups.Hom(S3, S3, ident, check=False)
    with pytest.raises(AxiomFailed):
        crossed.CrossedModule(S3, S3, boundary, tuple(ident for _ in range(6)))


def test_fingerprint_fields():
    G = cg("D8")
    cm = crossed.from_pair(G, groups.center(G), cyclic4_subgroup(G))
    assert cm.fingerprint() == (4, 4, (1, 2, 4, 4), (1, 2, 2, 2), 2, (1, 1, 2))


def test_d8_q8_central_pairs_share_a_fingerprint():
    D8, Q8 = cg("D8"), cg("Q8")
    cm_d = crossed.from_pair(D8, groups.center(D8), cyclic4_subgroup(D8))
    cm_q = crossed.from_pair(Q8, groups.center(Q8), cyclic4_subgroup(Q8))
    assert cm_d.fingerprint() == cm_q.fingerprint()


def test_link_witnesses_lie_in_the_constrained_sections():
    D8, Q8 = cg("D8"), cg("Q8")
    X = groups.direct_product(D8, Q8)
    n = 0
    for K, P in posets.normal_commuting_pairs(D8):
        for L, Q in posets.normal_commuting_pairs(Q8):
            w = crossed.linked(X, K, P, L, Q)
            if w is not None:
                n += 1
                assert w.classify() in \
                    sections.constrained_sections(D8, Q8, K, P, L, Q)
    assert n > 0


def fresh_witness_parts(G, K, P, H, L, Q, m):
    """T and S of the witness section, built from scratch."""
    gk = groups.coset_structure(G, G.full_subgroup(), K)
    hl = groups.coset_structure(H, H.full_subgroup(), L)
    pview = groups.coset_structure(G, P, G.trivial_subgroup())
    qview = groups.coset_structure(H, Q, H.trivial_subgroup())
    alpha, beta = m.alpha.images, m.beta.images
    ho = H.order
    g_cosets, h_cosets = gk.members, hl.members
    t_elems = [g * ho + h for j, hs in enumerate(h_cosets)
               for h in hs for g in g_cosets[beta[j]]]
    pre = {c: j for j, c in enumerate(beta)}
    t_gens = ([x * ho + h_cosets[pre[gk.idx(x)]][0] for x in G.generators()]
              + [k * ho for k in K.generators()] + list(L.generators()))

    def graph(q):
        return pview.rep(alpha[qview.idx(q)]) * ho + q

    return ((tuple(sorted(t_elems)), tuple(t_gens)),
            (tuple(sorted(map(graph, Q.elems))),
             tuple(map(graph, Q.generators()))))


@pytest.mark.parametrize("gid,hid", [("D8", "Q8"), ("S3", "C6"),
                                     ("C2xC2", "C2xC2")])
def test_link_witnesses_match_a_fresh_construction(gid, hid):
    G, H = cg(gid), cg(hid)
    X = groups.direct_product(G, H)
    n = 0
    for K, P in posets.normal_commuting_pairs(G):
        for L, Q in posets.normal_commuting_pairs(H):
            w = crossed.linked(X, K, P, L, Q)
            if w is None:
                continue
            n += 1
            T, S = w.T, w.S
            isos = crossed.iso_search(crossed.from_pair(H, L, Q),
                                      crossed.from_pair(G, K, P))
            assert ((T.elems, T.generators()), (S.elems, S.generators())) \
                in [fresh_witness_parts(G, K, P, H, L, Q, m) for m in isos]
            again = crossed.linked(X, K, P, L, Q)
            assert again.T is T
            assert again.S is S
    assert n > 0


def test_witness_section_is_checked_on_a_memo_hit(monkeypatch):
    D8, Q8 = cg("D8"), cg("Q8")
    Zd, Pd = groups.center(D8), cyclic4_subgroup(D8)
    Zq, Pq = groups.center(Q8), cyclic4_subgroup(Q8)
    X = groups.direct_product(D8, Q8)
    assert crossed.linked(X, Zd, Pd, Zq, Pq) is not None
    monkeypatch.setattr(sections, "is_normal_in", lambda A, B: False)
    with pytest.raises(NotNormal):
        crossed.linked(X, Zd, Pd, Zq, Pq)


def test_d8_q8_central_pairs_are_linked():
    D8, Q8 = cg("D8"), cg("Q8")
    Zd, Pd = groups.center(D8), cyclic4_subgroup(D8)
    Zq, Pq = groups.center(Q8), cyclic4_subgroup(Q8)
    sec = crossed.linked(groups.direct_product(D8, Q8), Zd, Pd, Zq, Pq)
    assert sec is not None
    # T is a graph over the K/L-cosets, S the graph of alpha on Q
    pt, kt, lt, qt = sections.subgroup_parts(sec.ambient, sec.T.elems)
    assert pt.elems == D8.full_subgroup().elems
    assert kt.elems == Zd.elems
    assert lt.elems == Zq.elems
    assert qt.elems == Q8.full_subgroup().elems
    ps, ks, ls, qs = sections.subgroup_parts(sec.ambient, sec.S.elems)
    assert ps.elems == Pd.elems
    assert ks.order == 1
    assert ls.order == 1
    assert qs.elems == Pq.elems
    sec.classify()


def test_unlinked_pairs_give_no_witness():
    C2 = cg("C2")
    one = C2.trivial_subgroup()
    full = C2.full_subgroup()
    assert crossed.linked(groups.direct_product(C2, C2), one, one,
                          full, full) is None


def test_linked_exits_on_an_order_mismatch(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("iso_search ran on mismatched orders")
    monkeypatch.setattr(crossed, "iso_search", no_search)
    C2, C4 = cg("C2"), cg("C4")
    X = groups.direct_product(C2, C4)
    # |G:K| = 2 = |H:L| but |P| = 2 != 4 = |Q|
    assert crossed.linked(X, C2.trivial_subgroup(), C2.full_subgroup(),
                          C4.subgroup((0, 2)), C4.full_subgroup()) is None
    # |P| = 1 = |Q| but |G:K| = 2 != 4 = |H:L|
    assert crossed.linked(X, C2.trivial_subgroup(), C2.trivial_subgroup(),
                          C4.trivial_subgroup(), C4.trivial_subgroup()) is None


def test_iso_search_prunes_on_fingerprint():
    C2, C3 = cg("C2"), cg("C3")
    cm2 = crossed.from_pair(C2, C2.trivial_subgroup(), C2.full_subgroup())
    cm3 = crossed.from_pair(C3, C3.trivial_subgroup(), C3.full_subgroup())
    assert crossed.iso_search(cm2, cm3) == []


def test_aut_out_on_klein_four():
    # (V4, V4, id) with trivial action: automorphisms are the diagonal
    # copies of Aut(V4) = S3, and inner automorphisms are trivial.
    V4 = cg("C2xC2")
    cm = crossed.from_pair(V4, V4.trivial_subgroup(), V4.full_subgroup())
    ao = crossed.aut_out(cm)
    assert len(ao.auts) == 6
    assert set(theta_images(cm, ao)) == {0}
    assert len(ao.out_reps) == 6


def test_aut_out_is_cached():
    V4 = cg("C2xC2")
    cm = crossed.from_pair(V4, V4.trivial_subgroup(), V4.full_subgroup())
    assert crossed.aut_out(cm) is crossed.aut_out(cm)


def theta_images(cm, ao):
    """theta(b) = (action of b on A, conjugation by b) as indices into
    ``ao.auts``, per b in B."""
    index = {(m.alpha.images, m.beta.images): i
             for i, m in enumerate(ao.auts)}
    return tuple(index[(cm.action[b], cm.b.conj_perm(b))]
                 for b in range(cm.b.order))


def test_theta_images_form_the_inner_subgroup():
    Q8 = cg("Q8")
    cm = crossed.from_pair(Q8, groups.center(Q8), cyclic4_subgroup(Q8))
    ao = crossed.aut_out(cm)
    inn = set(theta_images(cm, ao))
    assert len(ao.auts) % len(inn) == 0
    assert len(ao.out_reps) == len(ao.auts) // len(inn)


def _out_by_cayley_table(cm, ao):
    """Least member of each coset of Inn, via Aut's table and its quotient."""
    index = {(m.alpha.images, m.beta.images): i
             for i, m in enumerate(ao.auts)}
    table = [[index[(tuple(f.alpha.images[x] for x in g.alpha.images),
                     tuple(f.beta.images[x] for x in g.beta.images))]
              for g in ao.auts] for f in ao.auts]
    aut = groups.Group(table, name="Aut(cm)")
    out, pi = groups.quotient(aut, aut.subgroup(theta_images(cm, ao)))
    reps = [None] * out.order
    for i in reversed(range(aut.order)):
        reps[pi.images[i]] = i
    return out.order, tuple(reps)


def test_aut_out_matches_the_quotient_of_the_aut_table():
    n = 0
    for entry in CAT.entries:
        G = entry.group
        for K, P in posets.normal_commuting_pairs(G):
            cm = crossed.from_pair(G, K, P)
            ao = crossed.aut_out(cm)
            order, reps = _out_by_cayley_table(cm, ao)
            assert ao.out_reps == reps, (entry.gid, K.elems, P.elems)
            assert order == len(ao.auts) // len(set(theta_images(cm, ao)))
            n += 1
    assert n == 455


def test_theta_realizes_automorphisms_as_sections():
    G = cg("C4")
    one, full = G.trivial_subgroup(), G.full_subgroup()
    cm = crossed.from_pair(G, one, full)
    ao = crossed.aut_out(cm)
    assert len(ao.auts) == 2
    seen = set()
    for m in ao.auts:
        cls = crossed.theta(G, one, full, m).classify()
        seen.add(cls.key)
        if m.alpha.images == tuple(range(G.order)):
            ident_cls, = gamma.identity_element(G).coeffs
            assert cls == ident_cls
    # distinct automorphisms give distinct classes here
    assert len(seen) == len(ao.auts)


def test_theta_rejects_foreign_morphism():
    G = cg("C4")
    one, full = G.trivial_subgroup(), G.full_subgroup()
    V4 = cg("C2xC2")
    cm_v = crossed.from_pair(V4, V4.trivial_subgroup(), V4.full_subgroup())
    foreign = crossed.aut_out(cm_v).auts[0]
    with pytest.raises(Exception):
        crossed.theta(G, one, full, foreign)
