"""Covering bases, linkage, matrix shape, reduced pairs, and the seed table.

Every number in the frozen dictionaries below was computed twice: once by
the library and once by a throwaway script over raw subgroup enumerations.
They guard against silent regressions in the canonical-form machinery.
"""

import dataclasses

import pytest

from sbw import catalog, classify, crossed, gamma, groups, posets, sections
from sbw.errors import AxiomFailed, DecompositionMismatch, NotInPoset

CAT = catalog.default_catalog()

COVERING_DIMS = {
    "C1": 1, "C2": 4, "C3": 7, "C4": 14, "C2xC2": 118, "C5": 13,
    "C6": 28, "S3": 6, "C7": 19, "C8": 44, "C4xC2": 384,
    "C2xC2xC2": 21232, "D8": 61, "Q8": 101,
}

PAIR_COUNTS = {
    "C1": 1, "C2": 4, "C3": 4, "C4": 9, "C2xC2": 25, "C5": 4,
    "C6": 16, "S3": 6, "C7": 4, "C8": 16, "C4xC2": 64,
    "C2xC2xC2": 256, "D8": 23, "Q8": 23,
}

BLOCK_COUNTS = {
    "C1": 1, "C2": 4, "C3": 4, "C4": 9, "C2xC2": 10, "C5": 4,
    "C6": 16, "S3": 6, "C7": 4, "C8": 16, "C4xC2": 32,
    "C2xC2xC2": 20, "D8": 16, "Q8": 13,
}

MATRIX_DIMS = {
    "C2": [1, 1, 1, 1],
    "C3": [1, 2, 2, 2],
    "C4": [1, 1, 1, 1, 2, 2, 2, 2, 2],
    "C2xC2": [1, 6, 6, 6, 9, 9, 9, 18, 18, 36],
    "C5": [1, 4, 4, 4],
    "S3": [1, 1, 1, 1, 1, 1],
    "C6": [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    "C7": [1, 6, 6, 6],
    "C8": [1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4],
    "C4xC2": [1, 4, 6, 6, 6, 6, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 9,
              16, 16, 16, 16, 16, 16, 16, 25, 32, 32, 32],
    "D8": [1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 6, 6, 8, 9, 9],
    "Q8": [1, 1, 6, 6, 6, 6, 6, 6, 9, 9, 9, 18, 18],
}

# gid -> (covering_dim, essential_dim, simple_count)
ESSENTIAL = {
    "C2": (4, 3, 3),
    "C3": (7, 6, 6),
    "C4": (14, 11, 11),
    "C2xC2": (118, 63, 14),
    "S3": (6, 4, 4),
}

# gid -> (full_dim, predicted_dim, span_rank, essential_dim)
ORACLE = {
    "C2": (12, 9, 9, 3),
    "C3": (15, 9, 9, 6),
    "C4": (69, 58, 58, 11),
    "C2xC2": (513, 450, 450, 63),
    "S3": (88, 84, 84, 4),
}

REDUCED_CENSUS = {
    ("Reduced", "KleP"): 174,
    ("NotReduced", "PltK"): 113,
    ("NotReduced", "PKeqG"): 120,
    ("NotReduced", "NecessaryViolated"): 48,
}


def cg(gid):
    return CAT.by_id(gid).group


def test_covering_dims_match_frozen_census():
    for gid, dim in COVERING_DIMS.items():
        basis = classify.covering_basis(cg(gid))
        assert len(basis) == dim, gid


def test_covering_classes_are_covering_and_canonically_ordered():
    G = cg("C4")
    basis = classify.covering_basis(G)
    keys = [c.sort_key() for c in basis]
    assert keys == sorted(keys)
    for cls in basis:
        assert sections.is_covering(cls)
        (K, P), (L, Q) = cls.middles()
        assert cls in sections.constrained_sections(G, G, K, P, L, Q)


def check_covering_closure(basis):
    """Products of covering classes are supported on covering classes: E^c
    is a subalgebra, as ``matrix_decomposition``'s certificate assumes."""
    for a in basis:
        for b in basis:
            for c in gamma.compose_classes(a, b):
                if not sections.is_covering(c):
                    raise AxiomFailed(
                        "covering product left the covering span")
    return True


@pytest.mark.parametrize("gid", list(MATRIX_DIMS))
def test_covering_products_stay_covering(gid):
    basis = classify.covering_basis(cg(gid))
    assert check_covering_closure(basis) is True


def test_pair_and_block_counts_match_frozen_census():
    for gid in PAIR_COUNTS:
        part = classify.linkage_partition(cg(gid))
        assert len(part.pairs) == PAIR_COUNTS[gid], gid
        assert len(part.blocks) == BLOCK_COUNTS[gid], gid


def test_linkage_blocks_partition_the_pairs():
    part = classify.linkage_partition(cg("D8"))
    seen = []
    for bi, block in enumerate(part.blocks):
        for pair in block:
            assert part.block_of[pair] == bi
            seen.append(classify._pair_key(pair))
    assert sorted(seen) == sorted(classify._pair_key(p) for p in part.pairs)
    assert len(seen) == len(set(seen))


def test_linked_pairs_share_a_block():
    Q8 = cg("Q8")
    X = groups.direct_product(Q8, Q8)
    part = classify.linkage_partition(Q8)
    for block in part.blocks:
        K0, P0 = block[0]
        for K, P in block[1:]:
            assert crossed.linked(X, K0, P0, K, P) is not None


def test_linkage_partition_builds_no_product_without_a_linked_pair(
        monkeypatch):
    # No two pairs of C5 are linked, so C5 x C5 (order 25, over the
    # lowered cap) is never built.
    monkeypatch.setenv("SBW_MAX_ORDER", "24")
    part = classify.linkage_partition(groups.cyclic(5))
    assert len(part.blocks) == 4


def test_matrix_decomposition_matches_frozen_dims():
    for gid, dims in MATRIX_DIMS.items():
        rep = classify.matrix_decomposition(cg(gid))
        assert rep.covering_dim == COVERING_DIMS[gid]
        assert sorted(b.dim for b in rep.blocks) == dims, gid
        assert sum(b.dim for b in rep.blocks) == rep.covering_dim
        for b in rep.blocks:
            assert b.dim == b.n * b.n * b.gamma_order


def brute_matrix_decomposition(G):
    """The matrix shape by brute force: each cell f_i b f_j over all of its
    block's classes b (rank |Gamma| on the bimodule classes, and no more
    over all of them), the diagonal maps on all of Gamma x Gamma, and the
    projection b -> b f_block.  The reference for the certificate."""
    basis = classify.covering_basis(G)
    part = classify.linkage_partition(G)
    cindex = {c: i for i, c in enumerate(basis)}

    def as_vector(elt):
        return {cindex[c]: coeff for c, coeff in elt.coeffs.items()}

    by_block = {}
    for cls in basis:
        l0, r0 = cls.middles()
        assert part.block_of[l0] == part.block_of[r0]
        by_block.setdefault(part.block_of[l0], []).append(cls)
    blocks = []
    for bi, members in enumerate(part.blocks):
        gammas = [classify.gamma_group(G, K, P) for K, P in members]
        gsize = gammas[0].order
        assert {gg.order for gg in gammas} == {gsize}
        n = len(members)
        supported = by_block.get(bi, [])
        assert len(supported) == n * n * gsize
        fs = [posets.f_idempotent(G, p) for p in members]
        f_block = sum(fs[1:], fs[0])
        for i in range(n):
            for j in range(n):
                bset = sections.constrained_sections(
                    G, G, *members[i], *members[j])
                assert len(bset) == gsize
                cell = {b: as_vector(gamma.compose(gamma.compose(
                    fs[i], gamma.basis_element(G, G, b)), fs[j]))
                    for b in supported}
                assert classify.rational_rank([cell[b] for b in bset]) \
                    == gsize
                assert classify.rational_rank(list(cell.values())) == gsize
        for gg, fi in zip(gammas, fs):
            images = {x: gamma.compose(gamma.compose(fi, gg.element(x)), fi)
                      for x in gg.classes}
            for x in gg.classes:
                for y in gg.classes:
                    assert gamma.compose(images[x], images[y]) \
                        == images[gg.mul(x, y)]
        proj = [as_vector(gamma.compose(gamma.basis_element(G, G, b),
                                        f_block)) for b in supported]
        assert classify.rational_rank(proj) == len(supported)
        blocks.append(classify.BlockReport(
            members=members, n=n, gamma_order=gsize,
            irreducibles=classify.irr_count(gammas[0]), dim=n * n * gsize))
    assert sum(b.dim for b in blocks) == len(basis)
    return classify.MatrixReport(group=G, covering_dim=len(basis),
                                 blocks=tuple(blocks))


def _same_fields(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


@pytest.mark.parametrize("gid", list(MATRIX_DIMS))
def test_matrix_certificate_matches_brute_force(gid):
    G = cg(gid)
    rep = classify.matrix_decomposition(G)
    brute = brute_matrix_decomposition(G)
    _same_fields(rep, brute)
    assert len(rep.blocks) == len(brute.blocks)
    for block, ref in zip(rep.blocks, brute.blocks):
        _same_fields(block, ref)


@pytest.mark.parametrize("gid", ["C3", "C2xC2", "Q8", "C4xC2"])
def test_matrix_certificate_composes_cells_on_bimodule_classes_only(
        gid, monkeypatch):
    """Per block, 2 n^2 |Gamma| composes for the cells and n^2 |Gamma| for
    the projection; per member, 2 |Gamma| for the diagonal images and
    |Gamma| for each generator of Gamma."""
    G = cg(gid)
    rep = classify.matrix_decomposition(G)  # memoize the basis and Gammas
    expected = 0
    for block in rep.blocks:
        expected += 3 * block.n * block.n * block.gamma_order
        for K, P in block.members:
            gg = classify.gamma_group(G, K, P)
            expected += (2 + len(gg.group.generators())) * gg.order
    real = gamma.compose
    calls = []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(classify.gamma, "compose", counted)
    assert classify.matrix_decomposition(G) == rep
    assert len(calls) == expected


def _faulty_bimodule_sets(monkeypatch, G, fault):
    """Rewrite each bimodule set of G x G that matrix_decomposition reads,
    after a first call has memoized everything else."""
    classify.matrix_decomposition(G)
    real = sections.constrained_sections

    def faulty(X, Y, *pairs):
        bset = real(X, Y, *pairs)
        return fault(bset) if X is G and Y is G else bset

    monkeypatch.setattr(classify.sections, "constrained_sections", faulty)


def test_matrix_decomposition_rejects_a_deficient_cell(monkeypatch):
    # One class repeated |Gamma| times: the right size, but rank 1, which
    # falls short on C3's blocks with |Gamma| = 2.
    G = cg("C3")
    _faulty_bimodule_sets(monkeypatch, G, lambda bset: bset[:1] * len(bset))
    with pytest.raises(DecompositionMismatch, match="deficient rank"):
        classify.matrix_decomposition(G)


def test_matrix_decomposition_rejects_a_wrong_size_bimodule_set(
        monkeypatch):
    G = cg("C2")
    _faulty_bimodule_sets(monkeypatch, G, lambda bset: bset + bset[:1])
    with pytest.raises(DecompositionMismatch, match="bimodule set size"):
        classify.matrix_decomposition(G)


def test_matrix_decomposition_rejects_a_nonmultiplicative_generator(
        monkeypatch):
    # Doubling the first generator's element g gives f (2g) f . f y f =
    # 2 f gy f against f gy f, for every y but the identity.
    G = cg("C3")
    classify.matrix_decomposition(G)
    real = classify.GammaGroup.element

    def doubled(self, cls, coeff=1):
        gens = self.group.generators()
        if gens and cls is self.classes[gens[0]]:
            coeff *= 2
        return real(self, cls, coeff)

    monkeypatch.setattr(classify.GammaGroup, "element", doubled)
    with pytest.raises(DecompositionMismatch, match="not multiplicative"):
        classify.matrix_decomposition(G)


def test_gamma_group_on_klein_four():
    V4 = cg("C2xC2")
    one, full = V4.trivial_subgroup(), V4.full_subgroup()
    gg = classify.gamma_group(V4, one, full)
    assert gg.order == 6
    assert gg.scale == 1
    assert classify.irr_count(gg) == 3
    assert gg.classes[0] == gamma.e_class(V4, one, full)
    for cls in gg.classes:
        assert gg.mul(cls, gg.inverse(cls)) == gg.classes[0]
        elt = gg.element(cls)
        (c, coeff), = elt.coeffs.items()
        assert c == cls and coeff == 1


def test_gamma_group_matches_out_of_the_crossed_module():
    G = cg("D8")
    Z = groups.center(G)
    gg = classify.gamma_group(G, Z, Z)
    ao = crossed.aut_out(crossed.from_pair(G, Z, Z))
    assert gg.order == len(ao.out_reps)


def full_gamma_table(G, K, P):
    """Classes and the n x n table of Gamma_(G,K,P), every product composed."""
    found = sections.constrained_sections(G, G, K, P, K, P)
    e = gamma.e_class(G, K, P)
    classes = (e,) + tuple(c for c in found if c != e)
    index = {c: i for i, c in enumerate(classes)}
    scale = G.order // P.order
    table = []
    for a in classes:
        row = []
        for prod in gamma.class_products(a, classes):
            (c, mult), = prod.items()
            assert mult == scale and c in index
            row.append(index[c])
        table.append(tuple(row))
    return classes, tuple(table)


def test_gamma_tables_match_the_full_product_table():
    count = 0
    for entry in CAT.entries:
        G = entry.group
        for K, P in posets.normal_commuting_pairs(G):
            gg = classify.gamma_group(G, K, P)
            classes, table = full_gamma_table(G, K, P)
            assert gg.classes == classes, (entry.gid, K.elems, P.elems)
            assert gg.group.table == table, (entry.gid, K.elems, P.elems)
            count += 1
    assert count == 455


@pytest.mark.parametrize("fault", ["doubled", "outside"])
def test_gamma_group_checks_every_generator_row(monkeypatch, fault):
    V4 = groups.dihedral(4)     # fresh, so no gamma_group memo holds it
    one, full = V4.trivial_subgroup(), V4.full_subgroup()
    outside = gamma.e_class(V4, full, one)
    real = gamma.class_products
    calls = []

    def faulty(a, bs):
        prods = real(a, bs)
        calls.append(a)
        if len(calls) == 2:     # the first generator after e
            (c, mult), = prods[-1].items()
            prods[-1] = {c: 2 * mult} if fault == "doubled" else {outside: mult}
        return prods

    monkeypatch.setattr(classify.gamma, "class_products", faulty)
    with pytest.raises(AxiomFailed):
        classify.gamma_group(V4, one, full)
    assert len(calls) == 2


def test_gamma_group_rejects_noncommuting_pair():
    G = cg("S3")
    A3 = G.subgroup((0, 3, 4))
    with pytest.raises(NotInPoset):
        classify.gamma_group(G, A3, G.full_subgroup())


def test_reduced_verdicts_on_c2():
    C2 = cg("C2")
    one, full = C2.trivial_subgroup(), C2.full_subgroup()
    expected = {
        ((0,), (0,)): ("Reduced", "KleP"),
        ((0,), (0, 1)): ("Reduced", "KleP"),
        ((0, 1), (0,)): ("NotReduced", "PltK"),
        ((0, 1), (0, 1)): ("Reduced", "KleP"),
    }
    for K in (one, full):
        for P in (one, full):
            st = classify.reduced_status(C2, (K, P), CAT)
            assert (st.verdict, st.rule) == expected[(K.elems, P.elems)]


def test_reduced_rule_census_over_the_catalog():
    census = {}
    for entry in CAT.entries:
        part = classify.linkage_partition(entry.group)
        for pair in part.pairs:
            st = classify.reduced_status(entry.group, pair, CAT)
            key = (st.verdict, st.rule)
            census[key] = census.get(key, 0) + 1
    assert census == REDUCED_CENSUS


def test_essential_reports_match_frozen_values():
    # covering_dim is read lazily; it must still agree with the frozen
    # census and with the sum of n^2 |Gamma| over the linkage classes.
    for gid in CAT.ids():
        rep = classify.essential_report(cg(gid), CAT)
        assert rep.covering_dim == COVERING_DIMS[gid], gid
        assert rep.covering_dim == sum(b.dim for b in rep.blocks), gid
        if gid not in ESSENTIAL:
            continue
        cov, ess, simple = ESSENTIAL[gid]
        assert rep.covering_dim == cov, gid
        assert rep.essential_dim == ess, gid
        assert rep.simple_count == simple, gid
        reduced_dim = sum(b.dim for b in rep.blocks if b.verdict == "Reduced")
        assert reduced_dim == ess
        for b in rep.blocks:
            assert b.verdict in ("Reduced", "NotReduced")


def test_essential_report_and_seeds_never_build_the_covering_basis(
        monkeypatch):
    # Fresh groups, so no memo already holds a report or a basis.
    fresh = catalog.Catalog(
        entries=tuple(catalog.CatalogEntry(gid, G, gid) for gid, G in (
            ("C1", groups.cyclic(1)), ("C2", groups.cyclic(2)),
            ("C3", groups.cyclic(3)), ("C4", groups.cyclic(4)),
            ("S3", groups.symmetric(3)))),
        complete_orders=frozenset(range(1, 4)))

    def refuse(G):
        raise AssertionError(f"covering basis of {G.name} was built")

    monkeypatch.setattr(classify, "covering_basis", refuse)
    reports = {e.gid: classify.essential_report(e.group, fresh)
               for e in fresh.entries}
    assert classify.seeds(fresh).rows
    monkeypatch.undo()
    for gid, rep in reports.items():
        assert rep.covering_dim == COVERING_DIMS[gid], gid


def test_ideal_span_oracle_matches_frozen_values():
    for gid, expected in ORACLE.items():
        rep = classify.ideal_span_oracle(cg(gid), CAT)
        got = (rep.full_dim, rep.predicted_dim, rep.span_rank,
               rep.essential_dim)
        assert got == expected, gid
        assert rep.support_ok and rep.rank_ok and rep.block_sum_ok


def test_ideal_span_oracle_is_gated_by_order():
    with pytest.raises(AxiomFailed):
        classify.ideal_span_oracle(cg("C8"), CAT)


def _distinct_vectors(prods, all_classes) -> list:
    cindex = {c: i for i, c in enumerate(all_classes)}
    return [dict(v) for v in {frozenset((cindex[c], m) for c, m in p.items())
                              for p in prods if p}]


def brute_force_oracle(G, cat):
    """The span oracle by elimination alone: ``rational_rank`` over every
    distinct product, keyed by class index.  Returns the report and the
    number of multi-class products seen."""
    all_classes = sections.enumerate_sections(groups.direct_product(G, G))
    report = classify.essential_report(G, cat)
    predicted = set(classify._predicted_from_report(report))
    prods = []
    for _, H in classify._catalog_groups(cat):
        if H.order < G.order:
            right = sections.enumerate_sections(groups.direct_product(H, G))
            for a in sections.enumerate_sections(groups.direct_product(G, H)):
                prods.extend(gamma.class_products(a, right))
    rank = classify.rational_rank(_distinct_vectors(prods, all_classes))
    support = set().union(*prods)
    return classify.IdealOracleReport(
        group=G, full_dim=len(all_classes), predicted_dim=len(predicted),
        span_rank=rank, essential_dim=len(all_classes) - rank,
        support_ok=support <= predicted, rank_ok=rank == len(predicted),
        block_sum_ok=len(all_classes) - rank == report.essential_dim,
    ), sum(len(p) > 1 for p in prods)


@pytest.mark.parametrize("gid,allow_large", [
    ("C2", False), ("C3", False), ("C4", False), ("C2xC2", False),
    ("S3", False), ("C5", True), ("C6", True), ("C7", True), ("C8", True)])
def test_ideal_span_oracle_certificate_matches_brute_force(gid, allow_large):
    G = cg(gid)
    rep = classify.ideal_span_oracle(G, CAT, allow_large=allow_large)
    brute, mixed = brute_force_oracle(G, CAT)
    assert rep == brute
    # C8 is the one group here with multi-class products (705 of them);
    # the one-class products still cover its support.
    assert (mixed > 0) == (gid == "C8"), mixed


@pytest.mark.parametrize("gid", sorted(ORACLE))
def test_ideal_span_oracle_runs_no_elimination_on_verified_groups(
        gid, monkeypatch):
    def refuse(vectors):
        raise AssertionError(f"{gid} reached rational_rank")

    monkeypatch.setattr(classify, "rational_rank", refuse)
    rep = classify.ideal_span_oracle(cg(gid), CAT)
    assert rep.span_rank == ORACLE[gid][2]


@pytest.mark.parametrize("fused", [False, True])
def test_ideal_span_oracle_falls_back_when_the_cover_falls_short(
        fused, monkeypatch):
    """Rewrite the one-class products m.[c0] (and, if fused, m.[c1]) as
    m.([c0] + [c1]), so that c0 is seen only inside two-class products.
    Unfused, c1 stays in the cover and the rank is unchanged; fused, the
    rank falls by one and the oracle reports the mismatch."""
    G = cg("S3")
    report = classify.essential_report(G, CAT)  # memoized before the patch
    c0, c1 = [c for c in sorted(classify._predicted_from_report(report))
              if not sections.is_covering(c)][:2]
    rewritten = {c0, c1} if fused else {c0}
    real = gamma.class_products
    seen = []

    def products(a, bs):
        out = []
        for p in real(a, bs):
            if len(p) == 1 and set(p) <= rewritten:
                (m,) = p.values()
                p = {c0: m, c1: m}
            out.append(p)
        seen.extend(out)
        return out

    monkeypatch.setattr(classify.gamma, "class_products", products)
    all_classes = sections.enumerate_sections(groups.direct_product(G, G))
    full, predicted = ORACLE["S3"][0], ORACLE["S3"][1]
    if not fused:
        rep = classify.ideal_span_oracle(G, CAT)
        rank = classify.rational_rank(_distinct_vectors(seen, all_classes))
        assert rep.span_rank == rank == predicted
        assert rep.essential_dim == full - rank
        assert rep.support_ok and rep.rank_ok and rep.block_sum_ok
    else:
        with pytest.raises(AxiomFailed) as err:
            classify.ideal_span_oracle(G, CAT)
        rank = classify.rational_rank(_distinct_vectors(seen, all_classes))
        assert rank == predicted - 1
        assert f"support_ok=True rank={rank} predicted={predicted}" in str(
            err.value)


def predicted_ideal_classes(G, cat) -> tuple:
    """Classes of G x G predicted to span the ideal of factorizable maps.

    A class is predicted in the ideal when it is not covering, or when it is
    covering but its middle pair lies in a non-reduced linkage class.
    Requires every linkage class to have a determined status.
    """
    return classify._predicted_from_report(
        classify.essential_report(G, cat))


def test_predicted_ideal_contains_every_noncovering_class():
    C3 = cg("C3")
    predicted = set(predicted_ideal_classes(C3, CAT))
    assert len(predicted) == 9
    amb = groups.direct_product(C3, C3)
    for cls in sections.enumerate_sections(amb):
        if not sections.is_covering(cls):
            assert cls in predicted


def test_transport_between_d8_and_q8():
    D8, Q8 = cg("D8"), cg("Q8")
    Zd, Zq = groups.center(D8), groups.center(Q8)
    Pd = next(H for H in groups.subgroup_lattice(D8).all
              if H.order == 4
              and max(D8.element_orders()[x] for x in H.elems) == 4)
    Pq = next(H for H in groups.subgroup_lattice(Q8).all
              if H.order == 4
              and max(Q8.element_orders()[x] for x in H.elems) == 4)
    check = classify.transport_check((D8, Zd, Pd), (Q8, Zq, Pq))
    assert check["ok"]
    assert check["bijective"] and check["identity"]
    assert check["multiplicative"] and check["class_transport"]


def test_transport_requires_linked_triples():
    C2 = cg("C2")
    one, full = C2.trivial_subgroup(), C2.full_subgroup()
    assert sections.constrained_sections(C2, C2, one, one, full, full) == ()
    with pytest.raises(AxiomFailed):
        classify.transport_check((C2, one, one), (C2, full, full))


def _assert_witnesses_span(row):
    """The witness edges of a merged row connect all of its entries."""
    nodes = {(e.gid, (e.rep[0].elems, e.rep[1].elems)) for e in row.entries}
    root = {v: v for v in nodes}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for gid_a, rep_a, gid_b, rep_b in row.witnesses:
        root[find((gid_a, rep_a))] = find((gid_b, rep_b))
    assert len({find(v) for v in nodes}) == 1


def test_seed_table_over_the_full_catalog():
    table = classify.seeds(CAT)
    assert len(table.rows) == 85
    assert table.gids == CAT.ids()
    merged = {}
    for i, row in enumerate(table.rows):
        assert row.class_id == i
        gids = tuple(sorted({e.gid for e in row.entries}))
        for e in row.entries:
            assert e.group.order == row.order
            assert e.irreducibles == row.entries[0].irreducibles
            assert e.gamma_order == row.entries[0].gamma_order
        if len(gids) > 1:
            merged[gids] = merged.get(gids, 0) + 1
            assert len(row.witnesses) == len(row.entries) - 1
            _assert_witnesses_span(row)
        else:
            assert row.witnesses == ()
    assert merged == {
        ("C2xC2", "C4"): 1,
        ("C2xC2xC2", "C4xC2", "D8", "Q8"): 1,
        ("C2xC2xC2", "C4xC2"): 2,
        ("C4xC2", "C8"): 2,
        ("D8", "Q8"): 2,
    }


def test_seed_table_on_a_restricted_catalog():
    table = classify.seeds(CAT.restrict(2))
    assert len(table.rows) == 4
    per_gid = {}
    for row in table.rows:
        assert len({e.gid for e in row.entries}) == 1
        gid = row.entries[0].gid
        per_gid[gid] = per_gid.get(gid, 0) + 1
    assert per_gid == {"C1": 1, "C2": 3}
