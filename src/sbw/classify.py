"""Covering bases, linkage, Gamma groups, and the seed table.

The covering classes of G x G span a subalgebra whose structure is a direct
sum of matrix rings over the group algebras of the Gamma groups; everything
in this module either builds that decomposition or checks it.  All arithmetic
is exact (integers and fractions.Fraction), and structural identities are
verified rather than assumed: a failed identity raises a typed error instead
of producing a report.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import crossed, gamma, memo, posets, sections
from .errors import (AxiomFailed, DecompositionMismatch, IncompleteCatalog,
                     NotInPoset)
from .groups import (Group, Subgroup, conjugacy_classes, direct_product,
                     intersection, normal_subgroups, product_set)


# -- exact linear algebra over sparse rational vectors ------------------------

def rational_rank(vectors) -> int:
    """Rank over the rationals of sparse vectors given as {key: coeff} dicts.

    Keys must be orderable; coefficients may be ints or Fractions.  The
    pivot rows are kept fully inter-reduced, so one pass per vector
    suffices and pivot keys never collide.
    """
    pivots = {}
    for vec in vectors:
        v = {k: Fraction(c) for k, c in vec.items() if c}
        # pivot rows contain no other pivot keys, so a single sweep over
        # the pivot keys present in v eliminates all of them
        for key in sorted(set(v) & set(pivots)):
            c = v.pop(key, None)
            if not c:
                continue
            for k2, val in pivots[key].items():
                if k2 == key:
                    continue
                nv = v.get(k2, 0) - c * val
                if nv:
                    v[k2] = nv
                else:
                    v.pop(k2, None)
        if not v:
            continue
        key = min(v)
        inv = 1 / v[key]
        row = {k: c * inv for k, c in v.items()}
        for prow in pivots.values():
            c = prow.get(key)
            if c:
                for k2, val in row.items():
                    nv = prow.get(k2, 0) - c * val
                    if nv:
                        prow[k2] = nv
                    else:
                        prow.pop(k2, None)
        pivots[key] = row
    return len(pivots)


# -- covering basis -----------------------------------------------------------

@memo.once
def covering_basis(G: Group) -> tuple:
    """The classes [T, S] of G x G with p1(T) = p2(T) = G and
    k1(S) = k2(S) = 1, sorted.

    These span the subalgebra where neither side of the factorization
    through a proper quotient can shrink the group.  A class found for the
    pairs (K, P), (L, Q) has ``middles()`` = ((K, P), (L, Q)).
    """
    pairs = posets.normal_commuting_pairs(G)
    classes = []
    for (K, P) in pairs:
        for (L, Q) in pairs:
            classes.extend(sections.constrained_sections(G, G, K, P, L, Q))
    classes.sort(key=lambda c: c.sort_key())
    for cls in classes:
        if not sections.is_covering(cls):
            raise AxiomFailed("constrained enumeration produced a "
                              "non-covering class")
    return tuple(classes)


# -- linkage partition of the pair poset --------------------------------------

@dataclass
class LinkagePartition:
    group: Group
    pairs: tuple          # all (K, P) in canonical order
    blocks: tuple         # tuple of tuples of pairs, each sorted
    block_of: dict        # pair -> block index
    leq: tuple            # induced order between blocks, as a boolean matrix


def _pair_key(pair) -> tuple:
    return (pair[0].elems, pair[1].elems)


@memo.once
def linkage_partition(G: Group) -> LinkagePartition:
    # Linkage is an equivalence relation, so comparing with each block's
    # first member suffices; `pairs` is sorted, so every block is sorted
    # and the blocks come out ordered by their first members.  G x G is
    # built, and checked against the cap, only for a linked pair.
    pairs = posets.normal_commuting_pairs(G)
    components = []
    for p in pairs:
        for comp in components:
            rep = comp[0]
            m = crossed.link_iso(*rep, *p)
            if m is not None:
                crossed.link_section(direct_product(G, G), *rep, *p, m)
                comp.append(p)
                break
        else:
            components.append([p])
    blocks = tuple(tuple(comp) for comp in components)
    block_of = {p: i for i, comp in enumerate(blocks) for p in comp}
    n = len(blocks)
    leq = [[False] * n for _ in range(n)]
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            leq[i][j] = any(posets.pair_leq(x, y) for x in bi for y in bj)
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise AxiomFailed("induced order between linkage classes "
                                  "is not antisymmetric")
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise AxiomFailed("induced order between linkage "
                                          "classes is not transitive")
    return LinkagePartition(group=G, pairs=pairs, blocks=blocks,
                            block_of=block_of,
                            leq=tuple(tuple(row) for row in leq))


# -- the groups Gamma_(G,K,P) -------------------------------------------------

@dataclass
class GammaGroup:
    """Classes with both invariants (G, K, P, 1), under normalized product.

    x * y is the unique class in (1/|G:P|) [x][y]; the identity is the class
    of (Delta_K(G), Delta(P)) and sits at table index 0.
    """
    G: Group
    K: Subgroup
    P: Subgroup
    classes: tuple        # classes[0] is the identity
    index: dict           # class -> position
    group: Group          # multiplication table as a validated group
    scale: int            # |G:P|, the normalization of the product

    @property
    def order(self) -> int:
        return len(self.classes)

    def element(self, cls, coeff=1) -> gamma.GammaElement:
        """The normalized algebra element (coeff/|G:P|) [cls]."""
        return gamma.basis_element(self.G, self.G, cls,
                                   Fraction(coeff, self.scale))

    def mul(self, a, b):
        i = self.group.mul(self.index[a], self.index[b])
        return self.classes[i]

    def inverse(self, a):
        return self.classes[self.group.inv(self.index[a])]


def gamma_group(G: Group, K: Subgroup, P: Subgroup) -> GammaGroup:
    """The group Gamma_(G,K,P), its table certified row by row.

    Walking the classes in index order, each class no row reaches yet
    (e first) is a generator g: its row g o b comes from the composition
    kernel, and every entry is checked to be one class of the set with
    multiplicity s = |G:P|.  Every other row is derived by associativity
    of biset composition: for a class c with a known row, the row of
    g o c is b -> g o (c o b), that is row_g[row_c[b]].  Derived entries
    need no check: if c o b = s [d] and g o d = s [f], then with
    g o c = s [h], s (h o b) = g o (c o b) = s^2 [f], so h o b = s [f].
    ``Group`` then validates the whole table (Latin square, identity at
    0, and associativity by Light's test over a generating set, see
    ``groups._validate_table``), which also cross-checks the generator rows;
    opposite classes must be the group inverses, and |Gamma| must equal
    the order of Out of the crossed module.
    """
    cache = memo.table(G, "gamma_group")
    key = (K.elems, P.elems)
    if key in cache:
        return cache[key]
    if not crossed.in_poset(K, P):
        raise NotInPoset("gamma_group needs normal K, P with [K, P] = 1")
    found = sections.constrained_sections(G, G, K, P, K, P)
    e = gamma.e_class(G, K, P)
    if e not in found:
        raise AxiomFailed("identity class missing from its own Gamma set")
    classes = (e,) + tuple(c for c in found if c != e)
    index = {c: i for i, c in enumerate(classes)}
    scale = G.order // P.order
    n = len(classes)
    table = [None] * n
    gens = []
    for i, a in enumerate(classes):
        if table[i] is not None:
            continue
        row = []
        for prod in gamma.class_products(a, classes):
            if len(prod) != 1:
                raise AxiomFailed("Gamma product is not a single class")
            (c, mult), = prod.items()
            if mult != scale or c not in index:
                raise AxiomFailed("Gamma product has the wrong multiplicity "
                                  "or left the class set")
            row.append(index[c])
        table[i] = row
        gens.append(row)
        # Each (generator, reached class) pair is closed exactly once: the
        # new generator against every class reached so far, and each newly
        # reached class against every generator.
        todo = [(row, c) for c in range(n) if table[c] is not None]
        while todo:
            g, c = todo.pop()
            d = g[c]
            if table[d] is None:
                table[d] = [g[x] for x in table[c]]
                todo.extend((h, d) for h in gens)
    group = Group(table, name=f"Gamma({G.name},{len(K.elems)},{len(P.elems)})")
    for i, a in enumerate(classes):
        if group.inv(i) != index[sections.opposite_class(a)]:
            raise AxiomFailed("opposite class is not the group inverse")
    out = len(crossed.aut_out(crossed.from_pair(G, K, P)).out_reps)
    if out != n:
        raise AxiomFailed(f"Gamma order {n} disagrees with Out order {out}")
    gg = GammaGroup(G=G, K=K, P=P, classes=classes, index=index,
                    group=group, scale=scale)
    cache[key] = gg
    return gg


def irr_count(gg: GammaGroup) -> int:
    """Number of irreducibles over a splitting field of characteristic 0."""
    return len(conjugacy_classes(gg.group))


# -- matrix shape of the covering algebra -------------------------------------

@dataclass
class BlockReport:
    members: tuple
    n: int
    gamma_order: int
    irreducibles: int
    dim: int              # n^2 * gamma_order, the covering classes carrying it


@dataclass
class MatrixReport:
    group: Group
    covering_dim: int
    blocks: tuple


def matrix_decomposition(G: Group) -> MatrixReport:
    """Certify dim E^c = sum over linkage classes of n^2 |Gamma| blockwise.

    The argument.  Every e class [Delta_K(G), Delta(P)] is covering, so E^c
    holds every f_i; E^c is a subalgebra (``check_covering_closure`` in the
    classify tests); and sum f_i = 1, f_i f_j = delta_ij f_i (the
    idempotents suite's "Moebius idempotent laws").  Hence
    E^c = (+)_{i,j} f_i E^c f_j: x = sum f_i x f_j, and f_k (.) f_l
    projects onto one summand, so the cell dimensions sum to dim E^c.

    The checks.  Each covering class has linked middles; the Gammas of a
    block share one order; a block holds n^2 |Gamma| classes; each cell
    (i, j) has |Gamma| bimodule classes b, and the f_i b f_j over them have
    rank |Gamma|.  With sum n^2 |Gamma| = dim E^c, every within-block cell
    has dimension exactly |Gamma| and every cross-block cell is 0, so no
    other class needs composing.  The diagonal map x -> f_i x f_i is
    checked multiplicative for x a generator of Gamma against every y; it
    extends to all x by associativity (the mackey suite), the induction of
    ``gamma_group``, and the identity goes to f_i e_i f_i = f_i.  Last,
    b -> b f_block is invertible on the block's classes.  Ranks are taken
    on each product's class-keyed ``nums``: scaling by ``den`` keeps them.
    Raises DecompositionMismatch with context on failure.
    """
    basis = covering_basis(G)
    part = linkage_partition(G)
    by_block = {}
    for cls in basis:
        l0, r0 = cls.middles()
        bl = part.block_of[l0]
        if bl != part.block_of[r0]:
            raise DecompositionMismatch(
                "covering class has unlinked left and right middles")
        by_block.setdefault(bl, []).append(cls)
    blocks = []
    total = 0
    for bi, members in enumerate(part.blocks):
        gammas = [gamma_group(G, K, P) for (K, P) in members]
        orders = {gg.order for gg in gammas}
        if len(orders) != 1:
            raise DecompositionMismatch(
                "linked pairs with different Gamma orders")
        gsize = orders.pop()
        n = len(members)
        supported = by_block.get(bi, [])
        if len(supported) != n * n * gsize:
            raise DecompositionMismatch(
                f"block {members[0]}: {len(supported)} covering classes, "
                f"expected n^2 |Gamma| = {n * n * gsize}")
        fs = [posets.f_idempotent(G, p) for p in members]
        f_block = fs[0]
        for f in fs[1:]:
            f_block = f_block + f
        for i in range(n):
            for j in range(n):
                bset = sections.constrained_sections(
                    G, G, *members[i], *members[j])
                if len(bset) != gsize:
                    raise DecompositionMismatch(
                        f"bimodule set size {len(bset)} != |Gamma| {gsize}")
                cell = [gamma.compose(gamma.compose(
                    fs[i], gamma.basis_element(G, G, b)), fs[j]).nums
                    for b in bset]
                if rational_rank(cell) != gsize:
                    raise DecompositionMismatch(
                        f"cell ({i},{j}) of block {members[0]} has deficient "
                        "rank")
        for gg, fi in zip(gammas, fs):
            images = {x: gamma.compose(gamma.compose(fi, gg.element(x)), fi)
                      for x in gg.classes}
            for g in gg.group.generators():
                x = gg.classes[g]
                for y in gg.classes:
                    if gamma.compose(images[x], images[y]) \
                            != images[gg.mul(x, y)]:
                        raise DecompositionMismatch(
                            "diagonal cell map is not multiplicative at "
                            f"block {members[0]}")
        proj = [gamma.compose(gamma.basis_element(G, G, b), f_block).nums
                for b in supported]
        if rational_rank(proj) != len(supported):
            raise DecompositionMismatch(
                f"projection onto block {members[0]} is singular")
        blocks.append(BlockReport(
            members=members, n=n, gamma_order=gsize,
            irreducibles=irr_count(gammas[0]),
            dim=n * n * gsize))
        total += n * n * gsize
    if total != len(basis):
        raise DecompositionMismatch(
            f"dim E^c = {len(basis)} but block sum is {total}")
    return MatrixReport(group=G, covering_dim=len(basis),
                        blocks=tuple(blocks))


# -- reduced pairs ------------------------------------------------------------

@dataclass(frozen=True)
class ReducedStatus:
    pair: tuple
    verdict: str            # Reduced | NotReduced | Undetermined
    rule: str               # KleP | PltK | PKeqG | NecessaryViolated |
                            # SmallerLinked | Exhausted


def _catalog_groups(catalog):
    """The (gid, Group) pairs of a Catalog (None: the default one), sorted
    by order and id."""
    if catalog is None:
        from .catalog import default_catalog
        catalog = default_catalog()
    return sorted(((e.gid, e.group) for e in catalog.entries),
                  key=lambda t: (t[1].order, t[0]))


def reduced_status(G: Group, pair, catalog=None) -> ReducedStatus:
    """Decide whether a pair survives in the essential quotient.

    Rules fire in a fixed order; the catalog is consulted last, searching
    for a linked pair in a strictly smaller group.  A pair surviving every
    rule is Undetermined, never assumed reduced.
    """
    K, P = pair
    if K.elem_set <= P.elem_set:
        return ReducedStatus(pair=pair, verdict="Reduced", rule="KleP")
    if P.elem_set < K.elem_set:
        return ReducedStatus(pair=pair, verdict="NotReduced", rule="PltK")
    if product_set(K, P).order == G.order:
        return ReducedStatus(pair=pair, verdict="NotReduced", rule="PKeqG")
    for N in normal_subgroups(G):
        if 1 < N.order and N.elem_set <= K.elem_set \
                and intersection(P, N).order == 1:
            return ReducedStatus(pair=pair, verdict="NotReduced",
                                 rule="NecessaryViolated")
    groups = _catalog_groups(catalog)
    for _, H in groups:
        if H.order >= G.order:
            continue
        X = direct_product(G, H)
        for (L, Q) in posets.normal_commuting_pairs(H):
            if crossed.linked(X, K, P, L, Q) is not None:
                return ReducedStatus(pair=pair, verdict="NotReduced",
                                     rule="SmallerLinked")
    present = {H.order for _, H in groups if H.order < G.order}
    missing = [m for m in range(1, G.order) if m not in present]
    if missing:
        raise IncompleteCatalog(
            f"no catalog group of order {missing[0]} while deciding "
            f"a pair in {G.name}")
    return ReducedStatus(pair=pair, verdict="Undetermined", rule="Exhausted")


# -- essential reports --------------------------------------------------------

@dataclass
class EssentialBlock:
    members: tuple
    n: int
    gamma_order: int
    irreducibles: int
    dim: int
    verdict: str
    rule: str


@dataclass
class EssentialReport:
    """The essential quotient of G: a verdict per linkage class.

    ``covering_dim`` is computed on first read (``covering_basis`` is
    memoized); of the CLI only ``sbw essential`` reads it.  No verdict or
    seed row needs the basis; ``matrix_decomposition`` and the idempotents
    suite build it themselves.
    """
    group: Group
    partition: LinkagePartition
    blocks: tuple
    essential_dim: object     # int, or (lo, hi) with Undetermined blocks
    simple_count: object
    notes: str

    @property
    def covering_dim(self) -> int:
        return len(covering_basis(self.group))


_READING_NOTE = (
    "factorizable classes are predicted as those where either projection "
    "invariant degenerates (p1(T) != G or k1(S) != 1, and symmetrically on "
    "the right); the span oracle adjudicates this reading, taking its rank "
    "from the monomial cover of one-class products and row-reducing only "
    "when that cover falls short")


def essential_report(G: Group, catalog=None) -> EssentialReport:
    groups = _catalog_groups(catalog)
    cache = memo.table(G, "essential_report")
    key = tuple((gid, H.digest) for gid, H in groups)
    if key in cache:
        return cache[key]
    part = linkage_partition(G)
    statuses = {pair: reduced_status(G, pair, catalog)
                for pair in part.pairs}
    blocks = []
    lo = hi = 0
    s_lo = s_hi = 0
    for members in part.blocks:
        verdicts = {statuses[p].verdict for p in members}
        if "Reduced" in verdicts and "NotReduced" in verdicts:
            raise AxiomFailed(
                f"linkage class {members[0]} mixes Reduced and NotReduced")
        if "Reduced" in verdicts:
            verdict = "Reduced"
        elif "NotReduced" in verdicts:
            verdict = "NotReduced"
        else:
            verdict = "Undetermined"
        rule = next(statuses[p].rule for p in members
                    if statuses[p].verdict == verdict)
        gg = gamma_group(G, members[0][0], members[0][1])
        n = len(members)
        dim = n * n * gg.order
        irr = irr_count(gg)
        blocks.append(EssentialBlock(
            members=members, n=n, gamma_order=gg.order, irreducibles=irr,
            dim=dim, verdict=verdict, rule=rule))
        if verdict == "Reduced":
            lo += dim
            hi += dim
            s_lo += irr
            s_hi += irr
        elif verdict == "Undetermined":
            hi += dim
            s_hi += irr
    report = EssentialReport(
        group=G, partition=part, blocks=tuple(blocks),
        essential_dim=lo if lo == hi else (lo, hi),
        simple_count=s_lo if s_lo == s_hi else (s_lo, s_hi),
        notes=_READING_NOTE)
    cache[key] = report
    return report


def _predicted_from_report(report: EssentialReport) -> tuple:
    """Non-covering classes, and covering ones in non-reduced linkage."""
    verdict_of = {}
    for block in report.blocks:
        if block.verdict == "Undetermined":
            raise AxiomFailed(
                "cannot predict the ideal with Undetermined classes")
        for p in block.members:
            verdict_of[p] = block.verdict
    G = report.group
    amb = direct_product(G, G)
    predicted = []
    for cls in sections.enumerate_sections(amb):
        if not sections.is_covering(cls):
            predicted.append(cls)
        elif verdict_of[cls.middles()[0]] == "NotReduced":
            predicted.append(cls)
    return tuple(predicted)


@dataclass
class IdealOracleReport:
    group: Group
    full_dim: int
    predicted_dim: int
    span_rank: int
    essential_dim: int
    support_ok: bool
    rank_ok: bool
    block_sum_ok: bool


def ideal_span_oracle(G: Group, catalog=None,
                      allow_large: bool = False) -> IdealOracleReport:
    """Rank of the span of a . b for a in Gamma(G,H), b in Gamma(H,G).

    H runs over all strictly smaller catalog groups, and the span is
    compared with the predicted coordinate subspace.  Gated to |G| <= 6
    unless allow_large=True.  A one-class product m.[c] has m != 0 (m
    counts double cosets), so the span contains the coordinate space on
    ``cover``, the classes of such products; every product lies in the one
    on ``support``, all classes seen.  If support <= cover the two are
    equal and the rank is len(cover).  Otherwise ``rational_rank`` reduces
    the unit vectors of ``cover`` and the distinct multi-class products.
    """
    if G.order > 6 and not allow_large:
        raise AxiomFailed("ideal span oracle is gated to |G| <= 6; "
                          "pass allow_large=True to override")
    all_classes = sections.enumerate_sections(direct_product(G, G))
    report_src = essential_report(G, catalog)
    predicted = set(_predicted_from_report(report_src))
    cover, support, mixed = set(), set(), set()
    for gid, H in _catalog_groups(catalog):
        if H.order >= G.order:
            continue
        left = sections.enumerate_sections(direct_product(G, H))
        right = sections.enumerate_sections(direct_product(H, G))
        for a in left:
            for prod in gamma.class_products(a, right):
                if len(prod) == 1:
                    cover.update(prod)
                elif prod:
                    support.update(prod)
                    mixed.add(frozenset(prod.items()))
    support |= cover
    rank = len(cover) if support <= cover else rational_rank(
        [{c: 1} for c in cover] + [dict(v) for v in mixed])
    report = IdealOracleReport(
        group=G,
        full_dim=len(all_classes),
        predicted_dim=len(predicted),
        span_rank=rank,
        essential_dim=len(all_classes) - rank,
        support_ok=support <= predicted,
        rank_ok=rank == len(predicted),
        block_sum_ok=len(all_classes) - rank == report_src.essential_dim,
    )
    if not (report.support_ok and report.rank_ok and report.block_sum_ok):
        raise AxiomFailed(
            f"ideal span disagrees with prediction on {G.name}: "
            f"support_ok={report.support_ok} rank={rank} "
            f"predicted={len(predicted)}")
    return report


# -- seed table ---------------------------------------------------------------

@dataclass
class SeedEntry:
    gid: str
    group: Group
    rep: tuple            # representative (K, P)
    members: tuple        # the full linkage class in its group
    gamma_order: int
    irreducibles: int


@dataclass
class SeedRow:
    class_id: int
    order: int
    entries: tuple        # SeedEntry per participating group
    witnesses: tuple      # (gid_a, rep_a, gid_b, rep_b) merge edges


@dataclass
class SeedTable:
    rows: tuple
    gids: tuple
    notes: str


def transport_check(tripleG, tripleH) -> dict:
    """Conjugation by the least bimodule class maps one Gamma onto the other.

    phi sends a class u to the unique class supported in [gamma][u][gamma^op];
    it must fix identities, be bijective and multiplicative, and carry
    conjugacy classes onto conjugacy classes.
    """
    G, K, P = tripleG
    H, L, Q = tripleH
    bset = sections.constrained_sections(G, H, K, P, L, Q)
    if not bset:
        raise AxiomFailed("transport requires linked triples")
    wit = bset[0]
    wit_op = sections.opposite_class(wit)
    gg = gamma_group(G, K, P)
    gh = gamma_group(H, L, Q)
    phi = {}
    for u in gh.classes:
        step = gamma.compose_classes(wit, u)
        if len(step) != 1:
            raise AxiomFailed("transport step is not single-class")
        (mid, _), = step.items()
        step2 = gamma.compose_classes(mid, wit_op)
        if len(step2) != 1:
            raise AxiomFailed("transport step is not single-class")
        (img, _), = step2.items()
        phi[u] = img
    ok = {
        "bijective": len(set(phi.values())) == gh.order == gg.order,
        "identity": phi[gh.classes[0]] == gg.classes[0],
        "multiplicative": all(
            phi[gh.mul(u, v)] == gg.mul(phi[u], phi[v])
            for u in gh.classes for v in gh.classes),
    }
    h_classes = conjugacy_classes(gh.group)
    g_classes = conjugacy_classes(gg.group)
    images = set()
    for cc in h_classes:
        img = frozenset(gg.index[phi[gh.classes[i]]] for i in cc)
        images.add(img)
    ok["class_transport"] = images == {frozenset(c) for c in g_classes}
    ok["witness"] = wit
    ok["map"] = phi
    ok["ok"] = all(v for k, v in ok.items()
                   if k not in ("witness", "map"))
    return ok


def seeds(catalog=None) -> SeedTable:
    """One row per reduced linkage class, merged across groups when linked.

    Rows for groups of equal order merge when their representative triples
    are linked; each merge records its witness edge, and the transported
    conjugacy classes must agree on both sides.
    """
    groups = _catalog_groups(catalog)
    candidates = []
    for gid, G in groups:
        report = essential_report(G, catalog)
        for block in report.blocks:
            if block.verdict != "Reduced":
                continue
            rep = block.members[0]
            gg = gamma_group(G, rep[0], rep[1])
            candidates.append(SeedEntry(
                gid=gid, group=G, rep=rep, members=block.members,
                gamma_order=gg.order, irreducibles=block.irreducibles))
    parent = list(range(len(candidates)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    witnesses = {}
    for i, a in enumerate(candidates):
        for j in range(i):
            b = candidates[j]
            if b.group.order != a.group.order or b.gid == a.gid:
                continue
            if find(i) == find(j):
                continue
            # a.group x b.group is built only for a linked pair
            m = crossed.link_iso(*a.rep, *b.rep)
            if m is None:
                continue
            crossed.link_section(direct_product(a.group, b.group), *a.rep,
                                 *b.rep, m)
            check = transport_check((a.group,) + a.rep, (b.group,) + b.rep)
            if not check["ok"]:
                raise AxiomFailed(
                    f"transport between {a.gid} and {b.gid} seeds failed")
            if a.gamma_order != b.gamma_order \
                    or a.irreducibles != b.irreducibles:
                raise AxiomFailed(
                    "merged seed rows disagree on Gamma data")
            lo, hi = sorted((find(i), find(j)))
            parent[hi] = lo
            # The witnesses follow the component to its new root.
            merged = witnesses.setdefault(lo, [])
            merged.extend(witnesses.pop(hi, ()))
            merged.append((a.gid, _pair_key(a.rep), b.gid, _pair_key(b.rep)))
    grouped = {}
    for i, entry in enumerate(candidates):
        grouped.setdefault(find(i), []).append(entry)
    rows = []
    for root, entries in grouped.items():
        entries.sort(key=lambda e: (e.gid, _pair_key(e.rep)))
        rows.append((entries[0].group.order, entries,
                     tuple(witnesses.get(root, ()))))
    rows.sort(key=lambda r: (r[0], r[1][0].gid, _pair_key(r[1][0].rep)))
    table = tuple(
        SeedRow(class_id=i, order=order, entries=tuple(entries),
                witnesses=wits)
        for i, (order, entries, wits) in enumerate(rows))
    return SeedTable(
        rows=table,
        gids=tuple(gid for gid, _ in groups),
        notes="irreducible labels transported along the least bimodule "
              "class; the labeling is canonical up to an inner twist")
