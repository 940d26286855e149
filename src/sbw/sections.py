"""Sections of finite groups and of direct products.

A section of X is a pair (T, S) of subgroups with S normal in T.  For a
product X = G x H the module provides both directions of the Goursat
correspondence for sections, the relational star product, opposites, and
enumeration of conjugacy classes of sections, which index the basis of
the section Burnside module of G x H.

Subgroups of G x H are stored inside the interned product group from
``groups.direct_product``, with (g, h) at index g*|H| + h.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .errors import (
    ConditionViolated,
    MiddleMismatch,
    NotAProduct,
    NotNormal,
    NotSubgroup,
)
from .groups import (
    Group,
    Hom,
    Subgroup,
    coset_structure,
    direct_product,
    is_normal_in,
    isomorphisms,
    orbit,
    shared_subgroup,
    subgroup_lattice,
)
from . import crossed, memo


_UIDS = count()


class SectionClass:
    """A conjugacy class of sections, named by its least (T, S) pair."""

    __slots__ = ("ambient", "T", "S", "orbit_size", "uid", "_rows", "_middles")

    def __init__(self, ambient: Group, T: tuple, S: tuple, orbit_size: int):
        self.ambient = ambient
        self.T = T
        self.S = S
        self.orbit_size = orbit_size
        # Classes are interned per ambient and product ambients are
        # interned by factor digests, so classes of products with equal
        # keys are one object: classes compare and hash by identity, and
        # a memo of class products may key on ``uid``.
        self.uid = next(_UIDS)
        self._rows = None
        self._middles = None

    @property
    def key(self) -> tuple:
        # Products with equal tables share a digest (C1 x C2 vs C2 x C1),
        # so the key must record the factor split as well.
        return (self.ambient.digest, self.ambient.factor_digests,
                self.T, self.S)

    def sort_key(self):
        return (len(self.T), self.T, len(self.S), self.S)

    def subgroups(self) -> tuple:
        return (Subgroup(self.ambient, self.T, check=False),
                Subgroup(self.ambient, self.S, check=False))

    def rows(self) -> tuple:
        """(T rows, S rows, p1(S), p2(S)) of a class of G x H, built once.

        Row g of T is the bitmask over H of the h with (g, h) in T, and
        likewise for S; the composition kernel works on these rows.
        """
        if self._rows is None:
            G, H = _factors(self.ambient)
            t_rows = _bit_rows(self.T, G.order, H.order)
            s_rows = _bit_rows(self.S, G.order, H.order)
            q = 0
            for m in s_rows:
                q |= m
            self._rows = (t_rows, s_rows,
                          shared_subgroup(G, tuple([g for g, m in
                                                    enumerate(s_rows) if m])),
                          shared_subgroup(H, bit_indices(q)))
        return self._rows

    def middles(self) -> tuple:
        """(l0, r0) = ((k1(T), p1(S)), (k2(T), p2(S))), built once."""
        if self._middles is None:
            t_rows, _, p1s, p2s = self.rows()
            k1t = shared_subgroup(p1s.parent, tuple([
                g for g, m in enumerate(t_rows) if m & 1]))
            k2t = shared_subgroup(p2s.parent, bit_indices(t_rows[0]))
            self._middles = ((k1t, p1s), (k2t, p2s))
        return self._middles

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"SectionClass(|T|={len(self.T)}, |S|={len(self.S)} in {self.ambient.name})"


def canonical_section(ambient: Group, T: tuple, S: tuple) -> SectionClass:
    """The class of the pair (T, S), interned per ambient group.

    The canonical representative is the lexicographically least pair in
    the conjugation orbit; the whole orbit is cached at once.
    """
    cache = memo.table(ambient, "canonical_section")
    hit = cache.get((T, S))
    if hit is not None:
        return hit
    if ambient.is_abelian():
        cls = SectionClass(ambient, T, S, 1)
        cache[(T, S)] = cls
        return cls
    perms = [ambient.conj_perm(g) for g in ambient.generators()]
    pairs = orbit((T, S), lambda ts: [
        (tuple(sorted([perm[x] for x in ts[0]])),
         tuple(sorted([perm[x] for x in ts[1]]))) for perm in perms])
    t_min, s_min = min(pairs)
    cls = SectionClass(ambient, t_min, s_min, len(pairs))
    for pair in pairs:
        cache[pair] = cls
    return cls


class Section:
    """A concrete section: subgroups S normal in T of a common ambient group."""

    __slots__ = ("ambient", "T", "S")

    def __init__(self, ambient: Group, T: Subgroup, S: Subgroup):
        self.ambient = ambient
        self.T = T
        self.S = S
        if T.parent.digest != ambient.digest or \
                S.parent.digest != ambient.digest:
            raise NotSubgroup("section parts live in a different group")
        if not T.contains(S):
            raise NotSubgroup("S is not contained in T")
        if not is_normal_in(S, T):
            raise NotNormal("S is not normal in T")

    def classify(self) -> SectionClass:
        return canonical_section(self.ambient, self.T.elems, self.S.elems)

    def __repr__(self):
        return f"Section(|T|={self.T.order}, |S|={self.S.order} in {self.ambient.name})"


@memo.once
def enumerate_sections(X: Group) -> tuple:
    """All conjugacy classes of sections of X, sorted canonically.

    Walks subgroup-class representatives T and all S normal in T; the
    canonicalization merges pairs conjugate under the ambient group.
    Exhaustive, so only sensible for moderate subgroup lattices.
    """
    lattice = subgroup_lattice(X)
    out = set()
    for cls in lattice.classes:
        T = cls.rep
        for S in lattice.all:
            if len(S.elems) > T.order:
                break
            if S.elem_set <= T.elem_set and is_normal_in(S, T):
                out.add(canonical_section(X, T.elems, S.elems))
    return tuple(sorted(out))


# -- product decomposition of a subgroup -------------------------------------

def _factors(ambient: Group) -> tuple:
    if ambient.factors is None:
        raise NotAProduct(f"{ambient.name} carries no factor metadata")
    return ambient.factors


def subgroup_parts(ambient: Group, elems) -> tuple:
    """(P, K, L, Q) for a subgroup U of G x H: projections and kernels.

    P = p1(U), K = k1(U) = {g : (g,1) in U}, L = k2(U), Q = p2(U).
    """
    G, H = _factors(ambient)
    ho = H.order
    p, k, l, q = set(), set(), set(), set()
    for u in elems:
        g, h = divmod(u, ho)
        p.add(g)
        q.add(h)
        if h == 0:
            k.add(g)
        if g == 0:
            l.add(h)
    return (Subgroup(G, p, check=False), Subgroup(G, k, check=False),
            Subgroup(H, l, check=False), Subgroup(H, q, check=False))


# BYTE_BITS[m] lists the set bits of a byte m, ascending.
BYTE_BITS = tuple(tuple(k for k in range(8) if m >> k & 1) for m in range(256))


def bit_indices(mask: int) -> tuple:
    """The positions of the set bits of ``mask``, ascending."""
    if mask < 256:
        return BYTE_BITS[mask]
    out = []
    base = 0
    while mask:
        out += [base + k for k in BYTE_BITS[mask & 255]]
        mask >>= 8
        base += 8
    return tuple(out)


def _bit_rows(elems, go: int, ho: int) -> tuple:
    """Row g: the bitmask of the h with g*ho + h in ``elems``."""
    rows = [0] * go
    for u in elems:
        g, h = divmod(u, ho)
        rows[g] |= 1 << h
    return tuple(rows)


def left_invariant(cls: SectionClass) -> tuple:
    """(p1(T), k1(T), p1(S), k1(S)) as subgroups of the first factor."""
    pt, kt, _, _ = subgroup_parts(cls.ambient, cls.T)
    ps, ks, _, _ = subgroup_parts(cls.ambient, cls.S)
    return (pt, kt, ps, ks)


def right_invariant(cls: SectionClass) -> tuple:
    """(p2(T), k2(T), p2(S), k2(S)) as subgroups of the second factor."""
    _, _, lt, qt = subgroup_parts(cls.ambient, cls.T)
    _, _, ls, qs = subgroup_parts(cls.ambient, cls.S)
    return (qt, lt, qs, ls)


def is_covering(cls: SectionClass) -> bool:
    """Full projections on T, trivial kernels on S."""
    G, H = _factors(cls.ambient)
    ho = H.order
    # S is sorted with the identity first; (g, 1) sits at g*|H| and (1, h) at h.
    return (len({u // ho for u in cls.T}) == G.order
            and len({u % ho for u in cls.T}) == ho
            and not any(u % ho == 0 or u < ho for u in cls.S[1:]))


# -- Goursat correspondence ---------------------------------------------------

@dataclass
class GoursatQuintuple:
    """(P, K, eta, L, Q) with eta: Q/L -> P/K an isomorphism.

    ``pk`` and ``ql`` are the coset views realizing the two quotients;
    eta is a Hom between their quotient groups.
    """
    G: Group
    H: Group
    P: Subgroup
    K: Subgroup
    L: Subgroup
    Q: Subgroup
    eta: Hom
    pk: object
    ql: object


def goursat(ambient: Group, U: Subgroup) -> GoursatQuintuple:
    """The Goursat correspondent of a subgroup U of G x H."""
    G, H = _factors(ambient)
    P, K, L, Q = subgroup_parts(ambient, U.elems)
    pk = coset_structure(G, P, K)
    ql = coset_structure(H, Q, L)
    ho = H.order
    images = [-1] * ql.group.order
    for u in U.elems:
        g, h = divmod(u, ho)
        j = ql.idx(h)
        if images[j] < 0:
            images[j] = pk.idx(g)
    eta = Hom(ql.group, pk.group, images, check=False)
    return GoursatQuintuple(G=G, H=H, P=P, K=K, L=L, Q=Q, eta=eta, pk=pk, ql=ql)


def subgroup_from_goursat(ambient: Group, q: GoursatQuintuple) -> Subgroup:
    """Reconstruct U = {(g, h) : eta(hL) = gK} from its quintuple."""
    G, H = _factors(ambient)
    ho = H.order
    table = G.table
    elems = []
    for h in q.Q.elems:
        rep = q.pk.rep(q.eta.images[q.ql.idx(h)])
        row = table[rep]
        for k in q.K.elems:
            elems.append(row[k] * ho + h)
    return Subgroup(ambient, elems, check=False)


def section_from_goursat_pair(qT: GoursatQuintuple,
                              qS: GoursatQuintuple) -> Section:
    """Reconstruct a section from a compatible pair of quintuples.

    Checks the compatibility conditions in the order S3, S4, S5, S6, S7
    and raises ConditionViolated with the first failing tag.
    """
    G, H = qT.G, qT.H
    if qS.G.digest != G.digest or qS.H.digest != H.digest:
        raise MiddleMismatch("quintuples belong to different products")
    if not is_normal_in(qS.K, qT.K) or not is_normal_in(qS.L, qT.L):
        raise ConditionViolated("S3", "kernels are not nested normally")
    if not (is_normal_in(qS.K, qT.P) and is_normal_in(qS.P, qT.P)
            and is_normal_in(qS.L, qT.Q) and is_normal_in(qS.Q, qT.Q)):
        raise ConditionViolated("S4", "small parts are not normal in large ones")
    if not (_commutator_inside(G, qT.K, qS.P, qS.K)
            and _commutator_inside(H, qT.L, qS.Q, qS.L)):
        raise ConditionViolated("S5", "commutator condition fails")
    try:
        cm_left = crossed.conj_crossed_module(G, qT.P, qT.K, qS.P, qS.K)
        cm_right = crossed.conj_crossed_module(H, qT.Q, qT.L, qS.Q, qS.L)
    except Exception as exc:
        raise ConditionViolated("S6", f"conjugation crossed module fails: {exc}")
    if not crossed._is_cmorphism(cm_right, cm_left,
                                 qS.eta.images, qT.eta.images):
        raise ConditionViolated(
            "S7", "(etaS, etaT) is not a morphism of crossed modules")
    ambient = direct_product(G, H)
    T = subgroup_from_goursat(ambient, qT)
    S = subgroup_from_goursat(ambient, qS)
    return Section(ambient, T, S)


def _commutator_inside(G: Group, A: Subgroup, B: Subgroup,
                       target: Subgroup) -> bool:
    """[A, B] <= target, checked on all commutators."""
    table, inv = G.table, G._inv
    tset = target.elem_set
    for a in A.elems:
        for b in B.elems:
            if table[table[a][b]][table[inv[a]][inv[b]]] not in tset:
                return False
    return True


def section_quintuples(section: Section) -> tuple:
    """(qT, qS) for a section of a product."""
    return (goursat(section.ambient, section.T),
            goursat(section.ambient, section.S))


# -- star product, opposites, twists -----------------------------------------

def star(A: Subgroup, B: Subgroup) -> Subgroup:
    """Relational composition of A <= G x H and B <= H x K inside G x K."""
    G, H = _factors(A.parent)
    H2, K = _factors(B.parent)
    if H.digest != H2.digest:
        raise MiddleMismatch("star product needs a common middle group")
    ho, ko = H.order, K.order
    left_by_h: dict = {}
    for u in A.elems:
        g, h = divmod(u, ho)
        left_by_h.setdefault(h, []).append(g)
    elems = set()
    for v in B.elems:
        h, k = divmod(v, ko)
        for g in left_by_h.get(h, ()):
            elems.add(g * ko + k)
    return Subgroup(direct_product(G, K), elems, check=False)


def conj_left(t: int, B: Subgroup) -> Subgroup:
    """The twist ^(t,1) B = {(t h t^-1, k)} for B <= H x K."""
    H, K = _factors(B.parent)
    ko = K.order
    perm = H.conj_perm(t)
    return Subgroup(B.parent,
                    (perm[v // ko] * ko + v % ko for v in B.elems),
                    check=False)


def opposite_class(cls: SectionClass) -> SectionClass:
    G, H = _factors(cls.ambient)
    ho, go = H.order, G.order
    ambient = direct_product(H, G)
    t_op = tuple(sorted((u % ho) * go + u // ho for u in cls.T))
    s_op = tuple(sorted((u % ho) * go + u // ho for u in cls.S))
    return canonical_section(ambient, t_op, s_op)


# -- constrained enumeration ---------------------------------------------------

@memo.keyed(lambda K, L: (K.elems, L.elems))
def _t_candidates(ambient: Group, K: Subgroup, L: Subgroup) -> tuple:
    """(gi, one (etaT on H, T elems, T gens) per iso etaT: H/L -> G/K).

    gi[g] is the coset index of g mod K, and etaT on H maps h to etaT(hL).
    T = {(g, h) : etaT(hL) = gK} is the graph of etaT.  All of it depends
    on (K, L) alone, so it is built once per pair in the product's memo.
    """
    G, H = ambient.factors
    gk = coset_structure(G, G.full_subgroup(), K)
    hl = coset_structure(H, H.full_subgroup(), L)
    ho = H.order
    gi = gk.indices
    hi = hl.indices
    cosets = hl.members
    kl_gens = [k * ho for k in K.generators()] + list(L.generators())
    out = []
    for etat in isomorphisms(hl.group, gk.group):
        images = etat.images
        pre = {c: j for j, c in enumerate(images)}
        t_elems = tuple([g * ho + h for g, c in enumerate(gi)
                         for h in cosets[pre[c]]])
        # T is generated by K x 1, 1 x L and a lift of each generator of G.
        t_gens = tuple([x * ho + cosets[pre[gi[x]]][0]
                        for x in G.generators()] + kl_gens)
        out.append((tuple([images[j] for j in hi]), t_elems, t_gens))
    return gi, tuple(out)


@memo.keyed(lambda P, Q: (P.elems, Q.elems))
def _s_candidates(ambient: Group, P: Subgroup, Q: Subgroup) -> tuple:
    """(Q's generators, one (alpha on them, S set, S sorted, S gens) per
    iso etaS: Q -> P).

    alpha is etaS read in G and S = {(alpha(q), q)} its graph.  All of it
    depends on (P, Q) alone, so it is built once per pair in the product's
    memo.
    """
    G, H = ambient.factors
    pv = coset_structure(G, P, G.trivial_subgroup())
    qv = coset_structure(H, Q, H.trivial_subgroup())
    ho = H.order
    q_gens = Q.generators()
    qi = [qv.idx(q) for q in Q.elems]
    out = []
    for etas in isomorphisms(qv.group, pv.group):
        alpha = {q: pv.rep(etas.images[j]) for q, j in zip(Q.elems, qi)}
        s_set = frozenset(a * ho + q for q, a in alpha.items())
        out.append((tuple([alpha[q] for q in q_gens]), s_set,
                    tuple(sorted(s_set)),
                    tuple([alpha[q] * ho + q for q in q_gens])))
    return q_gens, tuple(out)


def _constrained_pairs(ambient: Group, K: Subgroup, P: Subgroup,
                       L: Subgroup, Q: Subgroup):
    """Yield (T, S) elems of each covering section of G x H with
    l0 = (K, P) and r0 = (L, Q); conjugate pairs may both be yielded.

    T is the graph of an iso etaT: H/L -> G/K and S that of an iso
    etaS: Q -> P, built once per (K, L) and per (P, Q).  They fit when
    gi[alpha(q)] == etaT(qL) on the generators q of Q, and a fitting pair
    is yielded when S is normal in T, tested on the generators of both.
    """
    gi, ts = _t_candidates(ambient, K, L)
    q_gens, ss = _s_candidates(ambient, P, Q)
    by_key: dict = {}
    for eta, t_elems, t_gens in ts:
        by_key.setdefault(tuple([eta[q] for q in q_gens]),
                          []).append((t_elems, t_gens))
    conj = ambient.conj
    for alpha, s_set, s_sorted, s_gens in ss:
        for t_elems, t_gens in by_key.get(tuple([gi[a] for a in alpha]), ()):
            if all(conj(t, s) in s_set for t in t_gens for s in s_gens):
                yield t_elems, s_sorted


def constrained_sections(G: Group, H: Group, K: Subgroup, P: Subgroup,
                         L: Subgroup, Q: Subgroup) -> tuple:
    """Classes of covering sections of G x H with l0 = (K, P), r0 = (L, Q),
    for K, P normal in G and L, Q normal in H, sorted canonically."""
    # etaT: H/L -> G/K and etaS: Q -> P are isomorphisms, so unequal
    # orders leave no class at all.
    if G.order // K.order != H.order // L.order or P.order != Q.order:
        return ()
    return _constrained_classes(direct_product(G, H), K, P, L, Q)


@memo.keyed(lambda K, P, L, Q: (K.elems, P.elems, L.elems, Q.elems))
def _constrained_classes(ambient: Group, K: Subgroup, P: Subgroup,
                         L: Subgroup, Q: Subgroup) -> tuple:
    return tuple(sorted({canonical_section(ambient, t, s)
                         for t, s in _constrained_pairs(ambient, K, P, L, Q)},
                        key=SectionClass.sort_key))


def has_constrained_section(X: Group, K: Subgroup, P: Subgroup,
                            L: Subgroup, Q: Subgroup) -> bool:
    """Whether ``constrained_sections(G, H, K, P, L, Q)`` is not empty, for
    X = G x H, G = ``K.parent`` and H = ``L.parent``.

    A class exists exactly when ``_constrained_pairs`` yields a pair: each
    class there is the class of a yielded pair, and each yielded pair is a
    section with these middles.  Stops at the first pair; builds no class.
    """
    if P.order != Q.order or K.index != L.index:
        return False
    return any(_constrained_pairs(X, K, P, L, Q))
