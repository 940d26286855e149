"""Conjugation crossed modules and their (outer) automorphism groups.

A crossed module here is a pair of table groups (A, B) with a boundary
homomorphism A -> B and a left action of B on A by automorphisms, subject
to the usual two axioms.  Everything in this package arises from the
conjugation situation: B = P1/K1 acting on A = P2/K2 inside a common
parent group.  The functions at the bottom tie pairs (K, P) of commuting
normal subgroups to crossed modules (P, G/K, i_P), decide when two such
pairs are linked, and realize automorphisms as sections of G x G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import memo, sections
from .errors import AxiomFailed, NotAutomorphism, NotInPoset
from .groups import (
    Group,
    Hom,
    Subgroup,
    commute_elementwise,
    coset_structure,
    direct_product,
    isomorphisms,
    orbit,
)


class CrossedModule:
    """(A, B, boundary, action); ``action[b]`` is an image tuple on A."""

    def __init__(self, a: Group, b: Group, boundary: Hom, action):
        self.a = a
        self.b = b
        self.boundary = boundary
        self.action = tuple(tuple(row) for row in action)
        self._memo = memo.tables()
        self._validate()

    def _validate(self):
        A, B = self.a, self.b
        if self.boundary.source.digest != A.digest or \
                self.boundary.target.digest != B.digest:
            raise AxiomFailed("boundary does not go from A to B")
        if len(self.action) != B.order:
            raise AxiomFailed("need one action permutation per element of B")
        ta, tb = A.table, B.table
        for row in self.action:
            if sorted(row) != list(range(A.order)):
                raise AxiomFailed("action image is not a permutation of A")
            for x in range(A.order):
                for y in range(A.order):
                    if row[ta[x][y]] != ta[row[x]][row[y]]:
                        raise AxiomFailed("action image is not an automorphism")
        act = self.action
        if act[0] != tuple(range(A.order)):
            raise AxiomFailed("identity of B must act trivially")
        for b1 in range(B.order):
            for b2 in range(B.order):
                left = act[tb[b1][b2]]
                for x in range(A.order):
                    if left[x] != act[b1][act[b2][x]]:
                        raise AxiomFailed("action is not a homomorphism")
        bd = self.boundary.images
        for b1 in range(B.order):
            row = act[b1]
            for x in range(A.order):
                if bd[row[x]] != B.conj(b1, bd[x]):
                    raise AxiomFailed("boundary is not equivariant")
        for x in range(A.order):
            row = act[bd[x]]
            for y in range(A.order):
                if row[y] != A.conj(x, y):
                    raise AxiomFailed("Peiffer identity fails")

    @memo.once
    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariants, used to prune iso searches."""
        return (self.a.order, self.b.order,
                tuple(sorted(self.a.element_orders())),
                tuple(sorted(self.b.element_orders())),
                len(set(self.boundary.images)), self._orbit_census())

    def _orbit_census(self) -> tuple:
        seen: set = set()
        sizes = []
        for x in range(self.a.order):
            if x not in seen:
                points = orbit(x, lambda y: [row[y] for row in self.action])
                seen |= points
                sizes.append(len(points))
        return tuple(sorted(sizes))

    def __repr__(self):
        return f"CrossedModule(A order {self.a.order}, B order {self.b.order})"


def conj_crossed_module(parent: Group, P1: Subgroup, K1: Subgroup,
                        P2: Subgroup, K2: Subgroup) -> CrossedModule:
    """The crossed module (P2/K2, P1/K1, x K2 -> x K1) with conjugation action.

    Requires K2 <= K1, P2 <= P1 and the normality conditions making both
    quotients and the action well defined; violations surface as errors
    from the quotient construction or as AxiomFailed.
    """
    big = coset_structure(parent, P1, K1)
    small = coset_structure(parent, P2, K2)
    A, B = small.group, big.group
    boundary = Hom(A, B, tuple(big.idx(small.rep(i)) for i in range(A.order)),
                   check=False)
    action = []
    for b in range(B.order):
        g = big.rep(b)
        action.append(tuple(small.idx(parent.conj(g, small.rep(i)))
                            for i in range(A.order)))
    return CrossedModule(A, B, boundary, action)


def in_poset(K: Subgroup, P: Subgroup) -> bool:
    """Whether (K, P) is a pair of normal subgroups with [K, P] = 1."""
    return K.is_normal() and P.is_normal() and commute_elementwise(K, P)


def from_pair(G: Group, K: Subgroup, P: Subgroup) -> CrossedModule:
    """The crossed module (P, G/K, i_P) attached to a commuting normal pair."""
    cache = memo.table(G, "from_pair")
    key = (K.elems, P.elems)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not in_poset(K, P):
        raise NotInPoset(f"({K.elems}, {P.elems}) is not a commuting normal pair")
    cm = conj_crossed_module(G, G.full_subgroup(), K, P, G.trivial_subgroup())
    cache[key] = cm
    return cm


class CMorphism:
    """A morphism of crossed modules: alpha on the A's, beta on the B's."""

    __slots__ = ("src", "dst", "alpha", "beta")

    def __init__(self, src: CrossedModule, dst: CrossedModule,
                 alpha: Hom, beta: Hom):
        self.src = src
        self.dst = dst
        self.alpha = alpha
        self.beta = beta

    def __repr__(self):
        return f"CMorphism({self.alpha.images}, {self.beta.images})"


def _is_cmorphism(src: CrossedModule, dst: CrossedModule,
                  alpha: tuple, beta: tuple) -> bool:
    bd_s, bd_d = src.boundary.images, dst.boundary.images
    for x in range(src.a.order):
        if bd_d[alpha[x]] != beta[bd_s[x]]:
            return False
    for b in range(src.b.order):
        src_row = src.action[b]
        dst_row = dst.action[beta[b]]
        for x in range(src.a.order):
            if alpha[src_row[x]] != dst_row[alpha[x]]:
                return False
    return True


def iso_search(src: CrossedModule, dst: CrossedModule,
               limit: Optional[int] = None) -> list:
    """All crossed-module isomorphisms src -> dst, deterministically ordered.

    Candidate pairs are pruned by requiring beta to agree with the values
    forced on the image of the boundary before running the full check.
    """
    if src.fingerprint() != dst.fingerprint():
        return []
    alphas = isomorphisms(src.a, dst.a)
    betas = isomorphisms(src.b, dst.b)
    if not alphas or not betas:
        return []
    probe = src.a.generators()
    probe_src = [src.boundary.images[g] for g in probe]
    buckets: dict = {}
    for beta in betas:
        key = tuple([beta.images[x] for x in probe_src])
        buckets.setdefault(key, []).append(beta)
    out = []
    bd_d = dst.boundary.images
    for alpha in alphas:
        key = tuple([bd_d[alpha.images[g]] for g in probe])
        for beta in buckets.get(key, ()):
            if _is_cmorphism(src, dst, alpha.images, beta.images):
                out.append(CMorphism(src, dst, alpha, beta))
                if limit is not None and len(out) >= limit:
                    return out
    return out


@dataclass
class AutOut:
    """Aut of a crossed module and one aut per coset of Inn."""
    auts: tuple           # the automorphisms, sorted by their image tuples
    out_reps: tuple       # least index in each coset f o Inn, ascending


@memo.once
def aut_out(cm: CrossedModule) -> AutOut:
    """Out = Aut/Inn, read off by walking the cosets f o Inn in index order.

    Each coset is marked as it is walked; meeting a marked index means the
    inner automorphisms do not split Aut into disjoint equal cosets.
    """
    auts = iso_search(cm, cm)
    auts.sort(key=lambda m: (m.alpha.images, m.beta.images))
    index = {(m.alpha.images, m.beta.images): i for i, m in enumerate(auts)}
    theta_images = tuple(
        index[(cm.action[b], cm.b.conj_perm(b))] for b in range(cm.b.order))
    inn = tuple(sorted(set(theta_images)))
    inner = [(auts[t].alpha.images, auts[t].beta.images) for t in inn]
    seen = bytearray(len(auts))
    out_reps = []
    for i, f in enumerate(auts):
        if seen[i]:
            continue
        out_reps.append(i)
        fa, fb = f.alpha.images, f.beta.images
        for ta, tb in inner:
            j = index[(tuple(fa[x] for x in ta), tuple(fb[x] for x in tb))]
            if seen[j]:
                raise AxiomFailed("inner automorphisms do not partition Aut "
                                  "into cosets")
            seen[j] = 1
    return AutOut(auts=tuple(auts), out_reps=tuple(out_reps))


def link_section(X: Group, K: Subgroup, P: Subgroup,
                 L: Subgroup, Q: Subgroup, m: CMorphism):
    """The section of X = G x H, G = K.parent and H = L.parent, induced by
    an iso (Q, H/L, i_Q) -> (P, G/K, i_P).

    T is the graph of beta on K/L-cosets, S the graph of alpha.  T depends
    only on (K, L, beta) and S only on (P, Q, alpha), so each is built once
    per key and kept in X's ``link_t`` / ``link_s`` memo.  The ``Section``
    around them is made on every call, and with it the check that S <= T
    and that S is normal in T: that check is the certificate that the iso
    route's answer is a section.
    """
    G, H = K.parent, L.parent
    alpha, beta = m.alpha.images, m.beta.images
    ho = H.order
    t_memo = memo.table(X, "link_t")
    t_key = (K.elems, L.elems, beta)
    T = t_memo.get(t_key)
    if T is None:
        # generated by a lift of each generator of G, K x 1 and 1 x L
        gk = coset_structure(G, G.full_subgroup(), K)
        hl = coset_structure(H, H.full_subgroup(), L)
        g_cosets, h_cosets = gk.members, hl.members
        t_elems = [g * ho + h for j, hs in enumerate(h_cosets)
                   for h in hs for g in g_cosets[beta[j]]]
        pre = {c: j for j, c in enumerate(beta)}
        t_gens = ([x * ho + h_cosets[pre[gk.idx(x)]][0]
                   for x in G.generators()]
                  + [k * ho for k in K.generators()] + list(L.generators()))
        T = t_memo[t_key] = Subgroup(X, t_elems, gens=t_gens, check=False)
    s_memo = memo.table(X, "link_s")
    s_key = (P.elems, Q.elems, alpha)
    S = s_memo.get(s_key)
    if S is None:
        # generated by the values of alpha on the generators of Q
        pview = coset_structure(G, P, G.trivial_subgroup())
        qview = coset_structure(H, Q, H.trivial_subgroup())

        def graph(q):
            return pview.rep(alpha[qview.idx(q)]) * ho + q

        S = s_memo[s_key] = Subgroup(X, map(graph, Q.elems),
                                     gens=map(graph, Q.generators()),
                                     check=False)
    return sections.Section(X, T, S)


def theta(G: Group, K: Subgroup, P: Subgroup, m: CMorphism):
    """Realize an automorphism of (P, G/K, i_P) as a section of G x G."""
    cm = from_pair(G, K, P)
    if m.src is not cm or m.dst is not cm or not (
            m.alpha.is_bijective() and m.beta.is_bijective()):
        raise NotAutomorphism("expected an automorphism of (P, G/K, i_P)")
    return link_section(direct_product(G, G), K, P, K, P, m)


def link_iso(K: Subgroup, P: Subgroup, L: Subgroup,
             Q: Subgroup) -> Optional[CMorphism]:
    """An iso (Q, H/L, i_Q) -> (P, G/K, i_P) for G = K.parent and
    H = L.parent, or None; crossed modules of different orders are never
    isomorphic, so an order mismatch returns None before either is built."""
    if P.order != Q.order or K.index != L.index:
        return None
    found = iso_search(from_pair(L.parent, L, Q), from_pair(K.parent, K, P),
                       limit=1)
    return found[0] if found else None


def linked(X: Group, K: Subgroup, P: Subgroup,
           L: Subgroup, Q: Subgroup) -> Optional[sections.Section]:
    """The witness section of X = G x H that (G,K,P,1) and (H,L,Q,1) are
    linked, or None: ``link_section`` of the ``link_iso``, checked on every
    call.  G and H are ``K.parent`` and ``L.parent``, not ``X.factors``: an
    interned product's factors may be other objects with the same digest,
    and the ``from_pair`` memo is kept per object.
    """
    m = link_iso(K, P, L, Q)
    return None if m is None else link_section(X, K, P, L, Q, m)
