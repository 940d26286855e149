"""Finite posets with partial joins, Mobius functions, and the idempotent
calculus they induce.

The generic engine works for any finite poset: elements are arbitrary
hashable labels, the order is given by a predicate, joins may fail.  The
instantiation used everywhere else is the poset of pairs (K, P) of
commuting normal subgroups of a fixed group, ordered by K <= L, P >= Q,
where joins always exist; its e/f idempotents live in Gamma(G, G).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import NotInPoset
from .groups import (
    Group,
    commute_elementwise,
    intersection,
    normal_subgroups,
    product_set,
)
from . import gamma, memo


class FinitePoset:
    """A finite poset over hashable labels, stored as up-set bitmasks."""

    def __init__(self, elements: Sequence, leq: Callable):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise NotInPoset("poset elements must be distinct")
        n = len(self.elements)
        up = []
        for i in range(n):
            mask = 0
            for j in range(n):
                if leq(self.elements[i], self.elements[j]):
                    mask |= 1 << j
            up.append(mask)
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise NotInPoset("order is not reflexive")
            for j in range(n):
                if (up[i] >> j) & 1:
                    if i != j and (up[j] >> i) & 1:
                        raise NotInPoset("order is not antisymmetric")
                    if up[j] & ~up[i]:
                        raise NotInPoset("order is not transitive")
        self.up = up
        self._memo = memo.tables()

    def __len__(self):
        return len(self.elements)

    def leq(self, x, y) -> bool:
        return (self.up[self.index[x]] >> self.index[y]) & 1 == 1

    def join_index(self, i: int, j: int) -> Optional[int]:
        """Index of the join, or None when no least upper bound exists."""
        joins = memo.table(self, "join")
        key = (i, j) if i <= j else (j, i)
        if key in joins:
            return joins[key]
        common = self.up[i] & self.up[j]
        found = None
        mask = common
        while mask:
            m = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if self.up[m] == common:
                found = m
                break
        joins[key] = found
        return found

    def join(self, x, y):
        m = self.join_index(self.index[x], self.index[y])
        return None if m is None else self.elements[m]

    @memo.once
    def mobius(self) -> dict:
        """{(i, j): mu} over comparable index pairs i <= j.

        Within the up-set of i, elements are processed from low to high
        (descending up-set size), so each value only needs earlier ones.
        """
        n = len(self.elements)
        order = sorted(range(n), key=lambda j: -self.up[j].bit_count())
        mob: dict = {}
        for i in range(n):
            ui = self.up[i]
            chain = [j for j in order if (ui >> j) & 1]
            for j in chain:
                if j == i:
                    mob[(i, i)] = 1
                    continue
                uj = self.up[j]
                total = 0
                for z in chain:
                    if z != j and (self.up[z] >> j) & 1 == 1:
                        total += mob.get((i, z), 0)
                    if self.up[z] == uj:
                        break
                mob[(i, j)] = -total
        return mob


# -- the poset of commuting normal pairs ----------------------------------------

@memo.once
def normal_commuting_pairs(G: Group) -> tuple:
    """All pairs (K, P) of normal subgroups of G with [K, P] = 1, sorted."""
    normals = normal_subgroups(G)
    pairs = []
    for K in normals:
        for P in normals:
            if commute_elementwise(K, P):
                pairs.append((K, P))
    pairs.sort(key=lambda kp: (kp[0].elems, kp[1].elems))
    return tuple(pairs)


def pair_leq(x: tuple, y: tuple) -> bool:
    """(K,P) <= (L,Q) iff K <= L and P >= Q."""
    return y[0].contains(x[0]) and x[1].contains(y[1])


@memo.once
def build_poset(G: Group) -> FinitePoset:
    """The poset of commuting normal pairs of G; joins are (KL, P n Q)."""
    poset = FinitePoset(normal_commuting_pairs(G), pair_leq)
    bottom = (G.trivial_subgroup(), G.full_subgroup())
    top = (G.full_subgroup(), G.trivial_subgroup())
    assert all(poset.leq(bottom, x) for x in poset.elements)
    assert all(poset.leq(x, top) for x in poset.elements)
    # Few distinct subgroups occur, so each product and meet is built once.
    prods: dict = {}
    meets: dict = {}
    for x in poset.elements:
        for y in poset.elements:
            kl = prods.get((x[0], y[0]))
            if kl is None:
                kl = prods[x[0], y[0]] = product_set(x[0], y[0])
            pq = meets.get((x[1], y[1]))
            if pq is None:
                pq = meets[x[1], y[1]] = intersection(x[1], y[1])
            if poset.join(x, y) != (kl, pq):
                raise NotInPoset("join structure is inconsistent")
    return poset


def _require_pair(poset: FinitePoset, pair: tuple) -> int:
    idx = poset.index.get(pair)
    if idx is None:
        raise NotInPoset("pair does not belong to the poset of the group")
    return idx


def f_idempotent(G: Group, pair: tuple) -> gamma.GammaElement:
    """f_(K,P): the Mobius combination of the e's above (K, P)."""
    return _f_idempotents(G)[_require_pair(build_poset(G), pair)]


@memo.once
def _f_idempotents(G: Group) -> list:
    """Every f, by poset index.  e_(L,Q) = [Delta_L(G), Delta(Q)] / |G:Q|,
    so |G| f_(K,P) is the sum of mu((K,P), (L,Q)) |Q| [Delta_L(G), Delta(Q)]
    over the (L,Q) >= (K,P), built in one pass from each e class once."""
    poset = build_poset(G)
    mob = poset.mobius()
    scaled = [(gamma.e_class(G, L, Q), Q.order) for L, Q in poset.elements]
    return [gamma.GammaElement(G, G, {
        cls: Fraction(mu * q, G.order) for j, (cls, q) in enumerate(scaled)
        if (mu := mob.get((i, j)))}) for i in range(len(poset))]


def e_idempotent(G: Group, pair: tuple) -> gamma.GammaElement:
    poset = build_poset(G)
    _require_pair(poset, pair)
    return gamma.e_idempotent(G, pair[0], pair[1])
