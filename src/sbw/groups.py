"""Finite groups as explicit multiplication tables with the identity at 0.

Everything downstream (sections of direct products, the composition
calculus, the classification reports) manipulates these table groups.
Groups are immutable after construction and all functions here are pure,
so expensive results (subgroup lattices, isomorphism lists, quotients)
are memoized in each group's own tables (see ``memo``); only interned
direct products are memoized process-wide.  Concurrent readers only ever
race to store identical values, so the tables stay consistent.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from . import memo
from .errors import (
    MixedParents,
    NoIdentity,
    NonAssociative,
    NotClosed,
    NotIso,
    NotNormal,
    NotSubgroup,
    OrderLimitExceeded,
    WorkbenchError,
)

DEFAULT_ORDER_CAP = 512


def order_cap() -> int:
    """The order cap, the one place it is read: SBW_MAX_ORDER (which
    ``--unsafe-order`` sets) overrides the default."""
    env = os.environ.get("SBW_MAX_ORDER")
    if not env:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0  # refused below, with the values under 1
    if cap < 1:
        raise WorkbenchError(
            f"SBW_MAX_ORDER must be an integer >= 1, not {env!r}")
    return cap


def _validate_table(rows: tuple) -> None:
    """Raise unless ``rows`` is the table of a group with identity 0.

    The cheap checks come first (size, entry range, identity, Latin
    square).  Associativity is then certified by Light's test: S is grown
    greedily in index order, each element that right multiplication by
    the S so far does not reach from 0 joining it, and (x*s)*y = x*(s*y)
    is checked for every s in S and all x, y, one row at a time.  The
    elements s passing that check are closed under products:
    (x*(st))*y = ((xs)t)y = (xs)(ty) = x(s(ty)) = x((st)y).  They contain
    S, which generates the table, so every element passes and the table
    is associative (Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1961).  On a failure the full scan names the least
    failing left factor.
    """
    n = len(rows)
    if n == 0:
        raise NoIdentity("empty multiplication table")
    for row in rows:
        if len(row) != n:
            raise NotClosed("multiplication table is not square")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise NotClosed("table entry outside the element range")
    idr = tuple(range(n))
    if rows[0] != idr or tuple(row[0] for row in rows) != idr:
        raise NoIdentity("index 0 is not a two-sided identity")
    if any(len(set(row)) != n for row in rows):
        raise NotClosed("some row is not a permutation")
    if any(len(set(col)) != n for col in zip(*rows)):
        raise NotClosed("some column is not a permutation")
    # n >= 2 whenever S is not empty, so each itemgetter returns a tuple.
    for s in _least_generators(rows, idr):
        after_s = itemgetter(*rows[s])
        if any(rows[tx[s]] != after_s(tx) for tx in rows):
            getters = [itemgetter(*row) for row in rows]
            for a, ta in enumerate(rows):
                if any(rows[ta[b]] != getters[b](ta) for b in idr):
                    raise NonAssociative(
                        f"associativity fails for left factor {a}")


class Group:
    """A finite group on ``{0, .., order-1}`` given by its full table.

    ``table[a][b]`` is the product ``a*b``.  Index 0 is the identity.
    ``factors`` is set on direct products.
    """

    def __init__(self, table, name: str = "G", factors=None,
                 validate: bool = True):
        rows = tuple(tuple(map(int, row)) for row in table)
        _check_order(len(rows))
        if validate:
            _validate_table(rows)
        self.table = rows
        self.order = len(rows)
        self.name = name
        self.factors = factors
        # One tuple shared by the keys of all section classes of a product.
        self.factor_digests = (None if factors is None
                               else (factors[0].digest, factors[1].digest))
        cells = array("H", itertools.chain.from_iterable(rows)).tobytes()
        self.digest = hashlib.blake2b(cells, digest_size=12).hexdigest()
        self._inv = tuple(int(row.index(0)) for row in rows)
        self._memo = memo.tables()

    # -- basic arithmetic ------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self._inv[g]]

    @memo.keyed(lambda g: g)
    def conj_perm(self, g: int) -> tuple:
        """The permutation x -> g*x*g^-1 as an image tuple."""
        row = self.table[g]
        gi = self._inv[g]
        return tuple(self.table[row[x]][gi] for x in range(self.order))

    @memo.once
    def element_orders(self) -> tuple:
        orders = []
        for a in range(self.order):
            x, k = a, 1
            while x != 0:
                x = self.table[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    @memo.once
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a]
                   for a in range(self.order) for b in range(a + 1, self.order))

    @memo.once
    def generators(self) -> tuple:
        """A small generating sequence, grown by least element not yet generated."""
        return _least_generators(self.table, range(self.order))

    # -- subgroup shorthands ----------------------------------------------
    def subgroup(self, elems: Iterable[int]) -> "Subgroup":
        return Subgroup(self, elems)

    @memo.once
    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), gens=(), check=False)

    @memo.once
    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order), gens=self.generators(),
                        check=False)

    # -- direct product helpers --------------------------------------------
    def pair(self, a: int, b: int) -> int:
        """Index of (a, b) in this direct product."""
        from .errors import NotAProduct
        if self.factors is None:
            raise NotAProduct(f"{self.name} carries no factor metadata")
        return a * self.factors[1].order + b

    def __eq__(self, other):
        return isinstance(other, Group) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"


def closure_set(G: Group, gens: Sequence[int]) -> set:
    """Elements of the subgroup generated by ``gens``."""
    return _closure(G.table, gens)


def _closure(table: tuple, gens: Sequence[int]) -> set:
    """Elements reached from 0 by right multiplication by ``gens``."""
    elems = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            row = table[a]
            for g in gens:
                b = row[g]
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return elems


def orbit(start, images) -> set:
    """Every point reached from ``start`` by breadth-first search, where
    ``images(x)`` gives the images of x under each generator."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in images(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _least_generators(table: tuple, elems: Sequence[int]) -> tuple:
    """Generators of the subgroup on ``elems``, each the least element not
    yet generated."""
    gens: list = []
    closure = {0}
    while len(closure) < len(elems):
        gens.append(min(x for x in elems if x not in closure))
        closure = _closure(table, gens)
    return tuple(gens)


class Subgroup:
    """A subgroup of a fixed parent group, stored as a sorted element tuple."""

    __slots__ = ("parent", "elems", "elem_set", "order", "gens", "_normal",
                 "_hash")

    def __init__(self, parent: Group, elems: Iterable[int], gens=None, check: bool = True):
        self.parent = parent
        self.elems = tuple(sorted(set(int(x) for x in elems)))
        self.elem_set = frozenset(self.elems)
        self.order = len(self.elems)
        self._hash = hash((parent.digest, self.elems))
        self.gens = tuple(gens) if gens is not None else None
        self._normal = None
        if check:
            if not self.elems or self.elems[0] != 0:
                raise NotSubgroup("subgroup must contain the identity")
            table = parent.table
            s = self.elem_set
            for a in self.elems:
                row = table[a]
                for b in self.elems:
                    if row[b] not in s:
                        raise NotSubgroup(f"not closed: {a}*{b} escapes")

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def generators(self) -> tuple:
        """A small generating sequence inside the parent's indexing."""
        if self.gens is None:
            self.gens = _least_generators(self.parent.table, self.elems)
        return self.gens

    def contains(self, other: "Subgroup") -> bool:
        return other.elem_set <= self.elem_set

    def is_normal(self) -> bool:
        """Normality in the full parent group."""
        if self._normal is None:
            self._normal = all(
                self.parent.conj(g, x) in self.elem_set
                for g in self.parent.generators() for x in self.generators()
            )
        return self._normal

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.parent.digest == other.parent.digest
                and self.elems == other.elems)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (len(self.elems), self.elems) < (len(other.elems), other.elems)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


@memo.keyed(lambda elems: elems)
def shared_subgroup(G: Group, elems: tuple) -> Subgroup:
    """The unchecked subgroup of G on the ascending tuple ``elems``, one
    object per (G, elems): section classes hold thousands of references to
    a few dozen subgroups of their factors."""
    return Subgroup(G, elems, check=False)


def generated_subgroup(G: Group, gens: Sequence[int]) -> Subgroup:
    return Subgroup(G, closure_set(G, tuple(gens)), gens=tuple(gens), check=False)


def _require_same_parent(*subs: Subgroup) -> Group:
    parent = subs[0].parent
    for s in subs[1:]:
        if s.parent.digest != parent.digest:
            raise MixedParents("subgroups live in different parent groups")
    return parent


def is_normal_in(A: Subgroup, B: Subgroup) -> bool:
    """Whether A is a normal subgroup of B (in particular A <= B)."""
    _require_same_parent(A, B)
    if not B.contains(A):
        return False
    t, inv, s = A.parent.table, A.parent._inv, A.elem_set
    return all(t[t[b][a]][inv[b]] in s
               for b in B.generators() for a in A.generators())


def center(G: Group) -> Subgroup:
    table = G.table
    elems = [g for g in range(G.order)
             if all(table[g][x] == table[x][g] for x in G.generators())]
    return Subgroup(G, elems, check=False)


def commute_elementwise(A: Subgroup, B: Subgroup) -> bool:
    G = _require_same_parent(A, B)
    table = G.table
    return all(table[a][b] == table[b][a] for a in A.generators() for b in B.elems)


def product_set(A: Subgroup, B: Subgroup) -> Subgroup:
    """The set product AB; for this to be the join one of them should be normal."""
    G = _require_same_parent(A, B)
    table = G.table
    elems = {table[a][b] for a in A.elems for b in B.elems}
    return generated_subgroup(G, sorted(elems))


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    _require_same_parent(A, B)
    return Subgroup(A.parent, A.elem_set & B.elem_set, check=False)


def double_cosets(A: Subgroup, G: Group, B: Subgroup) -> list:
    """Least-element representatives of the double cosets A\\G/B, ascending."""
    if A.parent.digest != G.digest or B.parent.digest != G.digest:
        raise MixedParents("double cosets need subgroups of the ambient group")
    table = G.table
    seen = bytearray(G.order)
    reps = []
    for t in range(G.order):
        if seen[t]:
            continue
        reps.append(t)
        for a in A.elems:
            row = table[table[a][t]]
            for b in B.elems:
                seen[row[b]] = 1
    return reps


# -- subgroup lattice ------------------------------------------------------

@dataclass
class SubgroupClass:
    rep: Subgroup
    members: tuple  # all conjugates, sorted


@dataclass
class SubgroupLattice:
    group: Group
    all: tuple        # every subgroup, sorted by (order, elems)
    classes: tuple    # conjugacy classes, sorted by (order, rep.elems)


@memo.once
def subgroup_lattice(G: Group) -> SubgroupLattice:
    """All subgroups via closure of generated sets over a worklist.

    Seeds with the cyclic subgroups, then repeatedly extends each known
    subgroup by one new generator.  This touches each subgroup once per
    redundant generator but never scans the power set.
    """
    found: dict = {frozenset((0,)): ()}
    frontier = [(frozenset((0,)), ())]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in range(1, G.order):
                if g in elems:
                    continue
                new_gens = gens + (g,)
                new_elems = frozenset(closure_set(G, new_gens))
                if new_elems not in found:
                    found[new_elems] = new_gens
                    nxt.append((new_elems, new_gens))
        frontier = nxt
    # The lattice's subgroups are the shared ones, so the pairs and class
    # middles built from either are one object per subgroup.
    subs = []
    for elems, gens in found.items():
        s = shared_subgroup(G, tuple(sorted(elems)))
        if s.gens is None and gens:
            s.gens = gens
        subs.append(s)
    subs.sort()
    by_elems = {s.elem_set: s for s in subs}
    # conjugacy classes via orbit of the element set under generator conjugation
    perms = [G.conj_perm(g) for g in G.generators()]
    assigned: set = set()
    classes = []
    for s in subs:
        if s.elem_set in assigned:
            continue
        conjugates = orbit(s.elem_set, lambda cur: [
            frozenset([perm[x] for x in cur]) for perm in perms])
        assigned |= conjugates
        members = tuple(sorted(by_elems[m] for m in conjugates))
        classes.append(SubgroupClass(rep=members[0], members=members))
    classes.sort(key=lambda c: (c.rep.order, c.rep.elems))
    return SubgroupLattice(group=G, all=tuple(subs), classes=tuple(classes))


def normal_subgroups(G: Group) -> list:
    """All normal subgroups, sorted by (order, elems)."""
    return [c.rep for c in subgroup_lattice(G).classes if len(c.members) == 1]


@memo.once
def conjugacy_classes(G: Group) -> tuple:
    """Conjugacy classes of elements as sorted tuples, least member first."""
    perms = [G.conj_perm(g) for g in G.generators()]
    seen: set = set()
    classes = []
    for x in range(G.order):
        if x not in seen:
            cc = orbit(x, lambda y: [perm[y] for perm in perms])
            seen |= cc
            classes.append(tuple(sorted(cc)))
    return tuple(classes)


# -- homomorphisms ---------------------------------------------------------

class Hom:
    """A homomorphism between table groups, stored by its image tuple."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Group, target: Group, images: Sequence[int],
                 check: bool = True):
        self.source = source
        self.target = target
        self.images = tuple(int(x) for x in images)
        if check:
            if len(self.images) != source.order:
                raise NotIso("image list has the wrong length")
            if self.images[0] != 0:
                raise NotIso("identity must map to identity")
            st, tt = source.table, target.table
            im = self.images
            for a in range(source.order):
                for b in range(source.order):
                    if im[st[a][b]] != tt[im[a]][im[b]]:
                        raise NotIso(f"not a homomorphism at ({a},{b})")

    def is_bijective(self) -> bool:
        return (self.source.order == self.target.order
                and len(set(self.images)) == self.source.order)

    def inverse(self) -> "Hom":
        if not self.is_bijective():
            raise NotIso("cannot invert a non-bijective homomorphism")
        inv = [0] * self.target.order
        for x, y in enumerate(self.images):
            inv[y] = x
        return Hom(self.target, self.source, inv, check=False)

    def __eq__(self, other):
        return (isinstance(other, Hom)
                and self.source.digest == other.source.digest
                and self.target.digest == other.target.digest
                and self.images == other.images)

    def __hash__(self):
        return hash((self.source.digest, self.target.digest, self.images))

    def __repr__(self):
        return f"Hom({self.source.name}->{self.target.name}, {self.images})"


def isomorphisms(G: Group, H: Group, limit: Optional[int] = None) -> list:
    """All isomorphisms G -> H by generator-image backtracking.

    Candidate images are filtered by element order and tried in index
    order, so the output order is deterministic.  Results are cached.
    """
    cache = memo.table(G, "isomorphisms")
    if H.digest in cache:
        full = cache[H.digest]
        return full if limit is None else full[:limit]
    out: list = []
    if G.order == H.order:
        gens = G.generators()
        g_orders = G.element_orders()
        h_orders = H.element_orders()
        by_order: dict = {}
        for x in range(H.order):
            by_order.setdefault(h_orders[x], []).append(x)
        table_g, table_h = G.table, H.table

        def extend(partial: dict, used: set, g: int, h: int):
            """Close partial | {g:h} under products; None on conflict."""
            m = dict(partial)
            used2 = set(used)
            if h in used2:
                return None
            m[g] = h
            used2.add(h)
            queue = [g]
            dom = list(partial)
            while queue:
                x = queue.pop()
                for y in list(dom) + [x]:
                    for a, b in ((x, y), (y, x)):
                        z = table_g[a][b]
                        w = table_h[m[a]][m[b]]
                        if z in m:
                            if m[z] != w:
                                return None
                        else:
                            if w in used2:
                                return None
                            m[z] = w
                            used2.add(w)
                            queue.append(z)
                dom.append(x)
            return m, used2

        def search(i: int, partial: dict, used: set):
            if limit is not None and len(out) >= limit:
                return
            if i == len(gens):
                if len(partial) == G.order:
                    images = tuple(partial[x] for x in range(G.order))
                    out.append(Hom(G, H, images, check=False))
                return
            g = gens[i]
            for h in by_order.get(g_orders[g], ()):
                ext = extend(partial, used, g, h)
                if ext is not None:
                    search(i + 1, ext[0], ext[1])

        search(0, {0: 0}, {0})
        del search  # it calls itself through its cell: break that cycle
    if limit is None:
        cache[H.digest] = out
        return list(out)
    return out


def automorphism_count(G: Group) -> int:
    """|Aut(G)|, counted by enumerating automorphisms up to cap^2.

    Past cap^2 automorphisms the enumeration stops and
    OrderLimitExceeded is raised, so the count never runs unbounded.
    """
    cap = order_cap()
    limit = cap * cap
    n = len(isomorphisms(G, G, limit=limit + 1))
    if n > limit:
        raise OrderLimitExceeded(
            f"|Aut({G.name})| exceeds {limit}, the square of cap {cap}")
    return n


# -- constructors ------------------------------------------------------------

def group_from_perm_gens(perm_gens, name: str = "G") -> Group:
    """Close a permutation generating set; elements are ordered with the
    identity first and the rest lexicographically by image tuple."""
    gens = [tuple(int(x) for x in p) for p in perm_gens]
    degree = len(gens[0]) if gens else 1
    for p in gens:
        if sorted(p) != list(range(degree)):
            raise NotClosed(f"{p} is not a permutation")
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    cap = order_cap()
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[x]] for x in range(degree))
                if r not in elems:
                    elems.add(r)
                    nxt.append(r)
                    if len(elems) > cap:
                        raise OrderLimitExceeded(
                            f"permutation closure exceeds cap {cap}")
        frontier = nxt
    ordered = [ident] + sorted(e for e in elems if e != ident)
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[tuple(p[q[x]] for x in range(degree))] for q in ordered]
             for p in ordered]
    return Group(table, name=name)


def _check_order(n: int, what: str = "order") -> None:
    """Refuse an order above the cap before any table is built."""
    cap = order_cap()
    if n > cap:
        raise OrderLimitExceeded(f"{what} {n} exceeds cap {cap}")


def cyclic(n: int) -> Group:
    if n < 1:
        raise NotClosed("cyclic group needs order >= 1")
    _check_order(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Group(table, name=f"C{n}")


def dihedral(order: int) -> Group:
    """Dihedral group of the given (even, >= 2) order: <a, b | a^n, b^2, bab=a^-1>.

    Element i + n*j encodes a^i b^j with n = order/2.
    """
    if order < 2 or order % 2:
        raise NotClosed("dihedral group needs even order >= 2")
    _check_order(order)
    n = order // 2

    def mul(e1, e2):
        i, j = e1 % n, e1 // n
        k, l = e2 % n, e2 // n
        return (i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return Group(table, name=f"D{order}")


def quaternion(order: int = 8) -> Group:
    """The quaternion group <x, y | x^4, y x y^-1 = x^-1, x^2 = y^2>.

    Element i + 4*j encodes x^i y^j.  Only order 8 is supported.
    """
    if order != 8:
        raise NotClosed("only the order-8 quaternion group is built in")

    def mul(e1, e2):
        i, j = e1 % 4, e1 // 4
        k, l = e2 % 4, e2 // 4
        i2 = (i + (k if j == 0 else -k)) % 4
        if j and l:
            return (i2 + 2) % 4
        return i2 + 4 * ((j + l) % 2)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return Group(table, name="Q8")


def symmetric(n: int) -> Group:
    """Symmetric group on n points; elements sorted lexicographically."""
    if n < 1:
        raise NotClosed("symmetric group needs n >= 1")
    _check_order(math.factorial(n), what=f"S{n} order")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms]
             for p in perms]
    return Group(table, name=f"S{n}")


_PRODUCT_REGISTRY = memo.table(None, "direct_product")


def direct_product(G: Group, H: Group) -> Group:
    """The direct product with (g, h) stored at index g*|H| + h.

    Checked against the cap first, then interned so all callers share it.
    Not re-validated: a product of group tables is Latin, has identity
    0 = (0, 0) and is associative in each component, so it is a group.
    """
    ho = H.order
    n = G.order * ho
    _check_order(n, what="product order")
    key = (G.digest, H.digest)
    cached = _PRODUCT_REGISTRY.get(key)
    if cached is not None:
        return cached
    tg, th = G.table, H.table
    table = [[0] * n for _ in range(n)]
    for a in range(G.order):
        for b in range(ho):
            row = table[a * ho + b]
            ra, rb = tg[a], th[b]
            for c in range(G.order):
                rc = ra[c] * ho
                for d in range(ho):
                    row[c * ho + d] = rc + rb[d]
    P = _PRODUCT_REGISTRY[key] = Group(
        table, name=f"{G.name}x{H.name}", factors=(G, H), validate=False)
    return P


def quotient(G: Group, N: Subgroup) -> tuple:
    """(Q, pi): the quotient on least-element coset representatives.

    Raises NotNormal unless N is normal in G.
    """
    if N.parent.digest != G.digest:
        raise MixedParents("subgroup of a different group")
    cache = memo.table(G, "quotient")
    hit = cache.get(N.elems)
    if hit is not None:
        return hit
    if not N.is_normal():
        raise NotNormal(f"subgroup {N.elems} is not normal in {G.name}")
    table = G.table
    rep_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if rep_of[g] >= 0:
            continue
        reps.append(g)
        for x in N.elems:
            rep_of[table[g][x]] = g
    idx = {r: i for i, r in enumerate(reps)}
    qn = len(reps)
    qtable = [[idx[rep_of[table[reps[i]][reps[j]]]] for j in range(qn)]
              for i in range(qn)]
    name = f"{G.name}/{N.order}"
    Q = Group(qtable, name=name)
    pi = Hom(G, Q, tuple(idx[rep_of[g]] for g in range(G.order)), check=False)
    result = (Q, pi)
    cache[N.elems] = result
    return result


def as_group(P: Subgroup) -> tuple:
    """(S, to_parent): the subgroup as a standalone group plus the index map."""
    G = P.parent
    cache = memo.table(G, "as_group")
    hit = cache.get(P.elems)
    if hit is not None:
        return hit
    idx = {e: i for i, e in enumerate(P.elems)}
    table = [[idx[G.table[a][b]] for b in P.elems] for a in P.elems]
    S = Group(table, name=f"{G.name}[{P.order}]", validate=False)
    result = (S, P.elems)
    cache[P.elems] = result
    return result


class CosetView:
    """The quotient P/K of a subgroup pair, with maps to and from the parent.

    ``group`` is the quotient as a table group, ``indices[g]`` = ``idx(g)``
    the coset index of parent element g in P (-1 outside P), ``members[i]``
    the parent elements of coset i, ascending, and ``rep(i)`` the least.
    """

    __slots__ = ("group", "members", "indices")

    def __init__(self, parent: Group, P: Subgroup, K: Subgroup):
        if not is_normal_in(K, P):
            raise NotNormal("kernel part is not normal in its subgroup")
        S, to_parent = as_group(P)
        sub_idx = {e: i for i, e in enumerate(to_parent)}
        K_in_S = Subgroup(S, (sub_idx[x] for x in K.elems), check=False)
        Q, pi = quotient(S, K_in_S)
        self.group = Q
        idx = [-1] * parent.order
        for e, i in sub_idx.items():
            idx[e] = pi.images[i]
        self.indices = tuple(idx)
        members = [[] for _ in range(Q.order)]
        for e in P.elems:
            members[idx[e]].append(e)
        self.members = tuple(map(tuple, members))

    def idx(self, g: int) -> int:
        return self.indices[g]

    def rep(self, i: int) -> int:
        return self.members[i][0]


@memo.keyed(lambda P, K: (P.elems, K.elems))
def coset_structure(parent: Group, P: Subgroup, K: Subgroup) -> CosetView:
    return CosetView(parent, P, K)
