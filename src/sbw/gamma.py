"""Exact-rational combinations of section classes with Mackey composition.

An element of the module Gamma(G, H) is a finite rational combination of
conjugacy classes of sections of G x H.  Composition over a middle group
is the bilinear extension of

    (T,S) o (V,U) = sum over t in p2(S)\\H/p1(U) of
                    ( T * (t,1)V,  S * (t,1)U )

where * is relational composition and (t,1) twists the left coordinate.
``class_products`` is the class-level kernel: one left class against a
batch of right classes.  Within a batch it computes each relational
half-product once per (twist, row tuple); across batches it keeps the
double cosets of each middle group as (conjugation perm, count) pairs and
the product class of each ambient by its (T rows, S rows) (see ``memo``).
``class_product`` is the kernel on one pair.  ``compose_row(a, bs)`` is
the memoized entry point: it keeps each product in a process-wide table,
left class id -> {right class id: product}, and hands a row's misses to
``class_products`` in one call; ``compose_classes`` is its one-pair case.
``class_sums`` is the one loop that sums integer multiples of class
products, for ``compose`` and for the idempotents checks in ``verify``:
``compose`` sums, for each class of its left operand, that class's row
against the right operand's numerators, and keeps the row sum in the right
operand (see ``compose``).  Callers whose products never repeat
(``classify.gamma_group`` and the span oracle) call ``class_products`` and
keep no pair in that table.  All coefficients are exact: a
``GammaElement`` holds integer numerators over one denominator, and
``compose`` builds no ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MiddleMismatch, NotInPoset, SpaceMismatch
from .groups import (
    Group,
    Subgroup,
    as_group,
    direct_product,
    double_cosets,
    quotient,
)
from . import crossed, memo
from .sections import (
    BYTE_BITS,
    SectionClass,
    bit_indices,
    canonical_section,
    opposite_class,
    subgroup_parts,
)


class GammaElement:
    """An element of Gamma(G, H): integer numerators over one denominator.

    The coefficient of a class is nums[cls] / den: ``den`` is a positive
    int, ``nums`` maps the support, in order of first appearance, to
    nonzero ints, and gcd(den, *nums.values()) == 1, so den is the lcm of
    the reduced denominators.  ``coeffs``, the same map with ``Fraction``
    values, is built on first read.  None of the three may be modified:
    ``compose`` keeps row sums in its right operand on that promise.
    """

    __slots__ = ("left", "right", "den", "nums", "_coeffs", "_row_sums")

    def __init__(self, left: Group, right: Group, coeffs: dict):
        direct_product(left, right)  # the ambient must fit the order cap
        qs = [(cls, c if c.__class__ is Fraction else Fraction(c))
              for cls, c in coeffs.items()]
        d = lcm(*(c.denominator for _, c in qs))
        self._set(left, right, d, {cls: c.numerator * (d // c.denominator)
                                   for cls, c in qs if c})

    def _set(self, left: Group, right: Group, den: int, nums: dict):
        """Fill the fields with sum n/den * cls over nums (den > 0, no n
        zero), divided through by the gcd; returns self."""
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {cls: n // g for cls, n in nums.items()}
        self.left = left
        self.right = right
        self.den = den
        self.nums = nums
        self._coeffs = None
        self._row_sums = None
        return self

    @property
    def coeffs(self) -> dict:
        """class -> Fraction, in the order of ``nums``; do not modify it."""
        if self._coeffs is None:
            d = self.den
            self._coeffs = {cls: Fraction(n, d)
                            for cls, n in self.nums.items()}
        return self._coeffs

    @property
    def ambient(self) -> Group:
        return direct_product(self.left, self.right)

    def space(self) -> tuple:
        return (self.left.digest, self.right.digest)

    def is_zero(self) -> bool:
        return not self.nums

    def _plus(self, other, sign: int):
        if not isinstance(other, GammaElement):
            return NotImplemented
        if self.space() != other.space():
            raise SpaceMismatch("cannot add elements of different modules")
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        nums = {cls: n * fa for cls, n in self.nums.items()}
        for cls, n in other.nums.items():
            nums[cls] = nums.get(cls, 0) + n * fb
        return _element(self.left, self.right, d,
                        {cls: n for cls, n in nums.items() if n})

    def __add__(self, other: "GammaElement") -> "GammaElement":
        return self._plus(other, 1)

    def __sub__(self, other: "GammaElement") -> "GammaElement":
        return self._plus(other, -1)

    def __mul__(self, scalar) -> "GammaElement":
        if isinstance(scalar, GammaElement):
            return NotImplemented
        s = Fraction(scalar)
        m = s.numerator
        return _element(self.left, self.right, self.den * s.denominator,
                        {cls: n * m for cls, n in self.nums.items()}
                        if m else {})

    __rmul__ = __mul__

    def __neg__(self) -> "GammaElement":
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, GammaElement)
                and self.space() == other.space()
                and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.space(), self.den, frozenset(self.nums.items())))

    def __repr__(self):
        n = len(self.nums)
        return f"GammaElement({self.left.name}x{self.right.name}, {n} classes)"


def _element(left: Group, right: Group, den: int, nums: dict) -> GammaElement:
    """The element sum n/den * cls over nums, in lowest terms."""
    return GammaElement.__new__(GammaElement)._set(left, right, den, nums)


def zero(G: Group, H: Group) -> GammaElement:
    return GammaElement(G, H, {})


def basis_element(G: Group, H: Group, cls: SectionClass,
                  coeff=1) -> GammaElement:
    return GammaElement(G, H, {cls: Fraction(coeff)})


def _graph_element(G: Group, H: Group, pairs) -> GammaElement:
    """The basis element of Gamma(G, H) of the class of (U, U), where U is
    the subgroup of G x H on the (g, h) of ``pairs``."""
    U = tuple(sorted(g * H.order + h for g, h in pairs))
    return basis_element(G, H, canonical_section(direct_product(G, H), U, U))


def identity_element(G: Group) -> GammaElement:
    """The class of (diag(G), diag(G)), the identity of Gamma(G, G)."""
    return _graph_element(G, G, ((g, g) for g in range(G.order)))


# left class uid -> {right class uid: product}; _NO_ROW, never stored or
# modified, stands in for a left class with no row yet.
_CLASS_COMPOSE = memo.table(None, "compose_classes")
_NO_ROW: dict = {}
# Few distinct products recur across many class pairs, so equal results
# share one dict: product items -> that dict.
_PRODUCTS = memo.table(None, "shared_products")


def _twists(H: Group, A: Subgroup, B: Subgroup) -> tuple:
    """The double cosets A\\H/B as (perm, count) pairs, memoized in H.

    For a representative t, perm is conjugation by t^-1, so row x of the
    twist (t,1)U of U <= H x K is row perm[x] of U.  Representatives with
    equal perms twist alike, so each perm appears once, with the number
    of its representatives, in order of first appearance.
    """
    cache = memo.table(H, "twists")
    key = (A.elems, B.elems)
    hit = cache.get(key)
    if hit is None:
        counts: dict = {}
        for t in double_cosets(A, H, B):
            perm = H.conj_perm(H.inv(t))
            counts[perm] = counts.get(perm, 0) + 1
        hit = cache[key] = tuple(counts.items())
    return hit


def _star(index_lists, rows) -> tuple:
    """Rows of A * B: row g ORs B's rows over A's row g, given as indices."""
    out = []
    for idx in index_lists:
        r = 0
        for h in idx:
            r |= rows[h]
        out.append(r)
    return tuple(out)


def _row_elems(rows, ko: int) -> tuple:
    """The sorted elements g*|K| + k of a subgroup of G x K given by rows."""
    return tuple([base + k
                  for base, m in zip(range(0, len(rows) * ko, ko), rows)
                  for k in bit_indices(m)])


def class_products(a: SectionClass, bs) -> list:
    """Integer multiplicities of the Mackey products a o b, for b in bs.

    Each double coset representative t contributes the class of
    (Ta * (t,1)Tb, Sa * (t,1)Sb).  The relational products run on the
    classes' bit rows (``SectionClass.rows``), and the twist by (t,1)
    permutes Tb's and Sb's rows by conjugation with t, so representatives
    with the same conjugation permutation give the same term.
    ``sections.star`` and ``sections.conj_left`` are the same operations
    on ``Subgroup`` objects.

    a's rows are expanded to bit indices once per batch and read through
    each distinct twist perm once.  Ta * (t,1)Tb depends only on the perm
    and Tb's rows, and Sa * (t,1)Sb only on the perm and Sb's rows, so a
    batch of more than one b computes each half once per (perm, rows).
    Two memos outlive the batch: ``_twists``, and the product class per
    ambient and pair of row tuples, so that a repeated product skips
    ``canonical_section``.  Returns one dict per b, in order; equal to
    ``[class_product(a, b) for b in bs]``.
    """
    G, H = a.ambient.factors
    ta, sa, _, p2sa = a.rows()
    ta_bits = [BYTE_BITS[m] if m < 256 else bit_indices(m) for m in ta]
    sa_bits = [BYTE_BITS[m] if m < 256 else bit_indices(m) for m in sa]
    # perm -> (Ta's bits read through perm, Sa's likewise, Tb rows -> Ta
    # half, Sb rows -> Sa half), kept only if more than one b may share
    # them; entries and halves are non-empty tuples, so ``or`` is a miss.
    twisted = {tuple(range(H.order)): (ta_bits, sa_bits, {}, {})}
    plans: dict = {}  # p1(Sb) -> [(twisted entry, count)]
    share = len(bs) > 1
    ambient = by_rows = None
    out = []
    for b in bs:
        if b.ambient is not ambient:
            H2, K = b.ambient.factors
            if H2.digest != H.digest:
                raise MiddleMismatch("composition needs a common middle group")
            ambient = b.ambient
            target = direct_product(G, K)
            ko = K.order
            by_rows = memo.table(target, "class_of_rows")
        tb, sb, p1sb, _ = b.rows()
        plan = plans.get(p1sb.elems)
        if plan is None:
            plan = plans[p1sb.elems] = []
            for perm, count in _twists(H, p2sa, p1sb):
                plan.append((twisted.get(perm) or twisted.setdefault(perm, (
                    [[perm[x] for x in bits] for bits in ta_bits],
                    [[perm[x] for x in bits] for bits in sa_bits], {}, {})),
                    count))
        prod: dict = {}
        for (t_idx, s_idx, t_of, s_of), count in plan:
            if share:
                key = (t_of.get(tb) or t_of.setdefault(tb, _star(t_idx, tb)),
                       s_of.get(sb) or s_of.setdefault(sb, _star(s_idx, sb)))
            else:
                key = (_star(t_idx, tb), _star(s_idx, sb))
            cls = by_rows.get(key)
            if cls is None:
                cls = by_rows[key] = canonical_section(
                    target, _row_elems(key[0], ko), _row_elems(key[1], ko))
            prod[cls] = prod.get(cls, 0) + count
        out.append(prod)
    return out


def class_product(a: SectionClass, b: SectionClass) -> dict:
    """``class_products(a, (b,))[0]``; nothing is memoized per pair."""
    return class_products(a, (b,))[0]


def compose_row(a: SectionClass, bs) -> list:
    """``[class_product(a, b) for b in bs]``, memoized by the classes' ids.

    The memo maps a's uid to a dict from b's uid to the product.  The pairs
    missing from it go to ``class_products`` in one batch, and are stored
    only once the whole batch has succeeded.  The returned dicts are shared
    by the memo and by equal products; callers must not modify them.
    """
    known = _CLASS_COMPOSE.get(a.uid, _NO_ROW)
    get = known.get
    row = [get(b.uid) for b in bs]
    if None not in row:
        return row
    misses = {b.uid: b for b, prod in zip(bs, row) if prod is None}
    found = {ub: _PRODUCTS.setdefault(tuple(prod.items()), prod)
             for ub, prod in zip(misses, class_products(a, misses.values()))}
    _CLASS_COMPOSE.setdefault(a.uid, {}).update(found)
    return [found[b.uid] if prod is None else prod
            for b, prod in zip(bs, row)]


def compose_classes(a: SectionClass, b: SectionClass) -> dict:
    """``compose_row(a, (b,))[0]``; a memo hit is two ``dict.get``s."""
    hit = _CLASS_COMPOSE.get(a.uid, _NO_ROW).get(b.uid)
    if hit is not None:
        return hit
    return compose_row(a, (b,))[0]


def class_sums(prods, terms) -> dict:
    """The sum of n * prods[k] over the (k, n) in terms, for class products
    prods[k] (class -> int), as class -> int in order of first appearance,
    zeros dropped; terms are accumulated by class, which hashes by
    identity."""
    acc: dict = {}
    for k, n in terms:
        for cls, m in prods[k].items():
            if cls in acc:
                acc[cls] += n * m
            else:
                acc[cls] = n * m
    return {cls: q for cls, q in acc.items() if q}


def compose(a: GammaElement, b: GammaElement) -> GammaElement:
    """Composition Gamma(G,H) x Gamma(H,K) -> Gamma(G,K).

    By bilinearity each class c of a contributes its numerator times the
    row sum of c o c' over b's classes c' and numerators (``class_sums``).
    b keeps these rows, as (class, integer) pairs, in its ``_row_sums``,
    keyed by c's uid, but only when a has more than one class: a one-class
    a's row is the whole product.  The memo lives and dies with b, which is
    sound only because ``nums`` is never modified.  A class that cancels
    within one row is dropped from it, so it may appear later in the
    result's order.
    """
    if a.right.digest != b.left.digest:
        raise MiddleMismatch("composition needs a common middle group")
    if not (a.nums and b.nums):  # zero; __init__ checks G x K's order
        return GammaElement(a.left, b.right, {})
    # Accumulate exact integers over the common denominator a.den * b.den.
    left, right = a.nums, b.nums
    store = len(left) > 1
    rows = b._row_sums
    if rows is None:
        rows = {}
        if store:
            b._row_sums = rows
    acc: dict = {}
    for cls_a, na in left.items():
        row = rows.get(cls_a.uid)
        if row is None:
            row = tuple(class_sums(compose_row(cls_a, right.keys()),
                                   enumerate(right.values())).items())
            if store:
                rows[cls_a.uid] = row
        for cls, n in row:
            if cls in acc:
                acc[cls] += na * n
            else:
                acc[cls] = na * n
    return _element(a.left, b.right, a.den * b.den,
                    {cls: n for cls, n in acc.items() if n})


def opposite_element(a: GammaElement) -> GammaElement:
    return _element(a.right, a.left, a.den,
                    {opposite_class(cls): n for cls, n in a.nums.items()})


# -- elementary elements -------------------------------------------------------

def induction(G: Group, Hsub: Subgroup) -> GammaElement:
    """Ind: Gamma(G, H) class of (diag(H), diag(H)) for H <= G."""
    Hs, to_parent = as_group(Hsub)
    return _graph_element(G, Hs, ((g, i) for i, g in enumerate(to_parent)))


def restriction(G: Group, Hsub: Subgroup) -> GammaElement:
    """Res: Gamma(H, G) class of (diag(H), diag(H)) for H <= G."""
    Hs, to_parent = as_group(Hsub)
    return _graph_element(Hs, G, enumerate(to_parent))


def inflation(G: Group, N: Subgroup) -> GammaElement:
    """Inf: Gamma(G, G/N) class of the graph of the projection."""
    Q, pi = quotient(G, N)
    return _graph_element(G, Q, enumerate(pi.images))


def deflation(G: Group, N: Subgroup) -> GammaElement:
    """Def: Gamma(G/N, G) class of the reversed graph of the projection."""
    Q, pi = quotient(G, N)
    return _graph_element(Q, G, ((q, g) for g, q in enumerate(pi.images)))


# -- the idempotent-bearing sections ------------------------------------------

def e_class(G: Group, K: Subgroup, P: Subgroup) -> SectionClass:
    """The class of (Delta_K(G), Delta(P)) for a commuting normal pair."""
    if not crossed.in_poset(K, P):
        raise NotInPoset("(K, P) must be a commuting pair of normal subgroups")
    ambient = direct_product(G, G)
    n = G.order
    table, inv = G.table, G._inv
    kset = K.elem_set
    t_elems = tuple(sorted(
        g * n + h for g in range(n) for h in range(n)
        if table[inv[h]][g] in kset))
    s_elems = tuple(sorted(p * n + p for p in P.elems))
    return canonical_section(ambient, t_elems, s_elems)


def e_idempotent(G: Group, K: Subgroup, P: Subgroup) -> GammaElement:
    """e_(K,P) = [Delta_K(G), Delta(P)] / |G:P|."""
    return basis_element(G, G, e_class(G, K, P), Fraction(1, P.index))


# -- factorization through the section's middle quotients ----------------------

def factorize(cls: SectionClass) -> list:
    """Five elements (Ind, Inf, middle, Def, Res) composing to [cls].

    The middle lives over P_T/K_S and Q_T/L_S and is covering; the outer
    four are elementary.  Composing the list in order recovers the class.
    """
    G, H = cls.ambient.factors
    PT, _, _, QT = subgroup_parts(cls.ambient, cls.T)
    _, KS, LS, _ = subgroup_parts(cls.ambient, cls.S)

    PTg, pt_map = as_group(PT)
    QTg, qt_map = as_group(QT)
    pt_idx = {e: i for i, e in enumerate(pt_map)}
    qt_idx = {e: i for i, e in enumerate(qt_map)}
    KS_in = Subgroup(PTg, (pt_idx[x] for x in KS.elems), check=False)
    LS_in = Subgroup(QTg, (qt_idx[x] for x in LS.elems), check=False)
    Gbar, piG = quotient(PTg, KS_in)
    Hbar, piH = quotient(QTg, LS_in)

    amb_bar = direct_product(Gbar, Hbar)
    ho = H.order

    def push(elems):
        return tuple(sorted({
            piG.images[pt_idx[u // ho]] * Hbar.order
            + piH.images[qt_idx[u % ho]]
            for u in elems}))

    middle = basis_element(
        Gbar, Hbar, canonical_section(amb_bar, push(cls.T), push(cls.S)))
    return [
        induction(G, PT),
        inflation(PTg, KS_in),
        middle,
        deflation(QTg, LS_in),
        restriction(H, QT),
    ]


def compose_chain(elements) -> GammaElement:
    out = elements[0]
    for e in elements[1:]:
        out = compose(out, e)
    return out
