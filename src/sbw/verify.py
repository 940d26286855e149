"""Executable verification suites for the section composition calculus.

Each suite checks one family of defining identities over the built-in
catalog, filtered by a maximum group order, and returns Check records.
Everything is exact rational arithmetic; there are no tolerances.  The
only randomness is the seeded sample in the mackey suite, so two runs
with the same arguments produce identical reports.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Callable

from . import classify, crossed, gamma, posets, sections
from .catalog import default_catalog
from .errors import ConditionViolated, WorkbenchError
from .groups import (Group, automorphism_count, direct_product,
                     double_cosets, generated_subgroup, normal_subgroups,
                     product_set, quotient, subgroup_lattice)


@dataclass
class Check:
    suite: str
    name: str
    tag: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class VerifyReport:
    checks: tuple
    max_order: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _run(out: list, suite: str, name: str, tag: str, fn: Callable) -> None:
    """Run one check; a WorkbenchError or AssertionError marks it failed.

    Any other exception is a bug in the workbench: the check is recorded
    as failed with tag ``internal-error`` and the remaining checks run on.
    """
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
        if not isinstance(exc, (WorkbenchError, AssertionError)):
            tag = "internal-error"
    out.append(Check(suite=suite, name=name, tag=tag, ok=ok,
                     detail=detail if isinstance(detail, str) else "",
                     seconds=round(time.perf_counter() - t0, 3)))


def _groups(max_order: int, catalog=None) -> list:
    cat = default_catalog() if catalog is None else catalog
    return [(e.gid, e.group) for e in cat.entries if e.group.order <= max_order]


# -- group layer --------------------------------------------------------------

_AUT_ORDERS = {
    "C1": 1, "C2": 1, "C3": 2, "C4": 2, "C2xC2": 6, "C5": 4, "C6": 2,
    "S3": 6, "C7": 6, "C8": 4, "C4xC2": 8, "C2xC2xC2": 168, "D8": 8,
    "Q8": 24,
}


def suite_groups(max_order: int = 8, catalog=None) -> list:
    out = []
    for gid, G in _groups(max_order, catalog):
        def axioms(G=G):
            n = G.order
            for a in range(n):
                assert G.mul(0, a) == a and G.mul(a, 0) == a
                assert G.mul(a, G.inv(a)) == 0
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
            return f"order {n}"
        _run(out, "groups", f"{gid} table axioms", "table-axioms", axioms)

        def quotients(G=G):
            count = 0
            for N in normal_subgroups(G):
                Q, _ = quotient(G, N)
                assert Q.order * N.order == G.order
                count += 1
            return f"{count} normal subgroups"
        _run(out, "groups", f"{gid} quotient orders", "quotient-order",
             quotients)

        def cosets(G=G):
            subs = subgroup_lattice(G).all
            pairs = 0
            for A in subs:
                for B in subs:
                    reps = double_cosets(A, G, B)
                    seen = set()
                    for t in reps:
                        orbit = {G.mul(G.mul(a, t), b)
                                 for a in A.elems for b in B.elems}
                        assert not (orbit & seen)
                        seen |= orbit
                    assert len(seen) == G.order
                    pairs += 1
            return f"{pairs} subgroup pairs"
        _run(out, "groups", f"{gid} double coset partitions",
             "double-coset-partition", cosets)

        def auts(G=G, gid=gid):
            n = automorphism_count(G)
            assert n == _AUT_ORDERS[gid], \
                f"|Aut({gid})| = {n}, expected {_AUT_ORDERS[gid]}"
            return f"|Aut| = {n}"
        _run(out, "groups", f"{gid} automorphism group order", "aut-order",
             auts)
    return out


# -- Goursat round-trip --------------------------------------------------------

_GOURSAT_IDS = ("C1", "C2", "C3", "C4", "C2xC2", "S3")


def suite_goursat(max_order: int = 8, catalog=None) -> list:
    out = []
    cat = {gid: G for gid, G in _groups(max_order, catalog)}
    ids = [g for g in _GOURSAT_IDS if g in cat]
    for ga in ids:
        for gb in ids:
            G, H = cat[ga], cat[gb]
            X = direct_product(G, H)

            def roundtrip(X=X):
                n = 0
                for cls in sections.enumerate_sections(X):
                    T, S = cls.subgroups()
                    sec = sections.Section(X, T, S)
                    qT, qS = sections.section_quintuples(sec)
                    back = sections.section_from_goursat_pair(qT, qS)
                    assert back.T.elems == T.elems and back.S.elems == S.elems
                    n += 1
                return f"{n} sections"
            _run(out, "goursat", f"{ga}x{gb} quintuple round-trip",
                 "goursat-roundtrip", roundtrip)

            def crossmatch(X=X):
                quints = []
                for cls in sections.enumerate_sections(X):
                    T, S = cls.subgroups()
                    quints.append(sections.section_quintuples(
                        sections.Section(X, T, S)))
                accepted = rejected = 0
                tags = set()
                limit = min(len(quints), 24)
                for i in range(limit):
                    for j in range(limit):
                        try:
                            sec = sections.section_from_goursat_pair(
                                quints[i][0], quints[j][1])
                        except ConditionViolated as exc:
                            rejected += 1
                            tags.add(exc.tag)
                            continue
                        assert set(sec.S.elems) <= set(sec.T.elems)
                        accepted += 1
                assert tags <= {"S3", "S4", "S5", "S6", "S7"}, tags
                return (f"{accepted} rebuilt, {rejected} rejected, "
                        f"tags {sorted(tags)}")
            _run(out, "goursat", f"{ga}x{gb} mismatched quintuples",
                 "goursat-validation", crossmatch)
    return out


# -- Mackey composition --------------------------------------------------------

_MACKEY_SEED = 16807


def _random_section_class(rng: random.Random, X: Group) -> sections.SectionClass:
    """A random conjugacy class of sections via random generated subgroups."""
    n = X.order
    k = rng.randrange(1, 4)
    T = generated_subgroup(X, [rng.randrange(n) for _ in range(k)])
    t_elems = list(T.elems)
    for _ in range(40):
        gens = [rng.choice(t_elems) for _ in range(rng.randrange(1, 3))]
        S = generated_subgroup(X, gens)
        if all(X.mul(X.mul(t, s), X.inv(t)) in S.elem_set
               for t in T.elems for s in S.elems):
            return sections.canonical_section(X, T.elems, S.elems)
    return sections.canonical_section(X, T.elems, (0,))


def suite_mackey(max_order: int = 8, catalog=None, samples: int = 1000) -> list:
    out = []
    all_groups = _groups(max_order, catalog)
    small = [(gid, G) for gid, G in all_groups if G.order <= 3]

    def identities():
        n = 0
        for ga, G in small:
            for gb, H in small:
                X = direct_product(G, H)
                idG = gamma.identity_element(G)
                idH = gamma.identity_element(H)
                for cls in sections.enumerate_sections(X):
                    a = gamma.basis_element(G, H, cls)
                    assert gamma.compose(idG, a) == a
                    assert gamma.compose(a, idH) == a
                    n += 1
        return f"{n} identity laws"
    _run(out, "mackey", "identity element is neutral", "identity-neutral",
         identities)

    def exhaustive():
        basis = {}
        for ga, G in small:
            for gb, H in small:
                X = direct_product(G, H)
                basis[ga, gb] = [gamma.basis_element(G, H, c)
                                 for c in sections.enumerate_sections(X)]
        n = 0
        for ga, G in small:
            for gb, H in small:
                for gc, K in small:
                    for gd, L in small:
                        for a in basis[ga, gb]:
                            for b in basis[gb, gc]:
                                ab = gamma.compose(a, b)
                                for c in basis[gc, gd]:
                                    lhs = gamma.compose(ab, c)
                                    rhs = gamma.compose(a, gamma.compose(b, c))
                                    assert lhs == rhs
                                    n += 1
        return f"{n} triples"
    _run(out, "mackey", "associativity, exhaustive through order 3",
         "mackey-assoc-exhaustive", exhaustive)

    def anti_hom():
        n = 0
        for ga, G in small:
            for gb, H in small:
                X = direct_product(G, H)
                for ca in sections.enumerate_sections(X):
                    a = gamma.basis_element(G, H, ca)
                    for cb in sections.enumerate_sections(
                            direct_product(H, G)):
                        b = gamma.basis_element(H, G, cb)
                        lhs = gamma.opposite_element(gamma.compose(a, b))
                        rhs = gamma.compose(gamma.opposite_element(b),
                                            gamma.opposite_element(a))
                        assert lhs == rhs
                        n += 1
        return f"{n} pairs"
    _run(out, "mackey", "opposite reverses composition", "opposite-anti-hom",
         anti_hom)

    def randomized():
        rng = random.Random(_MACKEY_SEED)
        pool = [G for _, G in all_groups]
        n = 0
        while pool and n < samples:
            G, H, K, L = (rng.choice(pool) for _ in range(4))
            a = gamma.basis_element(
                G, H, _random_section_class(rng, direct_product(G, H)))
            b = gamma.basis_element(
                H, K, _random_section_class(rng, direct_product(H, K)))
            c = gamma.basis_element(
                K, L, _random_section_class(rng, direct_product(K, L)))
            lhs = gamma.compose(gamma.compose(a, b), c)
            rhs = gamma.compose(a, gamma.compose(b, c))
            assert lhs == rhs
            n += 1
        return f"{n} random triples, seed {_MACKEY_SEED}"
    _run(out, "mackey", f"associativity, {samples} seeded random triples",
         "mackey-assoc-random", randomized)
    return out


# -- idempotent calculus -------------------------------------------------------

_FULL_COVERING_LIMIT = 600
_TWO_SIDED_LIMIT = 150


def _e_data(G: Group):
    """Pairs, poset, normalized e elements, and their single support classes."""
    pairs = posets.normal_commuting_pairs(G)
    poset = posets.build_poset(G)
    es = {p: posets.e_idempotent(G, p) for p in pairs}
    ecls = {}
    for p in pairs:
        (cls, num), = es[p].nums.items()
        assert num == 1, p  # e = [cls] / (G:P), so the scale d is es[p].den
        ecls[p] = (cls, es[p].den)
    return pairs, poset, es, ecls


def _coset_counter(G: Group) -> Callable:
    """|A\\G/B| for subgroups A, B of G, counted once per pair.

    Each check makes its own counter, so the multiplicities it compares
    with the class products come from ``double_cosets`` and not from the
    composition kernel's memo.
    """
    counts: dict = {}

    def count(A, B) -> int:
        key = (A.elems, B.elems)
        n = counts.get(key)
        if n is None:
            n = counts[key] = len(double_cosets(A, G, B))
        return n
    return count


def _join_wants(G: Group, pairs, poset, middles) -> dict:
    """m0 -> (joins, scales, lefts, rights), tuples in pair order, for each
    distinct m0 in middles: for b with left (right) middle invariant m0,
    E_z o b (b o E_z) must be lefts[i] (rights[i]) times one class whose
    invariant on that side is joins[i] = z v m0; lefts[i] = |P_z\\G/P_m0|,
    rights[i] = |P_m0\\G/P_z|.  If z <= m0, that class is b and the
    multiplicity scales[i] = (G:P_z); else scales[i] = 0.  Each distinct m0
    costs one join per pair.
    """
    cosets = _coset_counter(G)
    ups = [poset.up[poset.index[z]] for z in pairs]
    wants = {}
    for m0 in dict.fromkeys(middles):
        bit = poset.index[m0]
        wants[m0] = (tuple(poset.join(z, m0) for z in pairs),
                     tuple(G.order // z[1].order if up >> bit & 1 else 0
                           for z, up in zip(pairs, ups)),
                     tuple(cosets(z[1], m0[1]) for z in pairs),
                     tuple(cosets(m0[1], z[1]) for z in pairs))
    return wants


def _class_actions(b, pairs, lefts, rights, want_l, want_r) -> None:
    """Check E_z o b (lefts) and b o E_z (rights), in pair order, against
    wants[l0] and wants[r0] of ``_join_wants``; shared by both modes."""
    joins_l, scales_l, counts_l, _ = want_l
    joins_r, scales_r, _, counts_r = want_r
    for prods, side, joins, counts, scales in (
            (lefts, 0, joins_l, counts_l, scales_l),
            (rights, 1, joins_r, counts_r, scales_r)):
        for z, prod, join, count, scale in zip(
                pairs, prods, joins, counts, scales, strict=True):
            (cls, m), = prod.items()
            assert cls.middles()[side] == join, (z, b.key)
            assert m == count, (z, b.key)
            if scale:
                assert cls == b and m == scale, (z, b.key)


def _central_split(terms, lefts, rights, den: int, b) -> list:
    """Check f_X o b = b o f_X per block X, and sum_X f_X o b = b, on the
    integer sums den * (f_X o b), which are returned, one per block.

    terms[X] lists the (k, n) with den * f_X = sum of n E_k, and lefts[k]
    and rights[k] are E_k o b and b o E_k."""
    sums = []
    for i, block in enumerate(terms):
        left = gamma.class_sums(lefts, block)
        assert left == gamma.class_sums(rights, block), (i, b.key)
        sums.append(left)
    assert gamma.class_sums(sums, [(i, 1) for i in range(len(sums))]) == \
        {b: den}, b.key
    return sums


def _idempotents_common(out: list, gid: str, G: Group, pairs, poset, ecls):
    """e-join grid with multiplicities; shared by both modes."""
    def grid():
        n = 0
        cosets = _coset_counter(G)
        e_classes = [ecls[w][0] for w in pairs]
        for z in pairs:
            Ez, dz = ecls[z]
            row = gamma.compose_row(Ez, e_classes)
            for w, prod in zip(pairs, row):
                _, dw = ecls[w]
                join = poset.join(z, w)
                mult = cosets(z[1], w[1])
                assert prod == {ecls[join][0]: mult}, (z, w)
                assert mult * ecls[join][1] == dz * dw, (z, w)
                n += 1
        return f"{n} products on {len(pairs)} pairs"
    _run(out, "idempotents", f"{gid} e-join grid", "e-join-grid", grid)


def _idempotents_self_opposite(out: list, gid: str, G: Group, basis, ecls):
    """b o b^op = |G:Q| [e_l0] for each covering class; shared by both modes."""
    def self_opposite():
        n = 0
        for b in basis:
            l0, r0 = b.middles()
            prod = gamma.class_product(b, sections.opposite_class(b))
            scale = G.order // r0[1].order
            assert prod == {ecls[l0][0]: scale}, b.key
            n += 1
        return f"{n} covering classes"
    _run(out, "idempotents", f"{gid} self-opposite scaling",
         "covering-self-opposite", self_opposite)


def _idempotents_full(out: list, gid: str, G: Group) -> None:
    """Exhaustive calculus: every product against every covering class."""
    pairs, poset, es, ecls = _e_data(G)
    fs = {p: posets.f_idempotent(G, p) for p in pairs}
    part = classify.linkage_partition(G)
    basis = classify.covering_basis(G)
    ident = gamma.identity_element(G)

    def block_sums(elems) -> list:
        """The sum of elems[p] over each linkage class, in block order."""
        return [sum((elems[p] for p in block), gamma.zero(G, G))
                for block in part.blocks]

    _idempotents_common(out, gid, G, pairs, poset, ecls)

    def f_laws():
        n = 0
        for x in pairs:
            for y in pairs:
                ef = gamma.compose(es[x], fs[y])
                fe = gamma.compose(fs[y], es[x])
                if posets.pair_leq(x, y):
                    assert ef == fs[y] and fe == fs[y], (x, y)
                else:
                    assert ef.is_zero() and fe.is_zero(), (x, y)
                ff = gamma.compose(fs[x], fs[y])
                assert (ff == fs[x]) if x == y else ff.is_zero(), (x, y)
                n += 1
        assert sum(fs.values(), gamma.zero(G, G)) == ident
        return f"{n} pairs, sum of f equals identity"
    _run(out, "idempotents", f"{gid} Moebius idempotent laws",
         "mobius-f-laws", f_laws)

    def class_sums():
        eX, fX = block_sums(es), block_sums(fs)
        n = 0
        for i in range(len(part.blocks)):
            for j in range(len(part.blocks)):
                prod = gamma.compose(eX[i], fX[j])
                if i == j:
                    assert prod == fX[j], (i, j)
                elif not part.leq[i][j]:
                    assert prod.is_zero(), (i, j)
                ffp = gamma.compose(fX[i], fX[j])
                assert (ffp == fX[i]) if i == j else ffp.is_zero(), (i, j)
                n += 1
        assert sum(fX, gamma.zero(G, G)) == ident
        return f"{len(part.blocks)} classes, {n} products"
    _run(out, "idempotents", f"{gid} linkage class sums",
         "linkage-class-sums", class_sums)

    def covering_action():
        middles = [b.middles() for b in basis]
        want = _join_wants(G, pairs, poset, [m for lr in middles for m in lr])
        e_classes = [ecls[z][0] for z in pairs]
        # lefts[i][j] = E_z o b for z = pairs[i], b = basis[j].
        lefts = [gamma.compose_row(Ez, basis) for Ez in e_classes]
        for b, (l0, r0), col in zip(basis, middles, zip(*lefts)):
            _class_actions(b, pairs, col, gamma.compose_row(b, e_classes),
                           want[l0], want[r0])
        n = len(pairs) * len(basis)
        return f"{n} class actions over {len(basis)} covering classes"
    _run(out, "idempotents", f"{gid} covering class actions",
         "covering-left-action", covering_action)

    def central():
        fX = block_sums(fs)
        # den * f_X = sum of n E_k over the classes E_k = support[k].
        den = lcm(*(f.den for f in fX))
        support = list({cls: None for f in fX for cls in f.nums})
        pos = {cls: k for k, cls in enumerate(support)}
        terms = [[(pos[cls], q * (den // f.den)) for cls, q in f.nums.items()]
                 for f in fX]
        # rows[k][j] = E_k o b for E_k = support[k], b = basis[j].
        rows = [gamma.compose_row(c, basis) for c in support]
        # f_X b f_Y = b f_X f_Y once centrality holds, so the quadratic
        # sweep over (X, Y) only runs where the basis is small.
        explicit = len(basis) <= _TWO_SIDED_LIMIT
        row_sums: dict = {}  # class d -> den * (d o f_Y), per block Y
        n = 0
        for b, lefts in zip(basis, zip(*rows)):
            l0, r0 = b.middles()
            assert part.block_of[l0] == part.block_of[r0], b.key
            comps = _central_split(terms, lefts,
                                   gamma.compose_row(b, support), den, b)
            n += 2 * len(fX)
            if not explicit:
                continue
            # den^2 * (f_X o b o f_Y) from the row sums den * (d o f_Y) of
            # the classes d of den * (f_X o b); a block pair where every
            # d o f_Y is zero needs no sum.
            n += len(fX) ** 2
            diag = []
            for i, comp in enumerate(comps):
                for d in comp:
                    if d not in row_sums:
                        row = gamma.compose_row(d, support)
                        row_sums[d] = [gamma.class_sums(row, block)
                                       for block in terms]
                weights = list(enumerate(comp.values()))
                for j, parts in enumerate(zip(*[row_sums[d] for d in comp])):
                    if not any(parts):
                        continue
                    both = gamma.class_sums(parts, weights)
                    if j == i:
                        diag.append(both)
                    else:
                        assert not both, (i, j, b.key)
            assert gamma.class_sums(diag, [(i, 1) for i in range(len(diag))]) \
                == {b: den * den}, b.key
        mode = "explicit two-sided" if explicit else "centrality"
        return f"{n} products, {mode}"
    _run(out, "idempotents", f"{gid} covering centrality",
         "covering-centrality", central)
    _idempotents_self_opposite(out, gid, G, basis, ecls)


def _idempotents_witness(out: list, gid: str, G: Group) -> None:
    """Large-lattice mode: the e grid stays exhaustive, the Moebius layer is
    verified in join coordinates over the grid, and the covering action runs
    against one witness class per distinct left middle invariant."""
    pairs, poset, es, ecls = _e_data(G)
    part = classify.linkage_partition(G)
    basis = classify.covering_basis(G)
    # poset.elements are the pairs in this order, so mob is keyed by the
    # positions of pairs.
    mob = poset.mobius()

    _idempotents_common(out, gid, G, pairs, poset, ecls)

    def join_lattice():
        n = len(pairs)
        up = poset.up
        for i in range(n):
            assert up[i] & (1 << i)
            for j in range(n):
                k = poset.join_index(i, j)
                assert up[i] & up[j] == up[k], (i, j)
        return f"{n * n} joins are least upper bounds"
    _run(out, "idempotents", f"{gid} join lattice structure",
         "join-lattice", join_lattice)

    def mobius_chars():
        # phi_w(e_z) = [z <= w] is multiplicative once products follow the
        # verified join grid; f orthogonality reduces to phi_w(f_x) = [x == w].
        n = len(pairs)
        for x in range(n):
            row = [0] * n
            for z in range(n):
                mz = mob.get((x, z), 0)
                if not mz:
                    continue
                up = poset.up[z]
                while up:
                    w_i = (up & -up).bit_length() - 1
                    up &= up - 1
                    row[w_i] += mz
            want = [0] * n
            want[x] = 1
            assert row == want, pairs[x]
        bottom = (G.trivial_subgroup(), G.full_subgroup())
        ident = gamma.identity_element(G)
        assert es[bottom] == ident
        total = {}
        for x in range(n):
            for z in range(n):
                mz = mob.get((x, z), 0)
                if mz:
                    total[z] = total.get(z, 0) + mz
        total = {z: c for z, c in total.items() if c}
        assert total == {poset.index[bottom]: 1}
        for block in part.blocks:
            for a in block:
                for b in block:
                    assert a == b or not posets.pair_leq(a, b), (a, b)
        return f"character matrix is the identity on {n} pairs"
    _run(out, "idempotents", f"{gid} Moebius idempotent laws",
         "mobius-f-laws", mobius_chars)

    def witness_action():
        by_l0 = {}
        for c in basis:
            l0 = c.middles()[0]
            old = by_l0.get(l0)
            if old is None or c.sort_key() < old.sort_key():
                by_l0[l0] = c
        witnesses = list(by_l0.values())
        want = _join_wants(G, pairs, poset,
                           [m for b in witnesses for m in b.middles()])
        e_classes = [ecls[z][0] for z in pairs]
        # lefts[i][j] = E_z o b for z = pairs[i], b = witnesses[j].
        lefts = [gamma.compose_row(Ez, witnesses) for Ez in e_classes]
        # |G| f_X = sum over x in X and z of mu(x, z) |P_z| E_z, because
        # e_z = E_z / (G:P_z).
        terms = []
        for block in part.blocks:
            acc = {}
            for x in block:
                for i, z in enumerate(pairs):
                    mz = mob.get((poset.index[x], i))
                    if mz:
                        acc[i] = acc.get(i, 0) + mz * z[1].order
            terms.append([(i, q) for i, q in acc.items() if q])
        for b, col in zip(witnesses, zip(*lefts)):
            l0, r0 = b.middles()
            assert part.block_of[l0] == part.block_of[r0], b.key
            mirrors = gamma.compose_row(b, e_classes)
            _class_actions(b, pairs, col, mirrors, want[l0], want[r0])
            # Per block: f_X acts the same from both sides (centrality);
            # off-diagonal f_X b f_Y = b f_X f_Y then vanishes by the
            # orthogonality and associativity checked elsewhere.
            _central_split(terms, col, mirrors, G.order, b)
        n = 2 * len(pairs) * len(witnesses)
        return f"{n} composes over {len(by_l0)} witness classes"
    _run(out, "idempotents", f"{gid} covering witness actions",
         "covering-left-action", witness_action)
    _idempotents_self_opposite(out, gid, G, basis, ecls)


def suite_idempotents(max_order: int = 8, catalog=None) -> list:
    out = []
    for gid, G in _groups(max_order, catalog):
        try:
            full = len(classify.covering_basis(G)) <= _FULL_COVERING_LIMIT
            (_idempotents_full if full else _idempotents_witness)(out, gid, G)
        except Exception as exc:
            # Set-up runs outside the checks: record its raise as the
            # group's first check failing, and go on to the next group.
            def setup(exc=exc):
                raise exc
            _run(out, "idempotents", f"{gid} e-join grid", "e-join-grid", setup)
    return out


# -- Gamma groups vs outer automorphisms ---------------------------------------

def suite_gamma(max_order: int = 8, catalog=None) -> list:
    out = []
    for gid, G in _groups(max_order, catalog):
        def gamma_out(G=G):
            pairs = posets.normal_commuting_pairs(G)
            for K, P in pairs:
                gg = classify.gamma_group(G, K, P)
                ao = crossed.aut_out(crossed.from_pair(G, K, P))
                assert gg.order == len(ao.out_reps), (K.elems, P.elems)
            return f"{len(pairs)} pairs"
        _run(out, "gamma", f"{gid} group order matches outer automorphisms",
             "gamma-out-order", gamma_out)

        def theta_bij(G=G):
            pairs = posets.normal_commuting_pairs(G)
            for K, P in pairs:
                gg = classify.gamma_group(G, K, P)
                ao = crossed.aut_out(crossed.from_pair(G, K, P))
                images = {crossed.theta(G, K, P, ao.auts[i]).classify()
                          for i in ao.out_reps}
                assert images == set(gg.classes), (K.elems, P.elems)
                assert len(images) == gg.order
            return f"{len(pairs)} explicit bijections"
        _run(out, "gamma", f"{gid} Theta bijection", "theta-bijection",
             theta_bij)

        def inverses(G=G):
            n = 0
            for K, P in posets.normal_commuting_pairs(G):
                gg = classify.gamma_group(G, K, P)
                for cls in gg.classes:
                    op = sections.opposite_class(cls)
                    i = gg.index[cls]
                    j = gg.index[op]
                    assert gg.group.mul(i, j) == 0
                    n += 1
            return f"{n} inverses are opposites"
        _run(out, "gamma", f"{gid} opposite is inverse", "opposite-inverse",
             inverses)
    return out


# -- linkage -------------------------------------------------------------------

def _by_orders(pairs) -> dict:
    """Pairs (K, P) grouped by (|P|, |G:K|), in order of first appearance."""
    out: dict = {}
    for K, P in pairs:
        out.setdefault((P.order, K.index), []).append((K, P))
    return out


def suite_linkage(max_order: int = 8, catalog=None) -> list:
    """Both linkage routes on every combination with |P| = |Q| and |G:K| =
    |H:L|.  Elsewhere both exit on these four orders alone, so they run on
    one combination per pair of signatures (|P|, |G:K|), (|Q|, |H:L|)."""
    groups = _groups(max_order, catalog)
    out = []
    for i, (ga, G) in enumerate(groups):
        for gb, H in groups[i:]:
            def agree(G=G, H=H):
                X = direct_product(G, H)
                pg = posets.normal_commuting_pairs(G)
                ph = posets.normal_commuting_pairs(H)
                n = len(pg) * len(ph)
                linked, has = crossed.linked, sections.has_constrained_section
                by_g, by_h = _by_orders(pg).items(), _by_orders(ph).items()
                mism = sum((linked(X, K, P, L, Q) is not None)
                           != has(X, K, P, L, Q)
                           for sg, gs in by_g for sh, hs in by_h
                           for (K, P), (L, Q) in (product(gs, hs) if sg == sh
                                                  else [(gs[0], hs[0])]))
                assert mism == 0, f"{mism} of {n} disagree"
                return f"{n} pair combinations agree"
            _run(out, "linkage", f"{ga} vs {gb} two linkage routes",
                 "linkage-two-routes", agree)
    return out


# -- matrix decomposition -------------------------------------------------------

_MATRIX_IDS = ("C2", "C3", "C4", "C2xC2", "C5", "S3", "C6", "C7", "C8",
               "C4xC2", "D8", "Q8")
_MATRIX_DIMS = {"C2": 4, "C3": 7, "C4": 14, "C2xC2": 118, "C5": 13, "S3": 6,
                "C6": 28, "C7": 19, "C8": 44, "C4xC2": 384, "D8": 61,
                "Q8": 101}


def suite_matrix(max_order: int = 8, catalog=None) -> list:
    out = []
    cat = {gid: G for gid, G in _groups(max_order, catalog)}
    for gid in _MATRIX_IDS:
        if gid not in cat:
            continue

        def blockwise(gid=gid):
            rep = classify.matrix_decomposition(cat[gid])
            total = sum(b.dim for b in rep.blocks)
            assert total == rep.covering_dim == _MATRIX_DIMS[gid], \
                (total, rep.covering_dim)
            return (f"dim {rep.covering_dim} = " +
                    " + ".join(f"{b.n}^2*{b.gamma_order}" for b in rep.blocks))
        _run(out, "matrix", f"{gid} blockwise dimensions",
             "matrix-block-dims", blockwise)

    if "C2" in cat:
        def desk(G=cat["C2"]):
            rep = classify.matrix_decomposition(G)
            dims = sorted(b.dim for b in rep.blocks)
            assert dims == [1, 1, 1, 1] and rep.covering_dim == 4
            return "4 = 1+1+1+1"
        _run(out, "matrix", "C2 desk value", "matrix-desk-c2", desk)
    return out


# -- reduced rules --------------------------------------------------------------

def suite_reduced(max_order: int = 8, catalog=None) -> list:
    out = []
    cat = default_catalog() if catalog is None else catalog
    for gid, G in _groups(max_order, cat):
        def soundness(G=G):
            pairs = posets.normal_commuting_pairs(G)
            normals = normal_subgroups(G)
            n = 0
            for K, P in pairs:
                st = classify.reduced_status(G, (K, P), cat)
                kle = K.elem_set <= P.elem_set
                plt = P.elem_set < K.elem_set
                pk_full = product_set(P, K).order == G.order
                necessary = any(
                    N.order > 1 and N.elem_set <= K.elem_set
                    and len(N.elem_set & P.elem_set) == 1
                    for N in normals)
                if kle:
                    assert st.verdict == "Reduced" and st.rule == "KleP"
                else:
                    if plt or pk_full or necessary:
                        assert st.verdict == "NotReduced", \
                            (K.elems, P.elems, st.rule)
                if st.verdict == "NotReduced":
                    assert not kle, (K.elems, P.elems, st.rule)
                n += 1
            return f"{n} pairs"
        _run(out, "reduced", f"{gid} rule soundness", "reduced-rules",
             soundness)

        def linkage_compat(G=G):
            part = classify.linkage_partition(G)
            for block in part.blocks:
                verdicts = {classify.reduced_status(G, p, cat).verdict
                            for p in block}
                assert len(verdicts) == 1, verdicts
            return f"{len(part.blocks)} linkage classes uniform"
        _run(out, "reduced", f"{gid} linkage compatibility",
             "reduced-linkage-compat", linkage_compat)

        def lower_set(G=G):
            pairs = posets.normal_commuting_pairs(G)
            st = {p: classify.reduced_status(G, p, cat).verdict
                  for p in pairs}
            n = 0
            for x in pairs:
                for y in pairs:
                    if posets.pair_leq(x, y):
                        assert not (st[y] == "Reduced"
                                    and st[x] == "NotReduced"), (x, y)
                        n += 1
            return f"{n} comparable pairs"
        _run(out, "reduced", f"{gid} reduced set is a lower set",
             "reduced-lower-set", lower_set)
    return out


# -- essential ideal oracle ------------------------------------------------------

_ORACLE_IDS = ("C2", "C3", "C4", "C2xC2", "S3")


def suite_essential(max_order: int = 8, catalog=None) -> list:
    out = []
    cat = default_catalog() if catalog is None else catalog
    lookup = {gid: G for gid, G in _groups(max_order, cat)}
    for gid in _ORACLE_IDS:
        if gid not in lookup:
            continue

        def oracle(gid=gid):
            rep = classify.ideal_span_oracle(lookup[gid], cat)
            assert rep.support_ok and rep.rank_ok and rep.block_sum_ok
            return (f"full {rep.full_dim}, ideal rank {rep.span_rank}, "
                    f"essential {rep.essential_dim}")
        _run(out, "essential", f"{gid} ideal span oracle",
             "ideal-span-oracle", oracle)

    if "C2" in lookup:
        def desk():
            rep = classify.ideal_span_oracle(lookup["C2"], cat)
            assert rep.essential_dim == 3, rep.essential_dim
            assert rep.full_dim == 12 and rep.span_rank == 9
            return "essential dimension 3 of 12"
        _run(out, "essential", "C2 essential dimension", "essential-desk-c2",
             desk)
    return out


# -- seeds ------------------------------------------------------------------------

def suite_seeds(max_order: int = 8, catalog=None) -> list:
    out = []
    cat = default_catalog() if catalog is None else catalog
    if max_order is not None:
        cat = cat.restrict(max_order)
    table = classify.seeds(cat)

    def rows():
        for row in table.rows:
            assert len({e.group.order for e in row.entries}) == 1
            assert len({e.gamma_order for e in row.entries}) == 1
            assert len({e.irreducibles for e in row.entries}) == 1
            for e in row.entries:
                st = classify.reduced_status(e.group, e.rep, cat)
                assert st.verdict == "Reduced"
        return f"{len(table.rows)} rows consistent"
    _run(out, "seeds", "seed rows are uniform and reduced", "seed-rows", rows)

    def transport():
        n = 0
        for row in table.rows:
            lookup = {e.gid: e for e in row.entries}
            for ga, ra, gb, rb in row.witnesses:
                ea, eb = lookup[ga], lookup[gb]
                pa = tuple(ea.group.subgroup(e) for e in ra)
                pb = tuple(eb.group.subgroup(e) for e in rb)
                res = classify.transport_check(
                    (ea.group,) + pa, (eb.group,) + pb)
                assert res["ok"], (ga, gb)
                n += 1
        return f"{n} transport witnesses"
    _run(out, "seeds", "merge witnesses transport", "seed-transport",
         transport)

    if {"Q8", "D8"} <= set(cat.ids()):
        def invariants():
            Q8 = cat.by_id("Q8").group
            D8 = cat.by_id("D8").group
            X = direct_product(Q8, D8)
            x, y, a, b = 1, 4, 1, 4
            T = generated_subgroup(X, [X.pair(x, a), X.pair(y, b)])
            S = generated_subgroup(X, [X.pair(x, a)])
            cls = sections.canonical_section(X, T.elems, S.elems)
            p1t, k1t, p1s, k1s = sections.left_invariant(cls)
            q2t, l2t, q2s, l2s = sections.right_invariant(cls)
            xx = generated_subgroup(Q8, [Q8.mul(x, x)])
            aa = generated_subgroup(D8, [D8.mul(a, a)])
            assert p1t.order == 8 and k1t.elems == xx.elems
            assert p1s.elems == generated_subgroup(Q8, [x]).elems
            assert k1s.order == 1
            assert q2t.order == 8 and l2t.elems == aa.elems
            assert q2s.elems == generated_subgroup(D8, [a]).elems
            assert l2s.order == 1
            stq = classify.reduced_status(
                Q8, (k1t, p1s), cat)
            std = classify.reduced_status(
                D8, (l2t, q2s), cat)
            assert stq.verdict == "Reduced" and std.verdict == "Reduced"
            return "left and right invariants and statuses as expected"
        _run(out, "seeds", "Q8/D8 bridge section invariants",
             "seed-q8-d8-invariants", invariants)

        def merged():
            for row in table.rows:
                gids = {e.gid for e in row.entries}
                if "Q8" in gids and "D8" in gids:
                    e = row.entries[0]
                    return (f"row {row.class_id}: Q8 and D8 share gamma "
                            f"order {e.gamma_order}, {e.irreducibles} "
                            f"irreducibles")
            raise AssertionError("no merged Q8/D8 row")
        _run(out, "seeds", "Q8 and D8 rows merge", "seed-q8-d8-merge", merged)
    return out


# -- registry ----------------------------------------------------------------------

SUITES = {
    "groups": suite_groups,
    "goursat": suite_goursat,
    "mackey": suite_mackey,
    "idempotents": suite_idempotents,
    "gamma": suite_gamma,
    "linkage": suite_linkage,
    "matrix": suite_matrix,
    "reduced": suite_reduced,
    "essential": suite_essential,
    "seeds": suite_seeds,
}


def run_suites(names=None, max_order: int = 8, catalog=None) -> VerifyReport:
    if max_order < 1:
        raise WorkbenchError("catalog needs max_order >= 1")
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise WorkbenchError(f"unknown suite names {unknown}")
    checks = []
    for name in SUITES:
        if name in names:
            checks.extend(SUITES[name](max_order=max_order, catalog=catalog))
    return VerifyReport(checks=tuple(checks), max_order=max_order)


def report_to_json(report: VerifyReport,
                   include_seconds: bool = False) -> dict:
    """Timings are excluded by default so identical runs serialize equal."""
    checks = []
    for c in report.checks:
        item = {
            "suite": c.suite,
            "name": c.name,
            "tag": c.tag,
            "ok": c.ok,
            "detail": c.detail,
        }
        if include_seconds:
            item["seconds"] = c.seconds
        checks.append(item)
    return {
        "max_order": report.max_order,
        "ok": report.ok,
        "checks": checks,
    }
