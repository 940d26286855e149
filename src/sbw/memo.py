"""Where sbw keeps the results it memoizes.

Every memo table is a plain dict reached through ``table(owner, name)``.

- A per-owner table lives in the owner's ``_memo`` (made by ``tables()``
  in the owner's constructor), so it is keyed by the owner's identity and
  lives exactly as long as the owner.  The owners are groups, crossed
  modules and posets (whose joins and Mobius values are memo tables).
  Groups compare equal by table digest alone, while groups with equal
  tables differ in name, generators, factors and coset representatives,
  so no table is keyed by a group.
- Owner ``None`` selects the process-wide tables, for results that
  belong to no one object (class products, interned direct products, the
  default catalog).  The class-product table is nested, left class id
  -> {right class id: product}, so a row of lookups fetches one dict.

Hot paths fetch their table once per call (or once at import, for a
process-wide table) and then read it with a single ``dict.get``.

The slotted value types (``Subgroup``, ``SectionClass``, ``GammaElement``)
have no ``_memo`` and keep their few lazy values in slots: a run makes
10^4 to 10^5 of them, and a dict per instance would be paid on each.
``GammaElement`` keeps two: ``_coeffs``, its ``Fraction`` coefficients,
and ``_row_sums``, the row sums that ``gamma.compose`` made with the
element as its right operand, keyed by left class id.  Section classes
are interned and hash by identity, so ``gamma.class_sums`` keys its sums
by the class itself.
"""

from collections import defaultdict
from functools import wraps


def tables() -> defaultdict:
    """An owner's tables: name -> dict, each made on first use."""
    return defaultdict(dict)


_PROCESS = tables()


def table(owner, name: str) -> dict:
    """The memo table ``name`` of ``owner``, or the process-wide one."""
    return (_PROCESS if owner is None else owner._memo)[name]


def once(fn):
    """Memoize ``fn(owner)`` in the owner's table named after ``fn``."""
    name = fn.__name__

    @wraps(fn)
    def memoized(owner):
        cache = owner._memo[name]
        if not cache:
            cache[None] = fn(owner)
        return cache[None]
    return memoized
