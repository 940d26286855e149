"""Where sbw keeps the results it memoizes.

Every memo table is a plain dict, and most are reached through one of two
decorators for ``fn(owner, *rest)``, each storing in the owner's table
named after ``fn``:

- ``once`` keeps the single result of ``fn(owner)``;
- ``keyed(key_of)`` keeps ``fn(owner, *rest)`` under ``key_of(*rest)``.
  Any result is stored, ``None`` included; a raise stores nothing.

A per-owner table lives in the owner's ``_memo`` (made by ``tables()`` in
the owner's constructor), so it lives exactly as long as the owner.  The
owners are groups, crossed modules and posets.  Groups compare equal by
table digest alone, while groups with equal tables differ in name,
generators, factors and coset representatives, so no table is keyed by a
group.  Owner ``None`` of ``table(owner, name)`` selects the process-wide
tables.  The sites that call ``table`` themselves, and why:

- gamma's ``_CLASS_COMPOSE`` and ``_PRODUCTS`` and ``class_of_rows``: the
  kernel fills rows and batches, not one result per call;
- ``sections.canonical_section``: it stores a whole orbit per miss;
- ``groups.isomorphisms``: results under ``limit`` are not stored;
- ``groups.direct_product`` and ``quotient``: a check runs before the lookup;
- ``catalog.default_catalog``: it has no owner;
- ``groups.as_group``: its owner is ``P.parent``, not an argument.

The slotted value types (``Subgroup``, ``SectionClass``, ``GammaElement``)
have no ``_memo`` and keep their few lazy values in slots: a run makes
10^4 to 10^5 of them, and a dict per instance would be paid on each.
``GammaElement`` keeps ``_coeffs`` and ``_row_sums`` (the row sums that
``gamma.compose`` made with it as right operand, keyed by left class id).
"""

from collections import defaultdict
from functools import wraps


def tables() -> defaultdict:
    """An owner's tables: name -> dict, each made on first use."""
    return defaultdict(dict)


_PROCESS = tables()
_MISS = object()


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


def keyed(key_of):
    """Memoize ``fn(owner, *rest)`` in the owner's table named after
    ``fn``, under ``key_of(*rest)``."""
    def decorate(fn):
        name = fn.__name__

        @wraps(fn)
        def memoized(owner, *rest):
            cache = owner._memo[name]
            key = key_of(*rest)
            hit = cache.get(key, _MISS)
            if hit is _MISS:
                hit = cache[key] = fn(owner, *rest)
            return hit
        return memoized
    return decorate
