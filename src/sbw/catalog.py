"""Built-in catalog of small groups.

Covers every isomorphism type of order at most 8; the completeness flags
record which orders are fully represented, which the reduced-pair rules
rely on when searching for smaller linked triples.
"""

from dataclasses import dataclass

from . import memo
from .errors import WorkbenchError
from .groups import (Group, _check_order, cyclic, dihedral, direct_product,
                     quaternion, symmetric)


@dataclass(frozen=True)
class CatalogEntry:
    gid: str
    group: Group
    description: str


@dataclass(frozen=True)
class Catalog:
    entries: tuple
    complete_orders: frozenset

    def by_id(self, gid: str) -> CatalogEntry:
        for entry in self.entries:
            if entry.gid == gid:
                return entry
        raise KeyError(f"no catalog group named {gid!r}")

    def ids(self) -> tuple:
        return tuple(entry.gid for entry in self.entries)

    def restrict(self, max_order: int) -> "Catalog":
        if max_order < 1:
            raise WorkbenchError("catalog needs max_order >= 1")
        kept = tuple(e for e in self.entries if e.group.order <= max_order)
        return Catalog(entries=kept,
                       complete_orders=frozenset(
                           m for m in self.complete_orders
                           if m <= max_order))


def default_catalog() -> Catalog:
    """All 14 isomorphism types of order <= 8, in (order, id) order."""
    cache = memo.table(None, "default_catalog")
    if cache:
        return cache[None]
    c2 = cyclic(2)
    c4 = cyclic(4)
    entries = [
        CatalogEntry("C1", cyclic(1), "trivial group"),
        CatalogEntry("C2", c2, "cyclic of order 2"),
        CatalogEntry("C3", cyclic(3), "cyclic of order 3"),
        CatalogEntry("C4", c4, "cyclic of order 4"),
        CatalogEntry("C2xC2", direct_product(c2, c2), "Klein four-group"),
        CatalogEntry("C5", cyclic(5), "cyclic of order 5"),
        CatalogEntry("C6", cyclic(6), "cyclic of order 6"),
        CatalogEntry("S3", symmetric(3), "symmetric group on 3 letters"),
        CatalogEntry("C7", cyclic(7), "cyclic of order 7"),
        CatalogEntry("C8", cyclic(8), "cyclic of order 8"),
        CatalogEntry("C4xC2", direct_product(c4, c2),
                     "direct product of C4 and C2"),
        CatalogEntry("C2xC2xC2", direct_product(direct_product(c2, c2), c2),
                     "elementary abelian of order 8"),
        CatalogEntry("D8", dihedral(8), "dihedral of order 8"),
        CatalogEntry("Q8", quaternion(8), "quaternion group"),
    ]
    entries.sort(key=lambda e: (e.group.order, e.gid))
    cache[None] = Catalog(entries=tuple(entries),
                          complete_orders=frozenset(range(1, 9)))
    return cache[None]


def build(max_order: int) -> Catalog:
    """Deterministic catalog of the built-in groups up to max_order."""
    _check_order(max_order, what="max_order")
    return default_catalog().restrict(max_order)
