"""JSON interchange for groups, sections, elements, and reports.

All dumps are deterministic: keys sorted, fixed separators, no whitespace
variation, so identical inputs produce byte-identical output.
"""

import json
from fractions import Fraction
from functools import reduce

from .errors import WorkbenchError
from .groups import (Group, Subgroup, cyclic, dihedral, direct_product,
                     group_from_perm_gens, quaternion, symmetric)
from .sections import SectionClass


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def group_ref(G: Group) -> dict:
    return {"digest": G.digest, "name": G.name, "order": G.order}


def group_to_json(G: Group) -> dict:
    return {"name": G.name, "order": G.order,
            "table": [list(row) for row in G.table]}


_CONSTRUCTORS = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "quaternion": quaternion,
    "symmetric": symmetric,
}


def _ints(value, error: str) -> list:
    """``value`` if it is a list of JSON integers, else WorkbenchError(error).

    Only ``type(x) is int`` passes: a bool is an int to Python, a float
    would be truncated and a string parsed.
    """
    if isinstance(value, list) and all(type(x) is int for x in value):
        return value
    raise WorkbenchError(error)


def _int_rows(value, what: str) -> list:
    error = f"{what} must be a list of integer lists"
    if not isinstance(value, list):
        raise WorkbenchError(error)
    for row in value:
        _ints(row, error)
    return value


def group_from_json(data: dict) -> Group:
    """Accepts the table, perm_gens, and construct encodings; a table or
    perm_gens group without a "name" is called "G"."""
    if not isinstance(data, dict):
        raise WorkbenchError("group JSON must be an object")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise WorkbenchError("group name must be a string")
    if "table" in data:
        return Group(_int_rows(data["table"], "group table"), name=name)
    if "perm_gens" in data:
        return group_from_perm_gens(_int_rows(data["perm_gens"], "perm_gens"),
                                    name=name)
    if "construct" in data:
        kind = data["construct"]
        args = data.get("args", [])
        if not isinstance(args, list):
            raise WorkbenchError("construct args must be a list")
        if kind == "product":
            parts = [group_from_json(a) for a in args]
            if len(parts) < 2:
                raise WorkbenchError("product construct needs two factors")
            return reduce(direct_product, parts)
        if not isinstance(kind, str) or kind not in _CONSTRUCTORS:
            raise WorkbenchError(f"unknown construct {kind!r}")
        _ints(args, f"{kind} construct needs integer args")
        try:
            return _CONSTRUCTORS[kind](*args)
        except TypeError as exc:  # wrong number of args
            raise WorkbenchError(f"{kind} construct: {exc}") from None
    raise WorkbenchError("group JSON needs table, perm_gens, or construct")


def _order_of(ref, G: Group):
    """The order a group reference claims; G's own when there is none."""
    if ref is None:
        return G.order
    if not isinstance(ref, dict):
        raise WorkbenchError("a group reference must be an object")
    return ref.get("order", G.order)


def section_to_json(cls: SectionClass) -> dict:
    out = {
        "ambient": group_ref(cls.ambient),
        "T": list(cls.T),
        "S": list(cls.S),
    }
    if cls.ambient.factors is not None:
        G, H = cls.ambient.factors
        out["factors"] = [G.order, H.order]
    return out


def section_from_json(data: dict, ambient: Group) -> SectionClass:
    """Rebuild and validate the class of (T, S) inside a known ambient."""
    from .sections import Section
    if not isinstance(data, dict):
        raise WorkbenchError("section JSON must be an object")
    if _order_of(data.get("ambient"), ambient) != ambient.order:
        raise WorkbenchError("section ambient order mismatch")
    fac = data.get("factors")
    if fac is not None and ambient.factors is not None:
        want = [g.order for g in ambient.factors]
        if fac != want:
            raise WorkbenchError(f"section factors {fac} do not match {want}")
    error = "section JSON needs integer lists T and S"
    T = tuple(sorted(set(_ints(data.get("T"), error))))
    S = tuple(sorted(set(_ints(data.get("S"), error))))
    for part in (T, S):
        if part and not 0 <= part[0] <= part[-1] < ambient.order:
            raise WorkbenchError(
                f"section elements must lie in 0..{ambient.order - 1}")
    sec = Section(ambient, ambient.subgroup(T), ambient.subgroup(S))
    return sec.classify()


def element_from_json(data: dict, G: Group, H: Group, ambient=None):
    """Parse an element of the section space between G and H.

    A bare section object counts as a single basis class with coefficient 1.
    """
    from . import gamma
    if not isinstance(data, dict):
        raise WorkbenchError("element JSON must be an object")
    if ambient is None:
        ambient = direct_product(G, H)
    if "terms" not in data:
        if "T" in data:
            cls = section_from_json(data, ambient)
            return gamma.basis_element(G, H, cls)
        raise WorkbenchError("element JSON needs terms or a bare section")
    for side, grp in (("left", G), ("right", H)):
        if _order_of(data.get(side), grp) != grp.order:
            raise WorkbenchError(f"element {side} group order mismatch")
    coeffs = {}
    terms = data["terms"]
    if not (isinstance(terms, list) and all(
            isinstance(t, dict) and isinstance(t.get("class"), dict)
            for t in terms)):
        raise WorkbenchError('element terms must be objects with a "class"')
    for term in terms:
        cls = section_from_json(term["class"], ambient)
        error = "term coefficient needs integer num, den"
        num, den = _ints([term.get("num", 1), term.get("den", 1)], error)
        if not den:
            raise WorkbenchError(error)
        q = Fraction(num, den)
        if q:
            coeffs[cls] = coeffs.get(cls, 0) + q
    coeffs = {c: q for c, q in coeffs.items() if q}
    return gamma.GammaElement(G, H, coeffs)


def element_to_json(elt) -> dict:
    G, H = elt.left, elt.right
    terms = []
    for cls in sorted(elt.coeffs, key=lambda c: c.sort_key()):
        coeff = elt.coeffs[cls]
        terms.append({"class": section_to_json(cls),
                      "num": coeff.numerator, "den": coeff.denominator})
    return {"left": group_ref(G), "right": group_ref(H), "terms": terms}


def subgroup_json(H: Subgroup) -> list:
    return list(H.elems)


def pair_json(pair) -> dict:
    return {"K": subgroup_json(pair[0]), "P": subgroup_json(pair[1])}


def poset_to_json(G: Group) -> dict:
    from . import posets
    poset = posets.build_poset(G)
    pairs = [pair_json(p) for p in poset.elements]
    relation = [[j for j in range(len(pairs)) if up >> j & 1]
                for up in poset.up]
    return {"group": group_ref(G), "pairs": pairs, "leq": relation}


def partition_to_json(part) -> dict:
    return {
        "group": group_ref(part.group),
        "blocks": [[pair_json(p) for p in block] for block in part.blocks],
        "block_order": [list(map(bool, row)) for row in part.leq],
    }


def _block_json(b, **after_class) -> dict:
    """An essential or matrix block; ``after_class`` follows its class."""
    return {"class": pair_json(b.members[0]), **after_class, "n": b.n,
            "gamma_order": b.gamma_order, "irr_count": b.irreducibles,
            "dim": b.dim}


def essential_to_json(report) -> dict:
    blocks = [{**_block_json(b, members=[pair_json(p) for p in b.members]),
               "reduced": {"verdict": b.verdict, "rule": b.rule}}
              for b in report.blocks]
    dim = report.essential_dim
    simple = report.simple_count
    return {
        "group": group_ref(report.group),
        "poset": poset_to_json(report.group),
        "partition": partition_to_json(report.partition),
        "covering_dim": report.covering_dim,
        "blocks": blocks,
        "essential_dim": list(dim) if isinstance(dim, tuple) else dim,
        "simple_count": list(simple) if isinstance(simple, tuple) else simple,
        "notes": report.notes,
    }


def matrix_to_json(report) -> dict:
    return {
        "group": group_ref(report.group),
        "covering_dim": report.covering_dim,
        "blocks": [_block_json(b) for b in report.blocks],
    }


def oracle_to_json(report) -> dict:
    return {
        "group": group_ref(report.group),
        "full_dim": report.full_dim,
        "predicted_dim": report.predicted_dim,
        "span_rank": report.span_rank,
        "essential_dim": report.essential_dim,
        "support_ok": report.support_ok,
        "rank_ok": report.rank_ok,
        "block_sum_ok": report.block_sum_ok,
    }


def seeds_to_json(table) -> dict:
    rows = []
    for row in table.rows:
        rows.append({
            "class_id": row.class_id,
            "order": row.order,
            "entries": [{
                "group": e.gid,
                "rep": {"K": list(e.rep[0].elems), "P": list(e.rep[1].elems)},
                "members": [pair_json(p) for p in e.members],
                "gamma_order": e.gamma_order,
                "irr_count": e.irreducibles,
            } for e in row.entries],
            "witnesses": [{
                "group_a": w[0], "rep_a": {"K": list(w[1][0]),
                                           "P": list(w[1][1])},
                "group_b": w[2], "rep_b": {"K": list(w[3][0]),
                                           "P": list(w[3][1])},
            } for w in row.witnesses],
        })
    return {"rows": rows, "catalog": list(table.gids), "notes": table.notes}


def catalog_to_json(catalog) -> dict:
    return {
        "groups": [{
            "id": e.gid,
            "description": e.description,
            "group": group_to_json(e.group),
        } for e in catalog.entries],
        "complete_orders": sorted(catalog.complete_orders),
    }


def catalog_from_json(data):
    from .catalog import Catalog, CatalogEntry
    if not (isinstance(data, dict) and isinstance(data.get("groups"), list)
            and all(isinstance(item, dict) and "id" in item and "group" in item
                    for item in data["groups"])):
        raise WorkbenchError(
            'catalog JSON needs "groups": a list of objects with "id" and '
            '"group"')
    orders = _ints(data.get("complete_orders"),
                   'catalog JSON needs "complete_orders": a list of integers')
    entries = tuple(
        CatalogEntry(gid=item["id"], group=group_from_json(item["group"]),
                     description=item.get("description", ""))
        for item in data["groups"])
    return Catalog(entries=entries, complete_orders=frozenset(orders))
