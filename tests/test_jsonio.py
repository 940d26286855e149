"""JSON round trips and the determinism contract."""

from fractions import Fraction

import pytest

from sbw import catalog, classify, gamma, groups, jsonio, posets, sections
from sbw.errors import WorkbenchError

CAT = catalog.default_catalog()


def cg(gid):
    return CAT.by_id(gid).group


def test_dumps_is_deterministic():
    a = jsonio.dumps({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    b = jsonio.dumps({"a": [2, {"y": 1, "z": 0}], "b": 1})
    assert a == b
    assert " " not in a


def test_group_table_round_trip():
    G = cg("S3")
    data = jsonio.group_to_json(G)
    back = jsonio.group_from_json(data)
    assert back.table == G.table
    assert back.name == G.name


def test_group_from_perm_gens():
    data = {"perm_gens": [[1, 0, 2], [1, 2, 0]], "name": "sym3"}
    G = jsonio.group_from_json(data)
    assert G.order == 6
    assert G.name == "sym3"


@pytest.mark.parametrize("kind,args,order", [
    ("cyclic", [6], 6),
    ("dihedral", [8], 8),
    ("quaternion", [8], 8),
    ("symmetric", [3], 6),
])
def test_group_constructors(kind, args, order):
    G = jsonio.group_from_json({"construct": kind, "args": args})
    assert G.order == order


def test_group_product_construct():
    data = {"construct": "product",
            "args": [{"construct": "cyclic", "args": [2]},
                     {"construct": "cyclic", "args": [4]}]}
    G = jsonio.group_from_json(data)
    assert G.order == 8
    assert G.factors is not None


def test_group_from_json_rejects_unknown_shapes():
    with pytest.raises(WorkbenchError):
        jsonio.group_from_json({"construct": "alternating", "args": [4]})
    with pytest.raises(WorkbenchError):
        jsonio.group_from_json({"name": "mystery"})
    with pytest.raises(WorkbenchError):
        jsonio.group_from_json({"construct": "product",
                                "args": [{"construct": "cyclic", "args": [2]}]})


def test_group_from_json_respects_order_cap(monkeypatch):
    monkeypatch.setenv("SBW_MAX_ORDER", "6")
    with pytest.raises(WorkbenchError):
        jsonio.group_from_json({"construct": "cyclic", "args": [7]})


def test_section_round_trip():
    G, H = cg("S3"), cg("C2")
    amb = groups.direct_product(G, H)
    for cls in sections.enumerate_sections(amb):
        data = jsonio.section_to_json(cls)
        assert data["factors"] == [6, 2]
        back = jsonio.section_from_json(data, amb)
        assert back == cls


def test_section_from_json_validates_subgroups():
    G = cg("C2")
    amb = groups.direct_product(G, G)
    with pytest.raises(WorkbenchError):
        jsonio.section_from_json({"T": [0, 1, 2], "S": [0]}, amb)
    with pytest.raises(WorkbenchError):
        jsonio.section_from_json({"T": [0, 3], "S": [0, 1, 2, 3]}, amb)
    with pytest.raises(WorkbenchError):
        jsonio.section_from_json({"T": [0, 3]}, amb)


def test_section_from_json_checks_context():
    G = cg("C2")
    amb = groups.direct_product(G, G)
    with pytest.raises(WorkbenchError):
        jsonio.section_from_json(
            {"T": [0, 3], "S": [0], "factors": [2, 3]}, amb)
    with pytest.raises(WorkbenchError):
        jsonio.section_from_json(
            {"T": [0, 3], "S": [0], "ambient": {"order": 8}}, amb)


def test_element_round_trip():
    G, H = cg("S3"), cg("C2")
    amb = groups.direct_product(G, H)
    classes = sections.enumerate_sections(amb)
    elt = (gamma.basis_element(G, H, classes[0], Fraction(2, 3))
           + gamma.basis_element(G, H, classes[4], -5))
    data = jsonio.element_to_json(elt)
    back = jsonio.element_from_json(data, G, H)
    assert back == elt


def test_element_from_bare_section():
    G = cg("C2")
    amb = groups.direct_product(G, G)
    elt = jsonio.element_from_json({"T": [0, 3], "S": [0, 3]}, G, G)
    assert elt == gamma.identity_element(G)


def test_element_terms_accumulate_and_drop_zeros():
    G = cg("C2")
    term = {"class": {"T": [0, 3], "S": [0, 3]}, "num": 1, "den": 2}
    anti = {"class": {"T": [0, 3], "S": [0, 3]}, "num": -1, "den": 2}
    elt = jsonio.element_from_json({"terms": [term, anti]}, G, G)
    assert elt.is_zero()


def test_element_from_json_rejects_bad_coefficients():
    G = cg("C2")
    term = {"class": {"T": [0, 3], "S": [0, 3]}, "num": 1, "den": 0}
    with pytest.raises(WorkbenchError):
        jsonio.element_from_json({"terms": [term]}, G, G)
    with pytest.raises(WorkbenchError):
        jsonio.element_from_json({"wrong": []}, G, G)


def test_element_from_json_checks_side_orders():
    G = cg("C2")
    data = {"left": {"order": 6}, "terms": []}
    with pytest.raises(WorkbenchError):
        jsonio.element_from_json(data, G, G)


def test_poset_and_partition_serialization():
    G = cg("C4")
    pos = jsonio.poset_to_json(G)
    assert len(pos["pairs"]) == 9
    part = jsonio.partition_to_json(classify.linkage_partition(G))
    assert len(part["blocks"]) == 9
    jsonio.dumps(pos)
    jsonio.dumps(part)


def test_report_serializers_are_dumpable():
    G = cg("C3")
    essential = jsonio.essential_to_json(classify.essential_report(G, CAT))
    matrix = jsonio.matrix_to_json(classify.matrix_decomposition(G))
    oracle = jsonio.oracle_to_json(classify.ideal_span_oracle(G, CAT))
    assert essential["essential_dim"] == 6
    assert matrix["covering_dim"] == 7
    assert oracle["rank_ok"] is True
    for blob in (essential, matrix, oracle):
        assert jsonio.dumps(blob) == jsonio.dumps(blob)


def test_seeds_serialization():
    table = classify.seeds(CAT.restrict(4))
    data = jsonio.seeds_to_json(table)
    assert len(data["rows"]) == len(table.rows)
    merged = [r for r in data["rows"] if len(r["entries"]) > 1]
    assert merged, "order-4 catalog has one merged row"
    for row in merged:
        for w in row["witnesses"]:
            assert set(w) >= {"group_a", "rep_a", "group_b", "rep_b"}
    jsonio.dumps(data)


def test_catalog_round_trip():
    data = jsonio.catalog_to_json(CAT)
    back = jsonio.catalog_from_json(data)
    assert back.ids() == CAT.ids()
    assert back.complete_orders == CAT.complete_orders
    for ours, theirs in zip(CAT.entries, back.entries):
        assert ours.group.table == theirs.group.table
    assert jsonio.dumps(jsonio.catalog_to_json(back)) == jsonio.dumps(data)
