"""End-to-end command line behavior, exercised in process."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import sbw
from sbw import catalog, cli, gamma, jsonio

C2 = catalog.default_catalog().by_id("C2").group

IDENT_C2 = '{"T":[0,3],"S":[0,3]}'


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_group_info(capsys):
    code, data = run_json(capsys, "group", "info", "--group", "S3")
    assert code == 0
    assert data["group"]["order"] == 6
    assert data["abelian"] is False
    assert data["center"] == [0]
    assert data["automorphism_order"] == 6


def test_group_info_counts_automorphisms_without_tabulating_them(capsys):
    # (C2)^4: a table of its 20160 automorphisms would have 406M entries.
    klein = '{"construct":"dihedral","args":[4]}'
    spec = f'{{"construct":"product","args":[{klein},{klein}]}}'
    t0 = time.perf_counter()
    code, data = run_json(capsys, "group", "info", "--group", spec)
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert data["group"]["order"] == 16
    assert data["automorphism_order"] == 20160


def test_group_info_refuses_more_automorphisms_than_the_cap_squared(capsys):
    # Cap 12 allows 144 automorphisms; (C2)^3 has 168.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SBW_MAX_ORDER", "12")
        code, data = run_json(capsys, "group", "info", "--group", "C2xC2xC2")
    assert code == 1
    assert data["error"]["type"] == "order_limit_exceeded"
    assert "144" in data["error"]["message"]


def test_group_info_accepts_inline_json(capsys):
    code, data = run_json(capsys, "group", "info", "--group",
                          '{"construct": "cyclic", "args": [4]}')
    assert code == 0
    assert data["group"]["order"] == 4
    assert data["abelian"] is True


@pytest.mark.parametrize("spec", ['{"construct":"cyclic","args":["a"]}',
                                  '{"table":"abc"}', '{"construct":[]}'])
def test_group_info_rejects_malformed_group_json(capsys, spec):
    code, data = run_json(capsys, "group", "info", "--group", spec)
    assert code == 1
    assert data["error"]["type"] == "error"


@pytest.mark.parametrize("spec", ['{"table":[[0,1],[1,0]]}',
                                  '{"perm_gens":[[1,0]]}'])
def test_group_json_without_a_name_is_called_g(capsys, spec):
    code, data = run_json(capsys, "group", "info", "--group", spec)
    assert code == 0
    assert data["group"]["name"] == "G"


@pytest.mark.parametrize("name", ["5", "null", '["x"]'])
def test_group_json_name_must_be_a_string(capsys, name):
    spec = f'{{"table":[[0,1],[1,0]],"name":{name}}}'
    code, out = run(capsys, "group", "info", "--group", spec)
    assert code == 1
    assert out == ('{"error":{"message":"group name must be a string",'
                   '"type":"error"}}\n')


def test_group_info_from_file(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"construct": "product",
                                "args": [{"construct": "cyclic", "args": [2]},
                                         {"construct": "cyclic", "args": [2]}]}))
    code, data = run_json(capsys, "group", "info", "--group", str(path))
    assert code == 0
    assert data["group"]["order"] == 4
    code2, data2 = run_json(capsys, "group", "info", "--group", "@" + str(path))
    assert code2 == 0
    assert data2 == data


def test_unknown_group_reports_catalog(capsys):
    code, data = run_json(capsys, "group", "info", "--group", "M11")
    assert code == 1
    assert data["error"]["type"] == "error"
    assert "S3" in data["error"]["message"]


def test_sections_list(capsys):
    code, data = run_json(capsys, "sections", "list", "--group", "S3")
    assert code == 0
    assert data["count"] == 8
    assert len(data["rows"]) == 8


def test_sections_list_with_second_group(capsys):
    code, data = run_json(capsys, "sections", "list", "--group", "S3",
                          "--with", "C2")
    assert code == 0
    assert data["count"] == 31


def test_sections_list_names_the_groups_given(capsys):
    # C2 x Z is the catalog's interned C2 x C2, but reports the given names
    z = '{"table":[[0,1],[1,0]],"name":"Z"}'
    code, data = run_json(capsys, "sections", "list", "--group", "C2",
                          "--with", z)
    assert code == 0
    assert data["group"]["name"] == "C2xZ"
    assert data["group"]["digest"] == \
        catalog.default_catalog().by_id("C2xC2").group.digest
    assert data["count"] == 12


def test_compose_identity(capsys):
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          "--a", IDENT_C2, "--b", IDENT_C2)
    assert code == 0
    expected = jsonio.element_to_json(gamma.identity_element(C2))
    assert data == expected


def test_compose_rejects_invalid_section(capsys):
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          "--a", '{"T":[0,1,2],"S":[0]}', "--b", IDENT_C2)
    assert code == 1
    assert data["error"]["type"] == "not_subgroup"


@pytest.mark.parametrize("a", ['{"T":[0,9],"S":[0]}', '{"terms":[{}]}',
                               '{"terms":[{"class":5}]}',
                               '{"T":[0,3],"S":[0,3],"factors":5}',
                               '{"T":[0,3],"S":[0,3],"ambient":5}',
                               '{"left":5,"terms":[]}', '["terms"]'])
def test_compose_rejects_malformed_elements(capsys, a):
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          "--a", a, "--b", IDENT_C2)
    assert code == 1
    assert data["error"]["type"] == "error"


@pytest.mark.parametrize("side", ["--a", "--b"])
@pytest.mark.parametrize("value", ["5", "null", "true"])
def test_compose_rejects_an_element_file_that_is_not_an_object(
        capsys, tmp_path, side, value):
    path = tmp_path / "element.json"
    path.write_text(value)
    elements = {"--a": IDENT_C2, "--b": IDENT_C2, side: f"@{path}"}
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          *(x for kv in elements.items() for x in kv))
    assert code == 1
    assert data["error"] == {"message": "element JSON must be an object",
                             "type": "error"}


@pytest.mark.parametrize("term", ['"num":1.5', '"num":"7","den":true',
                                  '"num":2,"den":2.0', '"num":true'])
def test_compose_rejects_non_integer_coefficients(capsys, term):
    a = '{"terms":[{"class":%s,%s}]}' % (IDENT_C2, term)
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          "--a", a, "--b", IDENT_C2)
    assert code == 1
    assert data["error"]["message"] == \
        "term coefficient needs integer num, den"


@pytest.mark.parametrize("a", ['{"T":[0,3.9],"S":[false,"3"]}',
                               '{"T":[0,3.0],"S":[0,3]}',
                               '{"T":[0,3],"S":[true,3]}',
                               '{"T":[0,"3"],"S":[0,3]}',
                               '{"T":"03","S":[0,3]}',
                               '{"T":{"0":0,"3":3},"S":[0,3]}'])
def test_compose_rejects_non_integer_section_elements(capsys, a):
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          "--a", a, "--b", IDENT_C2)
    assert code == 1
    assert data == {"error": {
        "message": "section JSON needs integer lists T and S",
        "type": "error"}}


def test_deeply_nested_json_is_reported(capsys):
    code, data = run_json(capsys, "compose", "--groups", "C2", "C2", "C2",
                          "--a", "[" * 5000 + "]" * 5000, "--b", IDENT_C2)
    assert code == 1
    assert data["error"]["message"] == "element a JSON is nested too deeply"


def test_idempotents(capsys):
    code, data = run_json(capsys, "idempotents", "--group", "C4")
    assert code == 0
    assert len(data["pairs"]) == 9
    assert len(data["e"]) == 9
    assert len(data["f"]) == 9
    assert len(data["join"]) == 9


def test_linkage(capsys):
    code, data = run_json(capsys, "linkage", "--group", "Q8")
    assert code == 0
    assert len(data["blocks"]) == 13


def test_gamma_group(capsys):
    code, data = run_json(capsys, "gamma-group", "--group", "C2xC2",
                          "--K", "0", "--P", "0,1,2,3")
    assert code == 0
    assert data["order"] == 6
    assert data["irr_count"] == 3
    assert len(data["table"]) == 6


def test_gamma_group_rejects_bad_subgroup_text(capsys):
    code, data = run_json(capsys, "gamma-group", "--group", "C2xC2",
                          "--K", "zero", "--P", "0")
    assert code == 1
    assert data["error"]["type"] == "error"


def test_gamma_group_rejects_elements_outside_the_group(capsys):
    code, data = run_json(capsys, "gamma-group", "--group", "S3",
                          "--K", "0,99", "--P", "0")
    assert code == 1
    assert data["error"]["type"] == "error"
    assert "0..5" in data["error"]["message"]


def test_non_integer_order_cap_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("SBW_MAX_ORDER", "abc")
    code, data = run_json(capsys, "group", "info", "--group",
                          '{"construct": "cyclic", "args": [4]}')
    assert code == 1
    assert data["error"]["type"] == "error"
    assert "SBW_MAX_ORDER" in data["error"]["message"]


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("via_flag", [False, True])
def test_order_cap_below_one_is_reported(capsys, monkeypatch, via_flag, cap):
    # The flag sets SBW_MAX_ORDER; setting it first has monkeypatch restore it.
    monkeypatch.setenv("SBW_MAX_ORDER", "512" if via_flag else cap)
    flag = ["--unsafe-order", cap] if via_flag else []
    code, data = run_json(capsys, "group", "info", "--group", "C2", *flag)
    assert code == 1
    assert data["error"]["type"] == "error"
    assert "SBW_MAX_ORDER" in data["error"]["message"]


@pytest.mark.parametrize("argv,message", [
    (("group", "info", "--group", '{"construct":"symmetric","args":[4]}',
      "--unsafe-order", "10"), "S4 order 24 exceeds cap 10"),
    (("sections", "list", "--group", '{"construct":"cyclic","args":[2]}',
      "--with", '{"construct":"cyclic","args":[4]}', "--unsafe-order", "4"),
     "product order 8 exceeds cap 4"),
    (("catalog", "build", "--max-order", "600"),
     "max_order 600 exceeds cap 512"),
])
def test_order_cap_pre_checks_name_the_order_and_the_cap(argv, message):
    # A new process: an in-process run may hold C2 x C4 interned already,
    # and an interned product is returned without a second cap check.
    src = os.path.dirname(os.path.dirname(sbw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SBW_MAX_ORDER", None)
    proc = subprocess.run([sys.executable, "-m", "sbw", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {
        "error": {"message": message, "type": "order_limit_exceeded"}}


def test_construct_with_too_many_args_reports_the_count(capsys):
    code, data = run_json(capsys, "group", "info", "--group",
                          '{"construct":"cyclic","args":[4,5]}')
    assert code == 1
    assert data["error"]["type"] == "error"
    assert "takes 1 positional argument but 2 were given" in \
        data["error"]["message"]


def test_decompose(capsys):
    code, data = run_json(capsys, "decompose", "--group", "C3")
    assert code == 0
    assert data["covering_dim"] == 7


def test_essential_with_oracle(capsys):
    code, data = run_json(capsys, "essential", "--group", "C2", "--oracle")
    assert code == 0
    assert data["essential_dim"] == 3
    assert data["oracle"]["rank_ok"] is True


def test_essential_oracle_gate(capsys):
    code, data = run_json(capsys, "essential", "--group", "C8", "--oracle")
    assert code == 1
    assert data["error"]["type"] == "axiom_failed"


def test_seeds_small(capsys):
    code, data = run_json(capsys, "seeds", "--max-order", "2")
    assert code == 0
    assert len(data["rows"]) == 4


def test_verify_single_suite(capsys):
    code, data = run_json(capsys, "verify", "--suite", "mackey",
                          "--max-order", "4")
    assert code == 0
    assert data["ok"] is True
    assert len(data["checks"]) > 0
    assert all(c["ok"] for c in data["checks"])


def test_verify_rejects_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_verify_output_is_byte_deterministic(capsys):
    args = ("verify", "--suite", "goursat", "--max-order", "3")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert "seconds" not in first


def test_verify_timings_flag_adds_seconds(capsys):
    _, data = run_json(capsys, "verify", "--suite", "goursat",
                       "--max-order", "3", "--timings")
    assert "seconds" in json.dumps(data)


def test_seed_order_flag_is_inert(capsys):
    _, base = run(capsys, "sections", "list", "--group", "S3")
    _, seeded = run(capsys, "sections", "list", "--group", "S3",
                    "--seed-order", "99")
    assert base == seeded


def test_catalog_build_and_load_round_trip(capsys, tmp_path):
    out = tmp_path / "cat.json"
    code, built = run(capsys, "catalog", "build", "--max-order", "4",
                      "--out", str(out))
    assert code == 0
    data = json.loads(built)
    assert [e["id"] for e in data["groups"]] == \
        ["C1", "C2", "C3", "C2xC2", "C4"]
    assert sorted(data["complete_orders"]) == [1, 2, 3, 4]
    code2, loaded = run(capsys, "catalog", "load", str(out))
    assert code2 == 0
    assert loaded == built
    assert out.read_text() == built


def test_catalog_load_rejects_an_entry_without_a_group(capsys):
    code, data = run_json(capsys, "catalog", "load",
                          '{"groups":[{"id":"x"}]}')
    assert code == 1
    assert data["error"]["type"] == "error"


def test_catalog_build_rejects_bad_bounds(capsys):
    code, data = run_json(capsys, "catalog", "build", "--max-order", "0")
    assert code == 1
    assert data["error"]["type"] == "error"
    code2, data2 = run_json(capsys, "catalog", "build",
                            "--max-order", "100000")
    assert code2 == 1
    assert data2["error"]["type"] == "order_limit_exceeded"


@pytest.mark.parametrize("argv", [
    ("verify", "--max-order", "0"),
    ("verify", "--max-order", "-5"),
    ("seeds", "--max-order", "0"),
    ("seeds", "--max-order", "-1"),
])
def test_max_order_below_one_is_an_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == ('{"error":{"message":"catalog needs max_order >= 1",'
                   '"type":"error"}}\n')


@pytest.mark.parametrize("entry", ["100000000000000000000000000",
                                   "-100000000000000000000000000"])
def test_huge_table_entry_is_outside_the_element_range(capsys, entry):
    spec = f'{{"table":[[0,1],[1,{entry}]]}}'
    code, out = run(capsys, "group", "info", "--group", spec)
    assert code == 1
    assert out == ('{"error":{"message":"table entry outside the element '
                   'range","type":"not_closed"}}\n')


def test_importing_the_cli_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(sbw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sbw.cli; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_custom_catalog_flag(capsys, tmp_path):
    out = tmp_path / "cat.json"
    run(capsys, "catalog", "build", "--max-order", "2", "--out", str(out))
    code, data = run_json(capsys, "group", "info", "--group", "C2",
                          "--catalog", str(out))
    assert code == 0
    code2, data2 = run_json(capsys, "group", "info", "--group", "S3",
                            "--catalog", str(out))
    assert code2 == 1
    assert "S3" not in data2["error"]["message"].split(";")[1]


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    # Every subcommand that reads a group needs --group.
    for argv in (["group", "info"], ["sections", "list"], ["idempotents"],
                 ["linkage"], ["gamma-group", "--K", "0", "--P", "0"],
                 ["decompose"], ["essential"]):
        assert cli.main(argv) == 2, argv
        capsys.readouterr()
    cat = ('{"groups":[{"id":"C2","group":{"construct":"cyclic",'
           '"args":[2]}}],"complete_orders":[1,2]}')
    assert cli.main(["linkage", "--group", "C2", "--catalog", cat]) == 0
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_table_format(capsys):
    code, out = run(capsys, "group", "info", "--group", "S3",
                    "--format", "table")
    assert code == 0
    assert "abelian: false" in out
    assert "digest:" in out


def test_table_format_renders_rows(capsys):
    code, out = run(capsys, "sections", "list", "--group", "C2",
                    "--format", "table")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert any(ln.lstrip().startswith("S ") for ln in lines)


def test_closed_stdout_exits_one_without_a_traceback():
    # The reader closes its end before the child has started, so the
    # child's write hits a broken pipe.
    src = os.path.dirname(os.path.dirname(sbw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sbw", "group", "info", "--group", "S3",
         "--format", "table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_unsafe_order_raises_the_cap(capsys):
    spec = '{"construct": "cyclic", "args": [600]}'
    before = os.environ.get("SBW_MAX_ORDER")
    try:
        code, data = run_json(capsys, "group", "info", "--group", spec)
        assert code == 1
        assert data["error"]["type"] == "order_limit_exceeded"
        code2, data2 = run_json(capsys, "sections", "list", "--group", spec,
                                "--unsafe-order", "700")
        assert code2 == 0
        assert data2["count"] == 180
    finally:
        if before is None:
            os.environ.pop("SBW_MAX_ORDER", None)
        else:
            os.environ["SBW_MAX_ORDER"] = before



# Fuzzed JSON: values of any shape, and objects shaped like the documents
# each command reads, so malformed values reach past the first checks.
_KEYS = ("terms", "class", "num", "den", "T", "S", "left", "right",
         "ambient", "factors", "order", "construct", "args", "table",
         "perm_gens", "name", "groups", "id", "group", "complete_orders",
         "description")
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
            | st.floats(allow_nan=False, allow_infinity=False, width=16)
            | st.sampled_from(["", "a", "7", "cyclic", "dihedral",
                               "symmetric", "quaternion", "product", "C2"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_KEYS), inner,
                                     max_size=4)),
    max_leaves=12)
_INTS = st.lists(st.integers(-1, 5), max_size=4)
# Section bodies: subgroups of C2 x C2 whose elements may come as a bool,
# float or string that a lenient reader would take for the integer.
_BODY = st.sampled_from([[0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]]).flatmap(
    lambda xs: st.tuples(*(st.sampled_from(
        [x, float(x), x + 0.9, str(x)] + ([bool(x)] if x < 2 else []))
        for x in xs)).map(list))
_GROUP = st.recursive(
    st.fixed_dictionaries({"construct": st.sampled_from(
        ["cyclic", "dihedral", "symmetric", "quaternion", "x"]) | _JSON},
        optional={"args": _INTS | _JSON, "name": _SCALARS})
    | st.fixed_dictionaries({"table": st.lists(_INTS, max_size=4) | _JSON})
    | st.fixed_dictionaries({"perm_gens": st.lists(_INTS, max_size=3)
                             | _JSON}),
    lambda inner: st.fixed_dictionaries({
        "construct": st.just("product"),
        "args": st.lists(inner | _JSON, max_size=3)}),
    max_leaves=3)
_SECTION = st.fixed_dictionaries(
    {"T": _INTS | _BODY | _JSON, "S": _INTS | _BODY | _JSON},
    optional={"ambient": _JSON, "factors": _INTS | _JSON})
_ELEMENT = _SECTION | st.fixed_dictionaries(
    {"terms": st.lists(st.fixed_dictionaries(
        {"class": _SECTION | _JSON},
        optional={"num": _SCALARS, "den": _SCALARS}), max_size=3) | _JSON},
    optional={"left": _JSON, "right": _JSON})
_CATALOG = st.fixed_dictionaries(
    {"groups": st.lists(st.fixed_dictionaries(
        {"id": _SCALARS, "group": _GROUP | _JSON},
        optional={"description": _SCALARS}), max_size=2) | _JSON},
    optional={"complete_orders": _INTS | _JSON})


def _text(shaped):
    doc = _JSON | shaped
    return doc.map(json.dumps) | doc.map(lambda v: json.dumps(v)[:-1])


def _non_integer_body(text):
    """Whether text is a bare section whose T or S holds a non-integer."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return isinstance(doc, dict) and "terms" not in doc and any(
        isinstance(doc.get(part), list)
        and any(type(x) is not int for x in doc[part])
        for part in ("T", "S"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.one_of(
    _text(_ELEMENT).map(lambda t: ["compose", "--groups", "C2", "C2", "C2",
                                   "--a", t, "--b", IDENT_C2]),
    _text(_ELEMENT).map(lambda t: ["compose", "--groups", "C2", "C2", "C2",
                                   "--a", IDENT_C2, "--b", t]),
    _text(_GROUP).map(lambda t: ["group", "info", "--group", t]),
    _text(_CATALOG).map(lambda t: ["catalog", "load", t])))
def test_malformed_json_never_escapes_as_a_traceback(case):
    out, err = io.StringIO(), io.StringIO()
    before = os.environ.get("SBW_MAX_ORDER")
    # A low cap keeps fuzzed groups small enough to analyse quickly.
    os.environ["SBW_MAX_ORDER"] = "12"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case)
    finally:
        if before is None:
            del os.environ["SBW_MAX_ORDER"]
        else:
            os.environ["SBW_MAX_ORDER"] = before
    assert code in (0, 1, 2)
    if code != 2:
        json.loads(out.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if case[0] == "compose" and any(map(_non_integer_body, case[-3::2])):
        assert code == 1
