"""Command line front end.

Every subcommand prints one JSON document (or its table rendering) to
standard output.  Identical inputs give byte-identical JSON; the table
format is a rendering of the same data, never a different computation.

Exit codes: 0 success, 1 computation or verification failure (with a
machine readable error object on stdout), 2 usage errors.
"""

import argparse
import json
import os
import sys

from . import catalog as catalogs
from . import classify, gamma, jsonio, posets, sections, verify
from .errors import WorkbenchError
from .groups import (automorphism_count, center, conjugacy_classes,
                     direct_product, normal_subgroups, subgroup_lattice)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkbenchError(f"{what} is not valid JSON: {exc}")
    except RecursionError:
        raise WorkbenchError(f"{what} JSON is nested too deeply") from None


def _read_spec(spec: str, what: str):
    """Inline JSON, an @path, or a plain path to a JSON file."""
    if spec.startswith("{") or spec.startswith("["):
        return _load_json(spec, what)
    path = spec[1:] if spec.startswith("@") else spec
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _load_json(fh.read(), what)
    except OSError as exc:
        raise WorkbenchError(f"cannot read {what} from {path}: {exc}")


def _catalog(args):
    path = getattr(args, "catalog", None)
    if path:
        return jsonio.catalog_from_json(_read_spec(path, "catalog"))
    return catalogs.default_catalog()


def _group(args, spec=None, cat=None):
    spec = args.group if spec is None else spec
    if spec.startswith("{") or spec.startswith("@") or spec.endswith(".json"):
        return jsonio.group_from_json(_read_spec(spec, "group"))
    cat = _catalog(args) if cat is None else cat
    try:
        return cat.by_id(spec).group
    except KeyError:
        known = ", ".join(cat.ids())
        raise WorkbenchError(f"unknown group {spec!r}; catalog has {known}")


def _subgroup(G, text: str, name: str):
    try:
        elems = tuple(sorted({int(x) for x in text.split(",") if x.strip()}))
    except ValueError:
        raise WorkbenchError(f"--{name} needs a comma separated element list")
    if elems and not 0 <= elems[0] <= elems[-1] < G.order:
        raise WorkbenchError(
            f"--{name} elements must lie in 0..{G.order - 1}")
    return G.subgroup(elems)


# -- subcommand handlers -------------------------------------------------------

def cmd_group_info(args):
    G = _group(args)
    lat = subgroup_lattice(G)
    payload = {
        "group": jsonio.group_to_json(G),
        "digest": G.digest,
        "abelian": G.is_abelian(),
        "center": list(center(G).elems),
        "conjugacy_classes": [sorted(c) for c in conjugacy_classes(G)],
        "subgroups": len(lat.all),
        "subgroup_classes": len(lat.classes),
        "normal_subgroups": len(normal_subgroups(G)),
        "automorphism_order": automorphism_count(G),
    }
    return 0, payload


def cmd_sections_list(args):
    G = _group(args)
    X, name = G, G.name
    if args.with_group:
        H = _group(args, spec=args.with_group)
        # X is interned by digest, so its own name may be another pair's
        X, name = direct_product(G, H), f"{G.name}x{H.name}"
    rows = [{"T": list(cls.T), "S": list(cls.S),
             "orbit_size": cls.orbit_size}
            for cls in sections.enumerate_sections(X)]
    return 0, {"group": dict(jsonio.group_ref(X), name=name),
               "count": len(rows), "rows": rows}


def cmd_compose(args):
    cat = _catalog(args)
    G, H, K = (_group(args, spec=s, cat=cat) for s in args.groups)
    a = jsonio.element_from_json(_read_spec(args.a, "element a"), G, H)
    b = jsonio.element_from_json(_read_spec(args.b, "element b"), H, K)
    return 0, jsonio.element_to_json(gamma.compose(a, b))


def cmd_idempotents(args):
    G = _group(args)
    poset = posets.build_poset(G)
    pairs = poset.elements
    payload = jsonio.poset_to_json(G)
    payload["join"] = [[poset.index[poset.join(p, q)] for q in pairs]
                       for p in pairs]
    payload["e"] = [jsonio.element_to_json(posets.e_idempotent(G, p))
                    for p in pairs]
    payload["f"] = [jsonio.element_to_json(posets.f_idempotent(G, p))
                    for p in pairs]
    return 0, payload


def cmd_linkage(args):
    G = _group(args)
    return 0, jsonio.partition_to_json(classify.linkage_partition(G))


def cmd_gamma_group(args):
    G = _group(args)
    K = _subgroup(G, args.K, "K")
    P = _subgroup(G, args.P, "P")
    gg = classify.gamma_group(G, K, P)
    payload = {
        "group": jsonio.group_ref(G),
        "K": list(K.elems),
        "P": list(P.elems),
        "order": gg.order,
        "scale": gg.scale,
        "classes": [jsonio.section_to_json(c) for c in gg.classes],
        "table": [list(row) for row in gg.group.table],
        "irr_count": classify.irr_count(gg),
    }
    return 0, payload


def cmd_decompose(args):
    G = _group(args)
    return 0, jsonio.matrix_to_json(classify.matrix_decomposition(G))


def cmd_essential(args):
    cat = _catalog(args)
    G = _group(args, cat=cat)
    payload = jsonio.essential_to_json(classify.essential_report(G, cat))
    if args.oracle:
        payload["oracle"] = jsonio.oracle_to_json(classify.ideal_span_oracle(
            G, cat, allow_large=args.allow_large))
    return 0, payload


def cmd_seeds(args):
    cat = _catalog(args).restrict(args.max_order)
    return 0, jsonio.seeds_to_json(classify.seeds(cat))


def cmd_verify(args):
    report = verify.run_suites(args.suite or None, max_order=args.max_order,
                               catalog=_catalog(args))
    payload = verify.report_to_json(report, include_seconds=args.timings)
    return (0 if report.ok else 1), payload


def _write_out(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(payload) + "\n")


def cmd_catalog_build(args):
    payload = jsonio.catalog_to_json(catalogs.build(args.max_order))
    if args.out:
        _write_out(args.out, payload)
    return 0, payload


def cmd_catalog_load(args):
    cat = jsonio.catalog_from_json(_read_spec(args.path, "catalog"))
    payload = jsonio.catalog_to_json(cat)
    if args.out:
        _write_out(args.out, payload)
    return 0, payload


# -- table rendering -----------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None or isinstance(v, (int, str)):
        return str(v)
    return jsonio.dumps(v)


def _table_lines(items) -> list:
    cols = sorted({k for item in items for k in item})
    body = [[_cell(item.get(c)) for c in cols] for item in items]
    widths = [max([len(c)] + [len(row[i]) for row in body])
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return lines


def render_table(payload) -> str:
    if isinstance(payload, list):
        if payload and all(isinstance(i, dict) for i in payload):
            return "\n".join(_table_lines(payload))
        return "\n".join(_cell(i) for i in payload)
    if not isinstance(payload, dict):
        return _cell(payload)
    lines = []
    tables = []
    for k in sorted(payload):
        v = payload[k]
        if isinstance(v, list) and v and all(isinstance(i, dict) for i in v):
            tables.append((k, v))
        else:
            lines.append(f"{k}: {_cell(v)}")
    for k, v in tables:
        if lines:
            lines.append("")
        lines.append(f"{k} ({len(v)}):")
        lines.extend("  " + ln for ln in _table_lines(v))
    return "\n".join(lines)


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"),
                        default="json", help="output rendering")
    common.add_argument("--seed-order", type=int, default=0, metavar="N",
                        help="accepted for interface stability; every "
                             "computation is deterministic, so this "
                             "controls nothing")
    common.add_argument("--unsafe-order", type=int, default=None,
                        metavar="N", help="raise the ambient order cap "
                                          "for this run")
    withcat = argparse.ArgumentParser(add_help=False)
    withcat.add_argument("--catalog", metavar="SPEC",
                         help="catalog JSON (path, @path, or inline) "
                              "instead of the built-in one")
    grouped = argparse.ArgumentParser(add_help=False,
                                      parents=[common, withcat])
    grouped.add_argument("--group", required=True, metavar="SPEC")

    parser = argparse.ArgumentParser(
        prog="sbw",
        description="exact calculus of section spaces of finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="group level queries")
    gsub = g.add_subparsers(dest="action", required=True)
    p = gsub.add_parser("info", parents=[grouped],
                        help="order, classes, subgroups, automorphisms")
    p.set_defaults(handler=cmd_group_info)

    s = sub.add_parser("sections", help="section classes of a group")
    ssub = s.add_subparsers(dest="action", required=True)
    p = ssub.add_parser("list", parents=[grouped],
                        help="conjugacy classes of pairs S normal in T")
    p.add_argument("--with", dest="with_group", metavar="SPEC",
                   help="list sections of the direct product instead")
    p.set_defaults(handler=cmd_sections_list)

    p = sub.add_parser("compose", parents=[common, withcat],
                       help="star product of two section space elements")
    p.add_argument("--groups", nargs=3, required=True,
                   metavar=("G", "H", "K"))
    p.add_argument("--a", required=True, metavar="SPEC",
                   help="element of the (G, H) space")
    p.add_argument("--b", required=True, metavar="SPEC",
                   help="element of the (H, K) space")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("idempotents", parents=[grouped],
                       help="e and f idempotents over the pair poset")
    p.set_defaults(handler=cmd_idempotents)

    p = sub.add_parser("linkage", parents=[grouped],
                       help="linkage partition of the pair poset")
    p.set_defaults(handler=cmd_linkage)

    p = sub.add_parser("gamma-group", parents=[grouped],
                       help="the finite group carried by a pair (K, P)")
    p.add_argument("--K", required=True, metavar="ELEMS",
                   help="comma separated elements of K")
    p.add_argument("--P", required=True, metavar="ELEMS",
                   help="comma separated elements of P")
    p.set_defaults(handler=cmd_gamma_group)

    p = sub.add_parser("decompose", parents=[grouped],
                       help="blockwise dimensions of the covering algebra")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("essential", parents=[grouped],
                       help="essential quotient report for one group")
    p.add_argument("--oracle", action="store_true",
                   help="row reduce every product through smaller groups")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the order 6 gate on the oracle")
    p.set_defaults(handler=cmd_essential)

    p = sub.add_parser("seeds", parents=[common, withcat],
                       help="classification seed rows, merged by linkage")
    p.add_argument("--max-order", type=int, default=8, metavar="N")
    p.set_defaults(handler=cmd_seeds)

    p = sub.add_parser("verify", parents=[common, withcat],
                       help="run the property suites")
    p.add_argument("--suite", action="append",
                   choices=sorted(verify.SUITES), metavar="NAME",
                   help="run one suite (repeatable); default is all")
    p.add_argument("--max-order", type=int, default=8, metavar="N")
    p.add_argument("--timings", action="store_true",
                   help="include per-check seconds (breaks byte "
                        "determinism between runs)")
    p.set_defaults(handler=cmd_verify)

    c = sub.add_parser("catalog", help="build or reserialize catalogs")
    csub = c.add_subparsers(dest="action", required=True)
    p = csub.add_parser("build", parents=[common],
                        help="built-in groups up to an order bound")
    p.add_argument("--max-order", type=int, default=8, metavar="N")
    p.add_argument("--out", metavar="PATH", help="also write the JSON here")
    p.set_defaults(handler=cmd_catalog_build)
    p = csub.add_parser("load", parents=[common],
                        help="parse a catalog file and re-emit it")
    p.add_argument("path", metavar="SPEC")
    p.add_argument("--out", metavar="PATH", help="also write the JSON here")
    p.set_defaults(handler=cmd_catalog_load)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if args.unsafe_order is not None:
        os.environ["SBW_MAX_ORDER"] = str(args.unsafe_order)
    try:
        code, payload = args.handler(args)
    except WorkbenchError as exc:
        _emit(jsonio.dumps({"error": exc.payload()}))
        return 1
    text = (jsonio.dumps(payload) if args.format == "json"
            else render_table(payload))
    return code if _emit(text) else 1


def _emit(text: str) -> bool:
    """Print ``text``; False if the reader has closed standard output."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at interpreter exit
        # does not fail again (the SIGPIPE note of the ``signal`` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True
