"""Command-line surface: hom / reduce / morse / equivariant / formulas / verify.

Every command prints one JSON object to stdout (sorted keys, compact), or a
plain-text table with --pretty.  Exit codes: 0 ok, 1 verification failure,
2 usage error, 3 budget or resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import named_corpus
from .equivariant import equivariant_report
from .errors import BudgetError, DomainError, ResourceError
from .folds import irreducible_core, random_policy
from .formulas import (chi_hom, cycle_components, f_table, f_wedge,
                       mn_faces, verify_generating_identity)
from .graphs import (GRAPH_NAME_RE, Graph, load_graph, parse_graph_name,
                     to_json_obj)
from .homcx import build_hom
from .morse import is_acyclic, kmn_matching
from .topology import betti_gf2, connected_components, f_vector
from .verify import CHECKS, run_checks


def resolve_graph(spec: str) -> Graph:
    """Corpus name, then compact family name, then a JSON/edge-list path.

    A well-formed family name that the parser refuses (C2000000, K100) and
    that names no file keeps the parser's message."""
    corpus = named_corpus()
    if spec in corpus:
        return corpus[spec]
    try:
        return parse_graph_name(spec)
    except DomainError as e:
        refused = e
    if os.path.exists(spec):
        return load_graph(spec)
    if GRAPH_NAME_RE.match(spec):
        raise refused
    raise DomainError(f"cannot resolve graph spec {spec!r}: "
                      "not a corpus name, family name, or readable file")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_kv(obj: dict, pretty: bool):
    if not pretty:
        print(_dump(obj))
        return
    width = max(len(k) for k in obj)
    for k in sorted(obj):
        v = obj[k]
        if isinstance(v, (dict, list)):
            v = _dump(v)
        print(f"{k:<{width}}  {v}")


# ------------------------------------------------------------ subcommands

def cmd_hom(args) -> int:
    g = resolve_graph(args.source)
    h = resolve_graph(args.target)
    x = build_hom(g, h, args.budget)
    obj: dict = {"source": args.source, "target": args.target,
                 "cells": len(x), "dim": x.dim}
    if args.fvector:
        obj["f_vector"] = list(f_vector(x))
    if args.betti:
        obj["betti"] = list(betti_gf2(x).betti)
    if args.components:
        obj["components"] = connected_components(x)
    if args.emit_cells:
        obj["cell_list"] = [list(x.cell_of(k)) for k in x.keys]
    _emit_kv(obj, args.pretty)
    return 0


def cmd_reduce_core(args) -> int:
    g = resolve_graph(args.graph)
    policy = None
    if args.policy != "smallest":
        kind, _, seed = args.policy.partition(":")
        try:
            if kind != "random":
                raise ValueError(kind)
            policy = random_policy(int(seed))
        except ValueError:
            raise DomainError(
                "policy must be 'smallest' or 'random:SEED'") from None
    core, trace = irreducible_core(g, policy)
    obj = {"graph": args.graph, "core": to_json_obj(core),
           "trace": trace.to_json_obj()}
    _emit_kv(obj, args.pretty)
    return 0


def cmd_morse_kmn(args) -> int:
    pm, _ = kmn_matching(args.m, args.n)
    obj = pm.to_json_obj(is_acyclic(pm))
    obj.update({"m": args.m, "n": args.n, "cells": len(pm.carrier)})
    _emit_kv(obj, args.pretty)
    return 0


def cmd_equivariant_bound(args) -> int:
    g = resolve_graph(args.graph)
    obj = equivariant_report(g, args.m, args.budget)
    obj["graph"] = args.graph
    _emit_kv(obj, args.pretty)
    return 0


def cmd_formulas(args) -> int:
    if args.which == "f":
        _emit_kv({"m": args.m, "n": args.n, "f": f_wedge(args.m, args.n)},
                 args.pretty)
    elif args.which == "chi":
        _emit_kv({"m": args.m, "n": args.n, "chi": chi_hom(args.m, args.n)},
                 args.pretty)
    elif args.which == "c":
        _emit_kv({"t": args.t, "components": cycle_components(args.t)},
                 args.pretty)
    elif args.which == "gen":
        ok = verify_generating_identity(args.m, args.upto)
        _emit_kv({"m": args.m, "upto": args.upto, "identity": ok}, args.pretty)
        return 0 if ok else 1
    elif args.which == "mn":
        faces = mn_faces(args.n)  # proper faces only: dim <= n - 1
        fv = [0] * args.n
        for lab in faces:
            fv[lab.dim] += 1
        _emit_kv({"n": args.n, "faces": len(faces), "f_vector": fv},
                 args.pretty)
    else:  # table
        rows = f_table(args.max_m, args.max_n)
        if args.csv:
            print("m,n,f,chi")
            for r in rows:
                print(f"{r['m']},{r['n']},{r['f']},{r['chi']}")
        elif args.pretty:
            print(f"{'m':>3} {'n':>3} {'f':>12} {'chi':>12}")
            for r in rows:
                print(f"{r['m']:>3} {r['n']:>3} {r['f']:>12} {r['chi']:>12}")
        else:
            print(_dump(rows))
    return 0


def _check_writable(path: str) -> None:
    """Refuse an output file that cannot be created, before any work runs."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) \
            or not os.access(target, os.W_OK):
        raise DomainError(f"cannot write --json file {path!r}: "
                          "not a file in a writable directory")


def cmd_verify(args) -> int:
    if args.json:
        _check_writable(args.json)
    report = run_checks(args.only or None, args.suite)
    if args.stable:
        for row in report["checks"]:
            row.pop("elapsed", None)
    text = _dump(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.pretty:
        for row in report["checks"]:
            t = f"{row['elapsed']:>9}s" if "elapsed" in row else ""
            print(f"{row['status']:>4}  {row['name']:<24}{t}")
            if row["status"] != "pass":
                print(f"      expected: {_dump(row['expected'])}")
                print(f"      computed: {_dump(row['computed'])}")
        print(report["status"].upper())
    else:
        print(text)
    return 0 if report["status"] == "pass" else 1


# ------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homtopo",
        description="Hom-complex construction, GF(2) homology, reductions, "
                    "equivariant bounds, and the verification suite.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hom", help="build Hom(source, target) and report")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--betti", action="store_true")
    p.add_argument("--components", action="store_true")
    p.add_argument("--fvector", action="store_true")
    p.add_argument("--emit-cells", action="store_true")
    p.add_argument("--budget", type=int, default=None,
                   help="cap on the number of cells")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(run=cmd_hom)

    p = sub.add_parser("reduce", help="fold reductions")
    rsub = p.add_subparsers(dest="sub", required=True)
    r = rsub.add_parser("core", help="fold down to an irreducible core")
    r.add_argument("--graph", required=True)
    r.add_argument("--policy", default="smallest",
                   help="'smallest' or 'random:SEED'")
    r.add_argument("--pretty", action="store_true")
    r.set_defaults(run=cmd_reduce_core)

    p = sub.add_parser("morse", help="discrete Morse matchings")
    msub = p.add_subparsers(dest="sub", required=True)
    m = msub.add_parser("kmn", help="matching on the A_1 subcomplex of "
                                    "Hom(K_m, K_n)")
    m.add_argument("--m", type=int, required=True)
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--pretty", action="store_true")
    m.set_defaults(run=cmd_morse_kmn)

    p = sub.add_parser("equivariant", help="involutions and height bounds")
    esub = p.add_subparsers(dest="sub", required=True)
    e = esub.add_parser("bound", help="chromatic lower bound from the "
                                      "Hom(K_m, G) height")
    e.add_argument("--graph", required=True)
    e.add_argument("--m", type=int, default=2)
    e.add_argument("--budget", type=int, default=None)
    e.add_argument("--pretty", action="store_true")
    e.set_defaults(run=cmd_equivariant_bound)

    p = sub.add_parser("formulas", help="closed-form counts and tables")
    fsub = p.add_subparsers(dest="which", required=True)
    f = fsub.add_parser("f", help="top Betti number of Hom(K_m, K_n)")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    f = fsub.add_parser("chi", help="Euler characteristic of Hom(K_m, K_n)")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    f = fsub.add_parser("c", help="component count of Hom(C_t, K_3)")
    f.add_argument("--t", type=int, required=True)
    f = fsub.add_parser("gen", help="check the generating-function identity")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--upto", type=int, default=24)
    f = fsub.add_parser("mn", help="face counts of the polytope M_n")
    f.add_argument("--n", type=int, required=True)
    f = fsub.add_parser("table", help="f and chi over a rectangle of (m, n)")
    f.add_argument("--max-m", type=int, default=6)
    f.add_argument("--max-n", type=int, default=8)
    f.add_argument("--csv", action="store_true")
    for f in fsub.choices.values():
        f.add_argument("--pretty", action="store_true")
    p.set_defaults(run=cmd_formulas)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("suite", choices=("fast", "full"))
    p.add_argument("--only", action="append", metavar="NAME",
                   help=f"restrict to named checks; one of {', '.join(CHECKS)}")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    p.add_argument("--stable", action="store_true",
                   help="drop timing fields for byte-identical output")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(run=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, ResourceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
