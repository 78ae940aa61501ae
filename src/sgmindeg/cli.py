"""Command-line front door: analyze, mindeg, oracle, make, check.

Reports are plain text by default and JSON behind --json; identical inputs
give byte-identical output.  Exit codes: 1 parse/validation error, 2 the
semigroup is not Rhodes semisimple (mindeg), 3 oracle timeout or not-found.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .builders import FAMILY_USAGE, FamilySpec, build
from .congruence import (
    is_rhodes_semisimple,
    rm_irreducible_classes,
)
from .core import greens, rees_coordinatize
from .errors import NotRhodesSemisimple, SemigroupError
from .fileio import dump_sgt, read_semigroup
from .mindeg import left_degrees, min_partial_degree
from .oracle import DEFAULT_BUDGET_SECS, OracleQuery, brute_min_degree

ENV_BUDGET = "SGMINDEG_TIME_BUDGET_SECS"


def _budget_from_env() -> float:
    raw = os.environ.get(ENV_BUDGET)
    if not raw:
        return DEFAULT_BUDGET_SECS
    try:
        budget = float(raw)
    except ValueError:
        budget = math.nan
    if not budget >= 0:  # also rejects nan
        raise ValueError(f"{ENV_BUDGET} must be a non-negative number of seconds, got {raw!r}")
    return budget


def _cmd_analyze(args: argparse.Namespace) -> int:
    s = read_semigroup(args.file, args.format)
    g = greens(s)
    print(f"elements: {s.size}")
    print(f"identity: {s.identity if s.identity is not None else '-'}")
    print(f"zero: {s.zero if s.zero is not None else '-'}")
    print(f"idempotents: {len(g.idempotents)}")
    print(
        f"classes: R={len(g.rclasses)} L={len(g.lclasses)} J={len(g.jclasses)} H={len(g.hclasses)}"
    )
    ok, cong = is_rhodes_semisimple(s, g)
    report = rm_irreducible_classes(s, g)
    for j in range(len(g.jclasses)):
        size = len(g.jclasses[j])
        if not g.regular[j]:
            print(f"J{j}: size={size} non-regular")
            continue
        r = rees_coordinatize(s, g, j)
        row = report.per_class[j]
        flag = "irreducible" if row.rm_irreducible else "reducible"
        print(
            f"J{j}: size={size} regular e={r.e} |G|={r.group_order} "
            f"A={r.a_count} B={r.b_count} {flag} |M_J|={len(row.mj)}"
        )
    print(f"rhodes_semisimple: {'yes' if ok else 'no'}")
    if not ok:
        nontrivial = [list(c) for c in cong.classes if len(c) > 1]
        print(f"ggm_identifies: {nontrivial}")
    return 0


def _print_report_text(rep, heading: str) -> None:
    print(f"{heading}")
    print(f"  elements: {rep.size}")
    print("  source: theory")
    print(f"  m: {rep.m}")
    for c in rep.per_class:
        subs = ", ".join(f"[G:H]={w.index}" for w in c.witness_subgroups)
        print(
            f"  J{c.jclass}: d={c.d} l_classes={c.l_count} |G|={c.group_order} "
            f"|M_J|={c.mj_order} via {c.fast_path} ({subs})"
        )
    t = rep.total
    if t.exact is not None:
        print(f"  total_degree: {t.exact} ({t.reason})")
    else:
        print(f"  total_degree: in [{t.lower}, {t.upper}] ({t.reason})")


def _cmd_mindeg(args: argparse.Namespace) -> int:
    s = read_semigroup(args.file, args.format)
    budget = _budget_from_env()
    try:
        rep = min_partial_degree(
            s,
            resolve_total_with_oracle=args.total,
            oracle_budget=budget,
        )
    except NotRhodesSemisimple as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: use the oracle subcommand for non-Rhodes-semisimple semigroups", file=sys.stderr)
        return 2
    left = None
    if args.left:
        try:
            left = left_degrees(s, rep.m)
        except NotRhodesSemisimple as exc:
            print(f"error computing left degrees: {exc}", file=sys.stderr)
            return 2
    if args.json:
        doc = rep.to_dict()
        if left is not None:
            doc["left"] = left.to_dict()
            doc["left"]["bound_l_le_2^m-1"] = True  # left_degrees raises on a violation
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_report_text(rep, "minimal partial degree (right actions)")
        if left is not None:
            _print_report_text(left, "minimal partial degree of the opposite (left actions)")
            print("  bound l <= 2^m - 1: ok")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    s = read_semigroup(args.file, args.format)
    mode = {"pbij": "partial_bijection"}.get(args.mode, args.mode)
    budget = args.budget if args.budget is not None else _budget_from_env()
    res = brute_min_degree(
        OracleQuery(
            semigroup=s,
            mode=mode,
            min_n=args.min_degree,
            max_n=args.max_degree,
            budget_secs=budget,
        )
    )
    if args.json:
        import json

        doc = {
            "schema": "sgmindeg.oracle-result.v1",
            "status": res.status,
            "degree": res.degree,
            "mode": mode,
            "searched_up_to": res.searched_up_to,
            "nodes": res.nodes,
        }
        if res.witness is not None and args.verbose:
            doc["witness"] = {
                str(k): ["-" if v < 0 else v for v in m] for k, m in res.witness.items()
            }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"status: {res.status}")
        if res.degree is not None:
            print(f"degree: {res.degree}")
        print(f"searched_up_to: {res.searched_up_to}")
        if args.verbose:
            print(f"nodes: {res.nodes}")
            if res.witness:
                for k, m in sorted(res.witness.items()):
                    print(f"generator {k}: {' '.join('-' if v < 0 else str(v) for v in m)}")
    return 0 if res.status == "found" else 3


def _cmd_make(args: argparse.Namespace) -> int:
    spec = FamilySpec(family=args.family, params=tuple(args.params))
    built = build(spec)
    text = dump_sgt(built.semigroup, header=built.label)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    s = read_semigroup(args.file, args.format)
    budget = args.budget if args.budget is not None else _budget_from_env()
    theory_m = None
    try:
        theory_m = min_partial_degree(s).m
        print(f"theory m: {theory_m}")
    except NotRhodesSemisimple:
        print("theory m: not available (not Rhodes semisimple)")
    res = brute_min_degree(
        OracleQuery(
            semigroup=s, mode="partial", min_n=1, max_n=args.max_degree, budget_secs=budget
        )
    )
    print(f"oracle m: {res.degree if res.status == 'found' else res.status}")
    if res.status != "found":
        return 3
    if theory_m is None:
        return 0
    agree = theory_m == res.degree
    print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgmindeg",
        description="Exact minimal degrees of faithful transformation representations "
        "of finite semigroups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("file", nargs="?", default="-", help="input file or - for stdin")
        p.add_argument("--format", choices=["sgt", "pgen", "rees"], default=None)

    p = sub.add_parser("analyze", help="Green's structure, Rees data, semisimplicity")
    add_io(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mindeg", help="minimal faithful partial degree (theory)")
    add_io(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--left", action="store_true", help="also compute the opposite semigroup")
    p.add_argument("--total", action="store_true", help="resolve the total degree by oracle if needed")
    p.set_defaults(func=_cmd_mindeg)

    p = sub.add_parser("oracle", help="brute-force minimal embedding search")
    add_io(p)
    p.add_argument("--mode", choices=["partial", "total", "pbij"], default="partial")
    p.add_argument("--min-degree", type=int, default=1)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--budget", type=float, default=None, help="seconds; overrides the env budget")
    nodes = "nodes = values tried for the points f_i(p), the image of point p under generator i"
    p.add_argument("--json", action="store_true", help=f"JSON report ({nodes})")
    p.add_argument("--verbose", action="store_true", help=f"also print nodes and the witness ({nodes})")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("make", help="emit a family member as an .sgt table")
    p.add_argument("family", choices=sorted(FAMILY_USAGE))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("check", help="cross-validate theory against the oracle")
    add_io(p)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=_cmd_check)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: building costs ~20x a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SemigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
