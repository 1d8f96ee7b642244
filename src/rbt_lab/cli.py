"""Command-line front end: parsing, certification, reduction, search, reports.

Exit codes are a contract: 0 means every requested check passed (or the
search completed clean), 1 means a certified bound was violated or a rainbow
triangle was found where freeness was asserted, 2 means usage or input
error.  JSON mode emits exactly one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from . import certify as cert
from . import search as se
from .graph import Graph
from .partition import mantel_edge_bound, mantel_partition, verify_partition
from .reports import CertReport, PreconditionError, RainbowFoundError
from .systems import (
    GraphSystem,
    find_rainbow_triangle,
    is_nested,
    load_json,
    nest_reduce,
    system_from_json_dict,
)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from None


def _load_system(args: argparse.Namespace) -> GraphSystem:
    doc = load_json(_read_source(args.input))
    system = system_from_json_dict(doc)
    if args.format == "json" and "graphs" not in doc:
        raise PreconditionError('input format "json" requires a "graphs" key')
    if args.format == "hex" and "hex" not in doc:
        raise PreconditionError('input format "hex" requires a "hex" key')
    return system


def _mode_flag(args, name: str, used: bool, default: Any, scope: str) -> Any:
    """A flag read in one mode only: its default when not given, exit 2 if given elsewhere."""
    value = getattr(args, name)
    if value is None:
        return default
    if not used:
        raise PreconditionError(f"--{name.replace('_', '-')} applies to {scope} only")
    return value


def _emit_json(doc: Any) -> None:
    print(json.dumps(doc, indent=2))


def _fmt_edges(g: Graph) -> str:
    return " ".join(f"({e.u},{e.v})" for e in g.edges()) or "(none)"


def _print_report_human(report: CertReport) -> None:
    status = "OK" if report.passed else "VIOLATED"
    print(f"claim {report.claim}: value {report.value} vs bound {report.bound} "
          f"-> {status} (slack {report.slack}, tight={report.tight})")
    if report.witness:
        print(f"witness: {report.witness}")


def _report_exit(report: CertReport, output: str) -> int:
    if output == "json":
        _emit_json(report.to_json_dict())
    else:
        _print_report_human(report)
    return 0 if report.passed else 1


# -- subcommands -------------------------------------------------------------


def _cmd_check_rbt(args) -> int:
    system = _load_system(args)
    witness = find_rainbow_triangle(system)
    if args.output == "json":
        _emit_json(
            {
                "n": system.n,
                "t": system.t,
                "rbt_free": witness is None,
                "witness": witness.to_json_dict() if witness else None,
            }
        )
    else:
        if witness is None:
            print(f"rainbow-triangle-free (n={system.n}, t={system.t})")
        else:
            a, b, c = witness.triangle
            parts = ", ".join(
                f"({e.u},{e.v}) from graph {i}"
                for i, e in zip(witness.graph_indices, witness.edges)
            )
            print(f"rainbow triangle on {{{a},{b},{c}}}: {parts}")
    return 0 if witness is None else 1


def _cmd_partition(args) -> int:
    system = _load_system(args)
    if not 0 <= args.index < system.t:
        raise PreconditionError(f"graph index {args.index} out of range (t={system.t})")
    g = system.graphs[args.index]
    part = mantel_partition(g)
    ok = verify_partition(g, part)
    bound = mantel_edge_bound(g)
    if args.output == "json":
        _emit_json(
            {
                "partition": part.to_json_dict(),
                "verified": ok,
                "edge_bound": bound.to_json_dict(),
            }
        )
    else:
        print(f"matching size: {part.size}")
        print(f"x_side: {list(part.x_side)}")
        print(f"y_side: {list(part.y_side)}")
        print(f"z_side: {part.to_json_dict()['z_side']}")
        print(f"verified: {ok}")
        _print_report_human(bound)
    return 0 if ok and bound.passed else 1


def _cmd_reduce(args) -> int:
    system = _load_system(args)
    reduced = nest_reduce(system)
    if args.output == "json":
        _emit_json(reduced.to_json_dict(compact=args.compact))
    else:
        print(f"nested: {is_nested(reduced)}")
        for i, g in enumerate(reduced.graphs):
            print(f"graph {i} ({g.edge_count()} edges): {_fmt_edges(g)}")
    return 0


_CLAIMS = (
    "sum-t3",
    "sum-t",
    "weighted",
    "nearly-matchable",
    "product-nested",
    "conjecture",
    "prop31",
)


def _cmd_certify(args) -> int:
    system = _load_system(args)
    claim = args.claim
    if claim == "sum-t3":
        report = cert.certify_sum_t3(system)
    elif claim == "sum-t":
        report = cert.certify_sum_t(system)
    else:
        if system.t != 3:
            raise PreconditionError(f"claim {claim} needs exactly 3 graphs, got {system.t}")
        b, c, d = system.graphs
        if claim == "weighted":
            report = cert.certify_weighted_sum(b, c, d)
        elif claim == "nearly-matchable":
            report = cert.certify_nearly_matchable(b, c, d)
        elif claim == "product-nested":
            report = cert.certify_product_nested(b, c, d)
        elif claim == "conjecture":
            report = cert.conjecture_margin(b, c, d)
        else:
            report = cert.certify_partition_bounds(b, c, d)
    return _report_exit(report, args.output)


def _cmd_search(args) -> int:
    # looked up before searching: it also rejects a product search with t != 3
    bound = cert.theory_bound(args.objective, args.n, args.t)
    seed = _mode_flag(args, "seed", args.local, None, "local search")
    restarts = _mode_flag(args, "restarts", args.local, 8, "local search")
    iso_pruning = _mode_flag(args, "iso_pruning", not args.local, False, "exhaustive search")
    checkpoint = _mode_flag(args, "checkpoint", not args.local, None, "exhaustive search")
    shared = {"threads": args.threads, "witness_cap": args.witness_cap}
    exhaustive = {"iso_pruning": iso_pruning, "checkpoint": checkpoint, **shared}
    if args.objective == "sum":
        if args.local:
            raise PreconditionError("local search supports the product objective only")
        report = se.exhaustive_max_sum(args.n, args.t, **exhaustive)
    elif args.local:
        report = se.local_search_product(args.n, seed, restarts=restarts, **shared)
    else:
        report = se.exhaustive_max_product(args.n, **exhaustive)
    # every reported value is attained by a real system, so exceeding the
    # theory bound flags a violation in local mode too
    exceeded = bound is not None and report.best_value > bound
    doc = report.to_json_dict()
    doc["theory_bound"] = None if bound is None else str(bound)
    doc["bound_exceeded"] = exceeded
    if args.output == "json":
        _emit_json(doc)
    else:
        kind = "exhaustive maximum" if report.exhaustive else "best found (lower bound)"
        limit = "no theory bound" if bound is None else f"theory bound {bound}"
        print(f"{kind} of {report.objective} at n={report.n}, t={report.t}: "
              f"{report.best_value} ({limit})")
        print(f"nodes {report.nodes}, pruned {report.pruned}, "
              f"wall time {report.wall_time:.2f}s")
        for i, witness in enumerate(report.witness_systems()):
            tag = " (truncated list)" if report.witness_overflow else ""
            if i == 0:
                print(f"witnesses{tag}:")
            print("  " + " | ".join(_fmt_edges(g) for g in witness.graphs))
        if exceeded:
            print("BOUND EXCEEDED: potential counterexample recorded above")
    return 1 if exceeded else 0


def _cmd_extremal(args) -> int:
    copies = _mode_flag(args, "t", args.kind == "bipartite-k", 4, "--kind bipartite-k")
    if args.kind == "two-complete":
        system = se.two_complete_one_empty(args.n)
        value = system.total_edges()
        label = "sum"
    elif args.kind == "bipartite-k":
        system = se.balanced_bipartite_system(args.n, copies)
        value = system.total_edges()
        label = "sum"
    else:
        system = se.bipartite_triple(args.n)
        counts = system.edge_counts()
        value = counts[0] * counts[1] * counts[2]
        label = "product"
    rbt_free = find_rainbow_triangle(system) is None
    if args.output == "json":
        doc = system.to_json_dict(compact=args.compact)
        doc["objective"] = label
        doc["value"] = str(value)
        doc["rbt_free"] = rbt_free
        _emit_json(doc)
    else:
        print(f"{args.kind} on n={args.n}: {label} value {value}, rbt_free={rbt_free}")
        for i, g in enumerate(system.graphs):
            print(f"graph {i} ({g.edge_count()} edges): {_fmt_edges(g)}")
    return 0 if rbt_free else 1


def _cmd_ineq_scan(args) -> int:
    lpq = args.which == "31"
    l_max = _mode_flag(args, "l_max", lpq, 30, "--which 31")
    q_max = _mode_flag(args, "q_max", lpq, 60, "--which 31")
    step = Fraction(_mode_flag(args, "step", not lpq, "1/100", "--which 32"))
    max_value = Fraction(_mode_flag(args, "max", not lpq, "10", "--which 32"))
    if lpq:
        violations = list(cert.scan_lpq_inequality(l_max, q_max))
        doc: dict[str, Any] = {
            "which": "31",
            "l_max": l_max,
            "q_max": q_max,
            "violations": [list(v) for v in violations],
        }
        human = [f"(l={v[0]}, p={v[1]}, q={v[2]})" for v in violations]
    else:
        violations = list(cert.scan_alpha_beta_inequality(step, max_value))
        doc = {
            "which": "32",
            "step": str(step),
            "max": str(max_value),
            "violations": [[str(a), str(b)] for a, b in violations],
        }
        human = [f"(alpha={a}, beta={b})" for a, b in violations]
    if args.output == "json":
        _emit_json(doc)
    else:
        if violations:
            print(f"{len(violations)} violations:")
            for line in human:
                print("  " + line)
        else:
            print("no violations on the grid")
    return 1 if violations else 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbt-lab",
        description="analyze rainbow-triangle-free systems of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, system_input: bool = True) -> None:
        if system_input:
            p.add_argument("--input", "-i", default="-",
                           help="system JSON file, or - for stdin (default)")
            p.add_argument("--format", choices=("auto", "json", "hex"), default="auto",
                           help="required input flavor (default: accept either)")
        p.add_argument("--output", choices=("human", "json"), default="human")

    p = sub.add_parser("check-rbt", help="test a system for rainbow triangles")
    add_io(p)
    p.set_defaults(func=_cmd_check_rbt)

    p = sub.add_parser("partition", help="matching-based partition of a triangle-free graph")
    add_io(p)
    p.add_argument("--index", type=int, default=0, help="which graph of the system")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("reduce", help="rewrite a system into a nested chain")
    add_io(p)
    p.add_argument("--compact", action="store_true", help="emit hex form")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("certify", help="check one of the quantitative bounds")
    add_io(p)
    p.add_argument("--claim", choices=_CLAIMS, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="maximize an objective over rainbow-free systems")
    add_io(p, system_input=False)
    p.add_argument("--objective", choices=("sum", "product"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--local", action="store_true", default=False)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None, help="local restarts (default 8)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--iso-pruning", action="store_true", default=None)
    p.add_argument("--witness-cap", type=int, default=64)
    p.add_argument("--checkpoint", default=None,
                   help="JSON checkpoint for resumable exhaustive runs")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("extremal", help="emit a bound-attaining construction")
    add_io(p, system_input=False)
    p.add_argument("--kind", choices=("two-complete", "bipartite-k", "bipartite-triple"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None, help="copies for bipartite-k (default 4)")
    p.add_argument("--compact", action="store_true", help="emit hex form")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("ineq-scan", help="grid scans of the two product inequalities")
    add_io(p, system_input=False)
    p.add_argument("--which", choices=("31", "32"), required=True)
    p.add_argument("--l-max", type=int, default=None, help="scan 31 bound on l (default 30)")
    p.add_argument("--q-max", type=int, default=None, help="scan 31 bound on q (default 60)")
    p.add_argument("--step", default=None, help="scan 32 grid step (default 1/100)")
    p.add_argument("--max", default=None, help="scan 32 grid upper end (default 10)")
    p.set_defaults(func=_cmd_ineq_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except RainbowFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            print(f"witness: {witness.to_json_dict()}", file=sys.stderr)
        return 1
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
