"""Command-line front end: parsing, certification, reduction, search, reports.

Exit codes are a contract: 0 means every requested check passed (or the
search completed clean), 1 means a certified bound was violated or a rainbow
triangle was found where freeness was asserted, 2 means usage or input
error, or a report that could not be written.  JSON mode emits exactly one
JSON document on stdout, byte for byte as json.dumps(doc, indent=2) writes
it; `_indented` writes each int list in one join and a graph's edge list
in one % fill, where json's indenting encoder steps per token.

Each command's options are defined once, as data in `_COMMANDS`.  A call
`<command> --flag [value] ...` naming only that command's flags, with valid
values, is read straight from that table by argparse's own rules, with no
parser built and argparse not imported; any other argv, and every call that
ends in help or an error, goes to the one full argparse parser.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from functools import cache
from math import prod
from types import SimpleNamespace
from typing import Any

from . import certify as cert
from . import search as se
from .graph import Graph
from .partition import _edge_bound, mantel_partition, verify_partition
from .reports import CertReport, PreconditionError, RainbowFoundError
from .systems import (
    GraphSystem,
    find_rainbow_triangle,
    is_nested,
    nest_reduce,
    system_from_json,
)


def _read_source(path: str) -> str:
    try:
        if path != "-":
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        if sys.stdin is None:  # started with fd 0 closed
            raise PreconditionError("stdin is closed, so no system can be read")
        return sys.stdin.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from None


def _load_system(args) -> GraphSystem:
    return system_from_json(_read_source(args.input))


def _mode_flag(args, name: str, used: bool, default: Any, scope: str) -> Any:
    """A flag read in one mode only: its default when not given, exit 2 if given elsewhere."""
    value = getattr(args, name)
    if value is None:
        return default
    if not used:
        raise PreconditionError(f"--{name.replace('_', '-')} applies to {scope} only")
    return value


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _indented(value: Any, indent: str) -> str:
    """`value` as json.dumps(value, indent=2) writes it, nested at `indent`.

    json.dumps with an indent walks the document one token per generator
    step in pure Python; here a flat list of ints is one join and a `Graph`
    its colex edge list, one % fill.  `type(x) is int` keeps bools off the
    int paths; whatever has no path of its own goes to json.dumps itself.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is Graph:
        flat = value._flat_edges()
        pair = f"[\n{inner}  %d,\n{inner}  %d\n{inner}]"
        body = sep.join([pair] * (len(flat) >> 1)) % tuple(flat)
        return f"[\n{inner}{body}\n{indent}]" if flat else "[]"
    if kind is list:
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_indented(x, inner) for x in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        body = sep.join([_encode_str(k) + ": " + _indented(v, inner) for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    # json escapes every newline inside a string, so each one here starts a line
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _emit_json(doc: Any) -> None:
    print(_indented(doc, ""))


def _fmt_edges(g: Graph) -> str:
    flat = g._flat_edges()
    return " ".join(["(%d,%d)"] * (len(flat) >> 1)) % tuple(flat) or "(none)"


def _emit_system(system: GraphSystem, args, head: str, extra: dict[str, Any]) -> None:
    """`system.to_json_dict(args.compact)` followed by `extra`, or in human mode `head` and
    one line per graph."""
    if args.output == "json":
        if args.compact:
            doc = system.to_json_dict(compact=True)
        else:  # the graphs themselves: `_indented` writes each edge list from its rows
            doc = {"n": system.n, "graphs": list(system.graphs)}
        _emit_json({**doc, **extra})
    else:
        print(head)
        for i, g in enumerate(system.graphs):
            print(f"graph {i} ({g.edge_count()} edges): {_fmt_edges(g)}")


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
    # the partition has checked g triangle-free and matched it maximally
    bound = _edge_bound(g, part.size)
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
    reduced = nest_reduce(_load_system(args))
    _emit_system(reduced, args, f"nested: {is_nested(reduced)}", {})
    return 0


# claim -> (its certifier in `certify`, whether it takes the three graphs);
# the certifier is looked up at call time, so a patched module attribute is
# the one called
_CLAIMS = {
    "sum-t3": ("certify_sum_t3", False),
    "sum-t": ("certify_sum_t", False),
    "weighted": ("certify_weighted_sum", True),
    "nearly-matchable": ("certify_nearly_matchable", True),
    "product-nested": ("certify_product_nested", True),
    "conjecture": ("conjecture_margin", True),
    "prop31": ("certify_partition_bounds", True),
}


def _cmd_certify(args) -> int:
    system = _load_system(args)
    name, triple = _CLAIMS[args.claim]
    if triple and system.t != 3:
        raise PreconditionError(f"claim {args.claim} needs exactly 3 graphs, got {system.t}")
    certifier = getattr(cert, name)
    report = certifier(*system.graphs) if triple else certifier(system)
    return _report_exit(report, args.output)


def _cmd_search(args) -> int:
    # looked up before searching: it also rejects a product search with t != 3
    bound = cert.theory_bound(args.objective, args.n, args.t)
    seed = _mode_flag(args, "seed", args.local, None, "local search")
    restarts = _mode_flag(args, "restarts", args.local, 8, "local search")
    # read only to refuse it in local mode: exhaustive search always prunes
    _mode_flag(args, "iso_pruning", not args.local, False, "exhaustive search")
    checkpoint = _mode_flag(args, "checkpoint", not args.local, None, "exhaustive search")
    shared = {"threads": args.threads, "witness_cap": args.witness_cap}
    exhaustive = {"checkpoint": checkpoint, **shared}
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
    elif args.kind == "bipartite-k":
        system = se.balanced_bipartite_system(args.n, copies)
    else:
        system = se.bipartite_triple(args.n)
    counts = system.edge_counts()
    label = "product" if args.kind == "bipartite-triple" else "sum"
    value = prod(counts) if label == "product" else sum(counts)
    rbt_free = find_rainbow_triangle(system) is None
    head = f"{args.kind} on n={args.n}: {label} value {value}, rbt_free={rbt_free}"
    _emit_system(system, args, head,
                 {"objective": label, "value": str(value), "rbt_free": rbt_free})
    return 0 if rbt_free else 1


def _cmd_ineq_scan(args) -> int:
    lpq = args.which == "31"
    l_max = _mode_flag(args, "l_max", lpq, 30, "--which 31")
    q_max = _mode_flag(args, "q_max", lpq, 60, "--which 31")
    step = _mode_flag(args, "step", not lpq, "1/100", "--which 32")
    max_value = _mode_flag(args, "max", not lpq, "10", "--which 32")
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
        from fractions import Fraction

        try:
            step, max_value = Fraction(step), Fraction(max_value)
        except ZeroDivisionError:
            raise PreconditionError("--step and --max need a non-zero denominator") from None
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

# one option: its flags and its `add_argument` keywords
_INPUT = (("--input", "-i"), {"default": "-",
                              "help": "system JSON file, or - for stdin (default)"})
_OUTPUT = (("--output",), {"choices": ("human", "json"), "default": "human"})
_COMPACT = (("--compact",), {"action": "store_true", "help": "emit hex form"})

# command -> (help, its handler, its options in help order); the one place a
# command's options are defined, for the full parser and for `_parse`
_COMMANDS = {
    "check-rbt": ("test a system for rainbow triangles", _cmd_check_rbt, (_INPUT, _OUTPUT)),
    "partition": ("matching-based partition of a triangle-free graph", _cmd_partition, (
        _INPUT, _OUTPUT,
        (("--index",), {"type": int, "default": 0, "help": "which graph of the system"}),
    )),
    "reduce": ("rewrite a system into a nested chain", _cmd_reduce,
               (_INPUT, _OUTPUT, _COMPACT)),
    "certify": ("check one of the quantitative bounds", _cmd_certify, (
        _INPUT, _OUTPUT,
        (("--claim",), {"choices": _CLAIMS, "required": True}),
    )),
    "search": ("maximize an objective over rainbow-free systems", _cmd_search, (
        _OUTPUT,
        (("--objective",), {"choices": ("sum", "product"), "required": True}),
        (("--n",), {"type": int, "required": True}),
        (("--t",), {"type": int, "default": 3}),
        (("--local",), {"action": "store_true",
                        "help": "seeded random maximal fills (default: exhaustive search)"}),
        (("--seed",), {"type": int}),
        (("--restarts",), {"type": int, "help": "local restarts (default 8)"}),
        (("--threads",), {"type": int, "default": 1}),
        (("--iso-pruning",), {"action": "store_true", "default": None,
                              "help": "the default: exhaustive search walks one first graph "
                                      "per isomorphism class; changes nothing"}),
        (("--witness-cap",), {"type": int, "default": 64}),
        (("--checkpoint",), {"help": "JSON checkpoint for resumable exhaustive runs"}),
    )),
    "extremal": ("emit a bound-attaining construction", _cmd_extremal, (
        _OUTPUT,
        (("--kind",), {"choices": ("two-complete", "bipartite-k", "bipartite-triple"),
                       "required": True}),
        (("--n",), {"type": int, "required": True}),
        (("--t",), {"type": int, "help": "copies for bipartite-k (default 4)"}),
        _COMPACT,
    )),
    "ineq-scan": ("grid scans of the two product inequalities", _cmd_ineq_scan, (
        _OUTPUT,
        (("--which",), {"choices": ("31", "32"), "required": True}),
        (("--l-max",), {"type": int, "help": "scan 31 bound on l (default 30)"}),
        (("--q-max",), {"type": int, "help": "scan 31 bound on q (default 60)"}),
        (("--step",), {"help": "scan 32 grid step (default 1/100)"}),
        (("--max",), {"help": "scan 32 grid upper end (default 10)"}),
    )),
}


@cache
def build_parser():
    """The full parser, built once: the one source of help, usage lines and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rbt-lab",
        description="analyze rainbow-triangle-free systems of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, keywords in options:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=handler)
    return parser


@cache
def _option_table(command: str) -> tuple[dict[str, tuple], dict[str, Any], frozenset[str]]:
    """A command's {flag: (dest, takes a value, type, choices)}, its defaults and its
    required dests, each as argparse derives them from `add_argument`."""
    flags, defaults, required = {}, {"func": _COMMANDS[command][1]}, set()
    for names, keywords in _COMMANDS[command][2]:
        dest = names[0].lstrip("-").replace("-", "_")
        switch = keywords.get("action") == "store_true"
        defaults[dest] = keywords.get("default", False if switch else None)
        if keywords.get("required"):
            required.add(dest)
        for name in names:
            flags[name] = (dest, not switch, keywords.get("type"), keywords.get("choices"))
    return flags, defaults, frozenset(required)


def _parse(argv: list[str]) -> Any:
    """The namespace the full parser gives `argv`.

    A call `<command> --flag [value] ...` whose flags the table names exactly
    is read from the table, and its namespace lacks only `command`; any other
    argv goes to the full parser, and so does every call that would end in
    help or an error.  A value starting with "-" (other than "-" itself) also
    goes there, as argparse may read it as an option.
    """
    if argv and argv[0] in _COMMANDS:
        flags, defaults, required = _option_table(argv[0])
        values = _read_options(argv, flags)
        if values is not None and required <= values.keys():
            return SimpleNamespace(**{**defaults, **values})
    return build_parser().parse_args(argv)


def _read_options(argv: list[str], flags: dict[str, tuple]) -> dict[str, Any] | None:
    """{dest: value} for the options after argv[0], or None if the full parser must answer."""
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = flags.get(token)
        if option is None:
            return None
        dest, takes_value, convert, choices = option
        if not takes_value:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and value != "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return values


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse already printed a usage message
        return 2 if exc.code not in (0, None) else 0
    if sys.stdout is None:  # started with fd 1 closed
        print("error: stdout is closed, so no report can be written", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # devnull takes what is still buffered, so the interpreter's last flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2
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


# the import-time heap lives as long as the process: freezing it spares every
# collection a rescan of it
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
