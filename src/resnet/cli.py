"""Command-line front end.

Four subcommands: ``resistance`` for a single pair query, ``reduce`` for a
traced rewrite run, ``scan`` for the tower convergence table, ``diameter``
for the all-pairs maximum with its tie set. Builders cover the structured
families so everything is reachable without writing a network file.

Exit codes: 0 success, 2 malformed input, 3 disconnected network,
4 singular system, 5 reduction stuck above the terminal set or, with
``--certify``, a step that fails its proof, 6 vertex budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import (
    DEFAULT_VERTEX_BUDGET,
    conjecture_scan,
    diameter_to_csv,
    diameter_to_json,
    resistance_diameter,
    scan_to_csv,
    scan_to_json,
)
from .errors import (
    BudgetExceededError,
    DisconnectedNetworkError,
    MalformedNetworkError,
    ReductionError,
    SingularSystemError,
)
from .exact import resistance_exact
from .network import (
    ResistorNetwork,
    block_tower,
    clique2,
    complete_bipartite,
    cycle,
    fan,
    hypercube,
    ladder,
    parse_network,
    path,
)
from .reduction import greedy_reduce, trace_to_json
from .spectra import network_spectrum, resistance_spectral

__all__ = ["main"]

_BUILDERS = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "clique2": (clique2, 0),
    "hypercube": (hypercube, 1),
    "ladder": (ladder, 1),
    "block_tower": (block_tower, 1),
    "fan": (fan, 2),
    "complete_bipartite": (complete_bipartite, 2),
}


# matched with isinstance, so a subclass such as ParseError takes its base's code
_EXIT_CODES = {
    MalformedNetworkError: 2,
    DisconnectedNetworkError: 3,
    SingularSystemError: 4,
    ReductionError: 5,
    BudgetExceededError: 6,
}


def _as_int(token: str, message: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedNetworkError(message) from None


def _load_network(args) -> ResistorNetwork:
    if args.graph is not None:
        with open(args.graph, "rb") as fh:
            return parse_network(fh.read())
    name, *params = args.builder
    if name not in _BUILDERS:
        raise MalformedNetworkError(
            f"unknown builder {name!r}; choose from {', '.join(sorted(_BUILDERS))}"
        )
    fn, arity = _BUILDERS[name]
    if len(params) != arity:
        raise MalformedNetworkError(
            f"builder {name!r} takes {arity} argument(s), got {len(params)}"
        )
    msg = f"builder {name!r} arguments must be integers"
    return fn(*(_as_int(p, msg) for p in params))


def _add_source_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="network file to load")
    group.add_argument(
        "--builder",
        nargs="+",
        metavar=("NAME", "ARG"),
        help="named family plus integer parameters, "
        "e.g. --builder hypercube 3",
    )


def _resolve_vertex(net: ResistorNetwork, token: str) -> int:
    if token.isascii() and token.lstrip("-").isdigit():
        vid = int(token)
        if vid not in net.index:
            raise MalformedNetworkError(f"no vertex with id {vid}")
        return vid
    try:
        return net.find_label(token)
    except KeyError:
        raise MalformedNetworkError(f"no vertex labelled {token!r}") from None


def cmd_resistance(args) -> int:
    net = _load_network(args)
    u = _resolve_vertex(net, args.u)
    v = _resolve_vertex(net, args.v)
    if u == v:
        raise MalformedNetworkError("the two vertices must differ")
    if args.mode == "exact":
        print(resistance_exact(net, u, v))
    else:
        spec = network_spectrum(net)
        print(f"{resistance_spectral(spec, net.index[u], net.index[v]):.15g}")
    return 0


def cmd_reduce(args) -> int:
    net = _load_network(args)
    terminals = frozenset(_resolve_vertex(net, t) for t in args.terminals.split(","))
    trace = greedy_reduce(
        net, terminals, use_delta_y=args.fan, certify=args.certify
    )
    payload = trace_to_json(trace) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
    else:
        with open(args.out, "w") as fh:
            fh.write(payload)
    print(
        f"{len(trace.steps)} step(s): {trace.initial.n} -> "
        f"{trace.final.n} vertices",
        file=sys.stderr,
    )
    return 0 if set(trace.final.vertices) == terminals else 5


def cmd_scan(args) -> int:
    pair = None
    if args.pair is not None:
        bits = args.pair.split(",")
        if len(bits) != 2:
            raise MalformedNetworkError("--pair wants two comma-separated ids")
        msg = f"--pair wants integer ids, got {args.pair!r}"
        pair = tuple(_as_int(b, msg) for b in bits)
    budget = args.budget
    if budget is None:
        env = os.environ.get("RESNET_VERTEX_BUDGET", str(DEFAULT_VERTEX_BUDGET))
        budget = _as_int(env, f"RESNET_VERTEX_BUDGET must be an integer, got {env!r}")
    report = conjecture_scan(
        k=args.k,
        n_max=args.max_n,
        pair=pair,
        mode=args.mode,
        budget=budget,
    )
    if args.format == "csv":
        sys.stdout.write(scan_to_csv(report))
    elif args.format == "json":
        sys.stdout.write(scan_to_json(report) + "\n")
    else:
        print("n R_n diff abs_dev_from_limit")
        for row in report.rows:
            diff = "-" if row.diff is None else row.diff
            dev = "-" if row.deviation is None else row.deviation
            print(f"{row.n} {row.value} {diff} {dev}")
    last = report.rows[-1]
    print(
        f"limit {report.limit}; last diff {last.diff}; "
        f"deviation {last.deviation}",
        file=sys.stderr,
    )
    return 0


def cmd_diameter(args) -> int:
    net = _load_network(args)
    report = resistance_diameter(net, mode=args.mode)
    if args.format == "csv":
        sys.stdout.write(diameter_to_csv(report))
    elif args.format == "json":
        sys.stdout.write(diameter_to_json(report) + "\n")
    else:
        value = report.diameter if report.exact else f"{report.diameter:.15g}"
        print(f"D_r = {value}")
        for (u, v), (lu, lv) in zip(report.pairs, report.label_pairs):
            names = f" {lu} {lv}" if net.labels else ""
            print(f"  {u} {v}{names}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resnet",
        description="resistance-distance computations on weighted networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resistance", help="resistance between two vertices")
    _add_source_args(p)
    p.add_argument("--u", required=True, help="first vertex (id or label)")
    p.add_argument("--v", required=True, help="second vertex (id or label)")
    p.add_argument("--mode", choices=("exact", "spectral"), default="exact")
    p.set_defaults(fn=cmd_resistance)

    p = sub.add_parser("reduce", help="rewrite toward a terminal set")
    _add_source_args(p)
    p.add_argument(
        "--terminals",
        required=True,
        help="comma-separated vertex ids or labels to preserve",
    )
    p.add_argument(
        "--certify",
        action="store_true",
        help="embed an exact terminal-resistance table per step",
    )
    p.add_argument(
        "--fan",
        action="store_true",
        help="also allow triangle-to-star steps",
    )
    p.add_argument("--out", metavar="FILE", help="write the JSON trace here")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser(
        "scan",
        help="tower convergence table",
        description="Rows run n = 2..max-n: the first row is the baseline "
        "resistance with empty diff columns, and each later row reports "
        "R_n, diff = R_n - R_(n-1), and |diff - 1/2^k|. Row count is "
        "therefore max-n - 2 data rows plus the one baseline row.",
    )
    p.add_argument("--k", type=int, required=True, help="hypercube dimension")
    p.add_argument("--max-n", type=int, required=True, help="largest tower height")
    p.add_argument("--pair", help="hypercube vertex ids i,j (default antipodal)")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--mode", choices=("exact", "spectral"), default="exact")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="largest allowed vertex count "
        "(default: RESNET_VERTEX_BUDGET or 4096)",
    )
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("diameter", help="maximum resistance and its tie set")
    _add_source_args(p)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--mode", choices=("exact", "spectral"), default="exact")
    p.set_defaults(fn=cmd_diameter)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
