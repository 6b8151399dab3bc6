"""Command line front end.

Subcommands: analyze (parameter values per graph), family (excellent
families), verify (the claim suites), gen (catalogs as graph6 lines),
search (filtered catalog scans), convert (graph6 normalization).

Input is a file path, - for stdin, or an inline graph6 string. Reports
are JSON by default and deterministic: runtimes stay null unless
--timings is given, so repeated runs serialize identically. Exit codes:
0 success, 1 failed verification claims, 2 input errors or an
unsupported request, which analyze, family and convert report per graph.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import __version__
from .canon import CANON_CAP, canonical_key
from .catalog import (
    CatalogQuery,
    generate_all_graphs,
    generate_regular,
    load_catalog,
    search,
)
from .claims import _pmap, run_suite
from .domination import PARAM_IDS, Param, ParameterUndefinedError, min_sets
from .excellence import excellent_family, family_names, is_excellent
from .graph6 import Graph6Error, from_graph6, parse_lines, to_graph6
from .graphs import Graph, complete, cycle, edgeless, path
from .trees import enumerate_trees


def _canonical_graph6(g: Graph) -> str | None:
    # none above CANON_CAP, where a key may end in MatchBudgetError
    if g.n > CANON_CAP:
        return None
    return canonical_key(g).graph6()


def _identity(index: int, g: Graph) -> dict:
    return {
        "index": index,
        "graph6": to_graph6(g),
        "canonical_graph6": _canonical_graph6(g),
    }


def _read_source(source: str) -> tuple[str, list]:
    """Resolve an input argument to (kind, entries) or raise Graph6Error.

    entries are parse_lines pairs, (line number, Graph or Graph6Error), and
    workers receive these parsed graphs; an inline argument is one entry,
    stripped of surrounding whitespace as parse_lines strips a file line.
    A file or stdin is decoded as latin-1, so a byte outside graph6's
    range fails only its own line. A closed stdin is an OSError, as a
    missing file is.
    """
    if source == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
        return "stdin", list(parse_lines(sys.stdin.buffer.read().decode("latin-1")))
    if os.path.exists(source):
        with open(source, encoding="latin-1") as fh:
            return source, list(parse_lines(fh.read()))
    try:
        return "inline", [(1, from_graph6(source.strip()))]
    except Graph6Error as exc:
        raise Graph6Error(f"no such file and not a graph6 string: {source!r}: {exc}")


def _pattern_graph(spec: str) -> Graph:
    """Named small graph (K3, E2, P4, C5) or a raw graph6 string."""
    if len(spec) >= 2 and spec[0] in "KEPC" and spec[1:].isdigit():
        n = int(spec[1:])
        builder = {"K": complete, "E": edgeless, "P": path, "C": cycle}[spec[0]]
        return builder(n)
    return from_graph6(spec)


def _emit(payload: dict, output: str, text_lines) -> None:
    if output == "json":
        _print_lines([json.dumps(payload, indent=2, sort_keys=True)])
    else:
        _print_lines(text_lines(payload))


def _print_lines(lines) -> None:
    """Print lines to stdout; a reader that closes early ends the output quietly."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes what is still buffered at exit, which
        # would raise again; that text now goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _jobs(raw: str | None) -> int:
    """Worker count from --jobs, else DOMEXC_JOBS, else 1.

    Raises ValueError unless the chosen value is an integer of at least 1.
    """
    source = "--jobs"
    if raw is None:
        source, raw = "DOMEXC_JOBS", os.environ.get("DOMEXC_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{source} must be an integer of at least 1, got {raw!r}")
    return jobs


def _param_list(spec: str) -> list[Param]:
    if spec == "all":
        return [Param.from_id(pid) for pid in PARAM_IDS]
    return [Param.from_id(pid.strip()) for pid in spec.split(",")]


def _analyze_one(item: tuple[int, Graph], param_ids: tuple[str, ...]) -> dict:
    index, g = item
    entry = _identity(index, g)
    entry.update(
        {
            "order": g.n,
            "size": g.edge_count(),
            "degree_range": [g.min_degree(), g.max_degree()] if g.n else [None, None],
            "connected": g.is_connected(),
            "params": {},
        }
    )
    for pid in param_ids:
        par = Param.from_id(pid)
        try:
            res = min_sets(g, par)
        except ParameterUndefinedError as exc:
            entry["params"][pid] = {"defined": False, "reason": str(exc)}
            continue
        entry["params"][pid] = {
            "defined": True,
            "value": res.value,
            "optimal_sets": len(res.sets),
            "excellent": is_excellent(g, par, result=res),
        }
    return entry


def _family_one(item: tuple[int, Graph], pid: str) -> dict:
    index, g = item
    entry = _identity(index, g)
    par = Param.from_id(pid)
    try:
        fam = excellent_family(g, par)
    except ParameterUndefinedError as exc:
        entry.update({"param": pid, "defined": False, "reason": str(exc)})
        return entry
    entry.update(
        {
            "param": pid,
            "defined": True,
            "value": fam.value,
            "excellent": fam.excellent,
            "members": [
                {"name": name, "graph6": key.graph6()}
                for name, key in zip(family_names(fam), fam.members)
            ],
        }
    )
    return entry


def _guarded(worker, item: tuple[int, int, Graph]) -> dict:
    """Run a per-graph worker; an unsupported request becomes the graph's error entry."""
    index, lineno, g = item
    try:
        return worker((index, g))
    except ValueError as exc:
        return {"index": index, "line": lineno, "error": str(exc)}


def _graph_report(args, worker, text_line) -> int:
    """Run worker on every input graph, print the report, return the exit code.

    The worker receives (index, graph) with the graph _read_source parsed.
    Unparsable lines and unsupported requests become per-graph error
    entries, and exit 2; the other graphs are still reported. text_line
    formats one graph's entry for --output text.
    """
    try:
        kind, parsed = _read_source(args.input)
    except (OSError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results: list = [None] * len(parsed)
    pending = []
    for pos, (lineno, item) in enumerate(parsed):
        if isinstance(item, Graph):
            pending.append((pos, lineno, item))
        else:
            results[pos] = {"index": pos, "line": lineno, "error": str(item)}
    # convert takes no --jobs and runs serially
    for entry in _pmap(partial(_guarded, worker), pending, getattr(args, "jobs", 1)):
        results[entry["index"]] = entry

    def lines(p):
        for r in p["results"]:
            if "error" in r:
                yield f"{r['index']}: line {r['line']}: error: {r['error']}"
            else:
                yield text_line(r)

    meta = {"source": kind, "graphs": len(parsed)}
    _emit({"tool_version": __version__, "input": meta, "results": results}, args.output, lines)
    return 2 if any("error" in r for r in results) else 0


def cmd_analyze(args) -> int:
    try:
        params = _param_list(args.param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worker = partial(_analyze_one, param_ids=tuple(p.id for p in params))

    def text_line(r):
        parts = []
        for pid, info in r["params"].items():
            if not info["defined"]:
                parts.append(f"{pid}=undefined")
                continue
            flag = "excellent" if info["excellent"] else "not excellent"
            parts.append(f"{pid}={info['value']} ({info['optimal_sets']} sets, {flag})")
        return f"{r['index']}: {r['graph6']} n={r['order']} m={r['size']} " + "; ".join(parts)

    return _graph_report(args, worker, text_line)


def cmd_family(args) -> int:
    if args.param not in PARAM_IDS:
        print(f"error: unknown parameter id {args.param!r}", file=sys.stderr)
        return 2
    worker = partial(_family_one, pid=args.param)

    def text_line(r):
        if not r["defined"]:
            return f"{r['index']}: {r['graph6']} {r['param']} undefined"
        if not r["excellent"]:
            return f"{r['index']}: {r['graph6']} {r['param']}={r['value']} not excellent"
        names = ", ".join(m["name"] for m in r["members"])
        return f"{r['index']}: {r['graph6']} {r['param']}={r['value']} members: {names}"

    return _graph_report(args, worker, text_line)


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, jobs=args.jobs, timings=args.timings)
    results = [r.to_json() for r in reports]
    counts = {"pass": 0, "fail": 0, "skipped-long-running": 0}
    for r in reports:
        counts[r.status] += 1
    payload = {
        "tool_version": __version__,
        "input": {"suite": args.suite, "long": args.suite == "long"},
        "summary": counts,
        "results": results,
    }

    def lines(p):
        for r in p["results"]:
            yield f"{r['status']:20} {r['claim_id']}: {r['anchor']}"
            if r["status"] == "fail":
                yield f"{'':20}   expected: {json.dumps(r['expected'], sort_keys=True)}"
                yield f"{'':20}   computed: {json.dumps(r['computed'], sort_keys=True)}"
        s = p["summary"]
        yield (
            f"{s['pass']} passed, {s['fail']} failed, "
            f"{s['skipped-long-running']} skipped (long)"
        )

    _emit(payload, args.output, lines)
    return 1 if counts["fail"] else 0


def cmd_gen(args) -> int:
    if args.kind != "regular" and args.k is not None:
        print(f"error: gen {args.kind} takes only N", file=sys.stderr)
        return 2
    try:
        if args.kind == "trees":
            graphs = enumerate_trees(args.n)
        elif args.kind == "all":
            graphs = generate_all_graphs(args.n, connected_only=args.connected).graphs
        else:
            if args.k is None:
                print("error: gen regular needs N and K", file=sys.stderr)
                return 2
            graphs = generate_regular(args.n, args.k, connected_only=args.connected).graphs
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_lines(to_graph6(g) for g in graphs)
    return 0


def _load_search_catalog(args):
    if args.catalog is not None:
        return load_catalog(args.catalog)
    if args.gen is not None:
        kind, *fields = args.gen.split(":")
        try:
            nums = [int(f) for f in fields]
        except ValueError:
            nums = []
        if kind == "all" and len(nums) == 1:
            return generate_all_graphs(*nums, connected_only=args.connected)
        if kind == "regular" and len(nums) == 2:
            return generate_regular(*nums, connected_only=args.connected)
        raise ValueError(f"bad gen spec {args.gen!r}; use all:N or regular:N:K")
    raise ValueError("search needs --catalog PATH or --gen SPEC")


def cmd_search(args) -> int:
    try:
        cat = _load_search_catalog(args)
        values = {}
        for clause in args.where or []:
            pid, _, raw = clause.partition("=")
            try:
                values[pid] = int(raw)
            except ValueError:
                raise ValueError(f"bad --where clause {clause!r}; use PARAM=VALUE") from None
        query = CatalogQuery(
            param_values=values,
            excellent_for=args.excellent,
            pattern=_pattern_graph(args.pattern) if args.pattern else None,
            pattern_param=args.pattern_param,
            connected=True if args.connected else None,
            include_family=args.include_family,
        )
        matches = search(cat, query)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = []
    for m in matches:
        entry = _identity(m.index, m.graph)
        entry["values"] = m.values
        if m.family is not None:
            entry["family"] = {
                "excellent": m.family.excellent,
                "members": family_names(m.family),
            }
        results.append(entry)
    payload = {
        "tool_version": __version__,
        "input": {"source": args.catalog or args.gen, "size": len(cat)},
        "results": results,
    }

    def lines(p):
        for r in p["results"]:
            vals = " ".join(f"{k}={v}" for k, v in sorted(r["values"].items()))
            tail = ""
            if "family" in r:
                tail = " members: " + ", ".join(r["family"]["members"])
            yield f"{r['index']}: {r['graph6']} {vals}{tail}"
        yield f"{len(p['results'])} of {p['input']['size']} matched"

    _emit(payload, args.output, lines)
    return 0


def _convert_one(item: tuple[int, Graph], to: str) -> dict:
    index, g = item
    entry = _identity(index, g)
    if to == "edges":
        entry["order"] = g.n
        entry["edges"] = [list(e) for e in g.edges()]
    return entry


def cmd_convert(args) -> int:
    def text_line(r):
        if args.to == "canonical":
            return r["canonical_graph6"] or r["graph6"]
        if args.to == "edges":
            return json.dumps({"order": r["order"], "edges": r["edges"]})
        return r["graph6"]

    return _graph_report(args, partial(_convert_one, to=args.to), text_line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domexc", description="domination excellence analysis for small graphs"
    )
    parser.add_argument("--version", action="version", version=f"domexc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--jobs", default=None, help="worker count (env DOMEXC_JOBS)")

    p = sub.add_parser("analyze", help="parameter values, set counts, excellence flags")
    p.add_argument("input", help="graph6 file, - for stdin, or inline graph6")
    p.add_argument("--param", default="gamma", help="comma separated parameter ids, or all")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("family", help="excellent family members per graph")
    p.add_argument("input", help="graph6 file, - for stdin, or inline graph6")
    p.add_argument("--param", default="gamma")
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run the recorded claim suite")
    p.add_argument("--suite", choices=("quick", "paper", "long"), default="paper")
    p.add_argument("--timings", action="store_true", help="fill runtime fields")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a catalog as graph6 lines")
    p.add_argument("kind", choices=("trees", "all", "regular"))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="filter a catalog by values, excellence, patterns")
    p.add_argument("--catalog", default=None, help="graph6 catalog file")
    p.add_argument("--gen", default=None, help="all:N or regular:N:K")
    p.add_argument("--where", action="append", default=None, metavar="PARAM=VALUE")
    p.add_argument("--excellent", default=None, metavar="PARAM")
    p.add_argument("--pattern", default=None, help="K3, E2, P4, C5 or graph6")
    p.add_argument("--pattern-param", default="gamma")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--include-family", action="store_true")
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("convert", help="normalize graph6, canonical forms, edge lists")
    p.add_argument("input", help="graph6 file, - for stdin, or inline graph6")
    p.add_argument("--to", choices=("graph6", "canonical", "edges"), default="graph6")
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "jobs" in vars(args):
        try:
            args.jobs = _jobs(args.jobs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
