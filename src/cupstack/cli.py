"""Command line frontend.

Exit codes: 0 = yes/accept, 1 = no/reject, 2 = usage or I/O error,
3 = inconclusive (search budget exhausted), 4 = internal error (a fault
in cupstack itself; the traceback goes to stderr).

`decide` and `plan` (on a graph file, or a family without a planner)
answer through `cupstack.decide`; `oracle` forces the exhaustive search
on any start.  Those handlers alone, each before it reads the graph,
take the search budget from `_budget`: `--budget`, else the checked
CUPSTACK_ORACLE_BUDGET, else None for the oracle's own default.  Only
`graphs` loads with this module; each handler, and `decide`, imports the
other layers it calls, so a process loads only its command's layers:
`oracle` only for `oracle` and for a decision on a target of
eccentricity 3 or more, `cube` only for `cube` and `plan --family cube`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import decide, graphs

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _budget(args) -> Optional[int]:
    """--budget, else the checked budget variable, else None."""
    name = "CUPSTACK_ORACLE_BUDGET"
    text = os.environ.get(name)
    if args.budget is not None or text is None:
        return args.budget
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{name} {exc}") from None


def _emit(data: dict, pretty: bool) -> None:
    # json.dumps encodes in one shot, with the C encoder when not indenting.
    sys.stdout.write(json.dumps(data, indent=2 if pretty else None,
                                sort_keys=True) + "\n")


def _load_graph(args) -> graphs.Graph:
    if args.graph is None:
        raise ValueError(f"{args.cmd} needs a -g graph file")
    with open(args.graph, "r", encoding="utf-8") as fh:
        return graphs.parse_graph(fh.read())


def _load_plan(path: str) -> graphs.Plan:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return graphs.Plan.from_json_dict(data)


def _graph_to_dot(g: graphs.Graph) -> str:
    lines = ["graph G {"]
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    from . import families
    g = families.family(args.family, args.params).generate(*args.params)
    text = graphs.format_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if g.labels is not None:
            side = args.output + ".labels.json"
            with open(side, "w", encoding="utf-8") as fh:
                json.dump([list(l) if isinstance(l, tuple) else l
                           for l in g.labels], fh)
    else:
        sys.stdout.write(text)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_graph_to_dot(g))
    if args.output:
        _emit({"family": args.family, "params": list(args.params),
               "n": g.n, "edges": len(g.edges())}, args.pretty)
    return EXIT_YES


def _exit_code(stackable) -> int:
    if stackable is None:
        return EXIT_INCONCLUSIVE
    return EXIT_YES if stackable else EXIT_NO


def _cmd_decide(args) -> int:
    budget = _budget(args)
    d = decide(_load_graph(args), args.target, budget)
    out = {"target": d.target, "method": d.method, "stackable": d.stackable}
    if d.certificate is not None:
        out["barrier"] = list(d.certificate)
    if d.stackable is None:
        out["inconclusive"] = "budget exhausted"
    _emit(out, args.pretty)
    return _exit_code(d.stackable)


def _cmd_plan(args) -> int:
    """A family with a planner uses it (target 0 unless -r says
    otherwise); any other family is generated and planned like a graph
    file."""
    # A family reads the budget below, and only when it searches.
    budget = None if args.family else _budget(args)
    if (args.graph is None) == (args.family is None):
        raise ValueError("plan needs exactly one of -g and --family")
    r = args.target
    g = None
    if args.family is not None:
        from . import families
        fam = families.family(args.family, args.params)
        r = 0 if r is None else r
        if fam.plan is None:
            budget = _budget(args)
            g = fam.generate(*args.params)
        else:
            plan = fam.plan(args.params, r)
            if plan is None:
                _emit({"family": args.family, "params": list(args.params),
                       "plan": None, "complete": False}, args.pretty)
                return EXIT_NO
    else:
        g = _load_graph(args)
    if g is not None:
        if r is None:
            raise ValueError("plan needs a -r target")
        d = decide(g, r, budget)
        plan = d.plan
        if d.stackable is None:
            _emit({"target": r, "plan": None,
                   "inconclusive": "budget exhausted"}, args.pretty)
            return EXIT_INCONCLUSIVE
    if plan is None:
        _emit({"target": r, "plan": None, "stackable": False}, args.pretty)
        return EXIT_NO
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json())
        _emit({"target": plan.target, "moves": len(plan.flat) // 2,
               "output": args.output}, args.pretty)
    else:
        _emit(plan.to_json_dict(), args.pretty)
    return EXIT_YES


def _cmd_verify(args) -> int:
    if (args.graph is None) == (args.cube is None):
        raise ValueError("verify needs exactly one of -g and --cube")
    plan = _load_plan(args.plan)
    if args.cube is not None:
        board = graphs.CubeBoard(args.cube)
    else:
        board = _load_graph(args)
    res = graphs.verify_plan(board, plan)
    out = {"accepted": bool(res)}
    if not res:
        out["step"] = res.step
        out["reason"] = res.reason
    _emit(out, args.pretty)
    return EXIT_YES if res else EXIT_NO


def _cmd_oracle(args) -> int:
    budget = _budget(args)
    g = _load_graph(args)
    r = args.target
    initial = graphs.Configuration.all_ones(g.n)
    if args.config is not None:
        fields = [f.strip() for f in args.config.split(",")]
        for i, field in enumerate(fields):
            if not graphs._is_ascii_int(field):
                raise ValueError(f"--config field {i + 1} is not a count: {field!r}")
        initial = graphs.Configuration(tuple(map(int, fields)))
    from . import oracle
    res = oracle.oracle_search(g, initial, r, budget)
    out = {"target": r, "states": res.states, "pruned": res.pruned,
           "rejected_by": res.rejected_by, "stackable": res.decision}
    if res.inconclusive:
        out["inconclusive"] = "budget exhausted"
    elif res.decision and args.plan:
        out["moves"] = res.plan.to_json_dict()["moves"]
    _emit(out, args.pretty)
    return _exit_code(res.decision)


def _mask_to_sorted(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _cmd_cube(args) -> int:
    from . import cube
    res = cube.plan_cube(args.d)
    out = {"d": args.d, "moves": len(res.plan.flat) // 2,
           "complete": res.complete, "phases": res.phase_moves,
           "unassigned_labels": [_mask_to_sorted(m) for m in res.unassigned]}
    if args.verify:
        ver = graphs.verify_plan(graphs.CubeBoard(args.d), res.plan)
        out["verified"] = bool(ver)
        if not ver:
            out["reason"] = ver.reason
    # Only a plan the command stands behind reaches a file.
    ok = res.complete and out.get("verified", True)
    if args.output and ok:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(res.plan.to_json())
        out["output"] = args.output
    _emit(out, args.pretty)
    return EXIT_YES if ok else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cupstack",
                                 description="cup stacking game toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, graph=True):
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON output")
        if graph:
            p.add_argument("-g", "--graph", help="graph file")

    def budget_arg(p):
        p.add_argument("--budget", type=_positive_int,
                       help="oracle state budget")

    p = sub.add_parser("gen", help="generate a family graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", help="graph file to write")
    p.add_argument("--dot", help="also write a DOT rendering")
    common(p, graph=False)

    p = sub.add_parser("decide", help="decide stackability of a target")
    common(p)
    p.add_argument("-r", "--target", type=int, required=True)
    budget_arg(p)

    p = sub.add_parser("plan", help="produce a stacking plan")
    common(p)
    p.add_argument("-r", "--target", type=int)
    p.add_argument("--family", help="plan a family graph instead of a file")
    p.add_argument("--params", nargs="*", type=int, default=[])
    budget_arg(p)
    p.add_argument("-o", "--output", help="plan JSON file to write")

    p = sub.add_parser("verify", help="verify a plan file")
    common(p)
    p.add_argument("-p", "--plan", required=True)
    p.add_argument("--cube", type=int,
                   help="verify against a hypercube of this dimension")

    p = sub.add_parser("oracle", help="exhaustive search decision")
    common(p)
    p.add_argument("-r", "--target", type=int, required=True)
    budget_arg(p)
    p.add_argument("--config", help="comma-separated initial cup counts")
    p.add_argument("--plan", action="store_true", help="include the moves")

    p = sub.add_parser("cube", help="hypercube stacking plan")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("-o", "--output", help="plan JSON file to write")
    common(p, graph=False)

    return ap


_HANDLERS = {
    "gen": _cmd_gen, "decide": _cmd_decide, "plan": _cmd_plan,
    "verify": _cmd_verify, "oracle": _cmd_oracle, "cube": _cmd_cube,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.cmd](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
