#!/usr/bin/env python3
"""Benchmark of cupstack, end to end and layer by layer.

    python3 benchmark/run.py --workload small-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` (nothing needs to be installed), and every `cupstack` child gets
`src/` on its PYTHONPATH.  Workloads: small-sweep, cli-files, cube-plans
(see README.md).  Load is closed loop from this one process: one request
at a time, at most one child alive.

--trace 0 runs whole rounds of requests until --seconds have passed and
prints the end-to-end metrics.  --trace 1 runs one untraced round, then
one round with spans recorded around every call into the program's
modules, and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and traces are written under benchmark/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from selftest import selftest
from spans import Tracer
from workloads import ORACLE_BUDGET, WORKLOADS, child_env, clear_caches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
IMPORT_PROBES = 3
TAIL_LADDER = (90, 99, 99.9, 99.99)
CUBE_PHASES = ("high-4cubes", "chain-triples", "level4-3cubes", "base-3cubes")

COUNTERS = {
    "graphs.parse_graph": lambda a, g: {"edges": sum(map(len, g.adj)) // 2},
    "graphs.verify_plan": lambda a, res: {"moves": len(a[1].moves)},
    "oracle.oracle_search": lambda a, res: {"states": res.states},
    "cube.plan_cube": lambda a, res: {
        "moves": len(res.plan.moves), "unassigned": len(res.unassigned),
        **{"phase." + k: v for k, v in res.phase_moves.items()}},
}


def load_cupstack() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cupstack
    from cupstack import cli, cube, ecc2, families, graphs, matching, oracle
    if Path(cupstack.__file__).resolve().parent != src / "cupstack":
        raise RuntimeError(f"cupstack imported from {cupstack.__file__}, not {src}")
    return SimpleNamespace(root=str(ROOT), cli=cli, graphs=graphs, oracle=oracle,
                           matching=matching, ecc2=ecc2, families=families, cube=cube,
                           modules=(cli, graphs, oracle, matching, ecc2, families, cube))


def build(workload: str, seed: int, workdir: Path):
    """The set-up that setup_s times: import cupstack, build the inputs."""
    cs = load_cupstack()
    return cs, WORKLOADS[workload](cs, random.Random(f"{seed}:inputs"), str(workdir))


def timed_child(argv, timeout=170) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=child_env(str(ROOT)), cwd=str(ROOT), timeout=timeout)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stdout


def setup_samples(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only set up, start to exit."""
    samples = []
    for i in range(SETUP_PROBES):
        workdir = OUT / "work" / f"probe-{os.getpid()}-{i}"
        try:
            wall, _ = timed_child([sys.executable, str(HERE / "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--setup-only", str(workdir)])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        samples.append(wall)
    return samples


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import cupstack; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(timed_child([sys.executable, "-c", code])[1])
                             for _ in range(IMPORT_PROBES))


def run_round(wl, order, execute, spool, round_no: int, tracer=None) -> float:
    """One round in the given order.  Records are pickled to `spool`, so
    the memory the run holds does not grow with the requests made.
    Returns the round's wall time without the time spent copying outputs
    for the checks and collecting garbage between requests."""
    capture = 0.0
    start = perf_counter()
    for req in order:
        if wl.in_process:
            # Start every request with empty collector generations, so
            # that the garbage earlier requests left is not collected at a
            # point that depends on the request order.
            t = perf_counter()
            gc.collect()
            capture += perf_counter() - t
        if tracer is None:
            rec = execute(req)
        else:
            tracer.request = req
            rec = tracer.call("bench.request", execute, req)
        t = perf_counter()
        rec["round"] = round_no
        pickle.dump(rec, spool, pickle.HIGHEST_PROTOCOL)
        capture += rec["capture_s"] + perf_counter() - t
        del rec
    return perf_counter() - start - capture


def load_records(path) -> list[dict]:
    records = []
    with open(path, "rb") as fh:
        while True:
            try:
                records.append(pickle.load(fh))
            except EOFError:
                return records


def evaluate(wl, records):
    """(failed, refuted): requests that failed or whose output a check refutes."""
    refuted = wl.check(records)
    failed = {id(rec) for rec in records if rec["fail"] is not None}
    failed |= {id(rec) for rec, _ in refuted}
    return len(failed), refuted


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_latency(records, per_round: int) -> tuple[float, float]:
    """(percentile, ms): the highest percentile with at least ten requests
    of one round beyond it.  A round under forty requests has no such
    tail; there the median over rounds of each round's slowest request
    is reported, as percentile 100."""
    ok = [p for p in TAIL_LADDER if (1 - p / 100) * per_round >= 10]
    if per_round >= 40 and ok:
        p = max(ok)
        return p, nearest_rank([rec["latency"] * 1000 for rec in records], p)
    worst = {}
    for rec in records:
        worst[rec["round"]] = max(worst.get(rec["round"], 0.0), rec["latency"] * 1000)
    return 100, statistics.median(worst.values())


# ------------------------------------------------------------------ the runs

def end_to_end(args, cs, wl, rng, notes, spool_path):
    wall, rounds = 0.0, 0
    start = perf_counter()
    with open(spool_path, "wb") as spool:
        while True:
            wall += run_round(wl, wl.round(rng), wl.execute, spool, rounds)
            rounds += 1
            if perf_counter() - start >= args.seconds:
                break
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    records = load_records(spool_path)
    failed, refuted = evaluate(wl, records)
    samples = setup_samples(args.workload, args.seed)
    latencies = [rec["latency"] * 1000 for rec in records]
    p, tail_ms = tail_latency(records, len(wl.requests))
    moves = wl.moves_accepted(records, {id(rec) for rec, _ in refuted})
    notes.update(rounds=rounds, timed_wall_s=wall, setup_samples_s=samples,
                 tail_percentile=p, tail_samples=len(latencies),
                 moves_accepted=moves)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "requests_per_s": (len(records) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "moves_per_s": (moves / wall, "moves/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return records, failed, refuted, metrics


def traced(cs, wl, rng, notes, spool_path, trace_path):
    order = wl.round(rng)
    import_s = import_seconds()
    extra = {}
    with open(spool_path, "wb") as spool:
        if wl.in_process:
            execute = wl.execute
        else:
            # Child processes first, for process wall times; then the same
            # requests replayed in this process through cli.main.
            run_round(wl, order, wl.execute, spool, -1)
            os.environ["CUPSTACK_ORACLE_BUDGET"] = str(ORACLE_BUDGET)
            replay_dir = os.path.join(wl.workdir, "replay")
            os.makedirs(replay_dir, exist_ok=True)
            execute = lambda req: wl.execute(req, out_dir=replay_dir)
        # Both rounds start with the program's memo tables empty, so they
        # do the same work.
        clear_caches(cs.modules)
        plain_wall = run_round(wl, order, execute, spool, 0)
        clear_caches(cs.modules)
        tracer = Tracer(COUNTERS)
        tracer.install(cs.modules, [(cs.graphs.Graph, "distances"),
                                    (cs.graphs.Graph, "bfs_from")])
        try:
            traced_wall = run_round(wl, order, execute, spool, 1, tracer)
        finally:
            tracer.uninstall()
    records = load_records(spool_path)
    if not wl.in_process:
        lib = sum(sp[2] - sp[1] for sp in tracer.spans
                  if sp[3] >= 0 and tracer.spans[sp[3]][0] == "cli.main")
        extra["cli_self_s"] = sum(rec["latency"] for rec in records
                                  if rec["round"] == -1) - lib
    deep = [rec for rec in records if rec["round"] == 1 and wl.is_deep(rec["req"])]
    if deep:
        biggest = max(deep, key=lambda rec: rec["states"])
        extra["bytes_per_state"] = traced_peak(
            lambda: wl.execute(biggest["req"])) / biggest["states"]
    if wl.name == "cube-plans":
        clear_caches(cs.modules)
        extra["cube_peak_mb"] = traced_peak(lambda: cs.cube.plan_cube(20)) / 2**20
    failed, refuted = evaluate(wl, records)
    tracer.write(trace_path)
    summary = trace_path.with_suffix(".summary.json")
    summary.write_text(json.dumps(tracer.self_times(), indent=1) + "\n")
    notes.update(plain_wall_s=plain_wall, traced_wall_s=traced_wall,
                 trace_file=str(trace_path.relative_to(ROOT)),
                 span_summary=str(summary.relative_to(ROOT)))
    extra["import_s"] = import_s
    extra["overhead_pct"] = 100 * (traced_wall - plain_wall) / plain_wall
    return records, failed, refuted, layer_metrics(tracer, wl, extra)


def traced_peak(fn) -> int:
    """Peak bytes allocated by fn, from tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layer_metrics(tr: Tracer, wl, extra: dict) -> dict:
    def deep(sp):
        return sp[4] >= 0 and wl.is_deep(sp[4])

    def atlas(sp):
        return not deep(sp)

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    m = {}
    m["cli.import_s"] = (extra["import_s"], "s")
    m["cli.self_s"] = (extra.get("cli_self_s", 0.0), "s")
    parse = tr.outermost({"graphs.parse_graph"})
    parse_s = tr.covered({"graphs.parse_graph"})
    m["graphs.parse_s"] = (parse_s, "s")
    m["graphs.parse_edges_per_s"] = (
        rate(tr.count(parse, "edges"), parse_s), "edges/s")
    m["graphs.distances_s"] = (
        tr.covered({"graphs.Graph.distances", "graphs.Graph.bfs_from"}), "s")
    verify = tr.outermost({"graphs.verify_plan"})
    verify_s = tr.covered({"graphs.verify_plan"})
    m["graphs.verify_s"] = (verify_s, "s")
    m["graphs.verify_moves_per_s"] = (
        rate(tr.count(verify, "moves"), verify_s), "moves/s")
    oracle_names = tr.names("oracle.")
    atlas_states = tr.count(tr.named("oracle.oracle_search", atlas), "states")
    deep_states = tr.count(tr.named("oracle.oracle_search", deep), "states")
    atlas_s = tr.covered(oracle_names, atlas)
    deep_s = tr.covered(oracle_names, deep)
    m["oracle.atlas_calls"] = (len(tr.named("oracle.oracle_search", atlas)), "count")
    m["oracle.atlas_states"] = (atlas_states, "count")
    m["oracle.atlas_search_s"] = (atlas_s, "s")
    m["oracle.deep_states"] = (deep_states, "count")
    m["oracle.deep_search_s"] = (deep_s, "s")
    m["oracle.states_per_s"] = (rate(atlas_states + deep_states, atlas_s + deep_s),
                                "states/s")
    m["oracle.bytes_per_state"] = (extra.get("bytes_per_state", 0.0), "B")
    m["matching.blossom_calls"] = (len(tr.named("matching.max_matching")), "count")
    m["matching.blossom_s"] = (tr.covered({"matching.max_matching"}), "s")
    m["matching.gallai_edmonds_s"] = (tr.covered({"matching.gallai_edmonds"}), "s")
    m["matching.assignment_calls"] = (len(tr.named("matching.hungarian_max_weight")),
                                      "count")
    m["matching.assignment_s"] = (tr.covered({"matching.hungarian_max_weight"}), "s")
    m["ecc2.decide_s"] = (tr.covered({"ecc2.ecc2_decide", "ecc2.diam2_decide"}), "s")
    m["ecc2.plan_s"] = (tr.covered({"ecc2.plan_from_matching"}), "s")
    m["families.plan_s"] = (tr.covered(tr.names("families.plan_")), "s")
    m["cube.plan_s"] = (tr.covered({"cube.plan_cube"}), "s")
    plans = tr.named("cube.plan_cube")
    m["cube.moves"] = (tr.count(plans, "moves"), "count")
    m["cube.unassigned_labels"] = (tr.count(plans, "unassigned"), "count")
    for phase in CUBE_PHASES:
        m[f"cube.phase_moves.{phase}"] = (tr.count(plans, "phase." + phase), "count")
    m["cube.plan_peak_mb"] = (extra.get("cube_peak_mb", 0.0), "MB")
    m["trace.overhead_pct"] = (extra["overhead_pct"], "%")
    m["trace.spans"] = (len(tr.spans), "count")
    return m


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="WORKDIR",
                    help="set up in WORKDIR and exit (times setup_s)")
    args = ap.parse_args(argv)

    if args.setup_only:
        build(args.workload, args.seed, Path(args.setup_only))
        return 0

    t0 = perf_counter()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spool_path = workdir / "records.pickle"
    try:
        cs, wl = build(args.workload, args.seed, workdir)
        notes = {"in_process_setup_s": perf_counter() - t0}
        # Set-up objects go to the permanent generation: the collector
        # neither scans them during requests nor between them.
        gc.freeze()
        rng = random.Random(f"{args.seed}:order")
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            trace_path = OUT / "traces" / f"{tag}.spans.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            records, failed, refuted, metrics = traced(cs, wl, rng, notes,
                                                       spool_path, trace_path)
        else:
            records, failed, refuted, metrics = end_to_end(args, cs, wl, rng, notes,
                                                           spool_path)
        notes["checked"] = dict(wl.tally)
        problems = selftest(wl, records, lambda recs: evaluate(wl, recs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = 0
    for rec in records:
        if rec["fail"] is not None and shown < 20:
            print(f"failed: {wl.label(rec['req'])}: {rec['fail']}")
            shown += 1
    for rec, reason in refuted[:20]:
        print(f"WRONG: {wl.label(rec['req'])}: {reason}")
    for problem in problems:
        print(f"SELF-TEST: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted {len(records)}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit}")
    for key, value in notes.items():
        print(f"  # {key}: {value}")
    result = {"correct": not refuted and not problems, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({**result, "notes": notes}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
