"""The three workloads: inputs, one request each, and the checks.

A workload is built once per process (its set-up), then asked for rounds
of requests.  `execute` runs one request against the program and returns
a record; the latency it reports covers only the calls into the program,
and `capture_s` is the time spent afterwards copying outputs for the
checks, which the timed phase leaves out.  `check` runs after the timed
phase and returns the records whose output an independent check refutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter

import checks
import inputs
from selftest import spoil_last_move

# State budget for every oracle call: 6x the largest search in any
# workload (grid 4x3 at r = 0, 320,017 states), far below the program's
# default of 10**7 states (about 2 GB).
ORACLE_BUDGET = 2_000_000
CHILD_TIMEOUT_S = 60


def child_env(root: str, **extra) -> dict:
    """This process's environment with `<root>/src` first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def clear_caches(modules):
    """Empty the program's memo tables, as in a fresh `cupstack` process."""
    for mod in modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


# ------------------------------------------------------------------ small-sweep

class SmallSweep:
    """Every target of every connected graph with <= 7 vertices, plus three
    deep searches whose answers the paper gives."""

    name = "small-sweep"
    in_process = True

    def __init__(self, cs, rng, workdir):
        self.cs = cs
        self.graphs = inputs.atlas()
        self.deep_from = len(self.graphs)
        # (name, graph, target, closed-form verdict)
        self.deep = [("grid4x3", inputs.grid(4, 3), 0, True),
                     ("C11", inputs.cycle(11), 0, True),
                     ("K7,3", inputs.multipartite([7, 3]), 0,
                      checks.multipartite_stackable([7, 3], 0))]
        self.graphs += [g for _, g, _, _ in self.deep]
        self.texts = [g.text() for g in self.graphs]
        self.ecc = [[max(row) for row in (g.bfs(v) for v in range(g.n))]
                    for g in self.graphs]
        self.requests = [(gi, r) for gi in range(self.deep_from)
                         for r in range(self.graphs[gi].n)]
        self.requests += [(self.deep_from + i, d[2]) for i, d in enumerate(self.deep)]

    def is_deep(self, req: int) -> bool:
        return self.requests[req][0] >= self.deep_from

    def spoiled(self, rec):
        if not rec["plans"] or not rec["plans"][0]:
            return None
        spoil_last_move(rec["plans"][0], self.graphs[self.requests[rec["req"]][0]].n)
        return rec

    def flipped(self, rec):
        rec["verdict"] = not rec["verdict"]
        if rec["ecc2"] is not None:
            rec["ecc2"] = rec["verdict"]
        if not rec["verdict"]:
            rec["plans"] = []
        return rec

    def label(self, req: int) -> str:
        gi, r = self.requests[req]
        if gi >= self.deep_from:
            return f"deep {self.deep[gi - self.deep_from][0]} r={r}"
        return f"atlas graph {gi} r={r}"

    def round(self, rng) -> list[int]:
        order = list(range(len(self.requests)))
        rng.shuffle(order)
        return order

    def execute(self, req: int) -> dict:
        cs = self.cs
        gi, r = self.requests[req]
        ecc = self.ecc[gi][r]
        fail = None
        t0 = perf_counter()
        g = cs.graphs.parse_graph(self.texts[gi])
        res = cs.oracle.oracle_search(g, cs.graphs.Configuration.all_ones(g.n),
                                      r, ORACLE_BUDGET)
        if res.inconclusive:
            fail = f"oracle budget of {ORACLE_BUDGET} states exhausted"
        elif res.decision:
            ver = cs.graphs.verify_plan(g, res.plan)
            if not ver:
                fail = f"oracle plan rejected: {ver.reason}"
        w = plan2 = None
        if ecc == 2:
            w = cs.ecc2.ecc2_decide(g, r)
            if w.decision:
                plan2 = cs.ecc2.plan_from_matching(g, r, w.matching)
                ver = cs.graphs.verify_plan(g, plan2)
                if not ver and fail is None:
                    fail = f"ecc2 plan rejected: {ver.reason}"
            if res.decision is not None and w.decision != res.decision and fail is None:
                fail = "oracle and ecc2_decide disagree"
        t1 = perf_counter()
        rec = {"req": req, "latency": t1 - t0, "fail": fail,
               "verdict": res.decision, "states": res.states,
               "ecc2": None if w is None else w.decision, "plans": []}
        for plan in (res.plan, plan2):
            if plan is not None:
                rec["plans"].append([x for m in plan.moves for x in (m.src, m.dst)])
        rec["capture_s"] = perf_counter() - t1
        return rec

    def check(self, records) -> list[tuple[dict, str]]:
        bad = []
        families, criterion, reference, dists = {}, {}, {}, {}
        self.tally = Counter()
        for rec in records:
            if rec["fail"] is not None:
                continue
            gi, r = self.requests[rec["req"]]
            g = self.graphs[gi]
            ecc = self.ecc[gi][r]
            verdict = rec["verdict"]
            reason = None
            if gi not in dists:
                dists[gi] = checks.bfs_dist(g)
            for moves in rec["plans"]:
                why = checks.replay(g.n, r, moves, dists[gi])
                self.tally["plans replayed"] += 1
                if why is not None:
                    reason = f"plan fails the benchmark's replay: {why}"
            if gi >= self.deep_from:
                expected = self.deep[gi - self.deep_from][3]
            else:
                if gi not in families:
                    families[gi] = checks.family_verdicts(g)
                expected = families[gi].get(r)
            self.tally["closed-form verdicts"] += expected is not None
            if expected is not None and verdict != expected:
                reason = f"verdict {verdict} contradicts the closed form {expected}"
            if ecc <= 1 and verdict is not True:
                reason = "dominating target not answered YES"
            if ecc == 2:
                key = (gi, r)
                if key not in criterion:
                    criterion[key] = checks.saturating_matching_exists(g, r)
                self.tally["ecc-2 verdicts against the matching criterion"] += 1
                if verdict != criterion[key] or rec["ecc2"] != criterion[key]:
                    reason = (f"verdicts oracle={verdict} ecc2={rec['ecc2']} but the "
                              f"matching criterion says {criterion[key]}")
            if ecc >= 3 and verdict is False:
                key = (gi, r)
                if key not in reference:
                    reference[key] = checks.reference_stackable(g, r)
                self.tally["NO verdicts at eccentricity >= 3 searched again"] += 1
                if reference[key]:
                    reason = "the reference search stacks a target answered NO"
            if verdict and not rec["plans"]:
                reason = "YES without a plan"
            if reason is not None:
                bad.append((rec, reason))
        return bad

    def moves_accepted(self, records, refuted) -> int:
        return sum(len(p) // 2 for rec in records
                   if rec["fail"] is None and id(rec) not in refuted
                   for p in rec["plans"])


# ------------------------------------------------------------------ cube-plans

class CubePlans:
    """plan_cube(d) and its replay by the program's verifier, d = 10..20."""

    name = "cube-plans"
    in_process = True
    dims = tuple(range(10, 21))

    def __init__(self, cs, rng, workdir):
        self.cs = cs
        self.requests = list(self.dims)

    def is_deep(self, req: int) -> bool:
        return False

    def label(self, req: int) -> str:
        return f"cube d={self.requests[req]}"

    def spoiled(self, rec):
        spoil_last_move(rec["moves"], 1 << self.requests[rec["req"]])
        return rec

    def flipped(self, rec):
        rec["accepted"] = not rec["accepted"]
        return rec

    def round(self, rng) -> list[int]:
        # Ascending d in every round, whatever the seed: a request runs
        # faster on the heap a larger plan left behind (plan_cube(15) took
        # 80-98 ms right after plan_cube(20), 107-138 ms otherwise), so a
        # shuffled order would make the median request depend on the seed.
        return list(range(len(self.requests)))

    def execute(self, req: int) -> dict:
        cs = self.cs
        d = self.requests[req]
        t0 = perf_counter()
        res = cs.cube.plan_cube(d)
        ver = cs.graphs.verify_plan(cs.graphs.CubeBoard(d), res.plan)
        t1 = perf_counter()
        fail = None
        if not ver:
            fail = f"verifier: {ver.reason}"
        elif not res.complete:
            fail = "plan marked incomplete"
        moves = array("i")
        for m in res.plan.moves:
            moves.append(m.src)
            moves.append(m.dst)
        rec = {"req": req, "latency": t1 - t0, "fail": fail,
               "accepted": bool(ver), "complete": res.complete,
               "target": res.plan.target, "moves": moves}
        rec["capture_s"] = perf_counter() - t1
        return rec

    def check(self, records) -> list[tuple[dict, str]]:
        bad = []
        self.tally = Counter({"plans replayed": len(records)})
        for rec in records:
            d = self.requests[rec["req"]]
            if rec["target"] != 0:
                why = f"target {rec['target']} is not the zero vertex"
            else:
                why = checks.replay(1 << d, 0, rec["moves"], checks.hamming)
            if (why is None) != rec["accepted"]:
                bad.append((rec, f"program verifier accepted={rec['accepted']} but "
                                 f"the benchmark's replay says {why or 'accepted'}"))
        return bad

    def moves_accepted(self, records, refuted) -> int:
        return sum(len(rec["moves"]) // 2 for rec in records
                   if rec["fail"] is None and id(rec) not in refuted)


# ------------------------------------------------------------------- cli-files

CLI_MAIN = "import sys; from cupstack.cli import main; sys.exit(main())"


class CliFiles:
    """One `cupstack` process per request, over graph files."""

    name = "cli-files"
    in_process = False

    def __init__(self, cs, rng, workdir):
        self.cs = cs
        self.workdir = workdir
        fixtures = os.path.join(cs.root, "fixtures")
        os.makedirs(workdir, exist_ok=True)
        # key -> (graph, file, distance, closed-form verdict at the target used)
        self.graphs = {}

        def add(key, g, closed, path=None, dist=None):
            if path is None:
                path = os.path.join(workdir, key + ".graph")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(g.text())
            self.graphs[key] = (g, path, dist or checks.bfs_dist(g), closed)

        add("kneser10_3", inputs.kneser(10, 3), checks.kneser_stackable(10, 3))
        add("kneser11_4", inputs.kneser(11, 4), checks.kneser_stackable(11, 4))
        add("multipartite20_8_8", inputs.multipartite([20, 8, 8]),
            checks.multipartite_stackable([20, 8, 8], 0))
        add("random", inputs.random_diameter2(rng, 60, 0.4), None)
        add("grid40", inputs.grid(40, 40), True, dist=checks.manhattan(40))
        add("grid60", inputs.grid(60, 60), True, dist=checks.manhattan(60))
        for key, closed in (("petersen", checks.kneser_stackable(5, 2)),
                            ("kneser8_3", checks.kneser_stackable(8, 3)),
                            ("star3", checks.star_leaf_stackable(3)),
                            ("p4", True)):
            path = os.path.join(fixtures, key + ".graph")
            add(key, inputs.read_graph_file(path), closed, path=path)
        p4_plan = os.path.join(fixtures, "p4.plan.json")

        def plan_out(key):
            return os.path.join("{out}", key + ".plan.json")

        # Chains keep their order; the seed shuffles the chains.
        self.chains = []
        for key in ("kneser10_3", "kneser11_4"):
            self.chains.append([("decide", key, 0, None)])
            self.chains.append([("plan", key, 0, plan_out(key)),
                                ("verify", key, None, plan_out(key))])
        for key in ("multipartite20_8_8", "random", "petersen", "kneser8_3"):
            self.chains.append([("decide", key, 0, None)])
        for key, side in (("grid40", 40), ("grid60", 60)):
            self.chains.append([("plan-grid", key, side, plan_out(key)),
                                ("verify", key, None, plan_out(key))])
        self.chains.append([("oracle", "star3", 1, None)])
        self.chains.append([("verify", "p4", None, p4_plan)])
        self.chains.append([("cube", "cube16", 16, plan_out("cube16"))])
        self.requests = [req for chain in self.chains for req in chain]

    def is_deep(self, req: int) -> bool:
        return False

    def label(self, req: int) -> str:
        root = self.cs.root + os.sep
        return "cupstack " + " ".join(a.replace(self.workdir, "<out>").replace(root, "")
                                      for a in self.argv(req, "<out>"))

    def spoiled(self, rec):
        kind, key, arg, _ = self.requests[rec["req"]]
        if not rec["moves"]:
            return None
        n = 1 << arg if kind == "cube" else self.graphs[key][0].n
        spoil_last_move(rec["moves"], n)
        return rec

    def flipped(self, rec):
        if "stackable" not in (rec["out"] or {}):
            return None
        rec["out"]["stackable"] = not rec["out"]["stackable"]
        rec["rc"] = 0 if rec["out"]["stackable"] else 1
        return rec

    def argv(self, req: int, out: str) -> list[str]:
        kind, key, arg, plan = self.requests[req]
        plan = plan.format(out=out) if plan else None
        if kind == "decide":
            return ["decide", "-g", self.graphs[key][1], "-r", str(arg)]
        if kind == "plan":
            return ["plan", "-g", self.graphs[key][1], "-r", str(arg), "-o", plan]
        if kind == "plan-grid":
            return ["plan", "--family", "grid", "--params", str(arg), str(arg),
                    "-r", "0", "-o", plan]
        if kind == "verify":
            return ["verify", "-g", self.graphs[key][1], "-p", plan]
        if kind == "oracle":
            return ["oracle", "-g", self.graphs[key][1], "-r", str(arg)]
        return ["cube", "-d", str(arg), "--verify", "-o", plan]

    def round(self, rng) -> list[int]:
        chains = list(range(len(self.chains)))
        rng.shuffle(chains)
        starts = [0]
        for chain in self.chains:
            starts.append(starts[-1] + len(chain))
        return [starts[c] + i for c in chains for i in range(len(self.chains[c]))]

    def execute(self, req: int, out_dir: str | None = None) -> dict:
        """Run the request as a child process, or in this process through
        cli.main when out_dir names the directory for its plan files."""
        argv = self.argv(req, out_dir or self.workdir)
        t0 = perf_counter()
        if out_dir is None:
            try:
                env = child_env(self.cs.root,
                                CUPSTACK_ORACLE_BUDGET=str(ORACLE_BUDGET))
                proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv],
                                      capture_output=True, text=True, env=env,
                                      cwd=self.workdir,
                                      timeout=CHILD_TIMEOUT_S)
                rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                rc, stdout, stderr = None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        else:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = self.cs.cli.main(argv)
            stdout, stderr = buf.getvalue(), err.getvalue()
        t1 = perf_counter()
        kind = self.requests[req][0]
        rec = {"req": req, "latency": t1 - t0, "fail": None, "rc": rc,
               "out": None, "moves": None}
        if rc not in (0, 1):
            rec["fail"] = f"exit code {rc}: {stderr.strip()[-200:]}"
        else:
            try:
                rec["out"] = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                rec["fail"] = f"unparsable output {stdout[-200:]!r}"
        plan = self.requests[req][3]
        if rec["fail"] is None and plan and (rc == 0 or kind == "verify"):
            plan = plan.format(out=out_dir or self.workdir)
            with open(plan, encoding="utf-8") as fh:
                data = json.load(fh)
            rec["plan_target"] = data["target"]
            rec["plan_initial"] = data.get("initial")
            rec["moves"] = array("i", (x for mv in data["moves"] for x in mv))
        rec["capture_s"] = perf_counter() - t1
        return rec

    def check(self, records) -> list[tuple[dict, str]]:
        bad = []
        criterion = {}
        self.tally = Counter()
        for rec in records:
            if rec["fail"] is not None:
                continue
            kind, key, arg, _ = self.requests[rec["req"]]
            self.tally["plans replayed"] += rec["moves"] is not None
            out, rc = rec["out"], rec["rc"]
            reason = None
            # Every plan that cube and verify see is expected to be accepted.
            if kind == "cube":
                why = ("no plan" if rec["moves"] is None else
                       checks.replay(1 << arg, rec["plan_target"], rec["moves"],
                                     checks.hamming))
                if why is not None or not (out.get("verified") and out.get("complete")):
                    bad.append((rec, f"cube says {out}; the benchmark's replay "
                                     f"says {why or 'accepted'}"))
                continue
            g, _, dist, closed = self.graphs[key]
            if kind == "verify":
                why = ("no plan" if rec["moves"] is None else
                       checks.replay(g.n, rec["plan_target"], rec["moves"], dist,
                                     rec["plan_initial"]))
                if why is not None or out.get("accepted") is not True:
                    bad.append((rec, f"verify says {out}; the benchmark's replay "
                                     f"says {why or 'accepted'}"))
                continue
            r = arg if kind != "plan-grid" else 0
            verdict = out.get("stackable") if kind != "plan" and kind != "plan-grid" \
                else rc == 0
            if (rc == 0) != bool(verdict):
                reason = f"exit code {rc} disagrees with the output {out}"
            if rc == 0 and kind in ("plan", "plan-grid"):
                why = checks.replay(g.n, r, rec["moves"], dist)
                if why is not None or rec["plan_target"] != r:
                    reason = f"plan fails the benchmark's replay: {why or 'wrong target'}"
            self.tally["closed-form verdicts"] += closed is not None
            if closed is not None and verdict != closed:
                reason = f"verdict {verdict} contradicts the closed form {closed}"
            if kind in ("decide", "oracle") and g.eccentricity(r) == 2:
                if key not in criterion:
                    criterion[key] = checks.saturating_matching_exists(g, r)
                self.tally["ecc-2 verdicts against the matching criterion"] += 1
                if verdict != criterion[key]:
                    reason = (f"verdict {verdict} but the matching criterion "
                              f"says {criterion[key]}")
            if kind == "oracle" and g.n <= 7:
                self.tally["verdicts searched again"] += 1
                if verdict != checks.reference_stackable(g, r):
                    reason = "verdict differs from the reference search"
            if reason:
                bad.append((rec, reason))
        return bad

    def moves_accepted(self, records, refuted) -> int:
        return sum(len(rec["moves"]) // 2 for rec in records
                   if rec["fail"] is None and id(rec) not in refuted
                   and rec["moves"] is not None
                   and self.requests[rec["req"]][0] != "verify")


WORKLOADS = {w.name: w for w in (SmallSweep, CliFiles, CubePlans)}
