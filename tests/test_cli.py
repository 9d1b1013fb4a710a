"""Command line frontend: exit codes, JSON output, file round trips."""

import functools
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import pytest

from cupstack import cube, families, graphs
from cupstack.cli import EXIT_INTERNAL, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    data = json.loads(captured.out) if captured.out.strip() else None
    return code, data, captured.err


def gen(tmp_path, capsys, family, *params):
    path = tmp_path / f"{family}.graph"
    code, _, _ = run(capsys, "gen", family, *map(str, params),
                     "-o", str(path))
    assert code == 0
    return str(path)


def test_gen_writes_graph_and_labels(tmp_path, capsys):
    path = tmp_path / "petersen.graph"
    dot = tmp_path / "petersen.dot"
    code, data, _ = run(capsys, "gen", "petersen", "-o", str(path),
                        "--dot", str(dot))
    assert code == 0 and data["n"] == 10 and data["edges"] == 15
    assert path.read_text().startswith("n 10")
    labels = json.loads((tmp_path / "petersen.graph.labels.json").read_text())
    assert len(labels) == 10
    assert dot.read_text().startswith("graph G {")


def test_gen_stdout_mode(capsys):
    code = main(["gen", "path", "4"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("n 4")


def test_decide_petersen_ecc2(tmp_path, capsys):
    path = gen(tmp_path, capsys, "petersen")
    code, data, _ = run(capsys, "decide", "-g", path, "-r", "0")
    assert code == 0 and data["stackable"] is True
    assert data["method"] == "ecc2"


def test_decide_star_leaf_oracle(tmp_path, capsys):
    # decide routes the leaf (eccentricity 2) to the matching test;
    # `cupstack oracle` forces the exhaustive search, which agrees.
    path = gen(tmp_path, capsys, "star", 3)
    code, data, _ = run(capsys, "decide", "-g", path, "-r", "1")
    assert code == 1 and data["stackable"] is False
    code, data, _ = run(capsys, "oracle", "-g", path, "-r", "1")
    assert code == 1 and data["stackable"] is False


def test_decide_dominating_target_takes_ecc2_path(capsys):
    code, data, _ = run(capsys, "decide", "-g", str(FIXTURES / "k4.graph"),
                        "-r", "0")
    assert code == 0 and data == {"target": 0, "method": "ecc2",
                                  "stackable": True}
    code, data, _ = run(capsys, "plan", "-g", str(FIXTURES / "k4.graph"),
                        "-r", "2")
    assert code == 0 and data["moves"] == [[0, 2], [1, 2], [3, 2]]


def test_decide_budget_inconclusive(tmp_path, capsys):
    # Target 0 of the 8-cycle has eccentricity 4: the exhaustive search.
    path = gen(tmp_path, capsys, "cycle", 8)
    code, data, _ = run(capsys, "decide", "-g", path, "-r", "0",
                        "--budget", "5")
    assert code == 3 and data["stackable"] is None
    assert data["method"] == "oracle"
    code, data, _ = run(capsys, "plan", "-g", path, "-r", "0",
                        "--budget", "5")
    assert code == 3 and data["plan"] is None and "inconclusive" in data


def test_decide_ecc2_no_prints_barrier(tmp_path, capsys):
    path = gen(tmp_path, capsys, "star", 3)
    code, data, _ = run(capsys, "decide", "-g", path, "-r", "1")
    assert code == 1 and data["method"] == "ecc2"
    assert data["stackable"] is False and data["barrier"] == [0]


def test_bad_budget_variable_is_usage_error(capsys, monkeypatch):
    for value in ("lots", "0", "-5", ""):
        monkeypatch.setenv("CUPSTACK_ORACLE_BUDGET", value)
        code, _, err = run(capsys, "decide", "-g", "/nonexistent.graph",
                           "-r", "0")
        assert code == 2 and "CUPSTACK_ORACLE_BUDGET" in err


def test_bad_budget_variable_spares_commands_without_budget(capsys,
                                                          monkeypatch):
    monkeypatch.setenv("CUPSTACK_ORACLE_BUDGET", "abc")
    code = main(["gen", "path", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.startswith("n 3") and captured.err == ""


def test_bad_budget_variable_spares_family_planners(capsys, monkeypatch):
    # A family with a planner never searches, so it never reads the
    # variable; one without a planner is decided, and does.
    monkeypatch.setenv("CUPSTACK_ORACLE_BUDGET", "abc")
    for name, *params in (("path", "3"), ("cycle", "5"), ("grid", "3", "3"),
                          ("cube", "3")):
        code, data, err = run(capsys, "plan", "--family", name, "--params", *params)
        assert code == 0 and data["moves"] and err == ""
    code, _, err = run(capsys, "plan", "--family", "petersen", "-r", "0")
    assert code == 2 and "CUPSTACK_ORACLE_BUDGET" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_is_usage_error(tmp_path, capsys, value):
    graph = gen(tmp_path, capsys, "path", 4)
    for cmd in (["decide"], ["plan"], ["oracle"]):
        code, data, err = run(capsys, *cmd, "-g", graph, "-r", "0",
                              "--budget", value)
        assert code == 2 and data is None and "--budget" in err


def test_oracle_reports_prunes(tmp_path, capsys):
    graph = gen(tmp_path, capsys, "star", 3)
    code, data, _ = run(capsys, "oracle", "-g", graph, "-r", "1")
    assert code == 1 and data["stackable"] is False
    assert data["rejected_by"] is None and data["pruned"] > 0
    code, data, _ = run(capsys, "oracle", "-g", graph, "-r", "1",
                        "--config", "1,0,1,1")
    assert code == 1 and data["rejected_by"] == "a" and data["states"] == 1


def test_plan_verify_round_trip(tmp_path, capsys):
    graph = gen(tmp_path, capsys, "cycle", 7)
    plan = tmp_path / "plan.json"
    code, data, _ = run(capsys, "plan", "-g", graph, "-r", "2",
                        "-o", str(plan))
    assert code == 0 and data["moves"] > 0
    code, data, _ = run(capsys, "verify", "-g", graph, "-p", str(plan))
    assert code == 0 and data["accepted"] is True


def test_verify_rejects_wrong_plan(tmp_path, capsys):
    graph = gen(tmp_path, capsys, "path", 3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "target": 0,
                               "moves": [[1, 0], [2, 0]]}))
    code, data, _ = run(capsys, "verify", "-g", graph, "-p", str(bad))
    assert code == 1 and data["accepted"] is False and data["step"] == 1


def test_plan_refuses_graph_and_family_together(capsys):
    code, data, err = run(capsys, "plan", "--family", "path", "--params", "3",
                          "-g", str(FIXTURES / "k4.graph"), "-r", "0")
    assert (code, data) == (2, None)
    assert err == "error: plan needs exactly one of -g and --family\n"
    code, data, err = run(capsys, "plan", "-r", "0")
    assert code == 2 and data is None and "exactly one of" in err


@pytest.mark.parametrize("argv, text, code, out, err", [
    (["plan", "-g", "k4.graph"], None, 2, None,
     "error: plan needs a -r target\n"),
    (["oracle", "-g", "grid9x8.graph", "-r", "30", "--budget", "5"], None, 3,
     {"target": 30, "states": 5, "pruned": 0, "rejected_by": None,
      "stackable": None, "inconclusive": "budget exhausted"}, ""),
    (["verify", "-g", "p4.graph", "-p", "FILE"], "[[1, 0]]", 2, None,
     "error: plan must be a JSON object\n"),
    (["verify", "-g", "p4.graph", "-p", "FILE"], '{"n": 4, "target": 0}', 2,
     None, "error: plan has no 'moves'\n"),
    (["verify", "-g", "p4.graph", "-p", "FILE"],
     '{"n": 4, "target": 0, "moves": 5}', 2, None,
     "error: plan moves must be a list\n"),
    (["verify", "-g", "p4.graph", "-p", "FILE"],
     '{"n": 4, "target": 0, "moves": [], "initial": 4}', 2, None,
     "error: plan initial must be a list\n"),
    (["decide", "-g", "FILE", "-r", "0"], "n 3\nn 3\ne 0 1\ne 1 2\n", 2, None,
     "error: line 2: duplicate n line\n"),
    (["decide", "-r", "0"], None, 2, None, "error: decide needs a -g graph file\n"),
    (["oracle", "-r", "0"], None, 2, None, "error: oracle needs a -g graph file\n"),
    (["plan", "--family", "grid", "--params", "3", "3", "-r", "9"], None, 2,
     None, "error: target out of range\n"),
    (["plan", "--family", "grid", "--params", "0", "3"], None, 2, None,
     "error: grid dimensions must be positive\n"),
    (["plan", "--family", "cycle", "--params", "2"], None, 2, None,
     "error: cycle needs n >= 3\n"),
    (["plan", "--family", "path", "--params", "0"], None, 2, None,
     "error: path needs n >= 1\n"),
    (["gen", "cube", "13"], None, 2, None,
     "error: explicit cube graphs supported for 0 <= d <= 12\n"),
    (["verify", "--cube", "-1", "-p", "FILE"], '{"n": 1, "target": 0, "moves": []}',
     2, None, "error: dimension must be nonnegative\n"),
    (["plan", "--family", "cycle", "--params", "0"], None, 2, None,
     "error: cycle needs n >= 3\n"),
    (["plan", "--family", "cycle", "--params", "2", "-r", "5"], None, 2, None,
     "error: cycle needs n >= 3\n"),
    (["gen", "star", "0"], None, 2, None, "error: star needs m >= 1\n"),
])
def test_exit_paths(tmp_path, capsys, argv, text, code, out, err):
    # Fixture names resolve under fixtures/; FILE is `text` written out.
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else
            str(FIXTURES / a) if a.endswith(".graph") else a for a in argv]
    assert run(capsys, *argv) == (code, out, err)


def test_verify_refuses_graph_and_cube_together(capsys):
    code, data, err = run(capsys, "verify", "-g", str(FIXTURES / "p4.graph"),
                          "--cube", "2", "-p", str(FIXTURES / "p4.plan.json"))
    assert code == 2 and data is None and "-g" in err and "--cube" in err


@pytest.mark.parametrize("moves, index", [
    ([[1.5, 0], [3.9, 2], ["2", "0"]], 0),     # int() would accept these
    ([[1, 0], [3, 2], ["2", "0"]], 2),
    ([[1, 0], [True, 2], [2, 0]], 1),
])
def test_verify_rejects_non_integer_plan(tmp_path, capsys, moves, index):
    graph = FIXTURES / "p4.graph"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "target": 0, "moves": moves}))
    code, data, err = run(capsys, "verify", "-g", str(graph), "-p", str(bad))
    assert code == 2 and data is None and f"move {index}" in err


def test_verify_refuses_plan_vertex_past_32_bits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "target": 0,
                               "moves": [[1, 0], [2 ** 31, 2], [2, 0]]}))
    code, data, err = run(capsys, "verify", "-g", str(FIXTURES / "p4.graph"),
                          "-p", str(bad))
    assert code == 2 and data is None and "move 1: vertex out of range" in err


def test_plan_family_grid(capsys):
    code, data, _ = run(capsys, "plan", "--family", "grid",
                        "--params", "3", "3", "-r", "4")
    assert code == 0 and data["target"] == 4 and len(data["moves"]) > 0


def test_plan_unstackable_target(tmp_path, capsys):
    graph = gen(tmp_path, capsys, "star", 3)
    code, data, _ = run(capsys, "plan", "-g", graph, "-r", "1")
    assert code == 1 and data["plan"] is None


def test_oracle_with_plan_and_config(tmp_path, capsys):
    graph = gen(tmp_path, capsys, "path", 3)
    code, data, _ = run(capsys, "oracle", "-g", graph, "-r", "0",
                        "--config", "1,0,2", "--plan")
    assert code == 0 and data["stackable"] is True
    assert data["moves"] == [[2, 0]]


def test_oracle_config_accepts_only_ascii_counts(capsys):
    graph = str(FIXTURES / "p4.graph")
    for config, field in (("\u0661,1,1,1", 1), ("1,1,-1,1", 3),   # Arabic-Indic 1
                          ("", 1)):
        code, data, err = run(capsys, "oracle", "-g", graph, "-r", "0",
                              "--config", config)
        assert code == 2 and data is None and f"--config field {field}" in err


def test_oracle_target_and_config_checked_once(capsys):
    # oracle_search's own checks give the usage errors.
    graph = str(FIXTURES / "p4.graph")
    for extra, message in ((["-r", "4"], "target out of range"),
                           (["-r", "0", "--config", "1,1,1"],
                            "configuration size mismatch")):
        code, data, err = run(capsys, "oracle", "-g", graph, *extra)
        assert code == 2 and data is None and message in err


def test_disconnected_file_names_its_n_line(tmp_path, capsys):
    path = tmp_path / "triangle_and_point.graph"
    path.write_text("n 4\ne 0 1\ne 1 2\ne 0 2\n", encoding="utf-8")
    code, data, err = run(capsys, "decide", "-g", str(path), "-r", "0")
    assert (code, data, err) == (2, None,
                                 "error: line 1: graph is disconnected\n")


def test_cube_plan_and_verify(tmp_path, capsys):
    out = tmp_path / "q6.json"
    code, data, _ = run(capsys, "cube", "-d", "6", "--verify",
                        "-o", str(out))
    assert code == 0 and data["complete"] and data["verified"]
    plan = json.loads(out.read_text())
    assert len(plan["moves"]) == 63
    code, data, _ = run(capsys, "verify", "--cube", "6", "-p", str(out))
    assert code == 0 and data["accepted"] is True


def test_plan_family_cube_round_trip(tmp_path, capsys):
    out = tmp_path / "q5.json"
    code, data, _ = run(capsys, "plan", "--family", "cube", "--params", "5",
                        "-o", str(out))
    assert code == 0 and data["moves"] == 31
    code, data, _ = run(capsys, "verify", "--cube", "5", "-p", str(out))
    assert code == 0 and data["accepted"] is True


def make_cube_plans_incomplete(monkeypatch):
    real = cube.plan_cube(5)
    incomplete = cube.CubePlanResult(
        5, graphs.Plan(real.plan.n, 0, real.plan.flat[:-2]), False, (0b11,),
        real.phase_moves)
    monkeypatch.setattr(cube, "plan_cube", lambda d: incomplete)


def test_plan_family_cube_incomplete_is_no(tmp_path, capsys, monkeypatch):
    # An incomplete cube plan is not a YES: exit 1, and no plan file that
    # the verifier would reject.
    make_cube_plans_incomplete(monkeypatch)
    out = tmp_path / "q5.json"
    code, data, _ = run(capsys, "plan", "--family", "cube", "--params", "5",
                        "-o", str(out))
    assert code == 1 and data["complete"] is False and data["plan"] is None
    assert not out.exists()


def test_cube_incomplete_writes_no_plan_file(tmp_path, capsys, monkeypatch):
    make_cube_plans_incomplete(monkeypatch)
    out = tmp_path / "q5.json"
    code, data, _ = run(capsys, "cube", "-d", "5", "-o", str(out))
    assert code == 1 and data["complete"] is False and "output" not in data
    assert not out.exists()


def test_cube_rejected_plan_writes_no_plan_file(tmp_path, capsys, monkeypatch):
    # A complete plan that --verify rejects is not written either.
    monkeypatch.setattr(graphs, "verify_plan", lambda board, plan:
                        graphs.VerifyResult(False, 0, "rejected for the test"))
    out = tmp_path / "q5.json"
    code, data, _ = run(capsys, "cube", "-d", "5", "--verify", "-o", str(out))
    assert code == 1 and data["complete"] is True and data["verified"] is False
    assert "output" not in data and not out.exists()


def test_cube_d19_runs_ungated(capsys):
    code, data, _ = run(capsys, "cube", "-d", "19")
    assert code == 0 and data["complete"] and data["moves"] == 2**19 - 1


# A small instance of every family, stackable at vertex 0.
SMALL = {
    "path": (5,), "cycle": (6,), "spider": (1, 2, 3), "complete": (4,),
    "multipartite": (2, 3), "star": (3,), "kneser": (5, 2), "petersen": (),
    "johnson": (5, 2, 1), "grid": (3, 4), "cube": (3,),
}


def test_small_instances_cover_every_family():
    assert SMALL.keys() == families.FAMILIES.keys()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gen_and_plan_every_family(tmp_path, capsys, name):
    params = list(map(str, SMALL[name]))
    graph = gen(tmp_path, capsys, name, *params)
    plan = tmp_path / "plan.json"
    code, data, _ = run(capsys, "plan", "--family", name, "--params", *params,
                        "-r", "0", "-o", str(plan))
    assert code == 0 and data["target"] == 0
    code, data, _ = run(capsys, "verify", "-g", graph, "-p", str(plan))
    assert code == 0 and data["accepted"] is True


@pytest.mark.parametrize("name", sorted(n for n, f in families.FAMILIES.items()
                                        if f.count is not None))
def test_wrong_parameter_count_is_usage_error(capsys, name):
    params = ["2"] * (families.FAMILIES[name].count + 1)
    for argv in (["gen", name, *params],
                 ["plan", "--family", name, "--params", *params]):
        code, data, err = run(capsys, *argv)
        assert code == 2 and data is None and repr(name) in err


@pytest.mark.parametrize("n, r", [(1200, 0), (5000, 2500)])
def test_long_path_plan_verifies(tmp_path, capsys, n, r):
    graph = gen(tmp_path, capsys, "path", n)
    plan = tmp_path / "plan.json"
    code, data, _ = run(capsys, "plan", "--family", "path", "--params", str(n),
                        "-r", str(r), "-o", str(plan))
    assert code == 0 and data["moves"] == n - 1
    code, data, _ = run(capsys, "verify", "-g", graph, "-p", str(plan))
    assert code == 0 and data["accepted"] is True


def test_verify_rejects_short_cube_plan_before_building_it(tmp_path, capsys):
    # 2^62 cups need 2^62 - 1 moves; the empty plan fails without a start.
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"n": 2 ** 62, "target": 0, "moves": []}))
    code, data, _ = run(capsys, "verify", "--cube", "62", "-p", str(plan))
    assert code == 1 and data["accepted"] is False
    assert "not concentrated" in data["reason"]


def test_verify_rejects_huge_plan_n_before_building_it(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"n": 10 ** 12, "target": 0, "moves": []}))
    code, data, _ = run(capsys, "verify", "-g", str(FIXTURES / "p4.graph"),
                        "-p", str(plan))
    assert code == 1 and data == {"accepted": False, "step": None,
                                  "reason": "initial configuration size mismatch"}


@pytest.mark.parametrize("name, params", [("spider", ["1", "2"]),
                                          ("cube", ["3"])])
def test_root_only_planners_reject_other_targets(tmp_path, capsys, name,
                                                 params):
    out = tmp_path / "plan.json"
    code, data, err = run(capsys, "plan", "--family", name, "--params",
                          *params, "-r", "3", "-o", str(out))
    assert code == 2 and data is None and "vertex 0" in err
    assert not out.exists()


def test_internal_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(p, r):
        raise IndexError("planner bug")
    monkeypatch.setitem(families.FAMILIES, "grid",
                        families.FAMILIES["grid"]._replace(plan=broken))
    code, data, err = run(capsys, "plan", "--family", "grid",
                          "--params", "3", "3", "-r", "4")
    assert code == EXIT_INTERNAL == 4 and data is None
    assert err.startswith("internal error:") and "Traceback" in err
    assert "planner bug" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "decide", "-g", "/nonexistent.graph",
                       "-r", "0")
    assert code == 2 and "error:" in err


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "moebius", "5")
    assert code == 2 and "error:" in err


def test_checked_in_fixtures(capsys):
    code, data, _ = run(capsys, "decide", "-g",
                        str(FIXTURES / "petersen.graph"), "-r", "0")
    assert code == 0 and data["stackable"] is True
    code, data, _ = run(capsys, "decide", "-g",
                        str(FIXTURES / "star3.graph"), "-r", "1")
    assert code == 1
    code, data, _ = run(capsys, "verify", "-g", str(FIXTURES / "p4.graph"),
                        "-p", str(FIXTURES / "p4.plan.json"))
    assert code == 0 and data["accepted"] is True


def test_bad_arguments_are_usage_errors(capsys):
    assert main(["decide"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    # `ge` is no longer a command: the parser rejects it like any other.
    assert main(["ge", "-g", str(FIXTURES / "p4.graph")]) == 2
    capsys.readouterr()
    # The route is chosen from the graph alone; there is no --method.
    assert main(["decide", "-g", str(FIXTURES / "k4.graph"), "-r", "0",
                 "--method", "oracle"]) == 2
    capsys.readouterr()


# Runs main(argv) in a fresh process, then prints the cupstack submodules
# it loaded, plus `dataclasses` if that is loaded (its import alone costs
# a process about 20 ms).
LOADED = ("import json, sys; from cupstack.cli import main; code = main(sys.argv[1:]); "
          "print(json.dumps(sorted(m for m in sys.modules "
          "if m.startswith('cupstack.') or m == 'dataclasses'))); sys.exit(code)")


def loaded_layers(tmp_path, *argv) -> set[str]:
    """The cupstack submodules a fresh `cupstack` process loads, and
    `dataclasses` if it loads that."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    return {m.rpartition(".")[2] for m in json.loads(proc.stdout.splitlines()[-1])}


@functools.cache
def bare_interpreter_loads_dataclasses() -> bool:
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "True"


@pytest.mark.parametrize("argv, own, foreign", [
    (("verify", "-g", str(FIXTURES / "p4.graph"),
      "-p", str(FIXTURES / "p4.plan.json")),
     {"graphs"}, {"cube", "ecc2", "matching", "families", "oracle"}),
    (("cube", "-d", "8"), {"cube"}, {"ecc2", "matching", "families", "oracle"}),
    (("decide", "-g", str(FIXTURES / "petersen.graph"), "-r", "0"),
     {"ecc2", "matching"}, {"cube", "families", "oracle"}),
    (("decide", "-g", str(FIXTURES / "k4.graph"), "-r", "0"),
     {"ecc2", "matching"}, {"cube", "families"}),
    (("gen", "path", "4"), {"families"}, {"cube", "ecc2", "matching"}),
    (("plan", "--family", "grid", "--params", "4", "4", "-r", "0"),
     {"families"}, {"cube", "ecc2", "matching"}),
    (("verify", "-g", str(FIXTURES / "grid9x8.graph"),
      "-p", str(FIXTURES / "grid9x8.plan.json")),
     {"graphs"}, {"cube", "ecc2", "matching", "families", "oracle"}),
    (("decide", "-g", str(FIXTURES / "p4.graph"), "-r", "0"),
     {"oracle"}, {"ecc2", "matching", "families", "cube"}),
])
def test_command_loads_only_its_layers(tmp_path, argv, own, foreign):
    layers = loaded_layers(tmp_path, *argv)
    assert own <= layers and not layers & foreign
    # No record type needs `dataclasses`; checked unless the interpreter
    # loads it before any cupstack code runs.
    if not bare_interpreter_loads_dataclasses():
        assert "dataclasses" not in layers


def readme_commands() -> list[tuple[list[str], int]]:
    """The `cupstack ...` lines of the README's command-line block, each
    with the exit code its comment documents: 1 where it says "exit 1"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    out = []
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("cupstack "):
            out.append((shlex.split(command)[1:],
                        1 if "exit 1" in comment else 0))
    return out


def test_readme_command_block_runs(tmp_path, capsys, monkeypatch):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10 and any(code == 1 for _, code in commands)
    for argv, expected in commands:
        code, _, err = run(capsys, *argv)
        assert code == expected, (argv, err)
