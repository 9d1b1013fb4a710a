"""Command line frontend: exit codes, JSON output, file round trips."""

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


def test_ge_output(tmp_path, capsys):
    graph = gen(tmp_path, capsys, "path", 3)
    code, data, _ = run(capsys, "ge", "-g", graph)
    assert code == 0
    assert data == {"I": [[0], [2]], "A": [1], "Z": []}


def test_scd_output(capsys):
    code, data, _ = run(capsys, "scd", "-n", "2")
    assert code == 0
    assert sorted(data["chains"]) == [[[], [1], [1, 2]], [[2]]]


def test_gray_output(capsys):
    code, data, _ = run(capsys, "gray", "-m", "5", "-k", "4")
    assert code == 0 and len(data["cycle"]) == 5


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
    # The route is chosen from the graph alone; there is no --method.
    assert main(["decide", "-g", str(FIXTURES / "k4.graph"), "-r", "0",
                 "--method", "oracle"]) == 2
    capsys.readouterr()


LOADED = ("import json, sys; from cupstack.cli import main; code = main(sys.argv[1:]); "
          "print(json.dumps(sorted(m for m in sys.modules "
          "if m.startswith('cupstack.')))); sys.exit(code)")


def loaded_layers(tmp_path, *argv) -> set[str]:
    """The cupstack submodules a fresh `cupstack` process loads."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    return {m.split(".")[1] for m in json.loads(proc.stdout.splitlines()[-1])}


@pytest.mark.parametrize("argv, own, foreign", [
    (("verify", "-g", str(FIXTURES / "p4.graph"),
      "-p", str(FIXTURES / "p4.plan.json")),
     {"graphs"}, {"cube", "ecc2", "matching", "families"}),
    (("cube", "-d", "8"), {"cube"}, {"ecc2", "matching", "families"}),
    (("decide", "-g", str(FIXTURES / "petersen.graph"), "-r", "0"),
     {"ecc2", "matching"}, {"cube", "families"}),
    (("decide", "-g", str(FIXTURES / "k4.graph"), "-r", "0"),
     {"ecc2", "matching"}, {"cube", "families"}),
    (("gen", "path", "4"), {"families"}, {"cube", "ecc2", "matching"}),
    (("plan", "--family", "grid", "--params", "4", "4", "-r", "0"),
     {"families"}, {"cube", "ecc2", "matching"}),
    (("verify", "-g", str(FIXTURES / "grid9x8.graph"),
      "-p", str(FIXTURES / "grid9x8.plan.json")),
     {"graphs"}, {"cube", "ecc2", "matching", "families"}),
])
def test_command_loads_only_its_layers(tmp_path, argv, own, foreign):
    layers = loaded_layers(tmp_path, *argv)
    assert own <= layers and not layers & foreign


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
