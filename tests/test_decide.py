"""The one decision entry point, `cupstack.decide`, and the rule that no
other code in the package chooses between the matching test and the
exhaustive search, and the one owner each of the search budget's
default, the budget variable, a replay's start, the breadth-first
layering, the view of a plan's moves and the rule that turns the parts of
a stacking partition into moves."""

import ast
import inspect
import pathlib

import pytest

from cupstack import Decision, decide
from cupstack.families import (complete_graph, grid_graph, path_graph,
                               petersen_graph, star_graph)
from cupstack.graphs import (Configuration, Graph, Plan, eccentricity,
                             verify_barrier, verify_plan)
from cupstack.oracle import oracle_search

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cupstack"

# An atlas tree (a spider with legs 1, 1, 1, 2 around vertex 1) whose leaf
# 0 has eccentricity 3 and is not stackable.
SPIDER_NO = Graph(6, [(0, 1), (1, 2), (1, 4), (1, 5), (2, 3)])


@pytest.mark.parametrize("g, r, budget, expected", [
    # Petersen: the matching test, pairs over distance 2 then singles.
    (petersen_graph(), 0, None,
     Decision(0, "ecc2", True, Plan(10, 0, [1, 6, 6, 0, 2, 4, 4, 0, 3, 5, 5, 0,
                                            7, 0, 8, 0, 9, 0]), None)),
    # A star leaf: the centre alone is a barrier.
    (star_graph(3), 1, None, Decision(1, "ecc2", False, None, (0,))),
    # A dominating target needs the empty matching.
    (complete_graph(4), 0, None,
     Decision(0, "ecc2", True, Plan(4, 0, [1, 0, 2, 0, 3, 0]), None)),
    # Eccentricity 3: the exhaustive search.
    (path_graph(4), 0, None,
     Decision(0, "oracle", True, Plan(4, 0, [1, 0, 3, 2, 2, 0]), None)),
    (SPIDER_NO, 0, None, Decision(0, "oracle", False, None, None)),
    # A search out of budget is neither YES nor NO.
    (grid_graph(4, 3), 0, 5, Decision(0, "oracle", None, None, None)),
])
def test_decision_pinned(g, r, budget, expected):
    d = decide(g, r, budget)
    assert d == expected
    if d.plan is not None:
        assert verify_plan(g, d.plan)
    if d.certificate is not None:
        assert verify_barrier(g, r, d.certificate)
    if d.method == "oracle":
        assert eccentricity(g, r) >= 3
        if d.stackable is not None:
            ones = Configuration.all_ones(g.n)
            assert oracle_search(g, ones, r).decision == d.stackable


@pytest.mark.parametrize("r", [-1, 4, 10])
def test_decide_refuses_target_out_of_range(r):
    with pytest.raises(ValueError, match="out of range"):
        decide(path_graph(4), r)


def name_of(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def functions_holding(hit) -> set[str]:
    """The functions of the package ("module.qualified_name", or
    "module.<module>") that hold a node for which `hit(node)` is true."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if hit(node):
            found.add(f"{stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        stem = path.stem
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def calls_to(names: set[str]):
    return lambda node: isinstance(node, ast.Call) and name_of(node.func) in names


def test_only_decide_chooses_the_method():
    callers = {name: functions_holding(calls_to({name}))
               for name in ("ecc2_decide", "oracle_search")}
    assert callers == {"ecc2_decide": {"__init__.decide"},
                       "oracle_search": {"__init__.decide", "cli._cmd_oracle"}}


def test_one_owner_each_for_the_budget_and_the_plan_start():
    # The oracle alone defaults the budget; the CLI reads the variable in
    # one helper; a replay starts from Plan.initial and nowhere else.
    default = functions_holding(lambda node: name_of(node) == "DEFAULT_BUDGET")
    assert {where.split(".")[0] for where in default} == {"oracle"}
    variable = functions_holding(
        lambda node: name_of(node) in ("environ", "getenv")
        or (isinstance(node, ast.Constant) and node.value == "CUPSTACK_ORACLE_BUDGET"))
    assert variable == {"cli._budget"}
    assert list(inspect.signature(verify_plan).parameters) == ["board", "plan"]
    third = functions_holding(lambda node: calls_to({"verify_plan"})(node)
                              and len(node.args) + len(node.keywords) > 2)
    assert third == set()


def grows_a_frontier(node) -> bool:
    """A deque; a loop over a list that appends to that list (a queue kept
    in a list); or a `while` loop that walks a list and rebinds it (one
    frontier after another)."""
    if name_of(node) in ("deque", "popleft"):
        return True
    if isinstance(node, ast.For) and isinstance(node.iter, ast.Name):
        return any(calls_to({"append"})(sub) and name_of(sub.func.value) == node.iter.id
                   for sub in ast.walk(node))
    if isinstance(node, ast.While):
        walked = {sub.iter.id for sub in ast.walk(node)
                  if isinstance(sub, ast.For) and isinstance(sub.iter, ast.Name)}
        rebound = {target.id for sub in ast.walk(node) if isinstance(sub, ast.Assign)
                   for target in ast.walk(sub) if isinstance(target, ast.Name)
                   and isinstance(target.ctx, ast.Store)}
        return bool(walked & rebound)
    return False


def groups_by_distance(node) -> bool:
    """`out[d].append(v)`: a row regrouped into one list per distance."""
    return (calls_to({"append"})(node) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Subscript))


def test_one_owner_for_the_breadth_first_layering():
    # In the modules that read distances, Graph's layering alone grows a
    # breadth-first frontier or sorts vertices into per-distance lists.
    # Two other searches are named here: `dist`'s two-ended search, which
    # stops where the sides meet and keeps no row, and the barrier
    # verifier's walk over the components of (G - r) - X, another graph.
    # (The blossom queue in `matching` is a different search again.)
    found = {where for where in functions_holding(
                 lambda node: grows_a_frontier(node) or groups_by_distance(node))
             if where.split(".")[0] in ("graphs", "oracle", "ecc2")}
    assert found == {"graphs.Graph._layering", "graphs.Graph.dist",
                     "graphs.verify_barrier"}


def test_plans_are_read_from_flat():
    # Every reader in the package takes a plan's moves from `Plan.flat`;
    # `Plan.moves`, the benchmark's view, alone builds a `MoveView`.
    reads = functions_holding(lambda node: isinstance(node, ast.Attribute)
                              and node.attr == "moves")
    views = functions_holding(calls_to({"MoveView"}))
    assert (reads, views) == (set(), {"graphs.Plan.moves"})


def writes_a_move_pair(node) -> bool:
    """`moves += (src, dst, ...)`, a literal added onto a move list, or
    `out[i], out[i + 1] = src, dst`, two slots filled at once."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        return isinstance(node.value, (ast.Tuple, ast.List))
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Tuple) and len(target.elts) > 1
        and all(isinstance(elt, ast.Subscript) for elt in target.elts)
        for target in node.targets)


def test_one_writer_for_stacking_partition_plans():
    # The family planners and the eccentricity-2 plan list the parts of a
    # stacking partition; `graphs.stack_parts` alone turns them into moves.
    defined = functions_holding(lambda node: isinstance(node, ast.FunctionDef)
                                and node.name in ("stack_parts", "_endpoint_moves"))
    writers = {where for where in functions_holding(writes_a_move_pair)
               if where.split(".")[0] in ("families", "ecc2")}
    assert (defined, writers) == ({"graphs.stack_parts", "graphs._endpoint_moves"},
                                  set())
