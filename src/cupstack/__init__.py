"""Cup-stacking on graphs: solvers, planners, and verifiers.

A move picks up the whole pile on one vertex and drops it on another
vertex that already holds a cup, provided the distance between the two
equals the pile size.  A target r is reachable when some move sequence
concentrates every cup on r; this package decides and certifies that.

`decide(g, r)` is the one decision path, returning a `Decision`.
Importing the package loads no submodule: `decide` imports the layers it
runs when called, and everything else comes from the submodules
(`cupstack.graphs`, `cupstack.oracle`, `cupstack.matching`,
`cupstack.ecc2`, `cupstack.families`, `cupstack.cube`) or the `cupstack`
command (`cupstack.cli`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from .graphs import Graph, Plan


class Decision(NamedTuple):
    target: int
    method: str                     # "ecc2" or "oracle"
    stackable: Optional[bool]       # None: the search budget ran out
    plan: Optional[Plan]            # iff stackable
    certificate: Optional[tuple[int, ...]]   # the barrier of an ecc2 NO


def decide(g: Graph, r: int, budget: Optional[int] = None) -> Decision:
    """Decide whether every cup of the all-ones start on g can be stacked
    on r.  A target of eccentricity at most 2 goes to the matching test
    (a dominating target needs the empty matching), which gives a plan or
    a barrier; any other goes to the exhaustive search under `budget`
    states (None: the oracle's default), which gives a plan or nothing."""
    from . import graphs
    if not 0 <= r < g.n:
        raise ValueError(f"target {r} out of range")
    if graphs.eccentricity(g, r) <= 2:
        from . import ecc2
        w = ecc2.ecc2_decide(g, r)
        if not w.decision:
            return Decision(r, "ecc2", False, None, w.barrier)
        return Decision(r, "ecc2", True,
                        ecc2.plan_from_matching(g, r, w.matching), None)
    from . import oracle
    res = oracle.oracle_search(g, graphs.Configuration.all_ones(g.n), r, budget)
    return Decision(r, "oracle", res.decision, res.plan, None)
