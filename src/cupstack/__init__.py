"""Cup-stacking on graphs: solvers, planners, and verifiers.

A move picks up the whole pile on one vertex and drops it on another
vertex that already holds a cup, provided the distance between the two
equals the pile size.  A target r is reachable when some move sequence
concentrates every cup on r; this package decides and certifies that.
"""

from .graphs import (Configuration, CubeBoard, Graph, GraphError, Move, Plan,
                     StackingPart, StackingPartition, VerifyResult,
                     apply_move, diameter, eccentricity, format_graph,
                     legal_move, parse_graph, shells, verify_barrier,
                     verify_partition, verify_plan)
from .oracle import (BudgetExhausted, OracleResult, feasibility_oracle,
                     oracle_decide, oracle_plan, oracle_search,
                     oracle_stackable)
from .matching import (BareGraph, GallaiEdmondsPartition, Matching,
                       gallai_edmonds, has_perfect_matching,
                       is_factor_critical, max_matching, matching_number)
from .ecc2 import Ecc2Witness, diam2_decide, ecc2_decide, ecc2_plan, plan_from_matching
from .families import FamilyError, FamilySpec, generate
from .cube import CubeError, CubePlanResult, plan_cube, revolving_door, scd, verify_cube_plan

__all__ = [name for name in dir() if not name.startswith("_")]
