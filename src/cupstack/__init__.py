"""Cup-stacking on graphs: solvers, planners, and verifiers.

A move picks up the whole pile on one vertex and drops it on another
vertex that already holds a cup, provided the distance between the two
equals the pile size.  A target r is reachable when some move sequence
concentrates every cup on r; this package decides and certifies that.

Importing the package loads nothing else: import from the submodules
(`cupstack.graphs`, `cupstack.oracle`, `cupstack.matching`,
`cupstack.ecc2`, `cupstack.families`, `cupstack.cube`) or run the
`cupstack` command (`cupstack.cli`).
"""
