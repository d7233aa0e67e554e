"""tilekit: exact-rational geometry for parallelotope tilings.

Modules:
    ratpoly   -- rational polytopes/cones and their dual descriptions
    lattice   -- Voronoi cells of lattices, facet vectors, belts
    tiling    -- the face-to-face tiling by lattice translates and its dual cells
    scaling   -- canonical facet scalings and their coherence
    lifting   -- convex piecewise-linear lifts and their inscribed forms
    hypercomb -- closed 4-uniform hypergraph combinatorics
    syssolve  -- vertex-matching equation systems and contradiction search
    cli       -- command-line entry points

Every exception that reports a found violation subclasses ``Violation``:
a hypothesis of the paper's chain that fails for the input, or a
certificate check that does not pass.  The command line reports such an
exception on stderr and exits 1; apart from its own input errors (exit 2),
it reports any other exception as a fault in tilekit itself (exit 70).
"""

__version__ = "0.1.0"


class Violation(Exception):
    """A found violation: an input that fails a hypothesis or a check."""
