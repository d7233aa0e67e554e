"""tilekit: exact-rational geometry for parallelotope tilings.

Modules:
    ratpoly   -- rational polytopes/cones and their dual descriptions
    lattice   -- Voronoi cells of lattices, facet vectors, belts
    tiling    -- the face-to-face tiling by lattice translates and its dual cells
    scaling   -- canonical facet scalings and their coherence
    lifting   -- piecewise-linear lifts and quadratic forms in the plane
    hypercomb -- closed 4-uniform hypergraph combinatorics
    syssolve  -- vertex-matching equation systems and contradiction search
    cli       -- command-line entry points
"""

__version__ = "0.1.0"
