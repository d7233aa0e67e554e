"""Voronoi cells of lattices given by rational Gram matrices.

The lattice is Z^d with inner product <x, y> = x.G.y for a symmetric positive
definite rational G.  Facet vectors of the Voronoi cell around the origin are
found exactly as the strict norm minimizers of the nonzero classes of
Z^d / 2Z^d; no floating point and no basis reduction is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from typing import Sequence

from . import ratpoly
from ._lp import Vec, dot, frac, vec


class FacetNotCentrallySymmetric(Exception):
    """A facet of the cell is not symmetric about its own center."""


def check_gram(gram) -> list[list[Fraction]]:
    """The Gram matrix as Fractions.

    Raises:
        ValueError: it is empty, not square, not symmetric or not positive
            definite.
    """
    g = [[frac(x) for x in row] for row in gram]
    d = len(g)
    if not d:
        raise ValueError("gram matrix must be nonempty")
    if any(len(row) != d for row in g):
        raise ValueError("gram matrix must be square")
    for i in range(d):
        for j in range(d):
            if g[i][j] != g[j][i]:
                raise ValueError("gram matrix must be symmetric")
    if _ldl(g) is None:
        raise ValueError("gram matrix must be positive definite")
    return g


def _ldl(a) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Symmetric elimination a = L D L^T of a symmetric rational matrix, or
    None when it is not positive definite.

    Returns (diag, mu): the pivots D and, in row i, the multipliers
    mu[i][j] = L[j][i] for j > i.  Elimination stops at the first pivot
    that is not positive; by Sylvester's criterion that happens iff some
    leading principal minor is not positive, since the k-th minor is the
    product of the first k pivots.
    """
    a = [[frac(x) for x in row] for row in a]
    d = len(a)
    diag: list[Fraction] = []
    mu: list[list[Fraction]] = []
    for i in range(d):
        p = a[i][i]
        if p <= 0:
            return None
        diag.append(p)
        mu.append([a[i][j] / p for j in range(d)])
        for j in range(i + 1, d):
            for k in range(i + 1, d):
                a[j][k] -= a[j][i] * a[i][k] / p
    return diag, mu


def gram_norm(gram, v: Sequence) -> Fraction:
    """The quadratic form v.G.v."""
    v = vec(v)
    return sum(
        v[i] * frac(gram[i][j]) * v[j] for i in range(len(v)) for j in range(len(v))
    )


def relevant_vectors(gram) -> tuple[Vec, ...]:
    """Facet vectors of the Voronoi cell of (Z^d, G).

    A nonzero lattice vector v is a facet vector iff +/-v are the unique
    minimizers of the norm in the class v + 2Z^d.  Minimization is exact:
    every lattice vector with norm at most the largest class
    representative's is enumerated (see _short_vectors).

    Returns:
        lex-sorted tuple of integer vectors (both signs included).
    """
    g = check_gram(gram)
    d = len(g)
    # Integerize the form for fast comparisons.
    den = 1
    for row in g:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    gi = [[int(x * den) for x in row] for row in g]

    def q(v):
        return sum(v[i] * gi[i][j] * v[j] for i in range(d) for j in range(d))

    reps = [c for c in itertools.product((0, 1), repeat=d) if any(c)]
    bound = max(q(c) for c in reps)  # integerized class-minimum upper bound
    best: dict[tuple, int] = {}
    argmin: dict[tuple, list] = {}
    for v in _short_vectors(gi, bound):
        cls = tuple(x & 1 for x in v)
        if not any(cls):
            continue  # the zero class of Z^d / 2Z^d never yields facets
        nv = q(v)
        cur = best.get(cls)
        if cur is None or nv < cur:
            best[cls] = nv
            argmin[cls] = [v]
        elif nv == cur:
            argmin[cls].append(v)
    out = []
    for cls, mins in argmin.items():
        if len(mins) == 2:
            out.extend(vec(m) for m in mins)
    return tuple(sorted(out))


def _short_vectors(gi: list[list[int]], bound: int):
    """Every integer vector v with v.G.v <= bound, for a positive definite
    integer G.

    Exact Fincke-Pohst enumeration (Fincke-Pohst 1985) in the given basis:
    v.G.v = sum_i diag[i] * (v_i + sum_{j>i} mu[i][j] v_j)^2 over rationals,
    so the last coordinates are fixed first and each coordinate ranges over
    the integers that keep the partial sum within the bound.  It visits the
    lattice points of the ellipsoid, not of its bounding box.
    """
    d = len(gi)
    diag, mu = _ldl(gi)
    v = [0] * d

    def level(i: int, budget: Fraction):
        if i < 0:
            yield tuple(v)
            return
        c = -sum((mu[i][j] * v[j] for j in range(i + 1, d)), Fraction(0))
        t = budget / diag[i]
        # |v_i - c| <= sqrt(t) < r, so the range below covers every candidate.
        r = isqrt(t.numerator // t.denominator) + 1
        for x in range(floor(c) - r, ceil(c) + r + 1):
            rest = budget - diag[i] * (x - c) ** 2
            if rest >= 0:
                v[i] = x
                yield from level(i - 1, rest)

    yield from level(d - 1, Fraction(bound))


def _dv_halfspaces(gram) -> tuple[tuple[Vec, ...], list[tuple[Vec, Fraction]]]:
    """Facet vectors v and their halfspaces v.G.x <= v.G.v / 2, in step."""
    g = check_gram(gram)
    rel = relevant_vectors(g)
    halfspaces = []
    for v in rel:
        n = tuple(dot(vec(row), v) for row in g)  # G v
        halfspaces.append((n, gram_norm(g, v) / 2))
    return rel, halfspaces


def dv_cell(gram) -> ratpoly.Polytope:
    """Voronoi cell of the origin: {x : v.G.x <= v.G.v / 2 for facet vectors v}."""
    return ratpoly.from_halfspaces(_dv_halfspaces(gram)[1])


# ---------------------------------------------------------------------------
# Belts.
# ---------------------------------------------------------------------------


def _facet_reflections(cell: ratpoly.Polytope) -> list[dict[int, int]]:
    """Each facet's central reflection about its vertex centroid, as a map
    from the facet's vertex indices to the indices of their images.

    Raises:
        FacetNotCentrallySymmetric: the image of some vertex of a facet is
            not a vertex of that facet.
    """
    ints, _ = ratpoly._int_matrix(cell.vertices)
    out = []
    for inc in cell.incidence:
        # The image of v is 2c - v for the centroid c = s / n; both sides
        # are compared times n, in integers.
        n = len(inc)
        s = [sum(col) for col in zip(*(ints[i] for i in inc))]
        at = {tuple(n * x for x in ints[i]): i for i in inc}
        image = {}
        for i in inc:
            j = at.get(tuple(2 * t - n * x for t, x in zip(s, ints[i])))
            if j is None:
                raise FacetNotCentrallySymmetric(
                    "facet is not symmetric about its center"
                )
            image[i] = j
        out.append(image)
    return out


def belts_of(cell: ratpoly.Polytope) -> list[list[int]]:
    """Belts of a polytope with centrally symmetric facets, as facet-index
    cycles.

    A belt collects the facets sharing translates of a fixed (d-2)-face.
    The walk crosses the current ridge into the next facet, and inside that
    facet moves to the ridge's image under the facet's central reflection,
    which is the parallel opposite ridge.  The ridges come from one pass
    over the facet pairs on vertex bitmasks: two facets meet in a ridge iff
    no third facet holds every vertex they share, since a nonempty face of
    dimension k lies in at least d - k facets and the empty face in all of
    them.  Belts start from the ridges in order of their sorted vertex
    indices, each at the lower-numbered facet through its ridge.  For
    d == 2 the single belt is the cycle of all edges.

    Raises:
        FacetNotCentrallySymmetric: some facet is not symmetric about its
            vertex centroid.
    """
    reflections = _facet_reflections(cell)
    d = cell.dim
    if d < 2:
        return []
    if d == 2:
        return [list(range(len(cell.facets)))]
    masks = [sum(1 << i for i in inc) for inc in cell.incidence]
    # (sorted vertex indices, mask, facet a, facet b) for each ridge, a < b.
    found = []
    for a, b in itertools.combinations(range(len(masks)), 2):
        common = masks[a] & masks[b]
        if sum(m & common == common for m in masks) == 2:
            found.append((ratpoly.bit_indices(common), common, a, b))
    found.sort()
    index = {mask: i for i, (_, mask, _, _) in enumerate(found)}
    belts: list[list[int]] = []
    seen_ridges: set[int] = set()
    for start in range(len(found)):
        if start in seen_ridges:
            continue
        cycle: list[int] = []
        ridge = start
        facet = found[start][2]
        while True:
            seen_ridges.add(ridge)
            cycle.append(facet)
            # Step across the ridge to the other facet.
            verts, _, a, b = found[ridge]
            facet = b if facet == a else a
            # Inside `facet`, move to the ridge's image under its reflection.
            image = reflections[facet]
            ridge = index[sum(1 << image[i] for i in verts)]
            if ridge == start:
                break
        belts.append(cycle)
    return belts


@dataclass(frozen=True)
class VenkovReport:
    """Outcome of the symmetry-and-belts audit of a Voronoi cell."""

    facet_count: int
    centrally_symmetric: bool
    facets_centrally_symmetric: bool
    belt_lengths: tuple[int, ...]
    passed: bool


def venkov_check_cell(cell: ratpoly.Polytope) -> VenkovReport:
    """Audit a tile: central symmetry, facet symmetry, belt sizes.

    The tile must be centrally symmetric (about its own vertex centroid),
    every facet must be symmetric about its own center, and every belt must
    have four or six facets.
    """
    d = cell.ambient_dim
    n = len(cell.vertices)
    centroid = tuple(sum(v[k] for v in cell.vertices) / n for k in range(d))
    vset = set(cell.vertices)
    cs = all(tuple(2 * centroid[k] - v[k] for k in range(d)) in vset for v in cell.vertices)
    try:
        lengths = tuple(sorted(len(b) for b in belts_of(cell)))
        facet_cs = True
    except FacetNotCentrallySymmetric:
        lengths, facet_cs = (), False
    belts_ok = facet_cs and all(l in (4, 6) for l in lengths)
    ok = cs and facet_cs and belts_ok if cell.dim >= 3 else cs and facet_cs
    return VenkovReport(
        facet_count=len(cell.facets),
        centrally_symmetric=cs,
        facets_centrally_symmetric=facet_cs,
        belt_lengths=lengths,
        passed=bool(ok),
    )


# ---------------------------------------------------------------------------
# JSON input for lattices.
# ---------------------------------------------------------------------------


def gram_from_json(obj: dict) -> list[list[Fraction]]:
    g = [[ratpoly.frac_from_json(x) for x in row] for row in obj["gram"]]
    if "dim" in obj and obj["dim"] != len(g):
        raise ValueError("dim field disagrees with gram size")
    return g


def gram_to_json(gram) -> dict:
    g = [[frac(x) for x in row] for row in gram]
    return {
        "dim": len(g),
        "gram": [[ratpoly.frac_to_json(x) for x in row] for row in g],
    }
