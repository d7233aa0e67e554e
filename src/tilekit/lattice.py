"""Voronoi cells of lattices given by rational Gram matrices.

The lattice is Z^d with inner product <x, y> = x.G.y for a symmetric positive
definite rational G.  Facet vectors of the Voronoi cell around the origin are
found exactly as the strict norm minimizers of the nonzero classes of
Z^d / 2Z^d.  The search for them runs in an LLL-reduced basis, computed
over exact rationals like everything else, and its results are mapped back
to the given basis; no floating point is involved.
"""

from __future__ import annotations

import itertools
from functools import cache
from fractions import Fraction
from math import ceil, floor, isqrt
from typing import NamedTuple, Sequence

from . import Violation, _lp, ratpoly
from ._lp import Vec, dot, frac, vec


class FacetNotCentrallySymmetric(Violation):
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
    # While rows 0..k-1 have pivoted on columns 0..k-1, row k reduces to
    # zero before column k, and its entry there has the sign of the k-th
    # leading minor over the (k-1)-th.  So G is positive definite iff every
    # row pivots on its own column with a positive entry (Sylvester).
    e = _lp.Elimination(d)
    if any(e.add(row)[k] <= 0 for k, row in enumerate(g)):
        raise ValueError("gram matrix must be positive definite")
    return g


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
    the search runs in an LLL-reduced basis (see _lll) and enumerates every
    lattice vector of norm at most a bound on all class minima (see
    _short_vectors).  The reduction's unimodular U maps Z^d / 2Z^d onto
    itself, so each nonzero class has a 0/1 representative r in the reduced
    basis and one, U r mod 2, in the given basis; its minimum is at most
    the smaller of their norms, and the bound is the largest of these.
    Each vector found is mapped back through U, so the result does not
    depend on the reduction, only the time taken does.

    Returns:
        lex-sorted tuple of integer vectors (both signs included).
    """
    gi = _lp.int_matrix(check_gram(gram))[0]  # integer form for fast comparisons
    d = len(gi)

    def q(v):
        return sum(v[i] * gi[i][j] * v[j] for i in range(d) for j in range(d))

    u, diag, mu = _lll(gi)

    def image(w):  # reduced-basis coordinates -> given coordinates
        return tuple(sum(u[i][j] * w[j] for j in range(d)) for i in range(d))

    bound = 0  # integerized upper bound on every class minimum
    for r in itertools.product((0, 1), repeat=d):
        if any(r):
            v = image(r)
            bound = max(bound, min(q(v), q([x & 1 for x in v])))
    best: dict[tuple, int] = {}
    argmin: dict[tuple, list] = {}
    for w in _short_vectors(diag, mu, bound):
        v = image(w)
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


def reduced_basis(gram) -> tuple[tuple[tuple[int, ...], ...], list[list[int]]]:
    """(u, u^-1), where the columns of the unimodular u are the LLL-reduced
    basis that relevant_vectors searches in.  _lll is cached, so after
    relevant_vectors of the same Gram this runs no second reduction.
    """
    u = _lll(_lp.int_matrix(gram)[0])[0]
    inv, den = _lp.int_inverse(u)
    return u, [[x // den for x in row] for row in inv]


@cache
def _lll(g: tuple[tuple, ...]) -> tuple[tuple, tuple, tuple]:
    """LLL reduction with delta = 3/4 of the basis of a positive definite
    rational Gram matrix g, given as a tuple of rows.

    Lenstra-Lenstra-Lovasz (1982) in the Gram-matrix form of Cohen, "A
    Course in Computational Algebraic Number Theory", Alg. 2.6.3, over exact
    rationals.  Only the Gram-Schmidt data are updated; a new row of them is
    computed from u^T g u when the scan first reaches its index.  As in
    Cohen's algorithm, b_k is shifted only while some |mu[k][l]| > 1/2, so
    a basis that is already reduced comes back with u = I.  Cached per
    Gram: the relevant-vector search and the tiling's lattice-point scans
    (reduced_basis) share one reduction.

    Returns (u, diag, mu): the columns of the unimodular integer matrix u
    are the reduced basis in the given coordinates, and u^T g u = L D L^T
    with D = diag and L[k][j] = mu[k][j] for j < k, where |mu[k][j]| <= 1/2
    and diag[k] >= (3/4 - mu[k][k-1]^2) diag[k-1].
    """
    d = len(g)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    diag = [frac(g[0][0])] + [Fraction(0)] * (d - 1)
    mu = [[Fraction(0)] * d for _ in range(d)]

    def reduce(k: int, l: int) -> None:  # b_k -= round(mu[k][l]) b_l
        if abs(mu[k][l]) > Fraction(1, 2):
            m = floor(mu[k][l] + Fraction(1, 2))
            for row in u:
                row[k] -= m * row[l]
            mu[k][l] -= m
            for i in range(l):
                mu[k][i] -= m * mu[l][i]

    k, kmax = 1, 0
    while k < d:
        if k > kmax:
            kmax = k
            gk = [sum(g[i][j] * u[j][k] for j in range(d)) for i in range(d)]
            for j in range(k + 1):
                a = sum(u[i][j] * gk[i] for i in range(d))  # b_j . b_k
                a -= sum((mu[j][i] * mu[k][i] * diag[i] for i in range(j)), Fraction(0))
                if j < k:
                    mu[k][j] = a / diag[j]
                else:
                    diag[k] = a
        reduce(k, k - 1)
        if diag[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * diag[k - 1]:
            # Swap b_{k-1} and b_k and update the Gram-Schmidt data.
            for row in u:
                row[k - 1], row[k] = row[k], row[k - 1]
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            m = mu[k][k - 1]
            b = diag[k] + m * m * diag[k - 1]
            mu[k][k - 1] = m * diag[k - 1] / b
            diag[k] = diag[k - 1] * diag[k] / b
            diag[k - 1] = b
            for i in range(k + 1, kmax + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return tuple(map(tuple, u)), tuple(diag), tuple(map(tuple, mu))


def _short_vectors(diag: Sequence[Fraction], mu: Sequence[Sequence[Fraction]], bound: int):
    """Every integer vector w with w.A.w <= bound, for the positive definite
    A = L D L^T given by its pivots D = diag and multipliers
    L[k][j] = mu[k][j], j < k (as _lll returns them for the reduced Gram).

    Exact Fincke-Pohst enumeration (Fincke-Pohst 1985):
    w.A.w = sum_i diag[i] * (w_i + sum_{j>i} mu[j][i] w_j)^2 over rationals,
    so the last coordinates are fixed first and each coordinate ranges over
    the integers that keep the partial sum within the bound.  It visits the
    lattice points of the ellipsoid, not of its bounding box; in an
    LLL-reduced basis the partial sums cannot grow far past the bound, so
    the work is bounded for every basis of the same lattice.
    """
    d = len(diag)
    w = [0] * d

    def level(i: int, budget: Fraction):
        if i < 0:
            yield tuple(w)
            return
        c = -sum((mu[j][i] * w[j] for j in range(i + 1, d)), Fraction(0))
        t = budget / diag[i]
        # |w_i - c| <= sqrt(t) < r, so the range below covers every candidate.
        r = isqrt(t.numerator // t.denominator) + 1
        for x in range(floor(c) - r, ceil(c) + r + 1):
            rest = budget - diag[i] * (x - c) ** 2
            if rest >= 0:
                w[i] = x
                yield from level(i - 1, rest)

    yield from level(d - 1, Fraction(bound))


def _dv_halfspaces(gram) -> tuple[tuple[Vec, ...], list[tuple[Vec, Fraction]]]:
    """Facet vectors v and their halfspaces v.G.x <= v.G.v / 2, in step.

    The Gram matrix is checked once, by relevant_vectors.
    """
    rel = relevant_vectors(gram)
    g = [[frac(x) for x in row] for row in gram]
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
    ints, _ = _lp.int_matrix(cell.vertices)
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


class VenkovReport(NamedTuple):
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
