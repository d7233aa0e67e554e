"""Exact rational convex geometry: polytopes, cones, and their dual descriptions.

All coordinates are Fractions; every operation is deterministic and returns
canonical data (lexicographically sorted vertices, facet normals scaled to
coprime integers).  Dimensions up to 6 are supported, which covers every
consumer in this package.

Each conversion runs one double description pass (`_extreme_rays`), which
returns every extreme ray with the set of rows tight on it.  from_vertices
runs it over the cone dual to the points.  from_halfspaces converts only
what the package gives it, the irredundant facet rows of a Voronoi cell: it
runs the pass over the homogenized rows and reads each facet's incidence
off those zero sets, so no second hull is built, and a system that is not
such a description is an internal fault.  cone_dual reads a cone's facet
normals off one pass over the cone dual to its generating set, and nothing
reduces that set to minimal generators.

The pass works on integer rows: each distinct row is scaled once to a
primitive integer row, and rays are primitive integer tuples.  A new ray
inherits the common processed zero set of its two parents, so it needs a
dot product only with the rows not yet processed, and a pair of rays that
shares fewer than dim - 2 processed zeros is dropped by a popcount before
the adjacency scan.  The linear algebra around it is one elimination per
hull: from_vertices takes a greedy basis of the point differences and one
inverse of its Gram matrix, which gives every point's coordinates and every
facet's normal; the cone duals lift their normals through the same map.
Fractions appear only in the results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from . import Violation, _lp
from ._lp import Vec, dot, frac, primitive, primitive_ints, vec

MAX_DIM = 6


class GeometryError(Violation):
    """Base class for the geometry-kernel errors."""


class EmptyInput(GeometryError):
    """No points given."""


class Polytope(NamedTuple):
    """Convex polytope with both descriptions.

    vertices are lex-sorted; facets are (normal, offset) pairs meaning
    normal.x <= offset, with primitive integer normals, sorted; equations cut
    out the affine hull (primitive integer normals, first nonzero positive);
    incidence[i] is the set of vertex indices on facet i; dim is the affine
    dimension.
    """

    vertices: tuple[Vec, ...]
    facets: tuple[tuple[Vec, Fraction], ...]
    equations: tuple[tuple[Vec, Fraction], ...]
    incidence: tuple[frozenset[int], ...]
    dim: int

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def contains(self, x: Sequence[Fraction]) -> bool:
        x = vec(x)
        return all(dot(n, x) == b for n, b in self.equations) and all(
            dot(n, x) <= b for n, b in self.facets
        )


# ---------------------------------------------------------------------------
# Double description core.
# ---------------------------------------------------------------------------


class _Lineality(AssertionError):
    """The rows given to _extreme_rays do not span: the cone contains a
    line.  Every caller passes rows that span, so this is an internal
    fault."""


def bit_indices(mask: int) -> list[int]:
    """Positions of the on bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _span_map(basis: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(Q, den) for independent integer vectors b_j: Q = den G^-1 B, with B
    the b_j as rows and G = B B^T their Gram matrix.

    One inverse per hull serves two maps.  For v in the span of the b_j,
    Q.v / den are its coordinates over them.  For any y, Q^T.y is a
    positive multiple of the one vector n in the span with n.b_j = y_j
    (n = B^T G^-1 y, and G^-1 is symmetric).
    """
    ginv, den = _lp.int_inverse([[sum(map(mul, a, b)) for b in basis] for a in basis])
    return [[sum(map(mul, row, col)) for col in zip(*basis)] for row in ginv], den


def _lift(q: list[list[int]], y: Sequence) -> list:
    """Q^T.y for Q from _span_map: a positive multiple of the vector n in
    span(b_j) with n.b_j = y_j."""
    return [sum(map(mul, col, y)) for col in zip(*q)]


def _extreme_rays(rows: list[Vec], dim: int) -> list[tuple[Vec, int]]:
    """Extreme rays of the pointed cone {x : r.x >= 0 for every row r}.

    Returns (ray, zero set) pairs sorted by ray, with primitive rays; bit i of
    the zero set is on iff rows[i].ray == 0.  Rows may hold Fractions or ints.

    Raises _Lineality, an AssertionError, when the rows do not span (the
    cone contains a line).

    Incremental double description with combinatorial adjacency
    (Fukuda-Prodon 1996), in integers.  Each distinct row is scaled once to
    a primitive integer row, which keeps its signs and zero set; rows that
    are positive multiples of one another become one.  Rays are primitive
    integer tuples, turned into Fractions only on return.  When row a is
    added, a ray p with a.p > 0 and a ray q with a.q < 0 give the new ray
    w = (a.p) q - (a.q) p.  Both parents are >= 0 on every processed row,
    so w is zero on one exactly when both are: w inherits their common
    processed zero set, gains a, and needs a dot product only with the
    rows not processed yet.  The pair is adjacent when no other ray is zero
    on all of that common set; a pair sharing fewer than dim - 2 processed
    rows spans a face of dimension 3 or more and is skipped before the scan.
    """
    where: dict = {}
    index: dict[tuple[int, ...], int] = {}
    ints: list[tuple[int, ...]] = []
    for r in sorted(set(rows)):
        p = primitive_ints(r)
        if p not in index:
            index[p] = len(ints)
            ints.append(p)
        where[r] = index[p]
    n = len(ints)
    # One elimination picks a greedy basis of the rows, as _lp.independent
    # does, and inverts it, as _lp.int_inverse does: the k-th row kept
    # carries the k-th unit vector, and a row that adds nothing is dropped
    # with its unit vector.
    elim = _lp.Elimination(dim)
    chosen: list[int] = []
    for i, row in enumerate(ints):
        if len(chosen) == dim:
            break
        if any(elim.add([*row, *(int(k == len(chosen)) for k in range(dim))])[:dim]):
            chosen.append(i)
    if len(chosen) < dim:
        raise _Lineality(f"rows span {len(chosen)} of {dim} dimensions")
    # Initial simplicial cone: ray j is zero on every chosen row but the
    # j-th.  The kept row with pivot c is a positive multiple r[c] of
    # (e_c | row c of the inverse), so column j of the inverse is a positive
    # multiple of (r[dim + j] * (den // r[c]))_c.
    inv = [r for _, r in sorted(zip(elim.pivots, elim.rows))]
    den = lcm(*(r[c] for c, r in enumerate(inv)))
    rays = [primitive_ints([r[dim + j] * (den // r[c]) for c, r in enumerate(inv)])
            for j in range(dim)]
    # vals[j][i] = ints[i].rays[j], kept for the rows that were not yet
    # processed when ray j was made; zero[j] is ray j's zero set.
    vals = [[sum(map(mul, row, ray)) for row in ints] for ray in rays]
    zero = [sum(1 << i for i, v in enumerate(vs) if not v) for vs in vals]
    processed = sum(1 << i for i in chosen)
    todo = [i for i in range(n) if not processed >> i & 1]
    for step, idx in enumerate(todo):
        bit = 1 << idx
        col = [vs[idx] for vs in vals]
        neg = [j for j, v in enumerate(col) if v < 0]
        if not neg:
            processed |= bit
            continue
        pos = [j for j, v in enumerate(col) if v > 0]
        later = todo[step + 1:]
        zp = [z & processed for z in zero]
        new_rays, new_vals, new_zero = [], [], []
        for jp in pos:
            a, rp, zjp = col[jp], rays[jp], zp[jp]
            for jn in neg:
                common = zjp & zp[jn]
                if common.bit_count() < dim - 2:
                    continue
                hits = 0
                for z in zp:
                    if z & common == common:
                        hits += 1
                        if hits > 2:
                            break
                if hits > 2:
                    continue
                b = col[jn]
                w = [a * y - b * x for x, y in zip(rp, rays[jn])]
                g = gcd(*w)
                if g > 1:
                    w = [x // g for x in w]
                vs = [0] * n
                m = common | bit
                for i in later:
                    v = vs[i] = sum(map(mul, ints[i], w))
                    if not v:
                        m |= 1 << i
                new_rays.append(tuple(w))
                new_vals.append(vs)
                new_zero.append(m)
        keep = [j for j, v in enumerate(col) if v >= 0]
        rays = [rays[j] for j in keep] + new_rays
        vals = [vals[j] for j in keep] + new_vals
        zero = [zero[j] for j in keep] + new_zero
        processed |= bit
    # The zero sets above index the primitive rows; re-index them by the
    # caller's rows (each caller row spreads from one primitive row, so the
    # spreads are disjoint and their sum is their union).
    pos = [where[r] for r in rows]
    if pos != list(range(n)):
        spread = [0] * n
        for i, p in enumerate(pos):
            spread[p] |= 1 << i
        zero = [sum(spread[i] for i in bit_indices(z)) for z in zero]
    return [(tuple(map(Fraction, r)), z) for r, z in sorted(zip(rays, zero))]


def _canonical_facet(n: Vec, b: Fraction) -> tuple[Vec, Fraction]:
    pn = primitive(n)
    k = next(i for i in range(len(n)) if n[i] != 0)
    scale = pn[k] / n[k]
    return pn, b * scale


def _canonical_equation(n: Vec, b: Fraction) -> tuple[Vec, Fraction]:
    pn, b = _canonical_facet(n, b)
    if next(x for x in pn if x) < 0:
        return tuple(-x for x in pn), -b
    return pn, b


def _affine_equations(
    p0: Vec, directions: list[Vec], d: int
) -> tuple[tuple[Vec, Fraction], ...]:
    """Sorted canonical equations of the affine space p0 + span(directions).

    The normals are the nullspace basis read off the reduced row echelon
    form, which depends on the span alone, so any spanning set gives the
    same equations.
    """
    return tuple(
        sorted(_canonical_equation(n, dot(n, p0)) for n in _lp.nullspace(directions, d))
    )


def from_vertices(points: Iterable[Sequence[Fraction]]) -> Polytope:
    """Convex hull with canonical facet description.

    One elimination per hull: a greedy basis of the point differences and
    one inverse of its Gram matrix (`_span_map`) give every point's
    coordinates and every facet's normal.  The facets are the extreme rays
    of the cone dual to the points in those coordinates, and each ray's
    zero set is the set of points on its facet.  A point is a vertex iff it
    is the only point on every facet through it, which also drops redundant
    interior and boundary points.

    Args:
        points: nonempty iterable of equal-length rational points.

    Returns:
        Polytope with lex-sorted vertices (redundant points removed), facets,
        and affine-hull equations.

    Raises:
        EmptyInput: when no points are given.
    """
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise EmptyInput("no points given")
    d = len(pts[0])
    if d > MAX_DIM:
        raise ValueError(f"ambient dimension {d} above supported bound {MAX_DIM}")
    if any(len(p) != d for p in pts):
        raise ValueError("points have mixed dimensions")
    # The points times one common denominator, and their differences.
    ipts, scale = _lp.int_matrix(pts)
    diffs = [tuple(x - y for x, y in zip(p, ipts[0])) for p in ipts]
    basis = [diffs[i] for i in _lp.independent(diffs, d)]
    k = len(basis)
    equations = _affine_equations(pts[0], basis, d)
    if k == 0:
        return Polytope(
            vertices=(pts[0],), facets=(), equations=equations, incidence=(), dim=0
        )
    # Row i of the dual cone {(y, s) : c_i.y + s >= 0}, with c_i the
    # coordinates of point i over the basis, is taken times den.
    q, den = _span_map(basis)
    rows = [tuple(sum(map(mul, row, df)) for row in q) + (den,) for df in diffs]
    facets = []
    meet = [(1 << len(pts)) - 1] * len(pts)
    for ray, on in _extreme_rays(rows, k + 1):
        # Facet (-y).c <= s in coordinates; its ambient normal is a positive
        # multiple of the lift of -y, and its offset is read off a point on it.
        n = _lift(q, [-x.numerator for x in ray[:k]])
        g = gcd(*n)
        first = (on & -on).bit_length() - 1
        facets.append((
            tuple(Fraction(x // g) for x in n),
            Fraction(sum(map(mul, n, ipts[first])), scale * g),
            on,
        ))
        for i in bit_indices(on):
            meet[i] &= on
    facets.sort()
    vert_index = {}
    for i in range(len(pts)):
        if meet[i] == 1 << i:
            vert_index[i] = len(vert_index)
    return Polytope(
        vertices=tuple(pts[i] for i in vert_index),
        facets=tuple((n, b) for n, b, _ in facets),
        equations=equations,
        incidence=tuple(
            frozenset(j for i, j in vert_index.items() if on >> i & 1)
            for _, _, on in facets
        ),
        dim=k,
    )


def from_halfspaces(
    halfspaces: Iterable[tuple[Sequence[Fraction], Fraction]],
) -> Polytope:
    """Polytope of an irredundant H-description of a full-dimensional
    bounded polyhedron: the rows normal.x <= offset.

    Every system tilekit converts is a Voronoi cell given by the halfspaces
    of its relevant vectors, and each relevant vector is a facet vector
    (Voronoi 1908), so the solution set is nonempty, bounded and
    full-dimensional and every row is a facet.  One double description pass
    over the homogenized rows gives the vertices and, for each vertex, the
    rows tight on it; a row's tight vertices are its facet's incidence, and
    its normal scaled to a primitive integer row is the facet's normal.  The
    result is the same canonical Polytope that from_vertices builds from the
    vertices.

    Args:
        halfspaces: nonempty list of (normal, offset) pairs meaning
            normal.x <= offset.

    Returns:
        canonical Polytope of the solution set, with one facet per row.

    Raises:
        ValueError: no rows, or dimension above MAX_DIM.
        AssertionError: the system breaks the precondition (the solution
            set has a line, which the pass reports as _Lineality, or a
            recession direction, or a row is not a facet or repeats one):
            a fault in whatever built the rows.
    """
    hs = [(vec(n), frac(b)) for n, b in halfspaces]
    if not hs:
        raise ValueError("empty system")
    d = len(hs[0][0])
    if d > MAX_DIM:
        raise ValueError(f"ambient dimension {d} above supported bound {MAX_DIM}")
    # Homogenize: rays (x, t) with b t - n.x >= 0 and t >= 0.
    rows = [tuple(-x for x in n) + (b,) for n, b in hs]
    rows.append(tuple(Fraction(0) for _ in range(d)) + (Fraction(1),))
    verts = []
    for ray, zero in _extreme_rays(rows, d + 1):
        t = ray[d]
        if t <= 0:
            raise AssertionError("halfspace system has a recession direction")
        verts.append((tuple(x / t for x in ray[:d]), zero))
    verts.sort()
    points = tuple(v for v, _ in verts)
    # tight[i]: bit j on iff row i is tight on points[j].  No vertex has
    # t = 0, so the zero sets never hold the last, homogenizing row.
    tight = [0] * len(hs)
    for j, (_, zero) in enumerate(verts):
        for i in bit_indices(zero):
            tight[i] |= 1 << j
    # Every row is a facet iff no row's vertex set lies inside another's
    # (Fukuda-Prodon): an implicit equation's set holds every other one, a
    # redundant or repeated row's lies inside a facet's, and an empty
    # system's sets are all empty.
    facets = []
    for i, t in enumerate(tight):
        if any(u & t == t for j, u in enumerate(tight) if j != i):
            raise AssertionError(f"halfspace row {i} is not a facet")
        on = frozenset(j for j in range(len(points)) if t >> j & 1)
        facets.append(_canonical_facet(*hs[i]) + (on,))
    facets.sort()
    return Polytope(
        vertices=points,
        facets=tuple((n, b) for n, b, _ in facets),
        equations=(),
        incidence=tuple(on for _, _, on in facets),
        dim=d,
    )


# ---------------------------------------------------------------------------
# Face lattice.
# ---------------------------------------------------------------------------


def face_lattice(p: Polytope) -> list[tuple[int, int]]:
    """Every nonempty face of p, p itself included, as (dimension, vertex
    bitmask) pairs; bit i is on iff p.vertices[i] lies on the face.  Ordered
    by dimension, then by sorted vertex indices.

    Faces are the nonempty intersections of facet vertex sets, found breadth
    first on bitmasks.  Dimension is rank in the face lattice, read off the
    incidences alone (Kaibel and Pfetsch, Comput. Geom. 2002): a vertex has
    dimension 0, and any other face one more than the largest face it cuts
    from a facet of p, since its own facets are among those cuts.
    """
    full = (1 << len(p.vertices)) - 1
    facet_masks = [sum(1 << i for i in inc) for inc in p.incidence]
    cuts: dict[int, set[int]] = {}
    frontier = {full}
    while frontier:
        for f in frontier:
            cuts[f] = {f & fm for fm in facet_masks} - {0, f}
        frontier = {g for f in frontier for g in cuts[f]} - cuts.keys()
    # A cut has fewer vertices than the face it is cut from.
    dims: dict[int, int] = {}
    for f in sorted(cuts, key=int.bit_count):
        dims[f] = 1 + max((dims[g] for g in cuts[f]), default=-1)
    return sorted(((k, f) for f, k in dims.items()),
                  key=lambda t: (t[0], bit_indices(t[1])))


# ---------------------------------------------------------------------------
# Cones.
# ---------------------------------------------------------------------------


def cone_dual(gens: list[Vec], d: int) -> tuple[list[Vec], list[Vec]]:
    """Facet normals (f.x >= 0 form) and span equations of cone(gens), for
    a nonempty list of nonzero generators in R^d.

    One double description pass over the generators' coordinates in their
    span.  The generators need not be extreme rays, nor distinct; both
    lists are sorted, the normals primitive and lying in the span.
    """
    span_basis, pivots = _lp.rref(gens)
    eqs = _lp.echelon_nullspace(span_basis, pivots, d)
    # A generator's coordinates over the reduced rows are its pivot entries.
    coords = [tuple(g[c] for c in pivots) for g in gens]
    rays = _extreme_rays(coords, len(span_basis))
    q, _ = _span_map(_lp.int_matrix(span_basis)[0])
    normals = [primitive(_lift(q, r)) for r, _ in rays]
    return sorted(normals), sorted(eqs)


def is_skinny(p: Polytope) -> bool:
    """No direction illuminates two distinct vertices of p.

    For every vertex pair this asks whether some direction points strictly
    into the polytope from both vertices at once (an exact strict-feasibility
    problem over the active facet normals).
    """
    nv = len(p.vertices)
    if nv <= 1:
        return True
    eqs = [n for n, _ in p.equations]
    active = []
    for vi in range(nv):
        rows = [
            tuple(-x for x in n)
            for (n, b), inc in zip(p.facets, p.incidence)
            if vi in inc
        ]
        active.append(rows)
    d = p.ambient_dim
    for i in range(nv):
        for j in range(i + 1, nv):
            witness = _lp.strictly_feasible(active[i] + active[j], eqs, d)
            if witness is not None:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON encoding ([num, den] pairs; decimal strings beyond 63-bit magnitudes).
# ---------------------------------------------------------------------------

_BIG = 2**63


def frac_to_json(x: Fraction):
    n, d = x.numerator, x.denominator
    return [str(n) if abs(n) >= _BIG else n, str(d) if d >= _BIG else d]


def frac_from_json(obj) -> Fraction:
    """An integer, a decimal string or a [num, den] pair of them.

    Raises:
        TypeError: a component is neither an int nor a str; a float or a
            bool would otherwise be truncated to an int.
    """
    if isinstance(obj, (list, tuple)):
        n, d = obj
        return Fraction(_int_from_json(n), _int_from_json(d))
    return Fraction(_int_from_json(obj))


def _int_from_json(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"{x!r} is not an integer or a decimal string")
    return int(x)


def vec_to_json(v: Sequence[Fraction]):
    return [frac_to_json(x) for x in v]


def polytope_to_json(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": [vec_to_json(v) for v in p.vertices],
        "facets": [
            {"normal": vec_to_json(n), "offset": frac_to_json(b)} for n, b in p.facets
        ],
    }
