"""Exact rational convex geometry: polytopes, cones, and their dual descriptions.

All coordinates are Fractions; every operation is deterministic and returns
canonical data (lexicographically sorted vertices, facet normals scaled to
coprime integers).  Dimensions up to 6 are supported, which covers every
consumer in this package.

Each conversion runs one double description pass (`_extreme_rays`), which
returns every extreme ray with the set of rows tight on it.  from_vertices
runs it over the cone dual to the points; from_halfspaces runs it over the
homogenized rows and reads the facets and the incidence off those zero sets,
so no second hull is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _lp
from ._lp import Vec, dot, frac, is_zero, primitive, vec, vsub

MAX_DIM = 6


class GeometryError(Exception):
    """Base class for the geometry-kernel errors."""


class EmptyInput(GeometryError):
    """No points given, or a halfspace system with empty solution set."""


class UnboundedInput(GeometryError):
    """A halfspace system defines an unbounded set but vertices were requested."""


class KernelNotIndependent(GeometryError):
    """Projection kernel vectors are linearly dependent (or contain zero)."""


class NotAVertex(GeometryError):
    """The given point is not a vertex of the polytope."""


class NotSeparable(GeometryError):
    """No hyperplane keeps both relative interiors in opposite open halves."""


class ZeroDirection(GeometryError):
    """A direction argument was the zero vector."""


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane normal.x == offset (normal is a primitive int vector)."""

    normal: Vec
    offset: Fraction


@dataclass(frozen=True)
class Polytope:
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

    def translate(self, t: Sequence[Fraction]) -> Polytope:
        t = vec(t)
        return Polytope(
            vertices=tuple(_lp.vadd(v, t) for v in self.vertices),
            facets=tuple((n, b + dot(n, t)) for n, b in self.facets),
            equations=tuple((n, b + dot(n, t)) for n, b in self.equations),
            incidence=self.incidence,
            dim=self.dim,
        )

    def lin_basis(self) -> list[Vec]:
        """Basis of the direction space lin(P - P)."""
        if not self.equations:
            return _lp.nullspace([], self.ambient_dim)
        return _lp.nullspace([n for n, _ in self.equations], self.ambient_dim)


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone with apex translated to `apex`.

    Constraints apply to x - apex: halfspace normals n mean n.(x - apex) <= 0,
    equations mean n.(x - apex) == 0.  generators are primitive direction
    vectors (extreme rays modulo the lineality part, plus a +/- basis of the
    lineality space).
    """

    apex: Vec
    generators: tuple[Vec, ...]
    halfspaces: tuple[Vec, ...]
    equations: tuple[Vec, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.apex)


# ---------------------------------------------------------------------------
# Double description core.
# ---------------------------------------------------------------------------


class _Lineality(Exception):
    pass


def _extreme_rays(rows: list[Vec], dim: int) -> list[tuple[Vec, int]]:
    """Extreme rays of the pointed cone {x : r.x >= 0 for every row r}.

    Returns (ray, zero set) pairs sorted by ray, with primitive rays; bit i of
    the zero set is on iff rows[i].ray == 0.

    Raises _Lineality when the rows do not span (cone contains a line).
    Incremental double description with combinatorial adjacency.
    """
    given = rows
    rows = sorted(set(rows))
    # Initial simplicial cone from dim independent rows.
    chosen: list[int] = []
    cur: list[Vec] = []
    for i, r in enumerate(rows):
        if _lp.rank(cur + [r]) > len(cur):
            chosen.append(i)
            cur.append(r)
        if len(cur) == dim:
            break
    if len(cur) < dim:
        raise _Lineality
    inv = _lp.invert(cur)
    rays = [primitive([inv[i][j] for i in range(dim)]) for j in range(dim)]
    chosen_set = set(chosen)
    # zero-set bitmask over row indices (all rows, processed or not yet).
    zmask = []
    for j, ray in enumerate(rays):
        m = 0
        for i in range(len(rows)):
            if dot(rows[i], ray) == 0:
                m |= 1 << i
        zmask.append(m)
    processed = 0
    for i in chosen:
        processed |= 1 << i
    for idx, a in enumerate(rows):
        if idx in chosen_set:
            continue
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed |= 1 << idx
            continue
        pos = [j for j, v in enumerate(vals) if v > 0]
        zer = [j for j, v in enumerate(vals) if v == 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        new_rays: list[Vec] = []
        new_masks: list[int] = []
        for jp, jn in itertools.product(pos, neg):
            common = zmask[jp] & zmask[jn] & processed
            adjacent = True
            for jo in range(len(rays)):
                if jo in (jp, jn):
                    continue
                if (zmask[jo] & common) == common:
                    adjacent = False
                    break
            if not adjacent:
                continue
            w = primitive(
                [vals[jp] * rays[jn][k] - vals[jn] * rays[jp][k] for k in range(dim)]
            )
            m = 0
            for i in range(len(rows)):
                if dot(rows[i], w) == 0:
                    m |= 1 << i
            new_rays.append(w)
            new_masks.append(m)
        keep = pos + zer
        rays = [rays[j] for j in keep] + new_rays
        zmask = [zmask[j] for j in keep] + new_masks
        processed |= 1 << idx
        # De-duplicate (defensive; exact adjacency should already prevent it).
        seen: dict[Vec, int] = {}
        ded_r, ded_m = [], []
        for r, m in zip(rays, zmask):
            if r not in seen:
                seen[r] = 1
                ded_r.append(r)
                ded_m.append(m)
        rays, zmask = ded_r, ded_m
    # The zero sets above index the sorted distinct rows; re-index them by
    # the caller's rows.
    where = {r: i for i, r in enumerate(rows)}
    pos = [where[r] for r in given]
    if pos != list(range(len(rows))):
        zmask = [
            sum(1 << i for i, p in enumerate(pos) if m >> p & 1) for m in zmask
        ]
    return sorted(zip(rays, zmask))


def _affine_coords(points: list[Vec]):
    """Split points into (origin, direction basis, coordinates per point)."""
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points]
    basis: list[Vec] = []
    for d in diffs:
        if _lp.rank(basis + [d]) > len(basis):
            basis.append(d)
    coords = []
    for d in diffs:
        if basis:
            sol = _lp.solve_affine(list(zip(*basis)), d)
            coords.append(sol[0])
        else:
            coords.append(())
    return p0, basis, coords


def _lift_normal(yhat: Vec, basis: list[Vec]) -> Vec:
    """Ambient normal n in span(basis) with n.b_j = yhat_j for each j."""
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    sol = _lp.solve_affine(gram, yhat)
    coeffs = sol[0]
    d = len(basis[0])
    return tuple(
        sum((coeffs[l] * basis[l][k] for l in range(len(basis))), Fraction(0))
        for k in range(d)
    )


def _canonical_facet(n: Vec, b: Fraction) -> tuple[Vec, Fraction]:
    pn = primitive(n)
    k = next(i for i in range(len(n)) if n[i] != 0)
    scale = pn[k] / n[k]
    return pn, b * scale


def _canonical_equation(n: Vec, b: Fraction) -> tuple[Vec, Fraction]:
    pn = primitive(n)
    k = next(i for i in range(len(n)) if n[i] != 0)
    scale = pn[k] / n[k]
    b = b * scale
    for x in pn:
        if x != 0:
            if x < 0:
                pn = tuple(-y for y in pn)
                b = -b
            break
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
    p0, basis, coords = _affine_coords(pts)
    k = len(basis)
    equations = _affine_equations(p0, [vsub(p, p0) for p in pts[1:]], d)
    if k == 0:
        return Polytope(
            vertices=(p0,), facets=(), equations=equations, incidence=(), dim=0
        )
    # Facets of the full-dimensional image: extreme rays of the dual cone
    # {(y, s) : v.y + s >= 0 for all points v}.
    rows = [tuple(c) + (Fraction(1),) for c in coords]
    rays = _extreme_rays(rows, k + 1)
    facets = []
    for ray, _ in rays:
        yhat, s = ray[:k], ray[k]
        # Facet (-yhat).y <= s in image coordinates.
        n_img = tuple(-y for y in yhat)
        n_amb = _lift_normal(n_img, basis)
        facets.append(_canonical_facet(n_amb, s + dot(n_amb, p0)))
    facets.sort()
    # True vertex set: points not in the hull of the others are exactly the
    # points lying on some dim-many facets with full rank; equivalently the
    # points that are the unique maximizers... use incidence count: a point of
    # the hull is a vertex iff its active facet normals span the direction
    # space.  Redundant interior/boundary points are dropped.
    verts = []
    for p in pts:
        active = [n for n, b in facets if dot(n, p) == b]
        if _lp.rank(active + [tuple(n) for n, _ in equations]) == d:
            verts.append(p)
    verts.sort()
    incidence = tuple(
        frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
        for n, b in facets
    )
    return Polytope(
        vertices=tuple(verts),
        facets=tuple(facets),
        equations=equations,
        incidence=incidence,
        dim=k,
    )


def from_halfspaces(
    halfspaces: Iterable[tuple[Sequence[Fraction], Fraction]],
    equations: Iterable[tuple[Sequence[Fraction], Fraction]] = (),
    dim: int | None = None,
) -> Polytope:
    """Bounded solution set of normal.x <= offset rows (plus equation rows).

    One double description pass over the homogenized rows gives the vertices
    and, for each vertex, the rows tight on it.  Everything else is read off
    those zero sets (Fukuda-Prodon's combinatorial facet test): rows tight on
    every vertex are implicit equations and, with the given equations, cut
    out the affine hull; the facets are the rows whose vertex sets are
    inclusion-maximal among the rest, and those sets are the incidence.  A
    facet's normal is its row's normal projected onto the direction space,
    which is a positive multiple of the facet's own normal, so the result is
    the same canonical Polytope that from_vertices builds from the vertices.

    Args:
        halfspaces: (normal, offset) pairs meaning normal.x <= offset.
        equations: (normal, offset) pairs meaning normal.x == offset.
        dim: ambient dimension (required when both lists are empty).

    Returns:
        canonical Polytope of the solution set.

    Raises:
        EmptyInput: the system has no solution.
        UnboundedInput: the solution set is unbounded.
    """
    hs = [(vec(n), frac(b)) for n, b in halfspaces]
    eqs = [(vec(n), frac(b)) for n, b in equations]
    if hs:
        d = len(hs[0][0])
    elif eqs:
        d = len(eqs[0][0])
    elif dim is not None:
        d = dim
    else:
        raise ValueError("empty system with no dimension given")
    if d > MAX_DIM:
        raise ValueError(f"ambient dimension {d} above supported bound {MAX_DIM}")
    # Eliminate equations.
    if eqs:
        sol = _lp.solve_affine([n for n, _ in eqs], [b for _, b in eqs])
        if sol is None:
            raise EmptyInput("equation system is inconsistent")
        x0, null = sol
    else:
        x0 = tuple(Fraction(0) for _ in range(d))
        null = _lp.nullspace([], d)
    m = len(null)
    if m == 0:
        if all(dot(n, x0) <= b for n, b in hs):
            return Polytope(
                vertices=(x0,), facets=(), equations=_affine_equations(x0, [], d),
                incidence=(), dim=0,
            )
        raise EmptyInput("system has no solution")
    # Reduced inequalities a.z <= c over z in R^m, x = x0 + N z; kept[i] is
    # the input row behind red[i].
    red = []
    kept = []
    for n, b in hs:
        a = tuple(dot(n, nb) for nb in null)
        c = b - dot(n, x0)
        if is_zero(a):
            if c < 0:
                raise EmptyInput("system has no solution")
            continue
        red.append((a, c))
        kept.append((n, b))
    # Homogenize: rays (z, t) with c t - a.z >= 0 and t >= 0.
    rows = [tuple(-x for x in a) + (c,) for a, c in red]
    rows.append(tuple(Fraction(0) for _ in range(m)) + (Fraction(1),))
    try:
        rays = _extreme_rays(rows, m + 1)
    except _Lineality:
        # The recession cone contains a line, or the system is empty.
        res = _lp.maximize(
            tuple(Fraction(0) for _ in range(m)),
            [a for a, _ in red],
            [c for _, c in red],
        )
        if res.status == "infeasible":
            raise EmptyInput("system has no solution") from None
        raise UnboundedInput("solution set contains a line") from None
    verts = []
    for ray, zero in rays:
        z, t = ray[:m], ray[m]
        if t == 0:
            raise UnboundedInput("solution set has a recession direction")
        zz = tuple(x / t for x in z)
        x = _lp.vadd(x0, tuple(dot(nb_row, zz) for nb_row in zip(*null)))
        verts.append((x, zero))
    if not verts:
        raise EmptyInput("system has no solution")
    verts.sort()
    points = tuple(v for v, _ in verts)
    # tight[i]: bit j on iff input row kept[i] is tight on points[j].
    tight = [0] * len(red)
    for j, (_, zero) in enumerate(verts):
        while zero:
            low = zero & -zero
            tight[low.bit_length() - 1] |= 1 << j
            zero ^= low
    everywhere = (1 << len(points)) - 1
    # Rows tight on every vertex are implicit equations; with the given
    # equations they cut out the affine hull, whose direction space is lin.
    lin = _lp.nullspace(
        [n for n, _ in eqs]
        + [kept[i][0] for i, t in enumerate(tight) if t == everywhere],
        d,
    )
    equations_out = _affine_equations(points[0], lin, d)
    k = len(lin)
    if k == 0:
        return Polytope(
            vertices=points, facets=(), equations=equations_out, incidence=(), dim=0
        )
    first_row: dict[int, int] = {}
    for i, t in enumerate(tight):
        if t != everywhere:
            first_row.setdefault(t, i)
    facets = []
    for t, i in first_row.items():
        if any(u != t and u & t == t for u in first_row):
            continue  # a face inside some facet
        n, b = kept[i]
        if k < d:
            n = _lift_normal(tuple(dot(n, l) for l in lin), lin)
            b = dot(n, points[(t & -t).bit_length() - 1])
        on = frozenset(j for j in range(len(points)) if t >> j & 1)
        facets.append(_canonical_facet(n, b) + (on,))
    facets.sort()
    return Polytope(
        vertices=points,
        facets=tuple((n, b) for n, b, _ in facets),
        equations=equations_out,
        incidence=tuple(on for _, _, on in facets),
        dim=k,
    )


def dual_description(
    vertices: Iterable[Sequence[Fraction]] | None = None,
    halfspaces: Iterable[tuple[Sequence[Fraction], Fraction]] | None = None,
    equations: Iterable[tuple[Sequence[Fraction], Fraction]] = (),
    dim: int | None = None,
) -> Polytope:
    """Complete a one-sided description into a canonical Polytope.

    Exactly one of `vertices` / `halfspaces` must be given.
    """
    if (vertices is None) == (halfspaces is None):
        raise ValueError("give exactly one of vertices or halfspaces")
    if vertices is not None:
        return from_vertices(vertices)
    return from_halfspaces(halfspaces, equations, dim)


# ---------------------------------------------------------------------------
# Face lattice.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope as vertex-index sets, graded by dimension.

    faces_by_dim maps dimension (-1 for the empty face through p.dim) to the
    sorted tuple of faces; each face is a frozenset of vertex indices.
    """

    faces_by_dim: dict[int, tuple[frozenset[int], ...]]

    def all_faces(self):
        for d in sorted(self.faces_by_dim):
            yield from ((d, f) for f in self.faces_by_dim[d])

    def f_vector(self) -> tuple[int, ...]:
        top = max(self.faces_by_dim)
        return tuple(len(self.faces_by_dim.get(k, ())) for k in range(top))

    def hasse_edges(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """Cover pairs (lower face, upper face), dims differing by one."""
        out = []
        dims = sorted(self.faces_by_dim)
        for lo, hi in zip(dims, dims[1:]):
            for f in self.faces_by_dim[lo]:
                for g in self.faces_by_dim[hi]:
                    if f < g or (lo == -1 and f <= g):
                        out.append((f, g))
        return out


def face_lattice(p: Polytope) -> FaceLattice:
    """Every face of p (empty face and p itself included).

    Faces are intersections of facet vertex-sets; dimension is the affine rank
    of the face's vertices.
    """
    full = frozenset(range(len(p.vertices)))
    facet_sets = list(p.incidence)
    found: set[frozenset[int]] = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for f in frontier:
            for fs in facet_sets:
                g = f & fs
                if g != f and g not in found:
                    found.add(g)
                    nxt.append(g)
        frontier = nxt
    found.add(frozenset())
    by_dim: dict[int, list[frozenset[int]]] = {}
    for f in found:
        if not f:
            d = -1
        else:
            vs = [p.vertices[i] for i in sorted(f)]
            d = _lp.rank([vsub(v, vs[0]) for v in vs[1:]]) if len(vs) > 1 else 0
        by_dim.setdefault(d, []).append(f)
    return FaceLattice(
        faces_by_dim={
            d: tuple(sorted(fs, key=lambda f: tuple(sorted(f))))
            for d, fs in sorted(by_dim.items())
        }
    )


# ---------------------------------------------------------------------------
# Projection.
# ---------------------------------------------------------------------------


def project(p: Polytope, kernel: Sequence[Sequence[Fraction]]) -> Polytope:
    """Image of p under the linear projection killing the kernel vectors.

    The image space is the coordinate complement: standard basis vectors are
    added greedily (in index order) to the kernel to form a basis, and the
    image of x is its coefficient tuple over those added basis vectors.

    Raises:
        KernelNotIndependent: kernel vectors dependent or zero.
    """
    kv = [vec(v) for v in kernel]
    d = p.ambient_dim
    if any(is_zero(v) for v in kv) or _lp.rank(kv) != len(kv):
        raise KernelNotIndependent("kernel vectors must be independent and nonzero")
    basis = list(kv)
    picked: list[int] = []
    for j in range(d):
        e = tuple(Fraction(1 if i == j else 0) for i in range(d))
        if _lp.rank(basis + [e]) > len(basis):
            basis.append(e)
            picked.append(j)
        if len(basis) == d:
            break
    minv = _lp.invert(list(zip(*basis)))  # coefficient map: coeffs = minv . x
    k = len(kv)
    imgs = []
    for v in p.vertices:
        coeffs = [dot(minv[i], v) for i in range(d)]
        imgs.append(tuple(coeffs[k:]))
    return from_vertices(imgs)


# ---------------------------------------------------------------------------
# Cones.
# ---------------------------------------------------------------------------


def _cone_dual(gens: list[Vec], d: int) -> tuple[list[Vec], list[Vec]]:
    """Facet normals (f.x >= 0 form) and span equations of cone(gens)."""
    gens = [g for g in gens if not is_zero(g)]
    if not gens:
        return [], _lp.nullspace([], d)
    eqs = _lp.nullspace(gens, d)
    span_basis, _ = _lp.rref(gens)
    s = len(span_basis)
    coords = []
    for g in gens:
        sol = _lp.solve_affine(list(zip(*span_basis)), g)
        coords.append(sol[0])
    try:
        rays = _extreme_rays(coords, s)
    except _Lineality:  # pragma: no cover - gens span by construction
        raise AssertionError("dual cone unexpectedly non-pointed") from None
    normals = [primitive(_lift_normal(r, list(span_basis))) for r, _ in rays]
    return sorted(normals), sorted(eqs)


def cone_at_vertex(p: Polytope, v: Sequence[Fraction]) -> Cone:
    """Tangent cone of p at vertex v, apex kept at v.

    Generators are the edge directions at v (primitive); halfspaces are the
    facet normals active at v.

    Raises:
        NotAVertex: v is not a vertex of p.
    """
    v = vec(v)
    try:
        vi = p.vertices.index(v)
    except ValueError:
        raise NotAVertex(f"{v} is not a vertex") from None
    active = [n for (n, b), inc in zip(p.facets, p.incidence) if vi in inc]
    eq_normals = [n for n, _ in p.equations]
    d = p.ambient_dim
    if p.dim == 0:
        return Cone(apex=v, generators=(), halfspaces=(), equations=tuple(sorted(eq_normals)))
    # Extreme rays of {x : n.x <= 0 active, e.x = 0} are the edge directions.
    gens = _rays_from_hrep([tuple(-x for x in n) for n in active], eq_normals, d)
    return Cone(
        apex=v,
        generators=tuple(gens),
        halfspaces=tuple(sorted(active)),
        equations=tuple(sorted(eq_normals)),
    )


def cone_from_generators(apex: Sequence[Fraction], gens: Iterable[Sequence[Fraction]]) -> Cone:
    """Cone spanned by direction vectors, with halfspace description filled in."""
    apex = vec(apex)
    d = len(apex)
    glist = [primitive(vec(g)) for g in gens if not is_zero(vec(g))]
    return _cone_from_gen_list(apex, glist, d)


def _rays_from_hrep(ge_normals: list[Vec], eq_normals: list[Vec], d: int) -> list[Vec]:
    """Extreme rays of {x : n.x >= 0, e.x == 0}; the cone must be pointed."""
    null = _lp.nullspace(eq_normals, d) if eq_normals else _lp.nullspace([], d)
    if not null:
        return []
    rows = [tuple(dot(n, nb) for nb in null) for n in ge_normals]
    rays_q = _extreme_rays(rows, len(null))
    return sorted(primitive(tuple(dot(row, r) for row in zip(*null))) for r, _ in rays_q)


def _cone_from_gen_list(apex: Vec, glist: list[Vec], d: int) -> Cone:
    # Halfspaces: a facet normal is nonnegative on every generator, and on a
    # two-sided (lineality) generator it is then forced to vanish — so the
    # dual over the full generator list is correct even in the lineal case.
    normals_ge, _ = _cone_dual(glist, d)
    halfspaces = sorted(tuple(-x for x in n) for n in normals_ge)
    eqs = _lp.nullspace(glist, d) if glist else _lp.nullspace([], d)
    # Lineality: span of generators whose negation stays in the cone.  Every
    # facet normal is >= 0 on a generator g, so -g is in the cone exactly
    # when all of them vanish on g.
    two_sided: list[Vec] = []
    one_sided: list[Vec] = []
    for g in glist:
        if all(dot(f, g) == 0 for f in normals_ge):
            two_sided.append(g)
        else:
            one_sided.append(g)
    lin_rows, _ = _lp.rref(two_sided) if two_sided else ([], [])
    lin_basis = [primitive(b) for b in lin_rows]
    if lin_basis and one_sided:
        # Project the one-sided part along the lineality onto a fixed
        # coordinate complement; the projected cone is pointed.
        full = _lp.extend_to_basis(lin_basis, d)
        comp = full[len(lin_basis):]
        minv = _lp.invert(list(zip(*full)))
        work = []
        for g in one_sided:
            coeffs = [dot(minv[i], g) for i in range(d)]
            w = coeffs[len(lin_basis):]
            amb = tuple(
                sum((w[j] * comp[j][k] for j in range(len(comp))), Fraction(0))
                for k in range(d)
            )
            if not is_zero(amb):
                work.append(primitive(amb))
    else:
        work = list(one_sided)
    # Minimal generators for the pointed part: extreme rays of cone(work).
    if work:
        hs_w, eq_w = _cone_dual(work, d)
        ext = _rays_from_hrep([tuple(n) for n in hs_w], list(eq_w), d)
    else:
        ext = []
    gens_out = sorted(
        set(ext) | set(lin_basis) | {tuple(-x for x in b) for b in lin_basis}
    )
    return Cone(
        apex=apex,
        generators=tuple(gens_out),
        halfspaces=tuple(halfspaces),
        equations=tuple(sorted(primitive(e) for e in eqs)),
    )


def cone_minus_linspace(c: Cone, directions: Iterable[Sequence[Fraction]]) -> Cone:
    """Minkowski sum of the cone with the linear span of the given directions.

    The result's lineality contains that span; generators/halfspaces are
    recomputed from scratch.
    """
    d = c.ambient_dim
    dirs = [vec(v) for v in directions]
    dirs = [primitive(v) for v in dirs if not is_zero(v)]
    glist = list(c.generators)
    for v in dirs:
        glist.append(v)
        glist.append(tuple(-x for x in v))
    glist = sorted(set(glist))
    return _cone_from_gen_list(c.apex, glist, d)


def relint_contains(body: Polytope | Cone, x: Sequence[Fraction]) -> bool:
    """Is x in the relative interior of the polytope or cone?"""
    x = vec(x)
    if isinstance(body, Polytope):
        return all(dot(n, x) == b for n, b in body.equations) and all(
            dot(n, x) < b for n, b in body.facets
        )
    w = vsub(x, body.apex)
    return all(dot(n, w) == 0 for n in body.equations) and all(
        dot(n, w) < 0 for n in body.halfspaces
    )


# ---------------------------------------------------------------------------
# Separation.
# ---------------------------------------------------------------------------


def _const_on(a: Vec, verts: tuple[Vec, ...]) -> bool:
    v0 = verts[0]
    return all(dot(a, v) == dot(a, v0) for v in verts[1:])


def separate(p1: Polytope, p2: Polytope) -> Hyperplane:
    """Hyperplane with relint(p1) and relint(p2) in opposite open halves.

    p1 lands on the side normal.x < offset, p2 on normal.x > offset.

    Raises:
        NotSeparable: the relative interiors intersect, or every separating
            hyperplane contains one of the bodies entirely.
    """
    diff = from_vertices(
        [vsub(v, w) for v in p1.vertices for w in p2.vertices]
    )
    d = p1.ambient_dim
    zero = tuple(Fraction(0) for _ in range(d))
    if relint_contains(diff, zero):
        raise NotSeparable("relative interiors intersect")

    def finish(a: Vec) -> Hyperplane:
        a = primitive(a)
        m1 = max(dot(a, v) for v in p1.vertices)
        m2 = min(dot(a, w) for w in p2.vertices)
        return Hyperplane(normal=a, offset=(m1 + m2) / 2)

    # Off the affine hull: an equation normal separates strongly.
    for n, b in diff.equations:
        if b != 0:
            a = tuple(-x for x in n) if b > 0 else n
            return finish(a)
    if not diff.contains(zero):
        # Strong separation LP: maximize margin t with |a_i| <= 1.
        nverts = len(diff.vertices)
        a_ub = []
        b_ub = []
        for z in diff.vertices:
            a_ub.append(tuple(z) + (Fraction(1),))
            b_ub.append(Fraction(0))
        for i in range(d):
            e = [Fraction(0)] * (d + 1)
            e[i] = Fraction(1)
            a_ub.append(tuple(e))
            b_ub.append(Fraction(1))
            e2 = [Fraction(0)] * (d + 1)
            e2[i] = Fraction(-1)
            a_ub.append(tuple(e2))
            b_ub.append(Fraction(1))
        c = tuple(Fraction(0) for _ in range(d)) + (Fraction(1),)
        res = _lp.maximize(c, a_ub, b_ub)
        if res.status != "optimal" or res.value <= 0:
            raise GeometryError(f"separation LP gave {res.status} with "
                                f"margin {res.value} for disjoint bodies")
        return finish(res.x[:d])
    # 0 on the relative boundary of diff: candidates from the normal cone at 0.
    cands: list[Vec] = [n for n, b in diff.facets if b == 0]
    for n, b in diff.equations:
        cands.append(n)
        cands.append(tuple(-x for x in n))
    good1 = [a for a in cands if not _const_on(a, p1.vertices)]
    good2 = [a for a in cands if not _const_on(a, p2.vertices)]
    for a in cands:
        if not _const_on(a, p1.vertices) and not _const_on(a, p2.vertices):
            return finish(a)
    if good1 and good2:
        a = _lp.vadd(good1[0], good2[0])
        if (
            all(dot(a, z) <= 0 for z in diff.vertices)
            and not _const_on(a, p1.vertices)
            and not _const_on(a, p2.vertices)
        ):
            return finish(a)
    raise NotSeparable("only improper separation exists (a body lies inside every separating hyperplane)")


# ---------------------------------------------------------------------------
# Illumination.
# ---------------------------------------------------------------------------


def illuminated_vertices(p: Polytope, u: Sequence[Fraction]) -> tuple[Vec, ...]:
    """Vertices v of p with v + t*u in relint(p) for small t > 0.

    Args:
        p: polytope.
        u: nonzero direction in lin(p - p).

    Raises:
        ZeroDirection: u is zero.
    """
    u = vec(u)
    if is_zero(u):
        raise ZeroDirection("direction must be nonzero")
    if any(dot(n, u) != 0 for n, _ in p.equations):
        return ()
    out = []
    for vi, v in enumerate(p.vertices):
        ok = True
        for (n, b), inc in zip(p.facets, p.incidence):
            if vi in inc and dot(n, u) >= 0:
                ok = False
                break
        if ok:
            out.append(v)
    return tuple(out)


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
    if isinstance(obj, (list, tuple)):
        n, d = obj
        return Fraction(int(n), int(d))
    return Fraction(int(obj))


def vec_to_json(v: Sequence[Fraction]):
    return [frac_to_json(x) for x in v]


def vec_from_json(obj) -> Vec:
    return tuple(frac_from_json(x) for x in obj)


def polytope_to_json(p: Polytope) -> dict:
    out = {
        "dim": p.dim,
        "vertices": [vec_to_json(v) for v in p.vertices],
        "facets": [
            {"normal": vec_to_json(n), "offset": frac_to_json(b)} for n, b in p.facets
        ],
    }
    if p.equations:
        out["equations"] = [
            {"normal": vec_to_json(n), "offset": frac_to_json(b)}
            for n, b in p.equations
        ]
    return out


def polytope_from_json(obj: dict) -> Polytope:
    if obj.get("vertices"):
        return from_vertices([vec_from_json(v) for v in obj["vertices"]])
    return from_halfspaces(
        [(vec_from_json(f["normal"]), frac_from_json(f["offset"])) for f in obj["facets"]],
        [
            (vec_from_json(f["normal"]), frac_from_json(f["offset"]))
            for f in obj.get("equations", ())
        ],
    )
