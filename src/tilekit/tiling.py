"""Face-to-face lattice tilings and their dual cells.

A centrally symmetric tile ``P`` translated by every vector of the integer
lattice gives a face-to-face tiling of space.  This module stores the tiling
as a finite quotient: faces of the tiling are grouped into translation
orbits, and every question is asked of an orbit, by its index.  Stars,
dual cells (convex hulls of the centers of the tiles sharing a face) and
the fan types of low-dimensional dual cells are invariant under lattice
translation, so each is computed once, on the orbit's representative face.

The tile is the Dirichlet-Voronoi cell of a lattice.  Coordinates are
taken in the lattice basis, so the lattice is always ``Z^d`` and the
geometry of the tile is carried by a Gram matrix.  The base tile is
centered at the origin (its relevant vectors come in +/- pairs), so the
center of the tile ``P + lam`` is the lattice point ``lam`` itself.
"""

from __future__ import annotations

from itertools import combinations, product
from math import floor
from operator import mul
from typing import NamedTuple

from . import Violation, _lp, ratpoly
from . import lattice as lat
from ._lp import Vec, vsub
from .ratpoly import GeometryError, Polytope


class VenkovFailure(Violation):
    """The candidate tile cannot tile space face-to-face by translations."""


class UnexpectedStarSize(Violation):
    """A codimension-2 face is shared by a number of tiles other than 3 or 4."""


class UnclassifiableCell(Violation):
    """A three-dimensional dual cell matches none of the five known shapes."""


# ---------------------------------------------------------------------------
# Data model.
# ---------------------------------------------------------------------------


class FaceOrbit(NamedTuple):
    """A translation class of faces.

    ``vertices`` is the representative face (the lexicographically smallest
    member that is a face of the base tile).  ``tile_shifts`` lists the
    lattice translations of the tiles containing the representative, as
    integer tuples.
    """

    index: int
    dim: int
    vertices: tuple[Vec, ...]
    tile_shifts: tuple[tuple[int, ...], ...]


class DualCell(NamedTuple):
    """Convex hull of the centers of all tiles sharing one face.

    ``combdim`` is the combinatorial dimension (codimension of the face in
    the tiling); ``dim`` is the measured affine dimension of the hull, which
    may be smaller.  ``hull`` is the polytope on ``verts``, built with the
    cell, so readers of the cell never rebuild it.
    """

    verts: tuple[tuple[int, ...], ...]
    combdim: int
    hull: Polytope

    @property
    def dim(self) -> int:
        return self.hull.dim


class FanType(NamedTuple):
    """Shape tag of a dual cell: A/B in codimension 2, I..V in codimension 3."""

    tag: str
    name: str


FAN_A = FanType("A", "triangle")
FAN_B = FanType("B", "parallelogram")
FAN_I = FanType("I", "parallelepiped")
FAN_II = FanType("II", "triangular_prism")
FAN_III = FanType("III", "octahedron")
FAN_IV = FanType("IV", "pyramid_over_parallelogram")
FAN_V = FanType("V", "simplex")


class TilingComplex:
    """Quotient of a face-to-face lattice tiling by its translation group.

    Attributes:
        tile: the base tile, the Voronoi cell of the lattice point at the
            origin.  Tile centers are the lattice points: ``P + lam`` is
            centered at ``lam``.
        orbits: face orbits of every dimension, in a fixed order.
        reduced: the lattice's LLL-reduced basis (the columns of a
            unimodular u) and u^-1, as lattice.reduced_basis gives them,
            for the lattice-point scans of dual cells.
        faces: each face of the tile as (vertex bitmask over
            ``tile.vertices``, orbit index, integer shift taking it to its
            orbit's representative).

    The star and the dual cell of each orbit are kept in one slot per orbit
    each, filled by ``star`` and ``dual_cell`` the first time the orbit is
    asked for.
    """

    def __init__(self, tile: Polytope, orbits: tuple[FaceOrbit, ...],
                 reduced: tuple[tuple, list],
                 faces: tuple[tuple[int, int, tuple[int, ...]], ...]):
        self.tile = tile
        self.orbits = orbits
        self.reduced = reduced
        self.dim = tile.ambient_dim
        self.faces = faces
        self._stars: list[tuple[int, ...] | None] = [None] * len(orbits)
        self._dual_cells: list[DualCell | None] = [None] * len(orbits)

    def orbit_counts(self) -> dict[int, int]:
        """Number of face orbits in each dimension."""
        out: dict[int, int] = {}
        for o in self.orbits:
            out[o.dim] = out.get(o.dim, 0) + 1
        return out


# ---------------------------------------------------------------------------
# Building the quotient complex.
# ---------------------------------------------------------------------------


def _translation_key(f: tuple[tuple[int, ...], ...], den: int) -> tuple:
    """Key on which two sorted faces, given by integer vertices that are
    ``den`` times the true ones, agree iff they are lattice translates.

    Translation keeps the sorted order, so ``f + den * mu == g`` means the
    two faces have the same shape (vertices relative to the first) and
    first vertices that differ by ``den * mu``, that is, first vertices
    with the same residues mod ``den``.
    """
    first = f[0]
    return (tuple(vsub(v, first) for v in f),
            tuple(x % den for x in first))


def build_complex(gram) -> TilingComplex:
    """Build the quotient complex of the Dirichlet-Voronoi tiling of a lattice.

    The tile is the Voronoi cell of the Gram matrix, audited for central
    symmetry, facet symmetry and belt sizes before the faces are grouped.

    Args:
        gram: Gram matrix of the lattice basis (coordinates are taken in
            that basis, so lattice vectors are integer tuples).

    Raises:
        VenkovFailure: the Voronoi cell fails the symmetry or belt
            conditions.
        ValueError: dimension above five.
    """
    d = len(gram)
    if d > 5:
        raise ValueError("tilings are supported up to dimension 5 only")
    cell = lat.dv_cell(gram)
    report = lat.venkov_check_cell(cell)
    if not report.passed:
        raise VenkovFailure(report)

    # A face of the base tile is the bitmask of its vertices' indices in
    # cell.vertices, so G contains H iff mask(H) & ~mask(G) == 0.  The
    # vertices are lex-sorted, and scaled by their common denominator den
    # to integers, which keeps that order: each face's tuple of integer
    # vertices is sorted too.
    dims, masks = zip(*ratpoly.face_lattice(cell))
    ints, den = _lp.int_matrix(cell.vertices)
    faces = [tuple(ints[i] for i in ratpoly.bit_indices(m)) for m in masks]
    # Group the faces of the base tile into lattice-translation orbits: one
    # dict lookup per face on its translation key, groups numbered in order
    # of first appearance.
    group_of_key: dict[tuple, int] = {}
    groups: list[list[int]] = []
    for fi, f in enumerate(faces):
        gi = group_of_key.setdefault(_translation_key(f, den), len(groups))
        if gi == len(groups):
            groups.append([])
        groups[gi].append(fi)

    # Representative: lexicographically smallest member.  Each member G
    # satisfies rep == G + lam_G, and the tile P + lam_G contains rep.
    orbits: list[FaceOrbit] = []
    face_info: list[tuple[int, int, tuple[int, ...]]] = []
    reps = [min(grp, key=faces.__getitem__) for grp in groups]
    order = sorted(range(len(groups)),
                   key=lambda gi: (dims[reps[gi]], faces[reps[gi]]))
    for q, gi in enumerate(order):
        first = faces[reps[gi]][0]
        members = [(masks[fi], q,
                    tuple((a - b) // den for a, b in zip(first, faces[fi][0])))
                   for fi in groups[gi]]
        face_info += members
        orbits.append(FaceOrbit(
            index=q,
            dim=dims[reps[gi]],
            vertices=tuple(cell.vertices[i]
                           for i in ratpoly.bit_indices(masks[reps[gi]])),
            tile_shifts=tuple(sorted(lam for _, _, lam in members)),
        ))

    cpx = TilingComplex(tile=cell, orbits=tuple(orbits),
                        reduced=lat.reduced_basis(gram), faces=tuple(face_info))
    _validate_complex(cpx)
    return cpx


def _validate_complex(c: TilingComplex) -> None:
    d = c.dim
    counts = c.orbit_counts()
    if counts.get(d, 0) != 1:
        raise GeometryError("tiling quotient must have exactly one tile orbit")
    for o in c.orbits:
        if o.dim == d - 1 and len(o.tile_shifts) != 2:
            raise GeometryError(
                "a facet of a face-to-face tiling must lie in exactly 2 tiles")


# ---------------------------------------------------------------------------
# Stars and dual cells.
# ---------------------------------------------------------------------------


def star(c: TilingComplex, q: int) -> tuple[int, ...]:
    """The orbit of each face of the tiling containing orbit ``q``'s
    representative (that face included), one entry per face, sorted.

    A face and its translates have translated stars, so the star of an
    orbit is found once per complex.
    """
    if c._stars[q] is None:
        c._stars[q] = _representative_star(c, q)
    return c._stars[q]


def _representative_star(c: TilingComplex, q: int) -> tuple[int, ...]:
    """The star of orbit ``q``; a face is told from its translates by the
    shift that takes it to its orbit's representative."""
    found: set[tuple[int, tuple[int, ...]]] = set()
    for member, p, lam in c.faces:
        if p != q:
            continue
        # The member is rep - lam, so the faces of the tile P + lam
        # containing rep are the translates by lam of the faces G of P
        # containing the member.
        for mask, p_g, lam_g in c.faces:
            if member & ~mask == 0:
                found.add((p_g, vsub(lam, lam_g)))
    return tuple(sorted(p for p, _ in found))


def dual_cell(c: TilingComplex, q: int) -> DualCell:
    """Hull of the centers of the tiles containing orbit ``q``'s
    representative.

    The construction checks three facts about the center set.  The points
    are in convex position, they are the only lattice points inside their
    hull, and no two of them differ by twice a lattice vector.  All three
    facts are invariant under lattice translation, so the cell of each
    orbit is built and checked once per complex.
    """
    if c._dual_cells[q] is None:
        c._dual_cells[q] = _representative_dual_cell(c, q)
    return c._dual_cells[q]


def _representative_dual_cell(c: TilingComplex, q: int) -> DualCell:
    """The dual cell of orbit ``q``, with its checks."""
    orbit = c.orbits[q]
    # The tile P + lam is centered at lam, so the centers are the shifts.
    verts = orbit.tile_shifts
    hull = ratpoly.from_vertices(verts)
    if set(hull.vertices) != set(verts):
        raise GeometryError("tile centers of a star must be in convex position")
    _check_lattice_points(hull, verts, c.reduced)
    for a, b in combinations(verts, 2):
        if all((x - y) % 2 == 0 for x, y in zip(a, b)):
            raise GeometryError(
                "two tile centers of a star are congruent mod 2")
    return DualCell(verts=verts, combdim=c.dim - orbit.dim, hull=hull)


def _check_lattice_points(hull: Polytope, verts: tuple[tuple[int, ...], ...],
                          basis: tuple[tuple, list]) -> None:
    """The lattice points in ``hull`` are exactly the tile centers ``verts``."""
    # Every center lies in the hull, so any other point found is extra.
    if len(_lattice_points(hull, verts, basis)) != len(verts):
        raise GeometryError("hull of a star contains an extra tile center")


def _lattice_points(hull: Polytope, verts: tuple[tuple[int, ...], ...],
                    basis: tuple[tuple, list]) -> list[tuple[int, ...]]:
    """The lattice points of ``hull`` in the bounding box of ``verts``,
    with the box taken in the coordinates of the reduced basis ``basis``
    = (u, u^-1).  They are given in the caller's coordinates, in
    lexicographic order of their reduced coordinates.

    Every integer point of that box is tested.  The centers are close in
    the lattice metric, so that box is small whatever the given basis; in
    a skewed basis the box in the given coordinates can hold arbitrarily
    many points.  The test is in integers: a point x = u y of the hull
    meets each facet n.x <= b as (n u).y <= floor(b), with n a primitive
    integer row, and each equation n.x == b as (n u).y == b.
    """
    u, inv = basis
    # Normals are integral Fractions, and so are the equation offsets,
    # since the hull's affine span passes through the integer centers.
    coords = [[sum(map(mul, row, v)) for row in inv] for v in verts]
    cols = list(zip(*u))

    def in_reduced(n: Vec) -> list[int]:
        ints = [a.numerator for a in n]
        return [sum(map(mul, ints, col)) for col in cols]

    eqs = [(in_reduced(n), b.numerator) for n, b in hull.equations]
    rows = [(in_reduced(n), floor(b)) for n, b in hull.facets]
    boxes = [range(min(w[k] for w in coords), max(w[k] for w in coords) + 1)
             for k in range(len(cols))]
    found = [y for y in product(*boxes)
             if all(sum(map(mul, a, y)) == b for a, b in eqs)
             and all(sum(map(mul, a, y)) <= b for a, b in rows)]
    return [tuple(sum(map(mul, row, y)) for row in u) for y in found]


# ---------------------------------------------------------------------------
# Fan types.
# ---------------------------------------------------------------------------


def classify_d2(c: TilingComplex, q: int) -> FanType:
    """Fan type of a codimension-2 orbit: A for 3 tiles, B for 4.

    Raises:
        ValueError: the orbit's faces do not have dimension d-2.
        UnexpectedStarSize: the face lies in a number of tiles other than 3
            or 4, which cannot happen in a face-to-face tiling by centrally
            symmetric tiles.
    """
    orbit = c.orbits[q]
    if orbit.dim != c.dim - 2:
        raise ValueError("fan classification needs a face of dimension d-2")
    n = len(orbit.tile_shifts)
    if n not in (3, 4):
        raise UnexpectedStarSize(f"codimension-2 face lies in {n} tiles")
    dc = dual_cell(c, q)
    if n == 3:
        if dc.dim != 2:
            raise GeometryError("3-tile star must have a triangle dual cell")
        return FAN_A
    if dc.dim != 2:
        raise GeometryError("4-tile star must have a parallelogram dual cell")
    # The image 2s - v of v about the centroid s = t / 4, compared doubled.
    t = [sum(col) for col in zip(*dc.verts)]
    doubled = {tuple(2 * x for x in v) for v in dc.verts}
    if not all(tuple(a - 2 * x for a, x in zip(t, v)) in doubled
               for v in dc.verts):
        raise GeometryError("4-point dual 2-cell is not centrally symmetric")
    return FAN_B


def _is_parallelepiped(hull: Polytope) -> bool:
    if len(hull.vertices) != 8 or len(hull.facets) != 6 or hull.dim != 3:
        return False
    return all(len(inc) == 4 for inc in hull.incidence)


def classify_dual3(dc: DualCell) -> FanType:
    """Shape of a three-dimensional dual cell.

    The five possibilities are told apart by the vertex count, the facet
    count and the number of triangular facets of the hull.  Fan type I is
    the parallelepiped test the skinny audit reads: with 8 vertices and 6
    facets, Euler's formula gives 12 edges, so the facets are all
    quadrilaterals iff none is a triangle.

    Raises:
        ValueError: ``dc`` does not have combinatorial dimension 3.
        UnclassifiableCell: the hull matches none of the five shapes.
    """
    if dc.combdim != 3:
        raise ValueError("fan classification needs a dual cell of codimension 3")
    hull = dc.hull
    if hull.dim != 3:
        raise UnclassifiableCell(
            f"dual 3-cell spans only dimension {hull.dim}")
    if _is_parallelepiped(hull):
        return FAN_I
    nv = len(hull.vertices)
    tri = sum(1 for inc in hull.incidence if len(inc) == 3)
    nf = len(hull.facets)
    if nv == 6 and tri == 2 and nf == 5:
        return FAN_II
    if nv == 6 and tri == 8 and nf == 8:
        return FAN_III
    if nv == 5 and tri == 4 and nf == 5:
        return FAN_IV
    if nv == 4 and tri == 4 and nf == 4:
        return FAN_V
    raise UnclassifiableCell(
        f"dual 3-cell with {nv} vertices, {nf} facets ({tri} triangles)")


def is_3_irreducible(c: TilingComplex) -> tuple[bool, tuple[int, FanType] | None]:
    """Whether no dual 3-cell is a parallelepiped or a triangular prism.

    Returns:
        ``(True, None)`` when every codimension-3 dual cell has fan type
        III, IV or V; otherwise ``(False, (orbit_index, fan_type))`` naming
        an offending orbit.
    """
    if c.dim < 3:
        raise ValueError("3-irreducibility needs dimension at least 3")
    for o in c.orbits:
        if o.dim != c.dim - 3:
            continue
        ft = classify_dual3(dual_cell(c, o.index))
        if ft.tag in ("I", "II"):
            return (False, (o.index, ft))
    return (True, None)


# ---------------------------------------------------------------------------
# Audit over a whole complex: every vertex pair of each dual cell is
# antipodal.
# ---------------------------------------------------------------------------


class SkinnyReport(NamedTuple):
    """Outcome of auditing every dual cell orbit of a complex."""

    checked: int
    failures: tuple[str, ...]
    passed: bool


def skinny_audit(c: TilingComplex) -> SkinnyReport:
    """Check that every vertex pair of each dual cell orbit is antipodal.

    Each orbit's dual cell must be skinny (`ratpoly.is_skinny`), and each
    three-dimensional dual cell may have at most 8 vertices, with 8
    attained only by parallelepipeds.
    """
    failures: list[str] = []
    checked = 0
    for o in c.orbits:
        dc = dual_cell(c, o.index)
        checked += 1
        hull = dc.hull
        if not ratpoly.is_skinny(hull):
            failures.append(
                f"orbit {o.index} (dim {o.dim}): dual cell admits a sliding segment")
        if dc.dim == 3:
            nv = len(hull.vertices)
            if nv > 8:
                failures.append(
                    f"orbit {o.index} (dim {o.dim}): dual 3-cell has {nv} vertices")
            elif nv == 8 and not _is_parallelepiped(hull):
                failures.append(
                    f"orbit {o.index} (dim {o.dim}): 8-vertex dual 3-cell "
                    "is not a parallelepiped")
    return SkinnyReport(checked=checked, failures=tuple(failures),
                        passed=not failures)
