"""Tests for the tiling quotient complex and dual cells."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations
from operator import mul

import pytest

from tilekit import lattice, ratpoly, tiling
from tilekit._lp import vsub
from tilekit.tiling import DualCell

import oracles
from test_acceptance import GRAMS, cpx
from test_ratpoly import ROOT_GRAMS

Z2 = [[1, 0], [0, 1]]
A2 = [[2, 1], [1, 2]]
Z3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
FCC = [[2, 0, 1], [0, 2, 1], [1, 1, 2]]
BCC = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
HEXPRISM = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]

# The Grams whose every dual cell is audited against the LP sweep, besides
# the acceptance Grams: K33 is the Laplacian of K_{3,3} with node 0
# removed, and FCC_REBASED is FCC in a seeded basis with entries up to 10^6.
SKINNY_GRAMS = {**ROOT_GRAMS,
                "K33": [[3, 0, -1, -1, -1], [0, 3, -1, -1, -1], [-1, -1, 3, 0, 0],
                        [-1, -1, 0, 3, 0], [-1, -1, 0, 0, 3]]}
_U = oracles.random_unimodular(random.Random(32), 3, 10**6)[0]
SKINNY_GRAMS["FCC_REBASED"] = [
    [sum(_U[a][i] * FCC[a][b] * _U[b][j] for a in range(3) for b in range(3))
     for j in range(3)] for i in range(3)]


def euler(c):
    return sum((-1) ** d * n for d, n in c.orbit_counts().items())


def orbits_of_dim(c, d):
    return [o for o in c.orbits if o.dim == d]


def _hand_cell(verts, combdim):
    """A DualCell on given centers, not taken from a complex."""
    return DualCell(verts=verts, combdim=combdim,
                    hull=ratpoly.from_vertices(verts))


# ---------------------------------------------------------------------------
# Building the quotient.
# ---------------------------------------------------------------------------


def test_z2_orbit_counts():
    c = tiling.build_complex(Z2)
    assert c.orbit_counts() == {0: 1, 1: 2, 2: 1}
    assert euler(c) == 0


def test_a2_orbit_counts():
    c = tiling.build_complex(A2)
    assert c.orbit_counts() == {0: 2, 1: 3, 2: 1}
    assert euler(c) == 0


def test_fcc_orbit_counts():
    c = tiling.build_complex(FCC)
    assert c.orbit_counts() == {0: 3, 1: 8, 2: 6, 3: 1}
    assert euler(c) == 0


def test_bcc_orbit_counts():
    c = tiling.build_complex(BCC)
    assert c.orbit_counts() == {0: 6, 1: 12, 2: 7, 3: 1}
    assert euler(c) == 0


def test_dimension_cap():
    with pytest.raises(ValueError):
        tiling.build_complex([[1 if i == j else 0 for j in range(6)]
                              for i in range(6)])


def test_one_face_lattice_per_complex(monkeypatch):
    """The belts read their ridges off facet pairs, so the Venkov audit
    builds no face lattice and build_complex builds exactly one."""
    calls = []
    whole = ratpoly.face_lattice

    def counted(p):
        calls.append(p)
        return whole(p)

    monkeypatch.setattr(ratpoly, "face_lattice", counted)
    assert lattice.venkov_check_cell(lattice.dv_cell(FCC)).passed
    assert len(calls) == 0
    tiling.build_complex(FCC)
    assert len(calls) == 1


# --- build_complex against its former grouping and star loop
# (oracles.build_complex_reference): the same orbits, and stars that list
# the orbit of each face of the reference's star, with its multiplicity.


def _same_complex(c, ref):
    orbits, stars = ref
    return c.orbits == orbits and all(
        tiling.star(c, q) == tuple(sorted(r.orbit for r in st))
        for q, st in enumerate(stars))


def test_complex_shifts_are_integer_tuples():
    """Every shift in c.faces and every tile shift is a tuple of ints, on
    the suite and on a rebased lattice, and each face of the tile moved by
    its shift is its orbit's representative, whose vertices stay
    Fractions."""
    grams = {**GRAMS, "FCC rebased": _rebased(GRAMS["FCC"], random.Random(5))}
    for name, gram in grams.items():
        c = tiling.build_complex(gram)
        shifts = [lam for _, _, lam in c.faces]
        shifts += [lam for o in c.orbits for lam in o.tile_shifts]
        assert all(type(lam) is tuple and all(type(x) is int for x in lam)
                   for lam in shifts), name
        for mask, q, lam in c.faces:
            face = {tuple(x + t for x, t in zip(c.tile.vertices[i], lam))
                    for i in ratpoly.bit_indices(mask)}
            assert face == set(c.orbits[q].vertices), name
        assert all(type(x) is F for o in c.orbits for v in o.vertices
                   for x in v), name


def test_translation_key_matches_integer_translates_only():
    """The face ((-3/2, 1/3), (-1/2, 1/3), (-1/2, 4/3)) and its moves, each
    given as integer vertices times den = 6."""
    den = 6
    f = ((-9, 2), (-3, 2), (-3, 8))

    def moved(t):  # t is the true move; den * t is integral
        return tuple(tuple(x + int(den * y) for x, y in zip(v, t)) for v in f)

    key = tiling._translation_key(f, den)
    assert tiling._translation_key(moved((F(-2), F(5))), den) == key
    assert tiling._translation_key(moved((F(3), F(-1))), den) == key
    assert tiling._translation_key(moved((F(1, 2), F(0))), den) != key
    assert tiling._translation_key(moved((F(0), F(-1, 2))), den) != key
    other_shape = (f[0], f[1], (-3, 14))
    assert tiling._translation_key(other_shape, den) != key
    assert tiling._translation_key(f[:2], den) != key


def test_complex_matches_reference_on_the_suite():
    for name in (*GRAMS, "A4", "D4"):
        gram = {**GRAMS, **ROOT_GRAMS}[name]
        c = tiling.build_complex(gram)
        assert _same_complex(c, oracles.build_complex_reference(gram)), name


def test_star_lists_the_orbit_of_each_face():
    """On every orbit of A4* and A5, as on the suite above, the star is the
    multiset of orbits of the reference's star: one entry per face, so the
    four facets of a fan-B star in two orbits appear four times."""
    for name in ("A4*", "A5"):
        gram = ROOT_GRAMS[name]
        c = tiling.build_complex(gram)
        _orbits, stars = oracles.build_complex_reference(gram)
        for q, st in enumerate(stars):
            assert tiling.star(c, q) == tuple(sorted(r.orbit for r in st)), (name, q)
    c = tiling.build_complex(Z3)
    edge = orbits_of_dim(c, 1)[0].index
    facets = [p for p in tiling.star(c, edge) if c.orbits[p].dim == 2]
    assert len(facets) == 4 and len(set(facets)) == 2


def _rebased(gram, rng):
    # U^T G U for U a product of random shears, unimodular by construction.
    d = len(gram)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-1, 1))
        for r in range(d):
            u[r][i] += m * u[r][j]
    return [[sum(u[a][i] * gram[a][b] * u[b][j]
                 for a in range(d) for b in range(d))
             for j in range(d)] for i in range(d)]


def test_complex_matches_reference_on_rebased_lattices():
    rng = random.Random(4)
    fractional_negative = 0
    for name in ("Z3", "FCC", "BCC", "HEXPRISM"):
        for _ in range(2):
            gram = _rebased(GRAMS[name], rng)
            assert gram != GRAMS[name]
            c = tiling.build_complex(gram)
            assert _same_complex(c, oracles.build_complex_reference(gram)), gram
            fractional_negative += any(
                x < 0 and x.denominator != 1
                for o in c.orbits for v in o.vertices for x in v)
    # Faces with negative non-integer coordinates exercise the floor in the
    # translation key.
    assert fractional_negative == 8


# ---------------------------------------------------------------------------
# Stars.
# ---------------------------------------------------------------------------


def test_z2_vertex_star():
    c = tiling.build_complex(Z2)
    v = orbits_of_dim(c, 0)[0]
    st = tiling.star(c, v.index)
    by_dim = {}
    for r in st:
        by_dim.setdefault(c.orbits[r].dim, []).append(r)
    assert len(by_dim[2]) == 4
    assert len(by_dim[1]) == 4
    assert len(by_dim[0]) == 1


def test_a2_vertex_star():
    c = tiling.build_complex(A2)
    for v in orbits_of_dim(c, 0):
        st = tiling.star(c, v.index)
        tiles = [r for r in st if c.orbits[r].dim == 2]
        edges = [r for r in st if c.orbits[r].dim == 1]
        assert len(tiles) == 3 and len(edges) == 3


def test_facet_star_has_two_tiles():
    for gram in (Z2, Z3, FCC, BCC, HEXPRISM):
        c = tiling.build_complex(gram)
        d = c.dim
        for o in orbits_of_dim(c, d - 1):
            assert len(o.tile_shifts) == 2
            st = tiling.star(c, o.index)
            tiles = [r for r in st if c.orbits[r].dim == d]
            assert len(tiles) == 2


# ---------------------------------------------------------------------------
# Dual cells.
# ---------------------------------------------------------------------------


def test_facet_dual_cell_is_a_segment():
    for gram in (Z2, Z3, FCC):
        c = tiling.build_complex(gram)
        for o in orbits_of_dim(c, c.dim - 1):
            dc = tiling.dual_cell(c, o.index)
            assert len(dc.verts) == 2 and dc.dim == 1
            assert dc.combdim == 1


def test_z3_vertex_dual_cell_is_a_parallelepiped_on_8_centers():
    c = tiling.build_complex(Z3)
    v = orbits_of_dim(c, 0)[0]
    dc = tiling.dual_cell(c, v.index)
    assert len(dc.verts) == 8
    assert dc.combdim == 3 and dc.dim == 3
    assert tiling.classify_dual3(dc) == tiling.FAN_I


def test_fcc_vertex_dual_cells_are_simplices_and_an_octahedron():
    c = tiling.build_complex(FCC)
    names = sorted(
        tiling.classify_dual3(tiling.dual_cell(c, o.index)).name
        for o in orbits_of_dim(c, 0))
    assert names == ["octahedron", "simplex", "simplex"]


def test_hexprism_vertex_dual_cells_are_triangular_prisms():
    c = tiling.build_complex(HEXPRISM)
    for o in orbits_of_dim(c, 0):
        dc = tiling.dual_cell(c, o.index)
        assert tiling.classify_dual3(dc) == tiling.FAN_II


def test_dual_cell_dim_never_exceeds_combdim():
    for gram in (Z2, A2, Z3, FCC, BCC, HEXPRISM):
        c = tiling.build_complex(gram)
        for o in c.orbits:
            dc = tiling.dual_cell(c, o.index)
            assert dc.dim <= dc.combdim


def test_dual_cell_parity_classes_are_distinct():
    c = tiling.build_complex(BCC)
    for o in c.orbits:
        dc = tiling.dual_cell(c, o.index)
        seen = set()
        for v in dc.verts:
            cls = tuple((x - dc.verts[0][k]) % 2 for k, x in enumerate(v))
            assert cls not in seen
            seen.add(cls)


def test_duality_reverses_inclusion():
    for gram in (Z3, FCC, HEXPRISM):
        c = tiling.build_complex(gram)
        # Each member of an orbit is rep - lam for one lam in tile_shifts,
        # so these are the faces of the base tile, the tile included; the
        # dual cell of rep - lam is the orbit's cell translated by -lam.
        members = [(o.index, lam) for o in c.orbits for lam in o.tile_shifts]
        faces = [frozenset(vsub(v, lam) for v in c.orbits[q].vertices)
                 for q, lam in members]
        duals = [{vsub(v, lam) for v in tiling.dual_cell(c, q).verts}
                 for q, lam in members]
        for i, j in combinations(range(len(faces)), 2):
            for a, b in ((i, j), (j, i)):
                # faces[b] below faces[a] <=> dual of a inside dual of b
                assert (faces[b] <= faces[a]) == (duals[a] <= duals[b])


# --- dual_cell against the cell built afresh (oracles.dual_cell_reference)
# on every orbit.  The reference builds its hull with its own V-to-H
# conversion, so equal cells also mean that the carried hull equals a fresh
# hull of the centers.


def _check_dual_cells_against_reference(c):
    for o in c.orbits:
        assert tiling.dual_cell(c, o.index) == oracles.dual_cell_reference(
            c, o.index), o.index


def test_dual_cells_match_reference_on_the_suite():
    for name, gram in GRAMS.items():
        _check_dual_cells_against_reference(tiling.build_complex(gram))


def test_dual_cells_match_reference_on_a_rebased_lattice():
    gram = _rebased(GRAMS["FCC"], random.Random(5))
    assert gram != GRAMS["FCC"]
    c = tiling.build_complex(gram)
    _check_dual_cells_against_reference(c)
    # Defining faces with negative non-integer vertex coordinates.
    assert any(x < 0 and x.denominator != 1
               for o in c.orbits for v in o.vertices for x in v)


def test_lattice_point_scan_finds_an_extra_center_in_the_reduced_box():
    """The segment from 0 to twice a lattice vector holds that vector: the
    scan finds it for (0, 1), and for (1, -e), whose box in the given
    coordinates has 2e + 1 rows."""
    e = 10**40
    c = tiling.build_complex([[e * e + 1, e], [e, 1]])
    for step in ((0, 1), (1, -e)):
        ends = ((0, 0), step)
        tiling._check_lattice_points(ratpoly.from_vertices(ends), ends, c.reduced)
        ends = ((0, 0), tuple(2 * x for x in step))
        with pytest.raises(ratpoly.GeometryError, match="extra tile center"):
            tiling._check_lattice_points(ratpoly.from_vertices(ends), ends,
                                         c.reduced)


def test_lattice_points_match_the_fraction_scan():
    """On the representative dual cell of every orbit of the suite, the
    root lattices (A4* and A5 among them) and a rebased FCC, the integer
    test finds the points the Fraction scan finds, and they are exactly
    the centers.  A center left out of the list, with the hull kept, is
    found as an extra point exactly when it lies in the reduced box of the
    others, and then the check raises."""
    grams = {**GRAMS, **ROOT_GRAMS,
             "FCC rebased": _rebased(GRAMS["FCC"], random.Random(5))}
    injected = 0
    for name, gram in grams.items():
        c = tiling.build_complex(gram)
        inv = c.reduced[1]
        for q in range(len(c.orbits)):
            dc = tiling._representative_dual_cell(c, q)
            centers = [tuple(map(int, v)) for v in dc.verts]
            got = tiling._lattice_points(dc.hull, dc.verts, c.reduced)
            assert got == oracles.lattice_points_reference(dc.hull, dc.verts,
                                                           c.reduced), (name, q)
            assert sorted(got) == sorted(centers)
            ys = [[sum(map(mul, row, v)) for row in inv] for v in centers]
            for k in range(len(centers) if len(centers) > 1 else 0):
                rest = dc.verts[:k] + dc.verts[k + 1:]
                others = ys[:k] + ys[k + 1:]
                in_box = all(min(col) <= y <= max(col)
                             for y, col in zip(ys[k], zip(*others)))
                found = tiling._lattice_points(dc.hull, rest, c.reduced)
                assert sorted(found) == sorted(centers if in_box
                                               else centers[:k] + centers[k + 1:])
                if in_box:
                    injected += 1
                    with pytest.raises(ratpoly.GeometryError,
                                       match="extra tile center"):
                        tiling._check_lattice_points(dc.hull, rest, c.reduced)
    assert injected > 100


def test_complex_scans_in_the_reduction_of_its_search():
    """build_complex reduces the Gram once: the complex's lattice-point
    scans read the reduction that the relevant-vector search made, and keep
    its unimodular u with u^-1."""
    lattice._lll.cache_clear()
    c = tiling.build_complex(ROOT_GRAMS["D4"])
    assert lattice._lll.cache_info()[:2] == (1, 1)  # (hits, misses)
    u, inv = c.reduced
    assert u != tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
            for row in u] == [[int(i == j) for j in range(4)] for i in range(4)]


def test_rebased_lattices_keep_their_tiling_audit():
    """tiling audit's counts for U^T G U, with seeded unimodular U of
    entries up to 10^6, equal those for G on the acceptance Grams and A4*."""
    rng = random.Random(1909)
    for name, gram in {**GRAMS, "A4*": ROOT_GRAMS["A4*"]}.items():
        d = len(gram)
        u, _ = oracles.random_unimodular(rng, d, 10**6)
        skewed = [[sum(u[a][i] * gram[a][b] * u[b][j]
                       for a in range(d) for b in range(d))
                   for j in range(d)] for i in range(d)]
        audits = []
        for g in (gram, skewed):
            c = tiling.build_complex(g)
            sk = tiling.skinny_audit(c)
            audits.append((len(c.tile.facets), len(c.tile.vertices),
                           c.orbit_counts(),
                           lattice.venkov_check_cell(c.tile).belt_lengths,
                           sk.checked, sk.passed))
        assert audits[0] == audits[1], name


def test_readers_of_a_dual_cell_build_no_hull(monkeypatch):
    """No reader builds a second hull of a dual cell.  The skinny audit
    builds one hull per dual cell that is not a simplex, on the differences
    a - b of its vertices, and classify_dual3 builds none.  On FCC that is
    the octahedron's difference body."""
    c = tiling.build_complex(FCC)
    cells = [tiling.dual_cell(c, o.index) for o in c.orbits]
    real = ratpoly.from_vertices
    built = []

    def counted(points):
        points = list(points)
        built.append(set(points))
        return real(points)

    monkeypatch.setattr(ratpoly, "from_vertices", counted)
    assert tiling.skinny_audit(c).passed
    for dc in cells:
        if dc.combdim == 3:
            tiling.classify_dual3(dc)
    bodies = [{vsub(a, b) for a in dc.verts for b in dc.verts}
              for dc in cells if len(dc.verts) > dc.hull.dim + 1]
    assert len(bodies) == 1
    assert built == bodies
    assert not any(set(dc.verts) in built for dc in cells)


def _affine_class(hull):
    """A key shared by affinely equivalent hulls: a simplex's dimension, or
    the vertex set up to translation and x -> -x, which maps the dual cell
    of a face F to that of -F."""
    if len(hull.vertices) == hull.dim + 1:
        return hull.dim

    def key(vs):
        low = min(vs)
        return tuple(sorted(vsub(v, low) for v in vs))
    return min(key(hull.vertices), key([tuple(-x for x in v) for v in hull.vertices]))


@pytest.mark.parametrize("name", ["Z3", "FCC", "BCC", "HEXPRISM", "ELONG4", "A4",
                                  "D4", "A4*", "A5", "K33", "FCC_REBASED"])
def test_skinny_matches_the_lp_sweep_on_every_dual_cell(name):
    """is_skinny equals the per-pair LP sweep on every dual cell.  Both
    verdicts are affinely invariant, so the slow sweep runs once per key of
    `_affine_class`, which every simplex of one dimension shares."""
    c = cpx(name) if name in GRAMS else tiling.build_complex(SKINNY_GRAMS[name])
    sweep = {}
    for o in c.orbits:
        hull = tiling.dual_cell(c, o.index).hull
        k = _affine_class(hull)
        if k not in sweep:
            sweep[k] = oracles.is_skinny_reference(hull)
        assert ratpoly.is_skinny(hull) == sweep[k], (name, o.index)


# ---------------------------------------------------------------------------
# Fan types in codimension 2.
# ---------------------------------------------------------------------------


def test_z3_edges_are_type_b():
    c = tiling.build_complex(Z3)
    for o in orbits_of_dim(c, 1):
        assert tiling.classify_d2(c, o.index) == tiling.FAN_B


def test_a2_vertices_are_type_a():
    c = tiling.build_complex(A2)
    for o in orbits_of_dim(c, 0):
        assert tiling.classify_d2(c, o.index) == tiling.FAN_A


def test_hexprism_edge_types_split_by_direction():
    c = tiling.build_complex(HEXPRISM)
    tags = {}
    for o in orbits_of_dim(c, 1):
        vs = o.vertices
        vertical = all(vs[0][k] == vs[1][k] for k in range(2))
        tags.setdefault("A" if vertical else "B", []).append(
            tiling.classify_d2(c, o.index).tag)
    assert set(tags["A"]) == {"A"} and len(tags["A"]) == 2
    assert set(tags["B"]) == {"B"} and len(tags["B"]) == 3


def test_classify_d2_rejects_wrong_dimension():
    c = tiling.build_complex(Z3)
    v = orbits_of_dim(c, 0)[0]
    with pytest.raises(ValueError):
        tiling.classify_d2(c, v.index)


def test_classify_d2_rejects_a_four_center_cell_without_a_center(monkeypatch):
    """The central symmetry test on doubled integer points: a
    parallelogram that is not a square passes, a trapezoid on four tile
    centers raises.  No lattice tiling yields the trapezoid (an empty
    lattice quadrilateral is a parallelogram), so dual_cell is patched."""
    c = tiling.build_complex(Z3)
    q = orbits_of_dim(c, 1)[0].index
    assert tiling.classify_d2(c, q) == tiling.FAN_B

    def patch(verts):
        monkeypatch.setattr(tiling, "dual_cell",
                            lambda _c, _q: _hand_cell(verts, 2))

    patch(((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)))
    assert tiling.classify_d2(c, q) == tiling.FAN_B
    patch(((0, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)))
    with pytest.raises(ratpoly.GeometryError, match="not centrally symmetric"):
        tiling.classify_d2(c, q)


def test_classify_d2_unexpected_star_size():
    c = tiling.build_complex(Z3)
    o = orbits_of_dim(c, 1)[0]
    fake = tiling.FaceOrbit(index=o.index, dim=o.dim, vertices=o.vertices,
                            tile_shifts=o.tile_shifts + ((9, 9, 9),))
    orbits = list(c.orbits)
    orbits[o.index] = fake
    broken = tiling.TilingComplex(c.tile, tuple(orbits), c.reduced, c.faces)
    with pytest.raises(tiling.UnexpectedStarSize):
        tiling.classify_d2(broken, o.index)


def test_quadruple_faces_have_two_parallel_facet_pairs():
    for gram in (Z3, HEXPRISM):
        c = tiling.build_complex(gram)
        facet_normal = {}
        for o in orbits_of_dim(c, c.dim - 1):
            for inc, hp in zip(c.tile.incidence, c.tile.facets):
                if frozenset(c.tile.vertices[i] for i in inc) == frozenset(o.vertices):
                    facet_normal[o.index] = hp[0]
        for o in orbits_of_dim(c, c.dim - 2):
            if tiling.classify_d2(c, o.index).tag != "B":
                continue
            st = tiling.star(c, o.index)
            normals = []
            for r in st:
                if c.orbits[r].dim == c.dim - 1:
                    n = facet_normal[r]
                    first = next(x for x in n if x != 0)
                    normals.append(n if first > 0 else tuple(-x for x in n))
            assert len(normals) == 4
            groups = {}
            for n in normals:
                groups[n] = groups.get(n, 0) + 1
            assert sorted(groups.values()) == [2, 2]


# ---------------------------------------------------------------------------
# Fan types in codimension 3.
# ---------------------------------------------------------------------------


def test_classify_dual3_rejects_wrong_codimension():
    c = tiling.build_complex(Z3)
    e = orbits_of_dim(c, 1)[0]
    dc = tiling.dual_cell(c, e.index)
    with pytest.raises(ValueError):
        tiling.classify_dual3(dc)


def test_classify_dual3_unclassifiable():
    # seven corners of a cube form none of the five shapes
    verts = tuple(sorted((F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1)
                         for z in (0, 1)))[:-1]
    dc = _hand_cell(verts, 3)
    with pytest.raises(tiling.UnclassifiableCell):
        tiling.classify_dual3(dc)


def test_is_3_irreducible_on_the_suite():
    c = tiling.build_complex(Z3)
    ok, witness = tiling.is_3_irreducible(c)
    assert not ok and witness[1] == tiling.FAN_I

    ok, witness = tiling.is_3_irreducible(tiling.build_complex(HEXPRISM))
    assert not ok and witness[1] == tiling.FAN_II

    assert tiling.is_3_irreducible(tiling.build_complex(FCC)) == (True, None)
    assert tiling.is_3_irreducible(tiling.build_complex(BCC)) == (True, None)


def test_bcc_vertices_are_all_simplices():
    c = tiling.build_complex(BCC)
    for o in orbits_of_dim(c, 0):
        dc = tiling.dual_cell(c, o.index)
        assert tiling.classify_dual3(dc) == tiling.FAN_V


def test_is_3_irreducible_needs_dimension_3():
    with pytest.raises(ValueError):
        tiling.is_3_irreducible(tiling.build_complex(Z2))


# ---------------------------------------------------------------------------
# Whole-complex audit.
# ---------------------------------------------------------------------------


def test_skinny_audit_passes_on_the_suite():
    for gram in (Z2, A2, Z3, FCC, BCC, HEXPRISM):
        rep = tiling.skinny_audit(tiling.build_complex(gram))
        assert rep.passed and not rep.failures
        assert rep.checked == sum(tiling.build_complex(gram).orbit_counts().values())
