"""Tests for the exact polytope/cone kernel."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from tilekit import _lp, lattice, ratpoly, syssolve
from tilekit.ratpoly import (
    EmptyInput,
    cone_dual,
    face_lattice,
    from_halfspaces,
    from_vertices,
    is_skinny,
)

import oracles
from test_acceptance import GRAMS

F = Fraction


def fv(*coords):
    return tuple(F(c) for c in coords)


SQUARE = [fv(-1, -1), fv(-1, 1), fv(1, -1), fv(1, 1)]
CUBE = [fv(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def test_square_canonical_form():
    p = from_vertices(SQUARE)
    assert p.dim == 2
    assert p.vertices == (fv(-1, -1), fv(-1, 1), fv(1, -1), fv(1, 1))
    assert p.facets == (
        (fv(-1, 0), F(1)),
        (fv(0, -1), F(1)),
        (fv(0, 1), F(1)),
        (fv(1, 0), F(1)),
    )
    assert p.equations == ()


def test_redundant_points_are_dropped():
    p = from_vertices(SQUARE + [fv(0, 0), fv(1, 0)])
    assert p.vertices == tuple(sorted(SQUARE))


def test_input_order_does_not_matter():
    rng = random.Random(7)
    pts = list(CUBE)
    expected = from_vertices(pts)
    for _ in range(5):
        rng.shuffle(pts)
        assert from_vertices(pts) == expected


def test_cube_facets_match_bruteforce():
    p = from_vertices(CUBE)
    assert sorted(p.facets) == oracles.hull_facets_bruteforce(CUBE)
    assert len(p.facets) == 6
    assert len(p.vertices) == 8


def test_random_hulls_match_bruteforce_oracle():
    rng = random.Random(20260817)
    for d in (2, 3):
        for _ in range(8):
            pts = [
                tuple(F(rng.randint(-4, 4)) for _ in range(d))
                for _ in range(d + 3 + rng.randint(0, 3))
            ]
            # Skip degenerate (lower-dimensional) samples; the oracle only
            # handles full-dimensional hulls.
            try:
                p = from_vertices(pts)
            except EmptyInput:
                continue
            if p.dim < d:
                continue
            assert list(p.vertices) == oracles.hull_vertices_bruteforce(pts)
            assert list(p.facets) == oracles.hull_facets_bruteforce(pts)


def _as_pairs(equations):
    """Each equation n.x == b as the opposite rows n.x <= b, -n.x <= -b."""
    return [row for n, b in equations
            for row in ((n, b), (tuple(-x for x in n), -b))]


def test_halfspaces_round_trip():
    p = from_vertices(CUBE)
    q = from_halfspaces(p.facets)
    assert q == p


def test_lower_dimensional_carries_equations():
    seg = from_vertices([fv(0, 0, 0), fv(2, 2, 0)])
    assert seg.dim == 1
    assert len(seg.equations) == 2
    for n, b in seg.equations:
        assert all(x.denominator == 1 for x in n)
        assert sum(n_i * v_i for n_i, v_i in zip(n, fv(1, 1, 0))) == b
    assert len(seg.facets) == 2


def test_single_point():
    p = from_vertices([fv(3, 5)])
    assert p.dim == 0
    assert p.facets == ()
    assert len(p.equations) == 2


def test_empty_input_errors():
    with pytest.raises(EmptyInput):
        from_vertices([])


def test_broken_precondition_is_an_internal_fault():
    """from_halfspaces converts the facet rows of a bounded full-dimensional
    polytope; any other system is a fault of the code that built it."""
    square = list(from_vertices(SQUARE).facets)
    for hs in (
        # Lines, a ray, and a segment cut out by opposite row pairs.
        [(fv(1, 0), F(1))],
        [(fv(1, 0), F(1)), (fv(-1, 0), F(1))],
        [(fv(1, 0), F(1)), (fv(0, 1), F(1)), (fv(-1, 0), F(0))],
        [(fv(1, 0), F(0)), (fv(-1, 0), F(0)), (fv(0, 1), F(1)), (fv(0, -1), F(1))],
        # A redundant row, a repeated facet, and an empty system.
        square + [(fv(1, 1), F(3))],
        square + [(fv(2, 0), F(2))],
        square + [(fv(1, 0), F(-2))],
    ):
        with pytest.raises(AssertionError):
            from_halfspaces(hs)


# --- from_halfspaces against the two-pass and brute-force oracles.

ROOT_GRAMS = {
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    # 5 times the inverse Cartan matrix of A4: the permutohedral A4*.
    "A4*": [[min(i, j) * (5 - max(i, j)) for j in range(1, 5)] for i in range(1, 5)],
    "A5": [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5)]
           for i in range(5)],
}


def test_voronoi_cells_match_two_pass_oracle():
    for name, gram in {**GRAMS, **ROOT_GRAMS}.items():
        hs = lattice._dv_halfspaces(gram)[1]
        cell = from_halfspaces(hs)
        assert cell == oracles.from_halfspaces_two_pass(hs), name
        assert cell.dim == len(gram)


def _random_h_description(rng):
    """An H-description of a random polytope (possibly lower-dimensional or
    a point) with redundant rows, positive rescalings, equations given as
    opposite row pairs (rescaled, plain, or plain with one row repeated),
    and zero-normal rows; sometimes cut to empty or opened along a
    direction."""
    d = rng.randint(1, 4)
    k = d if rng.random() < 0.5 else rng.randint(0, d - 1)
    base = tuple(F(rng.randint(-3, 3)) for _ in range(d))
    dirs = [tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(k)]
    pts = [
        tuple(base[i] + sum(rng.randint(-2, 2) * u[i] for u in dirs) for i in range(d))
        for _ in range(k + 2 + rng.randint(0, 3))
    ]
    p = from_vertices(pts)
    hs = list(p.facets)
    for n, b in p.equations:
        s = F(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
        r = rng.random()
        if r < 0.4:
            hs += _as_pairs([(tuple(s * x for x in n), s * b)])
        elif r < 0.8:
            hs += _as_pairs([(n, b)])
        else:
            hs += _as_pairs([(n, b)]) + [(n, b)]
    for _ in range(rng.randint(0, 3)):
        # Valid rows: tight on some face, or strictly redundant.
        n = tuple(F(rng.randint(-2, 2)) for _ in range(d))
        if not _lp.is_zero(n):
            top = max(_lp.dot(n, v) for v in p.vertices)
            hs.append((n, top + rng.choice((0, 0, F(1, 2), 1))))
    for _ in range(rng.randint(0, 2)):
        n, b = rng.choice(hs) if hs else ((F(0),) * d, F(0))
        s = F(rng.randint(1, 5), rng.randint(1, 3))
        hs.append((tuple(s * x for x in n), s * b))
    if rng.random() < 0.1:
        hs.append(((F(0),) * d, F(rng.randint(0, 2))))
    r = rng.random()
    if r < 0.1:
        n = tuple(F(rng.randint(-2, 2)) for _ in range(d))
        if _lp.is_zero(n):
            n = (F(1),) + (F(0),) * (d - 1)
        hs.append((n, min(_lp.dot(n, v) for v in p.vertices) - rng.choice((F(1, 3), 1))))
    elif r < 0.25:
        # Drop every row that bounds some direction u: u recedes.
        u = tuple(F(rng.randint(-2, 2)) for _ in range(d))
        hs = [(n, b) for n, b in hs if _lp.dot(n, u) <= 0]
    rng.shuffle(hs)
    return hs


def test_from_halfspaces_matches_bruteforce_oracle():
    rng = random.Random(4711)
    checked = 0
    for d in (2, 3):
        for _ in range(8):
            pts = [tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(d + 3)]
            facets = oracles.hull_facets_bruteforce(pts)
            if oracles.matrix_rank([_lp.vsub(p, pts[0]) for p in pts], d) < d:
                continue
            p = from_halfspaces(facets)
            assert list(p.vertices) == oracles.hull_vertices_bruteforce(pts)
            assert list(p.facets) == facets
            assert p.incidence == tuple(
                frozenset(i for i, v in enumerate(p.vertices) if _lp.dot(n, v) == b)
                for n, b in facets
            )
            checked += 1
    assert checked >= 10


# --- The integer kernels against the Fraction kernels they replaced
# (oracles.extreme_rays_reference, from_vertices_reference and
# cone_dual_reference): equal results, and only Fractions in them.

# 6 times the inverse Cartan matrix of A5: the permutohedral A5*.
A5_STAR = [[min(i, j) * (6 - max(i, j)) for j in range(1, 6)] for i in range(1, 6)]


def _dd_calls(monkeypatch, build):
    """The result of build() and the (rows, dim) of every _extreme_rays call
    it made."""
    calls = []
    dd = ratpoly._extreme_rays

    def record(rows, dim):
        calls.append((list(rows), dim))
        return dd(rows, dim)

    with monkeypatch.context() as m:
        m.setattr(ratpoly, "_extreme_rays", record)
        out = build()
    return out, calls


def _dd_outcome(dd, rows, dim):
    try:
        return dd(rows, dim)
    except (ratpoly._Lineality, oracles.Lineality):
        return "lineality"


def _assert_dd_matches_reference(calls):
    for rows, dim in calls:
        got = _dd_outcome(ratpoly._extreme_rays, rows, dim)
        assert got == _dd_outcome(oracles.extreme_rays_reference, rows, dim)
        if got != "lineality":
            # Callers divide ray entries: an int ray would give floats.
            assert all(type(x) is F for ray, _ in got for x in ray)


def _assert_fractions(p):
    """Every number of p is a Fraction; a leaked int would print as 5, not
    [5, 1], in a report."""
    nums = [x for v in p.vertices for x in v]
    for n, b in p.facets + p.equations:
        nums += [*n, b]
    assert all(type(x) is F for x in nums)


def test_extreme_rays_match_reference_on_voronoi_rows(monkeypatch):
    for name, gram in {**GRAMS, **ROOT_GRAMS, "A5*": A5_STAR}.items():
        hs = lattice._dv_halfspaces(gram)[1]
        cell, calls = _dd_calls(monkeypatch, lambda: from_halfspaces(hs))
        assert len(calls) == 1, name
        _assert_dd_matches_reference(calls)
        _assert_fractions(cell)
    assert len(cell.vertices) == 720 and len(cell.facets) == 62


def test_extreme_rays_match_reference_on_h_descriptions():
    rng = random.Random(20261018)
    lineal = total = 0
    for _ in range(150):
        hs = _random_h_description(rng)
        # The rows from_halfspaces homogenizes: b t - n.x >= 0 and t >= 0.
        d = len(hs[0][0])
        rows = [tuple(-x for x in n) + (b,) for n, b in hs]
        rows.append((F(0),) * d + (F(1),))
        _assert_dd_matches_reference([(rows, d + 1)])
        if _dd_outcome(ratpoly._extreme_rays, rows, d + 1) == "lineality":
            lineal += 1
        else:
            total += 1
    # Most systems run the whole double description, and one has rows
    # that do not span.
    assert total >= 120 and lineal >= 1


def _random_v_description(rng):
    """Points in R^d, d from 1 to 6, whose hull may be lower-dimensional,
    with rational coordinates, repeated points, midpoints (inside an edge,
    a face or the interior) and sometimes the centroid."""
    d = rng.randint(1, 6)
    k = rng.randint(0, d)
    base = tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(d))
    dirs = [tuple(F(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(d))
            for _ in range(k)]
    pts = [
        tuple(b + sum(rng.randint(-2, 2) * u[i] for u in dirs) for i, b in enumerate(base))
        for _ in range(k + 1 + rng.randint(0, 4))
    ]
    extra = []
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(pts), rng.choice(pts)
        extra.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    if len(pts) > 2 and rng.random() < 0.5:
        extra.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    extra += rng.sample(pts, min(len(pts), rng.randint(0, 2)))
    pts += extra
    rng.shuffle(pts)
    return pts


def _vertices_outcome(build, pts):
    try:
        return build(pts)
    except (EmptyInput, ValueError) as exc:
        return type(exc)


def test_from_vertices_matches_reference_on_v_descriptions(monkeypatch):
    rng = random.Random(20261019)
    dims = set()
    dropped = 0
    for _ in range(120):
        pts = _random_v_description(rng)
        got, calls = _dd_calls(monkeypatch, lambda: from_vertices(pts))
        assert got == oracles.from_vertices_reference(pts)
        _assert_fractions(got)
        _assert_dd_matches_reference(calls)
        dims.add(got.dim)
        dropped += len(got.vertices) < len(set(pts))
    # Every dimension was reached, and many inputs had points that are not
    # vertices.
    assert dims == set(range(7))
    assert dropped >= 40
    for bad in ([], [fv(0, 0), fv(1, 0, 0)], [(F(0),) * 7, (F(1),) * 7]):
        got = _vertices_outcome(from_vertices, bad)
        assert got == _vertices_outcome(oracles.from_vertices_reference, bad)
        assert got in (EmptyInput, ValueError)


def _pipeline_cones():
    """Every (i, v) that the cone pipeline asks excluded_direction_cone for."""
    q, paras, _ = syssolve.lifted_configuration()
    return [(i, v) for i in range(1, 6) for v in q.vertices if v not in paras[i - 1]]


def test_cone_dual_matches_reference(monkeypatch):
    seen = []

    def record(gens, d):
        seen.append((list(gens), d))
        return cone_dual(gens, d)

    monkeypatch.setattr(syssolve, "cone_dual", record)
    for i, v in _pipeline_cones():
        got = syssolve.excluded_direction_cone(i, v)
        normals, _ = oracles.cone_dual_reference(*seen[-1])
        assert got == tuple(sorted(tuple(-x for x in n) for n in normals))
    assert len(seen) == 30
    rng = random.Random(1018)
    for _ in range(60):
        d = rng.randint(1, 5)
        gens = [tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
                for _ in range(rng.randint(0, 6))]
        # Only nonempty lists of nonzero generators reach cone_dual.
        gens = [g for g in gens if not _lp.is_zero(g)]
        if gens:
            seen.append((gens, d))
    for glist, d in seen:
        got = cone_dual(glist, d)
        assert got == oracles.cone_dual_reference(glist, d)
        assert all(type(x) is F for n in got[0] for x in n)


def test_excluded_cones_match_the_two_pass_reference():
    """One pass over Q - v and the plane gives the cone that the tangent
    cone's edge directions widened by the plane give, for all 30 pairs."""
    for i, v in _pipeline_cones():
        assert syssolve.excluded_direction_cone(i, v) == \
            oracles.excluded_cone_reference(i, v), (i, v)


def test_pipeline_cone_makes_one_dd_pass(monkeypatch):
    """Cold, apart from the hull Q that every cone reads: 30 cones make 30
    double description passes (40 when each tangent cone took one more)."""
    cones = _pipeline_cones()
    real, real_rref = ratpoly._extreme_rays, _lp.rref
    passes = []
    eliminations = []

    def counted(rows, dim):
        passes.append(dim)
        return real(rows, dim)

    def counted_rref(rows):
        eliminations.append(len(rows))
        return real_rref(rows)

    monkeypatch.setattr(ratpoly, "_extreme_rays", counted)
    monkeypatch.setattr(_lp, "rref", counted_rref)
    for i, v in cones:
        syssolve.excluded_direction_cone(i, v)
    assert len(cones) == len(passes) == 30
    # One elimination per cone dual: its span equations come off the
    # echelon form that gives its span basis.
    assert len(eliminations) == 30


def test_dimension_cap():
    with pytest.raises(ValueError):
        from_vertices([tuple(F(0) for _ in range(7)), tuple(F(1) for _ in range(7))])


def test_face_lattice_square():
    p = from_vertices(SQUARE)
    faces = face_lattice(p)
    counts = {}
    for d, _ in faces:
        counts[d] = counts.get(d, 0) + 1
    assert counts == {0: 4, 1: 4, 2: 1}
    # Nonempty faces only: the Euler sum is 1.
    assert sum((-1) ** d for d, _ in faces) == 1


def test_face_lattice_cube():
    faces = face_lattice(from_vertices(CUBE))
    dims = [d for d, _ in faces]
    assert tuple(dims.count(k) for k in range(4)) == (8, 12, 6, 1)
    assert sum((-1) ** d for d in dims) == 1


def test_face_lattice_ranks_match_the_elimination_reference(monkeypatch):
    """face_lattice ranks each face from the incidences alone and equals
    the elimination it replaced (oracles.face_lattice_reference): on the
    Voronoi cell of every suite lattice, A4*, A5, A5* and GEN5, and on
    lower-dimensional hulls, a point, a segment, a square in R^3 and one
    dual 3-cell of each fan type.  It runs no elimination."""
    from tilekit import tiling
    from test_lattice import GEN5

    grams = [*GRAMS.values(), ROOT_GRAMS["A4*"], ROOT_GRAMS["A5"], A5_STAR, GEN5]
    cells = [lattice.dv_cell(g) for g in grams]
    cells += [from_vertices([fv(1, 2, 3)]),
              from_vertices([fv(0, 0, 0), fv(1, 2, 3)]),
              from_vertices([fv(x, y, 1) for x in (0, 1) for y in (0, 1)])]
    shapes = {}
    for name in ("Z3", "HEXPRISM", "FCC", "ELONG4"):
        c = tiling.build_complex(GRAMS[name])
        for o in c.orbits:
            if o.dim == c.dim - 3:
                dc = tiling.dual_cell(c, o.index)
                shapes.setdefault(tiling.classify_dual3(dc).tag, dc.hull)
    assert sorted(shapes) == ["I", "II", "III", "IV", "V"]
    assert shapes["IV"].ambient_dim == 4
    cells += shapes.values()

    calls = []
    independent = _lp.independent

    class Counted(_lp.Elimination):
        def __init__(self, ncols):
            calls.append("Elimination")
            super().__init__(ncols)

    def counted(rows, limit):
        calls.append("independent")
        return independent(rows, limit)

    with monkeypatch.context() as m:
        m.setattr(_lp, "Elimination", Counted)
        m.setattr(_lp, "independent", counted)
        got = [face_lattice(p) for p in cells]
    assert calls == []
    for p, faces in zip(cells, got):
        assert faces == oracles.face_lattice_reference(p)
    point, segment, square = got[len(grams):len(grams) + 3]
    assert [k for k, _ in point] == [0]
    assert [k for k, _ in segment] == [0, 0, 1]
    assert [k for k, _ in square] == [0] * 4 + [1] * 4 + [2]


def test_cone_dual_cube_corner():
    # cone(CUBE - 0) is the positive orthant: the seven generators reduce
    # to three facets, and the cone spans R^3.
    gens = [v for v in CUBE if any(v)]
    assert cone_dual(gens, 3) == ([fv(0, 0, 1), fv(0, 1, 0), fv(1, 0, 0)], [])


def test_cone_dual_reads_the_tangent_cone_off_all_vertices():
    # At every cube vertex, the dual of all the vertex differences equals
    # the dual of the three edge directions, and its normals are the facets
    # active there.
    p = from_vertices(CUBE)
    for vi, v in enumerate(p.vertices):
        diffs = [_lp.vsub(w, v) for w in p.vertices if w != v]
        edges = [d for d in diffs if sum(map(abs, d)) == 1]
        active = sorted(tuple(-x for x in n)
                        for (n, _), inc in zip(p.facets, p.incidence) if vi in inc)
        assert cone_dual(diffs, 3) == cone_dual(edges, 3) == (active, [])


def test_cone_dual_quadrant_widened_by_a_line():
    assert cone_dual([fv(0, 1), fv(1, 0), fv(-1, 0)], 2) == ([fv(0, 1)], [])


def test_cone_dual_full_plane():
    assert cone_dual([fv(1, 0), fv(0, 1), fv(-1, 0), fv(0, -1)], 2) == ([], [])


def test_skinny_frozen_shapes():
    assert is_skinny(from_vertices(SQUARE))
    assert is_skinny(from_vertices(CUBE))
    # Regular octahedron.
    octa = [fv(1, 0, 0), fv(-1, 0, 0), fv(0, 1, 0), fv(0, -1, 0), fv(0, 0, 1), fv(0, 0, -1)]
    assert is_skinny(from_vertices(octa))
    # Regular-enough hexagon (rational coordinates, centrally symmetric).
    hexagon = [fv(2, 0), fv(1, 2), fv(-1, 2), fv(-2, 0), fv(-1, -2), fv(1, -2)]
    assert not is_skinny(from_vertices(hexagon))
    # A cube with an extra apex glued outside one corner.
    spiked = CUBE + [fv(2, 2, 2)]
    assert not is_skinny(from_vertices(spiked))
    # An empty lattice polytope: its only lattice points are its vertices,
    # which are distinct mod 2, yet (0, 0, 0) and (1, 0, 0) are not
    # antipodal.  So the audit is not implied by the dual-cell checks.
    empty = [fv(0, 0, 0), fv(1, 0, 0), fv(0, 1, 0), fv(0, 0, 1), fv(3, 1, 1)]
    assert not is_skinny(from_vertices(empty))


def test_skinny_degenerate_shapes():
    assert is_skinny(from_vertices([fv(1, 2)]))
    assert is_skinny(from_vertices([fv(0, 0), fv(1, 0)]))


def _lattice_point_set(rng, d):
    """m + 2 to m + 5 points of the box {0..top}^m, top 1 or 2, mapped into
    Z^d by an injective integer matrix, for a random m in 2..d.  Every set
    of 0/1 points is skinny, and a hull of a larger box often is not."""
    m = rng.randint(2, d)
    while True:
        emb = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(d)]
        if oracles.matrix_rank(emb, m) == m:
            break
    top = rng.choice((1, 2))
    pts = [[rng.randint(0, top) for _ in range(m)]
           for _ in range(rng.randint(m + 2, m + 5))]
    return [fv(*(sum(e * x for e, x in zip(row, q)) for row in emb)) for q in pts]


def test_skinny_matches_the_lp_sweep_on_lattice_point_sets():
    """is_skinny equals the per-pair LP sweep on seeded lattice point sets
    in R^3 and R^4; both verdicts occur often among the hulls that are not
    simplices, full-dimensional and lower-dimensional alike."""
    rng = random.Random(32)
    seen = Counter()
    for d in (3, 4):
        for _ in range(40):
            p = from_vertices(_lattice_point_set(rng, d))
            got = is_skinny(p)
            assert got == oracles.is_skinny_reference(p), p.vertices
            if len(p.vertices) > p.dim + 1:
                seen[got, p.dim < d] += 1
    assert len(seen) == 4 and min(seen.values()) >= 8, seen


def test_json_round_trip():
    p = from_vertices(SQUARE + [fv(F(1, 2), 3)])
    obj = ratpoly.polytope_to_json(p)
    assert obj["dim"] == 2 and "equations" not in obj
    back = ratpoly.frac_from_json
    assert [tuple(map(back, v)) for v in obj["vertices"]] == list(p.vertices)
    assert [(tuple(map(back, f["normal"])), back(f["offset"]))
            for f in obj["facets"]] == list(p.facets)
    assert obj["vertices"][0] == ratpoly.vec_to_json(p.vertices[0])
    assert obj["facets"][0]["offset"] == ratpoly.frac_to_json(p.facets[0][1])


def test_json_big_numbers_become_strings():
    big = 2**80
    out = ratpoly.frac_to_json(F(big, 3))
    assert out == [str(big), 3]
    assert ratpoly.frac_from_json(out) == F(big, 3)
    assert ratpoly.frac_to_json(F(-(2**70))) == [str(-(2**70)), 1]
