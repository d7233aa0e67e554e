"""Tests for canonical scalings: local star families, gains, coherence."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from tilekit import ratpoly, scaling, tiling
from tilekit._lp import primitive, vadd, vec, vsub

import oracles
from test_lattice import GEN5, _skew

GRAMS = {
    "Z2": [[1, 0], [0, 1]],
    "A2": [[2, 1], [1, 2]],
    "SHEARED": [[4, 1], [1, 4]],
    "Z3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "FCC": [[2, 0, 1], [0, 2, 1], [1, 1, 2]],
    "BCC": [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
    "BCC_SKEW": [[3, 2, -1], [2, 4, -2], [-1, -2, 3]],
    "HEXPRISM": [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
    "ELONG4": [[4, 0, 0, 2], [0, 4, 0, 2], [0, 0, 4, 2], [2, 2, 2, 7]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "Z4": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "A5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
           [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]],
    "GEN5": GEN5,
}
GRAMS["ELONG4_REBASED"] = _skew(
    GRAMS["ELONG4"], oracles.random_unimodular(random.Random(5), 4, 6)[0])


@lru_cache(maxsize=None)
def cpx(name: str) -> tiling.TilingComplex:
    return tiling.build_complex(GRAMS[name])


@lru_cache(maxsize=None)
def frame(name: str) -> scaling.NormalFrame:
    return scaling.build_frame(cpx(name))


def ref(c, oi):
    return tiling.FaceRef(oi, vec([0] * c.dim))


def orbits_of_dim(c, k):
    return [o.index for o in c.orbits if o.dim == k]


def mat_vec(g, x):
    return tuple(sum(g[i][j] * x[j] for j in range(len(x)))
                 for i in range(len(g)))


# ---------------------------------------------------------------------------
# Normal frames.
# ---------------------------------------------------------------------------


def test_build_frame_matches_facet_orbits():
    for name in ("Z2", "A2", "Z3", "FCC", "BCC", "HEXPRISM"):
        c = cpx(name)
        fr = frame(name)
        assert sorted(fr.normals) == orbits_of_dim(c, c.dim - 1)
        for n in fr.normals.values():
            assert all(x.denominator == 1 for x in n)
            assert primitive(n) == n


# ---------------------------------------------------------------------------
# Codimension-2 stars.
# ---------------------------------------------------------------------------


def test_three_tile_star_hexagonal_ray():
    c = cpx("A2")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d2(c, ref(c, vo), frame("A2"))
        assert s.kind == "unique_ray" and s.unique and s.dof == 1
        assert sorted(s.factors.values()) == [1, 1, 1]


def test_three_tile_star_sheared_ray_is_unequal():
    c = cpx("SHEARED")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d2(c, ref(c, vo), frame("SHEARED"))
        assert s.unique
        assert sorted(s.factors.values()) == [1, 1, 3]


def test_four_tile_star_two_parameter():
    c = cpx("Z2")
    s = scaling.star_scaling_d2(c, ref(c, 0), frame("Z2"))
    assert s.kind == "two_parameter" and not s.unique and s.dof == 2
    assert s.factors == {1: Fraction(1), 2: Fraction(1)}


def test_star_scaling_d2_needs_codim2_face():
    c = cpx("Z2")
    with pytest.raises(ValueError):
        scaling.star_scaling_d2(c, ref(c, 1), frame("Z2"))


def test_ray_ratios_invariant_under_frame_rescaling():
    rng = random.Random(20260817)
    for name in ("A2", "SHEARED"):
        c = cpx(name)
        fr = frame(name)
        lam = {o: Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for o in fr.normals}
        fr2 = scaling.NormalFrame(
            {o: tuple(lam[o] * x for x in n) for o, n in fr.normals.items()})
        for vo in orbits_of_dim(c, 0):
            s1 = scaling.star_scaling_d2(c, ref(c, vo), fr)
            s2 = scaling.star_scaling_d2(c, ref(c, vo), fr2)
            # Factors absorb the rescaling: s2[o] * lam[o] is proportional
            # to s1[o] with one common positive multiplier.
            base, *rest = sorted(s1.factors)
            for o in rest:
                assert (s2.factors[o] * lam[o] * s1.factors[base]
                        == s2.factors[base] * lam[base] * s1.factors[o])


# ---------------------------------------------------------------------------
# Codimension-3 stars.
# ---------------------------------------------------------------------------


def test_cubical_vertex_star_has_three_free_parameters():
    c = cpx("Z3")
    s = scaling.star_scaling_d3(c, ref(c, 0), frame("Z3"))
    assert s.dof == 3 and not s.unique
    assert s.factors == {4: Fraction(1), 5: Fraction(1), 6: Fraction(1)}


def test_fcc_vertex_stars_pin_unique_ray():
    c = cpx("FCC")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d3(c, ref(c, vo), frame("FCC"))
        assert s.unique and s.dof == 1
        assert set(s.factors.values()) == {Fraction(1)}


def test_bcc_vertex_star_ray_doubles_halved_normals():
    c = cpx("BCC")
    s = scaling.star_scaling_d3(c, ref(c, 0), frame("BCC"))
    assert s.unique
    assert s.factors == {18: Fraction(1), 19: Fraction(1), 20: Fraction(2),
                         22: Fraction(1), 23: Fraction(1), 24: Fraction(2)}


def test_prism_vertex_star_has_two_components():
    c = cpx("HEXPRISM")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d3(c, ref(c, vo), frame("HEXPRISM"))
        assert s.dof == 2 and not s.unique


def test_uniqueness_tracks_dual_cell_type():
    # Unique rays exactly at octahedron, pyramid, and simplex vertex cells.
    for name in ("Z3", "FCC", "BCC", "HEXPRISM"):
        c = cpx(name)
        for vo in orbits_of_dim(c, 0):
            tag = tiling.classify_dual3(tiling.dual_cell(c, ref(c, vo))).tag
            s = scaling.star_scaling_d3(c, ref(c, vo), frame(name))
            assert s.unique == (tag in ("III", "IV", "V"))


def test_star_scaling_d3_needs_codim3_face():
    c = cpx("FCC")
    edge = orbits_of_dim(c, 1)[0]
    with pytest.raises(ValueError):
        scaling.star_scaling_d3(c, ref(c, edge), frame("FCC"))
    c2 = cpx("A2")
    with pytest.raises(ValueError):
        scaling.star_scaling_d3(c2, ref(c2, 0), frame("A2"))


# ---------------------------------------------------------------------------
# Primitive vertex stars.
# ---------------------------------------------------------------------------


def test_primitive_vertex_in_skewed_basis():
    c = cpx("BCC_SKEW")
    for vo in orbits_of_dim(c, 0):
        p = scaling.star_scaling_d3(c, ref(c, vo), frame("BCC_SKEW"))
        assert p.unique
        assert all(v > 0 for v in p.factors.values())
        assert sorted(p.factors.values()) == [1, 1, 1, 1, 2, 2]


def test_scaled_normals_follow_center_differences():
    # Across each facet of a primitive vertex star, the scaled frame normal
    # equals the Gram image of the difference of the two adjacent tile
    # translations, up to one positive multiplier common to the whole star.
    for name in ("BCC", "BCC_SKEW"):
        c = cpx(name)
        fr = frame(name)
        for vo in orbits_of_dim(c, 0):
            s = scaling.star_scaling_d3(c, ref(c, vo), fr)
            ratios = set()
            for r in tiling.star(c, ref(c, vo)):
                if c.orbits[r.orbit].dim != c.dim - 1:
                    continue
                ta, tb = (vadd(t, r.shift)
                          for t in c.orbits[r.orbit].tile_shifts)
                w = mat_vec(GRAMS[name], vsub(ta, tb))
                sn = tuple(s.factors[r.orbit] * x
                           for x in fr.normals[r.orbit])
                j = next(i for i, x in enumerate(w) if x != 0)
                rho = sn[j] / w[j]
                assert rho != 0 and sn == tuple(rho * x for x in w)
                ratios.add(abs(rho))
            assert len(ratios) == 1


# ---------------------------------------------------------------------------
# Gains and propagation.
# ---------------------------------------------------------------------------


def test_adjacent_facet_pairs_cubic():
    assert scaling.adjacent_facet_pairs(cpx("Z3")) == {(4, 5), (4, 6), (5, 6)}


def test_propagate_unit_gain_gives_unit_scaling():
    c = cpx("Z3")
    gain = {}
    for a, b in scaling.adjacent_facet_pairs(c):
        gain[(a, b)] = Fraction(1)
        gain[(b, a)] = Fraction(1)
    out = scaling.propagate(c, gain, 4)
    assert isinstance(out, scaling.ScalingAssignment)
    assert out.factors == {4: Fraction(1), 5: Fraction(1), 6: Fraction(1)}


def test_fcc_gain_propagates_and_verifies():
    c = cpx("FCC")
    gain = scaling.gain_from_d2(c, frame("FCC"))
    out = scaling.propagate(c, gain, orbits_of_dim(c, 2)[0])
    assert isinstance(out, scaling.ScalingAssignment)
    assert set(out.factors.values()) == {Fraction(1)}
    assert scaling.verify_canonical(c, out, frame("FCC")) == (True, None)


def test_bcc_gain_propagates_and_verifies():
    c = cpx("BCC")
    gain = scaling.gain_from_d2(c, frame("BCC"))
    out = scaling.propagate(c, gain, orbits_of_dim(c, 2)[0])
    assert out.factors == {18: Fraction(1), 19: Fraction(1), 20: Fraction(2),
                           21: Fraction(2), 22: Fraction(1), 23: Fraction(1),
                           24: Fraction(2)}
    assert scaling.verify_canonical(c, out, frame("BCC")) == (True, None)


def test_sheared_gain_propagates_and_verifies():
    c = cpx("SHEARED")
    gain = scaling.gain_from_d2(c, frame("SHEARED"))
    out = scaling.propagate(c, gain, 2)
    assert out.factors == {2: Fraction(1), 3: Fraction(3), 4: Fraction(1)}
    assert scaling.verify_canonical(c, out, frame("SHEARED")) == (True, None)


def test_corrupted_gain_yields_circuit_witness():
    c = cpx("FCC")
    gain = dict(scaling.gain_from_d2(c, frame("FCC")))
    gain[(11, 12)] *= 2
    gain[(12, 11)] /= 2
    out = scaling.propagate(c, gain, 11)
    assert isinstance(out, scaling.InconsistencyWitness)
    assert out.circuit[0] == out.circuit[-1]
    assert out.gain_product != 1
    prod = Fraction(1)
    edges = list(zip(out.circuit, out.circuit[1:]))
    for e in edges:
        prod *= gain[e]
    assert prod == out.gain_product
    # Any closed walk avoiding the corrupted pair has unit gain product, so
    # the witness must traverse it.
    assert (11, 12) in edges or (12, 11) in edges


def test_propagate_validates_input():
    c = cpx("FCC")
    fr = frame("FCC")
    gain = scaling.gain_from_d2(c, fr)
    bad = dict(gain)
    bad[(11, 12)] *= 2  # reciprocity broken
    with pytest.raises(ValueError):
        scaling.propagate(c, bad, 11)
    bad = dict(gain)
    bad[(11, 12)] = Fraction(-1)
    with pytest.raises(ValueError):
        scaling.propagate(c, bad, 11)
    bad = dict(gain)
    bad[(11, 15)] = bad[(15, 11)] = Fraction(1)  # facets share no ridge
    with pytest.raises(ValueError):
        scaling.propagate(c, bad, 11)
    with pytest.raises(ValueError):
        scaling.propagate(c, gain, 0)  # seed is a vertex orbit


def test_propagate_requires_connected_gain_graph():
    # The prism caps meet other facets only at four-tile ridges, which
    # induce no gain, so the cap orbit stays out of reach.
    c = cpx("HEXPRISM")
    gain = scaling.gain_from_d2(c, frame("HEXPRISM"))
    with pytest.raises(ValueError, match="connect"):
        scaling.propagate(c, gain, orbits_of_dim(c, 2)[0])


def test_bridge_gain_connects_prism_caps():
    c = cpx("HEXPRISM")
    gain = scaling.gain_from_d2(c, frame("HEXPRISM"))
    bridged = scaling.bridge_gain(c, gain)
    assert set(gain) <= set(bridged)
    added = {k for k in bridged if k not in gain}
    assert added and all(bridged[k] == 1 for k in added)
    out = scaling.propagate(c, bridged, orbits_of_dim(c, 2)[0])
    assert isinstance(out, scaling.ScalingAssignment)
    assert scaling.verify_canonical(c, out, frame("HEXPRISM")) == (True, None)


def test_bridge_gain_is_identity_when_connected():
    c = cpx("FCC")
    gain = scaling.gain_from_d2(c, frame("FCC"))
    assert scaling.bridge_gain(c, gain) == gain


def test_scaling_assignment_requires_positive_factors():
    with pytest.raises(ValueError):
        scaling.ScalingAssignment({1: Fraction(0)})


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def test_verify_unit_scaling_where_canonical():
    for name in ("Z2", "A2", "FCC"):
        c = cpx(name)
        ones = scaling.ScalingAssignment(
            {o: Fraction(1) for o in orbits_of_dim(c, c.dim - 1)})
        assert scaling.verify_canonical(c, ones, frame(name)) == (True, None)


def test_verify_flags_wrong_ratios():
    for name, bad_orbit in (("SHEARED", 0), ("BCC", 6)):
        c = cpx(name)
        ones = scaling.ScalingAssignment(
            {o: Fraction(1) for o in orbits_of_dim(c, c.dim - 1)})
        assert scaling.verify_canonical(c, ones, frame(name)) == (False, bad_orbit)


# ---------------------------------------------------------------------------
# Coherence across parallelogram cells.
# ---------------------------------------------------------------------------


# (vertex orbit, quadruple 2-face orbit) -> flank edge orbits, for the
# elongated lattice below.  Scanning finds exactly these six.
ELONG4_HITS = {
    (0, 47): (12, 23),
    (1, 41): (13, 14),
    (2, 44): (16, 17),
    (5, 44): (22, 24),
    (6, 41): (21, 25),
    (7, 47): (20, 32),
}


def _pyramid_pairs(c):
    """(vertex, quadruple 2-face) orbit pairs of the reference scan, each
    with the orbits of its two pyramid flanks."""
    hits = {}
    for vo, r, d4 in oracles.pyramid_pairs_reference(c):
        flanks = scaling.pyramid_flanks(c, tiling.dual_cell(c, r), d4)
        hits[(vo, r.orbit)] = {tuple(sorted(q.orbit for q in flanks))}
    return hits


def _first_hit_ref(c, vo, fo):
    vref = ref(c, vo)
    vverts = set(c.face_vertices(vref))
    st = tiling.star(c, vref)
    for r in st:
        if r.orbit != fo:
            continue
        rverts = set(c.face_vertices(r))
        flanks = [q for q in st
                  if c.orbits[q.orbit].dim == 1
                  and vverts <= set(c.face_vertices(q)) <= rverts]
        if len(flanks) == 2:
            return r
    raise AssertionError("no two-flank reference found")


def test_coherence_on_elongated_lattice():
    c = cpx("ELONG4")
    hits = _pyramid_pairs(c)
    assert {k: sorted(v) for k, v in hits.items()} == {
        k: [v] for k, v in ELONG4_HITS.items()}
    d4s = {vo: tiling.dual_cell(c, ref(c, vo))
           for vo in sorted({vo for vo, _ in hits})}
    for vo, fo in sorted(hits):
        pi = tiling.dual_cell(c, _first_hit_ref(c, vo, fo))
        assert scaling.test_coherence(c, pi, d4s[vo], frame("ELONG4"))


def test_coherence_scan_builds_one_hull_per_orbit(monkeypatch):
    # The `scaling coherence` path asks for the cells of some orbits more
    # than once; only the first ask of an orbit may build a hull.
    c = tiling.build_complex(GRAMS["ELONG4"])
    fr = scaling.build_frame(c)
    real_hull, real_cell = ratpoly.from_vertices, tiling.dual_cell
    built, asked, touched = [], [], set()

    def counted_hull(points):
        built.append(points)
        return real_hull(points)

    def recorded_cell(cc, f):
        asked.append(f)
        touched.add(f.orbit)
        return real_cell(cc, f)

    monkeypatch.setattr(ratpoly, "from_vertices", counted_hull)
    monkeypatch.setattr(tiling, "dual_cell", recorded_cell)
    pairs = scaling.pyramid_flanked_parallelograms(c)
    for _base, pref, d4 in pairs:
        assert scaling.test_coherence(c, tiling.dual_cell(c, pref), d4, fr)
    assert len(pairs) == len(ELONG4_HITS)
    assert len(asked) > len(touched)
    assert 0 < len(built) <= len(touched)


@pytest.mark.parametrize("name", ["ELONG4", "Z4", "GEN5", "ELONG4_REBASED"])
def test_pyramid_scan_matches_reference(name):
    c = cpx(name)
    got = scaling.pyramid_flanked_parallelograms(c)
    assert got == oracles.pyramid_pairs_reference(c)
    assert bool(got) == (name != "Z4")


def test_pyramid_scan_takes_the_least_qualifying_shift(monkeypatch):
    # With every flank taken for a pyramid, several faces of one orbit
    # qualify around the same vertex of Z4 and ELONG4; both scans must pick
    # the same one.
    monkeypatch.setattr(tiling, "classify_dual3", lambda dc: tiling.FAN_IV)
    for name in ("Z4", "ELONG4"):
        c = cpx(name)
        got = scaling.pyramid_flanked_parallelograms(c)
        assert got and got == oracles.pyramid_pairs_reference(c), name


def test_pyramid_scan_computes_no_star(monkeypatch):
    def no_star(cc, q):
        raise AssertionError("the scan computed a star")

    monkeypatch.setattr(tiling, "_representative_star", no_star)
    a5 = tiling.build_complex(GRAMS["A5"])
    assert all(len(o.tile_shifts) == 3 for o in a5.orbits if o.dim == 3)
    assert scaling.pyramid_flanked_parallelograms(a5) == []
    elong = tiling.build_complex(GRAMS["ELONG4"])
    assert len(scaling.pyramid_flanked_parallelograms(elong)) == len(ELONG4_HITS)


def test_pyramid_scan_classifies_each_flank_orbit_once(monkeypatch):
    c = tiling.build_complex(GRAMS["ELONG4"])
    real = tiling.classify_dual3
    classified = []

    def counted(dc):
        classified.append(dc.face.orbit)
        return real(dc)

    monkeypatch.setattr(tiling, "classify_dual3", counted)
    scaling.pyramid_flanked_parallelograms(c)
    assert len(classified) == len(set(classified))
    assert {q for pair in ELONG4_HITS.values() for q in pair} <= set(classified)


def test_coherence_invariant_under_frame_rescaling():
    c = cpx("ELONG4")
    fr = frame("ELONG4")
    rng = random.Random(4)
    lam = {o: Fraction(rng.randint(1, 9), rng.randint(1, 9))
           for o in fr.normals}
    fr2 = scaling.NormalFrame(
        {o: tuple(lam[o] * x for x in n) for o, n in fr.normals.items()})
    vo, fo = 0, 47
    pi = tiling.dual_cell(c, _first_hit_ref(c, vo, fo))
    d4 = tiling.dual_cell(c, ref(c, vo))
    assert scaling.test_coherence(c, pi, d4, fr2)


def test_coherence_detects_perturbed_flank(monkeypatch):
    c = cpx("ELONG4")
    fr = frame("ELONG4")
    pi = tiling.dual_cell(c, _first_hit_ref(c, 0, 47))
    d4 = tiling.dual_cell(c, ref(c, 0))
    quad_orbit = sorted(scaling.star_scaling_d2(c, pi.face, fr).factors)[0]
    real = scaling.star_scaling_d3
    calls = []

    def skewed(cc, f, frm):
        out = real(cc, f, frm)
        calls.append(f)
        if len(calls) == 2:
            factors = dict(out.factors)
            factors[quad_orbit] *= 7
            out = scaling.StarScaling(kind=out.kind, factors=factors,
                                      dof=out.dof, unique=out.unique)
        return out

    monkeypatch.setattr(scaling, "star_scaling_d3", skewed)
    assert scaling.test_coherence(c, pi, d4, fr) is False
    assert len(calls) == 2


def test_coherence_rejects_cube_flanks():
    c = cpx("Z4")
    fr = frame("Z4")
    vref = ref(c, 0)
    two = next(r for r in tiling.star(c, vref)
               if c.orbits[r.orbit].dim == 2)
    pi = tiling.dual_cell(c, two)
    d4 = tiling.dual_cell(c, vref)
    with pytest.raises(scaling.HypothesisViolated):
        scaling.test_coherence(c, pi, d4, fr)


def test_coherence_rejects_mixed_flanks():
    # Around two vertex orbits of the elongated lattice one flank is a
    # parallelepiped cell, which violates the pyramid hypothesis.
    c = cpx("ELONG4")
    pi = tiling.dual_cell(c, _first_hit_ref(c, 3, 41))
    d4 = tiling.dual_cell(c, ref(c, 3))
    with pytest.raises(scaling.HypothesisViolated):
        scaling.test_coherence(c, pi, d4, frame("ELONG4"))


def test_coherence_validates_cell_dimensions():
    c = cpx("Z4")
    fr = frame("Z4")
    vref = ref(c, 0)
    d4 = tiling.dual_cell(c, vref)
    facet = next(r for r in tiling.star(c, vref)
                 if c.orbits[r.orbit].dim == 3)
    with pytest.raises(ValueError):
        scaling.test_coherence(c, tiling.dual_cell(c, facet), d4, fr)
    two = next(r for r in tiling.star(c, vref)
               if c.orbits[r.orbit].dim == 2)
    pi = tiling.dual_cell(c, two)
    edge = next(r for r in tiling.star(c, vref)
                if c.orbits[r.orbit].dim == 1)
    with pytest.raises(ValueError):
        scaling.test_coherence(c, pi, tiling.dual_cell(c, edge), fr)
    far = tiling.FaceRef(two.orbit, vec([7, 7, 7, 7]))
    with pytest.raises(ValueError):
        scaling.test_coherence(c, tiling.dual_cell(c, far), d4, fr)


def test_d4_lattice_has_no_quadruple_2_faces():
    c = cpx("D4")
    assert all(len(c.orbits[o].tile_shifts) == 3
               for o in orbits_of_dim(c, 2))
    assert _pyramid_pairs(c) == {}
