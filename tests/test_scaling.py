"""Tests for canonical scalings: local star families, gains, coherence."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from tilekit import cli, ratpoly, scaling, tiling
from tilekit._lp import primitive, vec, vsub

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
    # The graph Laplacian of K_{3,3} with node 0 removed.
    "K33": [[3, 0, -1, -1, -1], [0, 3, -1, -1, -1], [-1, -1, 3, 0, 0],
            [-1, -1, 0, 3, 0], [-1, -1, 0, 0, 3]],
}
GRAMS["ELONG4_REBASED"] = _skew(
    GRAMS["ELONG4"], oracles.random_unimodular(random.Random(5), 4, 6)[0])


@lru_cache(maxsize=None)
def cpx(name: str) -> tiling.TilingComplex:
    return tiling.build_complex(GRAMS[name])


@lru_cache(maxsize=None)
def frame(name: str) -> scaling.NormalFrame:
    return scaling.build_frame(cpx(name))


@lru_cache(maxsize=None)
def table(name: str) -> dict[int, scaling.StarScaling]:
    """The star table over every codimension-3 orbit of ``name``."""
    c = cpx(name)
    return scaling.star_table(c, frame(name), orbits_of_dim(c, c.dim - 3))


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
        s = scaling.star_scaling_d2(c, vo, frame("A2"))
        assert s.kind == "unique_ray" and s.unique and s.dof == 1
        assert sorted(s.factors.values()) == [1, 1, 1]


def test_three_tile_star_sheared_ray_is_unequal():
    c = cpx("SHEARED")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d2(c, vo, frame("SHEARED"))
        assert s.unique
        assert sorted(s.factors.values()) == [1, 1, 3]


def test_four_tile_star_two_parameter():
    c = cpx("Z2")
    s = scaling.star_scaling_d2(c, 0, frame("Z2"))
    assert s.kind == "two_parameter" and not s.unique and s.dof == 2
    assert s.factors == {1: Fraction(1), 2: Fraction(1)}


def test_star_scaling_d2_needs_codim2_face():
    c = cpx("Z2")
    with pytest.raises(ValueError):
        scaling.star_scaling_d2(c, 1, frame("Z2"))


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
            s1 = scaling.star_scaling_d2(c, vo, fr)
            s2 = scaling.star_scaling_d2(c, vo, fr2)
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
    s = scaling.star_scaling_d3(c, 0, table("Z3"))
    assert s.dof == 3 and not s.unique
    assert s.factors == {4: Fraction(1), 5: Fraction(1), 6: Fraction(1)}


def test_fcc_vertex_stars_pin_unique_ray():
    c = cpx("FCC")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d3(c, vo, table("FCC"))
        assert s.unique and s.dof == 1
        assert set(s.factors.values()) == {Fraction(1)}


def test_bcc_vertex_star_ray_doubles_halved_normals():
    c = cpx("BCC")
    s = scaling.star_scaling_d3(c, 0, table("BCC"))
    assert s.unique
    assert s.factors == {18: Fraction(1), 19: Fraction(1), 20: Fraction(2),
                         22: Fraction(1), 23: Fraction(1), 24: Fraction(2)}


def test_prism_vertex_star_has_two_components():
    c = cpx("HEXPRISM")
    for vo in orbits_of_dim(c, 0):
        s = scaling.star_scaling_d3(c, vo, table("HEXPRISM"))
        assert s.dof == 2 and not s.unique


def test_uniqueness_tracks_dual_cell_type():
    # Unique rays exactly at octahedron, pyramid, and simplex vertex cells.
    for name in ("Z3", "FCC", "BCC", "HEXPRISM"):
        c = cpx(name)
        for vo in orbits_of_dim(c, 0):
            tag = tiling.classify_dual3(tiling.dual_cell(c, vo)).tag
            s = scaling.star_scaling_d3(c, vo, table(name))
            assert s.unique == (tag in ("III", "IV", "V"))


def test_star_scaling_d3_needs_codim3_face():
    c = cpx("FCC")
    edge = orbits_of_dim(c, 1)[0]
    with pytest.raises(ValueError):
        scaling.star_scaling_d3(c, edge, table("FCC"))
    c2 = cpx("A2")
    with pytest.raises(ValueError):
        scaling.star_scaling_d3(c2, 0, table("A2"))


#: Codimension-3 orbit counts of the 5-D Grams.
CODIM3_ORBITS = {"GEN5": 338, "K33": 180}


@pytest.mark.parametrize("name", ["Z3", "FCC", "BCC", "BCC_SKEW", "HEXPRISM",
                                  "ELONG4", "Z4", "D4", "GEN5", "K33"])
def test_star_scaling_d3_matches_reference(name):
    """Linking the star table's rays gives the family that solving each
    codimension-2 star of the star afresh gives, on every codimension-3
    orbit."""
    c = cpx(name)
    orbits = orbits_of_dim(c, c.dim - 3)
    assert len(orbits) == CODIM3_ORBITS.get(name, len(orbits)) > 0
    for q in orbits:
        assert (scaling.star_scaling_d3(c, q, table(name))
                == oracles.star_scaling_d3_reference(c, q, frame(name)))


# ---------------------------------------------------------------------------
# Primitive vertex stars.
# ---------------------------------------------------------------------------


def test_primitive_vertex_in_skewed_basis():
    c = cpx("BCC_SKEW")
    for vo in orbits_of_dim(c, 0):
        p = scaling.star_scaling_d3(c, vo, table("BCC_SKEW"))
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
            s = scaling.star_scaling_d3(c, vo, table(name))
            ratios = set()
            for r in tiling.star(c, vo):
                if c.orbits[r].dim != c.dim - 1:
                    continue
                # The two tiles of a translated facet differ by the same
                # vector as those of the orbit's representative.
                ta, tb = c.orbits[r].tile_shifts
                w = mat_vec(GRAMS[name], vsub(ta, tb))
                sn = tuple(s.factors[r] * x for x in fr.normals[r])
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


def _reference_scan(c):
    """The scan's result computed by the references: the pairs of
    oracles.pyramid_pairs_reference, each with the orbits of the flanks
    that oracles.pyramid_flanks finds for it."""
    zero = vec([0] * c.dim)
    return [(vo, r.orbit, tuple(sorted(
        q.orbit for q in oracles.pyramid_flanks(c, r, oracles.FaceRef(vo, zero)))))
        for vo, r in oracles.pyramid_pairs_reference(c)]


def _flanks(c, vo, fo):
    """Orbits of the two flanks between vertex orbit vo and the first face
    of orbit fo in its star with exactly two, pyramids or not."""
    vverts = set(c.orbits[vo].vertices)
    st = oracles.shifted_stars(c, [vo])[vo]
    for r in st:
        if r.orbit != fo:
            continue
        rverts = set(oracles.face_vertices(c, r))
        flanks = [q.orbit for q in st
                  if c.orbits[q.orbit].dim == c.dim - 3
                  and vverts <= set(oracles.face_vertices(c, q)) <= rverts]
        if len(flanks) == 2:
            return tuple(sorted(flanks))
    raise AssertionError("no two-flank face found")


def test_coherence_on_elongated_lattice():
    c = cpx("ELONG4")
    pairs = _reference_scan(c)
    assert {(vo, fo): flanks for vo, fo, flanks in pairs} == ELONG4_HITS
    for _vo, fo, flanks in pairs:
        assert scaling.test_coherence(c, fo, flanks, table("ELONG4"))


def test_coherence_scan_builds_one_hull_per_orbit(monkeypatch):
    # The `scaling coherence` path asks for the cells of some orbits more
    # than once; only the first ask of an orbit may build a hull.
    c = tiling.build_complex(GRAMS["ELONG4"])
    fr = scaling.build_frame(c)
    real_hull, real_cell = ratpoly.from_vertices, tiling.dual_cell
    built, asked = [], []

    def counted_hull(points):
        built.append(points)
        return real_hull(points)

    def recorded_cell(cc, q):
        asked.append(q)
        return real_cell(cc, q)

    monkeypatch.setattr(ratpoly, "from_vertices", counted_hull)
    monkeypatch.setattr(tiling, "dual_cell", recorded_cell)
    pairs = scaling.pyramid_flanked_parallelograms(c)
    tab = scaling.star_table(c, fr, [q for *_, fl in pairs for q in fl])
    for _base, r, flanks in pairs:
        assert scaling.test_coherence(c, r, flanks, tab)
    assert len(pairs) == len(ELONG4_HITS)
    assert len(asked) > len(set(asked))
    assert 0 < len(built) <= len(set(asked))


def test_coherence_scan_builds_no_dual_4_cell(tmp_path, capsys, monkeypatch):
    """The scan hands the coherence test its flank orbits, so `scaling
    coherence` asks for no dual cell of a codimension-4 orbit."""
    real = tiling.dual_cell
    codims = []

    def recorded_cell(cc, q):
        codims.append(cc.dim - cc.orbits[q].dim)
        return real(cc, q)

    monkeypatch.setattr(tiling, "dual_cell", recorded_cell)
    path = tmp_path / "elong4.json"
    path.write_text(json.dumps({"gram": GRAMS["ELONG4"]}))
    assert cli.main(["scaling", "coherence", "--gram", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["pairs"]) == len(ELONG4_HITS)
    assert 4 not in codims
    assert {2, 3} <= set(codims)


#: sha256 of the stdout of ``scaling <command>`` on 5-D Grams, recorded
#: before the scaling layer solved each star once per command.
SCALING_DIGESTS = {
    ("coherence", "GEN5"):
        "78fd77f224077855a6ef9e5ae1bc6cedd842471968543bc956d4763e7435a9bb",
    ("coherence", "K33"):
        "2be85f0481be15562164d1c724397808c9caeafe0c297f2ecdfebe95685cbe1b",
    ("build", "K33"):
        "d060be3897f9ddd1816f6c8401dcd6613fe042bb607eb34de9d99cf991741c28",
}


@pytest.mark.parametrize("command,name,solves", [
    ("build", "ELONG4", 24), ("coherence", "ELONG4", 24),
    ("build", "K33", 102), ("coherence", "K33", 90),
    ("coherence", "GEN5", 52), ("coherence", "D4", 0)])
def test_each_star_is_solved_once_per_command(tmp_path, capsys, monkeypatch,
                                              command, name, solves):
    """No codimension-2 orbit reaches star_scaling_d2 twice in one command,
    and each three-tile star costs one nullspace."""
    real_d2, real_null = scaling.star_scaling_d2, scaling.nullspace
    solved, kernels = [], []

    def counted_d2(c, q, fr):
        out = real_d2(c, q, fr)
        solved.append((q, out.unique))
        return out

    def counted_null(*args, **kwargs):
        kernels.append(args)
        return real_null(*args, **kwargs)

    monkeypatch.setattr(scaling, "star_scaling_d2", counted_d2)
    monkeypatch.setattr(scaling, "nullspace", counted_null)
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"gram": GRAMS[name]}))
    assert cli.main(["scaling", command, "--gram", str(path)]) == 0
    out = capsys.readouterr().out
    assert len({q for q, _ in solved}) == len(solved)
    assert len(kernels) == sum(unique for _, unique in solved) == solves
    if (command, name) in SCALING_DIGESTS:
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == SCALING_DIGESTS[(command, name)]


@pytest.mark.parametrize("name", ["ELONG4", "Z4", "GEN5", "ELONG4_REBASED"])
def test_pyramid_scan_matches_reference(name):
    c = cpx(name)
    got = scaling.pyramid_flanked_parallelograms(c)
    assert got == _reference_scan(c)
    assert bool(got) == (name != "Z4")


def test_pyramid_scan_takes_the_least_qualifying_shift(monkeypatch):
    # With every flank taken for a pyramid, several faces of one orbit
    # qualify around the same vertex of Z4 and ELONG4; both scans must pick
    # the same one, and so the same flanks.
    monkeypatch.setattr(tiling, "classify_dual3", lambda dc: tiling.FAN_IV)
    for name in ("Z4", "ELONG4"):
        c = cpx(name)
        got = scaling.pyramid_flanked_parallelograms(c)
        assert got and got == _reference_scan(c), name


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
        classified.append(next(q for q, cell in enumerate(c._dual_cells)
                               if cell is dc))
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
    flanks = ELONG4_HITS[(0, 47)]
    assert scaling.test_coherence(c, 47, flanks,
                                  scaling.star_table(c, fr2, flanks))


def test_coherence_detects_perturbed_flank(monkeypatch):
    c = cpx("ELONG4")
    fr = frame("ELONG4")
    quad_orbit = sorted(scaling.star_scaling_d2(c, 47, fr).factors)[0]
    real = scaling.star_scaling_d3
    calls = []

    def skewed(cc, q, tab):
        out = real(cc, q, tab)
        calls.append(q)
        if len(calls) == 2:
            factors = dict(out.factors)
            factors[quad_orbit] *= 7
            out = scaling.StarScaling(kind=out.kind, factors=factors,
                                      dof=out.dof, unique=out.unique)
        return out

    monkeypatch.setattr(scaling, "star_scaling_d3", skewed)
    assert scaling.test_coherence(c, 47, ELONG4_HITS[(0, 47)],
                                  table("ELONG4")) is False
    assert len(calls) == 2


def test_coherence_rejects_cube_flanks():
    c = cpx("Z4")
    two = next(r for r in tiling.star(c, 0) if c.orbits[r].dim == 2)
    flanks = _flanks(c, 0, two)
    assert {tiling.classify_dual3(tiling.dual_cell(c, q)).tag
            for q in flanks} == {"I"}
    with pytest.raises(scaling.HypothesisViolated):
        scaling.test_coherence(c, two, flanks, table("Z4"))


def test_coherence_rejects_mixed_flanks():
    # Around two vertex orbits of the elongated lattice one flank is a
    # parallelepiped cell, which violates the pyramid hypothesis.
    c = cpx("ELONG4")
    flanks = _flanks(c, 3, 41)
    assert sorted(tiling.classify_dual3(tiling.dual_cell(c, q)).tag
                  for q in flanks) == ["I", "IV"]
    with pytest.raises(scaling.HypothesisViolated):
        scaling.test_coherence(c, 41, flanks, table("ELONG4"))


def test_coherence_validates_cell_dimensions():
    c = cpx("ELONG4")
    flanks = ELONG4_HITS[(0, 47)]
    tab = scaling.star_table(c, frame("ELONG4"), flanks)
    facet = next(r for r in tiling.star(c, 0) if c.orbits[r].dim == 3)
    vertex = 0
    with pytest.raises(ValueError):
        scaling.test_coherence(c, facet, flanks, tab)
    with pytest.raises(ValueError):
        scaling.test_coherence(c, 47, (flanks[0], vertex), tab)
    # A codimension-2 orbit with a triangle dual cell has no parallelogram.
    tri = next(o.index for o in c.orbits if o.dim == 2
               and tiling.classify_d2(c, o.index).tag == "A")
    with pytest.raises(ValueError):
        scaling.test_coherence(c, tri, flanks, tab)
    fan_a = next(r for r, sub in tab.items() if sub.unique)
    with pytest.raises(ValueError):
        scaling.test_coherence(c, fan_a, flanks, tab)


def test_d4_lattice_has_no_quadruple_2_faces():
    c = cpx("D4")
    assert all(len(c.orbits[o].tile_shifts) == 3
               for o in orbits_of_dim(c, 2))
    assert _reference_scan(c) == []
    assert scaling.pyramid_flanked_parallelograms(c) == []
