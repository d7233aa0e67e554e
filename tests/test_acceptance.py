"""Acceptance suite: end-to-end checks of every major pipeline.

Each test freezes the expected outcome of one headline computation and,
where a budget is stated, asserts a wall-clock bound around the whole
computation it times.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache

from tilekit import hypercomb as hc
from tilekit import lattice, lifting, scaling, syssolve, tiling
from tilekit.ratpoly import from_vertices, is_skinny

import oracles
from test_syssolve import (
    EXTRA_6_11_MATRIX,
    FIVE_TEN_MATRICES,
    SIX_ELEVEN_MATRICES,
)

F = Fraction

GRAMS = {
    "Z2": [[1, 0], [0, 1]],
    "A2": [[2, 1], [1, 2]],
    "SHEARED": [[4, 1], [1, 4]],
    "Z3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "FCC": [[2, 0, 1], [0, 2, 1], [1, 1, 2]],
    "BCC": [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
    "HEXPRISM": [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
    "ELONG4": [[4, 0, 0, 2], [0, 4, 0, 2], [0, 0, 4, 2], [2, 2, 2, 7]],
}


@lru_cache(maxsize=None)
def cpx(name: str) -> tiling.TilingComplex:
    return tiling.build_complex(GRAMS[name])


@lru_cache(maxsize=None)
def frame(name: str) -> scaling.NormalFrame:
    return scaling.build_frame(cpx(name))


@lru_cache(maxsize=None)
def case_table() -> syssolve.CaseTable:
    return syssolve.run_all_cases()


def dual3_tags(name: str) -> set[str]:
    c = cpx(name)
    tags = set()
    for o in c.orbits:
        if o.dim == c.dim - 3:
            dc = tiling.dual_cell(c, o.index)
            tags.add(tiling.classify_dual3(dc).tag)
    return tags


def test_1_k5_scheme_enumeration():
    t0 = time.monotonic()
    cases = hc.enumerate_k5_schemes()
    classes = hc.k5_scheme_classes()

    assert len(cases) == 8
    single = [s for s in cases if len(s.cycles) == 1]
    assert single == cases[:4]
    case_keys = [oracles.canonical_scheme(s.cycles) for s in cases]
    for k in range(4):
        assert case_keys[k] == oracles.canonical_scheme(hc.SCHEME_CASES[k + 1])

    # The case list is exhaustive but lists one class twice (cases 3 and
    # 4 are relabelings), so the true class count is seven.
    assert len(classes) == 7
    assert case_keys[2] == case_keys[3]
    assert {oracles.canonical_scheme(cl.cycles) for cl in classes} == set(case_keys)
    assert sum(len(cl.cycles) == 1 for cl in classes) == 3
    assert time.monotonic() - t0 < 1.0


def test_2_five_ten_case_table():
    t0 = time.monotonic()
    rows = {k: syssolve.five_ten_case(k) for k in sorted(hc.SCHEME_CASES)}
    elapsed = time.monotonic() - t0

    assert sorted(rows) == list(range(1, 9))
    assert all(r.verified for r in rows.values())
    for k in (1, 3, 5):
        assert rows[k].documented == ("no_solution",)
        assert isinstance(rows[k].failure, syssolve.NoSolution)
        assert rows[k].solution is None
    coincidences = {4: ("v34", "v15"), 6: ("v34", "v12"), 8: ("v45", "v12")}
    for k, (a, b) in coincidences.items():
        assert rows[k].documented == ("coincidence", a, b)
        assert rows[k].detected.kind == "coincidence"
        vals = rows[k].solution.as_map()
        assert vals[a] == vals[b]
    for k in (2, 7):
        assert rows[k].documented[0] == "residual"
    # The second family keeps one free direction; the seventh is killed
    # by the centrally symmetric six-point diagonal coincidence.
    assert len(rows[2].solution.params) == 1
    assert rows[7].resolution.kind == "coincidence-with-diagonal"
    for k, want in FIVE_TEN_MATRICES.items():
        assert rows[k].solution.matrix() == want
    assert elapsed < 1.0


def test_3_six_eleven_case_table():
    t0 = time.monotonic()
    rows = [syssolve.six_eleven_case(i)
            for i in range(len(hc.enumerate_6_11_matchings()))]
    elapsed = time.monotonic() - t0

    assert len(rows) == 19  # eighteen table rows plus one extra matching
    assert all(r.verified for r in rows)
    by_case = {r.case: r for r in rows if r.case is not None}
    assert by_case[1].documented == ("coincidence", "s'", "s")
    for k in (2, 3, 4, 5, 6, 7, 9, 10, 13, 14, 15, 16, 17):
        assert by_case[k].documented == ("parity", "s'", "s")
    assert by_case[18].documented == ("nonconvex", "v33'")
    for k, to in ((8, 6), (11, 7), (12, 10)):
        assert by_case[k].documented == ("reduces", to)
        assert by_case[k].reduces_to == to
        assert by_case[k].solution is None
    for k, want in SIX_ELEVEN_MATRICES.items():
        assert by_case[k].solution.matrix() == want
    extra = [r for r in rows if r.case is None]
    assert len(extra) == 1
    assert extra[0].documented == ("parity", "s'", "s")
    assert extra[0].solution.matrix() == EXTRA_6_11_MATRIX
    assert elapsed < 5.0
    # The combined runner agrees with the per-family computations above.
    assert case_table().all_verified
    assert case_table().six_eleven == tuple(rows)


def test_4_cone_pipeline_and_final_case():
    t0 = time.monotonic()
    rays = syssolve.cone_test_pipeline()
    rep = syssolve.final_case_check()
    elapsed = time.monotonic() - t0

    base = syssolve.SURVIVOR_DIRECTION
    assert base == (F(-1), F(-1), F(-1), F(1), F(1))
    orbit = set()
    for sign in (1, -1):
        v = tuple(sign * x for x in base)
        for k in range(5):
            orbit.add(v[k:] + v[:k])
    assert set(rays) == orbit
    assert len(rays) == 10
    assert base in rays
    assert tuple(rays) == tuple(syssolve.survivor_orbit())

    assert rep.kind == "vertex-count"
    eight, ten, forced, prism, images = rep.certificate
    assert (eight, ten) == (8, 10)
    assert [tuple(int(x) for x in v) for v in images] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 1, -1), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1),
        (1, 1, 1, 0), (2, 1, 1, -1)]
    assert tuple(int(x) for x in forced) == (1, 0, 1, 0)
    assert len(prism) == 6
    assert elapsed < 30.0


def test_5_moment_identities():
    t0 = time.monotonic()
    enumerated = {r: [hc.hypergraph(e) for e in oracles.closed_hypergraph_classes(r)]
                  for r in range(1, 7)}
    assert {r: len(v) for r, v in enumerated.items()} == {
        1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1}

    def check(g: hc.Hypergraph4):
        audit = hc.moment_audit(g)
        assert audit.ok
        for _name, lhs, rhs in audit.identities:
            assert lhs == rhs
        assert len(audit.identities) == 5
        assert audit.r <= audit.v <= 2 * audit.r

    for graphs in enumerated.values():
        for g in graphs:
            check(g)

    rng = random.Random(20260817)
    produced = 0
    attempts = 0
    while produced < 200 and attempts < 2000:
        attempts += 1
        g = oracles.random_closed(rng, rng.choice((5, 6, 8)))
        if g is None:
            continue
        produced += 1
        check(hc.hypergraph(g))
    assert produced == 200
    assert time.monotonic() - t0 < 10.0


def test_6_dv_venkov_suite():
    t0 = time.monotonic()
    facet_counts = {"Z2": 4, "Z3": 6, "A2": 6, "FCC": 12, "BCC": 14}
    for name, want in facet_counts.items():
        rep = lattice.venkov_check_cell(lattice.dv_cell(GRAMS[name]))
        assert rep.passed
        assert rep.facet_count == want
        assert set(rep.belt_lengths) <= {4, 6}
    # Independent confirmation of the two nontrivial counts.
    for name in ("FCC", "BCC"):
        brute = oracles.relevant_vectors_bruteforce(GRAMS[name], radius=3)
        assert len(brute) == facet_counts[name]

    rng = random.Random(171)
    produced = 0
    while produced < 50:
        d = 2 + produced % 3
        a = [[rng.choice([-1, 0, 1]) if i != j else rng.choice([1, 2])
              for j in range(d)] for i in range(d)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)]
        try:
            rel = lattice.relevant_vectors(gram)
        except ValueError:
            continue  # sampled a singular matrix
        produced += 1
        assert len(rel) <= 2 * (2 ** d - 1)
        assert len(lattice.dv_cell(gram).facets) == len(rel)
    assert time.monotonic() - t0 < 60.0


def test_7_dual_cell_classification():
    assert dual3_tags("Z3") == {"I"}
    ok, witness = tiling.is_3_irreducible(cpx("Z3"))
    assert not ok and witness[1].tag == "I"

    assert dual3_tags("FCC") == {"V", "III"}  # simplices and octahedra
    assert tiling.is_3_irreducible(cpx("FCC")) == (True, None)

    assert "II" in dual3_tags("HEXPRISM")  # triangular prisms over the caps
    names = {tiling.classify_dual3(
        tiling.dual_cell(cpx("HEXPRISM"), o.index)).name
        for o in cpx("HEXPRISM").orbits if o.dim == 0}
    assert "triangular_prism" in names


def test_8_canonical_scaling_suite():
    t0 = time.monotonic()
    for name in GRAMS:
        c = cpx(name)
        fr = frame(name)
        gain = scaling.bridge_gain(c, scaling.gain_from_d2(c, fr))
        seed = min(o.index for o in c.orbits if o.dim == c.dim - 1)
        out = scaling.propagate(c, gain, seed)
        assert isinstance(out, scaling.ScalingAssignment), name
        assert scaling.verify_canonical(c, out, fr) == (True, None), name
        # The checker restricted to low-dimensional-face stars must agree
        # with the full spanning-tree circuit check above.
        codim3 = [o.index for o in c.orbits if o.dim == c.dim - 3]
        table = scaling.star_table(c, fr, codim3)
        for q in codim3:
            scaling.star_scaling_d3(c, q, table)

    c = cpx("FCC")
    gain = dict(scaling.bridge_gain(c, scaling.gain_from_d2(c, frame("FCC"))))
    a, b = sorted(gain)[0]
    gain[(a, b)] *= 3
    gain[(b, a)] /= 3
    out = scaling.propagate(c, gain, a)
    assert isinstance(out, scaling.InconsistencyWitness)
    assert out.circuit[0] == out.circuit[-1]
    assert out.gain_product != 1
    steps = set(zip(out.circuit, out.circuit[1:]))
    assert (a, b) in steps or (b, a) in steps
    assert time.monotonic() - t0 < 60.0


def test_9_generatrissa_z2_and_a2():
    for name in ("Z2", "A2"):
        c = cpx(name)
        fr = frame(name)
        gain = scaling.bridge_gain(c, scaling.gain_from_d2(c, fr))
        out = scaling.propagate(
            c, gain, min(o.index for o in c.orbits if o.dim == 1))
        assert isinstance(out, scaling.ScalingAssignment)
        g = lifting.build_generatrissa(c, out, fr)
        q = lifting.recover_qform(g)  # raises if not positive definite
        m = q.matrix
        assert m[0][1] == m[1][0]
        assert m[0][0] > 0 and m[0][0] * m[1][1] - m[0][1] ** 2 > 0
        rep = lifting.verify_lifting(g, q)
        assert rep.tangency is True
        assert rep.convexity is True


def test_10_skinny_polytopes():
    pool = []
    for name in GRAMS:
        c = cpx(name)
        assert tiling.skinny_audit(c).passed, name
        for o in c.orbits:
            dc = tiling.dual_cell(c, o.index)
            if len(dc.verts) >= 3:
                pool.append(tuple(dc.verts))

    hexagon = [(F(2), F(0)), (F(1), F(2)), (F(-1), F(2)),
               (F(-2), F(0)), (F(-1), F(-2)), (F(1), F(-2))]
    assert not is_skinny(from_vertices(hexagon))
    cube = [(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1)
            for z in (0, 1)]
    assert is_skinny(from_vertices(cube))
    assert not is_skinny(from_vertices(cube + [(F(2), F(2), F(2))]))

    rng = random.Random(99)
    for _ in range(100):
        verts = rng.choice(pool)
        size = rng.randint(1, len(verts))
        subset = rng.sample(verts, size)
        assert is_skinny(from_vertices(subset))
