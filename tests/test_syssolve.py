"""Tests for the matching-system solver, case tables, and direction tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tilekit.hypercomb import (
    DOCUMENTED_SIGMA_ITEMS,
    K5_EDGES,
    PloughingScheme,
    SCHEME_CASES,
    _all_raw_schemes,
    enumerate_6_11_matchings,
    scheme_to_matching,
)
from tilekit import _lp, syssolve
from tilekit.syssolve import (
    FIVE_TEN_LABELS,
    SIX_ELEVEN_LABELS,
    SURVIVOR_DIRECTION,
    NoSolution,
    SolutionFamily,
    _make_cell,
    build_system,
    cone_test_pipeline,
    convex_witness,
    detect_contradiction,
    excluded_direction_cone,
    final_case_check,
    lifted_configuration,
    parity_certificate,
    resolve_octahedron_case,
    run_all_cases,
    solve,
    survivor_orbit,
    verify_no_solution,
    verify_parity_certificate,
)

import oracles


def _mat(text: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(tok) for tok in line.split())
                 for line in text.strip().splitlines())


def _f(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


def _solved(case: int) -> SolutionFamily:
    out = solve(build_system(scheme_to_matching(PloughingScheme(SCHEME_CASES[case]))))
    assert isinstance(out, SolutionFamily)
    return out


# --- system construction ----------------------------------------------------


def test_five_ten_system_shape():
    ls = build_system(scheme_to_matching(PloughingScheme(SCHEME_CASES[4])))
    assert ls.kind == "5-10"
    assert ls.labels == FIVE_TEN_LABELS
    assert FIVE_TEN_LABELS == tuple(syssolve.edge_label(e) for e in K5_EDGES)
    assert len(ls.parallelograms) == 5
    assert len(ls.gauge) == 7
    gm = ls.gauge_map()
    assert gm["v12"] == _f(0, 0, 0, 0)
    assert sorted(gm.values()).count(_f(1, 1, 0, 0)) == 1
    for eq in ls.equations():
        assert sum(eq.values()) == 0
        assert sorted(eq.values()) in ([-1, -1, 1, 1], [-2, 1, 1], [-1, -1, 2])


def test_six_eleven_system_shape():
    sp = next(iter(enumerate_6_11_matchings()))
    ls = build_system(sp)
    assert ls.kind == "6-11"
    assert ls.labels == SIX_ELEVEN_LABELS
    assert len(ls.parallelograms) == 6
    assert len(ls.gauge) == 7
    assert ls.gauge_map()["s"] == _f(0, 0, 0, 0)


# --- golden solutions, first family -----------------------------------------


FIVE_TEN_MATRICES = {
    2: _mat("""
        0 1 0 1 0 0 0 0 -1 0
        0 0 1 1 0 0 0 -1 -1 0
        0 0 0 0 1 0 1 0 1 0
        0 0 0 0 0 1 1 1 1 0
        0 0 0 0 0 0 0 1 1 1
        """),
    4: _mat("""
        0 1 0 1 0 0 0 1 0 1
        0 0 1 1 0 0 0 1 -1 0
        0 0 0 0 1 1 0 0 1 1
        0 0 0 0 1 0 1 0 1 0
        """),
    6: _mat("""
        0 1 1 0 0 0 0 0 -1 1
        0 0 1 1 0 0 0 0 0 1
        0 0 0 0 1 1 0 0 1 -1
        0 0 0 0 1 0 1 0 1 0
        """),
    7: _mat("""
        0 1 0 1 0 0 0 1 0 -1
        0 0 1 1 0 0 0 1 1 0
        0 0 0 0 1 1 0 0 1 1
        0 0 0 0 1 0 1 -1 0 1
        """),
    8: _mat("""
        0 1 1 0 0 0 0 1 0 0
        0 1 0 1 0 0 0 0 1 0
        0 0 0 0 1 1 0 1 0 0
        0 0 0 0 1 0 1 0 1 0
        """),
}


def test_five_ten_solved_matrices():
    for case, want in FIVE_TEN_MATRICES.items():
        sf = _solved(case)
        assert sf.matrix() == want, f"case {case}"
        assert len(sf.params) == (1 if case == 2 else 0)


def test_five_ten_inconsistent_cases():
    for case in (1, 3, 5):
        out = solve(build_system(scheme_to_matching(
            PloughingScheme(SCHEME_CASES[case]))))
        assert isinstance(out, NoSolution)
        assert verify_no_solution(out)
        # A corrupted certificate must not verify.
        bad = NoSolution(out.system, out.multipliers,
                         tuple(x + 1 for x in out.residue))
        assert not verify_no_solution(bad)


def test_solve_matches_the_column_pivot_reference():
    """On every system the case engine can build, the 243 raw K5 pairing
    systems and the 19 sigma-pair classes, solve gives the column-pivot
    Fraction solver's family or certificate field for field, and every
    certificate rechecks.  So it does on 2x = e1, x = e2, whose reduced
    integer row is twice the Fraction row."""
    systems = [build_system(scheme_to_matching(s)) for s in _all_raw_schemes()]
    systems += [build_system(sp) for sp in enumerate_6_11_matchings()]
    assert len(systems) == 262
    corners = ("x", "o", "e1", "e2")
    systems.append(syssolve.LinearSystem(
        "test", corners,
        (syssolve.Parallelogram("P1", corners, (("x", "x"), ("e1", "o"))),
         syssolve.Parallelogram("P2", corners, (("x", "o"), ("e2", "o")))),
        (("o", _f(0, 0, 0, 0)), ("e1", _f(1, 0, 0, 0)), ("e2", _f(0, 1, 0, 0)))))
    assert solve(systems[-1]).multipliers == _f(Fraction(-1, 2), 1)
    kinds = []
    for ls in systems:
        out, ref = solve(ls), oracles.solve_reference(ls)
        assert type(out) is type(ref) and out == ref, ls
        if isinstance(out, NoSolution):
            assert verify_no_solution(out), ls
        kinds.append(type(out).__name__)
    assert set(kinds) == {"SolutionFamily", "NoSolution"}


def test_documented_second_case_matrix_from_equivalent_traversal():
    # A relabeled traversal of the same scheme class yields the documented
    # matrix for the surviving one-parameter case verbatim.
    rec = PloughingScheme(((1, 2, 4, 5, 2, 3, 5, 1, 3, 4),))
    key = oracles.canonical_scheme(rec.cycles)
    assert key == oracles.canonical_scheme(SCHEME_CASES[2])
    assert not any(key == oracles.canonical_scheme(SCHEME_CASES[c])
                   for c in SCHEME_CASES if c != 2)
    sf = solve(build_system(scheme_to_matching(rec)))
    assert sf.matrix() == _mat("""
        0 1 1 0 0 0 0 -1 0 0
        0 0 1 1 0 0 0 -1 -1 0
        0 0 0 0 1 1 0 1 0 0
        0 0 0 0 0 1 1 1 1 0
        0 0 0 0 0 0 0 1 1 1
        """)


def test_five_ten_detected_kinds():
    tab = run_all_cases()
    got = {r.case: r.detected.kind for r in tab.five_ten}
    assert got == {1: "no_solution", 2: "residual", 3: "no_solution",
                   4: "coincidence", 5: "no_solution", 6: "coincidence",
                   7: "residual", 8: "coincidence"}
    certs = {r.case: r.detected.certificate[:2] for r in tab.five_ten
             if r.detected.kind == "coincidence"}
    assert certs == {4: ("v34", "v15"), 6: ("v34", "v12"), 8: ("v45", "v12")}


# --- golden solutions, second family ----------------------------------------


SIX_ELEVEN_MATRICES = {
    1: _mat("""
        0 1 1 0 0 0 0 1 1 0 0
        0 1 0 1 0 0 0 1 0 1 0
        0 0 0 0 1 1 0 -1 -1 0 0
        0 0 0 0 1 0 1 -1 0 -1 0
        """),
    2: _mat("""
        0 1 1 0 0 0 0 1 1 0 0
        0 1 0 1 0 0 0 3 2 1 2
        0 0 0 0 1 1 0 -1 -1 0 0
        0 0 0 0 1 0 1 -3 -2 -1 -2
        """),
    3: _mat("""
        0 1 1 0 0 0 0 3 1 2 2
        0 1 0 1 0 0 0 3 2 1 2
        0 0 0 0 1 1 0 -3 -1 -2 -2
        0 0 0 0 1 0 1 -3 -2 -1 -2
        """),
    4: _mat("""
        0 1 1 0 0 0 0 -1 -3 2 -2
        0 1 0 1 0 0 0 1 0 1 0
        0 0 0 0 1 1 0 1 3 -2 2
        0 0 0 0 1 0 1 1 2 -1 2
        """),
    5: _mat("""
        0 1 1 0 0 0 0 1 1 0 0
        0 1 0 1 0 0 0 1 0 -1 0
        0 0 0 0 1 1 0 -1 -1 0 0
        0 0 0 0 1 0 1 -1 0 1 0
        """),
    6: _mat("""
        0 1 1 0 0 0 0 1 1 0 0
        0 1 0 1 0 0 0 3 2 1 2
        0 0 0 0 1 1 0 -1 -1 0 0
        0 0 0 0 0 1 1 0 -1 1 0
        """),
    7: _mat("""
        0 1 1 0 0 0 0 1 1 0 0
        0 0 1 1 0 0 0 0 1 -1 0
        0 0 0 0 1 1 0 -1 -1 0 0
        0 0 0 0 1 0 1 -3 -2 -1 -2
        """),
    9: _mat("""
        0 1 1 0 0 0 0 3 1 2 2
        0 1 0 1 0 0 0 1 0 1 0
        0 0 0 0 1 1 0 -3 -1 -2 -2
        0 0 0 0 0 1 1 0 1 -1 0
        """),
    10: _mat("""
        0 1 1 0 0 0 0 3 1 2 2
        0 0 1 1 0 0 0 0 -1 1 0
        0 0 0 0 1 1 0 -3 -1 -2 -2
        0 0 0 0 1 0 1 -1 0 -1 0
        """),
    13: _mat("""
        0 1 1 0 0 0 0 -3 -1 -2 -2
        0 0 1 1 0 0 0 -2 -1 -1 -2
        0 0 0 0 1 1 0 3 1 2 2
        0 0 0 0 1 0 1 3 2 1 2
        """),
    14: _mat("""
        0 1 1 0 0 0 0 3 1 -2 2
        0 1 0 1 0 0 0 3 2 -1 2
        0 0 0 0 1 1 0 -3 -1 2 -2
        0 0 0 0 1 0 1 -1 0 1 0
        """),
    15: _mat("""
        0 1 1 0 0 0 0 -1 -3 2 -2
        0 1 0 1 0 0 0 1 0 1 0
        0 0 0 0 1 1 0 1 3 -2 2
        0 0 0 0 0 1 1 2 3 -1 2
        """),
    16: _mat("""
        0 1 1 0 0 0 0 -1 -3 2 -2
        0 0 1 1 0 0 0 0 -1 1 0
        0 0 0 0 1 1 0 1 3 -2 2
        0 0 0 0 1 0 1 1 2 -1 2
        """),
    17: _mat("""
        0 1 1 0 0 0 0 1 -1 0 0
        0 1 0 1 0 0 0 1 0 1 0
        0 0 0 0 1 1 0 -1 1 0 0
        0 0 0 0 0 1 1 0 1 1 0
        """),
    18: _mat("""
        0 1 1 0 0 0 0 -1 1 0 0
        0 1 0 1 0 0 0 -1/3 2/3 1/3 2/3
        0 0 0 0 1 1 0 1 -1 0 0
        0 0 0 0 0 1 1 2/3 -1/3 1/3 2/3
        """),
}

EXTRA_6_11_MATRIX = _mat("""
    0 1 1 0 0 0 0 -1 1 0 0
    0 1 0 1 0 0 0 -3 2 -1 -2
    0 0 0 0 1 1 0 3 -1 2 2
    0 0 0 0 0 1 1 2 -1 1 2
    """)


def test_six_eleven_solved_matrices():
    tab = run_all_cases()
    by_item = {r.case: r for r in tab.six_eleven}
    for item, want in SIX_ELEVEN_MATRICES.items():
        sf = by_item[item].solution
        assert sf is not None and sf.matrix() == want, f"item {item}"
        assert sf.params == ()
    assert by_item[None].solution.matrix() == EXTRA_6_11_MATRIX


def test_six_eleven_reductions_marked_not_solved():
    tab = run_all_cases()
    by_item = {r.case: r for r in tab.six_eleven}
    for item, target in ((8, 6), (11, 7), (12, 10)):
        row = by_item[item]
        assert row.reduces_to == target
        assert row.solution is None and row.detected is None
        assert row.verified


def test_six_eleven_detected_kinds():
    tab = run_all_cases()
    for r in tab.six_eleven:
        if r.reduces_to is not None:
            continue
        # Swapping the star roles of the two documented cases with equal
        # centers turns them up as coincidences; everything else shows the
        # even-difference pattern first, including the convex-position case.
        want = "coincidence" if r.case in (1, 5, 17) else "parity"
        assert r.detected.kind == want, f"item {r.case}"
        assert r.detected.certificate[:2] == ("s'", "s")


def test_case_table_documented_outcomes_all_verify():
    tab = run_all_cases()
    assert len(tab.five_ten) == 8
    assert len(tab.six_eleven) == 19
    assert tab.all_verified
    docs = {r.case: r.documented[0] for r in tab.six_eleven if r.case}
    assert docs == {1: "coincidence", 2: "parity", 3: "parity", 4: "parity",
                    5: "parity", 6: "parity", 7: "parity", 8: "reduces",
                    9: "parity", 10: "parity", 11: "reduces", 12: "reduces",
                    13: "parity", 14: "parity", 15: "parity", 16: "parity",
                    17: "parity", 18: "nonconvex"}
    for item, target in ((8, 6), (11, 7), (12, 10)):
        assert target in DOCUMENTED_SIGMA_ITEMS


def test_parity_certificate_rechecks():
    tab = run_all_cases()
    by_item = {r.case: r for r in tab.six_eleven}
    for item in (2, 18):
        sf = by_item[item].solution
        cert = parity_certificate(sf, "s'", "s")
        assert cert is not None
        coeffs, names = cert
        assert names == SIX_ELEVEN_LABELS
        assert verify_parity_certificate(sf, "s'", "s", coeffs)
        assert not verify_parity_certificate(sf, "s'", "s",
                                             tuple(c + 1 for c in coeffs))
    # No even difference exists between distinct unpinned points of the
    # first documented case.
    sf1 = by_item[1].solution
    assert parity_certificate(sf1, "v31'", "v11'") is None


def test_convex_position_failure_certificate():
    sf = {r.case: r for r in run_all_cases().six_eleven}[18].solution
    wit = convex_witness(sf, "v33'")
    assert wit is not None
    total = _f(0, 0, 0, 0)
    for lab, w in wit:
        assert w > 0
        total = tuple(t + w * x for t, x in zip(total, sf.value(lab)))
    assert total == sf.value("v33'")
    assert sum(w for _, w in wit) == 1
    # The midpoint relation admits the equal-weight witness on the two
    # center points.
    assert convex_witness(sf, "v11'") is None


def test_parity_certificates_match_the_per_pair_reduction():
    """One reduction of a family's point lattice decides every pair as a
    fresh reduction per pair does: equal certificates, or None, on every
    label pair of every family the case tables solve."""
    families = [r.solution for r in run_all_cases().rows if r.solution is not None]
    assert len(families) >= 20
    hits = 0
    for sf in families:
        labels = sf.system.labels
        names = labels + sf.params
        vals = sf.as_map()
        span = _lp.IntSpan(syssolve._parity_generators(sf)[1])
        first = None
        for j in range(len(labels)):
            for i in range(j):
                want = oracles.parity_certificate_reference(sf, labels[j], labels[i])
                coeffs = span.coefficients(
                    [(x - y) / 2 for x, y in zip(vals[labels[j]], vals[labels[i]])])
                assert (None if coeffs is None else (tuple(coeffs), names)) == want
                assert parity_certificate(sf, labels[j], labels[i]) == want
                if want is not None:
                    hits += 1
                    if first is None:
                        first = (labels[j], labels[i]) + want
        rep = detect_contradiction(sf)
        if rep.kind == "parity":
            assert rep.certificate == first
    assert hits > 0


def test_detect_contradiction_reduces_one_lattice_per_family(monkeypatch):
    reductions = []

    class CountingSpan(_lp.IntSpan):
        def __init__(self, gens):
            reductions.append(len(gens))
            super().__init__(gens)

    families = [r.solution for r in run_all_cases().rows if r.solution is not None]
    monkeypatch.setattr(syssolve, "IntSpan", CountingSpan)
    kinds = set()
    for sf in families:
        reductions.clear()
        kind = detect_contradiction(sf).kind
        kinds.add(kind)
        # Coincidences are found before any lattice is needed.
        assert len(reductions) == (0 if kind == "coincidence" else 1)
    assert {"coincidence", "parity", "residual"} <= kinds


def test_run_all_cases_reuses_the_detected_parity_certificate(monkeypatch):
    reductions = []

    class CountingSpan(_lp.IntSpan):
        def __init__(self, gens):
            reductions.append(len(gens))
            super().__init__(gens)

    monkeypatch.setattr(syssolve, "IntSpan", CountingSpan)
    tab = run_all_cases()
    assert tab.all_verified
    # One reduction per family whose detection gets past the coincidences,
    # and one more only for a parity row whose detected report is not the
    # documented pair (items 5 and 17 are detected as coincidences).
    detecting = [r for r in tab.rows
                 if r.solution is not None and r.detected.kind != "coincidence"]
    rechecked = [r for r in tab.rows if r.documented[0] == "parity"
                 and (r.detected.kind != "parity"
                      or r.detected.certificate[:2] != r.documented[1:])]
    assert sorted(r.case for r in rechecked) == [5, 17]
    assert len(reductions) == len(detecting) + len(rechecked) == 17


def test_corrupted_detected_parity_certificate_does_not_verify(monkeypatch):
    detect = syssolve.detect_contradiction

    def corrupted(sf):
        rep = detect(sf)
        if rep.kind != "parity":
            return rep
        # The pair's points differ, so no combination of zeros doubles to
        # their difference.
        a, b, coeffs, names = rep.certificate
        return rep._replace(certificate=(a, b, (0,) * len(coeffs), names))

    monkeypatch.setattr(syssolve, "detect_contradiction", corrupted)
    for r in run_all_cases().rows:
        reused = (r.documented[0] == "parity" and r.detected.kind == "parity"
                  and r.detected.certificate[:2] == r.documented[1:])
        # Only the rows that take the detected coefficients lose their
        # verification; the item-18 row is documented as nonconvex.
        assert r.verified is not reused, (r.family, r.case)


def test_detect_contradiction_prefers_earliest_pattern():
    sf = _solved(4)
    rep = detect_contradiction(sf)
    assert rep.kind == "coincidence"
    assert rep.certificate[:2] == ("v34", "v15")
    assert rep.certificate[2] == sf.value("v34")


# --- the six-point resolution of the second residual case -------------------


def test_octahedron_resolution_of_case_seven():
    sf = _solved(7)
    rep = resolve_octahedron_case(sf)
    assert rep is not None and rep.kind == "coincidence-with-diagonal"
    six, center, pairs, hits = rep.certificate
    # The first qualifying subset is the pinned square plus the antipodal
    # pair sharing its center; both of that square's diagonals hit.
    assert six == ("v12", "v13", "v14", "v15", "v25", "v34")
    assert center == _f(Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert pairs == (("v12", "v15"), ("v13", "v14"), ("v25", "v34"))
    assert {h[1] for h in hits} == {("v12", "v15"), ("v13", "v14")}
    assert all(name == "P1" for name, _ in hits)
    for a, b in pairs:
        assert tuple(x + y for x, y in zip(sf.value(a), sf.value(b))) == \
            tuple(2 * c for c in center)


def test_octahedron_resolution_documented_subset_also_qualifies():
    """The six points the paper names for case 7 form a centrally symmetric
    set around their centroid, span three dimensions, and two of their
    three antipodal pairs are diagonals of P4.  The search reports an
    earlier subset, so the documented one is checked here directly."""
    sf = _solved(7)
    vals = dict(sf.values)
    six = ("v12", "v35", "v14", "v24", "v34", "v45")
    total = [sum(vals[lab][k] for lab in six) for k in range(4)]
    center = tuple(x / 6 for x in total)
    assert center == _f(0, Fraction(1, 2), Fraction(1, 2), 0)
    pairs = [(a, b) for a, b in combinations(six, 2)
             if all(x + y == 2 * c
                    for x, y, c in zip(vals[a], vals[b], center))]
    assert pairs == [("v12", "v35"), ("v14", "v24"), ("v34", "v45")]
    rows = [tuple(x - c for x, c in zip(vals[lab], center)) for lab in six]
    assert oracles.matrix_rank(rows, 4) == 3
    diagonals = {frozenset(d): p.name
                 for p in sf.system.parallelograms for d in p.diagonals}
    hits = {pr: diagonals[frozenset(pr)] for pr in pairs
            if frozenset(pr) in diagonals}
    assert hits == {("v14", "v24"): "P4", ("v34", "v45"): "P4"}


def test_octahedron_search_matches_the_subset_scan_on_the_residual_families():
    for case in (2, 7):
        sf = _solved(case)
        assert resolve_octahedron_case(sf) == oracles.octahedron_search_reference(sf)


def _synthetic_families():
    """Ten distinct points with two centrally symmetric six-point sets:
    around 0, either a cross-polytope on e1, e2, e3 or a planar hexagon,
    and around (e1 + e2) / 2 the pairs (e1, e2), (e1 + e4, e2 - e4) and
    (e1 + e2 + e3, -e3)."""
    def pt(*xs):
        return _f(*xs, *[0] * (4 - len(xs)))

    shared = [pt(1), pt(-1), pt(0, 1), pt(0, -1), pt(1, 0, 0, 1),
              pt(0, 1, 0, -1), pt(1, 1, 1), pt(0, 0, -1)]
    yield shared + [pt(0, 0, 1), _f(1, 2, 3, 4)]
    yield shared + [pt(1, 1), pt(-1, -1)]


def test_octahedron_search_matches_the_subset_scan_on_two_symmetric_sets():
    """Seeded labelings of the synthetic families: the pair-sum search and
    the 210-subset scan agree on every one, including labelings where the
    hit is the later of the two six-point sets and where neither hits."""
    system = _solved(7).system
    rng = random.Random(3)
    outcomes = set()
    for points in _synthetic_families():
        for _ in range(40):
            rng.shuffle(points)
            sf = SolutionFamily(system, (), tuple(zip(system.labels, points)))
            rep = resolve_octahedron_case(sf)
            assert rep == oracles.octahedron_search_reference(sf)
            outcomes.add(None if rep is None else rep.certificate[1])
    assert outcomes == {None, _f(0, 0, 0, 0),
                        _f(Fraction(1, 2), Fraction(1, 2), 0, 0)}


def test_octahedron_search_needs_distinct_points():
    sf = _solved(4)
    assert len(set(sf.as_map().values())) < len(sf.values)
    with pytest.raises(ValueError, match="distinct"):
        resolve_octahedron_case(sf)


def test_octahedron_search_finds_nothing_in_residual_family():
    assert resolve_octahedron_case(_solved(2)) is None
    sp = next(iter(enumerate_6_11_matchings()))
    with pytest.raises(ValueError):
        resolve_octahedron_case(solve(build_system(sp)))


# --- direction tests ---------------------------------------------------------


def test_lifted_configuration_shape():
    q, paras, planes = lifted_configuration()
    assert len(q.vertices) == 10
    assert q.dim == 5
    vert = set(q.vertices)
    for quad in paras:
        assert len(quad) == 4 and set(quad) <= vert
        # Opposite corners of each quadruple share their midpoint.
        a, b, c, d = quad
        assert tuple(x + y for x, y in zip(a, d)) == \
            tuple(x + y for x, y in zip(b, c))
    for u, w in planes:
        assert u in vert


def test_excluded_direction_cones_for_one_parallelogram():
    # Against the three single-unit vertices the cone is a sign orthant on
    # two axes and one diagonal form; against an adjacent sum vertex one
    # extra facet appears.
    assert sorted(excluded_direction_cone(2, _f(0, 1, 0, 0, 0))) == sorted([
        _f(-1, 0, -1, 0, 0), _f(0, 0, 0, -1, 0), _f(0, 0, 0, 0, -1)])
    assert sorted(excluded_direction_cone(2, _f(0, 0, 0, 1, 0))) == sorted([
        _f(-1, 0, -1, 0, 0), _f(0, 0, 0, 0, -1), _f(0, 0, 0, 1, 0)])
    assert sorted(excluded_direction_cone(2, _f(0, 0, 0, 0, 1))) == sorted([
        _f(-1, 0, -1, 0, 0), _f(0, 0, 0, -1, 0), _f(0, 0, 0, 0, 1)])
    assert sorted(excluded_direction_cone(2, _f(0, 0, 0, 1, 1))) == sorted([
        _f(-1, 0, -1, 0, 0), _f(0, 0, 0, 0, 1), _f(0, 0, 0, 1, 0),
        _f(1, 0, 1, 1, 1)])
    with pytest.raises(ValueError):
        excluded_direction_cone(2, _f(1, 0, 0, 0, 0))


def test_excluded_direction_cone_rejects_non_vertices():
    # The origin lies outside Q, the midpoint of two vertices lies on Q,
    # and u1 + u3 is a lattice point that is not one of Q's vertices.
    half = Fraction(1, 2)
    for p in (_f(0, 0, 0, 0, 0), (half, half, *_f(0, 0, 0)),
              _f(1, 0, 1, 0, 0)):
        with pytest.raises(ValueError, match="not a vertex"):
            excluded_direction_cone(1, p)


def test_direction_pipeline_survivors():
    rays = cone_test_pipeline()
    assert len(rays) == 10
    assert set(rays) == set(survivor_orbit())
    assert SURVIVOR_DIRECTION in rays
    # Closure under the cyclic coordinate shift and under negation.
    for r in rays:
        assert tuple(-x for x in r) in rays
        assert r[-1:] + r[:-1] in rays


def _int_rows(made):
    if made is None:
        return None
    assert all(x.denominator == 1 for rows in made for r in rows for x in r)
    return tuple(tuple(tuple(int(x) for x in r) for r in rows) for rows in made)


def test_direction_pipeline_matches_the_fraction_row_path():
    assert cone_test_pipeline() == oracles.cone_pipeline_reference()


def test_integer_raw_test_matches_the_fraction_one():
    """The raw test on primitive integer normals and integer rays gives the
    verdict of the Fraction dot products, on the survivors and on seeded
    random integer rays."""
    pairs = syssolve._excluded_pairs()
    int_pairs = [(i, v, tuple(_lp.primitive_ints(n) for n in normals))
                 for i, v, normals in pairs]
    rng = random.Random(7)
    survivors = [tuple(map(int, r)) for r in cone_test_pipeline()]
    rays = survivors + [tuple(rng.randint(-4, 4) for _ in range(5))
                        for _ in range(400)]
    verdicts = {}
    for x in rays:
        got = syssolve._direction_passes(x, int_pairs)
        assert got == oracles.direction_passes_reference(
            tuple(map(Fraction, x)), pairs), x
        verdicts[x] = got
    assert all(verdicts[x] for x in survivors)
    # Some ray with no zero coordinate fails a cone, not the zero test.
    assert any(all(x) and not ok for x, ok in verdicts.items())


def test_direction_pipeline_skips_lps_its_witnesses_answer(monkeypatch):
    """A refined cell keeps its parent's witness when that point meets the
    extra rows strictly, so fewer LPs run than refinements were made (496
    when every refinement ran one; 419 with the witnesses reused).  Up to
    symmetry the cells start from 4 orthants, with their sign vectors as
    witnesses, instead of 32: 38 LPs."""
    calls = []
    real = _lp.strictly_feasible

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_lp, "strictly_feasible", counting)
    assert set(cone_test_pipeline()) == set(survivor_orbit())
    assert len(calls) <= 40


def test_shifted_cones_equal_the_built_ones():
    """The excluded cones the pipeline maps by the cyclic shift from those
    of parallelogram 1 are the ones excluded_direction_cone builds, for
    all 30 pairs."""
    pairs = syssolve._excluded_pairs()
    assert len({(i, v) for i, v, _ in pairs}) == len(pairs) == 30
    for i, v, normals in pairs:
        assert normals == excluded_direction_cone(i, v), (i, v)


def test_direction_pipeline_builds_the_cones_of_one_parallelogram(monkeypatch):
    built = []
    real = syssolve.excluded_direction_cone

    def counting(i, v):
        built.append(i)
        return real(i, v)

    monkeypatch.setattr(syssolve, "excluded_direction_cone", counting)
    cone_test_pipeline()
    assert built == [1] * 6


def _broken(paras=None, planes=None):
    q, real_paras, real_planes = lifted_configuration()
    return lambda: (q, paras or real_paras, planes or real_planes)


def test_direction_pipeline_refuses_a_broken_symmetry(monkeypatch):
    """The cyclic shift must map each parallelogram quadruple and each
    direction plane to the next one; a configuration where it does not is
    refused before any cone is built."""
    _q, paras, planes = lifted_configuration()
    # Plane 3 spanned by another basis is still plane 3.
    rebased = list(planes)
    u, w = rebased[2]
    rebased[2] = (tuple(a + b for a, b in zip(u, w)), w)
    monkeypatch.setattr(syssolve, "lifted_configuration",
                        _broken(planes=tuple(rebased)))
    syssolve._check_shift_symmetry()
    # Plane 3 tilted, or quadruple 4 with one corner moved, is not.
    rebased[2] = (u, tuple(b + (k == 0) for k, b in enumerate(w)))
    moved = list(paras)
    moved[3] = paras[3][:3] + (_f(1, 1, 1, 1, 1),)
    for broken in (_broken(planes=tuple(rebased)), _broken(paras=tuple(moved))):
        monkeypatch.setattr(syssolve, "lifted_configuration", broken)
        with pytest.raises(syssolve.VerificationError, match="cyclic shift"):
            cone_test_pipeline()


def test_make_cell_matches_reference():
    """Refining a cell canonicalizes only the extra rows, with the result of
    canonicalizing every row: extras copied from the cell as they are,
    rescaled, negated, zero or new.  A cell holds integer rows, so the
    reference's primitive Fraction rows are compared as integers."""
    rng = random.Random(5)

    def row():
        v = tuple(Fraction(rng.randint(-1, 1)) for _ in range(3))
        if rng.random() < 0.5:
            return v
        return tuple(x * Fraction(rng.randint(1, 3), rng.randint(1, 2)) for x in v)

    outcomes = {"cell": 0, "empty": 0}
    for _ in range(400):
        base = oracles.make_cell_reference(
            [row() for _ in range(rng.randint(0, 2))],
            [row() for _ in range(rng.randint(0, 3))])
        if base is None:
            continue
        eqs, neg = base = _int_rows(base)
        assert _make_cell(eqs, neg) == base
        held = list(eqs) + list(neg)

        def extra():
            out = []
            for _ in range(rng.randint(0, 2)):
                if held and rng.random() < 0.5:
                    s = rng.choice((1, 1, 2, 3)) * rng.choice((1, -1))
                    out.append(tuple(s * x for x in rng.choice(held)))
                else:
                    out.append(row())
            return out

        extra_eqs, extra_neg = extra(), extra()
        got = _make_cell(eqs, neg, extra_eqs, extra_neg)
        assert got == _int_rows(oracles.make_cell_reference(
            list(eqs) + extra_eqs, list(neg) + extra_neg))
        outcomes["empty" if got is None else "cell"] += 1
    assert min(outcomes.values()) >= 50


def test_final_case_vertex_count_contradiction():
    rep = final_case_check()
    assert rep.kind == "vertex-count"
    assert rep.certificate[:2] == (8, 10)
    assert rep.certificate[2] == _f(1, 0, 1, 0)
    images = rep.certificate[4]
    assert len(images) == 10 and images[9] == _f(2, 1, 1, -1)
