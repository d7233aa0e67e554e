"""Closed-hypergraph combinatorics: audits, subgraph finding, matchings."""

from __future__ import annotations

import itertools
import random

import pytest

from tilekit import hypercomb as hc

import oracles

# Expected moment identity values for the two reference configurations.
FIVE_TEN_IDENTITIES = (
    ("sum_deg", 20, 20),
    ("sum_deg_sq", 40, 40),
    ("sum_excess", 0, 0),
    ("sum_excess_sq", 0, 0),
    ("degree4_count", 0, 0),
)
SIX_ELEVEN_IDENTITIES = (
    ("sum_deg", 24, 24),
    ("sum_deg_sq", 54, 54),
    ("sum_excess", 2, 2),
    ("sum_excess_sq", 2, 2),
    ("degree4_count", 0, 0),
)

# Diagonal matching induced by scheme case 1, per K5 vertex.
CASE1_MATCHING = {
    1: (((1, 2), (1, 5)), ((1, 3), (1, 4))),
    2: (((1, 2), (2, 3)), ((2, 4), (2, 5))),
    3: (((1, 3), (2, 3)), ((3, 4), (3, 5))),
    4: (((1, 4), (2, 4)), ((3, 4), (4, 5))),
    5: (((1, 5), (3, 5)), ((2, 5), (4, 5))),
}


def test_five_ten_reference():
    h = hc.five_ten()
    rep = hc.is_closed(h)
    assert rep.closed and not rep.empty
    assert len(h.edges) == 5 and len(h.vertices) == 10
    assert set(h.degrees().values()) == {2}
    audit = hc.moment_audit(h)
    assert audit.ok
    assert audit.identities == FIVE_TEN_IDENTITIES


def test_six_eleven_reference():
    h = hc.six_eleven()
    assert hc.is_closed(h).closed
    assert len(h.edges) == 6 and len(h.vertices) == 11
    degs = sorted(h.degrees().values())
    assert degs == [2] * 9 + [3, 3]
    apexes = sorted(v for v, d in h.degrees().items() if d == 3)
    assert apexes == ["s", "s'"]
    audit = hc.moment_audit(h)
    assert audit.ok
    assert audit.identities == SIX_ELEVEN_IDENTITIES


def test_closure_witnesses():
    empty = hc.hypergraph([])
    rep = hc.is_closed(empty)
    assert rep.closed and rep.empty

    disjoint = hc.hypergraph([[0, 1, 2, 3], [4, 5, 6, 7]])
    rep = hc.is_closed(disjoint)
    assert not rep.closed and rep.witness == ("intersection", 0, 1, 0)

    doubled = hc.hypergraph([[0, 1, 2, 3], [0, 1, 4, 5]])
    rep = hc.is_closed(doubled)
    assert rep.witness == ("intersection", 0, 1, 2)

    ft = hc.five_ten()
    torn = hc.Hypergraph4(ft.edges[1:])
    rep = hc.is_closed(torn)
    assert not rep.closed and rep.witness[0] == "degree" and rep.witness[2] == 1


def test_degree_witness_is_first_in_repr_order():
    # Every pair of hyperedges meets in one vertex, and exactly two vertices,
    # 9 and 10, lie on one hyperedge only.  Their reprs sort "10" before "9".
    h = hc.hypergraph([[0, 1, 2, 3], [0, 4, 5, 6], [1, 4, 7, 8], [2, 4, 11, 12],
                       [3, 4, 9, 10], [3, 5, 7, 11], [3, 6, 8, 12]])
    assert sorted(v for v, d in h.degrees().items() if d < 2) == [9, 10]
    assert hc.is_closed(h) == (False, False, ("degree", 10, 1))


def test_moment_audit_requires_closed():
    with pytest.raises(ValueError):
        hc.moment_audit(hc.hypergraph([[0, 1, 2, 3], [4, 5, 6, 7]]))


def test_exhaustive_enumeration_small():
    got = {r: [hc.hypergraph(e) for e in oracles.closed_hypergraph_classes(r)]
           for r in range(1, 7)}
    assert {r: len(v) for r, v in got.items()} == {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1}
    assert oracles.are_isomorphic(got[5][0], hc.five_ten())
    assert oracles.are_isomorphic(got[6][0], hc.six_eleven())
    for graphs in got.values():
        for g in graphs:
            assert hc.moment_audit(g).ok


def test_randomized_closed_instances():
    rng = random.Random(20260817)
    produced = 0
    for _ in range(40):
        for r in (5, 6, 8):
            g = oracles.random_closed(rng, r)
            if g is None:
                continue
            produced += 1
            audit = hc.moment_audit(hc.hypergraph(g))
            assert audit.ok
            assert audit.r <= audit.v <= 2 * audit.r
            assert audit.degree_bounds_ok
    assert produced >= 100
    # No closed hypergraph on seven hyperedges exists.
    assert oracles.closed_hypergraph_classes(7) == []


def _check_embedding(found: hc.FoundSubgraph, reference: hc.Hypergraph4):
    # The embedding must be a bijection carrying reference hyperedges onto
    # hyperedges of the found subgraph.
    emb = found.embedding
    assert len(set(emb.values())) == len(emb) == len(reference.vertices)
    mapped = {frozenset(emb[v] for v in e) for e in reference.edges}
    assert mapped == set(found.edges)


def test_find_on_references():
    f = hc.find_5_10_or_6_11(hc.five_ten())
    assert f.tag == "five_ten"
    _check_embedding(f, hc.five_ten())

    f = hc.find_5_10_or_6_11(hc.six_eleven())
    assert f.tag == "six_eleven"
    _check_embedding(f, hc.six_eleven())


def test_find_checks_its_embedding():
    """The finder reports only a subgraph that its embedding certifies:
    the found subgraphs are isomorphic to the references, and an embedding
    that swaps two vertex labels is refused."""
    for ref in (hc.five_ten(), hc.six_eleven()):
        f = hc.find_5_10_or_6_11(ref)
        assert oracles.are_isomorphic(hc.Hypergraph4(f.edges), ref)
        a, b = sorted((v for v in ref.vertices if v not in ("s", "s'")), key=repr)[:2]
        swapped = {**f.embedding, a: f.embedding[b], b: f.embedding[a]}
        with pytest.raises(hc.SearchFailure, match="embedding"):
            hc._embedded(f.tag, ref, list(f.edges), swapped)


def _six_eleven_plus(perms):
    # Closed extensions of the 6-11 graph: one extra hyperedge per
    # permutation, each picking one crossing vertex per apex-star edge,
    # all sharing one fresh vertex.
    extra = [frozenset({f"v{k}{p[k - 1]}" for k in (1, 2, 3)} | {"w"})
             for p in perms]
    return hc.Hypergraph4(hc.six_eleven().edges + tuple(extra))


def test_find_strips_composite_graphs():
    big8 = _six_eleven_plus([(1, 2, 3), (2, 3, 1)])
    assert hc.is_closed(big8).closed
    assert (len(big8.edges), len(big8.vertices)) == (8, 12)
    assert hc.moment_audit(big8).ok
    f = hc.find_5_10_or_6_11(big8)
    assert f.tag == "six_eleven"
    _check_embedding(f, hc.six_eleven())

    big9 = _six_eleven_plus([(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    assert hc.is_closed(big9).closed
    assert (len(big9.edges), len(big9.vertices)) == (9, 12)
    f = hc.find_5_10_or_6_11(big9)
    assert f.tag == "six_eleven"


def test_strip_to_minimal():
    big8 = _six_eleven_plus([(1, 2, 3), (2, 3, 1)])
    m = hc.strip_to_minimal(big8)
    assert len(m.edges) < 8
    assert hc.is_closed(m).closed
    assert oracles.are_isomorphic(m, hc.six_eleven())
    # References are already minimal.
    assert set(hc.strip_to_minimal(hc.five_ten()).edges) == set(hc.five_ten().edges)
    assert set(hc.strip_to_minimal(hc.six_eleven()).edges) == set(hc.six_eleven().edges)


def test_find_rejects_degenerate_input():
    with pytest.raises(ValueError):
        hc.find_5_10_or_6_11(hc.hypergraph([]))
    with pytest.raises(ValueError):
        hc.find_5_10_or_6_11(hc.hypergraph([[0, 1, 2, 3], [4, 5, 6, 7]]))


def test_canonical_form():
    chain = hc.hypergraph([[0, 1, 2, 3], [0, 4, 5, 6], [1, 4, 7, 8]])
    fan = hc.hypergraph([[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]])
    assert oracles.canonical_form(chain) != oracles.canonical_form(fan)
    relabeled = hc.hypergraph([["a", "b", "c", "d"], ["a", "x", "y", "z"],
                               ["b", "x", "p", "q"]])
    assert oracles.canonical_form(chain) == oracles.canonical_form(relabeled)
    assert oracles.are_isomorphic(chain, relabeled)
    with pytest.raises(ValueError):
        oracles.canonical_form(hc.Hypergraph4(tuple(
            frozenset({(i, j) for j in range(4)}) for i in range(9))))


def test_scheme_validation():
    with pytest.raises(ValueError):
        hc.PloughingScheme(((1, 2, 3, 4, 5),))  # misses edges
    with pytest.raises(ValueError):
        hc.PloughingScheme(((1, 2),))
    with pytest.raises(ValueError):
        hc.PloughingScheme(((1, 1, 2, 3, 1, 4, 2, 5, 4, 3, 5),))
    # A valid scheme passes.
    hc.PloughingScheme(hc.SCHEME_CASES[1])


def test_scheme_cases_and_classes():
    cases = hc.enumerate_k5_schemes()
    assert len(cases) == 8
    assert [len(c.cycles) for c in cases] == [1, 1, 1, 1, 2, 2, 2, 3]
    assert [c.cycles for c in cases] == [hc.SCHEME_CASES[n] for n in range(1, 9)]

    classes = hc.k5_scheme_classes()
    assert len(classes) == 7
    assert sum(1 for c in classes if len(c.cycles) == 1) == 3
    # Canonicalization is idempotent on class representatives.
    for c in classes:
        assert oracles.canonical_scheme(c.cycles) == c.cycles
    # Cases 3 and 4 are the one redundant pair; all other case pairs are
    # inequivalent.
    for i in range(1, 9):
        for j in range(i + 1, 9):
            equal = (oracles.canonical_scheme(cases[i - 1].cycles)
                     == oracles.canonical_scheme(cases[j - 1].cycles))
            assert equal == ((i, j) == (3, 4))
    # Every case belongs to an enumerated class.
    keys = {oracles.canonical_scheme(c.cycles) for c in classes}
    for c in cases:
        assert oracles.canonical_scheme(c.cycles) in keys


def test_scheme_to_matching_case1():
    m = hc.scheme_to_matching(hc.enumerate_k5_schemes()[0])
    assert dict(m.pairs) == CASE1_MATCHING


def test_matching_is_traversal_direction_invariant():
    for case in hc.enumerate_k5_schemes():
        flipped = hc.PloughingScheme(tuple(
            (cyc[0],) + tuple(reversed(cyc[1:])) for cyc in case.cycles))
        assert hc.scheme_to_matching(flipped) == hc.scheme_to_matching(case)


def test_matching_relabeling_equivariance():
    rng = random.Random(11)
    perm = list(hc.K5_VERTICES)
    for case in hc.enumerate_k5_schemes():
        rng.shuffle(perm)
        relabeled = hc.PloughingScheme(tuple(
            tuple(perm[v - 1] for v in cyc) for cyc in case.cycles))
        base = hc.scheme_to_matching(case)
        moved = hc.scheme_to_matching(relabeled)
        for v in hc.K5_VERTICES:
            image = tuple(sorted(
                tuple(sorted((tuple(sorted((perm[a - 1], perm[b - 1])))
                              for (a, b) in pair)))
                for pair in base.at(v)))
            assert moved.at(perm[v - 1]) == image


def test_sigma_matchings_orbit_census():
    sig = hc.enumerate_6_11_matchings()
    assert len(sig) == 19
    items = [s.item for s in sig]
    assert items[:18] == list(range(1, 19))
    assert items[18] is None
    extra = sig[18]
    assert (extra.sigma, extra.sigma_prime) == ((1, 2, 3), (2, 3, 1))
    census: dict = {}
    for s in sig:
        key = (len(set(s.sigma)), len(set(s.sigma_prime)))
        census[key] = census.get(key, 0) + 1
    assert census == {(1, 1): 1, (1, 2): 2, (1, 3): 1,
                      (2, 2): 9, (2, 3): 3, (3, 3): 3}
    # Documented representatives really are pairwise inequivalent.
    keys = {oracles.sigma_orbit_key(*rep) for rep in hc.DOCUMENTED_SIGMA_ITEMS.values()}
    assert len(keys) == 18


def test_sigma_swap_reductions():
    sig = {s.item: s for s in hc.enumerate_6_11_matchings() if s.item}
    assert {s.item: s.reduces_to for s in sig.values() if s.reduces_to} == \
        {8: 6, 11: 7, 12: 10}
    for item, target in hc.SIGMA_REDUCTIONS.items():
        assert hc.swap_sigma(sig[item]) == hc.DOCUMENTED_SIGMA_ITEMS[target]


def test_scheme_sweep_matches_the_per_scheme_keys():
    """The orbit sweep gives every one of the 243 pairing systems the key
    that relabeling it 120 times gives."""
    classes = hc._scheme_classes()
    raw = list(hc._all_raw_schemes())
    assert len(raw) == len(classes) == 243
    for s in raw:
        assert classes[hc._scheme_key(s.cycles)] == oracles.canonical_scheme(s.cycles)


def test_scheme_sweep_relabels_one_member_per_class(monkeypatch):
    drawn = []
    real = hc.permutations

    def counting(*args):
        for perm in real(*args):
            drawn.append(perm)
            yield perm

    monkeypatch.setattr(hc, "permutations", counting)
    hc._scheme_classes.cache_clear()
    try:
        assert len(hc.k5_scheme_classes()) == 7
        assert len(hc.enumerate_k5_schemes()) == 8
    finally:
        hc._scheme_classes.cache_clear()
    assert len(drawn) == 7 * 120


def test_sigma_sweep_matches_the_per_pair_keys():
    keys = hc._sigma_orbit_keys()
    pairs = list(itertools.product(itertools.product((1, 2, 3), repeat=3), repeat=2))
    assert len(pairs) == len(keys) == 729
    for pair in pairs:
        assert keys[pair] == oracles.sigma_orbit_key(*pair)


def test_sigma_sweep_relabels_one_member_per_orbit(monkeypatch):
    calls = []
    real = hc._act

    def counting(*args):
        calls.append(args)
        return real(*args)

    orbits = {oracles.sigma_orbit_key(*pair) for pair in itertools.product(
        itertools.product((1, 2, 3), repeat=3), repeat=2)}
    monkeypatch.setattr(hc, "_act", counting)
    hc.enumerate_6_11_matchings.cache_clear()
    try:
        assert len(hc.enumerate_6_11_matchings()) == 19
    finally:
        hc.enumerate_6_11_matchings.cache_clear()
    assert len(calls) == 36 * len(orbits)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        hc.hypergraph([[0, 1, 2]])
    with pytest.raises(ValueError):
        hc.hypergraph([[0, 1, 2, 3], [3, 2, 1, 0]])
