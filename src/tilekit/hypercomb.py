"""Closed 4-uniform hypergraphs and the small configurations they force.

A hypergraph with 4-element hyperedges is *closed* when every two
hyperedges share exactly one vertex and every vertex lies in at least two
hyperedges.  Nonempty closed hypergraphs always contain one of two minimal
configurations: the 5-10 graph (five hyperedges pairwise meeting in ten
distinct points, the dual of K5) or the 6-11 graph (two triples of
hyperedges through two apex vertices).  This module provides the closure
audit, the degree-moment identities, the subgraph finder, the enumeration
of edge-disjoint cycle covers of K5 together with the diagonal matchings
they induce, and the classification of diagonal matchings of the 6-11
graph.  The subgraph finder certifies what it reports: the embedding it
returns maps every reference hyperedge onto a found one.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from . import Violation


class SearchFailure(Violation):
    """The subgraph finder ran out of cases; indicates a bug, not an input."""


class _Hypergraph4Fields(NamedTuple):
    edges: tuple[frozenset, ...]


class Hypergraph4(_Hypergraph4Fields):
    """A 4-uniform hypergraph; vertices are whatever the edges mention."""

    __slots__ = ()

    def __new__(cls, edges: tuple[frozenset, ...]):
        seen = set()
        for e in edges:
            if len(e) != 4:
                raise ValueError("hyperedges must have exactly 4 vertices")
            if e in seen:
                raise ValueError("hyperedges must be distinct")
            seen.add(e)
        return super().__new__(cls, edges)

    @property
    def vertices(self) -> frozenset:
        return frozenset(v for e in self.edges for v in e)

    def degrees(self) -> dict:
        degs: dict = {}
        for e in self.edges:
            for v in e:
                degs[v] = degs.get(v, 0) + 1
        return degs


def hypergraph(edge_lists) -> Hypergraph4:
    """Builds a Hypergraph4 from an iterable of 4-element vertex lists."""
    return Hypergraph4(tuple(frozenset(e) for e in edge_lists))


def five_ten() -> Hypergraph4:
    """The 5-10 graph: vertices are the edges of K5, hyperedges its stars."""
    return hypergraph([[tuple(sorted((i, j))) for j in range(1, 6) if j != i]
                       for i in range(1, 6)])


def six_eleven() -> Hypergraph4:
    """The 6-11 graph: triples of hyperedges through apexes "s" and "s'"."""
    s_edges = [["s"] + [f"v{k}{l}" for l in range(1, 4)] for k in range(1, 4)]
    sp_edges = [["s'"] + [f"v{k}{l}" for k in range(1, 4)] for l in range(1, 4)]
    return hypergraph(s_edges + sp_edges)


class ClosureReport(NamedTuple):
    closed: bool
    empty: bool
    witness: tuple | None


def is_closed(h: Hypergraph4) -> ClosureReport:
    """Checks the two closure conditions exhaustively.

    Args:
      h: the hypergraph to audit.

    Returns:
      A ClosureReport; on failure the witness is either
      ("intersection", i, j, size) for the first offending hyperedge pair
      or ("degree", vertex, degree) for the first under-covered vertex.
    """
    if not h.edges:
        return ClosureReport(closed=True, empty=True, witness=None)
    for i, j in combinations(range(len(h.edges)), 2):
        size = len(h.edges[i] & h.edges[j])
        if size != 1:
            return ClosureReport(False, False, ("intersection", i, j, size))
    degs = h.degrees()
    for v in sorted(degs, key=repr):
        if degs[v] < 2:
            return ClosureReport(False, False, ("degree", v, degs[v]))
    return ClosureReport(closed=True, empty=False, witness=None)


class MomentReport(NamedTuple):
    """The five exact degree-moment identities of a closed hypergraph."""

    r: int
    v: int
    identities: tuple[tuple[str, int, int], ...]
    degree_bounds_ok: bool

    @property
    def ok(self) -> bool:
        return self.degree_bounds_ok and all(a == b for _, a, b in self.identities)


def moment_audit(h: Hypergraph4) -> MomentReport:
    """Evaluates both sides of the five moment identities exactly.

    Args:
      h: a closed hypergraph (ValueError otherwise).

    Returns:
      A MomentReport listing (name, lhs, rhs) per identity plus the
      2 <= degree <= 4 bound check.
    """
    report = is_closed(h)
    if not report.closed:
        raise ValueError(f"hypergraph is not closed: {report.witness}")
    degs = list(h.degrees().values())
    r, v = len(h.edges), len(h.vertices)
    identities = (
        ("sum_deg", sum(degs), 4 * r),
        ("sum_deg_sq", sum(m * m for m in degs), r * (r + 3)),
        ("sum_excess", sum(m - 2 for m in degs), 4 * r - 2 * v),
        ("sum_excess_sq", sum((m - 2) ** 2 for m in degs), r * (r - 13) + 4 * v),
        ("degree4_count", sum(1 for m in degs if m == 4),
         r * (r - 17) // 2 + 3 * v),
    )
    bounds = all(2 <= m <= 4 for m in degs)
    return MomentReport(r=r, v=v, identities=identities, degree_bounds_ok=bounds)


# ---------------------------------------------------------------------------
# Finding a 5-10 or 6-11 subgraph.
# ---------------------------------------------------------------------------


class FoundSubgraph(NamedTuple):
    """An embedded copy of one of the two reference configurations.

    The embedding maps reference-graph vertex labels (the labels used by
    five_ten() / six_eleven()) onto vertices of the searched graph.
    """

    tag: str  # "five_ten" | "six_eleven"
    edges: tuple[frozenset, ...]
    embedding: dict


def _peel(h: Hypergraph4) -> Hypergraph4:
    # Remove hyperedges stranded on a degree-1 vertex until none remain.
    while True:
        degs = h.degrees()
        keep = tuple(e for e in h.edges if all(degs[v] >= 2 for v in e))
        if len(keep) == len(h.edges):
            return h
        h = Hypergraph4(keep)


def strip_to_minimal(h: Hypergraph4) -> Hypergraph4:
    """Returns a closed subgraph containing no proper closed subgraph.

    Dropping one hyperedge and peeling degree-1 leftovers finds the
    largest closed subgraph avoiding it; iterating until every drop peels
    to nothing certifies minimality.
    """
    changed = True
    while changed:
        changed = False
        for q in h.edges:
            rest = _peel(Hypergraph4(tuple(e for e in h.edges if e != q)))
            if rest.edges:
                h = rest
                changed = True
                break
    return h


def _meet(a: frozenset, b: frozenset):
    common = a & b
    if len(common) != 1:
        raise SearchFailure(f"hyperedges share {len(common)} vertices")
    return next(iter(common))


def _five_ten_from(edges: list[frozenset]) -> FoundSubgraph:
    # Five hyperedges pairwise meeting in ten distinct points.
    points = {}
    for i, j in combinations(range(5), 2):
        w = _meet(edges[i], edges[j])
        points[(i + 1, j + 1)] = w
    if len(set(points.values())) != 10:
        raise SearchFailure("pairwise intersections are not distinct")
    return _embedded("five_ten", five_ten(), edges, points)


def _six_eleven_from(s, sp, s_edges, sp_edges) -> FoundSubgraph:
    embedding = {"s": s, "s'": sp}
    for k, e in enumerate(s_edges, start=1):
        for l, f in enumerate(sp_edges, start=1):
            embedding[f"v{k}{l}"] = _meet(e, f)
    if len(set(embedding.values())) != 11:
        raise SearchFailure("6-11 candidate vertices are not distinct")
    return _embedded("six_eleven", six_eleven(), s_edges + sp_edges, embedding)


def _embedded(tag: str, ref: Hypergraph4, edges: list[frozenset],
              embedding: dict) -> FoundSubgraph:
    """The found subgraph, once ``embedding`` is checked to map the
    hyperedges of ``ref`` onto ``edges``."""
    image = {frozenset(embedding[v] for v in e) for e in ref.edges}
    if image != set(edges):
        raise SearchFailure("the embedding does not map the reference "
                            "hyperedges onto the candidate")
    return FoundSubgraph(tag, tuple(edges), embedding)


def find_5_10_or_6_11(h: Hypergraph4) -> FoundSubgraph:
    """Locates a 5-10 or 6-11 configuration inside a nonempty closed graph.

    Strips to a minimal closed subgraph, then walks the constructive case
    split: two high-degree vertices give a 6-11; an all-degree-2 graph is
    itself a 5-10; with nine or more hyperedges five of them avoiding a
    max-degree star form a 5-10; the single surviving small case (R=6,
    V=11 with the two degree-3 vertices on a common hyperedge) assembles a
    5-10 from that hyperedge and one neighbor per vertex.

    Raises:
      SearchFailure: no case applies (would falsify the underlying lemma).
    """
    report = is_closed(h)
    if report.empty or not report.closed:
        raise ValueError("find_5_10_or_6_11 requires a nonempty closed graph")
    m = strip_to_minimal(h)
    degs = m.degrees()
    edges = sorted(m.edges, key=lambda e: sorted(map(repr, e)))
    r = len(edges)

    def edges_at(v):
        return [e for e in edges if v in e]

    by_degree = sorted(degs, key=lambda v: (-degs[v], repr(v)))

    # (A) Two degree-4 vertices: three hyperedges at each, avoiding the
    # at most one hyperedge containing both.
    four = [v for v in by_degree if degs[v] == 4]
    if len(four) >= 2:
        v1, v2 = four[:2]
        shared = [e for e in edges if v1 in e and v2 in e]
        s_edges = [e for e in edges_at(v1) if e not in shared][:3]
        sp_edges = [e for e in edges_at(v2) if e not in shared][:3]
        return _six_eleven_from(v1, v2, s_edges, sp_edges)

    # (B) Two vertices of degree >= 3 sharing no hyperedge.
    three_plus = [v for v in by_degree if degs[v] >= 3]
    for v1, v2 in combinations(three_plus, 2):
        if not any(v1 in e and v2 in e for e in edges):
            return _six_eleven_from(v1, v2, edges_at(v1)[:3], edges_at(v2)[:3])

    # (C) All degrees 2: the graph is itself a 5-10.
    if all(d == 2 for d in degs.values()):
        if r != 5:
            raise SearchFailure("all-degree-2 closed graph with R != 5")
        return _five_ten_from(edges)

    # (D) R >= 9: five hyperedges avoiding a maximal star.
    if r >= 9:
        v = by_degree[0]
        star = edges_at(v)
        others = [e for e in edges if e not in star]
        return _five_ten_from(others[:5])

    # Remaining feasible case: R=6, V=11, the two degree-3 vertices on a
    # common hyperedge Q; Q plus one further hyperedge per vertex of Q.
    if r == 6 and len(m.vertices) == 11 and len(three_plus) == 2:
        v1, v2 = three_plus
        shared = [e for e in edges if v1 in e and v2 in e]
        if shared:
            q = shared[0]
            picks = [q]
            for w in sorted(q, key=repr):
                picks.append(next(e for e in edges if w in e and e != q))
            return _five_ten_from(picks)

    raise SearchFailure(f"unhandled minimal closed graph: R={r}")


# ---------------------------------------------------------------------------
# Cycle covers of K5 and the diagonal matchings they induce.
# ---------------------------------------------------------------------------

K5_VERTICES = (1, 2, 3, 4, 5)
K5_EDGES = tuple(tuple(p) for p in combinations(K5_VERTICES, 2))

_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class _PloughingSchemeFields(NamedTuple):
    cycles: tuple[tuple[int, ...], ...]


class PloughingScheme(_PloughingSchemeFields):
    """An edge-disjoint cover of K5 by closed vertex circuits."""

    __slots__ = ()

    def __new__(cls, cycles: tuple[tuple[int, ...], ...]):
        used = []
        for cyc in cycles:
            if len(cyc) < 3:
                raise ValueError("circuits on K5 have at least 3 vertices")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a == b:
                    raise ValueError("circuit repeats a vertex consecutively")
                used.append(tuple(sorted((a, b))))
        if sorted(used) != sorted(K5_EDGES):
            raise ValueError("circuits must cover each K5 edge exactly once")
        return super().__new__(cls, cycles)


def _canon_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cyc)
    options = []
    for seq in (cyc, tuple(reversed(cyc))):
        for r in range(n):
            options.append(seq[r:] + seq[:r])
    return min(options)


def _scheme_key(cycles) -> tuple:
    return tuple(sorted(_canon_cycle(c) for c in cycles))


# The eight scheme cases whose parallelogram systems the solver works
# through, in their conventional order.  Cases 3 and 4 are relabeling
# equivalent (each is a reversed relabeling of the other) but both are
# kept: the solver pins its coordinate gauge to the first two hyperedges
# of the case as written, and the two writings pin different pairs,
# giving structurally different solution displays.
SCHEME_CASES: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1, 2, 3, 1, 4, 2, 5, 4, 3, 5),),
    2: ((1, 3, 5, 1, 2, 5, 4, 2, 3, 4),),
    3: ((1, 2, 3, 1, 4, 2, 5, 3, 4, 5),),
    4: ((1, 2, 3, 1, 4, 5, 2, 4, 3, 5),),
    5: ((1, 4, 2, 5, 3, 4, 5), (1, 2, 3)),
    6: ((1, 2, 3, 4), (1, 5, 2, 4, 5, 3)),
    7: ((1, 2, 3, 4, 5), (1, 3, 5, 2, 4)),
    8: ((1, 5, 2, 4), (1, 2, 3), (3, 4, 5)),
}


def _all_raw_schemes():
    star = {v: [e for e in K5_EDGES if v in e] for v in K5_VERTICES}
    for choice in product(range(3), repeat=5):
        partner = {}
        for v, c in zip(K5_VERTICES, choice):
            for i, j in _PAIRINGS[c]:
                partner[(v, star[v][i])] = star[v][j]
                partner[(v, star[v][j])] = star[v][i]
        seen = set()
        cycles = []
        for start in K5_EDGES:
            if start in seen:
                continue
            # Walk directed edge traversals; each contributes its tail
            # vertex, and the circuit closes when the traversal that
            # started it comes around again.
            path = []
            dart, edge = start, start
            while True:
                path.append(dart[0])
                seen.add(edge)
                nxt_edge = partner[(dart[1], edge)]
                w = nxt_edge[0] if nxt_edge[1] == dart[1] else nxt_edge[1]
                nxt_dart = (dart[1], w)
                if nxt_dart == start:
                    break
                dart, edge = nxt_dart, nxt_edge
            cycles.append(tuple(path))
        yield PloughingScheme(tuple(cycles))


@cache
def _scheme_classes() -> dict[tuple, tuple]:
    """Class key of each of the 243 edge-pairing systems on K5, by its own
    key.

    A pairing system is determined by its circuits and a relabeling of one
    is another, so the systems fall into orbits under the 120 relabelings.
    The first member met of each orbit is relabeled 120 times; the least of
    the image keys is the class key, and every image gets it.
    """
    classes: dict[tuple, tuple] = {}
    for s in _all_raw_schemes():
        if _scheme_key(s.cycles) in classes:
            continue
        images = [_scheme_key([tuple(perm[v - 1] for v in cyc) for cyc in s.cycles])
                  for perm in permutations(K5_VERTICES)]
        classes.update(dict.fromkeys(images, min(images)))
    return classes


def k5_scheme_classes() -> list[PloughingScheme]:
    """Edge-disjoint cycle covers of K5 up to vertex relabeling.

    Runs over the three ways to pair the four edges at each vertex (each
    of the 243 pairing systems decomposes the edges into circuits) and
    canonicalizes under the 120 relabelings.  There are exactly seven
    classes: three single-circuit and four multi-circuit.

    Returns:
      One representative scheme per class, single-circuit classes first.
    """
    return sorted((PloughingScheme(key) for key in set(_scheme_classes().values())),
                  key=lambda p: (len(p.cycles), p.cycles))


def enumerate_k5_schemes() -> list[PloughingScheme]:
    """The eight scheme cases, verified exhaustive by enumeration.

    Every one of the 243 edge-pairing systems on K5 is checked to be a
    relabeling of one of the cases in SCHEME_CASES, so downstream case
    analysis keyed 1..8 covers all schemes.  Note the case list is
    slightly redundant — cases 3 and 4 are relabelings of one another —
    so the class count from k5_scheme_classes() is seven, not eight.

    Returns:
      The eight case schemes in case order.
    """
    classes = _scheme_classes()
    # A valid scheme is a pairing system, so its key is always present.
    case_keys = {classes[_scheme_key(c)] for c in SCHEME_CASES.values()}
    uncovered = set(classes.values()) - case_keys
    if uncovered:
        raise SearchFailure(f"scheme classes missing from the case list: {uncovered}")
    return [PloughingScheme(SCHEME_CASES[n]) for n in sorted(SCHEME_CASES)]


Edge = tuple[int, int]


class VertexMatching(NamedTuple):
    """Diagonal pairs per hyperedge of the 5-10 graph, keyed by K5 vertex."""

    pairs: tuple[tuple[int, tuple[tuple[Edge, Edge], tuple[Edge, Edge]]], ...]

    def at(self, v: int) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge]]:
        return dict(self.pairs)[v]


def scheme_to_matching(p: PloughingScheme) -> VertexMatching:
    """Reads the diagonal matching off a scheme's circuit traversals.

    At each visit of a K5 vertex the entering and exiting edges become
    diagonal partners in that vertex's hyperedge; two visits per vertex
    yield the two diagonals.
    """
    at_vertex: dict[int, list[tuple[Edge, Edge]]] = {v: [] for v in K5_VERTICES}
    for cyc in p.cycles:
        n = len(cyc)
        for i, v in enumerate(cyc):
            entering = tuple(sorted((cyc[i - 1], v)))
            exiting = tuple(sorted((v, cyc[(i + 1) % n])))
            at_vertex[v].append(tuple(sorted((entering, exiting))))
    pairs = []
    for v in K5_VERTICES:
        got = at_vertex[v]
        if len(got) != 2:
            raise ValueError(f"vertex {v} is visited {len(got)} times")
        flat = [e for pair in got for e in pair]
        if sorted(flat) != sorted(e for e in K5_EDGES if v in e):
            raise ValueError(f"matching at vertex {v} does not cover its star")
        pairs.append((v, tuple(sorted(got))))
    return VertexMatching(tuple(pairs))


# ---------------------------------------------------------------------------
# 6-11 diagonal matchings: pairs of mappings between the two triples.
# ---------------------------------------------------------------------------


class SigmaPair(NamedTuple):
    """A 6-11 matching: sigma maps each hyperedge at s to the hyperedge at
    s' whose shared vertex is s's diagonal partner; sigma_prime conversely.

    item is the 1-based index in the documented 18-row classification, or
    None for the one class that classification does not list (both maps
    bijective with composite a 3-cycle; it solves to the same even-difference
    contradiction as its neighbors).
    """

    sigma: tuple[int, int, int]
    sigma_prime: tuple[int, int, int]
    item: int | None
    reduces_to: int | None


DOCUMENTED_SIGMA_ITEMS: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    1: ((1, 1, 1), (1, 1, 1)),
    2: ((1, 1, 1), (1, 1, 2)),
    3: ((1, 1, 1), (1, 2, 2)),
    4: ((1, 1, 1), (1, 2, 3)),
    5: ((1, 1, 2), (1, 1, 2)),
    6: ((1, 2, 1), (1, 1, 2)),
    7: ((2, 1, 1), (1, 1, 2)),
    8: ((1, 1, 2), (1, 2, 1)),
    9: ((1, 2, 1), (1, 2, 1)),
    10: ((2, 1, 1), (1, 2, 1)),
    11: ((1, 1, 2), (2, 1, 1)),
    12: ((1, 2, 1), (2, 1, 1)),
    13: ((2, 1, 1), (2, 1, 1)),
    14: ((1, 1, 2), (1, 2, 3)),
    15: ((1, 2, 1), (1, 2, 3)),
    16: ((2, 1, 1), (1, 2, 3)),
    17: ((1, 2, 3), (1, 2, 3)),
    18: ((1, 2, 3), (2, 1, 3)),
}

SIGMA_REDUCTIONS = {8: 6, 11: 7, 12: 10}

_PERMS3 = tuple(permutations((1, 2, 3)))


def _act(sig, sig_p, pi, pi_p):
    # Relabel the hyperedges at s by pi and those at s' by pi_p.
    inv = {pi[i]: i + 1 for i in range(3)}
    inv_p = {pi_p[i]: i + 1 for i in range(3)}
    new_sig = tuple(pi_p[sig[inv[k] - 1] - 1] for k in (1, 2, 3))
    new_sig_p = tuple(pi[sig_p[inv_p[l] - 1] - 1] for l in (1, 2, 3))
    return new_sig, new_sig_p


def _sigma_orbit_keys() -> dict[tuple, tuple]:
    """Orbit key of each of the 729 mapping pairs (sigma, sigma'), by the
    pair: the least image under independent relabeling of the two triples.

    The 36 relabelings of the first pair met of each orbit give the whole
    orbit, and every image gets the least of them.
    """
    keys: dict[tuple, tuple] = {}
    for pair in product(product((1, 2, 3), repeat=3), repeat=2):
        if pair not in keys:
            images = [_act(*pair, pi, pi_p) for pi in _PERMS3 for pi_p in _PERMS3]
            keys.update(dict.fromkeys(images, min(images)))
    return keys


@cache
def enumerate_6_11_matchings() -> tuple[SigmaPair, ...]:
    """Classifies all 6-11 diagonal matchings up to relabeling.

    Enumerates the 729 mapping pairs, partitions them into orbits under
    relabeling of the two hyperedge triples, and identifies each orbit
    with its documented item number.  The documented list has 18 items
    (three of which are tagged as swaps of earlier ones); the honest orbit
    count is 19, and the extra class is emitted last with item=None.

    Computed once per process and cached.

    Returns:
      One SigmaPair per orbit: documented items 1..18 in order, then the
      undocumented class.
    """
    orbit_key = _sigma_orbit_keys()
    # Image sizes are orbit invariants; orbits with |Im sigma| > |Im sigma'|
    # are star-swaps of kept ones, so only the swap-normalized side is kept.
    kept = {key for (sig, sig_p), key in orbit_key.items()
            if len(set(sig)) <= len(set(sig_p))}
    by_item: dict[int, SigmaPair] = {}
    extras = []
    doc_keys = {orbit_key[rep]: item for item, rep in DOCUMENTED_SIGMA_ITEMS.items()}
    for key in kept:
        if key in doc_keys:
            item = doc_keys[key]
            sig, sig_p = DOCUMENTED_SIGMA_ITEMS[item]
            by_item[item] = SigmaPair(sig, sig_p, item,
                                      SIGMA_REDUCTIONS.get(item))
        else:
            extras.append(SigmaPair(key[0], key[1], None, None))
    out = [by_item[i] for i in sorted(by_item)]
    return tuple(out + sorted(extras, key=lambda sp: (sp.sigma, sp.sigma_prime)))


def swap_sigma(sp: SigmaPair) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The matching with the roles of the two apex stars exchanged."""
    return sp.sigma_prime, sp.sigma
