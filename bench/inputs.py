"""Seeded inputs for the benchmark workloads.

Nothing here imports tilekit: every input is made from the seed and from
facts about the lattices and hypergraphs that do not come from the
program under test.  Each generated input carries a one-line ``why``
that says what it is for.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import isqrt


def _cartan_a(n: int) -> list[list[int]]:
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def _dual_a(n: int) -> list[list[int]]:
    # (n+1) times the inverse Cartan matrix of A_n: an integral Gram of A_n*.
    return [[min(i, j) * (n + 1 - max(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)]


#: Reduced Gram matrices: the eight acceptance-suite lattices plus the root
#: lattices A4, D4, A5 and the permutohedral A4*.
GRAMS: dict[str, list[list[int]]] = {
    "Z2": [[1, 0], [0, 1]],
    "A2": [[2, 1], [1, 2]],
    "SHEARED": [[4, 1], [1, 4]],
    "Z3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "FCC": [[2, 0, 1], [0, 2, 1], [1, 1, 2]],
    "BCC": [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
    "HEXPRISM": [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
    "ELONG4": [[4, 0, 0, 2], [0, 4, 0, 2], [0, 0, 4, 2], [2, 2, 2, 7]],
    "A4": _cartan_a(4),
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "A4S": _dual_a(4),
    "A5": _cartan_a(5),
}

#: Voronoi facet counts known from the lattices themselves: 2d for Z^d, a
#: hexagon for any non-rectangular plane lattice, the rhombic dodecahedron
#: (FCC), truncated octahedron (BCC), hexagonal prism, d(d+1) for A_d,
#: 24 for D4 (24-cell) and 2^(d+1)-2 for the permutohedron of A_d*.
FACETS: dict[str, int] = {
    "Z2": 4, "A2": 6, "SHEARED": 6, "Z3": 6, "FCC": 12, "BCC": 14,
    "HEXPRISM": 8, "A4": 20, "D4": 24, "A4S": 30, "A5": 30,
}

#: Base lattices that are re-expressed in skewed bases.
SKEW_BASES = ("FCC", "A4", "D4")

#: Accepted size of the coordinate box that the relevant-vector search of
#: the parent commit scans.  Within this band one skewed Gram costs about
#: 1.5 s there, so the defect shows while one seed cannot swing the run by
#: orders of magnitude (random bases span 10^2 to 10^7 points).
BOX_BAND = (310_000, 350_000)


def _inverse(m: list[list[int]]) -> list[list[Fraction]]:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def box_points(gram: list[list[int]]) -> int:
    """Integer points in the box |v_i| <= sqrt(B (G^-1)_ii).

    B is the largest c.G.c over nonzero 0/1 vectors c.  The count depends
    on the Gram alone; it is the number of candidates a coordinate-box
    search for relevant vectors has to scan.
    """
    d = len(gram)
    bound = max(sum(c[i] * gram[i][j] * c[j] for i in range(d) for j in range(d))
                for c in product((0, 1), repeat=d) if any(c))
    ginv = _inverse(gram)
    count = 1
    for i in range(d):
        lim = bound * ginv[i][i]
        count *= 2 * isqrt(lim.numerator // lim.denominator) + 1
    return count


def _skew(gram: list[list[int]], rng: random.Random) -> list[list[int]]:
    # U^T G U for U a product of 2-5 random shears (unimodular by construction).
    d = len(gram)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(rng.randint(2, 5)):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 1, 2))
        for r in range(d):
            u[r][i] += m * u[r][j]
    return [[sum(u[a][i] * gram[a][b] * u[b][j] for a in range(d) for b in range(d))
             for j in range(d)] for i in range(d)]


def skewed_gram(base: str, seed: int) -> tuple[list[list[int]], str]:
    """A Gram of lattice ``base`` in a random basis whose box is in BOX_BAND."""
    rng = random.Random(f"skew:{seed}:{base}")
    lo, hi = BOX_BAND
    for _ in range(100_000):
        g = _skew(GRAMS[base], rng)
        n = box_points(g)
        if lo <= n <= hi:
            return g, (f"{base} in a skewed basis: the relevant-vector box has "
                       f"{n} points, in the band {lo}-{hi}")
    raise RuntimeError(f"no skewed basis of {base} in the band for seed {seed}")


def _five_ten_edges() -> list[list]:
    return [[(min(i, j), max(i, j)) for j in range(1, 6) if j != i]
            for i in range(1, 6)]


def _six_eleven_edges() -> list[list]:
    s = [["s"] + [f"v{k}{l}" for l in range(1, 4)] for k in range(1, 4)]
    sp = [["s'"] + [f"v{k}{l}" for k in range(1, 4)] for l in range(1, 4)]
    return s + sp


def _relabel(edges: list[list], rng: random.Random, labels: list) -> list[list]:
    verts = sorted({v for e in edges for v in e}, key=repr)
    names = rng.sample(labels, len(verts))
    rename = dict(zip(verts, names))
    out = [[rename[v] for v in e] for e in edges]
    for e in out:
        rng.shuffle(e)
    rng.shuffle(out)
    return out


def hypergraphs(seed: int) -> list[tuple[str, list[list], str]]:
    """(name, edges, why) for the seeded hypergraph inputs.

    Relabelings of the 5-10 and 6-11 configurations are closed and
    minimal, so `hyper audit` passes and `hyper find-subgraph` returns the
    whole input.  Their disjoint union is not closed: two hyperedges from
    different parts share no vertex, which `hyper audit` must report.
    """
    rng = random.Random(f"hyper:{seed}")
    ints = list(range(1000))
    strs = [f"x{k}" for k in range(1000)]
    ft = _relabel(_five_ten_edges(), rng, ints)
    se = _relabel(_six_eleven_edges(), rng, strs)
    union = _relabel(_five_ten_edges(), rng, ints) + _relabel(_six_eleven_edges(), rng, strs)
    rng.shuffle(union)
    return [
        ("five_ten", ft, "relabeled 5-10 configuration: closed, minimal, all degrees 2"),
        ("six_eleven", se, "relabeled 6-11 configuration: closed, minimal, two degree-3 apexes"),
        ("union", union, "disjoint union of a 5-10 and a 6-11: not closed, audit reports it"),
    ]
