"""Tests for Voronoi cells, facet vectors, and belts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tilekit import lattice, ratpoly
from tilekit.lattice import (
    FacetNotCentrallySymmetric,
    belts_of,
    dv_cell,
    gram_norm,
    relevant_vectors,
    venkov_check_cell,
)

import oracles
from test_acceptance import GRAMS
from test_ratpoly import A5_STAR, ROOT_GRAMS
from test_tiling import _rebased

F = Fraction

Z2 = [[1, 0], [0, 1]]
Z3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
A2 = [[2, 1], [1, 2]]
FCC = [[2, 0, 1], [0, 2, 1], [1, 1, 2]]
BCC = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
#: A seeded generic 5-D Gram whose cell has both 4-belts and 6-belts.
GEN5 = [[26, 2, -3, 4, -2], [2, 25, 4, 6, 4], [-3, 4, 20, 7, 1],
        [4, 6, 7, 23, 6], [-2, 4, 1, 6, 26]]


# --- oracle cross-checks come first: the counts frozen below depend on them.


def test_relevant_vectors_match_bruteforce_oracle():
    for gram in (Z2, A2, Z3, FCC, BCC):
        got = [tuple(int(x) for x in v) for v in relevant_vectors(gram)]
        assert got == [
            tuple(int(x) for x in v)
            for v in oracles.relevant_vectors_bruteforce(gram, radius=2)
        ]


def test_relevant_vectors_random_grams_match_oracle():
    rng = random.Random(4242)
    for d in (2, 3):
        for _ in range(6):
            a = [
                [rng.choice([-1, 0, 1]) if i != j else 1 for j in range(d)]
                for i in range(d)
            ]
            gram = [
                [sum(a[k][i] * a[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]
            try:
                got = [tuple(int(x) for x in v) for v in relevant_vectors(gram)]
            except ValueError:
                continue  # sampled a singular matrix
            want = [
                tuple(int(x) for x in v)
                for v in oracles.relevant_vectors_bruteforce(gram, radius=3)
            ]
            assert got == want


def _skew(gram, u):
    """U^T G U: the same lattice in the basis given by the columns of U."""
    d = len(gram)
    return [[sum(u[k][i] * gram[k][l] * u[l][j] for k in range(d) for l in range(d))
             for j in range(d)] for i in range(d)]


def test_relevant_vectors_match_box_scan():
    # The enumeration must return exactly what the coordinate-box scan it
    # replaced returns: reduced, skewed, rational and random 4-D Grams.
    grams = [Z2, A2, Z3, FCC, BCC,
             [[F(1), F(1, 2)], [F(1, 2), F(1)]],
             [[2, F(1, 3), 0], [F(1, 3), 1, F(1, 5)], [0, F(1, 5), 3]],
             _skew(Z2, [[1, 7], [0, 1]]),
             _skew(FCC, [[1, 1, 0], [0, 1, 2], [0, 0, 1]]),
             [[4, 0, 0, 2], [0, 4, 0, 2], [0, 0, 4, 2], [2, 2, 2, 7]]]
    rng = random.Random(20261018)
    for d in (2, 3, 3, 4, 4):
        a = [[rng.choice([-1, 0, 1]) if i != j else rng.choice([1, 2])
              for j in range(d)] for i in range(d)]
        grams.append([[sum(a[k][i] * a[k][j] for k in range(d)) for j in range(d)]
                      for i in range(d)])
    for gram in grams:
        try:
            got = relevant_vectors(gram)
        except ValueError:
            continue  # sampled a singular matrix
        assert list(got) == oracles.relevant_vectors_box(gram), gram


# --- the reduced basis the search runs in.


def _gram_schmidt(a):
    """Pivots and multipliers of a positive definite a in _lll's layout:
    a = L D L^T with D = diag and mu[k][j] = L[k][j] for j < k, else 0."""
    diag, up = oracles.ldl_reference(a)
    d = len(a)
    return tuple(diag), tuple(tuple(up[j][k] if j < k else F(0) for j in range(d))
                              for k in range(d))


def _lll(gram):
    return lattice._lll(tuple(map(tuple, gram)))


def test_lll_returns_a_reduced_basis_and_its_gram_schmidt_data():
    """On integer and rational Grams, reduced and skewed: U is unimodular,
    diag and mu are the pivots and multipliers of U^T G U, every |mu| is at
    most 1/2, and the Lovasz condition holds with delta = 3/4.  A basis that
    is already reduced, A2's with mu = 1/2 among them, keeps U = I."""
    rng = random.Random(1982)
    e = 10**40
    grams = [Z2, A2, FCC, BCC, GEN5, A5_STAR, [[e * e + 1, e], [e, 1]],
             [[F(1, 2), F(1, 3)], [F(1, 3), F(5, 7)]]]
    for d in (2, 3, 4, 5):
        for den in (1, 7):
            a = [[rng.randint(-2, 2) + (3 * d if i == j else 0) for j in range(d)]
                 for i in range(d)]
            m = [[F(sum(r[i] * r[j] for r in a), den) for j in range(d)]
                 for i in range(d)]
            grams.append(_skew(m, oracles.random_unimodular(rng, d, 10**6)[0]))
    for gram in grams:
        d = len(gram)
        u, diag, mu = _lll(gram)
        assert all(type(x) is int for row in u for x in row)
        assert all(type(x) is F for x in [*diag, *(y for row in mu for y in row)])
        assert abs(oracles.determinant(u)) == 1, gram
        assert (diag, mu) == _gram_schmidt(_skew(gram, u)), gram
        assert all(abs(mu[k][j]) <= F(1, 2) for k in range(d) for j in range(k))
        assert all(diag[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * diag[k - 1]
                   for k in range(1, d))
    # Z^2 in the basis (1, e), (0, 1) reduces to an orthonormal basis.
    assert _skew(grams[6], _lll(grams[6])[0]) == Z2
    for gram in (Z2, A2, FCC, BCC):
        d = len(gram)
        assert _lll(gram)[0] == tuple(tuple(int(i == j) for j in range(d))
                                      for i in range(d)), gram


def test_relevant_vectors_do_not_depend_on_the_reduction(monkeypatch):
    """The per-class bound holds in any basis: with the reduction replaced
    by the identity, and then by a seeded unimodular basis that is not
    reduced, relevant_vectors returns the same tuple."""
    rng = random.Random(1985)
    grams = [*GRAMS.values(), ROOT_GRAMS["A4"], ROOT_GRAMS["D4"],
             [[2, F(1, 3), 0], [F(1, 3), 1, F(1, 5)], [0, F(1, 5), 3]],
             _skew(FCC, [[1, 1, 0], [0, 1, 2], [0, 0, 1]])]
    want = [relevant_vectors(g) for g in grams]

    def identity(g):
        return ([[int(i == j) for j in range(len(g))] for i in range(len(g))],
                *_gram_schmidt(g))

    def unreduced(g):
        u = oracles.random_unimodular(rng, len(g), 6)[0]
        return (u, *_gram_schmidt(_skew(g, u)))

    for basis in (identity, unreduced):
        monkeypatch.setattr(lattice, "_lll", basis)
        assert [relevant_vectors(g) for g in grams] == want, basis.__name__


def test_rebased_lattices_keep_their_relevant_vectors_and_cells():
    """U^T G U for seeded unimodular U with entries up to 10^6: the facet
    vectors are those of G mapped through U^-1, and the Voronoi cell has
    the same facet, vertex and belt counts."""
    rng = random.Random(1908)
    grams = {**GRAMS, "A4*": ROOT_GRAMS["A4*"], "A5": ROOT_GRAMS["A5"],
             "A5*": A5_STAR}
    for name, gram in grams.items():
        d = len(gram)
        u, inv = oracles.random_unimodular(rng, d, 10**6)
        assert max(abs(x) for row in u for x in row) > 10**5, name
        skewed = _skew(gram, u)
        mapped = sorted(tuple(sum(r * x for r, x in zip(row, v)) for row in inv)
                        for v in relevant_vectors(gram))
        assert relevant_vectors(skewed) == tuple(mapped), name
        shapes = []
        for g in (gram, skewed):
            cell = dv_cell(g)
            report = venkov_check_cell(cell)
            shapes.append((len(cell.facets), len(cell.vertices),
                           report.belt_lengths, report.passed))
        assert shapes[0] == shapes[1], name


# --- frozen shapes.


def test_square_lattice_cell():
    rel = relevant_vectors(Z2)
    assert rel == ((F(-1), F(0)), (F(0), F(-1)), (F(0), F(1)), (F(1), F(0)))
    cell = dv_cell(Z2)
    assert len(cell.facets) == 4
    assert cell.vertices == (
        (F(-1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    )


def test_hexagonal_lattice_cell():
    rel = relevant_vectors(A2)
    assert set(tuple(int(x) for x in v) for v in rel) == {
        (1, 0),
        (-1, 0),
        (0, 1),
        (0, -1),
        (1, -1),
        (-1, 1),
    }
    cell = dv_cell(A2)
    assert len(cell.facets) == 6
    assert len(cell.vertices) == 6


def test_cubic_lattice_cell():
    cell = dv_cell(Z3)
    assert len(cell.facets) == 6
    assert len(cell.vertices) == 8
    assert belts_of(cell) and sorted(len(b) for b in belts_of(cell)) == [4, 4, 4]


def test_face_centered_cell_is_rhombic_dodecahedron():
    cell = dv_cell(FCC)
    dims = [k for k, _ in ratpoly.face_lattice(cell)]
    assert tuple(dims.count(k) for k in range(3)) == (14, 24, 12)
    lengths = sorted(len(b) for b in belts_of(cell))
    assert lengths == [6, 6, 6, 6]


def test_body_centered_cell_is_truncated_octahedron():
    cell = dv_cell(BCC)
    dims = [k for k, _ in ratpoly.face_lattice(cell)]
    assert tuple(dims.count(k) for k in range(3)) == (24, 36, 14)
    lengths = sorted(len(b) for b in belts_of(cell))
    assert lengths == [6, 6, 6, 6, 6, 6]


def test_venkov_check_suite():
    for gram in (Z2, Z3, A2, FCC, BCC):
        report = venkov_check_cell(dv_cell(gram))
        assert report.passed
        assert report.centrally_symmetric
        assert report.facets_centrally_symmetric
        assert all(l in (4, 6) for l in report.belt_lengths)


def test_venkov_facet_counts():
    assert venkov_check_cell(dv_cell(Z2)).facet_count == 4
    assert venkov_check_cell(dv_cell(Z3)).facet_count == 6
    assert venkov_check_cell(dv_cell(A2)).facet_count == 6
    assert venkov_check_cell(dv_cell(FCC)).facet_count == 12
    assert venkov_check_cell(dv_cell(BCC)).facet_count == 14


def test_planar_cells_have_one_belt():
    assert belts_of(dv_cell(Z2)) == [[0, 1, 2, 3]]
    assert len(belts_of(dv_cell(A2))[0]) == 6


def test_facet_vector_correspondence():
    for gram in (Z2, A2, FCC, BCC):
        cell, vectors = oracles.dv_cell_with_vectors(gram)
        assert len(vectors) == len(cell.facets)
        g = [[F(x) for x in row] for row in gram]
        for (n, b), v in zip(cell.facets, vectors):
            # Facet plane is {x : v.G.x = |v|^2/2}; the midpoint v/2 lies on it.
            gv = tuple(sum(g[i][j] * v[j] for j in range(len(v))) for i in range(len(v)))
            mid_val = sum(gv[i] * v[i] / 2 for i in range(len(v)))
            assert mid_val == gram_norm(gram, v) / 2
            scale = next(F(n[i]) / gv[i] for i in range(len(v)) if gv[i] != 0)
            assert scale > 0
            assert all(F(n[i]) == scale * gv[i] for i in range(len(v)))
            assert b == scale * gram_norm(gram, v) / 2


def test_belts_match_reference_walk():
    """The reflection walk and the echelon-key walk give the same cycles."""
    grams = {**GRAMS, **ROOT_GRAMS, "A5*": A5_STAR, "gen5": GEN5}
    rng = random.Random(7)
    for name in ("FCC", "A4", "D4"):
        for k in range(2):
            gram = _rebased(grams[name], rng)
            assert gram != grams[name]
            grams[f"{name} rebased {k}"] = gram
    for name, gram in grams.items():
        cell = dv_cell(gram)
        assert belts_of(cell) == oracles.belts_of_reference(cell), name


def test_belts_reject_prism_with_triangle_facets():
    prism = ratpoly.from_vertices(
        [
            (F(0), F(0), F(0)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
            (F(1), F(0), F(1)),
            (F(0), F(1), F(1)),
        ]
    )
    with pytest.raises(FacetNotCentrallySymmetric):
        belts_of(prism)


def test_gram_validation():
    with pytest.raises(ValueError):
        relevant_vectors([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        relevant_vectors([[1, 2], [2, 1]])  # not positive definite
    with pytest.raises(ValueError):
        relevant_vectors([[0, 0], [0, 1]])


def _ldl_product(diag, mu):
    """L D L^T from the pivots and the multipliers mu[k][i] = L[i][k]."""
    d = len(diag)

    def low(i, k):
        return F(1) if i == k else mu[k][i] if i > k else F(0)

    return [[sum(low(i, k) * diag[k] * low(j, k) for k in range(d))
             for j in range(d)] for i in range(d)]


def test_ldl_matches_leading_minors():
    """The symmetric elimination accepts exactly the matrices whose leading
    minors are all positive, and then factors them, and so does check_gram,
    on seeded positive definite, semidefinite, indefinite and rational
    symmetric matrices, and on matrices whose reduced rows skip a pivot
    column."""
    rng = random.Random(1789)
    verdicts = {kind: set() for kind in
                ("definite", "semidefinite", "indefinite", "rational")}
    for _ in range(240):
        d = rng.randint(1, 5)
        kind = rng.choice(sorted(verdicts))
        a = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        if kind == "definite":
            # Strictly diagonally dominant, so invertible: a^T a is definite.
            for i in range(d):
                a[i][i] += 3 * d
        elif kind == "semidefinite":
            a = a[:-1]  # rank below d
        m = [[sum(r[i] * r[j] for r in a) for j in range(d)] for i in range(d)]
        if kind in ("indefinite", "rational"):
            for i in range(d):
                for j in range(i, d):
                    x = F(rng.randint(-3, 3), rng.randint(1, 4) if kind == "rational" else 1)
                    m[i][j] = x if kind == "indefinite" else m[i][j] / 2 + x
                    m[j][i] = m[i][j]
        want = oracles.leading_minors_positive(m)
        got = oracles.ldl_reference(m)
        assert (got is not None) == want, m
        if got is not None:
            assert _ldl_product(*got) == m
            assert lattice.check_gram(m) == m
        else:
            with pytest.raises(ValueError, match="positive definite"):
                lattice.check_gram(m)
        verdicts[kind].add(want)
    assert verdicts["definite"] == {True}
    assert verdicts["semidefinite"] == {False}
    assert verdicts["indefinite"] == verdicts["rational"] == {True, False}
    # A row whose pivot lies past its own column, or that has none: some
    # leading minor is zero.
    for m in ([[0, 1], [1, 0]], [[1, 1], [1, 1]], [[1, 1, 0], [1, 1, 1], [0, 1, 1]]):
        assert not oracles.leading_minors_positive(m)
        with pytest.raises(ValueError, match="positive definite"):
            lattice.check_gram(m)


def test_fractional_gram():
    gram = [[F(1, 2), 0], [0, F(1, 3)]]
    cell = dv_cell(gram)
    assert cell.vertices == (
        (F(-1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    )


def test_facet_count_bound_random_positive_definite():
    rng = random.Random(171)
    for d in (2, 3, 4):
        for _ in range(4):
            a = [
                [rng.choice([-1, 0, 1]) if i != j else rng.choice([1, 2]) for j in range(d)]
                for i in range(d)
            ]
            gram = [
                [sum(a[k][i] * a[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]
            try:
                rel = relevant_vectors(gram)
            except ValueError:
                continue  # sampled a singular matrix
            assert len(rel) <= 2 * (2**d - 1)
            assert len(dv_cell(gram).facets) == len(rel)


def test_gram_json_round_trip():
    obj = lattice.gram_to_json([[F(1, 2), 0], [0, 2]])
    assert lattice.gram_from_json(obj) == [[F(1, 2), F(0)], [F(0), F(2)]]
