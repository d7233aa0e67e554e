"""Differential tests: the integer-row simplex against the Fraction tableau.

`oracles.maximize_reference` is the dense Fraction simplex that
`_lp.maximize` replaced.  Both follow the same pivot rules, so they must
agree exactly: same status, same optimum and the same vertex x.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from tilekit import _lp
from tilekit._lp import maximize, strictly_feasible

import oracles

F = Fraction

#: Coefficients drawn by the random LPs: zeros for sparsity and degeneracy,
#: non-integer rationals so rows need a common denominator.
COEFFS = (0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 7))
RHS = (0, 0, 1, -1, 2, F(3, 2), F(-1, 3))


def same(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    ref = oracles.maximize_reference(c, a_ub, b_ub, a_eq, b_eq)
    if ref.status == "unbounded":
        # No package call poses an unbounded LP, so maximize treats one as
        # an internal fault.
        with pytest.raises(AssertionError):
            maximize(c, a_ub, b_ub, a_eq, b_eq)
        return ref
    got = maximize(c, a_ub, b_ub, a_eq, b_eq)
    assert (got.status, got.value, got.x) == (ref.status, ref.value, ref.x)
    if got.x is not None:
        assert all(type(v) is Fraction for v in got.x)
        assert type(got.value) is Fraction
    return got


def random_lp(rng: random.Random):
    n = rng.randint(1, 4)
    n_ub = rng.randint(0, 5)
    n_eq = rng.randint(0, 2)
    row = lambda: [F(rng.choice(COEFFS)) for _ in range(n)]
    # A zero objective makes the whole feasible set optimal, so x is
    # wherever the pivots stop: any change of pivot path shows in x.
    c = row() if rng.random() < 0.7 else [F(0)] * n
    a_ub = [row() for _ in range(n_ub)]
    a_eq = [row() for _ in range(n_eq)]
    b_ub = [F(rng.choice(RHS)) for _ in range(n_ub)]
    b_eq = [F(rng.choice(RHS)) for _ in range(n_eq)]
    if rng.random() < 0.3:
        # A repeated row gives tied ratios in the leaving-row test.
        a_ub += a_ub[:1]
        b_ub += b_ub[:1]
    return c, a_ub, b_ub, a_eq, b_eq


@pytest.mark.parametrize("seed", range(6))
def test_random_lps_agree_with_reference(seed):
    rng = random.Random(seed)
    statuses = Counter(same(*random_lp(rng)).status for _ in range(150))
    # Each seed's sweep reaches all three outcomes.
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}


def test_infeasible():
    # x <= -1 and x >= 1.
    res = same([F(1)], [[F(1)], [F(-1)]], [F(-1), F(-1)])
    assert res.status == "infeasible" and res.x is None


def test_infeasible_equalities():
    res = same([F(0), F(0)], a_eq=[[F(1), F(1)], [F(2), F(2)]], b_eq=[F(1), F(3)])
    assert res.status == "infeasible"


def test_unbounded():
    res = same([F(1), F(1)], [[F(1), F(-1)]], [F(0)])
    assert res.status == "unbounded"


def test_no_constraints():
    assert same([F(0), F(0)]).x == (F(0), F(0))
    assert same([F(0), F(1)]).status == "unbounded"


def test_degenerate_zero_rhs_and_tied_ratios():
    # Square [0, 1]^2 with a redundant diagonal through the optimum and a
    # duplicated row: zero rhs, and ties in the ratio test.
    a_ub = [[F(1), F(0)], [F(0), F(1)], [F(-1), F(0)], [F(0), F(-1)],
            [F(1), F(1)], [F(1), F(0)]]
    b_ub = [F(1), F(1), F(0), F(0), F(2), F(1)]
    res = same([F(1), F(1)], a_ub, b_ub)
    assert res.value == 2 and res.x == (F(1), F(1))


def test_ratio_ties_go_to_the_smaller_basic_index():
    # Feasible set: y == -1, -2 <= x <= -1.  Ratio ties where the basic
    # indices are out of row order decide which end phase 1 stops at.
    a_ub = [[F(1), F(0)], [F(-1), F(1)], [F(1), F(1)]]
    res = same([F(0), F(0)], a_ub, [F(-1), F(1), F(-1)], [[F(0), F(1)]], [F(-1)])
    assert res.x == (F(-1), F(-1))


def test_equality_rows_and_negative_rhs():
    # x + y == -1, x - y <= -3, maximize x.
    res = same([F(1), F(0)], [[F(1), F(-1)]], [F(-3)], [[F(1), F(1)]], [F(-1)])
    assert res.status == "optimal" and res.x == (F(-2), F(1))


def test_equalities_only_with_redundant_row():
    # The duplicated equation leaves an artificial basic at zero after
    # phase 1; its row has no real entry and is dropped.
    a_eq = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    res = same([F(1), F(1)], a_eq=a_eq, b_eq=[F(3), F(6), F(1)])
    assert res.x == (F(1), F(1))


def test_rational_coefficients():
    a_ub = [[F(1, 2), F(1, 3)], [F(-2, 3), F(0)], [F(0), F(-5, 7)]]
    b_ub = [F(7, 6), F(0), F(0)]
    res = same([F(3, 4), F(1, 5)], a_ub, b_ub)
    assert res.status == "optimal"
    assert res.value == max(F(3, 4) * x + F(1, 5) * y
                            for x, y in ((0, 0), (F(7, 3), 0), (0, F(7, 2))))


def test_integer_inputs_are_accepted():
    res = same([1, 1], [[1, 0], [0, 1]], [2, 3])
    assert res.value == 5 and res.x == (F(2), F(3))


STRICT_SYSTEMS = [
    # (strict rows, equations, dim, has a witness)
    ([[F(1), F(0)], [F(0), F(1)]], [], 2, True),
    ([[F(1), F(0)], [F(-1), F(0)]], [], 2, False),
    ([[F(1), F(1), F(0)], [F(1, 2), F(-1), F(0)]], [[F(0), F(0), F(1)]], 3, True),
    ([[F(1), F(0)]], [[F(1), F(0)]], 2, False),
    ([[F(1), F(2), F(-1)], [F(-1), F(1), F(1)], [F(0), F(-3), F(0)]], [], 3, False),
]


@pytest.mark.parametrize("strict, eqs, dim, found", STRICT_SYSTEMS)
def test_strictly_feasible_matches_reference(monkeypatch, strict, eqs, dim, found):
    got = strictly_feasible(strict, eqs, dim)
    assert (got is not None) == found
    if found:
        assert all(sum(a * x for a, x in zip(r, got)) > 0 for r in strict)
        assert all(sum(a * x for a, x in zip(r, got)) == 0 for r in eqs)
    monkeypatch.setattr(_lp, "maximize", oracles.maximize_reference)
    assert strictly_feasible(strict, eqs, dim) == got


def _integral(rows, rhs):
    # Each row and its right-hand side times the lcm of their denominators.
    out_rows, out_rhs = [], []
    for r, b in zip(rows, rhs):
        k = lcm(b.denominator, *(x.denominator for x in r))
        out_rows.append([int(x * k) for x in r])
        out_rhs.append(int(b * k))
    return out_rows, out_rhs


def _fractions(rows):
    return [[F(x) for x in r] for r in rows]


@pytest.mark.parametrize("seed", range(6))
def test_int_rows_give_the_fraction_rows_result(seed):
    """The seeded LPs with integer entries, as int rows and as Fraction
    rows: maximize reads only numerators and denominators, so both give
    the reference's status, optimum and vertex."""
    rng = random.Random(seed)
    statuses = Counter()
    for _ in range(150):
        c, a_ub, b_ub, a_eq, b_eq = random_lp(rng)
        (c,), _ = _integral([c], [F(0)])
        a_ub, b_ub = _integral(a_ub, b_ub)
        a_eq, b_eq = _integral(a_eq, b_eq)
        got = same(c, a_ub, b_ub, a_eq, b_eq)
        fr = same([F(x) for x in c], _fractions(a_ub), [F(x) for x in b_ub],
                  _fractions(a_eq), [F(x) for x in b_eq])
        assert (got.status, got.value, got.x) == (fr.status, fr.value, fr.x)
        statuses[got.status] += 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}


@pytest.mark.parametrize("strict, eqs, dim, found", STRICT_SYSTEMS)
def test_strictly_feasible_int_rows_match_fraction_rows(strict, eqs, dim, found):
    strict, _ = _integral(strict, [F(0)] * len(strict))
    eqs, _ = _integral(eqs, [F(0)] * len(eqs))
    got = strictly_feasible(strict, eqs, dim)
    assert (got is not None) == found
    assert got == strictly_feasible(_fractions(strict), _fractions(eqs), dim)
    assert got is None or all(type(v) is Fraction for v in got)


# --- the fraction-free elimination against the eliminations it replaced.


def random_matrix(rng: random.Random, rational: bool):
    """Up to 7 rows of at most 6 columns, with zero rows, repeated rows and
    rows that combine earlier ones, so the rank is often deficient."""
    ncols = rng.randint(1, 6)
    coeffs = COEFFS if rational else (0, 0, 1, -1, 2, -3, 5)
    rows = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([F(0)] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.5 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = rng.choice(coeffs), rng.choice((1, -1, 2, F(1, 3)) if rational else (1, -1, 2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([F(rng.choice(coeffs)) for _ in range(ncols)])
    return [[F(x) for x in r] for r in rows], ncols


def fraction_insertion(rows, ncols):
    """The rows a Fraction Gauss-Jordan would hold as it takes each row in
    order: each reduced against the kept rows, which have pivot entry 1."""
    kept: list[tuple[int, list]] = []
    out = []
    for row in rows:
        r = [F(x) for x in row]
        for c, e in kept:
            if r[c]:
                f = r[c]
                r = [x - f * y for x, y in zip(r, e)]
        out.append(r)
        c = next((c for c in range(ncols) if r[c]), None)
        if c is not None:
            piv = [x / r[c] for x in r]
            kept = [(c2, [x - e[c] * y for x, y in zip(e, piv)]) for c2, e in kept]
            kept.append((c, piv))
    return out


def is_positive_multiple(got, want):
    j = next((j for j, x in enumerate(want) if x), None)
    if j is None:
        return not any(got)
    k = F(got[j]) / want[j]
    return k > 0 and list(got) == [k * x for x in want]


@pytest.mark.parametrize("seed", range(4))
def test_elimination_matches_the_eliminations_it_replaced(seed):
    """rref, rank, nullspace and independent against the Fraction and
    fraction-free routines they replaced, on seeded int and rational
    matrices; every row add returns is a positive multiple of the Fraction
    elimination's row, also with columns riding past ncols."""
    rng = random.Random(seed)
    ranks = Counter()
    for trial in range(120):
        rows, n = random_matrix(rng, rational=trial % 2 == 1)
        red, pivots = _lp.rref(rows)
        assert (red, pivots) == oracles.rref_reference(rows), rows
        assert all(type(x) is F for r in red for x in r)
        assert _lp.rank(rows) == len(red) == oracles.matrix_rank(rows, n)
        nonzero = [r for r in rows if any(r)]
        null = _lp.nullspace(rows, n)
        if nonzero:
            assert null == _lp.echelon_nullspace(*oracles.rref_reference(nonzero), n)
        assert len(null) == n - len(red)
        assert all(_lp.dot(r, v) == 0 for r in rows for v in null)
        ints = [_lp.primitive_ints(r) for r in rows]
        limit = rng.randint(1, n)
        assert _lp.independent(ints, limit) == oracles.independent_reference(ints, limit)
        ncols = rng.randint(1, n)
        e = _lp.Elimination(ncols)
        got = [e.add(r) for r in rows]
        want = fraction_insertion(rows, ncols)
        assert all(map(is_positive_multiple, got, want)), rows
        assert all(r[c] > 0 for c, r in zip(e.pivots, e.rows))
        ranks[len(red) < min(n, len(rows))] += 1
    # Both full-rank and rank-deficient matrices are drawn.
    assert set(ranks) == {True, False}


@pytest.mark.parametrize("seed", range(3))
def test_int_inverse_matches_the_reference(seed):
    """int_inverse gives the same (N, den) as the column-pivot
    fraction-free Gauss-Jordan, on seeded unimodular bases, whose inverse
    is integral, and on random invertible integer matrices."""
    rng = random.Random(seed)
    for d in range(2, 7):
        u, inv = oracles.random_unimodular(rng, d, 10**6)
        assert _lp.int_inverse(u) == oracles.int_inverse_reference(u) == (inv, 1)
        for _ in range(10):
            m = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            if oracles.determinant(m) == 0:
                continue
            got, den = _lp.int_inverse(m)
            assert (got, den) == oracles.int_inverse_reference(m)
            assert den > 0
            assert [[sum(F(a * b, den) for a, b in zip(row, col)) for col in zip(*got)]
                    for row in m] == [[int(i == j) for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("seed", range(3))
def test_int_span_matches_the_per_target_reduction(seed):
    """IntSpan decides in integers with the coefficients of the per-target
    Hermite reduction (oracles.in_int_span, run on the target and the
    generators scaled together to integers), on seeded integral and
    rational generators and on integral and non-integral targets: integer
    combinations of the generators, halves of them and random vectors."""
    rng = random.Random(seed)
    found = Counter()
    for trial in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        den = 1 if trial % 2 == 0 else rng.randint(2, 4)
        gens = [tuple(F(rng.randint(-4, 4), rng.choice((1, den))) for _ in range(n))
                for _ in range(k)]
        span = _lp.IntSpan(gens)
        combo = [rng.randint(-3, 3) for _ in gens]
        inside = tuple(sum((c * g[i] for c, g in zip(combo, gens)), F(0))
                       for i in range(n))
        for target in (inside, tuple(x / 2 for x in inside),
                       tuple(F(rng.randint(-5, 5)) for _ in range(n)),
                       tuple(F(rng.randint(-5, 5), rng.randint(1, 6))
                             for _ in range(n))):
            scale = lcm(*(x.denominator for v in (target, *gens) for x in v))
            want = oracles.in_int_span([int(x * scale) for x in target],
                                       [[int(y * scale) for y in g] for g in gens])
            got = span.coefficients(target)
            assert got == want, (gens, target)
            if got is not None:
                assert tuple(sum((c * g[i] for c, g in zip(got, gens)), F(0))
                             for i in range(n)) == target
            integral = all(x.denominator == 1 for x in target)
            found[integral, got is None] += 1
    # Targets in and out of the span, integral and not, are all drawn.
    assert set(found) == {(True, True), (True, False), (False, True), (False, False)}
