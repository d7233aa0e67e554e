"""Exact linear algebra and linear programming.

Internal helpers shared by the geometry modules.  Vectors are Fraction
tuples at the interface; the simplex also takes int rows, and pivots an
integer tableau.  One fraction-free row elimination (Elimination) serves
rank, nullspace, the reduced row echelon form, greedy bases, inverses, the
case engine's solver and the positive-definiteness test of a Gram matrix.
Everything here is deterministic and sized for the package's caps
(dimension <= ratpoly.MAX_DIM = 6, a few dozen rows); no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def primitive_ints(a: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to coprime ints.

    The zero vector stays zero.  A positive scale keeps every sign, so a
    row and its primitive form have the same zero set on any ray.
    """
    den = lcm(*(x.denominator for x in a))
    ints = [x.numerator * (den // x.denominator) for x in a]
    g = gcd(*ints)
    return tuple(ints) if g <= 1 else tuple(x // g for x in ints)


def int_matrix(mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(integer matrix, positive integer den) whose quotient is the rational
    matrix mat: mat times the lcm of its entries' denominators."""
    den = lcm(*(x.denominator for row in mat for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in mat), den


def primitive(a: Sequence[Fraction]) -> Vec:
    """Scale a nonzero rational vector by a positive rational to coprime ints."""
    return tuple(map(Fraction, primitive_ints(a)))


class Elimination:
    """Fraction-free Gauss-Jordan elimination that takes rows one at a time.

    Each row is scaled once to coprime integers and reduced against the
    rows kept so far by cross-multiplication, each result divided by its
    gcd (integer-preserving, as in Bareiss 1968).  It is kept when it is
    nonzero in the first ncols columns: its first such column is its
    pivot, and the kept rows are cleared on that column.
    Columns past ncols ride along, so an appended right-hand side or
    identity block records how each row was combined.

    The integer row add returns is a positive multiple of the row that a
    Fraction elimination in the same order would hold, so it has the same
    zero pattern and signs.  A kept row is stored with a positive pivot
    entry, in rows, with its pivot at the same index of pivots.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, row: Sequence[Fraction | int]) -> list[int]:
        r = list(primitive_ints(row))
        for c, e in zip(self.pivots, self.rows):
            if r[c]:
                r = _eliminate(r, e, e[c], c)
        c = next((c for c in range(self.ncols) if r[c]), None)
        if c is not None:
            kept = r if r[c] > 0 else [-x for x in r]
            for i, e in enumerate(self.rows):
                if e[c]:
                    self.rows[i] = _eliminate(e, kept, kept[c], c)
            self.rows.append(kept)
            self.pivots.append(c)
        return r


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form.

    Returns:
        (reduced nonzero rows, pivot column indices).
    """
    if not rows:
        return [], []
    e = Elimination(len(rows[0]))
    for r in rows:
        e.add(r)
    kept = sorted(zip(e.pivots, e.rows))
    return ([tuple(Fraction(x, r[c]) for x in r) for c, r in kept],
            [c for c, _ in kept])


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for all rows} in R^ncols, as Fraction
    tuples with coprime integer entries."""
    rows = [vec(r) for r in rows if not is_zero(r)]
    if not rows:
        return [tuple(Fraction(1 if i == j else 0) for i in range(ncols)) for j in range(ncols)]
    red, pivots = rref(rows)
    return echelon_nullspace(red, pivots, ncols)


def independent(rows: Sequence[Sequence[int]], limit: int) -> list[int]:
    """Indices of the rows independent of the rows kept before them, up to
    `limit` of them: a greedy basis, taken in order."""
    e = Elimination(len(rows[0]) if rows else 0)
    picked: list[int] = []
    for i, row in enumerate(rows):
        if len(picked) == limit:
            break
        if any(e.add(row)):
            picked.append(i)
    return picked


def int_inverse(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(N, den) with den > 0 and N / den the inverse of an invertible
    integer matrix."""
    n = len(mat)
    e = Elimination(n)
    for i, r in enumerate(mat):
        e.add([*r, *(int(i == j) for j in range(n))])
    # The row with pivot c is a positive multiple r[c] of (e_c | row c of
    # the inverse).
    rows = [r for _, r in sorted(zip(e.pivots, e.rows))]
    den = lcm(*(r[c] for c, r in enumerate(rows)))
    return [[x * (den // r[c]) for x in r[n:]] for c, r in enumerate(rows)], den


def echelon_nullspace(red: Sequence[Vec], pivots: Sequence[int], n: int) -> list[Vec]:
    """Nullspace basis read off a reduced row echelon form from ``rref``."""
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(primitive(v))
    return basis


class IntSpan:
    """The integer span of a fixed list of rational generators.

    Exact column-style Hermite reduction, run once, of the generators
    scaled by the least common multiple of their denominators.  A common
    positive scale changes no quotient of the reduction, so any rational
    target is decided by back-substituting it, scaled the same way, against
    the one reduction.
    """

    def __init__(self, gens: Sequence[Sequence[Fraction]]):
        self._scale = lcm(*(frac(x).denominator for g in gens for x in g))
        work = [[int(x * self._scale) for x in g] for g in gens]
        self._ngens = len(work)
        n = len(work[0])
        # Each working column is an integer combination of the generators.
        coeffs = [[1 if i == j else 0 for i in range(len(work))]
                  for j in range(len(work))]
        avail = list(range(len(work)))
        self._pivots: list[tuple[int, list[int], list[int]]] = []
        for row in range(n):
            live = [j for j in avail if work[j][row] != 0]
            if not live:
                continue
            # gcd-reduce the live columns on this row.
            while len(live) > 1:
                live.sort(key=lambda j: abs(work[j][row]))
                j0 = live[0]
                for j in live[1:]:
                    q = work[j][row] // work[j0][row]
                    if q:
                        work[j] = [x - q * y for x, y in zip(work[j], work[j0])]
                        coeffs[j] = [x - q * y for x, y in zip(coeffs[j], coeffs[j0])]
                live = [j for j in live if work[j][row] != 0]
            piv = live[0]
            self._pivots.append((row, work[piv], coeffs[piv]))
            avail.remove(piv)

    def coefficients(self, target: Sequence[Fraction]) -> list[int] | None:
        """Integer coefficients of the generators that sum to target, or
        None when target is not in the span.

        Decided in integers: the scaled generators are integer, so a target
        whose scaled entries are not all integers is not in their span.
        """
        t = []
        for x in map(frac, target):
            q, r = divmod(x.numerator * self._scale, x.denominator)
            if r:
                return None
            t.append(q)
        out = [0] * self._ngens
        for row, col, co in self._pivots:
            q, r = divmod(t[row], col[row])
            if r:
                return None
            t = [x - q * y for x, y in zip(t, col)]
            out = [x + q * y for x, y in zip(out, co)]
        if any(t):
            return None
        return out


# ---------------------------------------------------------------------------
# Exact simplex.
# ---------------------------------------------------------------------------


class LPResult:
    __slots__ = ("status", "value", "x")

    def __init__(self, status: str, value: Fraction | None = None, x: Vec | None = None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"LPResult({self.status}, {self.value}, {self.x})"


def maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    """Maximize c.x subject to a_ub.x <= b_ub and a_eq.x == b_eq (x free).

    Two-phase simplex with Bland's rule over exact rationals.  Free x is
    split as u - v with u, v >= 0, each <= row gets a slack, and each row
    an artificial variable; the artificials are the starting basis.  The
    entering column is the first one with positive reduced cost, the
    leaving row the least (ratio, basis[i], i).

    The tableau holds integers (integer-preserving pivoting, as in
    Edmonds 1967 and Bareiss 1968).  Row i, rhs last, is a positive
    integer multiple of the true row: true row i = T[i] / T[i][basis[i]].
    The reduced-cost row is kept the same way, up to a positive factor,
    and updated at each pivot.  A pivot cross-multiplies and divides each
    row by its gcd.  Signs and ratios are exact, so the pivot sequence,
    and hence the returned x, is the one a Fraction tableau would take.

    Phase 1 maximizes minus the sum of the artificials, which is at most
    0, so it is never unbounded.  Phase 2 is bounded for both package
    callers: strictly_feasible caps t <= 1, and syssolve.convex_witness
    has a zero objective.

    Returns:
        LPResult with status in {"optimal", "infeasible"}.

    Raises:
        AssertionError: phase 2 is unbounded, an internal fault.
    """
    n = len(c)
    n_ub = len(a_ub)
    # Entries are Fractions or ints: both have numerator and denominator.
    cons = list(zip(a_ub, b_ub, strict=True)) + list(zip(a_eq, b_eq, strict=True))
    m = len(cons)
    nvars = 2 * n + n_ub
    width = nvars + m
    tab: list[list[int]] = []
    for i, (row, b) in enumerate(cons):
        sign = -1 if b < 0 else 1
        den = lcm(b.denominator, *(x.denominator for x in row))
        ints = [sign * x.numerator * (den // x.denominator) for x in row]
        ext = [0] * (width + 1)
        ext[:n] = ints
        ext[n:2 * n] = [-x for x in ints]
        if i < n_ub:
            ext[2 * n + i] = sign * den
        ext[nvars + i] = den
        ext[width] = sign * b.numerator * (den // b.denominator)
        tab.append(_primitive_row(ext))
    basis = list(range(nvars, width))

    def pivot(bi: int, col: int, z: list[int] | None = None):
        # The new pivot row is tab[bi] / tab[bi][col]; every other row with
        # a nonzero entry in col is cross-multiplied against it.
        pr = tab[bi]
        a = pr[col]
        if a < 0:
            pr = tab[bi] = [-x for x in pr]
            a = -a
        for i in range(m):
            if i != bi and tab[i][col] != 0:
                tab[i] = _eliminate(tab[i], pr, a, col)
        basis[bi] = col
        if z is not None and z[col] != 0:
            z = _eliminate(z, pr, a, col)
        return z

    def reduced_costs(costs: list[int]) -> list[int]:
        # A positive multiple of (reduced costs, -objective value) at the
        # current basis, for integer costs over the first len(costs) columns.
        ncols = len(costs)
        basic = [(i, costs[bv]) for i, bv in enumerate(basis)
                 if bv < ncols and costs[bv] != 0]
        scale = lcm(*(tab[i][basis[i]] for i, _ in basic))
        z = [scale * x for x in costs] + [0]
        for i, f in basic:
            k = scale // tab[i][basis[i]] * f
            z = [x - k * y for x, y in zip(z, tab[i])]
        return _primitive_row(z)

    def run(z: list[int]) -> list[int]:
        # Maximize over the current tableau; Bland's rule.  Returns the
        # final reduced-cost row.
        ncols = len(z) - 1
        while True:
            col = next((j for j in range(ncols) if z[j] > 0), None)
            if col is None:
                return z
            # Least ratio tab[i][-1] / tab[i][col], compared cross-multiplied.
            bi = -1
            for i in range(m):
                t = tab[i][col]
                if t > 0:
                    r = tab[i][-1]
                    if bi < 0:
                        bi, br, bt = i, r, t
                        continue
                    new, best = r * bt, br * t
                    if new < best or (new == best and basis[i] < basis[bi]):
                        bi, br, bt = i, r, t
            if bi < 0:
                raise AssertionError("linear program is unbounded")
            z = pivot(bi, col, z)

    # Phase 1: drive artificials out.
    z = run(reduced_costs([0] * nvars + [-1] * m))
    # The last entry is a positive multiple of minus the phase-1 optimum.
    if z[-1] > 0:
        return LPResult("infeasible")
    # Pivot any artificial still basic (degenerate) to a real column, else drop row.
    for i in range(m):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    # Phase 2: the artificial columns can no longer enter, so drop them.
    for i in range(m):
        tab[i] = tab[i][:nvars] + tab[i][width:]
    den = lcm(*(x.denominator for x in c))
    cost = [x.numerator * (den // x.denominator) for x in c]
    run(reduced_costs(cost + [-x for x in cost] + [0] * n_ub))
    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = Fraction(tab[i][-1], tab[i][bv])
    sol = tuple(x[j] - x[n + j] for j in range(n))
    return LPResult("optimal", dot(c, sol), sol)


def _primitive_row(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _eliminate(row: list[int], pr: list[int], a: int, col: int) -> list[int]:
    # Zero row[col] against the pivot row pr, whose entry pr[col] = a > 0.
    f = row[col]
    return _primitive_row([a * x - f * y for x, y in zip(row, pr)])


def strictly_feasible(
    strict_pos: Sequence[Sequence[Fraction]],
    eqs: Sequence[Sequence[Fraction]],
    dim: int,
) -> Vec | None:
    """Find x with row.x > 0 for every strict row and row.x == 0 on eqs.

    Homogeneous system: solved as max t <= 1 s.t. row.x >= t.  The strict
    rows must be nonempty: is_skinny passes the facets through two
    vertices, and the cone pipeline a cell's negative rows.  Returns a
    witness x or None.
    """
    # Variables (x, t): maximize t.  Rows keep their entries, Fraction or
    # int; maximize reads only their numerators and denominators.
    a_ub = [tuple(-x for x in r) + (1,) for r in strict_pos]
    a_ub.append((0,) * dim + (1,))
    b_ub = [0] * len(strict_pos) + [1]
    a_eq = [tuple(r) + (0,) for r in eqs]
    b_eq = [0] * len(eqs)
    c = (0,) * dim + (1,)
    res = maximize(c, a_ub, b_ub, a_eq, b_eq)
    if res.status != "optimal" or res.value <= 0:
        return None
    return res.x[:dim]
