"""Brute-force reference implementations used to cross-check the package.

Everything here is written independently of tilekit internals: no imports
from the package, own tiny Gaussian elimination, exhaustive or sampling
strategies instead of the production algorithms.  Slow on purpose; only fed
small instances.  extreme_rays_reference, the Fraction double description
that the integer one replaced, is independent too, and so is
leading_minors_positive, the determinant test of positive definiteness
that lattice's symmetric elimination replaced.  So are the case-engine
kernels before each ran once per orbit, lattice or cell row:
canonical_scheme and sigma_orbit_key (every relabeling of every member),
in_int_span with parity_certificate_reference (one Hermite reduction per
target), and octahedron_search_reference (all 210 six-point subsets).
So is lattice_points_reference, the lattice-point scan on Fraction
points, which reads only the hull's contains method.  So are the
eliminations that _lp.Elimination replaced: rref_reference (a Fraction
Gauss-Jordan), independent_reference and int_inverse_reference
(fraction-free, from ratpoly) and ldl_reference (lattice's symmetric
elimination).  So is face_lattice_reference, the face lattice with each
face's dimension the rank of its vertex differences rather than its rank
in the lattice.  Thirteen exceptions import tilekit, inside
the function only:

- from_vertices_reference, the V-to-H conversion before it made one basis
  solve per hull: builds ratpoly.Polytope and uses ratpoly's equation and
  facet canonicalization; its solves are gauss_solve.
- cone_dual_reference, the cone dual before it read coordinates off the
  echelon form: _lp.rref and _lp.nullspace for the span; its solves are
  gauss_solve.
- excluded_cone_reference, the excluded direction cone as two double
  description passes: the tangent cone's edge directions from the facets
  of Q active at v, then the dual of those widened by the plane, with
  ratpoly's pass and cone_dual, _lp.nullspace and syssolve's lifted hull.
- from_halfspaces_two_pass, the H-to-V conversion before it became one
  pass: rebuilds the result with from_vertices_reference.
- build_complex_reference, the quotient complex before it was keyed on
  translation invariants and vertex bitmasks: builds and audits the
  Voronoi cell with lattice, takes face_lattice_reference and tiling's
  records, and repeats tiling's complex checks.
- dual_cell_reference, the dual cell of an orbit built with
  from_vertices_reference and checked afresh: tiling's DualCell and
  lattice-point check.
- pyramid_pairs_reference, the scan for parallelograms between two
  pyramid cells before it read flanks off one tile's face bitmasks: the
  star of every codimension-4 face, with shifts, filtered by Fraction
  vertex sets, with tiling's dual cells and fan types.
- pyramid_flanks, the second flank search that the coherence test made
  before the scan handed it the flank orbits: the two codimension-3
  faces between two nested faces, read off the vertex bitmasks of a tile
  containing both, with tiling's dual cells and fan types.
- star_scaling_d3_reference, the joint scaling of a codimension-3 star
  before the scaling layer read one star table: classifies and solves
  every codimension-2 star inside it afresh with scaling.star_scaling_d2,
  and links the rays with scaling's ratio forest.
- dv_cell_with_vectors, the Voronoi cell with the lattice vector of each
  facet: lattice's halfspaces and ratpoly.from_halfspaces.
- belts_of_reference, the belt walk that found each opposite ridge by an
  echelon-form key and a scan of all ridges rather than by the facet's
  central reflection, with the ridges read off the face lattice rather
  than off facet pairs: face_lattice_reference and _lp.rref.
- cone_pipeline_reference, the direction-cone pipeline on Fraction rows
  with an LP for every refined cell, over all 32 orthants and 30 built
  cones rather than up to symmetry: syssolve's excluded cones and
  _lp.strictly_feasible and _lp.nullspace.
- direction_passes_reference, the raw test of a direction against the
  excluded cones on Fraction normals rather than integer rows.
- solve_reference, the case engine's solver before it ran on
  _lp.Elimination: a column-pivot Fraction Gauss-Jordan that returns
  syssolve's SolutionFamily and NoSolution records.

The concrete faces of a tiling that these references walk are FaceRef
records: an orbit index plus an integer shift.  tilekit itself names
faces by orbit only.

canonical_form and are_isomorphic, the hypergraph isomorphism test by
hyperedge-order enumeration that hypercomb's subgraph finder ran before
it checked its own embedding, read only a hypergraph's edges and
vertices.

Closed 4-uniform hypergraphs come from two sources here, neither of them
in the package: closed_hypergraph_classes enumerates every isomorphism
class with R hyperedges through clique partitions of K_R, and
random_closed, which once lived in tilekit.hypercomb, draws random
instances by growing one hyperedge at a time.  Both return plain lists of
frozenset hyperedges.

The lift's evaluation by walking tile paths, which lifting ran before its
tangency became one identity, reads only a lift's jumps, the facet points
that facet_points takes from a complex's facet orbits, and the reduced
basis, as plain tuples: value_along_path and center_value walk explicit
paths, qform_value evaluates a form in its own basis, and
generatrissa_window_reference propagates gradients and center values over
a window of tiles along a BFS tree, with every adjacency re-checked.
qform2_reference is the planar form by the 2x2 formulas lifting used
before it had one path for every dimension.

Lattice bases come from random_unimodular: seeded products of integer
shears, with their inverses, for re-basing a Gram matrix as U^T G U.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence


# ---------------------------------------------------------------------------
# Minimal exact linear algebra (independent of tilekit._lp).
# ---------------------------------------------------------------------------


def gauss_solve(rows, rhs):
    """One solution of rows.x = rhs, or None if inconsistent.

    Requires the rows to have full column rank restricted to pivots; free
    columns are set to zero.
    """
    m = [list(map(Fraction, r)) + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    n = len(m[0]) - 1
    piv = []
    r = 0
    for c in range(n):
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv):
        x[c] = m[i][n]
    return x


def matrix_rank(rows, n):
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(n):
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def determinant(a):
    """Determinant of a square rational matrix by Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in a]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            for j in range(c, n):
                a[i][j] -= f * a[c][j]
    return out


def leading_minors_positive(m) -> bool:
    """Sylvester's criterion as lattice.check_gram once applied it: every
    leading principal minor of the symmetric matrix m, each a determinant
    by Gaussian elimination, is positive."""
    return all(determinant([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


def null_vector(rows, n):
    """Some nonzero vector orthogonal to all rows, or None if full rank."""
    m = [list(map(Fraction, r)) for r in rows]
    piv = []
    r = 0
    for c in range(n):
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    free = [c for c in range(n) if c not in piv]
    if not free:
        return None
    fc = free[0]
    v = [Fraction(0)] * n
    v[fc] = Fraction(1)
    for i, c in enumerate(piv):
        v[c] = -m[i][fc]
    return v


def _primitive(v):
    from math import gcd

    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for k in ints:
        g = gcd(g, abs(k))
    return tuple(Fraction(k // g) for k in ints)


# ---------------------------------------------------------------------------
# The eliminations that _lp.Elimination replaced.
# ---------------------------------------------------------------------------


def rref_reference(rows):
    """Reduced row echelon form by a Fraction Gauss-Jordan over the columns:
    (reduced nonzero rows, pivot column indices), as _lp.rref was."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def independent_reference(rows, limit):
    """Greedy basis of integer rows, as ratpoly._independent was: the
    indices of the rows independent of the rows kept before them, up to
    limit of them, by a fraction-free echelon."""
    picked, pivots, reduced = [], [], []
    for i, row in enumerate(rows):
        r = list(row)
        for c, e in zip(pivots, reduced):
            if r[c]:
                a, b = e[c], r[c]
                r = [a * x - b * y for x, y in zip(r, e)]
        c = next((c for c, x in enumerate(r) if x), None)
        if c is None:
            continue
        g = math.gcd(*r)
        picked.append(i)
        pivots.append(c)
        reduced.append([x // g for x in r])
        if len(picked) == limit:
            break
    return picked


def int_inverse_reference(mat):
    """(N, den) with den > 0 and N / den the inverse of an invertible
    integer matrix, by a fraction-free column-pivot Gauss-Jordan, as
    ratpoly._int_inverse was."""
    n = len(mat)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(mat)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        pr = rows[c]
        a = pr[c]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                r = [a * x - f * y for x, y in zip(rows[i], pr)]
                g = math.gcd(*r)
                rows[i] = [x // g for x in r] if g > 1 else r
    # Row i is now a multiple rows[i][i] of (e_i | row i of the inverse).
    den = math.lcm(*(r[i] for i, r in enumerate(rows)))
    return [[x * (den // r[i]) for x in r[n:]] for i, r in enumerate(rows)], den


def ldl_reference(a):
    """Symmetric elimination a = L D L^T of a symmetric rational matrix, or
    None when it is not positive definite, as lattice._ldl was.

    Returns (diag, mu): the pivots D and, in row i, the multipliers
    mu[i][j] = L[j][i] for j > i.  Elimination stops at the first pivot
    that is not positive; by Sylvester's criterion that happens iff some
    leading principal minor is not positive, since the k-th minor is the
    product of the first k pivots.
    """
    a = [[Fraction(x) for x in row] for row in a]
    d = len(a)
    diag, mu = [], []
    for i in range(d):
        p = a[i][i]
        if p <= 0:
            return None
        diag.append(p)
        mu.append([a[i][j] / p for j in range(d)])
        for j in range(i + 1, d):
            for k in range(i + 1, d):
                a[j][k] -= a[j][i] * a[i][k] / p
    return diag, mu


def solve_reference(ls):
    """syssolve.solve as it was: a Fraction Gauss-Jordan over the unknowns'
    columns, carrying right-hand sides and multiplier rows, that reports
    the first reduced row with a zero left side and a nonzero right side."""
    from tilekit.syssolve import NoSolution, SolutionFamily

    zeros = lambda k: tuple(Fraction(0) for _ in range(k))
    gm = ls.gauge_map()
    unknowns = [lab for lab in ls.labels if lab not in gm]
    eqs = ls.equations()
    n, m = len(eqs), len(unknowns)
    a = [[Fraction(eq.get(u, 0)) for u in unknowns] for eq in eqs]
    rhs = []
    for eq in eqs:
        acc = [Fraction(0)] * 4
        for lab, c in eq.items():
            if lab in gm:
                acc = [x - c * y for x, y in zip(acc, gm[lab])]
        rhs.append(acc)
    mult = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    row = 0
    pivots = {}
    for col in range(m):
        pr = next((r for r in range(row, n) if a[r][col] != 0), None)
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        rhs[row], rhs[pr] = rhs[pr], rhs[row]
        mult[row], mult[pr] = mult[pr], mult[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        rhs[row] = [x / pv for x in rhs[row]]
        mult[row] = [x / pv for x in mult[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
                rhs[r] = [x - f * y for x, y in zip(rhs[r], rhs[row])]
                mult[r] = [x - f * y for x, y in zip(mult[r], mult[row])]
        pivots[col] = row
        row += 1
    for r in range(n):
        if not any(a[r]) and any(rhs[r]):
            return NoSolution(ls, tuple(mult[r]), tuple(rhs[r]))
    free_cols = [j for j in range(m) if j not in pivots]
    p = len(free_cols)
    params = ("a",) if p == 1 else tuple(f"a{k + 1}" for k in range(p))
    vals = {lab: tuple(g) + zeros(p) for lab, g in gm.items()}
    for j, u in enumerate(unknowns):
        if j in pivots:
            r = pivots[j]
            vals[u] = tuple(rhs[r]) + tuple(-a[r][fc] for fc in free_cols)
        else:
            vals[u] = zeros(4) + tuple(Fraction(int(k == free_cols.index(j)))
                                       for k in range(p))
    return SolutionFamily(ls, params, tuple((lab, vals[lab]) for lab in ls.labels))


# ---------------------------------------------------------------------------
# Exact simplex: dense Fraction tableau (oracle for tilekit._lp.maximize).
# ---------------------------------------------------------------------------


class LPResult(NamedTuple):
    status: str
    value: Fraction | None = None
    x: tuple | None = None


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    return tuple(frac(x) for x in xs)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def maximize_reference(
    c: Sequence,
    a_ub: Sequence = (),
    b_ub: Sequence = (),
    a_eq: Sequence = (),
    b_eq: Sequence = (),
):
    """Maximize c.x subject to a_ub.x <= b_ub and a_eq.x == b_eq (x free).

    Two-phase simplex with Bland's rule over a Fraction tableau that
    recomputes the reduced costs at every iteration: the production
    solver before it moved to integer rows, kept as its differential
    oracle.

    Returns:
        LPResult with status in {"optimal", "unbounded", "infeasible"}.
    """
    n = len(c)
    c = vec(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    # Free x -> u - v with u, v >= 0; slack per <= row.
    n_ub = len(a_ub)
    for r, b in zip(a_ub, b_ub, strict=True):
        rows.append(list(vec(r)))
        rhs.append(frac(b))
    for r, b in zip(a_eq, b_eq, strict=True):
        rows.append(list(vec(r)))
        rhs.append(frac(b))
    m = len(rows)
    nvars = 2 * n + n_ub
    tab = []
    for i, row in enumerate(rows):
        ext = [Fraction(0)] * nvars
        for j in range(n):
            ext[j] = row[j]
            ext[n + j] = -row[j]
        if i < n_ub:
            ext[2 * n + i] = Fraction(1)
        if rhs[i] < 0:
            ext = [-x for x in ext]
            rhs[i] = -rhs[i]
        tab.append(ext)
    obj = [Fraction(0)] * nvars
    for j in range(n):
        obj[j] = c[j]
        obj[n + j] = -c[j]

    basis = list(range(nvars, nvars + m))
    for i in range(m):
        tab[i] = tab[i] + [Fraction(1 if k == i else 0) for k in range(m)]
    width = nvars + m

    def pivot(bi: int, col: int):
        pv = tab[bi][col]
        tab[bi] = [x / pv for x in tab[bi]]
        rhs[bi] /= pv
        for i in range(m):
            if i != bi and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[bi])]
                rhs[i] -= f * rhs[bi]

    def run(costs: list[Fraction], allowed: int) -> Fraction | None:
        # Maximize costs.x over current tableau; Bland's rule.
        # Returns the optimal value, or None when unbounded.
        while True:
            red = list(costs[:allowed])
            offset = Fraction(0)
            for i, bv in enumerate(basis):
                if bv < allowed and costs[bv] != 0:
                    f = costs[bv]
                    for j in range(allowed):
                        red[j] -= f * tab[i][j]
                    offset += f * rhs[i]
            col = next((j for j in range(allowed) if red[j] > 0), None)
            if col is None:
                return offset
            ratios = [(rhs[i] / tab[i][col], basis[i], i) for i in range(m) if tab[i][col] > 0]
            if not ratios:
                return None
            _, _, bi = min(ratios)
            basis[bi] = col
            pivot(bi, col)

    # Phase 1: drive artificials out.
    art_cost = [Fraction(0)] * width
    for k in range(nvars, width):
        art_cost[k] = Fraction(-1)
    val = run(art_cost, width)
    if val is None or val < 0:
        return LPResult("infeasible")
    # Pivot any artificial still basic (degenerate) to a real column, else drop row.
    for i in range(m):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tab[i][j] != 0), None)
            if col is not None:
                basis[i] = col
                pivot(i, col)
    # Phase 2.
    full_obj = obj + [Fraction(0)] * m
    val = run(full_obj, nvars)
    if val is None:
        return LPResult("unbounded")
    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = rhs[i]
    sol = tuple(x[j] - x[n + j] for j in range(n))
    return LPResult("optimal", dot(c, sol), sol)


# ---------------------------------------------------------------------------
# Convex hull facets by hyperplane enumeration (full-dimensional point sets).
# ---------------------------------------------------------------------------


def hull_facets_bruteforce(points):
    """All facets of conv(points) as (primitive outer normal, offset) pairs.

    Enumerates every d-subset spanning a hyperplane and keeps those with all
    points on one side.  Requires the points to span R^d affinely.
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    d = len(pts[0])
    out = set()
    for sub in itertools.combinations(range(len(pts)), d):
        base = pts[sub[0]]
        diffs = [tuple(pts[i][k] - base[k] for k in range(d)) for i in sub[1:]]
        if matrix_rank(diffs, d) != d - 1:
            continue
        nrm = null_vector(diffs, d)
        if nrm is None or all(x == 0 for x in nrm):
            continue
        for n in (tuple(nrm), tuple(-x for x in nrm)):
            c = sum(n[k] * base[k] for k in range(d))
            vals = [sum(n[k] * p[k] for k in range(d)) - c for p in pts]
            if all(v <= 0 for v in vals) and any(v < 0 for v in vals):
                pn = _primitive(n)
                sc = next(pn[k] / n[k] for k in range(d) if n[k] != 0)
                out.add((pn, c * sc))
    return sorted(out)


def hull_vertices_bruteforce(points):
    """Vertices of conv(points): points not in the hull of the others.

    Membership in a hull is tested by exhaustive barycentric solves over
    affinely independent subsets (Caratheodory), so this stays LP-free.
    """
    pts = sorted({tuple(map(Fraction, p)) for p in points})
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not point_in_hull_bruteforce(p, others):
            out.append(p)
    return sorted(out)


def point_in_hull_bruteforce(x, points):
    """Is x in conv(points)?  Caratheodory enumeration with exact solves."""
    x = tuple(map(Fraction, x))
    pts = [tuple(map(Fraction, p)) for p in points]
    d = len(x)
    if x in pts:
        return True
    for k in range(1, d + 2):
        for sub in itertools.combinations(pts, k):
            # lambda >= 0, sum lambda = 1, sum lambda p = x.
            rows = [[p[j] for p in sub] for j in range(d)] + [[Fraction(1)] * k]
            rhs = list(x) + [Fraction(1)]
            lam = gauss_solve(rows, rhs)
            if lam is None:
                continue
            # gauss_solve zeroes free columns; verify and check signs.
            ok = all(
                sum(lam[t] * sub[t][j] for t in range(k)) == x[j] for j in range(d)
            ) and sum(lam) == 1
            if ok and all(l >= 0 for l in lam):
                return True
    return False


# ---------------------------------------------------------------------------
# Lattice oracle: shortest-in-coset facet vectors by window search.
# ---------------------------------------------------------------------------


def relevant_vectors_bruteforce(gram, radius=3):
    """Facet vectors of the Voronoi cell: strict norm minimizers in cosets.

    Enumerates integer vectors in a +/- radius box; v qualifies iff {v, -v}
    are the unique minimizers of the Gram norm in the coset v + 2Z^d, checked
    against a 3x-larger window.  radius must exceed the true maximum
    coordinate of any facet vector for the answer to be complete.  Norms
    are compared on the Gram times the lcm of its denominators, in
    integers, and the window is walked over the coset alone (step 2 per
    axis).
    """
    d = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    den = math.lcm(*(x.denominator for row in gram for x in row))
    gi = [[int(x * den) for x in row] for row in gram]

    def norm(v):
        return sum(v[i] * gi[i][j] * v[j] for i in range(d) for j in range(d))

    wide = 3 * radius
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=d):
        if all(x == 0 for x in v):
            continue
        nv = norm(v)
        neg = tuple(-x for x in v)
        coset = [range(-wide + (x + wide) % 2, wide + 1, 2) for x in v]
        ok = True
        for w in itertools.product(*coset):
            if w == v or w == neg:
                continue
            if norm(w) <= nv:
                ok = False
                break
        if ok:
            out.append(tuple(map(Fraction, v)))
    return sorted(out)


def relevant_vectors_box(gram):
    """Facet vectors by scanning the coordinate box around the norm ellipsoid.

    The production search before it moved to Fincke-Pohst enumeration, kept
    as its differential oracle.  Same criterion as relevant_vectors_bruteforce
    (+/-v the unique norm minimizers of v + 2Z^d), but every class minimum is
    taken over all vectors of norm at most the largest 0/1 representative's,
    all of which lie in the box |v_i|^2 <= bound * (G^-1)_ii.
    """
    from math import isqrt

    d = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]

    def q(v):
        return sum(v[i] * g[i][j] * v[j] for i in range(d) for j in range(d))

    reps = [c for c in itertools.product((0, 1), repeat=d) if any(c)]
    bound = max(q(c) for c in reps)
    box = []
    for i in range(d):
        e = [Fraction(int(k == i)) for k in range(d)]
        lim = bound * gauss_solve(g, e)[i]  # bound * (G^-1)_ii
        box.append(isqrt(lim.numerator // lim.denominator))
    best = {}
    argmin = {}
    for v in itertools.product(*[range(-b, b + 1) for b in box]):
        cls = tuple(x & 1 for x in v)
        if not any(cls):
            continue
        nv = q(v)
        if nv > bound:
            continue
        if cls not in best or nv < best[cls]:
            best[cls] = nv
            argmin[cls] = [v]
        elif nv == best[cls]:
            argmin[cls].append(v)
    return sorted(tuple(map(Fraction, m)) for mins in argmin.values()
                  if len(mins) == 2 for m in mins)


def random_unimodular(rng, d, top):
    """(U, U^-1) for a seeded unimodular integer U with entries at most top
    in absolute value: 400 random shears col_i += m col_j, each kept only
    while U stays within top, and the matching row operations on U^-1."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [row[:] for row in u]
    for _ in range(400):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-9, -5, -3, -2, -1, 1, 2, 3, 5, 9))
        col = [u[r][i] + m * u[r][j] for r in range(d)]
        if max(map(abs, col)) > top:
            continue
        for r in range(d):
            u[r][i] = col[r]
        inv[j] = [a - m * b for a, b in zip(inv[j], inv[i])]
    return u, inv


def facet_points(c):
    """{delta: a point of the facet P & (P + delta)} for every neighbor step
    delta of a tiling complex c: the first vertex of each facet orbit's
    representative, which lies in the tiles at its two tile shifts, one of
    them the origin, and that vertex moved by -delta for the step -delta."""
    points = {}
    for o in c.orbits:
        if o.dim == c.dim - 1:
            delta = tuple(x + y for x, y in zip(*o.tile_shifts))
            p = o.vertices[0]
            points[delta] = p
            points[tuple(-x for x in delta)] = tuple(
                x - y for x, y in zip(p, delta))
    return points


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _cross_value(jumps, points, a, grad_a, value_a, delta):
    """(gradient, value) at the center of the tile at a + delta from those
    at a's.  The gradient adds the jump; the two affine pieces agree on the
    shared facet, so chaining the value through a point of it is exact."""
    grad_b = _add(grad_a, jumps[delta])
    p = points[delta]  # the facet point, relative to a
    return grad_b, value_a + dot(grad_a, p) + dot(grad_b, _sub(delta, p))


def value_along_path(jumps, points, path):
    """Lift value at the center of the last tile of an explicit tile path.

    jumps maps each neighbor step to its gradient increment and points each
    neighbor step to a point of the facet it crosses (facet_points).  The
    path starts at the base tile, the origin, with gradient and value zero;
    each consecutive pair differs by a neighbor step, or ValueError.  This
    is the lift's evaluation before it became one identity.
    """
    path = [tuple(a) for a in path]
    if not path or any(path[0]):
        raise ValueError("path must start at the origin")
    grad, val = tuple(Fraction(0) for _ in path[0]), Fraction(0)
    for a, b in zip(path, path[1:]):
        if _sub(b, a) not in jumps:
            raise ValueError(f"tiles {a} and {b} are not neighbors")
        grad, val = _cross_value(jumps, points, a, grad, val, _sub(b, a))
    return val


def _reduced_path(reduced, shift):
    """Tile path from the base tile to a lattice shift: whole steps along
    each reduced basis vector (the columns of u, for reduced = (u, u^-1))
    in turn.  They are neighbor steps in the plane, where the path takes
    |y1| + |y2| steps for the reduced coordinates y of the shift, however
    skewed the given basis."""
    u, inv = reduced
    path = [tuple(0 for _ in shift)]
    for col, row in zip(zip(*u), inv):
        y = dot(row, shift)
        step = tuple(col) if y > 0 else tuple(-x for x in col)
        for _ in range(abs(int(y))):
            path.append(_add(path[-1], step))
    if path[-1] != tuple(shift):
        raise ValueError(f"{shift} is not a lattice shift")
    return path


def center_value(jumps, points, reduced, shift):
    """Lift value at the center of the tile at a lattice shift, walked along
    the reduced basis."""
    return value_along_path(jumps, points, _reduced_path(reduced, shift))


def qform_value(matrix, basis, x):
    """y.A.y for the coordinates y of the point x in the given basis."""
    y = gauss_solve([[b[r] for b in basis] for r in range(len(x))], x)
    return sum(y[i] * matrix[i][j] * y[j]
               for i in range(len(y)) for j in range(len(y)))


def qform2_reference(jumps):
    """(matrix, basis) of a planar lift's inscribed form by the 2x2 formulas
    lifting used before it had one path for every dimension: l1 the first
    sorted neighbor step, l2 the first one independent of it, and
    a_ij = l_i.w_j / 2 for their jumps w_j, with a12 read as l2.w1 / 2.

    Raises:
        ValueError: the mixed increments l1.w2 and l2.w1 disagree, or the
            form fails the 2x2 pivot test.
    """
    deltas = sorted(jumps)
    l1 = deltas[0]
    l2 = next(d for d in deltas if l1[0] * d[1] - l1[1] * d[0] != 0)
    w1, w2 = jumps[l1], jumps[l2]
    if dot(l1, w2) != dot(l2, w1):
        raise ValueError("mixed increments disagree")
    a11, a22, a12 = dot(l1, w1) / 2, dot(l2, w2) / 2, dot(l2, w1) / 2
    if not (a11 > 0 and a11 * a22 - a12 * a12 > 0):
        raise ValueError("pivot test failed")
    return ((a11, a12), (a12, a22)), (l1, l2)


def generatrissa_window_reference(jumps, points, inv, window=2):
    """Gradients and center values of a lift on the tiles whose reduced
    coordinates y satisfy |y_i| <= window, as {shift: (gradient, value)}.

    jumps and points are as for value_along_path and inv is u^-1 for the
    reduced basis u.  Both are propagated from the base tile (gradient and
    value zero) along a BFS tree whose steps are taken in sorted order;
    then every adjacency inside the window must add its increment and
    agree on the value, or ValueError is raised.
    """
    def inside(b):
        return all(abs(sum(r * x for r, x in zip(row, b))) <= window
                   for row in inv)

    steps = sorted(jumps)
    zero = tuple(0 for _ in inv)
    tiles = {zero: (tuple(Fraction(0) for _ in inv), Fraction(0))}
    queue = [zero]
    while queue:
        a = queue.pop(0)
        for delta in steps:
            b = _add(a, delta)
            if b not in tiles and inside(b):
                tiles[b] = _cross_value(jumps, points, a, *tiles[a], delta)
                queue.append(b)
    # Crossing back from b to a through the same facet point repeats the
    # crossing from a to b, so one direction per adjacency suffices: the
    # steps come in pairs +-delta, and the sorted second half holds the
    # lexicographically positive one of each.
    for a, at_a in tiles.items():
        for delta in steps[len(steps) // 2:]:
            b = _add(a, delta)
            if b in tiles and tiles[b] != _cross_value(jumps, points, a,
                                                       *at_a, delta):
                raise ValueError(f"circuit through tiles {a} and {b} does "
                                 "not close")
    return tiles


# ---------------------------------------------------------------------------
# Cones and halfspace systems: the production code before it moved to
# combinatorial tests, kept as differential oracles.
# ---------------------------------------------------------------------------


def make_cell_reference(eqs, neg):
    """Canonical (equations, strict negatives) of a direction cell, or None.

    syssolve._make_cell before it stopped re-canonicalizing the rows a cell
    already holds: every row is scaled to primitive integers (equations also
    sign-normalized) and the system is None when a strict row is zero or
    clashes with its negation or with an equation.
    """

    def prim(v):
        v = vec(v)
        return v if all(x == 0 for x in v) else _primitive(v)

    def lexpos(v):
        first = next((x for x in v if x != 0), 0)
        return tuple(-x for x in v) if first < 0 else v

    eset = set()
    for n in eqs:
        n = lexpos(prim(n))
        if any(x != 0 for x in n):
            eset.add(n)
    nset = set()
    for n in neg:
        n = prim(n)
        if all(x == 0 for x in n):
            return None
        nset.add(n)
    for n in nset:
        flip = tuple(-x for x in n)
        if flip in nset or n in eset or flip in eset:
            return None
    return tuple(sorted(eset)), tuple(sorted(nset))


class Lineality(Exception):
    """The rows given to extreme_rays_reference do not span: the cone
    contains a line."""


def extreme_rays_reference(rows, dim):
    """Extreme rays of the pointed cone {x : r.x >= 0 for every row r}.

    ratpoly._extreme_rays before it moved to integer rows: incremental
    double description over Fractions, every new ray's zero set taken by a
    dot product with every row, and every pair's adjacency tested by a
    scan of all rays.  Returns (primitive ray, zero set) pairs sorted by
    ray, bit i of the zero set on iff rows[i].ray == 0.

    Raises:
        Lineality: the rows do not span.
    """
    given = rows
    rows = sorted(set(vec(r) for r in rows))
    chosen = []
    cur = []
    for i, r in enumerate(rows):
        if matrix_rank(cur + [r], dim) > len(cur):
            chosen.append(i)
            cur.append(r)
        if len(cur) == dim:
            break
    if len(cur) < dim:
        raise Lineality
    # Column j of the inverse: zero on every chosen row but the j-th.
    rays = [_primitive(gauss_solve(cur, [int(i == j) for i in range(dim)]))
            for j in range(dim)]
    zmask = [sum(1 << i for i, r in enumerate(rows) if dot(r, ray) == 0)
             for ray in rays]
    processed = sum(1 << i for i in chosen)
    for idx, a in enumerate(rows):
        if idx in chosen:
            continue
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed |= 1 << idx
            continue
        pos = [j for j, v in enumerate(vals) if v > 0]
        zer = [j for j, v in enumerate(vals) if v == 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        new_rays, new_masks = [], []
        for jp, jn in itertools.product(pos, neg):
            common = zmask[jp] & zmask[jn] & processed
            if any(zmask[jo] & common == common
                   for jo in range(len(rays)) if jo not in (jp, jn)):
                continue
            w = _primitive([vals[jp] * rays[jn][k] - vals[jn] * rays[jp][k]
                            for k in range(dim)])
            new_rays.append(w)
            new_masks.append(sum(1 << i for i, r in enumerate(rows)
                                 if dot(r, w) == 0))
        keep = pos + zer
        rays = [rays[j] for j in keep] + new_rays
        zmask = [zmask[j] for j in keep] + new_masks
        processed |= 1 << idx
    where = {r: i for i, r in enumerate(rows)}
    pos = [where[vec(r)] for r in given]
    zmask = [sum(1 << i for i, p in enumerate(pos) if m >> p & 1) for m in zmask]
    return sorted(zip(rays, zmask))


def from_vertices_reference(points):
    """ratpoly.from_vertices before it made one basis solve per hull: a
    fresh solve for each point's coordinates and for each facet's lifted
    normal, the dual cone's rays from extreme_rays_reference, and each
    point's vertex status from the rank of the facet normals through it.
    Same arguments, result and exceptions."""
    from tilekit import ratpoly

    pts = sorted({vec(p) for p in points})
    if not pts:
        raise ratpoly.EmptyInput("no points given")
    d = len(pts[0])
    if d > ratpoly.MAX_DIM:
        raise ValueError(f"ambient dimension {d} above supported bound")
    if any(len(p) != d for p in pts):
        raise ValueError("points have mixed dimensions")
    p0 = pts[0]
    diffs = [tuple(x - y for x, y in zip(p, p0)) for p in pts]
    basis = []
    for df in diffs:
        if matrix_rank(basis + [df], d) > len(basis):
            basis.append(df)
    k = len(basis)
    equations = ratpoly._affine_equations(p0, diffs[1:], d)
    if k == 0:
        return ratpoly.Polytope(vertices=(p0,), facets=(), equations=equations,
                                incidence=(), dim=0)
    cols = [list(col) for col in zip(*basis)]
    coords = [gauss_solve(cols, df) for df in diffs]
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    facets = []
    for ray, _ in extreme_rays_reference(
            [tuple(c) + (Fraction(1),) for c in coords], k + 1):
        yhat, s = ray[:k], ray[k]
        coeffs = gauss_solve(gram, [-y for y in yhat])
        n = tuple(sum((coeffs[j] * basis[j][r] for j in range(k)), Fraction(0))
                  for r in range(d))
        facets.append(ratpoly._canonical_facet(n, s + dot(n, p0)))
    facets.sort()
    verts = []
    for p in pts:
        active = [n for n, b in facets if dot(n, p) == b]
        if matrix_rank(active + [n for n, _ in equations], d) == d:
            verts.append(p)
    incidence = tuple(
        frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
        for n, b in facets
    )
    return ratpoly.Polytope(vertices=tuple(verts), facets=tuple(facets),
                            equations=equations, incidence=incidence, dim=k)


def cone_dual_reference(gens, d):
    """ratpoly.cone_dual before it read coordinates off the reduced row
    echelon form: a solve per generator, extreme_rays_reference, and a
    Gram solve per ray to lift it into the span.  Same result."""
    from tilekit import _lp

    gens = [vec(g) for g in gens if any(x != 0 for x in g)]
    if not gens:
        return [], _lp.nullspace([], d)
    eqs = _lp.nullspace(gens, d)
    span_basis, _ = _lp.rref(gens)
    cols = [list(col) for col in zip(*span_basis)]
    coords = [tuple(gauss_solve(cols, g)) for g in gens]
    gram = [[dot(bi, bj) for bj in span_basis] for bi in span_basis]
    normals = []
    for ray, _ in extreme_rays_reference(coords, len(span_basis)):
        coeffs = gauss_solve(gram, ray)
        normals.append(_primitive([
            sum((coeffs[j] * b[r] for j, b in enumerate(span_basis)), Fraction(0))
            for r in range(d)]))
    return sorted(normals), sorted(eqs)


class _Cone(NamedTuple):
    """Polyhedral cone with apex translated to `apex`.

    Constraints apply to x - apex: halfspace normals n mean n.(x - apex) <= 0,
    equations mean n.(x - apex) == 0.  generators are primitive direction
    vectors that generate the cone: the edge directions for a tangent cone,
    and the generating set itself (not reduced to extreme rays) for a cone
    from _cone_minus_linspace.
    """

    apex: tuple
    generators: tuple
    halfspaces: tuple
    equations: tuple


def _cone_at_vertex(p, v):
    """Tangent cone of p at vertex v, apex kept at v.

    Generators are the edge directions at v (primitive); halfspaces are the
    facet normals active at v.
    """
    from tilekit import _lp, ratpoly

    v = vec(v)
    vi = p.vertices.index(v)
    active = [n for (n, b), inc in zip(p.facets, p.incidence) if vi in inc]
    eq_normals = [n for n, _ in p.equations]
    d = p.ambient_dim
    # Extreme rays of {x : n.x <= 0 active, e.x = 0} are the edge directions.
    ge_normals = [tuple(-x for x in n) for n in active]
    null = _lp.nullspace(eq_normals, d)
    rows = [tuple(dot(n, nb) for nb in null) for n in ge_normals]
    rays_q = ratpoly._extreme_rays(rows, len(null))
    gens = sorted(_lp.primitive(tuple(dot(row, r) for row in zip(*null)))
                  for r, _ in rays_q)
    return _Cone(
        apex=v,
        generators=tuple(gens),
        halfspaces=tuple(sorted(active)),
        equations=tuple(sorted(eq_normals)),
    )


def _cone_minus_linspace(c, directions):
    """Minkowski sum of the cone with the linear span of the given directions.

    One double description pass over the generating set: c's generators
    plus +/- each primitive direction, sorted and deduplicated.  That set
    is the result's generators; its halfspaces are the negated facet
    normals of the set's dual, and its equations those of the set's span.
    """
    from tilekit import _lp, ratpoly

    d = len(c.apex)
    dirs = [vec(v) for v in directions]
    dirs = [_lp.primitive(v) for v in dirs if not _lp.is_zero(v)]
    glist = list(c.generators)
    for v in dirs:
        glist.append(v)
        glist.append(tuple(-x for x in v))
    glist = sorted(set(glist))
    normals, eqs = ratpoly.cone_dual(glist, d)
    return _Cone(
        apex=c.apex,
        generators=tuple(glist),
        halfspaces=tuple(sorted(tuple(-x for x in n) for n in normals)),
        equations=tuple(eqs),
    )


def excluded_cone_reference(i, v):
    """syssolve.excluded_direction_cone as two double description passes:
    the tangent cone of Q at v from the facets active there (its extreme
    rays are the edge directions), then the dual of those edge directions
    widened by parallelogram i's plane.  Same arguments and result for a
    vertex of Q outside parallelogram i."""
    from tilekit import syssolve

    q, paras, planes = syssolve.lifted_configuration()
    if tuple(v) in paras[i - 1]:
        raise ValueError("vertex belongs to the parallelogram under test")
    cone = _cone_minus_linspace(_cone_at_vertex(q, vec(v)), planes[i - 1])
    if cone.equations:
        raise syssolve.VerificationError("direction cone is not full-dimensional")
    return cone.halfspaces


def from_halfspaces_two_pass(halfspaces):
    """ratpoly.from_halfspaces as two hulls: double description finds the
    vertices, then from_vertices_reference rebuilds the facets, equations
    and incidence from them.  Same arguments and result, for the bounded
    full-dimensional systems that from_halfspaces accepts."""
    from tilekit import ratpoly

    hs = [(vec(n), frac(b)) for n, b in halfspaces]
    if not hs:
        raise ValueError("empty system")
    d = len(hs[0][0])
    if d > ratpoly.MAX_DIM:
        raise ValueError(f"ambient dimension {d} above supported bound")
    rows = [tuple(-x for x in n) + (b,) for n, b in hs]
    rows.append(tuple(Fraction(0) for _ in range(d)) + (Fraction(1),))
    rays = [r for r, _ in extreme_rays_reference(rows, d + 1)]
    return from_vertices_reference([tuple(x / r[d] for x in r[:d]) for r in rays])


def face_lattice_reference(p):
    """ratpoly.face_lattice before it ranked faces by their incidences:
    the same breadth-first intersections of facet vertex bitmasks, with
    each face's dimension the rank of its vertex differences.  Reads only
    the polytope's vertices and incidence; same result."""
    full = (1 << len(p.vertices)) - 1
    facet_masks = [sum(1 << i for i in inc) for inc in p.incidence]
    found = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for f in frontier:
            for fm in facet_masks:
                g = f & fm
                if g and g != f and g not in found:
                    found.add(g)
                    nxt.append(g)
        frontier = nxt
    faces = []
    for f in found:
        idx = [i for i in range(len(p.vertices)) if f >> i & 1]
        first = p.vertices[idx[0]]
        diffs = [[x - y for x, y in zip(p.vertices[i], first)] for i in idx[1:]]
        faces.append((matrix_rank(diffs, len(first)), idx, f))
    faces.sort()
    return [(k, f) for k, _, f in faces]


class FaceRef(NamedTuple):
    """A face of the tiling: the representative of orbit ``orbit``
    translated by the integer vector ``shift``."""

    orbit: int
    shift: tuple


def face_vertices(c, f):
    """Vertices of the concrete face ``f`` of the complex ``c``."""
    return tuple(tuple(x + t for x, t in zip(v, f.shift))
                 for v in c.orbits[f.orbit].vertices)


def shifted_stars(c, qs):
    """{q: the faces of the tiling containing orbit q's representative} for
    each q in ``qs``, sorted FaceRefs, found from the orbits of ``c`` alone
    by comparing Fraction vertex sets: each orbit p has the members
    rep_p - lam of the base tile, lam in its tile_shifts."""
    members = [(p.index, lam, frozenset(tuple(x - m for x, m in zip(v, lam))
                                         for v in p.vertices))
               for p in c.orbits for lam in p.tile_shifts]
    through = {}
    for m in members:
        for v in m[2]:
            through.setdefault(v, []).append(m)
    stars = {q: set() for q in qs}
    for q, lam, base in members:
        if q not in stars:
            continue
        for p, mu, verts in through[min(base)]:
            if base <= verts:
                stars[q].add(FaceRef(p, tuple(a - b for a, b in zip(lam, mu))))
    return {q: tuple(sorted(st)) for q, st in stars.items()}


def _lattice_shift(f, g):
    """Integer vector mu with f + mu == g, or None."""
    if len(f) != len(g):
        return None
    mu = tuple(b - a for a, b in zip(f[0], g[0]))
    if any(x.denominator != 1 for x in mu):
        return None
    if all(tuple(x + m for x, m in zip(v, mu)) == w for v, w in zip(f, g)):
        return mu
    return None


def build_complex_reference(gram):
    """tiling.build_complex with its former orbit grouping and star loop:
    each face is compared with the first member of every group found so
    far, and each star is found by comparing Fraction vertex sets.  Same
    arguments and exceptions; returns (orbits, stars), stars[q] being the
    sorted star of orbit q's representative face."""
    from tilekit import lattice, ratpoly, tiling
    from tilekit.tiling import FaceOrbit

    d = len(gram)
    if d > 5:
        raise ValueError("tilings are supported up to dimension 5 only")
    cell = lattice.dv_cell(gram)
    report = lattice.venkov_check_cell(cell)
    if not report.passed:
        raise tiling.VenkovFailure(report)

    faces = [tuple(sorted(cell.vertices[i] for i in range(len(cell.vertices))
                          if m >> i & 1))
             for _, m in face_lattice_reference(cell)]
    orbit_of = {}
    groups = []
    for f in faces:
        for gi, grp in enumerate(groups):
            if _lattice_shift(grp[0], f) is not None:
                grp.append(f)
                orbit_of[f] = gi
                break
        else:
            groups.append([f])
            orbit_of[f] = len(groups) - 1

    def face_dim(f):
        return matrix_rank([[x - y for x, y in zip(v, f[0])] for v in f[1:]], d)

    orbits = []
    lam_of = {}
    order = sorted(range(len(groups)),
                   key=lambda gi: (face_dim(groups[gi][0]), min(groups[gi])))
    renumber = {gi: i for i, gi in enumerate(order)}
    for gi in order:
        grp = groups[gi]
        rep = min(grp)
        shifts = []
        for g in grp:
            lam = _lattice_shift(g, rep)
            lam_of[g] = lam
            shifts.append(lam)
        orbits.append(FaceOrbit(
            index=renumber[gi],
            dim=face_dim(rep),
            vertices=rep,
            tile_shifts=tuple(sorted(shifts)),
        ))
    orbits.sort(key=lambda o: o.index)

    stars = []
    face_sets = [frozenset(g) for g in faces]
    for o in orbits:
        rep = o.vertices
        star = set()
        for lam in o.tile_shifts:
            base = set(tuple(x - m for x, m in zip(v, lam)) for v in rep)
            for g, g_set in zip(faces, face_sets):
                if base <= g_set:
                    q = renumber[orbit_of[g]]
                    star.add(FaceRef(q, tuple(a - b for a, b in zip(lam, lam_of[g]))))
        stars.append(tuple(sorted(star, key=lambda r: (r.orbit, r.shift))))

    # The checks of tiling._validate_complex.
    if sum(1 for o in orbits if o.dim == d) != 1:
        raise ratpoly.GeometryError(
            "tiling quotient must have exactly one tile orbit")
    if any(o.dim == d - 1 and len(o.tile_shifts) != 2 for o in orbits):
        raise ratpoly.GeometryError(
            "a facet of a face-to-face tiling must lie in exactly 2 tiles")
    return tuple(orbits), tuple(stars)


def dual_cell_reference(c, q):
    """tiling.dual_cell built afresh: the hull of orbit ``q``'s tile
    centers by from_vertices_reference, with the same checks.  Same
    arguments, result and exceptions."""
    from tilekit import ratpoly, tiling

    orbit = c.orbits[q]
    verts = tuple(sorted(orbit.tile_shifts))
    hull = from_vertices_reference(verts)
    if set(hull.vertices) != set(verts):
        raise ratpoly.GeometryError(
            "tile centers of a star must be in convex position")
    tiling._check_lattice_points(hull, verts, c.reduced)
    for a, b in itertools.combinations(verts, 2):
        if all((x - y) % 2 == 0 for x, y in zip(a, b)):
            raise ratpoly.GeometryError(
                "two tile centers of a star are congruent mod 2")
    return tiling.DualCell(verts=verts, combdim=c.dim - orbit.dim, hull=hull)


def pyramid_pairs_reference(c):
    """The pairs that scaling.pyramid_flanked_parallelograms finds, as the
    command line once found them: for each codimension-4 orbit v, the
    first face r of each fan-B codimension-2 orbit in the sorted star of
    v's representative whose two flanks, the codimension-3 faces of that
    star between the two, are pyramids.  Returns the (v, r) pairs, r a
    FaceRef, sorted by v and r's orbit, in every dimension."""
    from tilekit import tiling

    found = []
    seen = set()
    stars = shifted_stars(c, [o.index for o in c.orbits if o.dim == c.dim - 4])
    for o in c.orbits:
        if o.dim != c.dim - 4:
            continue
        vverts = set(o.vertices)
        st = stars[o.index]
        for r in st:
            if c.orbits[r.orbit].dim != c.dim - 2:
                continue
            if tiling.classify_d2(c, r.orbit).tag != "B":
                continue
            rverts = set(face_vertices(c, r))
            flanks = [q for q in st
                      if c.orbits[q.orbit].dim == c.dim - 3
                      and vverts <= set(face_vertices(c, q)) <= rverts]
            if len(flanks) != 2:
                continue
            tags = {tiling.classify_dual3(tiling.dual_cell(c, q.orbit)).tag
                    for q in flanks}
            if tags != {"IV"} or (o.index, r.orbit) in seen:
                continue
            seen.add((o.index, r.orbit))
            found.append((o.index, r))
    return found


def pyramid_flanks(c, f2, f4):
    """The two codimension-3 faces between the faces ``f4`` (codimension
    4) and ``f2`` (codimension 2), FaceRefs with ``f4`` inside ``f2``, read
    off the vertex bitmasks (``c.faces``) of a tile containing both:
    scaling.test_coherence's own flank search before the scan handed it
    the flank orbits.  Sorted.

    Raises:
        ValueError: the faces have the wrong dimensions or are not nested,
            or the interval between them is not a rhombus.
        scaling.HypothesisViolated: a flank's dual 3-cell is not a pyramid.
    """
    from tilekit import scaling, tiling

    if (c.dim - c.orbits[f2.orbit].dim, c.dim - c.orbits[f4.orbit].dim) != (2, 4):
        raise ValueError("need a codimension-2 and a codimension-4 face")
    # The tile P + mu contains f2; f - mu is the face of P with shift lam.
    mu = tuple(a + b for a, b in zip(c.orbits[f2.orbit].tile_shifts[0], f2.shift))

    def mask(f):
        lam = tuple(a - b for a, b in zip(mu, f.shift))
        return next((m for m, p, lam_p in c.faces
                     if p == f.orbit and lam_p == lam), None)

    high, low = mask(f2), mask(f4)
    if low is None or low & ~high:
        raise ValueError("the 4-cell's face must lie in the 2-cell's face")
    flanks = sorted(FaceRef(p, tuple(a - b for a, b in zip(mu, lam)))
                    for m, p, lam in c.faces
                    if c.orbits[p].dim == c.dim - 3
                    and low & ~m == 0 and m & ~high == 0)
    if len(flanks) != 2:
        raise ValueError("face interval is not a rhombus")
    for r in flanks:
        try:
            tag = tiling.classify_dual3(tiling.dual_cell(c, r.orbit)).tag
        except tiling.UnclassifiableCell:
            tag = "?"
        if tag != "IV":
            raise scaling.HypothesisViolated(
                "a dual 3-cell flanking the parallelogram is not a pyramid "
                "over a parallelogram")
    return flanks[0], flanks[1]


def star_scaling_d3_reference(c, q, frame):
    """Joint scaling family of the facets around codimension-3 orbit
    ``q``, solving each codimension-2 star of it on the spot."""
    from tilekit import scaling, tiling

    if c.orbits[q].dim != c.dim - 3:
        raise ValueError("joint star scaling needs a face of dimension d-3")
    st = tiling.star(c, q)
    forest = scaling._RatioForest(sorted(set(scaling._facet_orbits(c, st))))
    for r in sorted({p for p in st if c.orbits[p].dim == c.dim - 2}):
        if tiling.classify_d2(c, r).tag != "A":
            continue
        sub = scaling.star_scaling_d2(c, r, frame)
        pairs = sorted(sub.factors)
        for o in pairs[1:]:
            if not forest.link(o, pairs[0],
                               sub.factors[o] / sub.factors[pairs[0]]):
                raise scaling.NoPositiveSolution(
                    "ratio constraints of the codimension-2 stars conflict")
    groups = forest.components()
    factors = {}
    for members in groups.values():
        for o in members:
            _, m = forest.find(o)
            factors[o] = m
    dof = len(groups)
    if dof == 1:
        factors = scaling._normalize_ray(factors)
    return scaling.StarScaling(kind="unique_ray" if dof == 1 else "family",
                               factors=factors, dof=dof, unique=dof == 1)


def dv_cell_with_vectors(gram):
    """Voronoi cell plus the facet -> lattice-vector correspondence.

    Returns:
        (cell, vectors) with vectors[i] the facet vector of cell.facets[i].
    """
    from tilekit import lattice, ratpoly

    rel, halfspaces = lattice._dv_halfspaces(gram)
    cell = ratpoly.from_halfspaces(halfspaces)
    # Every halfspace of a facet vector is a facet, already in the cell's
    # canonical form once scaled to a primitive normal.
    vector_of = {
        ratpoly._canonical_facet(n, b): v for v, (n, b) in zip(rel, halfspaces)
    }
    return cell, tuple(vector_of[f] for f in cell.facets)


def belts_of_reference(cell):
    """lattice.belts_of before it walked by facet reflections: every ridge
    is keyed by the reduced row echelon form of its directions, and each
    step scans all ridges for the other one of the current key in the
    current facet.  Same cycles, and FacetNotCentrallySymmetric where a
    facet has no unique parallel opposite ridge."""
    from tilekit import _lp, lattice, ratpoly

    d = cell.dim
    if d < 2:
        return []
    if d == 2:
        return [list(range(len(cell.facets)))]
    ridges = [frozenset(i for i in range(len(cell.vertices)) if m >> i & 1)
              for k, m in face_lattice_reference(cell) if k == d - 2]
    facet_sets = [set(inc) for inc in cell.incidence]
    ridge_facets = [[i for i, s in enumerate(facet_sets) if r <= s] for r in ridges]
    key_of = []
    for r in ridges:
        verts = [cell.vertices[i] for i in sorted(r)]
        key_of.append(tuple(_lp.rref([_lp.vsub(v, verts[0]) for v in verts[1:]])[0]))
    belts = []
    seen = set()
    order = sorted(range(len(ridges)), key=lambda i: tuple(sorted(ridges[i])))
    for start in order:
        if start in seen:
            continue
        key = key_of[start]
        cycle = []
        ridge = start
        facet = ridge_facets[start][0]
        while True:
            seen.add(ridge)
            cycle.append(facet)
            a, b = ridge_facets[ridge]
            facet = b if facet == a else a
            cands = [i for i in range(len(ridges))
                     if i != ridge and key_of[i] == key and facet in ridge_facets[i]]
            if len(cands) != 1:
                raise lattice.FacetNotCentrallySymmetric(
                    "facet has no unique parallel opposite face")
            ridge = cands[0]
            if ridge == start:
                cycle.append(facet)
                break
        # The walk appends the entry facet twice when it closes.
        if cycle[0] == cycle[-1]:
            cycle = cycle[:-1]
        belts.append(cycle)
    return belts


# ---------------------------------------------------------------------------
# The case engine before it did each orbit, lattice and cell row once.
# ---------------------------------------------------------------------------


def canonical_scheme(cycles):
    """Relabeling-invariant key of a cover of K5 by circuits.

    hypercomb.canonical_scheme before the orbit sweep: the least, over all
    120 relabelings of the vertices 1..5, of the sorted circuits, each
    written as the least of its rotations and reversed rotations.
    """

    def canon_cycle(cyc):
        return min(seq[r:] + seq[:r] for seq in (cyc, tuple(reversed(cyc)))
                   for r in range(len(cyc)))

    return min(tuple(sorted(canon_cycle(tuple(perm[v - 1] for v in cyc))
                            for cyc in cycles))
               for perm in itertools.permutations(range(1, 6)))


def sigma_orbit_key(sigma, sigma_prime):
    """hypercomb.sigma_orbit_key before the orbit sweep: the least image of
    a 6-11 matching (sigma, sigma_prime) under the 36 independent
    relabelings pi, pi_p of the hyperedges at s and at s'."""
    best = None
    for pi in itertools.permutations((1, 2, 3)):
        for pi_p in itertools.permutations((1, 2, 3)):
            inv = {pi[i]: i + 1 for i in range(3)}
            inv_p = {pi_p[i]: i + 1 for i in range(3)}
            image = (tuple(pi_p[sigma[inv[k] - 1] - 1] for k in (1, 2, 3)),
                     tuple(pi[sigma_prime[inv_p[l] - 1] - 1] for l in (1, 2, 3)))
            if best is None or image < best:
                best = image
    return best


def in_int_span(target, gens):
    """Integer coefficients expressing target in the integer span of gens,
    or None: _lp.in_int_span, the exact column-style Hermite reduction that
    ran once per target.  Generators and target must be integer vectors."""
    cols = [[int(x) for x in g] for g in gens]
    tgt = [int(x) for x in target]
    n = len(tgt)
    coeffs = [[1 if i == j else 0 for i in range(len(cols))] for j in range(len(cols))]
    work = [list(c) for c in cols]
    used = []
    avail = list(range(len(work)))
    for row in range(n):
        live = [j for j in avail if work[j][row] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(work[j][row]))
            j0 = live[0]
            for j in live[1:]:
                q = work[j][row] // work[j0][row]
                if q:
                    for r in range(n):
                        work[j][r] -= q * work[j0][r]
                    for r in range(len(coeffs[j])):
                        coeffs[j][r] -= q * coeffs[j0][r]
            live = [j for j in live if work[j][row] != 0]
        used.append((row, live[0]))
        avail.remove(live[0])
    t = list(tgt)
    out = [0] * len(cols)
    for row, piv in used:
        if t[row] % work[piv][row] != 0:
            return None
        q = t[row] // work[piv][row]
        for r in range(n):
            t[r] -= q * work[piv][r]
        for r in range(len(cols)):
            out[r] += q * coeffs[piv][r]
    if any(t):
        return None
    return out


def parity_certificate_reference(sf, a, b):
    """syssolve.parity_certificate before the point lattice was reduced
    once per family: the half difference and the generators (every labeled
    point, then a unit vector per free parameter) are rescaled together to
    integers, and in_int_span reduces them afresh.  Reads the fields of a
    syssolve.SolutionFamily only."""
    vals = dict(sf.values)
    p = len(sf.params)
    gens = [vals[lab] for lab in sf.system.labels]
    gens += [(Fraction(0),) * 4 + tuple(Fraction(int(j == k)) for j in range(p))
             for k in range(p)]
    half = [(x - y) / 2 for x, y in zip(vals[a], vals[b])]
    scale = 1
    for v in [half, *gens]:
        for x in v:
            scale = math.lcm(scale, x.denominator)
    coeffs = in_int_span([int(x * scale) for x in half],
                         [[int(x * scale) for x in g] for g in gens])
    if coeffs is None:
        return None
    return tuple(coeffs), tuple(sf.system.labels) + tuple(sf.params)


def octahedron_search_reference(sf):
    """syssolve.resolve_octahedron_case before it took its candidates from
    the pair sums: every one of the 210 six-point subsets, in combinations
    order, is tested for central symmetry about its centroid by pairing
    each point with its reflection; a symmetric subset that spans three
    dimensions and has a parallelogram diagonal among its antipodal pairs
    is the hit.  Returns (kind, certificate, description), which equals
    syssolve's ContradictionReport field by field, or None.  Reads the
    fields of a syssolve.SolutionFamily only."""
    labels = sf.system.labels
    vals = dict(sf.values)
    diagonals = {frozenset(d): p.name
                 for p in sf.system.parallelograms for d in p.diagonals}
    for idx in itertools.combinations(range(len(labels)), 6):
        pts = [vals[labels[i]] for i in idx]
        center2 = tuple(sum(xs) / 3 for xs in zip(*pts))
        used = [False] * 6
        pairs = []
        for i in range(6):
            if used[i]:
                continue
            part = next((j for j in range(i + 1, 6) if not used[j]
                         and all(x + y == c for x, y, c
                                 in zip(pts[i], pts[j], center2))), None)
            if part is None:
                break
            used[i] = used[part] = True
            pairs.append((idx[i], idx[part]))
        if len(pairs) != 3:
            continue
        center = tuple(c / 2 for c in center2)
        rows = [tuple(x - c for x, c in zip(p, center)) for p in pts]
        if matrix_rank(rows, len(center)) != 3:
            continue
        hits = tuple((diagonals[frozenset((labels[i], labels[j]))],
                      (labels[i], labels[j]))
                     for i, j in pairs
                     if frozenset((labels[i], labels[j])) in diagonals)
        if hits:
            return ("coincidence-with-diagonal",
                    (tuple(labels[i] for i in idx), center,
                     tuple((labels[i], labels[j]) for i, j in pairs), hits),
                    "a centrally symmetric six-point set has a parallelogram "
                    "diagonal among its main diagonals")
    return None


def lattice_points_reference(hull, verts, basis):
    """The integer points of hull in the bounding box of the integer points
    verts in the reduced coordinates of basis = (u, u^-1), listed in the
    box's product order: tiling._lattice_points before it tested in
    integers.  Each box point is built in the caller's coordinates and
    tested with hull.contains, a Fraction dot product per facet and
    equation."""
    u, inv = basis
    coords = [[sum(r * x for r, x in zip(row, map(int, v))) for row in inv]
              for v in verts]
    steps = [[tuple(y * x for x in col)
              for y in range(min(w[k] for w in coords),
                             max(w[k] for w in coords) + 1)]
             for k, col in enumerate(zip(*u))]
    out = []
    for parts in itertools.product(*steps):
        pt = tuple(map(sum, zip(*parts)))
        if hull.contains(pt):
            out.append(pt)
    return out


def cone_pipeline_reference():
    """The survivors of syssolve.cone_test_pipeline on the Fraction-row
    cell path: every refinement re-canonicalizes all its rows with
    make_cell_reference and runs an LP for its witness, and every
    exclusion makes its normals primitive again for each cell.  It splits
    all 32 orthants and builds each of the 30 excluded cones, so it also
    checks the pipeline's reduction by symmetry.  Takes the excluded cones
    and the LP from tilekit."""
    from tilekit import _lp, syssolve

    def neg_of(n):
        return tuple(-x for x in n)

    def lexpos(n):
        first = next((x for x in n if x != 0), 0)
        return neg_of(n) if first < 0 else tuple(n)

    def refine(cell, extra_eqs=(), extra_neg=()):
        made = make_cell_reference(list(cell[0]) + list(extra_eqs),
                                   list(cell[1]) + list(extra_neg))
        if made is None:
            return None
        eqs, neg = made
        wit = _lp.strictly_feasible([neg_of(n) for n in neg], list(eqs), dim=5)
        return None if wit is None else (eqs, neg, wit)

    def exclude_open(cells, normals):
        out = []
        for cell in cells:
            eqs, neg, wit = cell
            if any(lexpos(_primitive(n)) in eqs or neg_of(_primitive(n)) in neg
                   for n in normals):
                out.append(cell)
                continue
            if not all(dot(n, wit) < 0 for n in normals):
                if refine(cell, extra_neg=normals) is None:
                    out.append(cell)
                    continue
            prefix = []
            for n in normals:
                for piece in (refine(cell, (n,), prefix),
                              refine(cell, (), prefix + [neg_of(n)])):
                    if piece is not None:
                        out.append(piece)
                prefix.append(n)
        return out

    _q, paras, _planes = syssolve.lifted_configuration()
    verts = syssolve.Q_VERTEX_ORDER
    singles = [v for v in verts if sum(1 for c in v if c != 0) == 1]
    sums = [v for v in verts if sum(1 for c in v if c != 0) == 2]
    pairs = [(i, v, syssolve.excluded_direction_cone(i, v))
             for i in range(1, 6) for v in singles + sums
             if tuple(v) not in paras[i - 1]]
    unit = [tuple(Fraction(int(j == i)) for j in range(5)) for i in range(5)]
    cells = [((), (), unit[0])]
    for axis in unit:
        cells = [piece for cell in cells for side in (axis, neg_of(axis))
                 for piece in [refine(cell, extra_neg=(side,))] if piece is not None]
    for _i, _v, normals in sorted(
            pairs, key=lambda t: (sum(1 for c in t[1] if c != 0), t[0], t[1])):
        cells = exclude_open(cells, normals)
        cells = exclude_open(cells, tuple(neg_of(n) for n in normals))
    rays = set()
    for eqs, _neg, wit in cells:
        (d,) = _lp.nullspace(eqs, 5)
        d = _primitive(d)
        j = next(k for k in range(5) if d[k] != 0)
        rays.add(d if wit[j] / d[j] > 0 else neg_of(d))
    return tuple(sorted(rays))


def direction_passes_reference(x, pairs):
    """syssolve._direction_passes before it ran on integer rows: a Fraction
    dot product of each given normal with x.  Same arguments and result."""
    if any(c == 0 for c in x):
        return False
    for _i, _v, normals in pairs:
        if all(dot(n, x) < 0 for n in normals):
            return False
        if all(dot(n, x) > 0 for n in normals):
            return False
    return True


# ---------------------------------------------------------------------------
# Closed 4-uniform hypergraphs via clique partitions of the edge-meet graph.
# ---------------------------------------------------------------------------
#
# A system of R size-4 hyperedges, pairwise meeting in exactly one vertex and
# with every vertex in at least two hyperedges, is the same thing as a
# partition of the edge set of the complete graph K_R into cliques such that
# every K_R-vertex lies in exactly four cliques: each clique is a vertex of
# the hypergraph, each K_R-vertex a hyperedge.


def clique_partitions(r):
    """All partitions of E(K_r) into cliques, four cliques at each vertex."""
    edges = list(itertools.combinations(range(r), 2))
    assigned = set()
    counts = [0] * r
    cliques: list[tuple[int, ...]] = []
    results: list[list[tuple[int, ...]]] = []

    def edges_left(v):
        return sum(
            1
            for e in edges
            if v in e and e not in assigned
        )

    def feasible():
        for v in range(r):
            el = edges_left(v)
            if el == 0 and counts[v] != 4:
                return False
            if counts[v] > 4:
                return False
            if counts[v] + el < 4:
                return False
            if el > 0 and counts[v] == 4:
                return False
        return True

    def rec():
        e = next((e for e in edges if e not in assigned), None)
        if e is None:
            if all(c == 4 for c in counts):
                results.append(sorted(cliques))
            return
        i, j = e
        options = []
        rest = [v for v in range(r) if v not in e]
        for size in (2, 3, 4, 5):
            for extra in itertools.combinations(rest, size - 2):
                cl = (i, j) + extra
                needed = list(itertools.combinations(sorted(cl), 2))
                if any(ed in assigned for ed in needed):
                    continue
                options.append((cl, needed))
        for cl, needed in options:
            for ed in needed:
                assigned.add(ed)
            for v in cl:
                counts[v] += 1
            cliques.append(tuple(sorted(cl)))
            if feasible():
                rec()
            cliques.pop()
            for v in cl:
                counts[v] -= 1
            for ed in needed:
                assigned.discard(ed)

    rec()
    return results


def partition_to_hypergraph(r, cliques):
    """Hyperedges of the closed hypergraph: edge i = cliques containing i."""
    return [frozenset(ci for ci, cl in enumerate(cliques) if i in cl) for i in range(r)]


def canonical_form(h):
    """Exact isomorphism certificate of a 4-uniform hypergraph: over every
    order of its hyperedges, the least sorted tuple of vertex membership
    codes.  Feasible for R <= 8; larger graphs raise ValueError."""
    r = len(h.edges)
    if r > 8:
        raise ValueError("canonical_form supports at most 8 hyperedges")
    verts = sorted(h.vertices, key=repr)
    masks = [tuple(1 if v in e else 0 for e in h.edges) for v in verts]
    best = None
    for perm in itertools.permutations(range(r)):
        key = tuple(sorted(
            (sum(m[j] << (r - 1 - i) for i, j in enumerate(perm)) for m in masks),
            reverse=True))
        if best is None or key < best:
            best = key
    return best


def are_isomorphic(a, b):
    if len(a.edges) != len(b.edges) or len(a.vertices) != len(b.vertices):
        return False
    return canonical_form(a) == canonical_form(b)


def canonical_hypergraph(hyperedges):
    """Canonical form under hyperedge relabeling: min sorted incidence."""
    r = len(hyperedges)
    verts = sorted({v for h in hyperedges for v in h})
    best = None
    for perm in itertools.permutations(range(r)):
        # vertex ci is the set of hyperedges through it, relabeled by perm.
        stars = {}
        for hi, h in enumerate(hyperedges):
            for v in h:
                stars.setdefault(v, set()).add(perm[hi])
        form = tuple(sorted(tuple(sorted(s)) for s in stars.values()))
        if best is None or form < best:
            best = form
    return best


def closed_hypergraph_classes(r):
    """Isomorphism classes of closed 4-uniform hypergraphs with r hyperedges."""
    seen = {}
    for part in clique_partitions(r):
        hg = partition_to_hypergraph(r, part)
        seen[canonical_hypergraph(hg)] = hg
    return list(seen.values())


# ---------------------------------------------------------------------------
# Random closed hypergraphs by growing one hyperedge at a time.
# ---------------------------------------------------------------------------
#
# The test-input generator for the moment identities: 200 draws at R in
# {5, 6, 8} take about a second, well inside test_5's budget.


def _candidate_anchors(edges, nverts):
    # Vertex sets meeting every existing hyperedge exactly once; the new
    # hyperedge is such a set plus fresh vertices.  Built by covering the
    # lowest unmet hyperedge at each step, so each set appears once.
    inc = [frozenset(i for i, e in enumerate(edges) if v in e)
           for v in range(nverts)]
    k = len(edges)
    out = []

    def rec(next_edge, chosen, covered):
        while next_edge < k and next_edge in covered:
            next_edge += 1
        if next_edge == k:
            out.append(set(chosen))
            return
        if len(chosen) == 4:
            return
        for v in range(nverts):
            if next_edge in inc[v] and not (inc[v] & covered):
                rec(next_edge + 1, chosen + [v], covered | inc[v])

    rec(0, [], frozenset())
    return out


def _grow(edges, nverts, r_target, rng, budget):
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    k = len(edges)
    degs = {}
    for e in edges:
        for v in e:
            degs[v] = degs.get(v, 0) + 1
    deficient = {v for v, d in degs.items() if d == 1}
    if k == r_target:
        return None if deficient else edges
    remaining = r_target - k
    # Each future hyperedge can lift at most one degree-1 vertex per
    # existing hyperedge, so any hyperedge with more stranded vertices
    # than remaining slots is a dead end.
    for e in edges:
        if sum(1 for v in e if v in deficient) > remaining:
            return None
    # Symmetry cuts at the first two extensions.  After one edge the state
    # is fully symmetric, so the second edge may anchor on vertex 0.  The
    # resulting two-edge state {0,1,2,3},{0,4,5,6} has automorphisms
    # permuting {1,2,3} and {4,5,6} and swapping the edges, so the anchor
    # orbits are represented by {0} and {1,4}.
    if k == 1:
        anchors = [{0}]
    elif k == 2 and edges[0] == frozenset({0, 1, 2, 3}) \
            and edges[1] == frozenset({0, 4, 5, 6}):
        anchors = [{0}, {1, 4}]
    else:
        anchors = _candidate_anchors(edges, nverts)
    rng.shuffle(anchors)
    for ts in anchors:
        fresh = 4 - len(ts)
        if nverts + fresh > 2 * r_target:
            continue
        new_edge = frozenset(ts | set(range(nverts, nverts + fresh)))
        found = _grow(edges + [new_edge], nverts + fresh, r_target, rng, budget)
        if found is not None:
            return found
    return None


def random_closed(rng, r_target):
    """Hyperedges of one closed hypergraph with r_target hyperedges, or None
    when 20000 growth steps find none."""
    return _grow([frozenset({0, 1, 2, 3})], 4, r_target, rng, [20000])
