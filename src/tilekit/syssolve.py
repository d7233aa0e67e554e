"""Solver for diagonal-matching point systems and the direction-cone tests.

A diagonal matching turns every hyperedge of a 5-10 or 6-11 configuration
into a parallelogram condition: the two diagonals share their midpoint.
This module builds the induced linear systems over exact rationals, solves
them, classifies why each case dies (point coincidence, even-lattice
parity, convex-position failure), and handles the residual family with a
battery of polyhedral direction tests plus a final prism argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from operator import mul
from typing import NamedTuple

from . import Violation, _lp, hypercomb
from ._lp import (
    IntSpan,
    Vec,
    is_zero,
    nullspace,
    primitive_ints,
    vadd,
    vec,
    vsub,
)
from .ratpoly import Polytope, cone_dual, from_vertices


class VerificationError(Violation):
    """A reproduction sub-check failed; the computation cannot be trusted."""


def _zeros(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(0) for _ in range(n))


def _unit(i: int, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


_E = [_unit(i, 4) for i in range(4)]


# ---------------------------------------------------------------------------
# Labeled points and systems.
# ---------------------------------------------------------------------------


def edge_label(e: tuple[int, int]) -> str:
    """Point label for a pair of hyperedges, e.g. (1, 2) -> "v12"."""
    return f"v{e[0]}{e[1]}"


# edge_label of each K5 edge in order, written out so that the direction
# tests, which use no matching, do not import hypercomb.
FIVE_TEN_LABELS = ("v12", "v13", "v14", "v15", "v23", "v24", "v25", "v34",
                   "v35", "v45")
SIX_ELEVEN_LABELS = ("s", "v11'", "v12'", "v13'", "v21'", "v22'", "v23'",
                     "v31'", "v32'", "v33'", "s'")


class Parallelogram(NamedTuple):
    """One hyperedge seen as a parallelogram: four corners, two diagonals."""

    name: str
    corners: tuple[str, str, str, str]
    diagonals: tuple[tuple[str, str], tuple[str, str]]

    def equation(self) -> dict[str, int]:
        """Midpoint condition as label coefficients summing to zero."""
        (a, b), (c, d) = self.diagonals
        coeffs: dict[str, int] = {}
        for lab, s in ((a, 1), (b, 1), (c, -1), (d, -1)):
            coeffs[lab] = coeffs.get(lab, 0) + s
        return coeffs


class LinearSystem(NamedTuple):
    """Point unknowns, one midpoint equation per hyperedge, and a gauge.

    The gauge pins the first two parallelograms to conv{0,e1,e2,e1+e2} and
    conv{0,e3,e4,e3+e4}: the shared corner goes to the origin, its diagonal
    partner to the corner sum, and the remaining corners follow label order.
    """

    kind: str
    labels: tuple[str, ...]
    parallelograms: tuple[Parallelogram, ...]
    gauge: tuple[tuple[str, Vec], ...]

    def gauge_map(self) -> dict[str, Vec]:
        return dict(self.gauge)

    def equations(self) -> list[dict[str, int]]:
        return [p.equation() for p in self.parallelograms]


def _gauge_square(m: hypercomb.VertexMatching, k: int, lo: Vec, hi: Vec,
                  both: Vec, gauge: dict[str, Vec]) -> None:
    # Pin the hyperedge at K5 vertex k: v12's partner -> lo+hi, the other
    # diagonal's corners -> lo, hi in increasing label order.
    d1, d2 = m.at(k)
    base = (1, 2)
    if base in d1:
        with_base, other = d1, d2
    elif base in d2:
        with_base, other = d2, d1
    else:  # pragma: no cover - matching invariants forbid this
        raise ValueError(f"hyperedge at {k} does not contain {base}")
    partner = with_base[0] if with_base[1] == base else with_base[1]
    gauge[edge_label(partner)] = both
    gauge[edge_label(other[0])] = lo
    gauge[edge_label(other[1])] = hi


def _five_ten_system(m: hypercomb.VertexMatching) -> LinearSystem:
    paras = []
    for k in hypercomb.K5_VERTICES:
        d1, d2 = m.at(k)
        corners = tuple(edge_label(e)
                        for e in sorted(e for e in hypercomb.K5_EDGES if k in e))
        paras.append(Parallelogram(
            f"P{k}", corners,
            ((edge_label(d1[0]), edge_label(d1[1])),
             (edge_label(d2[0]), edge_label(d2[1])))))
    gauge: dict[str, Vec] = {"v12": _zeros(4)}
    _gauge_square(m, 1, _E[0], _E[1], vadd(_E[0], _E[1]), gauge)
    _gauge_square(m, 2, _E[2], _E[3], vadd(_E[2], _E[3]), gauge)
    return LinearSystem("5-10", FIVE_TEN_LABELS, tuple(paras),
                        tuple((lab, gauge[lab]) for lab in FIVE_TEN_LABELS
                              if lab in gauge))


def _six_eleven_system(sp: hypercomb.SigmaPair) -> LinearSystem:
    sig, sig_p = sp.sigma, sp.sigma_prime
    paras = []
    for k in (1, 2, 3):
        corners = ("s",) + tuple(f"v{k}{j}'" for j in (1, 2, 3))
        partner = f"v{k}{sig[k - 1]}'"
        rest = tuple(f"v{k}{j}'" for j in (1, 2, 3) if j != sig[k - 1])
        paras.append(Parallelogram(f"P{k}", corners, (("s", partner), rest)))
    for j in (1, 2, 3):
        corners = ("s'",) + tuple(f"v{k}{j}'" for k in (1, 2, 3))
        partner = f"v{sig_p[j - 1]}{j}'"
        rest = tuple(f"v{k}{j}'" for k in (1, 2, 3) if k != sig_p[j - 1])
        paras.append(Parallelogram(f"P{j}'", corners, (("s'", partner), rest)))
    gauge: dict[str, Vec] = {"s": _zeros(4)}
    for k, lo, hi in ((1, _E[0], _E[1]), (2, _E[2], _E[3])):
        gauge[f"v{k}{sig[k - 1]}'"] = vadd(lo, hi)
        rest = [j for j in (1, 2, 3) if j != sig[k - 1]]
        gauge[f"v{k}{rest[0]}'"] = lo
        gauge[f"v{k}{rest[1]}'"] = hi
    return LinearSystem("6-11", SIX_ELEVEN_LABELS, tuple(paras),
                        tuple((lab, gauge[lab]) for lab in SIX_ELEVEN_LABELS
                              if lab in gauge))


def build_system(m: hypercomb.VertexMatching | hypercomb.SigmaPair) -> LinearSystem:
    """Linear system induced by a diagonal matching, with the gauge applied.

    Args:
        m: a VertexMatching (5-10 family) or a SigmaPair (6-11 family).

    Returns:
        LinearSystem with one midpoint equation per hyperedge and seven
        labels pinned by the coordinate gauge.
    """
    if isinstance(m, hypercomb.VertexMatching):
        return _five_ten_system(m)
    if isinstance(m, hypercomb.SigmaPair):
        return _six_eleven_system(m)
    raise TypeError(f"cannot build a system from {type(m).__name__}")


# ---------------------------------------------------------------------------
# Exact solving.
# ---------------------------------------------------------------------------


class SolutionFamily(NamedTuple):
    """All solutions of a system: particular values plus free directions.

    Each labeled point is a vector of length 4 + #params: the first four
    coordinates are the e1..e4 components, coordinate 4+k is the coefficient
    of the k-th free vector parameter.
    """

    system: LinearSystem
    params: tuple[str, ...]
    values: tuple[tuple[str, Vec], ...]

    @property
    def dim(self) -> int:
        return 4 + len(self.params)

    def as_map(self) -> dict[str, Vec]:
        return dict(self.values)

    def value(self, label: str) -> Vec:
        return self.as_map()[label]

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows = coordinates (base four, then one per parameter), columns =
        labeled points in display order."""
        vals = self.as_map()
        return tuple(tuple(vals[lab][r] for lab in self.system.labels)
                     for r in range(self.dim))


class NoSolution(NamedTuple):
    """Certificate that a system is inconsistent.

    multipliers combine the midpoint equations (in system order) into
    0 == residue with residue nonzero; verify_no_solution rechecks it.
    """

    system: LinearSystem
    multipliers: tuple[Fraction, ...]
    residue: Vec


def solve(ls: LinearSystem) -> SolutionFamily | NoSolution:
    """Row-reduce the system over the rationals.

    Free unknowns become free vector parameters, named in row-reduction
    order.  Inconsistency is reported as a NoSolution certificate, never an
    exception.
    """
    gm = ls.gauge_map()
    unknowns = [lab for lab in ls.labels if lab not in gm]
    eqs = ls.equations()
    n, m = len(eqs), len(unknowns)
    a = [[eq.get(u, 0) for u in unknowns] for eq in eqs]
    rhs = []
    for eq in eqs:
        acc = _zeros(4)
        for lab, c in eq.items():
            if lab in gm:
                acc = vadd(acc, vec(-c * x for x in gm[lab]))
        rhs.append(list(acc))
    elim = _lp.Elimination(m)
    for i in range(n):
        r = elim.add(a[i] + rhs[i] + [int(i == j) for j in range(n)])
        if not any(r[:m]) and any(r[m:m + 4]):
            # r is a positive multiple, r[m + 4 + i], of the Fraction row,
            # whose multiplier on its own equation is 1.
            r = [Fraction(x, r[m + 4 + i]) for x in r]
            return NoSolution(ls, tuple(r[m + 4:]), tuple(r[m:m + 4]))
    # Each kept row divided by its pivot entry is a row of the reduced form.
    pivots = {c: [Fraction(x, r[c]) for x in r[:m + 4]]
              for c, r in zip(elim.pivots, elim.rows)}
    free_cols = [j for j in range(m) if j not in pivots]
    p = len(free_cols)
    params = ("a",) if p == 1 else tuple(f"a{k + 1}" for k in range(p))
    vals: dict[str, Vec] = {lab: tuple(g) + _zeros(p) for lab, g in gm.items()}
    for j, u in enumerate(unknowns):
        if j in pivots:
            r = pivots[j]
            vals[u] = tuple(r[m:]) + tuple(-r[fc] for fc in free_cols)
        else:
            vals[u] = _zeros(4) + _unit(free_cols.index(j), p)
    sf = SolutionFamily(ls, params, tuple((lab, vals[lab]) for lab in ls.labels))
    for eq in eqs:
        acc = _zeros(4 + p)
        for lab, c in eq.items():
            acc = vadd(acc, vec(c * x for x in vals[lab]))
        if not is_zero(acc):  # pragma: no cover - guards solver bugs
            raise VerificationError("solution does not satisfy the system")
    return sf


def verify_no_solution(ns: NoSolution) -> bool:
    """Recheck an inconsistency certificate from the raw equations."""
    gm = ns.system.gauge_map()
    total: dict[str, Fraction] = {}
    for lam, eq in zip(ns.multipliers, ns.system.equations(), strict=True):
        for lab, c in eq.items():
            total[lab] = total.get(lab, Fraction(0)) + lam * c
    for lab, c in total.items():
        if lab not in gm and c != 0:
            return False
    combo = _zeros(4)
    for lab, c in total.items():
        if lab in gm:
            combo = vadd(combo, vec(-c * x for x in gm[lab]))
    return combo == tuple(ns.residue) and not is_zero(ns.residue)


# ---------------------------------------------------------------------------
# Contradiction patterns.
# ---------------------------------------------------------------------------


class ContradictionReport(NamedTuple):
    """Why a solution family cannot come from an actual dual cell."""

    kind: str
    certificate: tuple
    description: str


def _parity_generators(sf: SolutionFamily) -> tuple[list[str], list[Vec]]:
    names = list(sf.system.labels) + list(sf.params)
    gens = [sf.value(lab) for lab in sf.system.labels]
    for k in range(len(sf.params)):
        gens.append(_zeros(4) + _unit(k, len(sf.params)))
    return names, gens


def parity_certificate(sf: SolutionFamily, a: str, b: str
                       ) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
    """Integer combination showing value(a) - value(b) in twice the point
    lattice, or None.

    The lattice is generated by all labeled points and all free directions.
    """
    names, gens = _parity_generators(sf)
    half = vec(x / 2 for x in vsub(sf.value(a), sf.value(b)))
    coeffs = IntSpan(gens).coefficients(half)
    if coeffs is None:
        return None
    return tuple(coeffs), tuple(names)


def verify_parity_certificate(sf: SolutionFamily, a: str, b: str,
                              coeffs: tuple[int, ...]) -> bool:
    """Recheck that the combination doubles to value(a) - value(b)."""
    _, gens = _parity_generators(sf)
    acc = _zeros(sf.dim)
    for c, g in zip(coeffs, gens, strict=True):
        acc = vadd(acc, vec(2 * c * x for x in g))
    return acc == vsub(sf.value(a), sf.value(b))


def convex_witness(sf: SolutionFamily, label: str
                   ) -> tuple[tuple[str, Fraction], ...] | None:
    """Convex combination of the other labeled points equal to this one.

    Returns (label, weight) pairs with nonzero weight, or None when the
    point is outside the hull of the others.
    """
    others = [(lab, v) for lab, v in sf.values if lab != label]
    target = sf.value(label)
    k = len(others)
    a_ub = [[Fraction(-1 if j == i else 0) for j in range(k)] for i in range(k)]
    b_ub = [Fraction(0)] * k
    a_eq = [[others[j][1][r] for j in range(k)] for r in range(sf.dim)]
    b_eq = [target[r] for r in range(sf.dim)]
    a_eq.append([Fraction(1)] * k)
    b_eq.append(Fraction(1))
    res = _lp.maximize([Fraction(0)] * k, a_ub, b_ub, a_eq, b_eq)
    if res.status != "optimal":
        return None
    lams = res.x
    acc = _zeros(sf.dim)
    for (lab, v), lam in zip(others, lams, strict=True):
        acc = vadd(acc, vec(lam * x for x in v))
    if acc != target or sum(lams) != 1 or any(w < 0 for w in lams):
        raise VerificationError("convex combination does not recheck")
    return tuple((lab, lam) for (lab, _), lam in zip(others, lams) if lam != 0)


def detect_contradiction(sf: SolutionFamily) -> ContradictionReport:
    """Classify a solution family, checking patterns in a fixed order.

    Order: (a) two labeled points coincide; (b) a difference of labeled
    points falls in twice the point lattice; (c) a labeled point lies in
    the convex hull of the others; (d) residual.
    """
    labels = sf.system.labels
    vals = sf.as_map()
    for j in range(len(labels)):
        for i in range(j):
            if vals[labels[j]] == vals[labels[i]]:
                return ContradictionReport(
                    "coincidence",
                    (labels[j], labels[i], vals[labels[j]]),
                    f"{labels[j]} = {labels[i]}")
    # One reduction of the point lattice serves every pair.
    names, gens = _parity_generators(sf)
    span = IntSpan(gens)
    for j in range(len(labels)):
        for i in range(j):
            half = vec(x / 2 for x in vsub(vals[labels[j]], vals[labels[i]]))
            coeffs = span.coefficients(half)
            if coeffs is not None:
                return ContradictionReport(
                    "parity",
                    (labels[j], labels[i], tuple(coeffs), tuple(names)),
                    f"{labels[j]} - {labels[i]} is twice a lattice point")
    for lab in labels:
        wit = convex_witness(sf, lab)
        if wit is not None:
            return ContradictionReport(
                "nonconvex", (lab, wit),
                f"{lab} lies in the convex hull of the other points")
    return ContradictionReport("residual", (sf.params,),
                               "no immediate obstruction; needs the "
                               "direction tests")


def resolve_octahedron_case(sf: SolutionFamily) -> ContradictionReport | None:
    """Search a 5-10 solution for a centrally symmetric six-point subset
    whose antipodal pairs include a parallelogram diagonal.

    Such a subset spans a three-dimensional cross-polytope whose main
    diagonals must be diagonals of no parallelogram; a hit kills the case.

    The points must be distinct, as they are in every family that
    detect_contradiction leaves residual.  Then a centrally symmetric
    six-point set is exactly three pairs of points with one common sum (its
    center doubled), and two pairs with one sum share no point.  So the
    candidates come from the 45 pair sums; they are tried in the order of
    their label indices, as combinations lists six-point subsets, and the
    first hit is reported.

    Returns:
        A "coincidence-with-diagonal" report, or None.
    """
    if sf.system.kind != "5-10":
        raise ValueError("the six-point search applies to 5-10 systems")
    all_labels = sf.system.labels
    vals = sf.as_map()
    pts = [vals[lab] for lab in all_labels]
    if len(set(pts)) != len(pts):
        raise ValueError("the six-point search needs distinct points")
    by_sum: dict[Vec, list[tuple[int, int]]] = {}
    for i, j in combinations(range(len(pts)), 2):
        by_sum.setdefault(vadd(pts[i], pts[j]), []).append((i, j))
    # Each pair list is in combinations order, so each triple of pairs is
    # sorted by its first indices, the order the antipodal pairs are named.
    candidates = sorted((tuple(sorted(a + b + c)), center2, (a, b, c))
                        for center2, prs in by_sum.items()
                        for a, b, c in combinations(prs, 3))
    diag_sets = {frozenset(d): p.name
                 for p in sf.system.parallelograms for d in p.diagonals}
    for idx, center2, pairs in candidates:
        center = vec(x / 2 for x in center2)
        rows = [vsub(pts[i], center) for i in idx]
        if _lp.rank(rows) != 3:
            continue
        hits = []
        for i, j in pairs:
            key = frozenset((all_labels[i], all_labels[j]))
            if key in diag_sets:
                hits.append((diag_sets[key], (all_labels[i], all_labels[j])))
        if hits:
            six = tuple(all_labels[i] for i in idx)
            return ContradictionReport(
                "coincidence-with-diagonal",
                (six, center,
                 tuple(tuple(all_labels[k] for k in pr) for pr in pairs),
                 tuple(hits)),
                "a centrally symmetric six-point set has a parallelogram "
                "diagonal among its main diagonals")
    return None


# ---------------------------------------------------------------------------
# The full case tables.
# ---------------------------------------------------------------------------


DOCUMENTED_5_10: dict[int, tuple] = {
    1: ("no_solution",),
    2: ("residual", "direction-cones"),
    3: ("no_solution",),
    4: ("coincidence", "v34", "v15"),
    5: ("no_solution",),
    6: ("coincidence", "v34", "v12"),
    7: ("residual", "octahedron"),
    8: ("coincidence", "v45", "v12"),
}

DOCUMENTED_6_11: dict[int, tuple] = {
    1: ("coincidence", "s'", "s"),
    2: ("parity", "s'", "s"),
    3: ("parity", "s'", "s"),
    4: ("parity", "s'", "s"),
    5: ("parity", "s'", "s"),
    6: ("parity", "s'", "s"),
    7: ("parity", "s'", "s"),
    8: ("reduces", 6),
    9: ("parity", "s'", "s"),
    10: ("parity", "s'", "s"),
    11: ("reduces", 7),
    12: ("reduces", 10),
    13: ("parity", "s'", "s"),
    14: ("parity", "s'", "s"),
    15: ("parity", "s'", "s"),
    16: ("parity", "s'", "s"),
    17: ("parity", "s'", "s"),
    18: ("nonconvex", "v33'"),
}

# The classification the documented table leaves out (both maps bijective,
# composite a 3-cycle) dies the same way as its neighbors.
DOCUMENTED_EXTRA_6_11: tuple = ("parity", "s'", "s")


class CaseRow(NamedTuple):
    """One worked case: its system outcome and the documented verdict."""

    family: str
    case: int | None
    documented: tuple
    verified: bool
    solution: SolutionFamily | None
    failure: NoSolution | None
    detected: ContradictionReport | None
    resolution: ContradictionReport | None
    reduces_to: int | None


class CaseTable(NamedTuple):
    five_ten: tuple[CaseRow, ...]
    six_eleven: tuple[CaseRow, ...]

    @property
    def rows(self) -> tuple[CaseRow, ...]:
        return self.five_ten + self.six_eleven

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.rows)


def _verify_documented(doc: tuple, solution, failure, detected, resolution) -> bool:
    tag = doc[0]
    if tag == "no_solution":
        return failure is not None and verify_no_solution(failure)
    if tag == "coincidence":
        _, a, b = doc
        return solution is not None and solution.value(a) == solution.value(b)
    if tag == "parity":
        _, a, b = doc
        if solution is None:
            return False
        if detected.kind == "parity" and detected.certificate[:2] == (a, b):
            # detect_contradiction already reduced the lattice for this pair.
            coeffs = detected.certificate[2]
        else:
            cert = parity_certificate(solution, a, b)
            if cert is None:
                return False
            coeffs = cert[0]
        return verify_parity_certificate(solution, a, b, coeffs)
    if tag == "nonconvex":
        return solution is not None and convex_witness(solution, doc[1]) is not None
    if tag == "residual":
        if detected is None or detected.kind != "residual":
            return False
        if doc[1] == "octahedron":
            return (resolution is not None
                    and resolution.kind == "coincidence-with-diagonal")
        return len(solution.params) == 1
    raise ValueError(f"unknown documented tag {tag!r}")


def _run_case(family: str, case: int | None, doc: tuple,
              m: hypercomb.VertexMatching | hypercomb.SigmaPair) -> CaseRow:
    ls = build_system(m)
    out = solve(ls)
    if isinstance(out, NoSolution):
        detected = ContradictionReport(
            "no_solution", (out.multipliers, out.residue),
            "the midpoint equations are inconsistent")
        return CaseRow(family, case, doc,
                       _verify_documented(doc, None, out, detected, None),
                       None, out, detected, None, None)
    detected = detect_contradiction(out)
    resolution = None
    if family == "5-10" and detected.kind == "residual":
        resolution = resolve_octahedron_case(out)
    return CaseRow(family, case, doc,
                   _verify_documented(doc, out, None, detected, resolution),
                   out, None, detected, resolution, None)


def five_ten_case(case: int) -> CaseRow:
    """Work one documented 5-10 case (keyed as in SCHEME_CASES)."""
    scheme = hypercomb.PloughingScheme(hypercomb.SCHEME_CASES[case])
    return _run_case("5-10", case, DOCUMENTED_5_10[case],
                     hypercomb.scheme_to_matching(scheme))


def six_eleven_case(position: int) -> CaseRow:
    """Work one 6-11 row, by position in the matching enumeration.

    Matchings tagged as star-swaps of earlier rows are marked, not
    re-solved.
    """
    sp = hypercomb.enumerate_6_11_matchings()[position]
    if sp.reduces_to is not None:
        ok = (hypercomb.swap_sigma(sp)
              == hypercomb.DOCUMENTED_SIGMA_ITEMS[sp.reduces_to])
        return CaseRow("6-11", sp.item, DOCUMENTED_6_11[sp.item], ok,
                       None, None, None, None, sp.reduces_to)
    doc = DOCUMENTED_6_11[sp.item] if sp.item is not None else DOCUMENTED_EXTRA_6_11
    return _run_case("6-11", sp.item, doc, sp)


def run_all_cases() -> CaseTable:
    """Work every documented case of both families.

    Returns:
        CaseTable whose rows carry the solved family (or inconsistency
        certificate), the mechanically detected contradiction, the
        documented verdict, and whether that verdict rechecks.
    """
    five = [five_ten_case(case) for case in sorted(hypercomb.SCHEME_CASES)]
    six = [six_eleven_case(k)
           for k in range(len(hypercomb.enumerate_6_11_matchings()))]
    return CaseTable(tuple(five), tuple(six))


# ---------------------------------------------------------------------------
# Direction tests for the residual family.
# ---------------------------------------------------------------------------


def _u5(i: int) -> Vec:
    return _unit((i - 1) % 5, 5)


Q_VERTEX_ORDER: tuple[Vec, ...] = tuple(
    [_u5(i) for i in range(1, 6)]
    + [vadd(_u5(i), _u5(i + 1)) for i in range(1, 6)])

SURVIVOR_DIRECTION: Vec = vec((-1, -1, -1, 1, 1))


@cache
def lifted_configuration() -> tuple[Polytope, tuple[tuple[Vec, ...], ...],
                                    tuple[tuple[Vec, Vec], ...]]:
    """The symmetric ten-vertex lift: hull Q, the five parallelogram vertex
    quadruples inside it, and their direction-plane bases."""
    q = from_vertices(Q_VERTEX_ORDER)
    paras = tuple(
        (_u5(i + 4), _u5(i + 1), vadd(_u5(i + 4), _u5(i)), vadd(_u5(i), _u5(i + 1)))
        for i in range(1, 6))
    planes = tuple((_u5(i), vsub(_u5(i + 1), _u5(i + 4))) for i in range(1, 6))
    return q, paras, planes


def excluded_direction_cone(i: int, v: Vec) -> tuple[Vec, ...]:
    """Facet normals of the tangent cone of Q at v widened by parallelogram
    i's direction plane; directions with every normal strictly negative (or
    every one strictly positive) are forbidden.

    The tangent cone of Q at its vertex v is cone(Q - v) (Ziegler,
    Lectures on Polytopes), so the widened cone comes from one double
    description pass over w - v for every other vertex w of Q plus +/-
    each basis vector of the plane.

    Args:
        i: parallelogram index, 1..5.
        v: a vertex of Q outside that parallelogram.

    Raises:
        ValueError: v is not a vertex of Q, or is one of parallelogram i's.
        VerificationError: the widened cone is not full-dimensional.
    """
    q, paras, planes = lifted_configuration()
    v = vec(v)
    if v not in q.vertices:
        raise ValueError(f"{v} is not a vertex of the lifted hull")
    if v in paras[i - 1]:
        raise ValueError("vertex belongs to the parallelogram under test")
    gens = [vsub(w, v) for w in q.vertices if w != v]
    for b in planes[i - 1]:
        gens += [b, tuple(-x for x in b)]
    normals, eqs = cone_dual(gens, len(v))
    if eqs:
        raise VerificationError("direction cone is not full-dimensional")
    return tuple(sorted(tuple(-x for x in n) for n in normals))


class _Cell(NamedTuple):
    """The directions x with eqs.x == 0 and neg.x < 0.

    Rows are primitive integer tuples, sorted, equations lex-positive;
    witness is a primitive integer point of the cell.
    """

    eqs: tuple[tuple[int, ...], ...]
    neg: tuple[tuple[int, ...], ...]
    witness: tuple[int, ...]


def _lex_positive(a: tuple[int, ...]) -> tuple[int, ...]:
    # Flip the sign so that the first nonzero coordinate is positive.
    return tuple(-x for x in a) if next((x for x in a if x), 0) < 0 else a


def _make_cell(eqs, neg, extra_eqs=(), extra_neg=()
               ) -> tuple[tuple[tuple[int, ...], ...],
                          tuple[tuple[int, ...], ...]] | None:
    """Rows of a cell refined by extra rows, or None when empty.

    eqs and neg are a cell's own rows, as _Cell holds them and consistent;
    only the extra rows, integer or rational, are scaled to primitive
    integers (equations also to lex-positive) and checked against the rest.
    """
    new_eqs = {_lex_positive(primitive_ints(n)) for n in extra_eqs} - set(eqs)
    new_neg = {primitive_ints(n) for n in extra_neg} - set(neg)
    if any(not any(n) for n in new_neg):
        return None
    new_eqs = {n for n in new_eqs if any(n)}
    eset = set(eqs) | new_eqs
    nset = set(neg) | new_neg
    for n in new_neg:
        flip = tuple(-x for x in n)
        if flip in nset or n in eset or flip in eset:
            return None
    for n in new_eqs:
        if n in nset or tuple(-x for x in n) in nset:
            return None
    return tuple(sorted(eset)), tuple(sorted(nset))


def _refine(cell: _Cell, extra_eqs=(), extra_neg=()) -> _Cell | None:
    made = _make_cell(cell.eqs, cell.neg, extra_eqs, extra_neg)
    if made is None:
        return None
    eqs, neg = made
    # A witness of the cell that meets the extra rows strictly is a witness
    # of the refined cell, and no LP is needed: no split and no ray
    # orientation depends on which interior point a cell holds.
    w = cell.witness
    if (all(sum(map(mul, n, w)) == 0 for n in extra_eqs)
            and all(sum(map(mul, n, w)) < 0 for n in extra_neg)):
        return _Cell(eqs, neg, w)
    # neg is never empty: the first refinement of the pipeline splits the
    # whole space along an axis, and every later cell keeps those rows.
    wit = _lp.strictly_feasible([tuple(-x for x in n) for n in neg],
                                list(eqs), dim=5)
    if wit is None:
        return None
    return _Cell(eqs, neg, primitive_ints(wit))


def _exclude_open(cells: list[_Cell], normals: tuple[tuple[int, ...], ...]
                  ) -> list[_Cell]:
    # Remove {x : n.x < 0 for every n} from each cell, splitting along the
    # first failed inequality so the pieces stay disjoint.  The normals are
    # primitive integer rows.
    out: list[_Cell] = []
    for cell in cells:
        # The open cone misses the cell: its rows clash with the cell's (the
        # cell lies on a normal's plane or past it), or no point meets both.
        if _refine(cell, extra_neg=normals) is None:
            out.append(cell)
            continue
        prefix: list[tuple[int, ...]] = []
        for n in normals:
            hit_eq = _refine(cell, extra_eqs=(n,), extra_neg=tuple(prefix))
            if hit_eq is not None:
                out.append(hit_eq)
            hit_gt = _refine(cell, extra_neg=tuple(prefix) + (tuple(-x for x in n),))
            if hit_gt is not None:
                out.append(hit_gt)
            prefix.append(n)
    return out


def _direction_passes(x: tuple[int, ...], pairs) -> bool:
    # x and the normals are integer rows.
    if any(c == 0 for c in x):
        return False
    for _i, _v, normals in pairs:
        if all(sum(map(mul, n, x)) < 0 for n in normals):
            return False
        if all(sum(map(mul, n, x)) > 0 for n in normals):
            return False
    return True


def _shift(x: tuple) -> tuple:
    """The cyclic index shift sigma(x) = (x5, x1, x2, x3, x4)."""
    return x[-1:] + x[:-1]


def _orbit(x: tuple) -> list[tuple]:
    """The ten images of x under the group that negation and sigma
    generate."""
    out = []
    for _ in range(5):
        x = _shift(x)
        out += [x, tuple(-c for c in x)]
    return out


def _check_shift_symmetry() -> None:
    """sigma permutes Q's vertices and maps each parallelogram quadruple
    and each direction plane to the next one.

    sigma is a permutation matrix, so it then maps Q onto itself, the
    tangent cone at v onto the one at sigma(v), and each excluded cone of
    (i, v), normals included, onto the one of (i + 1, sigma(v)).

    Raises:
        VerificationError: any of the three maps fails.
    """
    q, paras, planes = lifted_configuration()
    if {_shift(v) for v in q.vertices} != set(q.vertices):
        raise VerificationError("the cyclic shift does not permute the hull "
                                "vertices")
    for i in range(5):
        j = (i + 1) % 5
        if {_shift(v) for v in paras[i]} != set(paras[j]):
            raise VerificationError("the cyclic shift does not map "
                                    f"parallelogram {i + 1} to {j + 1}")
        # The reduced row echelon form of a basis determines its span.
        if _lp.rref([_shift(b) for b in planes[i]])[0] != _lp.rref(planes[j])[0]:
            raise VerificationError("the cyclic shift does not map direction "
                                    f"plane {i + 1} to {j + 1}")


def _excluded_pairs() -> list[tuple[int, Vec, tuple[Vec, ...]]]:
    """(i, v, excluded_direction_cone(i, v)) for every parallelogram i and
    hull vertex v outside it: the cones of parallelogram 1 are built, and
    sigma^k, once _check_shift_symmetry has passed, maps them to those of
    parallelogram k + 1."""
    _check_shift_symmetry()
    _q, paras, _planes = lifted_configuration()
    orbit = [(v, excluded_direction_cone(1, v))
             for v in Q_VERTEX_ORDER if v not in paras[0]]
    pairs = []
    for i in range(1, 6):
        pairs += [(i, v, normals) for v, normals in orbit]
        orbit = [(_shift(v), tuple(sorted(map(_shift, normals))))
                 for v, normals in orbit]
    return pairs


def cone_test_pipeline() -> tuple[Vec, ...]:
    """Every direction that survives all the cone tests, as primitive rays.

    Excludes, for each parallelogram of the lifted configuration and each
    hull vertex outside it, both open cones of forbidden directions, plus
    directions with any vanishing coordinate.

    The work is done up to the order-10 group that negation and the cyclic
    index shift sigma generate.  _check_shift_symmetry shows that sigma
    maps the excluded cones onto one another, and each pair of open cones
    is closed under negation, so the survivors are closed under the group.
    Only the cones of parallelogram 1 are built (the others are their
    images), and the cells start from one open orthant per orbit of the
    32, with its sign vector as the witness.  The survivors found there,
    with their images, are all of them.  The returned rays are checked one
    by one against the raw tests of all 30 pairs and for closure under
    sigma.
    """
    # Primitive integer normals: a positive scale keeps every sign.
    pairs = [(i, v, tuple(primitive_ints(n) for n in normals))
             for i, v, normals in _excluded_pairs()]
    # The open orthant of sign vector s is {x : -s_k x_k < 0 for every k}.
    signs = {max(_orbit(s)) for s in product((1, -1), repeat=5)}
    cells = [_Cell((), tuple(sorted(tuple(-s[k] * (j == k) for j in range(5))
                                    for k in range(5))), s)
             for s in sorted(signs)]
    ordered = sorted(pairs, key=lambda t: (sum(1 for c in t[1] if c != 0), t[0], t[1]))
    for _i, _v, normals in ordered:
        cells = _exclude_open(cells, normals)
        cells = _exclude_open(cells, tuple(tuple(-x for x in n) for n in normals))

    rays = set()
    for cell in cells:
        ns = nullspace(cell.eqs, 5)
        if len(ns) != 1:
            raise VerificationError("a surviving region is not a single ray")
        d = primitive_ints(ns[0])
        j = next(k for k in range(5) if d[k] != 0)
        ray = d if cell.witness[j] * d[j] > 0 else tuple(-x for x in d)
        rays.update(_orbit(ray))
    for ray in rays:
        if not _direction_passes(ray, pairs):
            raise VerificationError("a reported survivor fails a raw test")
        if _shift(ray) not in rays:
            raise VerificationError("survivors are not closed under the "
                                    "cyclic index shift")
    return tuple(sorted(map(vec, rays)))


def survivor_orbit() -> tuple[Vec, ...]:
    """The cyclic-shift and sign orbit of the documented surviving direction."""
    return tuple(sorted(set(_orbit(SURVIVOR_DIRECTION))))


# ---------------------------------------------------------------------------
# Final case: the surviving direction dies on a prism.
# ---------------------------------------------------------------------------


def _project_off(w: Vec, x: Vec) -> Vec:
    # Collapse the lift along x back to the base: w - w5 * x, then drop the
    # (now zero) last coordinate.
    img = vsub(w, vec(w[4] * c for c in x))
    if img[4] != 0:  # pragma: no cover - x5 == 1 for the survivor
        raise VerificationError("projection does not kill the last coordinate")
    return img[:4]


def final_case_check() -> ContradictionReport:
    """Rule out the surviving direction by a vertex count.

    Projects the lifted ten-point configuration along the direction,
    verifies the documented image vertices, the segment shared with a
    translate, and the forced extra vertex, and recognizes a triangular
    prism among six of the points — which caps the cell at 8 vertices
    against the 10 the parallelograms supply.

    Raises:
        VerificationError: any sub-check fails.
    """
    x = SURVIVOR_DIRECTION
    images = [_project_off(w, x) for w in Q_VERTEX_ORDER]
    expected = [vec(t) for t in (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, -1),
        (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 0), (2, 1, 1, -1))]
    if images != expected:
        raise VerificationError("projected vertices differ from the "
                                "documented images")
    pq = from_vertices(images)
    if set(pq.vertices) != set(images):
        raise VerificationError("some projected point is not a hull vertex")

    # The image of u4+u5-u1-u2 translates the hull onto itself along the
    # shared segment.
    t_img = vsub(images[8], vadd(images[0], images[1]))
    if t_img != vec((0, 0, 1, 0)):
        raise VerificationError("unexpected translate direction")
    seg = (vec((1, 1, 1, 0)), vec((1, Fraction(1, 2), 1, 0)))
    for pt in seg:
        if not pq.contains(pt) or not pq.contains(vsub(pt, t_img)):
            raise VerificationError("shared segment escapes the hull or its "
                                    "translate")

    forced = vsub(images[8], images[1])
    if forced != vec((1, 0, 1, 0)) or forced != vadd(images[0], t_img):
        raise VerificationError("forced vertex is not the documented point")

    prism_pts = [images[0], images[2], images[5], images[6], images[8], forced]
    prism = from_vertices(prism_pts)
    if len(prism.vertices) != 6 or prism.dim != 3 or len(prism.facets) != 5:
        raise VerificationError("six points do not span a triangular prism")
    sizes = sorted(len(inc) for inc in prism.incidence)
    if sizes != [3, 3, 4, 4, 4]:
        raise VerificationError("six points do not span a triangular prism")

    return ContradictionReport(
        "vertex-count",
        (8, 10, forced, tuple(prism_pts), tuple(images)),
        "a triangular prism caps the cell at 8 vertices, but the five "
        "parallelograms supply 10")
