"""Canonical scalings of facet stars and their propagation.

A scaling assigns a positive factor to every facet orbit of a tiling
complex.  Around each codimension-2 face the scaled facet normals must
admit signs making their sum vanish; three-facet ("hexagonal") stars force
the factors up to one common multiplier, four-facet ("quadruple") stars
only tie parallel facets together.  These local conditions generate ratio
constraints whose consistent global solutions are found by propagation
along a spanning tree with exact closure checks on every remaining edge.
Coherence compares the scalings of the two pyramid dual 3-cells flanking
a parallelogram dual 2-cell.  The scan that finds each parallelogram
reads the orbits of its two flanks off the face bitmasks of one tile, and
the coherence test takes those orbits.

Each codimension-2 star is solved once per command: star_table solves
the stars a command needs, and the gains, the joint scaling of a
codimension-3 star and the coherence test all read that table.

Faces are named by their orbit index throughout: every star, dual cell
and scaling here is invariant under lattice translation.

All normals are rational: the frame fixes one primitive integer normal per
facet orbit and the scale factors absorb vector lengths, so every equation
in this module is an exact kernel condition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import Violation, tiling
from ._lp import Vec, frac, nullspace, primitive, vsub
from .tiling import TilingComplex


class NoPositiveSolution(Violation):
    """A facet star admits no positive scaling; the input cannot tile."""


class HypothesisViolated(Violation):
    """The two dual 3-cells flanking the parallelogram are not pyramids."""


# ---------------------------------------------------------------------------
# Normal frames.
# ---------------------------------------------------------------------------


class NormalFrame(NamedTuple):
    """One primitive integer normal per facet orbit, with a fixed sign."""

    normals: dict[int, Vec]


def build_frame(c: TilingComplex) -> NormalFrame:
    """Fix a canonical normal representative for every facet orbit: the
    normal of the base tile's facet that is the orbit's representative,
    the member with zero shift."""
    p = c.tile
    normal_of = {sum(1 << i for i in inc): n
                 for inc, (n, _) in zip(p.incidence, p.facets)}
    return NormalFrame(normals={
        q: normal_of[mask] for mask, q, lam in c.faces
        if c.orbits[q].dim == c.dim - 1 and not any(lam)})


# ---------------------------------------------------------------------------
# Scaling families.
# ---------------------------------------------------------------------------


class StarScaling(NamedTuple):
    """A family of positive scalings of the facet orbits of one star.

    ``factors`` is a representative member; ``dof`` counts the independent
    positive parameters of the family, and ``unique`` says whether the
    family is a single ray (``dof == 1``).
    """

    kind: str
    factors: dict[int, Fraction]
    dof: int
    unique: bool


def _facet_orbits(c: TilingComplex, st: tuple[int, ...]) -> list[int]:
    """The facet orbits of a star, one entry per facet."""
    return [p for p in st if c.orbits[p].dim == c.dim - 1]


def _normalize_ray(factors: dict[int, Fraction]) -> dict[int, Fraction]:
    vals = primitive(tuple(factors[k] for k in sorted(factors)))
    return dict(zip(sorted(factors), vals))


def star_scaling_d2(c: TilingComplex, q: int,
                    frame: NormalFrame) -> StarScaling:
    """Scaling family of the facets around a codimension-2 orbit's face.

    A three-facet star pins the three factors to the kernel ray of the
    stacked normals (signs are free, magnitudes are not); a four-facet
    star leaves one factor per parallel pair free.

    Raises:
        NoPositiveSolution: the kernel of a three-facet star is degenerate,
            which cannot happen for a genuine face-to-face tiling.
    """
    ft = tiling.classify_d2(c, q)
    orbs = sorted(set(_facet_orbits(c, tiling.star(c, q))))
    if ft.tag == "A":
        if len(orbs) != 3:
            raise NoPositiveSolution(
                "three-tile star must touch three facet orbits")
        cols = [frame.normals[o] for o in orbs]
        rows = [tuple(col[j] for col in cols) for j in range(c.dim)]
        kernel = nullspace(rows, ncols=3)
        if len(kernel) != 1 or any(x == 0 for x in kernel[0]):
            raise NoPositiveSolution(
                "facet normals around a three-tile face admit no scaling "
                "with all factors nonzero")
        coeffs = kernel[0]
        return StarScaling(
            kind="unique_ray",
            factors=_normalize_ray({o: abs(x) for o, x in zip(orbs, coeffs)}),
            dof=1,
            unique=True,
        )
    if len(orbs) != 2:
        raise NoPositiveSolution("four-tile star must touch two facet orbits")
    return StarScaling(kind="two_parameter",
                       factors={o: Fraction(1) for o in orbs},
                       dof=2, unique=False)


class _RatioForest:
    """Union-find over facet orbits carrying exact multiplier constraints.

    ``value[o] = mult[o] * value[root]`` for every orbit in a component;
    linking two orbits with a required ratio either merges components or
    checks the ratio exactly.
    """

    def __init__(self, nodes):
        self.parent = {n: n for n in nodes}
        self.mult = dict.fromkeys(self.parent, Fraction(1))

    def find(self, n):
        if self.parent[n] == n:
            return n, Fraction(1)
        root, m = self.find(self.parent[n])
        self.parent[n] = root
        self.mult[n] *= m
        return root, self.mult[n]

    def link(self, a, b, ratio) -> bool:
        """Require value[a] = ratio * value[b]; False on exact conflict."""
        ra, ma = self.find(a)
        rb, mb = self.find(b)
        if ra == rb:
            return ma == ratio * mb
        self.parent[ra] = rb
        self.mult[ra] = ratio * mb / ma
        return True

    def components(self):
        groups: dict[int, list] = {}
        for n in self.parent:
            root, _ = self.find(n)
            groups.setdefault(root, []).append(n)
        return groups


def star_table(c: TilingComplex, frame: NormalFrame,
               faces) -> dict[int, StarScaling]:
    """The scaling family of each codimension-2 orbit in the stars of the
    orbits ``faces``, keyed by orbit: one solve per orbit."""
    ridges = {p for q in faces for p in tiling.star(c, q)
              if c.orbits[p].dim == c.dim - 2}
    return {r: star_scaling_d2(c, r, frame) for r in sorted(ridges)}


def star_scaling_d3(c: TilingComplex, q: int,
                    table: dict[int, StarScaling]) -> StarScaling:
    """Joint scaling family of all facets around a codimension-3 orbit's
    face.

    Links the unique rays that ``table``, a star_table over ``q``, holds
    for the codimension-2 orbits of the star, so it solves every
    three-facet condition inside the star simultaneously.  The family is a
    single ray exactly when the dual 3-cell is an octahedron, a pyramid
    over a parallelogram, or a simplex.

    Raises:
        ValueError: the orbit's faces do not have dimension d-3.
        NoPositiveSolution: the ratio constraints conflict.
    """
    if c.orbits[q].dim != c.dim - 3:
        raise ValueError("joint star scaling needs a face of dimension d-3")
    st = tiling.star(c, q)
    forest = _RatioForest(sorted(set(_facet_orbits(c, st))))
    ridges = sorted({p for p in st if c.orbits[p].dim == c.dim - 2})
    for sub in (table[r] for r in ridges if table[r].unique):
        pairs = sorted(sub.factors)
        for o in pairs[1:]:
            if not forest.link(o, pairs[0],
                               sub.factors[o] / sub.factors[pairs[0]]):
                raise NoPositiveSolution(
                    "ratio constraints of the codimension-2 stars conflict")
    factors = {o: forest.find(o)[1] for o in forest.parent}
    dof = len(forest.components())
    if dof == 1:
        factors = _normalize_ray(factors)
    return StarScaling(kind="unique_ray" if dof == 1 else "family",
                       factors=factors, dof=dof, unique=dof == 1)


# ---------------------------------------------------------------------------
# Gain functions and propagation.
# ---------------------------------------------------------------------------


GainFunction = dict[tuple[int, int], Fraction]


class _ScalingAssignmentFields(NamedTuple):
    factors: dict[int, Fraction]


class ScalingAssignment(_ScalingAssignmentFields):
    """A positive scale factor for every facet orbit."""

    __slots__ = ()

    def __new__(cls, factors: dict[int, Fraction]):
        if any(v <= 0 for v in factors.values()):
            raise ValueError("scale factors must be positive")
        return super().__new__(cls, factors)


class InconsistencyWitness(NamedTuple):
    """A closed orbit circuit whose gain product is not one."""

    circuit: tuple[int, ...]
    gain_product: Fraction


def adjacent_facet_pairs(c: TilingComplex) -> set[tuple[int, int]]:
    """Unordered facet-orbit pairs sharing some codimension-2 face."""
    pairs: set[tuple[int, int]] = set()
    for o in c.orbits:
        if o.dim != c.dim - 2:
            continue
        orbs = sorted(set(_facet_orbits(c, tiling.star(c, o.index))))
        for i, a in enumerate(orbs):
            for b in orbs[i + 1:]:
                pairs.add((a, b))
    return pairs


def gain_from_d2(c: TilingComplex, frame: NormalFrame) -> GainFunction:
    """Gains induced by the unique rays of all three-facet stars."""
    table = star_table(c, frame, (o.index for o in c.orbits
                                  if o.dim == c.dim - 2))
    return {(a, b): sub.factors[b] / sub.factors[a]
            for sub in table.values() if sub.unique
            for a in sub.factors for b in sub.factors if a != b}


def bridge_gain(c: TilingComplex, gain: GainFunction) -> GainFunction:
    """Extend a gain function so its graph reaches every facet orbit.

    Facet orbits meeting only at four-tile ridges carry no ratio
    constraint, so components of the gain graph can be joined freely.
    Unit gains are added along facet-adjacent pairs, one bridge per
    component merge, scanning pairs in sorted order.

    Returns:
        A new gain function whose graph is connected whenever the facet
        adjacency graph is.
    """
    forest = _RatioForest(o.index for o in c.orbits if o.dim == c.dim - 1)
    # Only the components matter here; propagate checks the ratios.
    for a, b in gain:
        forest.link(a, b, Fraction(1))
    out = dict(gain)
    for a, b in sorted(adjacent_facet_pairs(c)):
        if forest.find(a)[0] != forest.find(b)[0]:
            out[(a, b)] = out[(b, a)] = Fraction(1)
            forest.link(a, b, Fraction(1))
    return out


def propagate(c: TilingComplex, gain: GainFunction, seed: int):
    """Spread a seed factor through the gain graph and check every circuit.

    Returns:
        A ScalingAssignment when the gain is closed along all circuits of
        the quotient graph, otherwise an InconsistencyWitness holding one
        violating circuit.

    Raises:
        ValueError: a gain pair is not facet-adjacent, reciprocity fails,
            a gain is not positive, or the gain graph does not reach every
            facet orbit from the seed.
    """
    gain = {k: frac(v) for k, v in gain.items()}
    facet_orbs = sorted(o.index for o in c.orbits if o.dim == c.dim - 1)
    adjacent = adjacent_facet_pairs(c)
    for (a, b), t in gain.items():
        if t <= 0:
            raise ValueError("gains must be positive")
        if (min(a, b), max(a, b)) not in adjacent:
            raise ValueError(f"facet orbits {a} and {b} share no "
                             "codimension-2 face")
        if gain.get((b, a)) is None or t * gain[(b, a)] != 1:
            raise ValueError("gain reciprocity T[a,b]*T[b,a] = 1 fails")
    if seed not in facet_orbs:
        raise ValueError("seed must be a facet orbit")

    neighbors: dict[int, list[int]] = {o: [] for o in facet_orbs}
    for a, b in gain:
        neighbors[a].append(b)
    factors = {seed: Fraction(1)}
    parent: dict[int, int] = {seed: seed}
    queue = [seed]
    while queue:
        a = queue.pop(0)
        for b in sorted(neighbors[a]):
            if b not in factors:
                factors[b] = factors[a] * gain[(a, b)]
                parent[b] = a
                queue.append(b)
    if set(factors) != set(facet_orbs):
        raise ValueError("gain graph does not connect all facet orbits")

    for (a, b), t in sorted(gain.items()):
        if factors[b] != factors[a] * t:
            # Close the failing edge with the tree path from b back to a.
            path_a = _root_path(parent, a)
            path_b = _root_path(parent, b)
            while (len(path_a) > 1 and len(path_b) > 1
                   and path_a[-2] == path_b[-2]):
                path_a.pop()
                path_b.pop()
            circuit = tuple([a] + path_b + list(reversed(path_a))[1:])
            prod = Fraction(1)
            for x, y in zip(circuit, circuit[1:]):
                prod *= gain[(x, y)]
            return InconsistencyWitness(circuit=circuit, gain_product=prod)
    return ScalingAssignment(factors=factors)


def _root_path(parent: dict[int, int], n: int) -> list[int]:
    path = [n]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path


def verify_canonical(c: TilingComplex, s: ScalingAssignment,
                     frame: NormalFrame):
    """Check the sign-closure condition on every codimension-2 star.

    For each codimension-2 orbit, searches the (at most 2^4) sign vectors
    for one making the scaled normal sum exactly zero.

    Returns:
        ``(True, None)`` or ``(False, orbit_index)`` with the first star
        where no sign choice works.
    """
    for o in c.orbits:
        if o.dim != c.dim - 2:
            continue
        facets = _facet_orbits(c, tiling.star(c, o.index))
        vals = [s.factors[p] for p in facets]
        normals = [frame.normals[p] for p in facets]
        d = c.dim
        found = False
        for signs in product((1, -1), repeat=len(facets)):
            total = tuple(
                sum(e * v * n[j] for e, v, n in zip(signs, vals, normals))
                for j in range(d))
            if all(x == 0 for x in total):
                found = True
                break
        if not found:
            return (False, o.index)
    return (True, None)


# ---------------------------------------------------------------------------
# Coherence of parallelogram dual cells.
# ---------------------------------------------------------------------------


def _flank_faces(c: TilingComplex, low: int, high: int, faces) -> list[int]:
    """The orbit of each codimension-3 face among ``faces``, entries of
    ``c.faces``, between the base tile's faces with vertex masks ``low``
    (codimension 4) and ``high`` (codimension 2): by the diamond property of
    a face lattice (Ziegler, *Lectures on Polytopes*, Thm 2.7), exactly two.

    Raises:
        ValueError: the interval is not a rhombus.
    """
    flanks = [p for mask, p, _ in faces
              if c.orbits[p].dim == c.dim - 3
              and low & ~mask == 0 and mask & ~high == 0]
    if len(flanks) != 2:
        raise ValueError("face interval is not a rhombus")
    return flanks


def pyramid_flanked_parallelograms(
        c: TilingComplex) -> list[tuple[int, int, tuple[int, int]]]:
    """(orbit v, orbit r, flank orbits) for each codimension-4 orbit v and
    fan-B codimension-2 orbit r with a face containing v's representative
    between two pyramid (fan IV) flanks, sorted by (v, r).  The flanks are
    those of the least such face of r, as a sorted pair of orbits.

    The scan walks the fan-B codimension-2 faces of the base tile and the
    codimension-4 faces inside each, so it computes no star, and it finds
    each fan type once per orbit.
    """
    fan_b = {o.index for o in c.orbits if o.dim == c.dim - 2
             and tiling.classify_d2(c, o.index).tag == "B"}
    tags: dict[int, str] = {}
    least: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, int]]] = {}
    for high, r, lam_r in c.faces:
        if r not in fan_b:
            continue
        inside = [f for f in c.faces if f[0] & ~high == 0]
        for low, v, lam_v in inside:
            if c.orbits[v].dim != c.dim - 4:
                continue
            flanks = _flank_faces(c, low, high, inside)
            for q in flanks:
                if q not in tags:
                    tags[q] = tiling.classify_dual3(tiling.dual_cell(c, q)).tag
            if any(tags[q] != "IV" for q in flanks):
                continue
            # The tile P + lam_v holds v's representative and this face of r.
            shift = vsub(lam_v, lam_r)
            if (v, r) not in least or shift < least[(v, r)][0]:
                least[(v, r)] = (shift, tuple(sorted(flanks)))
    return [(v, r, flanks) for (v, r), (_, flanks) in sorted(least.items())]


def test_coherence(c: TilingComplex, r: int, flanks: tuple[int, int],
                   table: dict[int, StarScaling]) -> bool:
    """Whether the two pyramid star scalings agree on the parallelogram.

    ``r`` is the orbit of the parallelogram's codimension-2 face and
    ``flanks`` the orbits of the two codimension-3 faces flanking it, as
    pyramid_flanked_parallelograms gives them; ``table`` is a star_table
    over the flanks.  Each flank's star scaling is a single ray; both
    assign factors to the two facet orbits of the parallelogram's
    quadruple star, and coherence means the two factor ratios are equal.

    Raises:
        HypothesisViolated: a flanking dual 3-cell is not a pyramid.
        ValueError: a flank is not of codimension 3, or ``r`` is not a
            codimension-2 orbit of ``table`` with a parallelogram dual cell.
    """
    for q in flanks:
        try:
            tag = tiling.classify_dual3(tiling.dual_cell(c, q)).tag
        except tiling.UnclassifiableCell:
            tag = "?"
        if tag != "IV":
            raise HypothesisViolated(
                "a dual 3-cell flanking the parallelogram is not a pyramid "
                "over a parallelogram")
    sa, sb = (star_scaling_d3(c, q, table) for q in flanks)
    if not (sa.unique and sb.unique):
        raise NoPositiveSolution("pyramid star scaling is not a single ray")
    quad = table.get(r)
    if quad is None or quad.kind != "two_parameter":
        raise ValueError("coherence needs a parallelogram dual 2-cell")
    oa, ob = sorted(quad.factors)
    return sa.factors[oa] * sb.factors[ob] == sa.factors[ob] * sb.factors[oa]
