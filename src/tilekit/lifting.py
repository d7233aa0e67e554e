"""Lifting a canonically scaled tiling to a convex function.

Crossing the facet between two tiles changes the gradient of the lift by
the scaled facet normal, so a scaling that closes up around every
codimension-2 face defines a piecewise-linear function on the whole space:
the lift, Voronoi's generatrissa.  Its graph is a union of tiles tangent to
the graph of one rational quadratic form, which this module recovers and
certifies (tangency, gradient agreement, and convexity of the lift), all in
exact arithmetic and in every dimension.

Normals here are covectors in lattice-basis coordinates: every identity is
a pairing of coordinate tuples, so no square roots appear.  Relative to
unit-normal conventions this scales each facet orbit by a positive
constant, which cancels from every verified identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import Violation
from ._lp import Vec, dot, independent, int_inverse
from .lattice import check_gram
from .scaling import NormalFrame, ScalingAssignment, verify_canonical
from .tiling import TilingComplex


class InconsistentScaling(Violation):
    """The scaling does not close up around some circuit of tiles."""


class NotPositiveDefinite(Violation):
    """The recovered quadratic form is not positive definite."""


class Generatrissa(NamedTuple):
    """Piecewise-linear lift of a tiling, one gradient per tile.

    Tiles are indexed by their lattice shifts; the base tile, at the
    origin, carries gradient zero and value zero at its center.  ``jumps``
    maps each neighbor step ``delta`` to the gradient increment for
    crossing from a tile into its ``delta``-neighbor.  The gradient is
    linear in the shift: the tile at ``lam`` has gradient
    ``gradient_map . lam``, a d x d matrix taking shifts to covectors.  The
    build checks that linear map against every jump, which closes every
    circuit of tiles.
    """

    jumps: dict[Vec, Vec]
    gradient_map: tuple[Vec, ...]


class QForm(NamedTuple):
    """Rational quadratic form y -> y.A.y in facet-vector coordinates:
    the point ``sum(y_i * basis[i])`` has value y.A.y."""

    matrix: tuple[Vec, ...]
    basis: tuple[Vec, ...]


class LiftReport(NamedTuple):
    tangency: bool
    convexity: bool


def _neighbor_jumps(c: TilingComplex, s: ScalingAssignment,
                    frame: NormalFrame) -> dict[Vec, Vec]:
    jumps: dict[Vec, Vec] = {}
    for o in c.orbits:
        if o.dim != c.dim - 1:
            continue
        t1, t2 = o.tile_shifts
        delta = tuple(x + y for x, y in zip(t1, t2))  # one is the origin
        w = tuple(s.factors[o.index] * x for x in frame.normals[o.index])
        jumps[delta] = w
        jumps[tuple(-x for x in delta)] = tuple(-x for x in w)
    return jumps


def _first_steps(jumps: dict[Vec, Vec]) -> list[Vec]:
    """The first d linearly independent neighbor steps, in sorted order."""
    steps = sorted(jumps)
    return [steps[i] for i in independent(steps, len(steps[0]))]


def _apply(m, x) -> Vec:
    return tuple(dot(row, x) for row in m)


def build_generatrissa(c: TilingComplex, s: ScalingAssignment,
                       frame: NormalFrame) -> Generatrissa:
    """Read the lift's gradient map off the jumps and verify it.

    The gradient is additive over tile steps, hence linear in the shift,
    so the jumps across d independent neighbor steps fix it.  The linear
    map is then checked against every neighbor step; a path of steps that
    returns to its start adds jumps that sum to zero under a linear map,
    so this closes every circuit of tiles.

    Args:
        c: a tiling complex.
        s: positive factors per facet orbit; must verify as canonical.
        frame: fixed primitive normals per facet orbit.

    Raises:
        InconsistentScaling: the scaling fails the vertex-star sign
            condition, or some jump disagrees with the linear gradient map.
    """
    ok, star = verify_canonical(c, s, frame)
    if not ok:
        raise InconsistentScaling(
            f"scaling violates the sign condition at face orbit {star}")
    jumps = _neighbor_jumps(c, s, frame)
    steps = _first_steps(jumps)
    # M.l = w for each step l: M = W.L^-1 with the steps as the columns of
    # L and their jumps as the columns of W, and L^-1 is the transpose of
    # the inverse of the matrix whose rows are the steps.
    inv, den = int_inverse(steps)
    m = tuple(tuple(Fraction(sum(jumps[l][a] * inv[b][i]
                                 for i, l in enumerate(steps)), den)
                    for b in range(c.dim)) for a in range(c.dim))
    for delta, w in jumps.items():
        if _apply(m, delta) != w:
            raise InconsistentScaling(
                f"gradient increments along {delta} are not translation "
                "consistent")
    return Generatrissa(jumps=jumps, gradient_map=m)


def recover_qform(g: Generatrissa) -> QForm:
    """Quadratic form whose graph is inscribed in the graph of the lift.

    The first d independent neighbor steps l_i span the tile centers; in
    their coordinates the form has the exact rational coefficients
    A_ij = l_i . w_j / 2, read off the gradient increments w_j.

    Raises:
        InconsistentScaling: A is not symmetric, so no single form fits
            the lift.
        NotPositiveDefinite: A is not positive definite.
    """
    basis = _first_steps(g.jumps)
    a = tuple(tuple(dot(li, g.jumps[lj]) / 2 for lj in basis) for li in basis)
    if a != tuple(zip(*a)):
        raise InconsistentScaling(
            "mixed increments disagree; the lift fits no quadratic form")
    try:
        check_gram(a)
    except ValueError:
        raise NotPositiveDefinite(
            "the recovered form is not positive definite") from None
    return QForm(matrix=a, basis=tuple(basis))


def verify_lifting(g: Generatrissa, q: QForm) -> LiftReport:
    """Check tangency at every tile center and convexity on all facets.

    Tangency is an identity, not a sample.  The facet shared by the tiles
    at lam and lam + delta is centrally symmetric about lam + delta/2, so
    continuity there gives the tile at lam the affine piece
    x -> (M.lam).x - lam.M.lam / 2 when M, the gradient map, is symmetric.
    That piece meets x.M.x / 2 at x = lam with the same gradient M.lam.  So
    the lift is tangent to that form at every center when M is symmetric
    and ``q`` is that form, L^T.M.L / 2 on the steps L of ``q.basis``.
    Convexity: crossing any facet in the direction of the neighbor
    increases the slope along the crossing.
    """
    m = g.gradient_map
    form = tuple(tuple(dot(li, _apply(m, lj)) / 2 for lj in q.basis)
                 for li in q.basis)
    tangency = m == tuple(zip(*m)) and form == q.matrix
    convexity = all(dot(w, delta) > 0 for delta, w in g.jumps.items())
    return LiftReport(tangency=tangency, convexity=convexity)
