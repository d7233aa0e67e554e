"""Lifting a canonically scaled planar tiling to a convex function.

Crossing the edge between two tiles changes the gradient of the lift by the
scaled edge normal, so a scaling that closes up around every vertex defines
a piecewise-linear function on the plane: the lift.  Its graph is a union
of planar tiles tangent to the graph of one rational quadratic form, which
this module recovers and certifies (tangency, gradient agreement, and
convexity of the lift), all in exact arithmetic.

Normals here are covectors in lattice-basis coordinates: every identity is
a pairing of coordinate tuples, so no square roots appear.  Relative to
unit-normal conventions this scales each edge orbit by a positive constant,
which cancels from every verified identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import Violation
from ._lp import Vec, dot, vadd, vec, vsub
from .scaling import NormalFrame, ScalingAssignment, verify_canonical
from .tiling import TilingComplex


class InconsistentScaling(Violation):
    """The scaling does not close up around some circuit of tiles."""


class NotPositiveDefinite(Violation):
    """The recovered quadratic form fails the rational pivot test."""


class Generatrissa(NamedTuple):
    """Piecewise-linear lift of a planar tiling, one gradient per tile.

    Tiles are indexed by their lattice shifts; the base tile, at the
    origin, carries gradient zero and value zero at its center.  ``jumps``
    maps each neighbor step ``delta`` to the gradient increment for
    crossing from a tile into its ``delta``-neighbor, together with a point
    on the shared edge of the base tile and its ``delta``-neighbor.  The
    gradient is linear in the shift: the tile at ``lam`` has gradient
    ``lam[0] * g1 + lam[1] * g2`` for ``basis_gradients`` ``(g1, g2)``, the
    gradients of the tiles at the given basis vectors.  The build checks
    that linear map against every jump, which closes every circuit of
    tiles.
    """

    complex: TilingComplex
    jumps: dict[Vec, tuple[Vec, Vec]]
    basis_gradients: tuple[Vec, Vec]


class QForm2(NamedTuple):
    """Rational quadratic form y -> y.A.y in facet-vector coordinates."""

    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    basis: tuple[Vec, Vec]


class LiftReport(NamedTuple):
    tangency: bool
    convexity: bool


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def _neighbor_jumps(c: TilingComplex, s: ScalingAssignment,
                    frame: NormalFrame) -> dict[Vec, tuple[Vec, Vec]]:
    jumps: dict[Vec, tuple[Vec, Vec]] = {}
    for o in c.orbits:
        if o.dim != c.dim - 1:
            continue
        t1, t2 = o.tile_shifts
        delta = vadd(t1, t2)  # one of the two shifts is the origin
        w = tuple(s.factors[o.index] * x for x in frame.normals[o.index])
        p = o.vertices[0]
        jumps[delta] = (w, p)
        jumps[tuple(-x for x in delta)] = (tuple(-x for x in w),
                                           vsub(p, delta))
    return jumps


def build_generatrissa(c: TilingComplex, s: ScalingAssignment,
                       frame: NormalFrame) -> Generatrissa:
    """Read the lift's gradient map off the jumps and verify it.

    The gradient is additive over tile steps, hence linear in the shift,
    so the jumps across the two reduced basis vectors fix it.  The linear
    map is then checked against every neighbor step; a path of steps that
    returns to its start adds jumps that sum to zero under a linear map,
    so this closes every circuit of tiles.

    Args:
        c: a two-dimensional tiling complex.
        s: positive factors per edge orbit; must verify as canonical.
        frame: fixed primitive normals per edge orbit.

    Raises:
        ValueError: the complex is not two-dimensional.
        InconsistentScaling: the scaling fails the vertex-star sign
            condition, or some jump disagrees with the linear gradient map.
    """
    if c.dim != 2:
        raise ValueError("the lift is built for planar tilings only")
    ok, star = verify_canonical(c, s, frame)
    if not ok:
        raise InconsistentScaling(
            f"scaling violates the sign condition at face orbit {star}")
    jumps = _neighbor_jumps(c, s, frame)
    u, inv = c.reduced
    # The reduced basis vectors b1, b2 are facet vectors, so their tiles
    # neighbor the base tile and their gradients are jumps.  LLL with
    # delta = 3/4 gives |mu| <= 1/2 and |b2*|^2 >= |b1|^2 / 2, which makes
    # +-b1 and +-b2 the unique shortest vectors of their classes mod 2L,
    # and such vectors are facet vectors (Voronoi).  The gradient at the
    # given basis vector e_i is the combination of theirs with the
    # coordinates of e_i in the reduced basis: column i of u^-1.
    h1, h2 = (jumps[vec(col)][0] for col in zip(*u))
    g1, g2 = (tuple(inv[0][i] * x + inv[1][i] * y for x, y in zip(h1, h2))
              for i in range(2))
    for delta, (w, _) in jumps.items():
        lin = tuple(delta[0] * x + delta[1] * y for x, y in zip(g1, g2))
        if lin != w:
            raise InconsistentScaling(
                f"gradient increments along {delta} are not translation "
                "consistent")
    return Generatrissa(complex=c, jumps=jumps, basis_gradients=(g1, g2))


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def gradient_of(g: Generatrissa, shift) -> Vec:
    """Gradient covector of the lift on the tile at a lattice shift."""
    shift = vec(shift)
    g1, g2 = g.basis_gradients
    return tuple(shift[0] * x + shift[1] * y for x, y in zip(g1, g2))


def _cross_value(g: Generatrissa, a: Vec, delta: Vec,
                 value_a: Fraction) -> Fraction:
    """Value at the center of ``a + delta`` given the value at ``a``'s.

    The two affine pieces agree on the shared edge, so chaining through
    any point of that edge's line is exact and path-independent.
    """
    w, p = g.jumps[delta]
    m = vadd(p, a)
    b = vadd(a, delta)
    return (value_a + dot(gradient_of(g, a), vsub(m, a))
            + dot(gradient_of(g, b), vsub(b, m)))


def value_along_path(g: Generatrissa, path) -> Fraction:
    """Lift value at the center of the last tile of an explicit tile path.

    Args:
        path: tile shifts starting at the base tile, the origin, each
            consecutive pair differing by a neighbor step.

    Raises:
        ValueError: the path does not start at the origin or makes a step
            that is not a neighbor step.
    """
    path = [vec(a) for a in path]
    if not path or any(path[0]):
        raise ValueError("path must start at the origin")
    val = Fraction(0)
    for a, b in zip(path, path[1:]):
        if vsub(b, a) not in g.jumps:
            raise ValueError(f"tiles {a} and {b} are not neighbors")
        val = _cross_value(g, a, vsub(b, a), val)
    return val


def _reduced_path(g: Generatrissa, shift: Vec) -> list[Vec]:
    """Tile path from the base tile to a lattice shift: whole steps along
    the first reduced basis vector, then along the second.

    Both are neighbor steps, so the path takes |y1| + |y2| steps for the
    reduced coordinates y of the shift, however skewed the given basis.
    """
    u, inv = g.complex.reduced
    path = [vec(0 for _ in shift)]
    for col, row in zip(zip(*u), inv):
        y = dot(row, shift)
        step = vec(col) if y > 0 else vec(-x for x in col)
        for _ in range(abs(int(y))):
            path.append(vadd(path[-1], step))
    if path[-1] != shift:
        raise ValueError(f"{shift} is not a lattice shift")
    return path


def center_value(g: Generatrissa, shift) -> Fraction:
    """Lift value at the center of the tile at a lattice shift."""
    return value_along_path(g, _reduced_path(g, vec(shift)))


# ---------------------------------------------------------------------------
# The inscribed quadratic form.
# ---------------------------------------------------------------------------


def recover_qform(g: Generatrissa) -> QForm2:
    """Quadratic form whose graph is inscribed in the graph of the lift.

    Two independent facet vectors span the tile centers; in their
    coordinates the form has exact rational coefficients read off the
    gradient increments.

    Raises:
        InconsistentScaling: the mixed coefficients disagree, so no single
            form fits the lift.
        NotPositiveDefinite: the form fails the rational pivot test.
    """
    deltas = sorted(g.jumps)
    l1 = deltas[0]
    l2 = next(d for d in deltas if l1[0] * d[1] - l1[1] * d[0] != 0)
    w1 = g.jumps[l1][0]
    w2 = g.jumps[l2][0]
    if dot(l1, w2) != dot(l2, w1):
        raise InconsistentScaling(
            "mixed increments disagree; the lift fits no quadratic form")
    a11 = dot(l1, w1) / 2
    a22 = dot(l2, w2) / 2
    a12 = dot(l2, w1) / 2
    if not (a11 > 0 and a11 * a22 - a12 * a12 > 0):
        raise NotPositiveDefinite("pivot test failed")
    return QForm2(matrix=((a11, a12), (a12, a22)), basis=(l1, l2))


def qform_value(q: QForm2, x) -> Fraction:
    """Evaluate the form at a point given in lattice-basis coordinates."""
    x = vec(x)
    b1, b2 = q.basis
    det = b1[0] * b2[1] - b1[1] * b2[0]
    y1 = (x[0] * b2[1] - x[1] * b2[0]) / det
    y2 = (b1[0] * x[1] - b1[1] * x[0]) / det
    (a11, a12), (_, a22) = q.matrix
    return a11 * y1 * y1 + 2 * a12 * y1 * y2 + a22 * y2 * y2


def verify_lifting(g: Generatrissa, q: QForm2) -> LiftReport:
    """Check tangency on a 5x5 window of tiles and convexity on all edges.

    Tangency: at every center ``k1*b1 + k2*b2`` with ``|ki| <= 2`` the lift
    value equals the form value and the tile gradient equals the form
    gradient.  Convexity: crossing any edge in the direction of the
    neighbor increases the slope along the crossing.
    """
    b1, b2 = q.basis
    (a11, a12), (_, a22) = q.matrix
    tangency = True
    for k1, k2 in product(range(-2, 3), repeat=2):
        lam = vadd(tuple(k1 * x for x in b1), tuple(k2 * x for x in b2))
        if center_value(g, lam) != qform_value(q, lam):
            tangency = False
            break
        grad = gradient_of(g, lam)
        # In pairing form: <b_i, grad> must match the i-th component of
        # twice A applied to (k1, k2).
        if (dot(b1, grad) != 2 * (a11 * k1 + a12 * k2)
                or dot(b2, grad) != 2 * (a12 * k1 + a22 * k2)):
            tangency = False
            break
    convexity = all(dot(w, delta) > 0 for delta, (w, _) in g.jumps.items())
    return LiftReport(tangency=tangency, convexity=convexity)
