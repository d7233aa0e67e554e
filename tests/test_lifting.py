"""Tests for the planar lift: gradients, evaluation, and the inscribed form."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from tilekit import lifting, scaling, tiling
from tilekit._lp import vec

import oracles

GRAMS = {
    "Z2": [[1, 0], [0, 1]],
    "A2": [[2, 1], [1, 2]],
    "SHEARED": [[4, 1], [1, 4]],
    "SHEARED_REBASED": [[4, 5], [5, 10]],
    "SKEWED_Z2": [[1000001, 1000], [1000, 1]],
    "Z3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}
PLANAR = [name for name, gram in GRAMS.items() if len(gram) == 2]


def _seeded_grams(n: int, seed: int) -> dict[str, list[list[int]]]:
    """n positive definite planar Grams, each re-based as U^T G U by a
    seeded unimodular U."""
    rng = random.Random(seed)
    out: dict[str, list[list[int]]] = {}
    while len(out) < n:
        a, b, d = rng.randint(1, 9), rng.randint(-6, 6), rng.randint(1, 9)
        if a * d - b * b <= 0:
            continue
        u = oracles.random_unimodular(rng, 2, 6)[0]
        g = [[a, b], [b, d]]
        out[f"SEEDED_{len(out)}"] = [
            [sum(u[k][i] * g[k][m] * u[m][j] for k in range(2) for m in range(2))
             for j in range(2)] for i in range(2)]
    return out


SEEDED = _seeded_grams(24, 20261020)


@lru_cache(maxsize=None)
def setup(name: str):
    c = tiling.build_complex({**GRAMS, **SEEDED}[name])
    fr = scaling.build_frame(c)
    facets = [o.index for o in c.orbits if o.dim == c.dim - 1]
    gain = scaling.gain_from_d2(c, fr)
    if gain:
        s = scaling.propagate(c, gain, facets[0])
    else:
        s = scaling.ScalingAssignment({o: Fraction(1) for o in facets})
    return c, fr, s


@lru_cache(maxsize=None)
def lift(name: str) -> lifting.Generatrissa:
    c, fr, s = setup(name)
    return lifting.build_generatrissa(c, s, fr)


def mat_vec(g, x):
    return tuple(sum(Fraction(g[i][j]) * x[j] for j in range(len(x)))
                 for i in range(len(g)))


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def test_build_requires_planar_complex():
    c = tiling.build_complex(GRAMS["Z3"])
    fr = scaling.build_frame(c)
    s = scaling.ScalingAssignment(
        {o.index: Fraction(1) for o in c.orbits if o.dim == 2})
    with pytest.raises(ValueError):
        lifting.build_generatrissa(c, s, fr)


def test_build_rejects_noncanonical_scaling():
    c, fr, _ = setup("SHEARED")
    ones = scaling.ScalingAssignment(
        {o.index: Fraction(1) for o in c.orbits if o.dim == 1})
    with pytest.raises(lifting.InconsistentScaling):
        lifting.build_generatrissa(c, ones, fr)


def test_square_grid_gradients():
    g = lift("Z2")
    assert lifting.center_value(g, (0, 0)) == 0
    assert lifting.gradient_of(g, (0, 0)) == vec([0, 0])
    assert lifting.gradient_of(g, (1, 1)) == vec([1, 1])
    for k1, k2 in product(range(-4, 5), repeat=2):
        assert lifting.gradient_of(g, (k1, k2)) == vec([k1, k2])


def test_gradients_are_gram_images_of_shifts():
    # With the propagated canonical factors the increment across each edge
    # is exactly the Gram image of the neighbor step, so gradients recover
    # the dual-lattice pattern.
    for name in ("Z2", "A2", "SHEARED"):
        c, _, _ = setup(name)
        g = lift(name)
        for k1, k2 in product(range(-3, 4), repeat=2):
            lam = vec([k1, k2])
            assert lifting.gradient_of(g, lam) == mat_vec(GRAMS[name], lam)


def test_gradients_in_unreduced_bases_are_gram_images_of_shifts():
    # In a basis that is not reduced (u != I) the gradients of the given
    # basis vectors come from those of the reduced ones through u^-1; the
    # skewed square lattice's (1, 0) lies a thousand tiles out.  The
    # canonical factors fix the gradients up to one positive multiple.
    for name in ("SHEARED_REBASED", "SKEWED_Z2"):
        c, _, _ = setup(name)
        assert c.reduced[0] != ((1, 0), (0, 1))
        g = lift(name)
        scale = lifting.gradient_of(g, (0, 1))[1] / GRAMS[name][1][1]
        assert scale > 0
        for lam in ((1, 0), (0, 1), (3, -2), (-1, 1000)):
            assert lifting.gradient_of(g, lam) == tuple(
                scale * x for x in mat_vec(GRAMS[name], vec(lam)))
        q = lifting.recover_qform(g)
        assert lifting.verify_lifting(g, q) == lifting.LiftReport(
            tangency=True, convexity=True)
        for lam in ((1, 0), (2, -1999), (-3, 2998)):
            assert lifting.center_value(g, lam) == lifting.qform_value(q, lam)


def test_center_value_rejects_a_point_off_the_lattice():
    with pytest.raises(ValueError):
        lifting.center_value(lift("A2"), (Fraction(1, 2), 0))


def test_window_closure_holds():
    # The linear gradient map equals the gradients propagated tile by tile
    # along a BFS tree of the |y| <= 2 window of reduced coordinates, and
    # every window adjacency closes.
    for name in PLANAR + sorted(SEEDED):
        g = lift(name)
        window = oracles.generatrissa_window_reference(g.jumps,
                                                       g.complex.reduced[1])
        assert len(window) == 25, name
        for shift, grad in window.items():
            assert lifting.gradient_of(g, shift) == grad, (name, shift)


@pytest.mark.parametrize("name", PLANAR + sorted(SEEDED))
def test_reduced_basis_vectors_are_neighbor_steps(name):
    # The build reads the gradients of the reduced basis vectors straight
    # off the jumps, so both must be facet vectors of the planar cell.
    c, fr, s = setup(name)
    jumps = lifting._neighbor_jumps(c, s, fr)
    for col in zip(*c.reduced[0]):
        assert vec(col) in jumps


@pytest.mark.parametrize("name", ["A2", "SHEARED"])
def test_build_rejects_jumps_off_the_linear_map(name, monkeypatch):
    # Doubling the increment of one edge orbit keeps the scaling canonical,
    # since verify_canonical reads only the factors and the frame, but no
    # linear gradient map fits the jumps any more.
    c, fr, s = setup(name)
    assert scaling.verify_canonical(c, s, fr)[0]
    real = lifting._neighbor_jumps
    for step in sorted(real(c, s, fr)):
        def doubled(c, s, frame, step=step):
            jumps = real(c, s, frame)
            for d in (step, tuple(-x for x in step)):
                w, p = jumps[d]
                jumps[d] = (tuple(2 * x for x in w), p)
            return jumps

        monkeypatch.setattr(lifting, "_neighbor_jumps", doubled)
        with pytest.raises(lifting.InconsistentScaling):
            lifting.build_generatrissa(c, s, fr)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def test_square_grid_center_values():
    g = lift("Z2")
    for k in range(-3, 4):
        assert lifting.center_value(g, (k, 0)) == Fraction(k * k, 2)
    for k1, k2 in product(range(-3, 4), repeat=2):
        assert lifting.center_value(g, (k1, k2)) == Fraction(k1 * k1 + k2 * k2, 2)


def test_path_independence_on_random_paths():
    rng = random.Random(20260817)
    for name in ("A2", "SHEARED"):
        g = lift(name)
        deltas = sorted(g.jumps)
        for _ in range(100):
            steps = [rng.choice(deltas) for _ in range(8)]
            path1 = [vec([0, 0])]
            for d in steps:
                path1.append(tuple(x + y for x, y in zip(path1[-1], d)))
            rng.shuffle(steps)
            path2 = [vec([0, 0])]
            for d in steps:
                path2.append(tuple(x + y for x, y in zip(path2[-1], d)))
            assert path1[-1] == path2[-1]
            v1 = lifting.value_along_path(g, path1)
            v2 = lifting.value_along_path(g, path2)
            assert v1 == v2
            assert v1 == lifting.center_value(g, path1[-1])


def test_value_along_path_validates_steps():
    g = lift("Z2")
    with pytest.raises(ValueError):
        lifting.value_along_path(g, [(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        lifting.value_along_path(g, [(0, 0), (2, 0)])


# ---------------------------------------------------------------------------
# The inscribed form.
# ---------------------------------------------------------------------------


def test_square_grid_form_is_diagonal():
    q = lifting.recover_qform(lift("Z2"))
    assert q.basis == (vec([-1, 0]), vec([0, -1]))
    assert q.matrix == ((Fraction(1, 2), Fraction(0)),
                        (Fraction(0), Fraction(1, 2)))


def test_hexagonal_form_has_equal_diagonal():
    q = lifting.recover_qform(lift("A2"))
    assert q.basis == (vec([-1, 0]), vec([-1, 1]))
    assert q.matrix == ((Fraction(1), Fraction(1, 2)),
                        (Fraction(1, 2), Fraction(1)))


def test_sheared_form_is_nondiagonal_positive_definite():
    q = lifting.recover_qform(lift("SHEARED"))
    assert q.basis == (vec([-1, 0]), vec([-1, 1]))
    assert q.matrix == ((Fraction(2), Fraction(3, 2)),
                        (Fraction(3, 2), Fraction(3)))
    (a11, a12), (_, a22) = q.matrix
    assert a11 > 0 and a11 * a22 - a12 * a12 > 0


def test_lift_reports_tangent_and_convex():
    for name in ("Z2", "A2", "SHEARED"):
        g = lift(name)
        q = lifting.recover_qform(g)
        report = lifting.verify_lifting(g, q)
        assert report == lifting.LiftReport(tangency=True, convexity=True)


def test_lift_matches_form_far_from_base():
    for name, lam in (("A2", (6, -3)), ("SHEARED", (-5, 7))):
        g = lift(name)
        q = lifting.recover_qform(g)
        assert lifting.center_value(g, lam) == lifting.qform_value(q, lam)


def test_flipped_orbit_breaks_convexity():
    g = lift("A2")
    q = lifting.recover_qform(g)
    bad = dict(g.jumps)
    for d in (vec([-1, 0]), vec([1, 0])):
        w, p = bad[d]
        bad[d] = (tuple(-x for x in w), p)
    assert lifting.verify_lifting(g._replace(jumps=bad), q).convexity is False


def test_recover_rejects_indefinite_increments():
    g = lift("Z2")
    bad = dict(g.jumps)
    for d in (vec([-1, 0]), vec([1, 0])):
        w, p = bad[d]
        bad[d] = (tuple(-x for x in w), p)
    with pytest.raises(lifting.NotPositiveDefinite):
        lifting.recover_qform(g._replace(jumps=bad))


def test_form_is_affinely_covariant_under_basis_change():
    # The second Gram matrix is U^T G U for the unimodular shear
    # U = [[1, 1], [0, 1]]; shifts transform by U^{-1} and the recovered
    # forms agree as functions of the plane up to one positive multiple.
    q1 = lifting.recover_qform(lift("SHEARED"))
    q2 = lifting.recover_qform(lift("SHEARED_REBASED"))

    def rebase(x):
        return vec([x[0] - x[1], x[1]])

    xref = vec([1, 0])
    lhs_ref = lifting.qform_value(q1, xref)
    rhs_ref = lifting.qform_value(q2, rebase(xref))
    for k1, k2 in product(range(-2, 3), repeat=2):
        x = vec([k1, k2])
        assert (lifting.qform_value(q1, x) * rhs_ref
                == lifting.qform_value(q2, rebase(x)) * lhs_ref)
