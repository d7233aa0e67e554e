"""Tests for the lift: gradients, evaluation, and the inscribed form."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from tilekit import cli, lifting, scaling, tiling
from tilekit._lp import dot, vec

import oracles
from test_lattice import GEN5, _skew
from test_ratpoly import A5_STAR
import test_scaling

GRAMS = {
    "Z2": [[1, 0], [0, 1]],
    "A2": [[2, 1], [1, 2]],
    "SHEARED": [[4, 1], [1, 4]],
    "SHEARED_REBASED": [[4, 5], [5, 10]],
    "SKEWED_Z2": [[1000001, 1000], [1000, 1]],
    "Z3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    **{name: test_scaling.GRAMS[name]
       for name in ("FCC", "BCC", "HEXPRISM", "ELONG4", "D4", "A5", "K33")},
    "A5_STAR": A5_STAR,
    "GEN5": GEN5,
}
GRAMS["FCC_REBASED"] = _skew(
    GRAMS["FCC"], oracles.random_unimodular(random.Random(31), 3, 6)[0])
GRAMS["GEN5_REBASED"] = _skew(
    GEN5, oracles.random_unimodular(random.Random(31), 5, 6)[0])
PLANAR = [name for name, gram in GRAMS.items() if len(gram) == 2]
SPATIAL = [name for name, gram in GRAMS.items() if len(gram) > 2]


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
    """The complex, frame and scaling of a Gram, propagated as ``lift``
    propagates them.  The scaling tests' complexes are shared."""
    if name in test_scaling.GRAMS:
        c, fr = test_scaling.cpx(name), test_scaling.frame(name)
    else:
        c = tiling.build_complex({**GRAMS, **SEEDED}[name])
        fr = scaling.build_frame(c)
    gain = scaling.bridge_gain(c, scaling.gain_from_d2(c, fr))
    s = scaling.propagate(c, gain, min(o.index for o in c.orbits
                                       if o.dim == c.dim - 1))
    return c, fr, s


@lru_cache(maxsize=None)
def lift(name: str) -> lifting.Generatrissa:
    c, fr, s = setup(name)
    return lifting.build_generatrissa(c, s, fr)


def walk(name: str):
    """The oracle walk's inputs for a lift: jumps, facet points and the
    reduced basis."""
    c = setup(name)[0]
    return lift(name).jumps, oracles.facet_points(c), c.reduced


def mat_vec(g, x):
    return tuple(sum(Fraction(g[i][j]) * x[j] for j in range(len(x)))
                 for i in range(len(g)))


def gradient(g: lifting.Generatrissa, lam):
    return mat_vec(g.gradient_map, vec(lam))


def multiple_of_gram(q: lifting.QForm, gram) -> Fraction:
    """c with q.matrix = c * L^T.G.L for the steps L of q.basis."""
    lgl = [[dot(li, mat_vec(gram, lj)) for lj in q.basis] for li in q.basis]
    c = q.matrix[0][0] / lgl[0][0]
    assert [[c * x for x in row] for row in lgl] == [list(r) for r in q.matrix]
    return c


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def test_z3_gradient_map_is_a_multiple_of_the_gram():
    c = tiling.build_complex(GRAMS["Z3"])
    fr = scaling.build_frame(c)
    s = scaling.ScalingAssignment(
        {o.index: Fraction(1) for o in c.orbits if o.dim == 2})
    g = lifting.build_generatrissa(c, s, fr)
    scale = g.gradient_map[0][0]
    assert scale > 0
    assert g.gradient_map == tuple(tuple(scale * x for x in row)
                                   for row in GRAMS["Z3"])


def test_build_rejects_noncanonical_scaling():
    c, fr, _ = setup("SHEARED")
    ones = scaling.ScalingAssignment(
        {o.index: Fraction(1) for o in c.orbits if o.dim == 1})
    with pytest.raises(lifting.InconsistentScaling):
        lifting.build_generatrissa(c, ones, fr)


def test_square_grid_gradients():
    g = lift("Z2")
    assert oracles.center_value(*walk("Z2"), (0, 0)) == 0
    assert gradient(g, (0, 0)) == vec([0, 0])
    assert gradient(g, (1, 1)) == vec([1, 1])
    for k1, k2 in product(range(-4, 5), repeat=2):
        assert gradient(g, (k1, k2)) == vec([k1, k2])


def test_gradients_are_gram_images_of_shifts():
    # With the propagated canonical factors the increment across each edge
    # is exactly the Gram image of the neighbor step, so gradients recover
    # the dual-lattice pattern.
    for name in ("Z2", "A2", "SHEARED"):
        g = lift(name)
        assert g.gradient_map == tuple(map(vec, GRAMS[name]))
        for k1, k2 in product(range(-3, 4), repeat=2):
            lam = vec([k1, k2])
            assert gradient(g, lam) == mat_vec(GRAMS[name], lam)


def test_gradients_in_unreduced_bases_are_gram_images_of_shifts():
    # In a basis that is not reduced (u != I) the skewed square lattice's
    # (1, 0) lies a thousand tiles out, yet the gradient map is read off
    # neighbor steps alone.  The canonical factors fix the gradients up to
    # one positive multiple; the oracle walks to far centers along the
    # reduced basis.
    for name in ("SHEARED_REBASED", "SKEWED_Z2"):
        c, _, _ = setup(name)
        assert c.reduced[0] != ((1, 0), (0, 1))
        g = lift(name)
        scale = gradient(g, (0, 1))[1] / GRAMS[name][1][1]
        assert scale > 0
        for lam in ((1, 0), (0, 1), (3, -2), (-1, 1000)):
            assert gradient(g, lam) == tuple(
                scale * x for x in mat_vec(GRAMS[name], vec(lam)))
        q = lifting.recover_qform(g)
        assert lifting.verify_lifting(g, q) == lifting.LiftReport(
            tangency=True, convexity=True)
        for lam in ((1, 0), (2, -1999), (-3, 2998)):
            assert (oracles.center_value(*walk(name), lam)
                    == oracles.qform_value(q.matrix, q.basis, lam))


def test_center_value_rejects_a_point_off_the_lattice():
    with pytest.raises(ValueError):
        oracles.center_value(*walk("A2"), (Fraction(1, 2), 0))


def test_window_closure_holds():
    # The oracle propagates gradients and center values tile by tile along
    # a BFS tree of the |y| <= 2 window of reduced coordinates, and every
    # window adjacency closes; it agrees with the linear gradient map and
    # with the form x.M.x / 2 at every center.
    for name in PLANAR + sorted(SEEDED):
        g = lift(name)
        jumps, points, (_, inv) = walk(name)
        window = oracles.generatrissa_window_reference(jumps, points, inv)
        assert len(window) == 25, name
        for shift, (grad, value) in window.items():
            assert gradient(g, shift) == grad, (name, shift)
            assert dot(shift, grad) / 2 == value, (name, shift)


@pytest.mark.parametrize("name", PLANAR + sorted(SEEDED))
def test_reduced_basis_vectors_are_neighbor_steps(name):
    # The oracle's center_value walks whole steps along the reduced basis
    # vectors, so both must be facet vectors of the planar cell.
    c, fr, s = setup(name)
    jumps = lifting._neighbor_jumps(c, s, fr)
    for col in zip(*c.reduced[0]):
        assert vec(col) in jumps


@pytest.mark.parametrize("name", ["A2", "SHEARED", "ELONG4"])
def test_build_rejects_jumps_off_the_linear_map(name, monkeypatch):
    # Doubling the increment of one facet orbit keeps the scaling
    # canonical, since verify_canonical reads only the factors and the
    # frame, but no linear gradient map fits the jumps any more.
    c, fr, s = setup(name)
    assert scaling.verify_canonical(c, s, fr)[0]
    real = lifting._neighbor_jumps
    for step in sorted(real(c, s, fr)):
        def doubled(c, s, frame, step=step):
            jumps = real(c, s, frame)
            for d in (step, tuple(-x for x in step)):
                jumps[d] = tuple(2 * x for x in jumps[d])
            return jumps

        monkeypatch.setattr(lifting, "_neighbor_jumps", doubled)
        with pytest.raises(lifting.InconsistentScaling,
                           match="not translation consistent"):
            lifting.build_generatrissa(c, s, fr)


# ---------------------------------------------------------------------------
# Evaluation, by the oracle's tile walks.
# ---------------------------------------------------------------------------


def test_square_grid_center_values():
    for k in range(-3, 4):
        assert oracles.center_value(*walk("Z2"), (k, 0)) == Fraction(k * k, 2)
    for k1, k2 in product(range(-3, 4), repeat=2):
        assert (oracles.center_value(*walk("Z2"), (k1, k2))
                == Fraction(k1 * k1 + k2 * k2, 2))


def test_path_independence_on_random_paths():
    rng = random.Random(20260817)
    for name in ("A2", "SHEARED"):
        jumps, points, reduced = walk(name)
        deltas = sorted(jumps)
        for _ in range(100):
            steps = [rng.choice(deltas) for _ in range(8)]
            path1 = [(0, 0)]
            for d in steps:
                path1.append(tuple(x + y for x, y in zip(path1[-1], d)))
            rng.shuffle(steps)
            path2 = [(0, 0)]
            for d in steps:
                path2.append(tuple(x + y for x, y in zip(path2[-1], d)))
            assert path1[-1] == path2[-1]
            v1 = oracles.value_along_path(jumps, points, path1)
            v2 = oracles.value_along_path(jumps, points, path2)
            assert v1 == v2
            assert v1 == oracles.center_value(jumps, points, reduced,
                                              path1[-1])


def test_value_along_path_validates_steps():
    jumps, points, _ = walk("Z2")
    with pytest.raises(ValueError):
        oracles.value_along_path(jumps, points, [(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        oracles.value_along_path(jumps, points, [(0, 0), (2, 0)])


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
        q = lifting.recover_qform(lift(name))
        assert (oracles.center_value(*walk(name), lam)
                == oracles.qform_value(q.matrix, q.basis, lam))


def test_flipped_orbit_breaks_convexity():
    g = lift("A2")
    q = lifting.recover_qform(g)
    bad = dict(g.jumps)
    for d in ((-1, 0), (1, 0)):
        bad[d] = tuple(-x for x in bad[d])
    assert lifting.verify_lifting(g._replace(jumps=bad), q).convexity is False


def test_recover_rejects_indefinite_increments():
    g = lift("Z2")
    bad = dict(g.jumps)
    for d in ((-1, 0), (1, 0)):
        bad[d] = tuple(-x for x in bad[d])
    with pytest.raises(lifting.NotPositiveDefinite):
        lifting.recover_qform(g._replace(jumps=bad))


def test_tangency_needs_a_symmetric_map_and_its_own_form():
    g = lift("FCC")
    q = lifting.recover_qform(g)
    m = [list(row) for row in g.gradient_map]
    m[0][1] += 1
    skew = g._replace(gradient_map=tuple(map(tuple, m)))
    assert lifting.verify_lifting(skew, q).tangency is False
    other = q._replace(matrix=tuple(tuple(2 * x for x in row)
                                    for row in q.matrix))
    assert lifting.verify_lifting(g, other).tangency is False


def test_recover_rejects_a_non_symmetric_jump_table():
    # w = N.delta with N = G + K for a skew K: every jump still increases
    # the slope (delta.N.delta = delta.G.delta > 0), but L^T.N.L / 2 is not
    # symmetric, so no form fits.
    fcc = GRAMS["FCC"]
    n = [[fcc[i][j] + (i == 0 and j == 1) - (i == 1 and j == 0)
          for j in range(3)] for i in range(3)]
    bad = {d: mat_vec(n, d) for d in lift("FCC").jumps}
    assert all(dot(w, d) > 0 for d, w in bad.items())
    with pytest.raises(lifting.InconsistentScaling, match="mixed"):
        lifting.recover_qform(lift("FCC")._replace(jumps=bad))


def test_recover_rejects_an_indefinite_jump_table():
    n = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    bad = {d: mat_vec(n, d) for d in lift("Z3").jumps}
    with pytest.raises(lifting.NotPositiveDefinite):
        lifting.recover_qform(lift("Z3")._replace(jumps=bad))


def test_form_is_affinely_covariant_under_basis_change():
    # The second Gram matrix is U^T G U for the unimodular shear
    # U = [[1, 1], [0, 1]]; shifts transform by U^{-1} and the recovered
    # forms agree as functions of the plane up to one positive multiple.
    q1 = lifting.recover_qform(lift("SHEARED"))
    q2 = lifting.recover_qform(lift("SHEARED_REBASED"))

    def rebase(x):
        return vec([x[0] - x[1], x[1]])

    def value(q, x):
        return oracles.qform_value(q.matrix, q.basis, x)

    xref = vec([1, 0])
    lhs_ref = value(q1, xref)
    rhs_ref = value(q2, rebase(xref))
    for k1, k2 in product(range(-2, 3), repeat=2):
        x = vec([k1, k2])
        assert value(q1, x) * rhs_ref == value(q2, rebase(x)) * lhs_ref


# ---------------------------------------------------------------------------
# Every dimension.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SPATIAL)
def test_lift_is_tangent_to_a_multiple_of_the_gram(name):
    """In d = 3..5 the lift is tangent and convex, its form is c.L^T.G.L
    with c > 0 for the input Gram G, and the oracle's tile walk over a
    window of reduced coordinates meets x.M.x / 2 at every center, with
    gradient M.x."""
    g = lift(name)
    q = lifting.recover_qform(g)
    assert lifting.verify_lifting(g, q) == lifting.LiftReport(
        tangency=True, convexity=True)
    gram = GRAMS[name]
    c = multiple_of_gram(q, gram)
    assert c > 0
    assert g.gradient_map == tuple(tuple(2 * c * x for x in row)
                                   for row in gram)
    jumps, points, (_, inv) = walk(name)
    size = 2 if len(gram) <= 3 else 1
    window = oracles.generatrissa_window_reference(jumps, points, inv, size)
    assert len(window) == (2 * size + 1) ** len(gram)
    for shift, (grad, value) in window.items():
        assert grad == gradient(g, shift), shift
        assert value == dot(shift, grad) / 2, shift


@pytest.mark.parametrize("name", sorted(SEEDED) + ["SHEARED_REBASED",
                                                   "SKEWED_Z2"])
def test_planar_lift_reports_match_the_2x2_formulas(name, tmp_path, capsys):
    """``lift`` prints, byte for byte, the planar form and basis that the
    2x2 formulas give on the same jumps."""
    c, fr, s = setup(name)
    matrix, basis = oracles.qform2_reference(
        lifting._neighbor_jumps(c, s, fr))

    def row(v):
        return [[x.numerator, x.denominator] for x in v]

    doc = {"qform": {"matrix": [row(r) for r in matrix],
                     "basis": [row(b) for b in basis]},
           "tangency": True, "convexity": True}
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"gram": SEEDED.get(name) or GRAMS[name]}))
    assert cli.main(["lift", "--gram", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
