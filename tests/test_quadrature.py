import math

import numpy as np
import pytest

from bmofem import quadrature as Q
from bmofem.errors import SingularityError
from bmofem.quadrature import square_mean, square_means_batch, triangle_means

UNIT_TRI = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]])


def test_constant_is_exact():
    vals = triangle_means(lambda p, i: np.full(p.shape[0], 3.5), UNIT_TRI, 1e-10)
    assert vals[0] == 3.5


def test_affine_is_exact():
    # centroid rule integrates affine functions exactly at every level
    vals = triangle_means(lambda p, i: 2.0 + p[:, 0] - 3.0 * p[:, 1], UNIT_TRI, 1e-12)
    centroid = UNIT_TRI[0].mean(axis=0)
    assert vals[0] == pytest.approx(2.0 + centroid[0] - 3.0 * centroid[1], abs=1e-15)


def _sin_mean_lower(x0, y0, h):
    """Exact mean of sin(pi x) over the triangle (x0,y0),(x0+h,y0),(x0+h,y0+h).

    The strip width at abscissa x is (x - x0); integrate by parts.
    """
    pi = math.pi
    a, b = x0, x0 + h
    integral = (
        -(b - a) * math.cos(pi * b) / pi
        + (math.sin(pi * b) - math.sin(pi * a)) / pi**2
    )
    return integral / (0.5 * h * h)


def test_sin_mean_matches_closed_form():
    x0, y0, h = 0.25, 0.5, 0.125
    tri = np.array([[[x0, y0], [x0 + h, y0], [x0 + h, y0 + h]]])
    vals = triangle_means(lambda p, i: np.sin(np.pi * p[:, 0]), tri, 1e-10)
    assert vals[0] == pytest.approx(_sin_mean_lower(x0, y0, h), abs=1e-10)


def test_matrix_valued_means():
    def f(p, i):
        out = np.zeros((p.shape[0], 2, 2))
        out[:, 0, 0] = p[:, 0]
        out[:, 1, 1] = 1.0
        return out

    vals = triangle_means(f, UNIT_TRI, 1e-12)
    assert vals.shape == (1, 2, 2)
    assert vals[0, 0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert vals[0, 1, 1] == 1.0


def test_integrable_corner_singularity():
    # log is integrable; nodes never touch the singular corner.  The mean
    # over this triangle equals the unit-square mean by symmetry:
    # (3 - ln 2 - pi/2) / 2.
    vals = triangle_means(
        lambda p, i: np.log(1.0 / np.linalg.norm(p, axis=1)), UNIT_TRI, 1e-7
    )
    exact = (3.0 - math.log(2.0) - math.pi / 2.0) / 2.0
    assert vals[0] == pytest.approx(exact, abs=1e-7)


def test_non_finite_value_raises():
    def f(p, i):
        return np.where(p[:, 0] < 0.2, np.inf, p[:, 0] ** 2)

    with pytest.raises(SingularityError) as err:
        triangle_means(f, UNIT_TRI, 1e-10)
    assert err.value.point is not None


def test_square_mean_constant_and_indicator():
    assert square_mean(lambda p: np.full(p.shape[0], 2.0), (0.0, 0.0), 1.0) == 2.0
    # dyadic-aligned indicator is resolved exactly
    ind = lambda p: ((p[:, 0] < 0.5) & (p[:, 1] < 0.5)).astype(float)
    assert square_mean(ind, (0.0, 0.0), 1.0) == 0.25


def test_square_mean_smooth():
    val = square_mean(lambda p: np.sin(np.pi * p[:, 0]), (0.0, 0.0), 1.0, tol=1e-10)
    assert val == pytest.approx(2.0 / math.pi, abs=1e-9)


def test_square_means_batch_orders_preserved():
    los = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    vals = square_means_batch(lambda p, i: p[:, 0], los, 0.5, 1e-10)
    assert np.allclose(vals, [0.25, 0.75, 0.25, 0.75], atol=1e-12)


# ---------------------------------------------------------------------------
# Refinement policy pins.  Evaluation counts and values were recorded before
# the triangle, square and dyadic-ladder refinement loops were merged into
# one function (``_refine``); any change to the exact-agreement test, the
# Richardson test or the stall rule moves at least one of them.

KINK_TRI = np.array([[[0.25, 0.5], [0.5, 0.5], [0.5, 0.75]]])
SIN_TRI = np.array([[[0.25, 0.5], [0.375, 0.5], [0.375, 0.625]]])


def _log_reciprocal(p):
    return -np.log(np.hypot(p[:, 0], p[:, 1]))


class _Counted:
    """Wraps an integrand f(points) and counts the points it is given."""

    def __init__(self, f):
        self.f = f
        self.evals = 0

    def __call__(self, p, ids=None):
        self.evals += p.shape[0]
        return self.f(p)


def _run_counted(monkeypatch, run, f):
    """run(g) with g counting the evaluations of f.  Returns the result, the
    evaluation count, and the count at each start of the adaptive rule."""
    g = _Counted(f)
    starts = []
    real = Q._adaptive_mean

    def spy(*args, **kwargs):
        starts.append(g.evals)
        return real(*args, **kwargs)

    monkeypatch.setattr(Q, "_adaptive_mean", spy)
    return run(g), g.evals, starts


# name: (verts, integrand, rel_tol, evals, values, adaptive starts)
TRIANGLE_PINS = {
    # levels 0 and 1 agree exactly
    "constant": (UNIT_TRI, lambda p: np.full(p.shape[0], 3.5), 1e-10, 5, [3.5], []),
    # settles by the Richardson test
    "sin": (SIN_TRI, lambda p: np.sin(np.pi * p[:, 0]), 1e-10, 21845, [0.8623592666320216], []),
    # a kink off the dyadic lines stalls two levels above the uniform cap,
    # after levels 0..UNIFORM_CAP + 2, instead of doubling on to EXTENDED_CAP
    "kink": (
        KINK_TRI,
        lambda p: np.abs(p[:, 0] - 0.5 * p[:, 1] - 0.16787944117144233),
        1e-8,
        1398706,
        [0.054299442368313945],
        [sum(4**m for m in range(Q.UNIFORM_CAP + 3))],
    ),
}


@pytest.mark.parametrize("name", sorted(TRIANGLE_PINS))
def test_triangle_means_refinement_pins(name, monkeypatch):
    verts, f, tol, evals, values, starts = TRIANGLE_PINS[name]
    got = _run_counted(monkeypatch, lambda g: triangle_means(g, verts, tol), f)
    assert got[1:] == (evals, starts)
    assert got[0].tolist() == pytest.approx(values, rel=1e-13)


# name: (los, size, integrand, tol, evals, values, adaptive starts)
SQUARE_PINS = {
    # the 16 and 32 grids agree exactly
    "dyadic-indicator": (
        [[0.0, 0.0]],
        1.0,
        lambda p: ((p[:, 0] < 0.5) & (p[:, 1] < 0.5)).astype(float),
        1e-8,
        1280,
        [0.25],
        [],
    ),
    # settles by the Richardson test
    "smooth": (
        [[0.0, 0.0], [0.5, 0.25]],
        0.5,
        lambda p: np.sin(np.pi * p[:, 0]) * np.cos(p[:, 1]),
        1e-10,
        174592,
        [0.6104235545019674, 0.5528849200346451],
        [],
    ),
    # oscillation of log(1/|x|) on the corner square, kinked on a circle
    # and singular at the corner: still unsettled after the 1024 grid
    "log-corner": (
        [[0.0, 0.0]],
        0.25,
        lambda p: np.abs(_log_reciprocal(p) - 1.75),
        1e-8,
        1422141,
        [0.3751297471731266],
        [sum((16 << k) ** 2 for k in range(7))],
    ),
}


@pytest.mark.parametrize("name", sorted(SQUARE_PINS))
def test_square_means_batch_refinement_pins(name, monkeypatch):
    los, size, f, tol, evals, values, starts = SQUARE_PINS[name]
    got = _run_counted(
        monkeypatch, lambda g: square_means_batch(g, np.asarray(los), size, tol), f
    )
    assert got[1:] == (evals, starts)
    assert got[0].tolist() == pytest.approx(values, rel=1e-13)


DYADIC_PIN = {
    "evals": 349440,
    "fallbacks": [0, 0, 0, 0],
    "sums": [0.36802824640536325, 1.4721129853110124, 5.888451941166439, 23.55380776464635],
    "osc_evals": 741120,
    "osc_fallbacks": [1, 3, 5, 9],
    "osc_sums": [0.37620308663009916, 0.7983514297963391, 1.651907950378026, 3.3640436449756708],
}


def test_dyadic_means_of_log_refinement_pins():
    # the means of log(1/|x|) all settle on the ladder; the oscillations
    # |w - w_Q| are kinked and some squares fall back to square_means_batch
    g = _Counted(_log_reciprocal)
    means, fallbacks = Q.dyadic_means(g, 3, 1e-5)
    assert (g.evals, fallbacks) == (DYADIC_PIN["evals"], DYADIC_PIN["fallbacks"])
    assert [m.sum() for m in means] == pytest.approx(DYADIC_PIN["sums"], rel=1e-13)
    g = _Counted(_log_reciprocal)
    oscs, fallbacks = Q.dyadic_means(
        g, 3, 1e-5, lambda values, ids, j: np.abs(values - means[j][ids])
    )
    assert (g.evals, fallbacks) == (DYADIC_PIN["osc_evals"], DYADIC_PIN["osc_fallbacks"])
    assert [o.sum() for o in oscs] == pytest.approx(DYADIC_PIN["osc_sums"], rel=1e-13)
