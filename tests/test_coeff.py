import dataclasses
import importlib
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmofem import coeff as C
from bmofem import fem as F
from bmofem import harness as X
from bmofem import quadrature as Q
from bmofem.errors import InvariantError, SingularityError
from bmofem.mesh import build_uniform_mesh, cell_areas, triangle_areas

# Frozen oracle: level-2 cell averages of (1 + 0.5 |log|x||), computed with
# degree-10 Gauss (Duffy) on 4^8 subtriangles per cell before the build
# (scripts/compute_reference_values.py), package cell order.
LOG_PROJECTION_L2_A11 = [
    1.87716130592797, 1.8771613059279264, 1.4305841257542777, 1.4973744997102776,
    1.1995193328602674, 1.2508044971173207, 1.04234822156269, 1.0818350847436595,
    1.4973744997102776, 1.4305841257542704, 1.3172309245792668, 1.3172309245792506,
    1.1483390136519416, 1.167954380716423, 1.0296060414938082, 1.043249078505642,
    1.2508044971172916, 1.1995193328602722, 1.1679543807164203, 1.1483390136519238,
    1.0629194813341682, 1.0629194814385523, 1.045302890235326, 1.0382128325148505,
    1.0818350846854654, 1.042348221611745, 1.0432490784263448, 1.0296060416205317,
    1.0382128324464845, 1.0453028900538854, 1.1065176278106899, 1.1065176278106974,
]

# Closed forms for the classical unbounded example on the unit square:
# mean of log(1/|x|) is (3 - ln2 - pi/2)/2, mean of |log(1/|x|) - mean| is
# (pi/4) exp(-(3 - ln2 - pi/2)), and the level sets are circular arcs, so
# |{|w - w_Q| > lam}| = (pi/4) exp(-(3 - ln2 - pi/2)) exp(-2 lam).
LOG_UNIT_SQUARE_MEAN = (3.0 - math.log(2.0) - math.pi / 2.0) / 2.0
LOG_UNIT_SQUARE_OSC = (math.pi / 4.0) * math.exp(-2.0 * LOG_UNIT_SQUARE_MEAN)


# ---------------------------------------------------------------------------
# fixtures and projection


def test_fixture_symmetry_and_coercivity(rng):
    pts = rng.uniform(0.01, 0.99, size=(200, 2))
    fixtures = [
        C.identity_coefficient(),
        C.smooth_coefficient(),
        C.log_singular_coefficient(0.5),
        C.checkerboard_coefficient(5.0),
    ]
    for A in fixtures:
        vals = A.evaluate(pts)
        assert np.array_equal(vals[:, 0, 1], vals[:, 1, 0])
        eigs = np.linalg.eigvalsh(vals)
        assert np.all(eigs[:, 0] >= A.alpha - 1e-12)


def test_project_constant_is_exact(meshes):
    A_h = C.project_coefficient(C.identity_coefficient(), meshes[2])
    assert np.array_equal(A_h.values, np.broadcast_to(np.eye(2), (32, 2, 2)))


def test_project_affine_uses_centroid():
    # average of diag(1 + x, 1) over the triangle (0,0),(h,0),(0,h) is
    # diag(1 + h/3, 1): the centroid rule is exact for affine integrands
    from bmofem.quadrature import triangle_means

    h = 0.25
    tri = np.array([[[0.0, 0.0], [h, 0.0], [0.0, h]]])

    def f(p, i):
        out = np.zeros((p.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + p[:, 0]
        out[:, 1, 1] = 1.0
        return out

    vals = triangle_means(f, tri, 1e-12)
    assert vals[0, 0, 0] == pytest.approx(1.0 + h / 3.0, abs=1e-15)
    assert vals[0, 1, 1] == 1.0


def test_project_log_singular_matches_gauss_oracle(meshes):
    A = C.log_singular_coefficient(0.5, x0=(0.0, 0.0))
    A_h = C.project_coefficient(A, meshes[2], rel_tol=1e-6)
    oracle = np.asarray(LOG_PROJECTION_L2_A11)
    assert np.max(np.abs(A_h.values[:, 0, 0] - oracle)) <= 1e-6
    assert np.max(np.abs(A_h.values[:, 1, 1] - oracle)) <= 1e-6
    assert np.max(np.abs(A_h.values[:, 0, 1])) == 0.0


def test_checkerboard_projection(meshes):
    A = C.checkerboard_coefficient(100.0)
    # level 0: both cells average the quadrant pattern exactly
    A_h0 = C.project_coefficient(A, meshes[0])
    assert np.allclose(A_h0.values[:, 0, 0], 50.5, atol=1e-12)
    # level >= 1: cells are quadrant-pure, values are exactly 1 or 100
    A_h2 = C.project_coefficient(A, meshes[2])
    assert set(np.unique(A_h2.values[:, 0, 0])) == {1.0, 100.0}


def test_fixture_parameter_guards():
    with pytest.raises(ValueError):
        C.log_singular_coefficient(-0.1)
    with pytest.raises(ValueError):
        C.checkerboard_coefficient(0.0)
    assert C.checkerboard_coefficient(0.5).alpha == 0.5
    with pytest.raises(InvariantError, match="symmetric"):
        C.constant_coefficient([[1.0, 0.5], [0.0, 1.0]])


SHIFTED_X0 = [(0.0, 0.0), (0.5, 0.5), (0.3, 0.7)]


def _kernel_points(x0):
    """Column-major batches: random points of the unit square, a midpoint
    grid, and points within 1e-9..1e-1 of x0 and near the circle |x - x0| = 1."""
    rng = np.random.default_rng(11)
    t = (np.arange(256) + 0.5) / 256
    grid = np.column_stack([np.tile(t, 256), np.repeat(t, 256)])
    angle = rng.uniform(0.0, 2.0 * np.pi, 1 << 14)
    radius = np.concatenate(
        [10.0 ** rng.uniform(-9, -1, 1 << 13), rng.uniform(0.99, 1.01, 1 << 13)]
    )
    ring = np.asarray(x0) + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return [np.asfortranarray(p) for p in (rng.random((1 << 16, 2)), grid, ring)]


@pytest.mark.parametrize("x0", SHIFTED_X0)
def test_log_singular_coefficient_equals_the_norm_form(x0):
    # sqrt(dx * dx + dy * dy) adds the same two squares np.linalg.norm does
    A = C.log_singular_coefficient(0.5, x0)
    for pts in _kernel_points(x0):
        s = 1.0 + 0.5 * np.abs(np.log(np.linalg.norm(pts - np.asarray(x0), axis=1)))
        want = np.zeros((pts.shape[0], 2, 2))
        want[:, 0, 0] = want[:, 1, 1] = s
        assert np.array_equal(A.evaluate(pts), want)


@pytest.mark.parametrize("x0", SHIFTED_X0)
def test_log_reciprocal_agrees_with_hypot_form(x0):
    w = C.log_reciprocal_scalar(x0)
    for pts in _kernel_points(x0):
        want = -np.log(np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1]))
        got = w.evaluate(pts)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4.5e-16 + 1e-15 * np.abs(want))


def test_projection_rel_tol_range(meshes):
    # every cell mean checks the range, so each caller of cell_means does
    A = C.identity_coefficient()
    A_h = C.project_coefficient(A, meshes[1])
    for tol in (1e-3, 1e-13):
        for run in (
            lambda: C.project_coefficient(A, meshes[1], rel_tol=tol),
            lambda: F.project_rhs(lambda p: p, meshes[1], tol),
            lambda: C.coefficient_error(A, A_h, 2.0, rel_tol=tol),
            lambda: C.cell_abs_means(C.ScalarField(_wave), meshes[1], tol),
        ):
            with pytest.raises(ValueError, match="rel_tol"):
                run()


@settings(deadline=None, max_examples=15)
@given(c=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_projection_commutes_with_shift_exact_fields(c):
    # affine fields are integrated exactly, so the shift commutes to
    # rounding error
    mesh = build_uniform_mesh(2)

    def base(p):
        out = np.zeros((p.shape[0], 2, 2))
        out[:, 0, 0] = 2.0 + p[:, 0]
        out[:, 1, 1] = 3.0 - p[:, 1]
        out[:, 0, 1] = out[:, 1, 0] = 0.25 * p[:, 0]
        return out

    A = C.CoefficientField(base, 1.0, "affine")
    shifted = C.CoefficientField(
        lambda p: base(p) + c * np.eye(2), 1.0, "affine-shifted"
    )
    lhs = C.project_coefficient(shifted, mesh).values
    rhs = C.project_coefficient(A, mesh).values + c * np.eye(2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_projection_commutes_with_shift_log_fixture(meshes):
    # adaptively integrated fields may stop at different uniform levels
    # once shifted, so the defect is bounded by the quadrature tolerance
    A = C.log_singular_coefficient(0.5)
    shifted = C.CoefficientField(
        lambda p: A.evaluate(p) + 2.0 * np.eye(2), 1.0, "log-shifted"
    )
    lhs = C.project_coefficient(shifted, meshes[3], rel_tol=1e-6).values
    rhs = C.project_coefficient(A, meshes[3], rel_tol=1e-6).values + 2.0 * np.eye(2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-3


# ---------------------------------------------------------------------------
# coercivity


def test_coercivity_identity_and_diagonal(meshes):
    assert C.coercivity_of_projection(
        C.project_coefficient(C.identity_coefficient(), meshes[1])
    ) == 1.0
    A = C.constant_coefficient(np.diag([2.0, 3.0]))
    assert C.coercivity_of_projection(C.project_coefficient(A, meshes[1])) == 2.0


def test_coercivity_log_fixture_levels(meshes):
    A = C.log_singular_coefficient(0.5)
    for level in range(4):
        A_h = C.project_coefficient(A, meshes[level])
        assert C.coercivity_of_projection(A_h) >= A.alpha - 1e-8


def test_coercivity_rejects_asymmetric(meshes):
    values = np.broadcast_to(np.eye(2), (meshes[0].num_cells, 2, 2)).copy()
    values[0, 0, 1] = 0.5
    bad = C.PiecewiseConstantMatrixField(meshes[0], values)
    with pytest.raises(InvariantError, match="cell 0"):
        C.coercivity_of_projection(bad)


# ---------------------------------------------------------------------------
# coefficient error


def test_coefficient_error_constant_zero(meshes):
    A = C.identity_coefficient()
    A_h = C.project_coefficient(A, meshes[3])
    assert C.coefficient_error(A, A_h, 2.0) <= 1e-12


def test_coefficient_error_affine_halves(meshes):
    def base(p):
        out = np.zeros((p.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + p[:, 0]
        out[:, 1, 1] = 1.0
        return out

    A = C.CoefficientField(base, 1.0, "affine")
    errs = [
        C.coefficient_error(A, C.project_coefficient(A, meshes[l]), 2.0)
        for l in (3, 4)
    ]
    assert 0.45 <= errs[1] / errs[0] <= 0.55


def test_coefficient_error_log_decreases(meshes):
    A = C.log_singular_coefficient(0.5)
    errs = [
        C.coefficient_error(A, C.project_coefficient(A, meshes[l]), 2.0)
        for l in (1, 2, 3)
    ]
    assert errs[2] < errs[1] < errs[0]


def test_coefficient_error_nonincreasing_other_fixtures(meshes, sampled_csv_path):
    # checkerboard: positive at level 0, exactly zero once cells align
    cb = C.checkerboard_coefficient(5.0)
    errs = [
        C.coefficient_error(cb, C.project_coefficient(cb, meshes[l]), 2.0)
        for l in (0, 1, 2)
    ]
    assert errs[0] > 0.0
    assert errs[1] == 0.0 and errs[2] == 0.0
    sampled = C.load_sampled_coefficient(sampled_csv_path)
    s_errs = [
        C.coefficient_error(sampled, C.project_coefficient(sampled, meshes[l]), 2.0)
        for l in (1, 2, 3)
    ]
    assert s_errs[2] < s_errs[1] < s_errs[0]


def test_coefficient_error_r_range(meshes):
    A = C.identity_coefficient()
    A_h = C.project_coefficient(A, meshes[1])
    with pytest.raises(ValueError):
        C.coefficient_error(A, A_h, 1.05)
    with pytest.raises(ValueError):
        C.coefficient_error(A, A_h, 11.0)


# ---------------------------------------------------------------------------
# maximal functions


def _cells_containing_barycentric(mesh, x):
    """The former cells_containing: a 2x2 barycentric solve per candidate
    cell in the grid squares around x."""
    x = np.asarray(x, dtype=float)
    n = 2**mesh.level
    h = 1.0 / n
    gx, gy = x / h
    cand_i = {int(math.floor(gx)), int(math.ceil(gx)) - 1}
    cand_j = {int(math.floor(gy)), int(math.ceil(gy)) - 1}
    out = []
    for i in cand_i:
        for j in cand_j:
            if not (0 <= i < n and 0 <= j < n):
                continue
            for cell in (2 * (j * n + i), 2 * (j * n + i) + 1):
                tri = mesh.vertices[mesh.cells[cell]]
                d = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
                ab = np.linalg.solve(d, x - tri[0])
                if ab[0] >= -1e-12 and ab[1] >= -1e-12 and ab.sum() <= 1 + 1e-12:
                    out.append(cell)
    return sorted(set(out))


@pytest.mark.parametrize("level", range(6))
def test_cells_containing_matches_barycentric_tests(meshes, level):
    mesh = meshes[level]
    tri = mesh.cell_coordinates()
    edge_midpoints = 0.5 * (tri + np.roll(tri, 1, axis=1)).reshape(-1, 2)
    points = np.vstack(
        [
            mesh.vertices,
            np.unique(edge_midpoints, axis=0),
            tri.mean(axis=1),
            np.random.default_rng(level).random((200, 2)),
        ]
    )
    for x in points:
        assert C.cells_containing(mesh, x) == _cells_containing_barycentric(mesh, x), x


def test_cells_containing_rejects_a_point_outside_the_unit_square(meshes):
    with pytest.raises(ValueError, match="outside the unit square"):
        C.cells_containing(meshes[1], (0.5, 1.5))


# ---------------------------------------------------------------------------
# BMO seminorm estimate


def test_bmo_constant_zero():
    w = C.ScalarField(lambda p: np.full(p.shape[0], 7.0), "const")
    assert C.bmo_seminorm_estimate(w, 3) <= 1e-12


def test_bmo_half_indicator():
    # w_Q = 1/2 on the unit square and |w - 1/2| = 1/2 everywhere
    w = C.ScalarField(lambda p: (p[:, 0] < 0.5).astype(float), "half")
    # every sum on the shared ladder is exact for 0/1 data
    assert C.bmo_seminorm_estimate(w, 1) == 0.5


def test_bmo_log_matches_closed_form_and_saturates():
    w = C.log_reciprocal_scalar()
    est3 = C.bmo_seminorm_estimate(w, 3)
    est6 = C.bmo_seminorm_estimate(w, 6)
    # scale invariance: every corner square has the unit-square oscillation
    assert est3 == pytest.approx(LOG_UNIT_SQUARE_OSC, abs=5e-5)
    assert est6 == pytest.approx(LOG_UNIT_SQUARE_OSC, abs=5e-5)
    assert est6 - est3 <= 0.2 * est3


def test_bmo_monotone_in_depth():
    w = C.ScalarField(
        lambda p: np.sin(3.0 * p[:, 0]) + np.cos(2.0 * p[:, 1]), "wave"
    )
    estimates = [C.bmo_seminorm_estimate(w, d) for d in (1, 2, 3, 4)]
    assert all(b >= a - 1e-15 for a, b in zip(estimates, estimates[1:]))


@pytest.mark.parametrize("depth", [0, C.MAX_BMO_DEPTH + 1])
def test_bmo_seminorm_estimate_depth_range(depth):
    with pytest.raises(ValueError, match="depth"):
        C.bmo_seminorm_estimate(C.log_reciprocal_scalar(), depth)


class RecordingField:
    """Scalar field that records the size of every evaluate batch and
    whether each was column-major."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []
        self.column_major = set()

    def evaluate(self, points):
        self.batches.append(points.shape[0])
        self.column_major.add(points.flags.f_contiguous)
        return self.fn(points)


def _wave(p):
    return np.sin(3.0 * p[:, 0]) + np.cos(2.0 * p[:, 1])


# the log scalar without its radial declaration, so that the dyadic
# ladder and the square rule still meet a kinked, singular field
UNDECLARED_LOG = C.ScalarField(C.log_reciprocal_scalar().evaluate, "log-reciprocal")

PYRAMID_FIELDS = {
    "log": C.log_reciprocal_scalar(),
    "half": C.ScalarField(lambda p: (p[:, 0] < 0.5).astype(float), "half"),
    "checkerboard": C.coefficient_entry(C.checkerboard_coefficient(5.0)),
    "wave": C.ScalarField(_wave, "wave"),
}


@pytest.mark.parametrize("name", sorted(PYRAMID_FIELDS))
def test_dyadic_oscillations_match_per_square_quadrature(name):
    w = PYRAMID_FIELDS[name]
    tol = C.DEFAULT_OSC_TOL
    ref_means, ref_oscs = zip(*(C.generation_oscillation_means(w, j, tol) for j in range(5)))
    for depth in range(5):
        means, oscs, fallbacks = C.dyadic_oscillations(w, depth, tol)
        assert len(means) == len(oscs) == len(fallbacks) == depth + 1
        for j in range(depth + 1):
            for got, want in ((means[j], ref_means[j]), (oscs[j], ref_oscs[j])):
                assert got.shape == want.shape == (4**j,)
                assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


def test_dyadic_oscillations_fall_back_only_where_squares_do_not_settle():
    # log(1/|x|) leaves the pyramid only at the singular corner and where
    # |w - w_Q| has a kink; the half indicator never leaves it
    _, _, fallbacks = C.dyadic_oscillations(UNDECLARED_LOG, 3)
    assert 1 <= sum(fallbacks) < sum(4**j for j in range(4))
    _, _, fallbacks = C.dyadic_oscillations(PYRAMID_FIELDS["half"], 3)
    assert fallbacks == [0, 0, 0, 0]


def _fine_grid_abs_mean(w, lo, size, n=4096):
    """|w| averaged on an n x n midpoint grid, in strips."""
    t = (np.arange(n) + 0.5) * (size / n)
    total = 0.0
    for r0 in range(0, n, 256):
        y = lo[1] + t[r0 : r0 + 256]
        pts = np.column_stack([np.tile(lo[0] + t, y.size), np.repeat(y, n)])
        total += np.abs(w.evaluate(pts)).sum()
    return total / (n * n)


@pytest.mark.parametrize("name", ["log", "checkerboard", "smooth"])
def test_abs_means_pyramid_matches_direct_quadrature(name):
    w = {
        "log": C.log_reciprocal_scalar(),
        "checkerboard": C.coefficient_entry(C.checkerboard_coefficient(5.0)),
        "smooth": C.coefficient_entry(C.smooth_coefficient()),
    }[name]
    tol = C.DEFAULT_SQUARE_TOL
    pyramid = C.abs_means_pyramid(w, 4, tol)
    assert len(pyramid) == 5
    # the finest generation is square quadrature itself
    assert np.array_equal(pyramid[4], C.generation_abs_means(w, 4, tol))
    disputed = 0
    for j, got in enumerate(pyramid):
        want = C.generation_abs_means(w, j, tol)
        bound = 2.0 * tol * np.maximum(1.0, np.abs(want))
        for k in np.flatnonzero(np.abs(got - want) > bound):
            # The direct rule can miss its tolerance where |w| has a kink
            # (|log r| at r = 1); there the pyramid must match a 4096^2
            # midpoint mean, itself within 1e-9 of the exact value.
            disputed += 1
            n = 2**j
            lo = np.array([k % n, k // n]) / n
            fine = _fine_grid_abs_mean(w, lo, 1.0 / n)
            assert abs(got[k] - fine) <= tol * max(1.0, abs(fine))
    assert disputed <= 2


def test_dyadic_means_evaluates_each_grid_once_in_bounded_strips():
    rec = RecordingField(_wave)
    means, fallbacks = Q.dyadic_means(rec.evaluate, 6, C.DEFAULT_OSC_TOL)
    assert fallbacks == [0] * 7
    assert max(rec.batches) <= Q._CHUNK
    assert rec.column_major == {True}
    assert sum(rec.batches) == sum(4**g for g in range(4, 13))
    assert means[0][0] == pytest.approx(
        (1.0 - math.cos(3.0)) / 3.0 + math.sin(2.0) / 2.0, abs=C.DEFAULT_OSC_TOL
    )


def test_dyadic_means_do_not_depend_on_the_strip_size(monkeypatch):
    w = UNDECLARED_LOG
    means, oscs, fallbacks = C.dyadic_oscillations(w, 3)
    # 2^10-point strips: from 64 rows down to 2 rows, inside one square
    monkeypatch.setattr(Q, "STRIP_POINTS", 1 << 10)
    s_means, s_oscs, s_fallbacks = C.dyadic_oscillations(w, 3)
    assert s_fallbacks == fallbacks
    for got, want in zip(s_means + s_oscs, means + oscs):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_dyadic_oscillations_name_a_singular_ladder_node():
    # non-finite at (1/32, 1/32), the first node of the 16 x 16 grid
    c = 1.0 / 32.0
    w = C.ScalarField(lambda p: np.log(np.hypot(p[:, 0] - c, p[:, 1] - c)), "shifted-log")
    with pytest.raises(SingularityError) as info, np.errstate(divide="ignore"):
        C.dyadic_oscillations(w, 2)
    assert info.value.point == (c, c)


def _traced_peak(run):
    """Peak bytes traced by tracemalloc while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bmo_kernels_keep_their_point_buffers_small():
    # in chunk units (one float per point of a full batch): every square
    # grid, the singular corner's 1024^2 one too, comes in batches of at
    # most a chunk, and no tiled offsets or stacked copies are made
    chunk = Q._CHUNK * 8
    w = UNDECLARED_LOG
    # a many-square batch: planar nodes (2), its ids (1), the field's result
    # and temporary (2), |w| (1); under one more for the refinement's
    # per-square arrays over 1024 squares
    assert _traced_peak(lambda: C.generation_abs_means(w, 5)) <= 8 * chunk
    # a fallback square's row block: planar nodes (2), the field's result
    # and temporary (2), the gathered centres, distances and their absolute
    # values (3); plus 10 floats per square of generations 0..6: the
    # ladder's sums (3), means and centres (2), and the finest generation's
    # ladder means and refinement arrays
    squares = sum(4**j for j in range(7))
    assert _traced_peak(lambda: C.dyadic_oscillations(w, 6)) <= 7 * chunk + 10 * squares * 8
    # a strip: planar nodes (2), its values (1), their finite subset,
    # deviations and absolute deviations (3), with masks under one more
    square = C.DyadicSquare(0, 0, 0)
    jn = lambda: C.john_nirenberg_check(w, square, [0.5, 1.0, 2.0, 3.0], 10)
    assert _traced_peak(jn) <= 7 * chunk


# ---------------------------------------------------------------------------
# The polar rule: log_reciprocal_scalar declares its radial profile, so its
# dyadic square means and oscillations are exact, with no fallback.


@pytest.fixture(scope="module")
def polar_pyramid():
    """dyadic_oscillations of the declared log scalar, all generations."""
    return C.dyadic_oscillations(C.log_reciprocal_scalar(), C.MAX_BMO_DEPTH)


def test_polar_corner_squares_match_the_closed_forms(polar_pyramid):
    means, oscs, fallbacks = polar_pyramid
    assert fallbacks == [0] * (C.MAX_BMO_DEPTH + 1)
    assert abs(oscs[0][0] - LOG_UNIT_SQUARE_OSC) <= 1e-13
    for j in range(C.MAX_BMO_DEPTH + 1):
        # on [0, 2^-j]^2, log(1/|x|) is j ln 2 plus its unit-square values
        assert abs(means[j][0] - (LOG_UNIT_SQUARE_MEAN + j * math.log(2.0))) <= 1e-13
        assert abs(oscs[j][0] - oscs[0][0]) <= 1e-13


def test_polar_top_row_matches_square_quadrature(polar_pyramid):
    # far from the singularity the square rule settles at tol 1e-10
    n = 2**8
    los = np.column_stack([np.arange(n), np.full(n, n - 1)]) / n
    w = C.log_reciprocal_scalar()
    want = Q.square_means_batch(lambda p, i: w.evaluate(p), los, 1.0 / n, 1e-10)
    assert np.max(np.abs(polar_pyramid[0][8][-n:] - want)) <= 1e-12


def test_polar_rule_settles_the_kinked_squares(polar_pyramid):
    means, oscs, _ = polar_pyramid
    # [0, 1/16] x [3/16, 1/4]: |w - w_Q| has a kink inside it, where the
    # cell rule missed its tolerance by 9.6e-5 (an 8192^2 midpoint grid
    # gives 0.0703282)
    assert abs(means[4][3 * 16] - 1.50970191775) <= 1e-11
    assert abs(oscs[4][3 * 16] - 0.0703282081755) <= 1e-11
    # |w| over [0.75, 0.875] x [0.5, 0.625], crossed by its kink at r = 1,
    # where square_means_batch misses its tolerance
    got = C.generation_abs_means(C.log_reciprocal_scalar(), 3)[6 + 4 * 8]
    assert abs(got - 0.0312998356785) <= 1e-12


def test_declared_scalar_square_means_never_sample_it(monkeypatch):
    w = C.log_reciprocal_scalar()
    calls = []

    def evaluate(points):
        calls.append(points.shape[0])
        return w.evaluate(points)

    spy = dataclasses.replace(w, evaluate=evaluate)
    C.dyadic_oscillations(spy, 6)
    C.generation_abs_means(spy, 5)
    # the John-Nirenberg table and its w_Q are exact too
    monkeypatch.setattr(Q, "square_means_batch", None)
    table = C.john_nirenberg_check(spy, C.DyadicSquare(0, 0, 0), [1.0], 4)
    assert calls == []
    assert table == C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1.0], 4)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.5, 0.5), (0.3, 0.55)])
def test_polar_rule_matches_the_ladder(x0):
    # the ladder falls back on the squares that hold the singularity, and
    # at (0.3, 0.55) that lies inside them
    w = C.log_reciprocal_scalar(x0)
    tol = C.DEFAULT_OSC_TOL
    means, oscs, _ = C.dyadic_oscillations(w, 4)
    l_means, l_oscs, _ = C.dyadic_oscillations(C.ScalarField(w.evaluate, "undeclared"), 4)
    for got, want in zip(means + oscs, l_means + l_oscs):
        assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    if x0 == (0.0, 0.0):
        # where every square has the singularity at a corner or not at all
        assert all(np.max(np.abs(got - want)) <= 1e-9 for got, want in zip(means, l_means))


def test_polar_rule_keeps_its_buffers_small():
    # in chunk units: one batch's radii, cosh values, ids and the profile's
    # temporaries, under 12; plus 20 floats per square of generations
    # 0..6 for the corners, sides, means, centres and kink radii
    chunk = Q._CHUNK * 8
    squares = sum(4**j for j in range(7))
    peak = _traced_peak(lambda: C.dyadic_oscillations(C.log_reciprocal_scalar(), 6))
    assert peak <= 12 * chunk + 20 * squares * 8


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, 0.6), (1.3, -0.2)])
def test_polar_dyadic_means_from_the_finest_edges_match_the_polygon_rule(x0):
    # the means of every generation, from one pass over the finest grid's
    # edges and the four-children sums, against each square's own polygon
    # rule: within 1e-13 relative, floor 1, at every depth (measured: at
    # most 5.9e-14, at generation 7 of depth 8; a 30-digit reference puts
    # the polygon rule farther off there than the edge pass); the |w|
    # means of generation_abs_means take the same pass
    w = C.log_reciprocal_scalar(x0)
    for depth in range(C.MAX_BMO_DEPTH + 1):
        means, _, _ = C.dyadic_oscillations(w, depth)
        assert len(means) == depth + 1
        for j, got in enumerate(means):
            want = C._radial_square_means(w, *C._generation_grid(j))
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (depth, j)
    for level in range(C.MAX_BMO_DEPTH + 1):
        want = C._radial_square_means(w, *C._generation_grid(level), 0.0)
        got = C.generation_abs_means(w, level)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, want)), level


def test_polar_dyadic_oscillations_take_one_polygon_pass(monkeypatch):
    # the means come from the generation-6 grid edges alone; only the
    # oscillations, each about its own square's mean, take the polygon rule
    polygons, edge_shapes = [], []
    polygon_rule, edge_rule = Q._radial_line_polygons, Q._radial_line_edges

    def polygon_spy(line, centre, polys, *level):
        polygons.append(len(polys))
        return polygon_rule(line, centre, polys, *level)

    def edge_spy(line, centre, starts, ends, *level):
        edge_shapes.append(starts.shape[:2])
        return edge_rule(line, centre, starts, ends, *level)

    monkeypatch.setattr(Q, "_radial_line_polygons", polygon_spy)
    monkeypatch.setattr(Q, "_radial_line_edges", edge_spy)
    C.dyadic_oscillations(C.log_reciprocal_scalar(), 6)
    assert polygons == [sum(4**j for j in range(7))]
    assert edge_shapes == [(65, 64), (64, 65)]


# ---------------------------------------------------------------------------
# The polar rule on cells: log_singular_coefficient declares itself
# (1 + beta |w|) I, so its cell means and L^2 error are exact.

# level-4 cell 189 (upper cell of grid square (13, 5)), which the circle
# r = 1 crosses: brute-force means from 4^9..4^11 sub-centroids,
# Richardson-extrapolated, give 1.0187976066
LOG_CELL_189 = 1.0187976066107
# int |log r| over the level-0 cell (0, 0), (1, 0), (1, 1) is
# pi/4 - 3/4 + ln(2)/4 in polar coordinates, and the cell's area is 1/2
LOG_CORNER_CELL = 1.0 + 0.5 * (math.pi / 2.0 - 1.5 + math.log(2.0) / 2.0)


def _undeclared(A):
    """A without its isotropic declaration: cell means by quadrature."""
    return dataclasses.replace(A, isotropic=None)


def _restricted(means, level):
    """Level-`level` cell means from those of level + 1: each cell is four
    congruent children (lower ll, lr, ur; upper ll, ur, ul of each grid
    square)."""
    n = 2**level
    f = means.reshape(2 * n, 2 * n, 2)  # (grid row, grid column, lower/upper)
    out = np.empty((n, n, 2))
    out[..., 0] = f[::2, ::2, 0] + f[::2, 1::2, 0] + f[::2, 1::2, 1] + f[1::2, 1::2, 0]
    out[..., 1] = f[::2, ::2, 1] + f[1::2, ::2, 1] + f[1::2, ::2, 0] + f[1::2, 1::2, 1]
    return out.ravel() / 4.0


def test_log_projection_pins_the_exact_cell_means(meshes):
    A = C.log_singular_coefficient(0.5)
    values = C.project_coefficient(A, meshes[4]).values
    assert abs(values[189, 0, 0] - LOG_CELL_189) <= 1e-13 * LOG_CELL_189
    corner = C.project_coefficient(A, meshes[0]).values
    assert np.all(np.abs(corner[:, 0, 0] - LOG_CORNER_CELL) <= 1e-13 * LOG_CORNER_CELL)
    for v in (values, corner):
        assert np.array_equal(v[:, 0, 0], v[:, 1, 1])
        assert np.all(v[:, 0, 1] == 0.0) and np.all(v[:, 1, 0] == 0.0)


def test_log_abs_cell_means_are_exact_across_the_unit_circle():
    # the circle r = 1 crosses level-5 cell 126; a 4^10-centroid brute
    # force gives 0.0096779627, the refined triangle rule 0.0095882
    mesh = build_uniform_mesh(5)
    assert np.array_equal(
        mesh.cell_coordinates()[126], [[0.96875, 0.03125], [1.0, 0.03125], [1.0, 0.0625]]
    )
    got = C.cell_abs_means(C.log_reciprocal_scalar(), mesh)[126]
    assert abs(got - 0.00967796595) <= 5e-12


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, 0.7)])
def test_polar_cell_means_match_the_triangle_rule(meshes, x0):
    # on cells that neither touch x0 nor meet r = 1 the refined rule
    # settles, at rel_tol 1e-9
    level = 4
    mesh = meshes[level]
    w = C.log_reciprocal_scalar(x0)
    tris = mesh.cell_coordinates()
    r = np.hypot(tris[..., 0] - x0[0], tris[..., 1] - x0[1])
    far = (r.min(axis=1) > 2.0 ** -level * math.sqrt(2.0)) & (
        (r.max(axis=1) < 1.0) | (r.min(axis=1) > 1.0 + 2.0 ** -level * math.sqrt(2.0))
    )
    assert 300 <= far.sum() < mesh.num_cells
    want = Q.triangle_means(lambda p, ids: np.abs(w.evaluate(p)), tris[far], 1e-9)
    got = C.cell_abs_means(w, mesh)[far]
    assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))
    for beta in (0.0, 0.5):
        A = C.log_singular_coefficient(beta, x0)
        values = C.project_coefficient(A, mesh).values[far]
        assert np.all(np.abs(values[:, 0, 0] - (1.0 + beta * want)) <= 1e-8 * values[:, 0, 0])


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, 0.7)])
def test_polar_cell_means_restrict_to_the_coarser_level(x0):
    w = C.log_reciprocal_scalar(x0)
    means = [C.cell_abs_means(w, build_uniform_mesh(level)) for level in range(2, 9)]
    for level, (coarse, fine) in enumerate(zip(means, means[1:]), start=2):
        assert np.max(np.abs(_restricted(fine, level) - coarse)) <= 1e-12


@pytest.mark.parametrize("level", [0, 3, 7])
def test_log_l2_error_matches_the_refined_route(meshes, level):
    A = C.log_singular_coefficient(0.5)
    A_h = C.project_coefficient(A, meshes[level])
    got = C.coefficient_error(A, A_h, 2.0)
    want = C.coefficient_error(_undeclared(A), A_h, 2.0)
    assert abs(got - want) <= 1e-4 * want
    # any A_h: the Frobenius norm expands in tr(A_h - I) and |A_h - I|^2
    other = C.project_coefficient(C.smooth_coefficient(), meshes[level])
    got = C.coefficient_error(A, other, 2.0)
    want = C.coefficient_error(_undeclared(A), other, 2.0)
    assert abs(got - want) <= 1e-4 * want


def test_log_l2_error_matches_the_cells_closed_form(meshes):
    # int_0^r (-log s - c)^2 s ds = r^2 (t^2/2 - t/2 + 1/4), t = log r + c;
    # |w| - m is w - m inside r = 1 and -(w + m) beyond it
    def closed(r, c):
        t = np.log(r) + c
        return r * r * (0.5 * t * t - 0.5 * t + 0.25)

    x0 = (0.3, 0.7)
    A = C.log_singular_coefficient(0.5, x0)
    for level in (0, 2, 5):
        mesh = meshes[level]
        A_h = C.project_coefficient(A, mesh)
        m = (A_h.values[:, 0, 0] - 1.0) / 0.5

        def H(r, ids):
            c = m[ids]
            beyond = closed(1.0, c) + closed(r, -c) - closed(1.0, -c)
            return np.where(r > 1.0, beyond, closed(r, c))

        cells = Q.radial_polygon_integrals(H, x0, mesh.cell_coordinates(), 1.0)
        want = math.sqrt(2.0 * 0.25 * cells.sum())
        assert abs(C.coefficient_error(A, A_h, 2.0) - want) <= 1e-12 * want


def _direct_l2_misfit(A, values, mesh):
    """||A - c||_{L^2} for the cell constants values on mesh, by the
    degree-4 rule on |A - c|^2 itself over the cells and pieces: exact, for
    the fields of degree at most 2 that declare it."""

    def misfit(p, ids):
        d = A.evaluate(p) - values[ids]
        return np.sum(d * d, axis=(1, 2))

    means = C.cell_means(misfit, mesh, 1e-6, breaks=A.breaks, degree=4)
    return math.sqrt(np.sum(means) * 0.5 / 4**mesh.level)


@pytest.mark.parametrize("level", [0, 4, 7])
def test_projection_with_l2_error_matches_the_two_calls(
    meshes, sampled_csv_path, nondyadic_csv_path, level
):
    # every declared fixture: A_h is project_coefficient's bit for bit; the
    # piecewise polynomial ones' one-pass error is the degree-4 rule on
    # |A - A_h|^2 within 1e-14, the trigonometric one's is
    # coefficient_error's bit for bit and the log ones' within 1e-12
    mesh = meshes[level]
    polynomial = [
        C.load_sampled_coefficient(sampled_csv_path),
        C.load_sampled_coefficient(nondyadic_csv_path),
        C.checkerboard_coefficient(100.0),
        C.checkerboard_coefficient(0.01),
        C.identity_coefficient(),
    ]
    for A in polynomial + [
        C.smooth_coefficient(),
        C.log_singular_coefficient(0.5),
        C.log_singular_coefficient(2.0, (0.3, 0.7)),
    ]:
        A_h, err, _ = C._projection_with_abs_means(A, mesh)
        want_h = C.project_coefficient(A, mesh)
        assert np.array_equal(A_h.values, want_h.values)
        if A in polynomial:
            want = _direct_l2_misfit(A, want_h.values, mesh)
            assert abs(err - want) <= 1e-14 * want
            if A.kind == "checkerboard" and level >= 1:
                assert err == 0.0
        elif A.trigonometric is not None:
            assert err == C.coefficient_error(A, want_h, 2.0)
        else:
            want = C.coefficient_error(A, want_h, 2.0)
            assert abs(err - want) <= 1e-12 * want


@pytest.mark.parametrize("level", [0, 3, 6])
def test_l2_misfit_moments_match_the_direct_rule(
    meshes, rng, sampled_csv_path, nondyadic_csv_path, level
):
    # for any cell constants c, not only the projection: V_T + |M_T - c|^2
    # is the rule's mean of |A - c|^2
    mesh = meshes[level]
    for A in (
        C.load_sampled_coefficient(sampled_csv_path),
        C.load_sampled_coefficient(nondyadic_csv_path),
        C.checkerboard_coefficient(100.0),
        C.constant_coefficient([[2.0, 0.3], [0.3, 3.0]]),
    ):
        A_h = C.project_coefficient(A, mesh)
        for values in (
            A_h.values + rng.uniform(-1.0, 1.0, A_h.values.shape),
            A_h.values * (1.0 + 1e-3 * rng.standard_normal((mesh.num_cells, 1, 1))),
            rng.uniform(0.5, 3.0, A_h.values.shape),
        ):
            c = C.PiecewiseConstantMatrixField(mesh, values)
            got = C.lp_misfit(A.evaluate, c, 2.0, 1e-6, A.breaks, A.degree)
            want = _direct_l2_misfit(A, values, mesh)
            assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "convergence", "rhs": "sin-cos", "p": 2.0, "levels": "1..3,5"},
        {"kind": "coeff-decay", "p": 2.0, "levels": "0..4"},
    ],
)
def test_sampled_studies_evaluate_each_node_once_per_level(
    monkeypatch, nondyadic_csv_path, config
):
    # the projection row cuts the cells once per level and evaluates the
    # coefficient at the 6 nodes of each uncut cell and piece, once
    grid_pieces, load = C._grid_pieces, C.load_sampled_coefficient
    log = []  # per cut: [level, points evaluated since]

    def cutting(level, breaks):
        log.append([level, 0])
        return grid_pieces(level, breaks)

    def loading(path):
        A = load(path)

        def evaluate(points):
            log[-1][1] += points.shape[0]
            return A.evaluate(points)

        return dataclasses.replace(A, evaluate=evaluate)

    monkeypatch.setattr(C, "_grid_pieces", cutting)
    monkeypatch.setattr(C, "load_sampled_coefficient", loading)
    cfg = X.config_from_dict({**config, "coeff": "sampled", "coeff_csv": nondyadic_csv_path})
    X.run_study(cfg)
    breaks = load(nondyadic_csv_path).breaks
    want = []
    for level in cfg.levels:
        _, parent, _ = grid_pieces(level, breaks)
        uncut = 2 * 4**level - np.unique(parent).size
        want.append([level, 6 * (uncut + parent.size)])
    assert sorted(log) == want


def test_log_fixture_with_beta_zero_is_the_identity(meshes):
    A = C.log_singular_coefficient(0.0, (0.3, 0.7))
    A_h = C.project_coefficient(A, meshes[3])
    assert np.array_equal(A_h.values, np.broadcast_to(np.eye(2), A_h.values.shape))
    assert C.coefficient_error(A, A_h, 2.0) == 0.0


def test_log_projection_does_not_depend_on_projection_tol(meshes):
    A = C.log_singular_coefficient(0.5)
    mesh = meshes[3]
    first = C.project_coefficient(A, mesh, 1e-12).values
    for tol in (1e-6, 1e-4):
        assert np.array_equal(C.project_coefficient(A, mesh, tol).values, first)
    A_h = C.project_coefficient(A, mesh)
    for tol in (1e-3, 1e-13):
        for run in (
            lambda: C.project_coefficient(A, mesh, tol),
            lambda: C.coefficient_error(A, A_h, 2.0, rel_tol=tol),
            lambda: C.cell_abs_means(C.log_reciprocal_scalar(), mesh, tol),
        ):
            with pytest.raises(ValueError, match="rel_tol"):
                run()


def test_declared_log_cell_means_never_sample_it(meshes, monkeypatch):
    calls = []

    def spy(points):
        calls.append(points.shape[0])
        raise AssertionError("sampled")

    A = C.log_singular_coefficient(0.5)
    w = dataclasses.replace(A.isotropic.w, evaluate=spy)
    A = dataclasses.replace(
        A, evaluate=spy, isotropic=dataclasses.replace(A.isotropic, w=w)
    )
    monkeypatch.setattr(Q, "triangle_means", None)
    mesh = meshes[5]
    A_h = C.project_coefficient(A, mesh)
    C.coefficient_error(A, A_h, 2.0)
    C.cell_abs_means(w, mesh)
    assert calls == []


def test_isotropic_form_needs_a_radial_scalar_and_nonnegative_beta():
    with pytest.raises(ValueError, match="isotropic"):
        C.IsotropicForm(0.5, C.ScalarField(_wave, "wave"))
    with pytest.raises(ValueError, match="isotropic"):
        C.IsotropicForm(-0.5, C.log_reciprocal_scalar())


def test_polar_cells_integrate_each_grid_edge_once(meshes):
    # against the polygon rule on every cell, which integrates each shared
    # edge twice
    w = C.log_reciprocal_scalar((0.3, 0.7))
    radial = w.radial
    mesh = meshes[4]

    def H(r, ids):
        return radial.antiderivative(r, 0.0)

    want = Q.radial_polygon_integrals(H, radial.centre, mesh.cell_coordinates())
    got = C._radial_cell_integrals(radial.line_integral, radial.centre, mesh)
    assert np.all(np.abs(got - want) <= 1e-14)


# ---------------------------------------------------------------------------
# The closed form: the log scalar declares the line integral of its radial
# antiderivative, so the means of w and of |w - c| over cells and polygons
# take no Gauss node.  The Gauss polar rule with kinks on is the slow path
# they are checked against.

LOG_RADIAL = C.log_reciprocal_scalar().radial


def _gauss_level(radial, c):
    """(H, kinks) of the Gauss polar rule for the integrals of w (c None)
    or of |w - c|, c one value or one per polygon id."""
    if c is None:
        return (lambda r, ids: radial.antiderivative(r, 0.0)), None
    c = np.asarray(c, dtype=float)
    rho = radial.level_radius(c)
    top = 2.0 * radial.antiderivative(rho, c)

    def H(r, ids):
        cc, at, tp = (c[ids], rho[ids], top[ids]) if c.ndim else (c, rho, top)
        p = radial.antiderivative(r, cc)
        np.subtract(tp, p, out=p, where=r > at)
        p *= np.sign(tp)
        return p

    return H, rho


def _closed_edges(radial, starts, ends, c=None):
    """quadrature._radial_line_edges for w (c None) or |w - c|."""
    if c is None:
        return Q._radial_line_edges(radial.line_integral, radial.centre, starts, ends)
    rho = radial.level_radius(c)
    top = 2.0 * radial.antiderivative(rho, c)
    return Q._radial_line_edges(radial.line_integral, radial.centre, starts, ends, c, rho, top)


def _gauss_cells(radial, mesh, c=None):
    """The cell integrals of w or |w - c| from the Gauss polar rule on each
    grid edge, as _radial_cell_integrals assembles them."""
    H, kinks = _gauss_level(radial, c)
    g = mesh.grid
    n = g.shape[0] - 1

    def edges(p, q):
        return Q.radial_edge_integrals(H, radial.centre, p, q, kinks)

    x, y, d = edges(g[:, :-1], g[:, 1:]), edges(g[:-1], g[1:]), edges(g[:-1, :-1], g[1:, 1:])
    out = np.empty((n, n, 2))
    out[..., 0] = x[:-1] + y[:, 1:] - d
    out[..., 1] = d - x[1:] - y[:, :-1]
    return out.reshape(-1)


LINE_DISTANCES = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0)
LINE_LENGTHS = (2.0**-12, 2.0**-6, 2.0**-2, 1.0)
# the edge's first position over its length, and the half chord of the
# circle where w = c over the length (None: a circle of half the line's
# distance, which the line misses), for 0, 1 and 2 crossings of the circle
LINE_CROSSINGS = {
    "0-inside": (0.5, 2.0),
    "0-outside": (0.5, 0.25),
    "0-missed": (0.5, None),
    "1": (0.0, 0.5),
    "2": (-0.5, 0.25),
}


def _line_scale(d, a, t, c):
    """d t (1 + |c| + |log r|), r the edge's farthest radius: the size of
    the integrand P d / r^2 times the length."""
    return d * t * (1.0 + abs(c) + abs(math.log(math.hypot(d, max(abs(a), abs(a + t))))))


@pytest.mark.parametrize("crossing", sorted(LINE_CROSSINGS))
def test_closed_form_edges_match_the_gauss_rule(crossing):
    # |w - c| along the edge from (a, d) to (a + t, d) about the origin,
    # d from 1e-12 to 2 and t from 2^-12 to 1: within 2e-15 of the scale
    # d t (1 + |c| + |log r|); reversed, the negated value within as much
    frac, chord = LINE_CROSSINGS[crossing]
    for d in LINE_DISTANCES:
        for t in LINE_LENGTHS:
            a = frac * t
            rho = 0.5 * d if chord is None else math.hypot(d, chord * t)
            c = -math.log(rho)
            p, q = np.array([[[a, d]]]), np.array([[[a + t, d]]])
            crossings = sum(a < s < a + t for s in (-chord * t, chord * t)) if chord else 0
            assert crossings == int(crossing[0])
            H, kinks = _gauss_level(LOG_RADIAL, c)
            want = Q.radial_edge_integrals(H, LOG_RADIAL.centre, p, q, kinks)[0, 0]
            got = _closed_edges(LOG_RADIAL, p, q, c)[0, 0]
            back = _closed_edges(LOG_RADIAL, q, p, c)[0, 0]
            scale = _line_scale(d, a, t, c)
            assert abs(got - want) <= 2e-15 * scale, (d, t)
            assert abs(back + want) <= 2e-15 * scale, (d, t)


def test_closed_form_edges_of_w_match_the_gauss_rule():
    # w itself, no kink: edges before, across, from, to and beyond the foot
    # of the perpendicular, within 2e-15 of the scale; reversed, negated
    for d in LINE_DISTANCES:
        for t in LINE_LENGTHS:
            for a in (-3.0 * t, -t, -0.5 * t, 0.0, 2.0 * t):
                p, q = np.array([[[a, d]]]), np.array([[[a + t, d]]])
                H, _ = _gauss_level(LOG_RADIAL, None)
                want = Q.radial_edge_integrals(H, LOG_RADIAL.centre, p, q)[0, 0]
                scale = _line_scale(d, a, t, 0.0)
                assert abs(_closed_edges(LOG_RADIAL, p, q)[0, 0] - want) <= 2e-15 * scale
                assert abs(_closed_edges(LOG_RADIAL, q, p)[0, 0] + want) <= 2e-15 * scale


def test_closed_form_edges_near_the_centre_stay_finite():
    # edges from the centre lie on lines through it and give 0, as in the
    # Gauss rule; lines 1e-170 from it, where d^2 underflows to 0, give
    # finite values below 1e-160, with an end at the foot of the
    # perpendicular too, for w and for |w - c| with the circle crossed
    starts = np.array([[[0.0, 0.0], [0.0, 0.0], [0.0, 1e-170], [-1.0, 1e-170], [-1.0, 1e-170]]])
    ends = np.array([[[1.0, 0.5], [0.0, 1.0], [1.0, 1e-170], [0.0, 1e-170], [1.0, 1e-170]]])
    for c in (None, 0.0, 2.0):
        got = _closed_edges(LOG_RADIAL, starts, ends, c)[0]
        assert np.all(got[:2] == 0.0)
        assert np.all(np.isfinite(got)) and np.all(np.abs(got) <= 1e-160)
    # the declared line integral itself, at d = 0 and d^2 = 0, from or to
    # the foot
    d = np.array([0.0, 1e-170, 1e-170, 1e-170])
    a = np.array([0.0, 0.0, -1.0, -0.5])
    values = LOG_RADIAL.line_integral(d, a, np.ones(4), 0.5)
    assert np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1e-160)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.5, 0.5), (0.3, 0.55), (0.3, 0.7)])
def test_closed_form_cell_integrals_match_the_gauss_rule(x0):
    # every cell of levels 0..9, for w and for |w - c| with c = 0 (the |w|
    # of the projection) and c = 1.5: within 1e-16 plus 2 ulps of the
    # integral
    w = C.log_reciprocal_scalar(x0)
    for level in range(10):
        mesh = build_uniform_mesh(level)
        for c in (None, 0.0, 1.5):
            want = _gauss_cells(w.radial, mesh, c)
            got = C._radial_means(w, mesh, 1.0, c)
            assert np.all(np.abs(got - want) <= 1e-16 + 2.0**-51 * np.abs(want)), (level, c)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.5, 0.5), (0.3, 0.55)])
def test_closed_form_square_means_match_the_gauss_rule(rng, x0):
    # the squares of generations 0..6: w_Q, |w - w_Q| with each square's
    # own w_Q, and |w - c| with a random c per square in [-1, 4], all
    # within 1e-13 absolute, and relative for means above 1 (with c = 3.49
    # on a generation-6 square by the origin, of mean 3.68, the Gauss rule
    # is 8.2e-14 off a 40-digit evaluation of the closed form, which is
    # 3.2e-14 off)
    w = C.log_reciprocal_scalar(x0)
    grids = [C._generation_grid(j) for j in range(7)]
    los = np.concatenate([lo for lo, _ in grids])
    sizes = np.concatenate([np.full(lo.shape[0], size) for lo, size in grids])
    polys = los[:, None, :] + C._UNIT_SQUARE * sizes[:, None, None]
    areas = sizes * sizes
    means = C._radial_means(w, polys, areas)
    for c, got in [
        (None, means),
        (means, C._radial_means(w, polys, areas, means)),
        (rng.uniform(-1.0, 4.0, len(polys)), None),
    ]:
        if got is None:
            got = C._radial_means(w, polys, areas, c)
        H, kinks = _gauss_level(w.radial, c)
        want = Q.radial_polygon_integrals(H, w.radial.centre, polys, kinks) / areas
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_cell_mean_passes_hold_their_output_and_one_block():
    # triangle_means refines blocks of _CHUNK cells, so a cell-mean pass
    # holds its output (one value per cell), the cell coordinates it reads
    # off the mesh (6 floats per cell) and one block's arrays, whatever the
    # level.  In chunk units (one float per cell of a block, or per point
    # of a full batch), for values of at most 4 floats (a 2x2 matrix): the
    # block's gathered vertices and their transposed copy (12); the
    # refinement's means, previous and current level, both extrapolations
    # and the level sum's scaled previous means (6 x 4); one batch's planar
    # nodes with two temporaries (6), its ids (1), its values (4) and the
    # field's own temporaries (under 12).  That is under 64 chunks (8 MiB);
    # passes over the whole mesh at once take 16-34 MiB above the output at
    # level 8
    chunk = Q._CHUNK * 8
    mesh = build_uniform_mesh(8)
    cell = mesh.num_cells * 8  # one float per cell
    log = C.log_singular_coefficient(0.5)
    A_h = C.project_coefficient(log, mesh)
    f_h = F.project_rhs(lambda p: p, mesh)
    runs = [
        (lambda: C.project_coefficient(log, mesh), 4 * cell),
        # by the fixed rule, which takes the same blocks
        (lambda: C.project_coefficient(C.identity_coefficient(), mesh), 4 * cell),
        (lambda: F.project_rhs(lambda p: p, mesh), 2 * cell),
        # the misfits return a number; their output is the cell means of
        # |f - c|^p
        (lambda: C.coefficient_error(log, A_h, 2.0), cell),
        (lambda: X.data_oscillation(lambda p: p, f_h, 2.0), cell),
    ]
    for run, output in runs:
        assert _traced_peak(run) <= output + 6 * cell + 64 * chunk


def test_bmo_depths_fit_the_chunk_sized_ladder():
    # bmo_seminorm_estimate accepts every depth up to MAX_BMO_DEPTH, so the
    # ladder must reach it with strips of at most a chunk
    assert Q.STRIP_POINTS <= Q._CHUNK
    assert C.MAX_BMO_DEPTH <= Q.MAX_LADDER_DEPTH
    finest = Q.MAX_LADDER_DEPTH + Q._RUNG0 + Q._RUNGS - 1
    # the finest ladder grid, and the John-Nirenberg grid at depth 12: the
    # first strip holds at least one whole row and at most a chunk
    for g in (finest, 12):
        rec = RecordingField(_wave)
        r0, pts, values = next(Q._ladder_strips(rec.evaluate, g))
        assert values.shape[1] == 2**g
        assert rec.batches == [values.size] and values.size <= Q._CHUNK


def test_dyadic_means_depth_range():
    with pytest.raises(ValueError):
        Q.dyadic_means(_wave, -1, 1e-5)
    with pytest.raises(ValueError):
        Q.dyadic_means(_wave, Q.MAX_LADDER_DEPTH + 1, 1e-5)


# ---------------------------------------------------------------------------
# John-Nirenberg distribution check


def test_jn_constant_zero_fractions():
    w = C.ScalarField(lambda p: np.full(p.shape[0], 1.0), "const")
    table = C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [0.5, 1.0], 6)
    assert all(frac == 0.0 for _, frac in table)


def test_jn_tiny_lambda_is_full_measure():
    w = C.log_reciprocal_scalar()
    table = C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1e-15], 8)
    assert table[0][1] >= 0.999


def test_jn_log_matches_closed_form_tail():
    w = C.log_reciprocal_scalar()
    lambdas = [1.0, 2.0, 3.0, 4.0]
    table = C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), lambdas, 10)
    fractions = [frac for _, frac in table]
    # monotone nonincreasing
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))
    # exponential tail with rate exactly 2, from the disc-square areas
    for lam, frac in table:
        exact = LOG_UNIT_SQUARE_OSC * math.exp(-2.0 * lam)
        assert abs(frac - exact) <= 1e-14
    slopes = np.diff(np.log(fractions))
    assert max(abs(slopes)) / min(abs(slopes)) <= 3.0


@pytest.mark.parametrize("lam", [700.0, 800.0, 1e4])
def test_jn_huge_lambda_keeps_the_level_radius_finite(lam):
    # w_Q -+ lambda beyond +-709 took e^(-c) to 0 or inf, with an overflow
    # warning; the held radius gives the same empty tail with none
    w = C.log_reciprocal_scalar()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [lam], 4)
        radii = w.radial.level_radius(np.array([-lam, lam]))
    assert table == [(lam, 0.0)]
    assert np.all(np.isfinite(radii)) and np.all(radii > 0.0)


def test_jn_rejects_bad_inputs():
    w = C.log_reciprocal_scalar()
    with pytest.raises(ValueError):
        C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [0.0], 4)
    # on the exact path and on the sampler
    for field in (w, UNDECLARED_LOG):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                C.john_nirenberg_check(field, C.DyadicSquare(0, 0, 0), [bad, 1.0], 4)
    for depth in (0, 13):
        with pytest.raises(ValueError, match="depth"):
            C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1.0], depth)
    with pytest.raises(ValueError):
        C.DyadicSquare(1, 2, 0)


@pytest.mark.parametrize(
    "x0, square, lambdas",
    [
        # the radii where w = w_Q + lambda (0.31 .. 0.051) cut the square,
        # and those where w = w_Q - lambda at 0.2 and 0.5 (0.46, 0.62); at
        # 1 and 2 they pass its far corner (0.92 away)
        ((0.3, 0.6), C.DyadicSquare(0, 0, 0), [0.2, 0.5, 1.0, 2.0]),
        ((0.5, 0.5), C.DyadicSquare(1, 1, 0), [0.05, 0.2, 0.5, 1.0, 2.0]),
        # the centre outside the square
        ((1.3, -0.2), C.DyadicSquare(0, 0, 0), [0.05, 0.2, 0.5, 1.0]),
        ((0.3, 0.6), C.DyadicSquare(1, 1, 0), [0.05, 0.2, 0.5, 1.0]),
    ],
)
def test_jn_disc_square_areas_match_the_sampler(x0, square, lambdas):
    w = C.log_reciprocal_scalar(x0)
    table = C.john_nirenberg_check(w, square, lambdas, 4)
    sampled = C.john_nirenberg_check(dataclasses.replace(w, radial=None), square, lambdas, 12)
    assert [lam for lam, _ in table] == lambdas
    # the depth-12 grid's sampling error, measured below 4e-6
    assert max(abs(a - b) for (_, a), (_, b) in zip(table, sampled)) <= 2e-5


@settings(max_examples=200, deadline=None)
@given(
    x0=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
    level=st.integers(0, 8),
    corner=st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
    first=st.floats(1e-3, 10.0),
    gaps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6),
)
# the annulus covers the square at every lambda, and its four rectangles
# reach 2.1 from the centre: their signed sum alone leaves 7e-15 of
# rounding at lambda = 0.125
@example(x0=(1.5, 1.5), level=2, corner=(0.0, 0.0), first=0.1, gaps=[0.25] * 5)
def test_jn_disc_square_fractions_are_a_distribution(x0, level, corner, first, gaps):
    # fractions in [0, 1], nonincreasing over lambdas whose relative gaps
    # are at least 1e-6
    n = 2**level
    square = C.DyadicSquare(level, int(corner[0] * n), int(corner[1] * n))
    lambdas = [first]
    for g in gaps:
        lambdas.append(lambdas[-1] * (1.0 + g))
    table = C.john_nirenberg_check(C.log_reciprocal_scalar(x0), square, lambdas, 4)
    fractions = [f for _, f in table]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


def test_jn_skip_policy_errors_on_many_bad_samples():
    w = C.ScalarField(lambda p: np.where(p[:, 0] < 0.3, np.nan, 1.0), "broken")
    with pytest.raises(SingularityError):
        C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1.0], 6)
    # two sample columns of 1024 are non-finite, but no node of the mean's
    # quadrature: 0.2 % of the samples are skipped
    w = C.ScalarField(lambda p: np.where(p[:, 0] < 2e-3, np.nan, 1.0), "holed")
    with pytest.raises(SingularityError, match="2048 of 1048576 sample points were non-finite"):
        C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1.0], 10)


# ---------------------------------------------------------------------------
# sampled-grid ingestion


def test_sampled_roundtrip_at_nodes(sampled_csv_path):
    A = C.load_sampled_coefficient(sampled_csv_path)
    rows = []
    with open(sampled_csv_path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("x,"):
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    vals = A.evaluate(data[:, :2])
    assert np.allclose(vals[:, 0, 0], data[:, 2], atol=1e-12)
    assert np.allclose(vals[:, 0, 1], data[:, 3], atol=1e-12)
    assert np.allclose(vals[:, 1, 1], data[:, 4], atol=1e-12)
    assert A.kind == "sampled-grid"


def test_sampled_bilinear_between_nodes(sampled_csv_path):
    A = C.load_sampled_coefficient(sampled_csv_path)
    # midpoint of a grid cell carries the mean of the four corners
    pts = np.array([[0.0, 0.0], [0.125, 0.0], [0.0, 0.125], [0.125, 0.125]])
    corners = A.evaluate(pts)
    mid = A.evaluate(np.array([[0.0625, 0.0625]]))
    assert np.allclose(mid[0], corners.mean(axis=0), atol=1e-12)


def test_sampled_requires_alpha(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,a11,a12,a22\n0,0,1,0,1\n")
    with pytest.raises(InvariantError, match="alpha"):
        C.load_sampled_coefficient(p)


def test_sampled_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# alpha=1.0\nx,y,a11,a22\n")
    with pytest.raises(InvariantError, match="header"):
        C.load_sampled_coefficient(p)


def test_sampled_rejects_a_file_without_samples(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# alpha=1.0\nx,y,a11,a12,a22\n")
    with pytest.raises(InvariantError, match="no sample rows"):
        C.load_sampled_coefficient(p)


@pytest.mark.parametrize(
    "points, match",
    [
        # (0, 1) twice and (1, 1) missing: the row count still fits the grid
        ([(0, 0), (1, 0), (0, 1), (0, 1)], r"point \(0.0, 1.0\) is given 2 times"),
        ([(0, 0), (1, 0), (0, 1)], r"point \(1.0, 1.0\) is missing"),
        ([(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)], r"point \(1.0, 0.0\) is given 2 times"),
        ([(0, 0), (0.5, 0), (0, 1), (0.5, 1)], "cover the unit square"),
        ([(0, 0), (1, 0), (0, 1), (float("nan"), 1)], "cover the unit square"),
    ],
)
def test_sampled_grid_takes_every_point_exactly_once(tmp_path, points, match):
    p = tmp_path / "bad.csv"
    rows = [f"{x},{y},{k + 1},0,1" for k, (x, y) in enumerate(points)]
    p.write_text("# alpha=1.0\nx,y,a11,a12,a22\n" + "\n".join(rows) + "\n")
    with pytest.raises(InvariantError, match=match):
        C.load_sampled_coefficient(p)


def _two_by_two(path, alpha, a11_at_11=2.0):
    """A 2x2 sampled grid of diag(2, 2), except a11 at (1, 1)."""
    rows = [f"{x},{y},{a11_at_11 if (x, y) == (1.0, 1.0) else 2.0},0.0,2.0"
            for y in (0.0, 1.0) for x in (0.0, 1.0)]
    path.write_text("\n".join([f"# alpha={alpha!r}", "x,y,a11,a12,a22"] + rows) + "\n")
    return path


@pytest.mark.parametrize(
    "alpha, a11, match",
    [
        (1.0, -5.0, r"alpha=1.0, .* the smallest is -5.0, at point \(1.0, 1.0\)"),
        (-1.0, 2.0, r"alpha=-1.0, .* the smallest is 2.0, at point \(0.0, 0.0\)"),
        (0.0, 2.0, "alpha=0.0"),
        (float("nan"), 2.0, "alpha=nan"),
        (float("inf"), 2.0, "alpha=inf"),
        (float(np.nextafter(2.0, 3.0)), 2.0, r"the smallest is 2.0, at point \(0.0, 0.0\)"),
    ],
)
def test_sampled_alpha_must_bound_every_sample(tmp_path, alpha, a11, match):
    with pytest.raises(InvariantError, match=match):
        C.load_sampled_coefficient(_two_by_two(tmp_path / "c.csv", alpha, a11))


def test_sampled_alpha_may_equal_the_sample_minimum(tmp_path):
    assert C.load_sampled_coefficient(_two_by_two(tmp_path / "c.csv", 2.0)).alpha == 2.0
    # the minimal eigenvalue of [[3, 1], [1, 3]] is 2 exactly
    path = tmp_path / "offdiag.csv"
    rows = [f"{x},{y},3.0,1.0,3.0" for y in (0.0, 1.0) for x in (0.0, 1.0)]
    path.write_text("\n".join(["# alpha=2.0", "x,y,a11,a12,a22"] + rows) + "\n")
    assert C.load_sampled_coefficient(path).alpha == 2.0


def test_sampled_alpha_check_skips_non_finite_samples(tmp_path):
    # the NaN sample is left to the quadrature guard; the finite ones bound alpha
    assert C.load_sampled_coefficient(_two_by_two(tmp_path / "c.csv", 2.0, float("nan")))
    with pytest.raises(InvariantError, match=r"point \(0.0, 0.0\)"):
        C.load_sampled_coefficient(_two_by_two(tmp_path / "c.csv", 2.5, float("nan")))


def test_min_eigenvalues_neither_overflow_nor_cancel(tmp_path):
    # diag(1e200, 1) at (0, 0), diag(2, 2) elsewhere: alpha = 1 is its
    # smallest eigenvalue, with no warning (pytest turns them into errors)
    path = tmp_path / "c.csv"
    rows = [f"{x},{y},{1e200 if x == y == 0.0 else 2.0},0.0,{1.0 if x == y == 0.0 else 2.0}"
            for y in (0.0, 1.0) for x in (0.0, 1.0)]
    path.write_text("\n".join(["# alpha=1.0", "x,y,a11,a12,a22"] + rows) + "\n")
    assert C.load_sampled_coefficient(path).alpha == 1.0
    lam = C._min_eigenvalues(np.array([np.diag([1e8, 1e-8])]))[0]
    assert abs(lam - 1e-8) <= 4 * np.spacing(1e-8)
    # indefinite, negative definite, zero
    m = np.array([[[1.0, 2.0], [2.0, 1.0]], [[-3.0, 0.0], [0.0, -1.0]], np.zeros((2, 2))])
    assert C._min_eigenvalues(m).tolist() == [-1.0, -3.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    exponent=st.integers(-300, 300),
)
@example(entries=[0.0, 2.225073858507e-311, 2.225073858507e-311], exponent=2)
@example(entries=[0.0, 2.2250738585e-313, 2.2250738585e-313], exponent=1)
def test_min_eigenvalues_match_eigvalsh(entries, exponent):
    a, b, c = np.array(entries) * 10.0**exponent
    # eigvalsh scaled by a power of two, exact for subnormal values too:
    # scaled back by 10^exponent, the rounding of a subnormal eigenvalue
    # was magnified past the bound (4.5 spacings at exponent 1)
    k = math.frexp(max(abs(a), abs(b), abs(c)))[1]
    want = math.ldexp(np.linalg.eigvalsh(np.ldexp(np.array([[a, b], [b, c]]), -k))[0], k)
    got = C._min_eigenvalues(np.array([[[a, b], [b, c]]]))[0]
    # a relative bound, floored at a few subnormal spacings: below 2.2e-308
    # the bound 1e-15 * max would lie under the spacing itself
    floor = 4 * np.finfo(float).smallest_subnormal
    assert abs(got - want) <= 1e-15 * max(abs(a), abs(b), abs(c)) + floor


def test_shipped_and_generated_sampled_grids_declare_a_valid_alpha(
    sampled_csv_path, sampled_grid_csv, nondyadic_csv_path, tmp_path
):
    C.load_sampled_coefficient(sampled_csv_path)
    C.load_sampled_coefficient(nondyadic_csv_path)
    for seed in range(5):
        C.load_sampled_coefficient(
            sampled_grid_csv([0.0, 0.1, 0.15, 0.5, 0.9, 1.0], [0.0, 0.3, 0.35, 0.4, 1.0], seed)
        )
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in range(5):
        path = tmp_path / f"grid_{seed}.csv"
        path.write_text(workloads.sampled_grid_text(seed))
        C.load_sampled_coefficient(path)


def test_make_sampled_coefficient_script_writes_a_valid_file(tmp_path):
    script = pathlib.Path(__file__).parents[1] / "scripts" / "make_sampled_coefficient.py"
    out = tmp_path / "coeff.csv"
    subprocess.run(
        [sys.executable, str(script), "--n", "5", "--out", str(out)],
        check=True, capture_output=True,
    )
    A = C.load_sampled_coefficient(out)
    pts = np.random.default_rng(5).random((20_000, 2))
    # the declared alpha bounds the bilinear interpolant's eigenvalues below
    assert A.alpha <= np.min(C._min_eigenvalues(A.evaluate(pts)))


def _rgi_reference(path):
    """scipy's RegularGridInterpolator on the samples of a coefficient CSV,
    evaluated as the package evaluated it before its own kernel: values
    (N, 3) of a11, a12, a22 at points (N, 2)."""
    from scipy.interpolate import RegularGridInterpolator

    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    xs, ys = np.unique(data[:, 0]), np.unique(data[:, 1])
    order = np.lexsort((data[:, 0], data[:, 1]))
    grid = data[order][:, 2:].reshape(ys.size, xs.size, 3)
    interp = RegularGridInterpolator((ys, xs), grid, method="linear")
    return xs, ys, lambda points: interp(points[:, ::-1])


@pytest.mark.parametrize(
    "xs, ys",
    [
        (np.linspace(0, 1, 10), np.linspace(0, 1, 10)),
        ([0.0, 0.1, 0.15, 0.5, 0.9, 1.0], [0.0, 0.3, 0.35, 0.4, 1.0]),
        ([0.0, 1.0], [0.0, 1.0]),
    ],
    ids=["uniform-10", "nonuniform", "2x2"],
)
def test_sampled_kernel_equals_regular_grid_interpolator(sampled_grid_csv, xs, ys):
    path = sampled_grid_csv(xs, ys, seed=3)
    xs, ys, reference = _rgi_reference(path)
    rng = np.random.default_rng(11)

    def near(lines):
        # each sample line and its neighbours one ulp away, inside [0, 1]
        t = np.concatenate([lines, np.nextafter(lines, -1.0), np.nextafter(lines, 2.0)])
        return t[(t >= 0.0) & (t <= 1.0)]

    across = rng.random(16)
    pts = np.concatenate([
        rng.random((20_000, 2)),
        np.stack(np.meshgrid(near(xs), across), axis=-1).reshape(-1, 2),
        np.stack(np.meshgrid(across, near(ys)), axis=-1).reshape(-1, 2),
        np.stack(np.meshgrid(near(xs), near(ys)), axis=-1).reshape(-1, 2),
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ])
    expected = reference(pts)
    A = C.load_sampled_coefficient(path)
    for layout in (pts, np.asfortranarray(pts)):
        got = A.evaluate(layout)
        assert np.array_equal(got[:, 0, 0], expected[:, 0])
        assert np.array_equal(got[:, 0, 1], expected[:, 1])
        assert np.array_equal(got[:, 1, 0], expected[:, 1])
        assert np.array_equal(got[:, 1, 1], expected[:, 2])


@pytest.mark.parametrize("bad", [(1.5, 0.25), (0.25, -1e-300), (float("nan"), 0.5)])
def test_sampled_evaluation_outside_the_grid_names_the_point(nondyadic_csv_path, bad):
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    pts = np.array([[0.5, 0.5], bad, [2.0, 2.0]])
    with pytest.raises(ValueError, match=f"point \\({bad[0]}, {bad[1]}\\)"):
        A.evaluate(pts)


def test_nan_sample_raises_singularity_through_projection(meshes, tmp_path):
    path = tmp_path / "nan.csv"
    side = np.linspace(0.0, 1.0, 10).tolist()
    lines = ["# alpha=1.0", "x,y,a11,a12,a22"]
    for y in side:
        for x in side:
            a12 = "nan" if (x, y) == (side[4], side[7]) else "0.1"
            lines.append(f"{x!r},{y!r},2.0,{a12},2.0")
    path.write_text("\n".join(lines) + "\n")
    A = C.load_sampled_coefficient(path)
    with pytest.raises(SingularityError) as info:
        C.project_coefficient(A, meshes[3])
    # the offending node lies in a sample rectangle touching the NaN sample
    x, y = info.value.point
    assert abs(x - side[4]) < 1 / 9 and abs(y - side[7]) < 1 / 9


def test_no_module_keeps_a_cache():
    # no functools cache anywhere in the package: every array is built by
    # the call that needs it and freed with the caller's reference
    import bmofem

    names = [f"bmofem.{m.name}" for m in pkgutil.iter_modules(bmofem.__path__)]
    assert {"bmofem.coeff", "bmofem.quadrature", "bmofem.mesh"} <= set(names)
    for module in [bmofem] + [importlib.import_module(name) for name in names]:
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"


def test_sampled_study_imports_no_scipy(nondyadic_csv_path, tmp_path):
    config = {
        "kind": "convergence", "coeff": "sampled", "coeff_csv": nondyadic_csv_path,
        "rhs": "sin-cos", "p": 2.0, "p_hat": 2.0, "levels": "1..2,4",
        "out": str(tmp_path / "convergence.csv"),
    }
    code = (
        "import sys\n"
        "from bmofem.harness import config_from_dict, run_study\n"
        f"run_study(config_from_dict({config!r}))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(C.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "convergence.csv").exists()


def _jn_all_at_once(w, square, lambdas, depth):
    """Reference: every sample point evaluated in one batch."""
    w_q = Q.square_means_batch(
        lambda p, i: w.evaluate(p), [square.lo], square.size, C.DEFAULT_SQUARE_TOL
    )[0]
    n = 2**depth
    t = (np.arange(n) + 0.5) * (square.size / n)
    xx, yy = np.meshgrid(square.lo[0] + t, square.lo[1] + t, indexing="xy")
    vals = np.asarray(w.evaluate(np.column_stack([xx.ravel(), yy.ravel()])))
    dev = np.abs(vals[np.isfinite(vals)] - w_q)
    return [(float(lam), float(np.mean(dev > lam))) for lam in lambdas]


@pytest.mark.parametrize(
    "w, square",
    [
        (UNDECLARED_LOG, C.DyadicSquare(0, 0, 0)),
        (dataclasses.replace(C.log_reciprocal_scalar((0.5, 0.5)), radial=None),
         C.DyadicSquare(1, 1, 0)),
        (C.ScalarField(_wave, "wave"), C.DyadicSquare(2, 1, 3)),
        # one column of 1024 is non-finite and skipped
        (C.ScalarField(lambda p: np.where(p[:, 0] < 1e-3, np.nan, _wave(p)), "holed"),
         C.DyadicSquare(0, 0, 0)),
    ],
)
def test_jn_strips_match_all_at_once_table(w, square):
    lambdas = [0.05, 1.0, 2.0, 3.0, 4.0]
    table = C.john_nirenberg_check(w, square, lambdas, 10)
    assert table == _jn_all_at_once(w, square, lambdas, 10)


def test_jn_depth_12_samples_in_bounded_strips():
    rec = RecordingField(lambda p: p[:, 0] + p[:, 1])
    w = C.ScalarField(rec.evaluate, "x+y")
    table = C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [0.5], 12)
    assert max(rec.batches) <= Q._CHUNK
    assert rec.column_major == {True}
    assert sum(rec.batches) >= 4**12
    # |x + y - 1| > 1/2 on two corner triangles of total area 1/4
    assert table[0][1] == pytest.approx(0.25, abs=1e-3)


# ---------------------------------------------------------------------------
# breaklines: cells cut along the sample lines

# Barycentric rules (points, weights) on a triangle: the edge midpoints are
# exact for degree 2, so for bilinear data; the 6-point Strang-Fix rule for
# degree 4, so for squared bilinear misfits.
EDGE_MIDPOINT_RULE = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.full(3, 1.0 / 3.0),
)
_A4, _B4 = 0.445948490915965, 0.091576213509771
DEGREE4_RULE = (
    np.array([
        [_A4, _A4, 1 - 2 * _A4], [_A4, 1 - 2 * _A4, _A4], [1 - 2 * _A4, _A4, _A4],
        [_B4, _B4, 1 - 2 * _B4], [_B4, 1 - 2 * _B4, _B4], [1 - 2 * _B4, _B4, _B4],
    ]),
    np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
)


def _uncut_cells(mesh, breaks):
    _, parent, _ = C._grid_pieces(mesh.level, breaks)
    return np.setdiff1d(np.arange(mesh.num_cells), parent)


def _cell_integrals(g, A, mesh, rule):
    """Integral of g(points, parent cells) over each cell by a fixed rule on
    every integration triangle: the cells no breakline of A cuts, whole,
    and the pieces of the cut ones."""
    verts = mesh.cell_coordinates()
    pieces, cut, piece_areas = C._grid_pieces(mesh.level, A.breaks)
    whole = np.setdiff1d(np.arange(mesh.num_cells), cut)
    tris = np.concatenate([verts[whole], pieces])
    parent = np.concatenate([whole, cut])
    areas = np.concatenate([np.abs(cell_areas(mesh))[whole], piece_areas])
    bary, weights = rule
    pts = np.einsum("qv,tvd->tqd", bary, tris).reshape(-1, 2)
    vals = np.asarray(g(pts, np.repeat(parent, len(weights))))
    vals = vals.reshape((len(tris), len(weights)) + vals.shape[1:])
    means = np.tensordot(weights, vals, axes=(0, 1))
    out = np.zeros((mesh.num_cells,) + means.shape[1:])
    np.add.at(out, parent, areas.reshape((-1,) + (1,) * (means.ndim - 1)) * means)
    return out


def _exact_cell_means(A, mesh):
    """Cell averages of a sampled (piecewise bilinear) field."""
    integrals = _cell_integrals(lambda p, ids: A.evaluate(p), A, mesh, EDGE_MIDPOINT_RULE)
    return integrals / np.abs(cell_areas(mesh))[:, None, None]


def _cellwise_rel_error(values, exact):
    return np.linalg.norm(values - exact, axis=(1, 2)) / np.linalg.norm(exact, axis=(1, 2))


def test_sampled_breaks_are_the_interior_sample_lines(nondyadic_csv_path, sampled_grid_csv):
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    assert A.breaks == (tuple(np.linspace(0, 1, 10)[1:-1]),) * 2
    B = C.load_sampled_coefficient(sampled_grid_csv([0.0, 0.3, 1.0], [0.0, 0.55, 1.0]))
    assert B.breaks == ((0.3,), (0.55,))
    for A in (C.identity_coefficient(), C.smooth_coefficient(), C.log_singular_coefficient(0.5)):
        assert A.breaks == ((), ())
    assert C.checkerboard_coefficient(5.0).breaks == ((0.5,), (0.5,))


@pytest.mark.parametrize("level", range(7))
def test_grid_pieces_tile_each_cut_cell(meshes, nondyadic_csv_path, level):
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    mesh = meshes[level]
    verts = mesh.cell_coordinates()
    pieces, parent, areas = C._grid_pieces(level, A.breaks)
    assert np.all(np.diff(parent) >= 0) and np.all(areas > 0)
    assert np.allclose(areas, triangle_areas(pieces), rtol=1e-10, atol=0)
    # the cut cells are those a sample line passes strictly through
    lo, hi = verts.min(axis=1), verts.max(axis=1)
    crossed = np.zeros(mesh.num_cells, dtype=bool)
    for axis, lines in enumerate(A.breaks):
        lines = np.asarray(lines)
        crossed |= ((lines > lo[:, axis, None]) & (lines < hi[:, axis, None])).any(axis=1)
    assert np.array_equal(np.unique(parent), np.flatnonzero(crossed))
    cell_area = np.abs(cell_areas(mesh))
    for cell in np.flatnonzero(crossed):
        total = math.fsum(areas[parent == cell])
        assert abs(total - cell_area[cell]) <= 1e-15 * cell_area[cell]
    # each piece lies inside its cell and inside one sample rectangle
    side = np.linspace(0, 1, 10)
    centroid = pieces.mean(axis=1)
    i = np.searchsorted(side, centroid[:, 0]) - 1
    j = np.searchsorted(side, centroid[:, 1]) - 1
    assert np.all(pieces[..., 0] >= side[i][:, None] - 1e-14)
    assert np.all(pieces[..., 0] <= side[i + 1][:, None] + 1e-14)
    assert np.all(pieces[..., 1] >= side[j][:, None] - 1e-14)
    assert np.all(pieces[..., 1] <= side[j + 1][:, None] + 1e-14)
    v = verts[parent]
    e1, e2, d = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], pieces - v[:, None, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    a = (d[..., 0] * e2[:, None, 1] - d[..., 1] * e2[:, None, 0]) / det[:, None]
    b = (e1[:, None, 0] * d[..., 1] - e1[:, None, 1] * d[..., 0]) / det[:, None]
    assert np.all(a >= -1e-12) and np.all(b >= -1e-12) and np.all(a + b <= 1 + 1e-12)


@pytest.mark.parametrize("level", range(2, 8))
def test_grid_pieces_leave_no_slivers_on_the_diagonal(level):
    # 0.3 n and 0.55 n have the same fraction, so a rectangle corner lies
    # on a cell diagonal, but not in floating point
    pieces, parent, areas = C._grid_pieces(level, ((0.3,), (0.55,)))
    cell = 0.5 / 4**level
    assert np.all(areas > 1e-12 * cell)
    for part in np.split(areas, np.flatnonzero(np.diff(parent)) + 1):
        assert abs(math.fsum(part) - cell) <= 1e-15 * cell
    # the cut cells: both cells of every square the lines pass inside
    n = 2**level
    i, j = math.floor(0.3 * n), math.floor(0.55 * n)
    squares = {(i, k) for k in range(n)} | {(k, j) for k in range(n)}
    cells = sorted(2 * (y * n + x) + s for x, y in squares for s in (0, 1))
    assert np.array_equal(np.unique(parent), cells)


def _four_pass_clip(poly, count, axis, bound, sign):
    """One Sutherland-Hodgman step on polygons of count vertices each, to
    the half-planes sign * (x[axis] - bound) >= 0."""
    width = poly.shape[1]
    valid = np.arange(width) < count[:, None]
    nxt = np.where(np.arange(1, width + 1) < count[:, None], np.arange(1, width + 1), 0)
    s = sign * (poly[..., axis] - bound[:, None])
    s_next = np.take_along_axis(s, nxt, axis=1)
    keep = valid & (s >= 0)
    cross = valid & (((s > 0) & (s_next < 0)) | ((s < 0) & (s_next > 0)))
    t = np.divide(s, s - s_next, out=np.zeros_like(s), where=cross)
    hit = poly + t[..., None] * (np.take_along_axis(poly, nxt[..., None], axis=1) - poly)
    mask = np.stack([keep, cross], axis=2).reshape(len(poly), 2 * width)
    count = mask.sum(axis=1)
    order = np.argsort(~mask, axis=1, kind="stable")[:, : count.max(initial=0)]
    cand = np.stack([poly, hit], axis=2).reshape(len(poly), 2 * width, 2)
    return np.take_along_axis(cand, order[..., None], axis=1), count


def _four_pass_pieces(verts, breaks):
    """Reference cut, the generic one the grid cut replaced: every triangle
    whose bounding box a breakline crosses is clipped against each
    breakline rectangle its box overlaps, in four half-plane passes, in
    coordinates relative to its first vertex."""
    lo, hi = verts.min(axis=1), verts.max(axis=1)
    first, span, lines = [], [], []
    for axis in range(2):
        b = np.asarray(breaks[axis], dtype=float)
        first.append(np.searchsorted(b, lo[:, axis], side="right"))
        span.append(np.searchsorted(b, hi[:, axis], side="left") - first[axis] + 1)
        lines.append(np.concatenate([[-1.0], b, [2.0]]))  # outer lines beyond every cell
    cut = np.flatnonzero((span[0] > 1) | (span[1] > 1))
    nx, ny = span[0][cut], span[1][cut]
    pairs = nx * ny
    cell = np.repeat(cut, pairs)
    k = np.arange(cell.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    nx = nx.repeat(pairs)
    rect = (first[0][cell] + k % nx, first[1][cell] + k // nx)
    origin = verts[cell, 0]
    poly = verts[cell] - origin[:, None, :]
    count = np.full(cell.size, 3)
    for axis in range(2):
        for step, sign in ((0, 1.0), (1, -1.0)):
            bound = lines[axis][rect[axis] + step] - origin[:, axis]
            poly, count = _four_pass_clip(poly, count, axis, bound, sign)
    fan = np.stack(
        [np.broadcast_to(poly[:, :1], poly[:, 2:].shape), poly[:, 1:-1], poly[:, 2:]], axis=2
    )
    areas = triangle_areas(fan)
    ok = np.arange(2, poly.shape[1]) < count[:, None]
    owner = np.broadcast_to(cell[:, None], ok.shape)[ok]
    return fan[ok] + verts[owner, None, 0], owner, areas[ok]


CUT_GRIDS = {
    "10x10": (np.linspace(0.0, 1.0, 10),) * 2,
    "0.3x0.55": ([0.0, 0.3, 1.0], [0.0, 0.55, 1.0]),
    # two breaklines per axis inside the level-2 square (1, 2)
    "two-per-square": ([0.0, 0.3, 0.35, 1.0], [0.0, 0.6, 0.7, 1.0]),
    # the checkerboard's lines: at level 0 the diagonal meets rectangle corners
    "checkerboard": ([0.0, 0.5, 1.0],) * 2,
}


def _cut_cell_means(field, pieces, parent, areas):
    """The fixed-rule mean of field over each cut cell, from its pieces."""
    means = Q.polynomial_means(field, pieces, parent)
    cut, first = np.unique(parent, return_index=True)
    sums = np.add.reduceat(areas[:, None, None] * means, first)
    return cut, sums / np.add.reduceat(areas, first)[:, None, None]


@pytest.mark.parametrize("grid", sorted(CUT_GRIDS))
@pytest.mark.parametrize("level", range(8))
def test_grid_cut_matches_the_four_pass_clip(meshes, sampled_grid_csv, grid, level):
    A = C.load_sampled_coefficient(sampled_grid_csv(*CUT_GRIDS[grid]))
    pieces, parent, areas = C._grid_pieces(level, A.breaks)
    old = _four_pass_pieces(meshes[level].cell_coordinates(), A.breaks)
    assert np.all(np.diff(parent) >= 0) and np.all(areas > 0)
    cut = np.unique(parent)
    assert np.array_equal(cut, np.unique(old[1]))
    if cut.size == 0:  # the checkerboard's lines are mesh lines from level 1
        return
    cell_area = 0.5 / 4**level
    for part in np.split(areas, np.flatnonzero(np.diff(parent)) + 1):
        assert abs(math.fsum(part) - cell_area) <= 1e-15 * cell_area
    field = lambda p, ids: A.evaluate(p)
    _, got = _cut_cell_means(field, pieces, parent, areas)
    _, want = _cut_cell_means(field, *old)
    err = np.linalg.norm(got - want, axis=(1, 2))
    assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize(
    "breaks",
    [((0.0, 0.5), ()), ((), (0.5, 1.0)), ((0.6, 0.3), ()), ((), (0.3, 0.3)), ((np.nan,), ())],
)
def test_breaks_must_increase_strictly_inside_the_unit_interval(breaks):
    with pytest.raises(ValueError, match="breaks"):
        C.CoefficientField(C.identity_coefficient().evaluate, 1.0, "bad", breaks)


def test_grid_pieces_without_breaks_cut_nothing(meshes):
    pieces, parent, areas = C._grid_pieces(3, ((), ()))
    assert pieces.shape == (0, 3, 2) and parent.size == 0 and areas.size == 0
    # uncut cells are integrated whole: breaklines on the mesh lines cut
    # nothing either
    mesh = meshes[3]
    wave = lambda p, i: _wave(p)
    plain = Q.triangle_means(wave, mesh.cell_coordinates(), 1e-8)
    for breaks in (((), ()), ((0.5,), (0.25, 0.75))):
        assert C._grid_pieces(mesh.level, breaks)[1].size == 0
        assert np.array_equal(C.cell_means(wave, mesh, 1e-8, 0.0, breaks), plain)


@pytest.mark.parametrize("level", [0, 3])
def test_cell_means_pass_each_node_its_cell(meshes, nondyadic_csv_path, level):
    # every node of a cut cell's pieces belongs to that cell, so a field
    # that returns its cell id has the id as its mean on every cell
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    mesh = meshes[level]
    assert _uncut_cells(mesh, A.breaks).size < mesh.num_cells
    means = C.cell_means(
        lambda p, ids: np.column_stack([ids, 2.0 * ids]), mesh, 1e-8, breaks=A.breaks
    )
    ids = np.arange(mesh.num_cells, dtype=float)
    assert np.allclose(means, np.column_stack([ids, 2.0 * ids]), rtol=1e-15, atol=0)


def test_cut_pieces_report_non_finite_samples(meshes, tmp_path):
    path = tmp_path / "hole.csv"
    lines = ["# alpha=1.0", "x,y,a11,a12,a22"]
    for y in (0.0, 0.55, 1.0):
        for x in (0.0, 0.3, 1.0):
            a11 = "nan" if (x, y) == (0.3, 0.55) else "2.0"
            lines.append(f"{x},{y},{a11},0.0,2.0")
    path.write_text("\n".join(lines) + "\n")
    A = C.load_sampled_coefficient(path)
    with pytest.raises(SingularityError):
        C.project_coefficient(A, meshes[2])


@pytest.mark.parametrize("level", range(7))
def test_cut_projection_is_exact_for_sampled_data(meshes, nondyadic_csv_path, level):
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    values = C.project_coefficient(A, meshes[level]).values
    exact = _exact_cell_means(A, meshes[level])
    assert _cellwise_rel_error(values, exact).max() <= 1e-13


def test_uncut_cells_keep_their_own_means(meshes, nondyadic_csv_path):
    # the uncut cells keep the fixed rule's means of their own nodes, bit
    # for bit, and those agree with the refinement rule's
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    mesh = meshes[4]
    uncut = _uncut_cells(mesh, A.breaks)
    assert 0 < uncut.size < mesh.num_cells
    verts = mesh.cell_coordinates()[uncut]
    own = Q.polynomial_means(lambda p, i: A.evaluate(p), verts)
    own = 0.5 * (own + own.transpose(0, 2, 1))
    assert np.array_equal(C.project_coefficient(A, mesh).values[uncut], own)
    refined = Q.triangle_means(lambda p, i: A.evaluate(p), verts, 1e-10)
    assert _cellwise_rel_error(own, refined).max() <= 1e-10


@pytest.mark.parametrize("level", [0, 2, 4])
def test_cut_coefficient_error_matches_degree4_rule(meshes, nondyadic_csv_path, level):
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    mesh = meshes[level]
    A_h = C.project_coefficient(A, mesh)

    def misfit(p, ids):
        return np.sum((A.evaluate(p) - A_h.values[ids]) ** 2, axis=(1, 2))

    exact = math.sqrt(np.sum(_cell_integrals(misfit, A, mesh, DEGREE4_RULE)))
    assert C.coefficient_error(A, A_h, 2.0) == pytest.approx(exact, rel=2e-4)


@pytest.mark.parametrize("level, tol", [(2, 1e-8), (2, 1e-12), (3, 1e-6)])
def test_sampled_projection_settles_fast_and_within_tol(meshes, nondyadic_csv_path, level, tol):
    # kinks off the mesh lines used to drive every cut cell to m = 7..12:
    # level 2 at 1e-8 took about 30 s, and level 3 at 1e-6 missed tol 11x
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    start = time.perf_counter()
    values = C.project_coefficient(A, meshes[level], rel_tol=tol).values
    assert time.perf_counter() - start < 2.0
    assert np.all(_cellwise_rel_error(values, _exact_cell_means(A, meshes[level])) <= tol)


def test_rectilinear_sample_grid_projection_is_exact(meshes, sampled_grid_csv):
    A = C.load_sampled_coefficient(sampled_grid_csv([0.0, 0.3, 1.0], [0.0, 0.55, 1.0]))
    for level in range(5):
        values = C.project_coefficient(A, meshes[level]).values
        exact = _exact_cell_means(A, meshes[level])
        assert _cellwise_rel_error(values, exact).max() <= 1e-13


# ---------------------------------------------------------------------------
# declared degrees: the fixed rule between the breaklines

DEGREE_FIXTURES = {
    "identity": lambda paths: C.identity_coefficient(),
    "constant": lambda paths: C.constant_coefficient([[2.0, 0.3], [0.3, 3.0]]),
    "checkerboard": lambda paths: C.checkerboard_coefficient(100.0),
    "sampled-dyadic": lambda paths: C.load_sampled_coefficient(paths[0]),
    "sampled-nondyadic": lambda paths: C.load_sampled_coefficient(paths[1]),
}


@pytest.fixture()
def degree_fixture(request, sampled_csv_path, nondyadic_csv_path):
    return DEGREE_FIXTURES[request.param]((sampled_csv_path, nondyadic_csv_path))


def test_fixtures_declare_their_degrees(sampled_csv_path):
    assert C.identity_coefficient().degree == 0
    assert C.constant_coefficient(np.diag([2.0, 3.0])).degree == 0
    assert C.checkerboard_coefficient(5.0).degree == 0
    assert C.load_sampled_coefficient(sampled_csv_path).degree == 2
    assert C.smooth_coefficient().degree is None
    assert C.log_singular_coefficient(0.5).degree is None


def test_degree_must_be_a_non_negative_int():
    for degree in (None, 0, 3):
        assert C.CoefficientField(_wave, 1.0, "any", degree=degree).degree == degree
    for degree in (-1, 2.0, True, "2"):
        with pytest.raises(ValueError, match="degree"):
            C.CoefficientField(_wave, 1.0, "any", degree=degree)


@pytest.mark.parametrize("degree_fixture", list(DEGREE_FIXTURES), indirect=True)
def test_declared_degree_fits_each_breakline_rectangle(degree_fixture, rng):
    # a least-squares polynomial of the declared degree reproduces random
    # samples inside every rectangle between the breaklines
    A = degree_fixture
    d = A.degree
    exps = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    xs, ys = ([0.0, *b, 1.0] for b in A.breaks)
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            p = rng.uniform([x0, y0], [x1, y1], (3 * len(exps) + 5, 2))
            vander = np.column_stack([p[:, 0] ** i * p[:, 1] ** j for i, j in exps])
            vals = A.evaluate(p).reshape(len(p), 4)
            coef = np.linalg.lstsq(vander, vals, rcond=None)[0]
            assert np.max(np.abs(vander @ coef - vals)) <= 1e-12


@pytest.mark.parametrize("kappa", [100.0, 0.1, 7.3])
def test_checkerboard_cuts_only_the_level_zero_cells(meshes, kappa):
    A = C.checkerboard_coefficient(kappa)
    for level in range(1, 7):
        assert C._grid_pieces(level, A.breaks)[1].size == 0
    assert np.unique(C._grid_pieces(0, A.breaks)[1]).size == 2
    values = C.project_coefficient(A, meshes[0]).values
    assert np.allclose(values, 0.5 * (kappa + 1.0) * np.eye(2), rtol=1e-14, atol=0)


@pytest.mark.parametrize("degree_fixture", list(DEGREE_FIXTURES)[1:], indirect=True)
@pytest.mark.parametrize("level", range(6))
def test_fixed_rule_agrees_with_refinement(meshes, degree_fixture, level):
    # the refinement rule on the same cut, with the degree left undeclared
    A = degree_fixture
    slow = dataclasses.replace(A, degree=None)
    fast_h = C.project_coefficient(A, meshes[level])
    slow_h = C.project_coefficient(slow, meshes[level])
    assert np.max(np.abs(fast_h.values - slow_h.values)) <= 1e-9 * np.max(np.abs(slow_h.values))
    err = C.coefficient_error(A, fast_h, 2.0)
    assert err == pytest.approx(C.coefficient_error(slow, slow_h, 2.0), rel=1e-4, abs=1e-12)


def _quadrature_calls(monkeypatch):
    """Count the calls of each cell-mean rule and of the tolerance floor."""
    calls = {"triangle_means": 0, "polynomial_means": 0, "global_scale_floor": 0}
    for name in calls:
        original = getattr(Q, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Q, name, spy)
    return calls


@pytest.mark.parametrize(
    "fixture, r, exact",
    [
        ("sampled", 2.0, True),
        ("checkerboard", 2.5, True),  # degree 0: |A - A_h|^r is constant per piece
        ("sampled", 2.5, False),
        ("sampled", 1.5, False),  # r * degree = 3 <= 4, but |A - A_h|^1.5 is no polynomial
        ("sampled", 3.0, False),
        ("sampled", 4.0, False),  # r * degree = 8 > 4
        ("smooth", 2.0, False),  # no degree declared, its trigonometric form withheld
    ],
)
def test_coefficient_error_takes_the_fixed_rule_only_for_polynomials(
    monkeypatch, meshes, nondyadic_csv_path, fixture, r, exact
):
    A = {
        "sampled": lambda: C.load_sampled_coefficient(nondyadic_csv_path),
        "checkerboard": lambda: C.checkerboard_coefficient(100.0),
        "smooth": lambda: dataclasses.replace(C.smooth_coefficient(), trigonometric=None),
    }[fixture]()
    A_h = C.project_coefficient(A, meshes[3])
    calls = _quadrature_calls(monkeypatch)
    C.coefficient_error(A, A_h, r)
    if exact:
        # at r = 2 the moments kernel takes the rule, not polynomial_means
        polynomial = 0 if r == 2.0 else 1
        assert calls == {
            "triangle_means": 0, "polynomial_means": polynomial, "global_scale_floor": 0
        }
    else:
        assert calls == {"triangle_means": 1, "polynomial_means": 0, "global_scale_floor": 1}


def test_fixed_rule_evaluates_six_nodes_per_cell_and_piece(meshes, nondyadic_csv_path):
    base = C.load_sampled_coefficient(nondyadic_csv_path)
    mesh = meshes[3]
    count = [0]

    def evaluate(p):
        count[0] += len(p)
        return base.evaluate(p)

    A = dataclasses.replace(base, evaluate=evaluate)
    pieces = C._grid_pieces(mesh.level, A.breaks)[0]
    integration_triangles = _uncut_cells(mesh, A.breaks).size + len(pieces)
    A_h = C.project_coefficient(A, mesh)
    assert count[0] == 6 * integration_triangles
    count[0] = 0
    C.coefficient_error(A, A_h, 2.0)
    assert count[0] == 6 * integration_triangles
    count[0] = 0
    D = dataclasses.replace(C.identity_coefficient(), evaluate=evaluate)
    C.project_coefficient(D, mesh)
    assert count[0] == 6 * mesh.num_cells


# ---------------------------------------------------------------------------
# trigonometric fixtures

TRIG_FIELDS = ("sin-cos", "grad-sinsin", "constant", "smooth")


def _trig_form(name):
    if name == "smooth":
        return C.smooth_coefficient().trigonometric
    return X.rhs_fixture(X.ExperimentConfig(kind="stability", rhs=name))


def _sample_cells(mesh):
    """Both cells of every grid square up to level 1, of 8 spread ones above."""
    squares = np.unique(np.linspace(0, 4**mesh.level - 1, 8).astype(int))
    return (2 * squares[:, None] + [0, 1]).ravel()


def test_trigonometric_fixtures_evaluate_their_closed_forms(rng):
    p = rng.uniform(0.0, 1.0, (500, 2))
    sx, cx = np.sin(np.pi * p[:, 0]), np.cos(np.pi * p[:, 0])
    sy, cy = np.sin(np.pi * p[:, 1]), np.cos(np.pi * p[:, 1])
    # sin-cos and the smooth coefficient bit for bit
    assert np.array_equal(_trig_form("sin-cos")(p), np.column_stack([sx, cy]))
    smooth = np.zeros((500, 2, 2))
    smooth[:, 0, 0], smooth[:, 1, 1] = 2.0 + sx, 2.0 + cy
    assert np.array_equal(C.smooth_coefficient().evaluate(p), smooth)
    assert np.array_equal(_trig_form("constant")(p), np.tile([1.0, 0.0], (500, 1)))
    grad = np.pi * np.column_stack([cx * sy, sx * cy])
    assert np.max(np.abs(_trig_form("grad-sinsin")(p) - grad)) <= 1e-14


@pytest.mark.parametrize("name", TRIG_FIELDS)
def test_trigonometric_squared_norm_is_the_squared_values(rng, name):
    form = _trig_form(name)
    p = rng.uniform(0.0, 1.0, (500, 2))
    values = form(p).reshape(500, -1)
    assert form.squared_norm().shape == ()
    assert np.max(np.abs(form.squared_norm()(p) - np.sum(values**2, axis=1))) <= 1e-13


def test_trigonometric_form_is_checked():
    with pytest.raises(ValueError, match="one entry per value entry"):
        C.TrigonometricForm((2,), (((1.0, (0, 0)),),))
    with pytest.raises(ValueError, match="integer k"):
        C.TrigonometricForm((), (((1.0, (0.5, 0)),),))
    with pytest.raises(ValueError, match="shape"):
        C.CoefficientField(_wave, 1.0, "any", trigonometric=_trig_form("sin-cos"))


@pytest.mark.parametrize("name", TRIG_FIELDS)
@pytest.mark.parametrize(
    "level", [pytest.param(0, id="level0-nodes-farthest-apart"), 1, 2, 3, 4, 5, 6]
)
def test_trigonometric_cell_means_match_the_triangle_rule(meshes, name, level):
    # against refinement at rel_tol 1e-12 with floor 1, the fields' scale,
    # which lands within 7e-14 of the closed form relative to the field's
    # largest cell mean
    form = _trig_form(name)
    mesh = meshes[level]
    cells = _sample_cells(mesh)
    got = C.cell_means(None, mesh, 1e-12, trigonometric=form)[cells]
    verts = mesh.cell_coordinates()[cells]
    want = Q.triangle_means(lambda p, i: form(p), verts, 1e-12, abs_floor=1.0)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", TRIG_FIELDS)
def test_trigonometric_cell_means_restrict_exactly(name):
    # each level-L cell mean is the mean of its four children's, L = 0..9
    terms = _trig_form(name).terms
    coarse = Q._trigonometric_cell_means(terms, 0)
    for level in range(1, 11):
        fine = Q._trigonometric_cell_means(terms, level)
        for c, f in zip(coarse.T, fine.T):
            assert np.max(np.abs(_restricted(f, level - 1) - c)) <= 4e-15
        coarse = fine


def test_trigonometric_means_of_a_term_match_the_divided_difference():
    # at level 0 the exponents lie up to 8 pi apart, where the divided
    # difference sum_i e^{z_i} / prod_{j != i} (z_i - z_j) loses nothing
    for kx in range(-4, 5):
        for ky in range(-4, 5):
            z = 1j * np.pi * np.array([[0, kx, kx + ky], [0, kx + ky, ky]])
            for got, nodes in zip(Q._cell_exp_means(kx, ky, 1), z):
                if min(abs(nodes[i] - nodes[j]) for i, j in ((0, 1), (1, 2), (0, 2))) < 1.0:
                    continue  # the sum below cancels
                want = 2.0 * sum(
                    np.exp(nodes[i]) / np.prod([nodes[i] - nodes[j] for j in range(3) if j != i])
                    for i in range(3)
                )
                assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("name", ["sin-cos", "grad-sinsin"])
def test_l2_oscillation_identity_matches_the_refined_route(meshes, name):
    form = _trig_form(name)
    mesh = meshes[3]
    f_h = F.project_rhs(form, mesh)
    rng = np.random.default_rng(7)
    for c in (f_h, F.PCVectorField(mesh, f_h.values + 0.01 * rng.standard_normal(f_h.values.shape))):
        got = X.data_oscillation(form, c, 2.0)
        want = C.lp_misfit(form, c, 2.0, 1e-9)
        assert abs(got - want) <= 1e-9 * want
    # level 7 on sampled cells: refining all 32768 cells to 1e-9 takes 20 s
    mesh = meshes[7]
    f_h = F.project_rhs(form, mesh)
    cells = _sample_cells(mesh)
    got = C._trigonometric_misfit_means(form, f_h)[cells]
    consts = f_h.values[cells]

    def integrand(p, ids):
        d = form(p) - consts[ids]
        return d[:, 0] ** 2 + d[:, 1] ** 2

    want = Q.triangle_means(integrand, mesh.cell_coordinates()[cells], 1e-9)
    assert abs(got.sum() - want.sum()) <= 1e-9 * want.sum()
    assert np.max(np.abs(got - want)) <= 1e-9 * np.mean(want)


@pytest.mark.parametrize("level", [0, 3])
def test_smooth_l2_error_matches_the_refined_route(meshes, level):
    A = C.smooth_coefficient()
    undeclared = dataclasses.replace(A, trigonometric=None)
    mesh = meshes[level]
    for A_h in (C.project_coefficient(A, mesh), C.project_coefficient(C.log_singular_coefficient(0.5), mesh)):
        got = C.coefficient_error(A, A_h, 2.0)
        want = C.coefficient_error(undeclared, A_h, 2.0, rel_tol=1e-9)
        assert abs(got - want) <= 1e-8 * want


def test_declared_trigonometric_fields_are_never_sampled(meshes, monkeypatch):
    def never(points):
        raise AssertionError("sampled")

    monkeypatch.setattr(Q, "triangle_means", None)
    monkeypatch.setattr(Q, "global_scale_floor", None)
    mesh = meshes[5]
    A = C.smooth_coefficient()
    A = dataclasses.replace(A, evaluate=never)
    A_h = C.project_coefficient(A, mesh)
    assert C.coefficient_error(A, A_h, 2.0) > 0.0
    form = _trig_form("grad-sinsin")
    f_h = F.project_rhs(form, mesh)
    assert C.lp_misfit(never, f_h, 2.0, 1e-6, trigonometric=form) > 0.0
