import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmofem import coeff as C
from bmofem import quadrature as Q
from bmofem.errors import InvariantError, SingularityError
from bmofem.mesh import build_uniform_mesh

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


def test_projection_rel_tol_range(meshes):
    A = C.identity_coefficient()
    with pytest.raises(ValueError):
        C.project_coefficient(A, meshes[1], rel_tol=1e-3)
    with pytest.raises(ValueError):
        C.project_coefficient(A, meshes[1], rel_tol=1e-13)


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

    A = C.CoefficientField(base, 1.0, "affine", {})
    shifted = C.CoefficientField(
        lambda p: base(p) + c * np.eye(2), 1.0, "affine-shifted", {}
    )
    lhs = C.project_coefficient(shifted, mesh).values
    rhs = C.project_coefficient(A, mesh).values + c * np.eye(2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_projection_commutes_with_shift_log_fixture(meshes):
    # adaptively integrated fields may stop at different uniform levels
    # once shifted, so the defect is bounded by the quadrature tolerance
    A = C.log_singular_coefficient(0.5)
    shifted = C.CoefficientField(
        lambda p: A.evaluate(p) + 2.0 * np.eye(2), 1.0, "log-shifted", {}
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

    A = C.CoefficientField(base, 1.0, "affine", {})
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


def test_cells_containing_refuses_unstructured_meshes(perturbed_mesh):
    with pytest.raises(InvariantError, match="level-1"):
        C.cells_containing(perturbed_mesh, (0.3, 0.3))


def test_mesh_maximal_constant(meshes):
    w = C.ScalarField(lambda p: np.full(p.shape[0], -3.0), "const")
    for x in [(0.3, 0.3), (0.5, 0.5), (1.0, 1.0)]:
        assert C.mesh_maximal(w, meshes[2], x) == pytest.approx(3.0, abs=1e-12)


def test_mesh_maximal_indicator_of_cell(meshes):
    mesh = meshes[1]
    # indicator of the lower triangle of grid square (0,0); its interior
    # point sees average exactly 1
    tri = mesh.vertices[mesh.cells[0]]

    def ind(p):
        d = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        bary = np.linalg.solve(d, (p - tri[0]).T).T
        inside = (bary[:, 0] >= 0) & (bary[:, 1] >= 0) & (bary.sum(axis=1) <= 1)
        return inside.astype(float)

    w = C.ScalarField(ind, "cell-indicator")
    assert C.mesh_maximal(w, mesh, (0.3, 0.1)) == pytest.approx(1.0, abs=1e-9)


def test_mesh_maximal_edge_point_takes_max(meshes):
    # w = x on the level-1 mesh; cell averages are the centroid abscissae.
    # The point (0.5, 0.25) lies on the edge between a cell with average
    # 1/3 and one with average 2/3.
    w = C.ScalarField(lambda p: p[:, 0], "x")
    val = C.mesh_maximal(w, meshes[1], (0.5, 0.25))
    assert val == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_dyadic_maximal_constant():
    w = C.ScalarField(lambda p: np.full(p.shape[0], 2.5), "const")
    for depth in (1, 3):
        assert C.dyadic_maximal(w, depth, (0.7, 0.2)) == pytest.approx(2.5, abs=1e-12)


def test_dyadic_maximal_indicator_inside_support():
    ind = C.ScalarField(
        lambda p: ((p[:, 0] < 0.5) & (p[:, 1] < 0.5)).astype(float), "quarter"
    )
    assert C.dyadic_maximal(ind, 1, (0.25, 0.25)) == 1.0
    assert C.dyadic_maximal(ind, 2, (0.25, 0.25)) == 1.0


def test_dyadic_maximal_indicator_outside_support():
    # only the unit square contains both (0.75, 0.75) and the support, so
    # the maximum is the global average 1/4 at every depth
    ind = C.ScalarField(
        lambda p: ((p[:, 0] < 0.5) & (p[:, 1] < 0.5)).astype(float), "quarter"
    )
    for depth in (1, 2, 5):
        assert C.dyadic_maximal(ind, depth, (0.75, 0.75)) == 0.25


def test_dyadic_depth_bound():
    w = C.ScalarField(lambda p: p[:, 0], "x")
    with pytest.raises(ValueError):
        C.dyadic_maximal(w, 11, (0.5, 0.5))


def test_maximal_relation_on_log_scalar(meshes):
    # cell averages are controlled by twice the containing-square average
    w = C.log_reciprocal_scalar()
    mesh = meshes[2]
    for x in [(0.1, 0.1), (0.4, 0.9), (0.55, 0.55), (1.0, 0.3)]:
        mm = C.mesh_maximal(w, mesh, x)
        dm = C.dyadic_maximal(w, mesh.level, x)
        assert mm <= 2.0 * dm + 1e-6


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


class RecordingField:
    """Scalar field that records the size of every evaluate batch."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []

    def evaluate(self, points):
        self.batches.append(points.shape[0])
        return self.fn(points)


def _wave(p):
    return np.sin(3.0 * p[:, 0]) + np.cos(2.0 * p[:, 1])


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
    _, _, fallbacks = C.dyadic_oscillations(PYRAMID_FIELDS["log"], 3)
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
    assert max(rec.batches) <= Q.STRIP_POINTS
    assert sum(rec.batches) == sum(4**g for g in range(4, 13))
    assert means[0][0] == pytest.approx(
        (1.0 - math.cos(3.0)) / 3.0 + math.sin(2.0) / 2.0, abs=C.DEFAULT_OSC_TOL
    )


def test_dyadic_means_do_not_depend_on_the_strip_size(monkeypatch):
    w = PYRAMID_FIELDS["log"]
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
    # exponential tail with rate exactly 2
    for lam, frac in table:
        exact = LOG_UNIT_SQUARE_OSC * math.exp(-2.0 * lam)
        assert frac == pytest.approx(exact, rel=2e-2)
    slopes = np.diff(np.log(fractions))
    assert max(abs(slopes)) / min(abs(slopes)) <= 3.0


def test_jn_rejects_bad_inputs():
    w = C.log_reciprocal_scalar()
    with pytest.raises(ValueError):
        C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [0.0], 4)
    with pytest.raises(ValueError):
        C.DyadicSquare(1, 2, 0)


def test_jn_skip_policy_errors_on_many_bad_samples():
    w = C.ScalarField(lambda p: np.where(p[:, 0] < 0.3, np.nan, 1.0), "broken")
    with pytest.raises(SingularityError):
        C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1.0], 6)


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


def _jn_all_at_once(w, square, lambdas, depth):
    """Reference: every sample point evaluated in one batch."""
    w_q = C.square_average(w, square)
    n = 2**depth
    t = (np.arange(n) + 0.5) * (square.size / n)
    xx, yy = np.meshgrid(square.lo[0] + t, square.lo[1] + t, indexing="xy")
    vals = np.asarray(w.evaluate(np.column_stack([xx.ravel(), yy.ravel()])))
    dev = np.abs(vals[np.isfinite(vals)] - w_q)
    return [(float(lam), float(np.mean(dev > lam))) for lam in lambdas]


@pytest.mark.parametrize(
    "w, square",
    [
        (C.log_reciprocal_scalar(), C.DyadicSquare(0, 0, 0)),
        (C.log_reciprocal_scalar((0.5, 0.5)), C.DyadicSquare(1, 1, 0)),
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
    assert max(rec.batches) <= Q.STRIP_POINTS
    assert sum(rec.batches) >= 4**12
    # |x + y - 1| > 1/2 on two corner triangles of total area 1/4
    assert table[0][1] == pytest.approx(0.25, abs=1e-3)
