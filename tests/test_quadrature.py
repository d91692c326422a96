import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from bmofem import coeff as C
from bmofem import fem as F
from bmofem import harness as X
from bmofem import quadrature as Q
from bmofem.errors import QuadratureError, SingularityError
from bmofem.mesh import build_uniform_mesh
from bmofem.quadrature import square_means_batch, triangle_means

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


def _unit_square_mean(f, tol=1e-8):
    return square_means_batch(lambda p, i: f(p), [(0.0, 0.0)], 1.0, tol)[0]


def test_square_mean_constant_and_indicator():
    assert _unit_square_mean(lambda p: np.full(p.shape[0], 2.0)) == 2.0
    # dyadic-aligned indicator is resolved exactly
    ind = lambda p: ((p[:, 0] < 0.5) & (p[:, 1] < 0.5)).astype(float)
    assert _unit_square_mean(ind) == 0.25


def test_square_mean_smooth():
    val = _unit_square_mean(lambda p: np.sin(np.pi * p[:, 0]), tol=1e-10)
    assert val == pytest.approx(2.0 / math.pi, abs=1e-9)


def test_square_means_batch_orders_preserved():
    los = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    vals = square_means_batch(lambda p, i: p[:, 0], los, 0.5, 1e-10)
    assert np.allclose(vals, [0.25, 0.75, 0.25, 0.75], atol=1e-12)


# ---------------------------------------------------------------------------
# Refinement policy pins.  Evaluation counts and values were recorded before
# the triangle, square and dyadic-ladder refinement loops were merged into
# one function (``_refine``); any change to the exact-agreement test, the
# Richardson test or the stall rule moves at least one of them.  The
# triangle counts were re-pinned when its levels became nested: the values
# and adaptive starts (as levels) are unchanged.

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


# name: (verts, integrand, rel_tol, evals, values, adaptive starts).
# Levels nest, and each evaluates only the centroids the last one lacked,
# so a cell settled at level M has cost 4^M evaluations, not sum 4^m.
TRIANGLE_PINS = {
    # levels 0 and 1 agree exactly
    "constant": (UNIT_TRI, lambda p: np.full(p.shape[0], 3.5), 1e-10, 4**1, [3.5], []),
    # settles by the Richardson test at level UNIFORM_CAP - 1
    "sin": (
        SIN_TRI,
        lambda p: np.sin(np.pi * p[:, 0]),
        1e-10,
        4 ** (Q.UNIFORM_CAP - 1),
        [0.8623592666320216],
        [],
    ),
    # a kink off the dyadic lines stalls two levels above the uniform cap,
    # after levels 0..UNIFORM_CAP + 2, instead of doubling on to EXTENDED_CAP;
    # the adaptive rule then takes 605 evaluations
    "kink": (
        KINK_TRI,
        lambda p: np.abs(p[:, 0] - 0.5 * p[:, 1] - 0.16787944117144233),
        1e-8,
        4 ** (Q.UNIFORM_CAP + 2) + 605,
        [0.054299442368313945],
        [4 ** (Q.UNIFORM_CAP + 2)],
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
    oscs, fallbacks = Q.dyadic_means(g, 3, 1e-5, centres=means)
    assert (g.evals, fallbacks) == (DYADIC_PIN["osc_evals"], DYADIC_PIN["osc_fallbacks"])
    assert [o.sum() for o in oscs] == pytest.approx(DYADIC_PIN["osc_sums"], rel=1e-13)


def _wave40(p):
    return np.sin(40.0 * p[:, 0] + 7.0 * p[:, 1])


def test_dyadic_means_without_centres_fall_back_to_square_means(monkeypatch):
    # the 16/32/64 ladder under-resolves sin(40 x + 7 y) on the coarse
    # squares, so their plain means go to square_means_batch, which must
    # give exactly what it gives those squares on its own
    calls = []
    real = Q.square_means_batch

    def spy(f, los, size, tol, square_ids=None):
        out = real(f, los, size, tol, square_ids)
        calls.append((size, square_ids, out))
        return out

    monkeypatch.setattr(Q, "square_means_batch", spy)
    tol = 1e-5
    means, fallbacks = Q.dyadic_means(_wave40, 2, tol)
    monkeypatch.undo()
    assert fallbacks == [1, 3, 0]
    assert [ids.size for _, ids, _ in calls] == [1, 3]
    for j in range(3):
        n = 2**j
        k = np.arange(4**j)
        los = np.column_stack([k % n, k // n]) * (1.0 / n)
        ref = square_means_batch(lambda p, i: _wave40(p), los, 1.0 / n, tol)
        assert np.all(np.abs(means[j] - ref) <= tol * np.maximum(1.0, np.abs(ref)))
        for size, ids, out in calls:
            if size == 1.0 / n:
                assert np.array_equal(means[j][ids], ref[ids])
                assert np.array_equal(out, ref[ids])


@pytest.mark.parametrize("shape", ["triangle", "square"])
def test_adaptive_rule_stops_at_the_node_cap(shape, monkeypatch):
    # both pins reach the adaptive rule, which needs more than 8 leaves
    monkeypatch.setattr(Q, "ADAPTIVE_NODE_CAP", 8)
    if shape == "triangle":
        verts, f, tol = TRIANGLE_PINS["kink"][:3]
        run = lambda: triangle_means(lambda p, i: f(p), verts, tol)
    else:
        los, size, f, tol = SQUARE_PINS["log-corner"][:4]
        run = lambda: square_means_batch(lambda p, i: f(p), np.asarray(los), size, tol)
    with pytest.raises(QuadratureError, match="after 8 subdivisions"):
        run()


# ---------------------------------------------------------------------------
# Point batches.  Every mean is a sum over one region's nodes, so the size of
# the batches a field is evaluated in cannot change any result; fields get
# column-major (N, 2) batches of at most _CHUNK points.  A square larger than
# a chunk comes in blocks of grid rows; a triangle level whose added nodes
# for one cell exceed the chunk comes in halves, split as numpy's pairwise
# sum splits them.


def _chunk_sensitive_results(sampled_path):
    log = C.log_singular_coefficient(0.5)
    mesh = build_uniform_mesh(5)
    A_h = C.project_coefficient(log, mesh)

    def rhs(P):
        return np.column_stack([np.sin(np.pi * P[:, 0]), np.cos(np.pi * P[:, 1])])

    sampled = C.load_sampled_coefficient(sampled_path)  # cut cells
    S_h = C.project_coefficient(sampled, build_uniform_mesh(3))  # by the fixed rule
    means, oscs, fallbacks = C.dyadic_oscillations(C.log_reciprocal_scalar(), 3)
    return [
        S_h.values,
        # refined piece by piece: |A - A_h|^3 is no polynomial
        np.array([C.coefficient_error(sampled, S_h, 3.0)]),
        A_h.values,
        np.array([C.coefficient_error(log, A_h, 2.0)]),
        np.array([X.data_oscillation(rhs, F.project_rhs(rhs, mesh), 2.1)]),
        square_means_batch(
            lambda p, i: np.abs(_log_reciprocal(p) - 1.75),
            np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.25]]),
            0.25,
            1e-8,
        ),
        *means,
        *oscs,
        np.array(fallbacks),
    ]


def test_results_do_not_depend_on_the_chunk_size(monkeypatch, nondyadic_csv_path):
    default = _chunk_sensitive_results(nondyadic_csv_path)
    for chunk in (1 << 10, 1 << 21):
        monkeypatch.setattr(Q, "_CHUNK", chunk)
        got = _chunk_sensitive_results(nondyadic_csv_path)
        assert all(np.array_equal(a, b) for a, b in zip(got, default, strict=True))


class _RecordingIntegrand:
    """Integrand f(points, ids) that records, per batch, its layout and
    whether it stays within the chunk."""

    def __init__(self, f):
        self.f = f
        self.batches = []

    def __call__(self, p, ids):
        self.batches.append(
            (p.dtype, p.ndim, p.shape[1], p.flags.f_contiguous, p.shape[0] <= Q._CHUNK)
        )
        return self.f(p)


# 2^10 is the smallest chunk that holds one grid row of the finest square grid
@pytest.mark.parametrize("chunk", [None, 1 << 10])
def test_fields_get_column_major_batches_of_at_most_a_chunk(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(Q, "_CHUNK", chunk)
    rec = _RecordingIntegrand(lambda p: np.sin(np.pi * p[:, 0]) * np.cos(p[:, 1]))
    triangle_means(rec, build_uniform_mesh(3).cell_coordinates(), 1e-10)
    # one cell refined past m = 8, whose added nodes exceed the chunk and
    # come in halves, then finished adaptively
    rec.f = TRIANGLE_PINS["kink"][1]
    triangle_means(rec, KINK_TRI, 1e-8)
    # the singular corner square runs every grid up to 1024^2
    rec.f = SQUARE_PINS["log-corner"][2]
    square_means_batch(rec, np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.5]]), 0.25, 1e-8)
    rec.f = lambda p: p[:, 0] * p[:, 1]
    Q.polynomial_means(rec, build_uniform_mesh(5).cell_coordinates())
    assert rec.batches and set(rec.batches) == {(np.dtype(float), 2, 2, True, True)}


@pytest.mark.parametrize("m", [8, 9])
@pytest.mark.parametrize("values", ["scalar", "matrix"])
def test_levels_past_the_chunk_sum_like_one_np_sum(m, values):
    # the 3 * 4^(m-1) nodes level m adds to one cell exceed the chunk from
    # m = 8; they are summed in halves, and the sums are one np.sum per
    # value column over all of them, bit for bit
    offsets = Q._centroid_offsets(m, added=True)
    assert offsets.shape[1] > Q._CHUNK

    def f(p, ids=None):
        r = _log_reciprocal(p)
        if values == "scalar":
            return r
        return np.stack([np.stack([r, np.sin(p[:, 0])], 1), np.stack([p[:, 1], r * r], 1)], 1)

    rec = _RecordingIntegrand(f)
    got = Q._tri_sums(rec, KINK_TRI, np.zeros(1, dtype=int), offsets)
    assert all(batch[-1] for batch in rec.batches)
    v0, v1, v2 = KINK_TRI[0]
    a, b = offsets
    nodes = np.column_stack([v0[i] + a * (v1[i] - v0[i]) + b * (v2[i] - v0[i]) for i in (0, 1)])
    cols = f(nodes).reshape(a.size, -1)
    want = np.array([np.sum(cols[:, c]) for c in range(cols.shape[1])])
    assert np.array_equal(got.reshape(-1), want)


def test_default_chunk_is_cache_sized():
    # the two coordinates of a full batch take at most 1 MB
    assert 2 * 8 * Q._CHUNK <= 1 << 20
    # one grid row of the finest square grid fits a chunk
    assert Q.MAX_SQUARE_GRID <= Q._CHUNK


# ---------------------------------------------------------------------------
# Grid nodes.  The ladder strips and the square grids write their nodes into
# one planar buffer by broadcasting corner plus offsets; the points fields
# receive must equal, bit for bit, the tile/repeat construction below.


class _PointRecorder:
    """Field that keeps a copy of every batch of points (and ids) it gets."""

    def __init__(self):
        self.points = []
        self.ids = []

    def __call__(self, p, ids=None):
        self.points.append(np.array(p))
        self.ids.append(None if ids is None else np.array(ids))
        return p[:, 0] + p[:, 1]


def _tile_repeat_strips(g, lo, size):
    n = 2**g
    t = (np.arange(n) + 0.5) * (size / n)
    xs, ys = lo[0] + t, lo[1] + t
    rows = min(n, Q.STRIP_POINTS // n)
    return [
        np.stack([np.tile(xs, rows), np.repeat(ys[r0 : r0 + rows], n)]).T
        for r0 in range(0, n, rows)
    ]


def _tile_repeat_square_grids(los, size, n, square_ids):
    """Whole squares per chunk, or one square in blocks of _CHUNK // n rows."""
    t = (np.arange(n) + 0.5) * (size / n)
    per = max(1, Q._CHUNK // (n * n))
    rows = min(n, Q._CHUNK // n)
    bx = np.tile(t, rows)
    return [
        (
            np.stack([lo[:, 0, None] + bx, lo[:, 1, None] + by]).reshape(2, -1).T,
            np.repeat(square_ids[start : start + per], bx.size),
        )
        for start in range(0, los.shape[0], per)
        for lo in [los[start : start + per]]
        for by in [np.repeat(t[r0 : r0 + rows], n) for r0 in range(0, n, rows)]
    ]


@pytest.mark.parametrize(
    "g, lo, size",
    [
        (4, None, None),
        (10, None, None),
        (12, None, None),  # 64 strips of 64 rows
        (7, (0.375, 0.125), 0.125),
        (11, np.array([0.5, 0.0]), 0.5),
    ],
)
def test_ladder_strip_nodes_match_tile_repeat(g, lo, size):
    rec = _PointRecorder()
    args = () if lo is None else (lo, size)
    strips = list(Q._ladder_strips(rec, g, *args))
    want = _tile_repeat_strips(g, (0.0, 0.0) if lo is None else lo, 1.0 if size is None else size)
    assert len(rec.points) == len(strips) == len(want)
    for (r0, pts, values), got, ref in zip(strips, rec.points, want):
        assert got.flags.f_contiguous
        assert np.array_equal(got, ref)
        assert np.array_equal(values, (ref[:, 0] + ref[:, 1]).reshape(values.shape))
    rows = want[0].shape[0] >> g
    assert [r0 for r0, _, _ in strips] == list(range(0, 2**g, rows))


@pytest.mark.parametrize(
    "n, size, count",
    [(16, 0.25, 16), (32, 1.0 / 32.0, 40), (64, 0.125, 3), (256, 0.5, 2), (1024, 1.0, 1),
     (256, 0.25, 3)],
)
def test_square_grid_nodes_match_tile_repeat(n, size, count):
    rng = np.random.default_rng(n)
    los = rng.integers(0, 8, (count, 2)) * size
    ids = rng.permutation(count) + 7
    rec = _PointRecorder()
    means = Q._square_grid_means(rec, los, size, n, ids)
    want = _tile_repeat_square_grids(los, size, n, ids)
    assert len(rec.points) == len(want)
    for got, got_ids, (ref, ref_ids) in zip(rec.points, rec.ids, want):
        assert np.array_equal(got, ref)
        assert np.array_equal(got_ids, ref_ids)
    assert max(p.shape[0] for p in rec.points) <= Q._CHUNK
    # each square's grid rows are summed, then its n row sums
    vals = np.concatenate([p[:, 0] + p[:, 1] for p, _ in want]).reshape(count, n, n)
    assert np.array_equal(means, vals.sum(axis=2).sum(axis=1) / (n * n))


# ---------------------------------------------------------------------------
# Nested triangle levels.  Level m evaluates only the centroids that level
# m - 1 lacks and carries each cell's mean forward.  The reference below is
# the full-level kernel this replaced: the mean over all 4^m centroids,
# driven by the same refinement rule.


def _as_set(offsets):
    return set(map(tuple, offsets.T.tolist()))


@pytest.mark.parametrize("m", range(1, 9))
def test_added_centroids_complete_the_last_level_bit_for_bit(m):
    added = Q._centroid_offsets(m, added=True)
    last, full = _as_set(Q._centroid_offsets(m - 1)), _as_set(Q._centroid_offsets(m))
    assert added.shape == (2, 3 * 4 ** (m - 1))
    assert len(_as_set(added)) == added.shape[1]
    assert _as_set(added).isdisjoint(last)
    assert _as_set(added) | last == full


def test_level_zero_adds_the_centroid():
    assert np.array_equal(Q._centroid_offsets(0, added=True), [[1.0 / 3.0], [1.0 / 3.0]])


def _grid_centroid_offsets(m, added):
    # the construction the row-by-row build replaced: masks on the full
    # (i, j) grid, the cells taken in row-major order
    n = 2**m
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    up = i + j <= n - 1
    down = i + j <= n - 2
    if added:
        i_odd, j_odd = i % 2 == 1, j % 2 == 1
        up &= ~(i_odd & j_odd)
        down &= i_odd | j_odd
    a = np.concatenate([(3 * i[up] + 1), (3 * i[down] + 2)]) / (3 * n)
    b = np.concatenate([(3 * j[up] + 1), (3 * j[down] + 2)]) / (3 * n)
    return np.stack([a, b])


@pytest.mark.parametrize("m", range(10))
@pytest.mark.parametrize("added", [False, True])
def test_centroid_offsets_are_the_grid_construction_bit_for_bit(m, added):
    got = Q._centroid_offsets(m, added)
    assert np.array_equal(got.view(np.int64), _grid_centroid_offsets(m, added).view(np.int64))


@pytest.mark.parametrize("added", [False, True])
def test_centroid_offsets_are_cached_only_up_to_the_chunk(added):
    # No level is cached any more, below the chunk (7) or above it (9): each
    # call builds a fresh read-only array that is freed when dropped.
    for m in (3, 7, 9):
        offsets = Q._centroid_offsets(m, added)
        again = Q._centroid_offsets(m, added)
        assert offsets is not again and not offsets.flags.writeable
        assert np.array_equal(offsets.view(np.int64), again.view(np.int64))
        ref = weakref.ref(offsets)
        del offsets
        gc.collect()
        assert ref() is None


# ---------------------------------------------------------------------------
# The norm kernel


def _special_values(rng, n):
    tiny = np.finfo(float).tiny
    pool = np.array(
        [0.0, -0.0, 5e-324, -5e-324, tiny / 3, 1e-160, 1e154, -1e155, 1e200, 1.7e308,
         np.inf, -np.inf, np.nan, 1.0, -2.5]
    )
    out = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))
    pick = rng.random(n) < 0.3
    out[pick] = rng.choice(pool, int(pick.sum()))
    return out


@pytest.mark.parametrize("shape", [(), (2,), (2, 2), (3,)])
def test_flat_norm_is_linalg_norm_bit_for_bit(shape, rng):
    n = 20000
    a = _special_values(rng, n * math.prod(shape)).reshape((n,) + shape)
    a[:4] = 0.0
    a[1] = -0.0
    # a strided view, as of every other row, too
    for x in (a, a[::2]):
        with np.errstate(over="ignore"):
            got = Q._flat_norm(x)
            want = np.linalg.norm(x.reshape(x.shape[0], -1), axis=1)
        assert got.dtype == want.dtype and got.shape == (x.shape[0],)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isinf(got).any() and np.isnan(got).any() and (got == 0.0).any()


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
def test_value_norm_is_the_old_sum_of_squares(shape, rng):
    for _ in range(2000):
        v = rng.standard_normal(shape) * np.exp(rng.uniform(-5, 5, shape))
        assert Q._value_norm(v) == float(np.sqrt(np.sum(v**2)))


def _full_level_means(f, verts, cell_ids, m):
    """Composite midpoint means over all 4^m centroids of each triangle."""
    a, b = Q._centroid_offsets(m)
    k = a.size
    per = max(1, Q._CHUNK // k)
    chunks = []
    for start in range(0, verts.shape[0], per):
        v = verts[start : start + per]
        w = np.ascontiguousarray(v.transpose(2, 0, 1))[..., None]
        v0 = w[:, :, 0]
        planar = v0 + a * (w[:, :, 1] - v0) + b * (w[:, :, 2] - v0)
        vals = Q._eval(f, planar.reshape(2, -1).T, np.repeat(cell_ids[start : start + per], k))
        chunks.append(vals.reshape((v.shape[0], k) + vals.shape[1:]).mean(axis=1))
    return np.concatenate(chunks, axis=0)


def _reference_triangle_means(f, verts, rel_tol, cell_ids=None, abs_floor=0.0):
    verts = np.asarray(verts, dtype=float)
    cell_ids = np.arange(len(verts)) if cell_ids is None else np.asarray(cell_ids)
    means, rest = Q._refine(
        lambda m, idx, prev: _full_level_means(f, verts[idx], cell_ids[idx], m),
        len(verts),
        range(Q.EXTENDED_CAP + 1),
        rel_tol,
        abs_floor,
        stall_after=Q.UNIFORM_CAP,
    )
    for i in rest:
        means[i] = Q._adaptive_tri_mean(f, verts[i], int(cell_ids[i]), rel_tol, abs_floor)
    return means


def _assert_cellwise_close(got, want, floor=0.0):
    assert got.shape == want.shape
    err = Q._flat_norm(got - want)
    assert np.all(err <= 1e-13 * np.maximum(Q._flat_norm(want), floor))


def _scalar_field(p, ids):
    return np.sin(np.pi * p[:, 0]) * np.cos(2.0 * p[:, 1]) + (ids % 3)


def _vector_field(p, ids):
    return np.stack([np.exp(p[:, 0] * p[:, 1]), np.cos(3.0 * p[:, 0]) + ids], axis=1)


def _matrix_field(p, ids):
    x, y = p[:, 0], p[:, 1]
    out = np.empty((p.shape[0], 2, 2))
    out[:, 0, 0] = 1.0 + x * x
    out[:, 0, 1] = out[:, 1, 0] = x * np.sin(y)
    out[:, 1, 1] = 2.0 + np.log1p(x + y) * (1 + ids % 2)
    return out


@pytest.mark.parametrize("field", [_scalar_field, _vector_field, _matrix_field])
@pytest.mark.parametrize("with_ids", [False, True])
def test_nested_levels_match_the_full_level_kernel(field, with_ids):
    verts = build_uniform_mesh(3).cell_coordinates()
    ids = np.arange(len(verts))[::-1] + 5 if with_ids else None
    floor = Q.global_scale_floor(field, verts, ids)
    got = triangle_means(field, verts, 1e-10, cell_ids=ids, abs_floor=floor)
    want = _reference_triangle_means(field, verts, 1e-10, cell_ids=ids, abs_floor=floor)
    _assert_cellwise_close(got, want, floor)


@pytest.mark.parametrize("name", sorted(TRIANGLE_PINS))
def test_nested_levels_match_the_full_level_kernel_on_the_pins(name):
    verts, f, tol, _, _, _ = TRIANGLE_PINS[name]
    field = lambda p, ids: f(p)
    _assert_cellwise_close(
        triangle_means(field, verts, tol), _reference_triangle_means(field, verts, tol)
    )


def test_nested_levels_match_the_full_level_kernel_on_cut_pieces(nondyadic_csv_path):
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    mesh = build_uniform_mesh(3)
    pieces, parent, _ = C._grid_pieces(mesh.level, A.breaks)
    assert len(pieces) > len(np.unique(parent))
    field = lambda p, ids: A.evaluate(p)
    tol = C.DEFAULT_PROJECTION_TOL
    _assert_cellwise_close(
        triangle_means(field, pieces, tol, cell_ids=parent),
        _reference_triangle_means(field, pieces, tol, cell_ids=parent),
    )


def test_empty_inputs_evaluate_nothing():
    def never(*args):
        raise AssertionError("evaluated on empty input")

    means, rest = Q._refine(never, 0, range(3), 1e-6, 0.0, stall_after=1)
    assert means.size == 0 and rest.size == 0
    assert Q.global_scale_floor(never, np.empty((0, 3, 2))) == 0.0


def test_global_scale_floor_is_the_level_one_mean():
    verts = build_uniform_mesh(2).cell_coordinates()
    ids = np.arange(len(verts))
    want = np.mean(Q._flat_norm(np.abs(_full_level_means(_matrix_field, verts, ids, 1))))
    assert Q.global_scale_floor(_matrix_field, verts) == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# The fixed degree-4 rule


def _exact_monomial_mean(tri, i, j):
    """Mean of x^i y^j over the triangle tri, in exact rational arithmetic:
    x and y are linear in the barycentric coordinates, and the mean of
    l0^a l1^b l2^c is 2 a! b! c! / (a + b + c + 2)!."""
    xs, ys = ([Fraction(float(v[k])) for v in tri] for k in (0, 1))

    def times(poly, coords):
        out = {}
        for exps, c in poly.items():
            for k in range(3):
                key = tuple(e + (n == k) for n, e in enumerate(exps))
                out[key] = out.get(key, 0) + c * coords[k]
        return out

    poly = {(0, 0, 0): Fraction(1)}
    for coords in [xs] * i + [ys] * j:
        poly = times(poly, coords)
    f = math.factorial
    return sum(c * 2 * f(a) * f(b) * f(e) / f(a + b + e + 2) for (a, b, e), c in poly.items())


def _rule_test_triangles(sampled_path):
    pieces, _, _ = C._grid_pieces(2, C.load_sampled_coefficient(sampled_path).breaks)
    sheared = np.array([[[0.1, 0.2], [0.9, 0.35], [0.95, 0.4]], [[0.3, 0.9], [0.31, 0.1], [0.8, 0.6]]])
    return np.concatenate([UNIT_TRI, sheared, pieces[::7]])


def test_polynomial_means_are_exact_to_degree_four(nondyadic_csv_path):
    # on the reference triangle, on sheared ones and on pieces of cut cells
    tris = _rule_test_triangles(nondyadic_csv_path)
    assert len(tris) > 10
    for i in range(5):
        for j in range(5 - i):
            got = Q.polynomial_means(lambda p, ids: p[:, 0] ** i * p[:, 1] ** j, tris)
            want = np.array([float(_exact_monomial_mean(t, i, j)) for t in tris])
            assert np.max(np.abs(got - want)) <= 1e-15, (i, j)
    # a degree-5 monomial is beyond it
    got = Q.polynomial_means(lambda p, ids: p[:, 0] ** 5, UNIT_TRI)[0]
    assert abs(got - float(_exact_monomial_mean(UNIT_TRI[0], 5, 0))) > 1e-6


def test_polynomial_means_keep_constants_and_value_shapes():
    verts = build_uniform_mesh(3).cell_coordinates()
    for c in (1.0, 100.0, 0.5, 3.5):
        assert np.all(Q.polynomial_means(lambda p, ids: np.full(len(p), c), verts) == c)
    got = Q.polynomial_means(_matrix_field, verts)
    assert got.shape == (len(verts), 2, 2)
    for r in range(2):
        for c in range(2):
            col = Q.polynomial_means(lambda p, ids: _matrix_field(p, ids)[:, r, c], verts)
            assert np.array_equal(got[:, r, c], col)
    assert Q.polynomial_means(_matrix_field, np.empty((0, 3, 2))).size == 0


def test_polynomial_means_pass_each_node_its_cell_id():
    verts = build_uniform_mesh(2).cell_coordinates()
    ids = np.arange(len(verts)) + 11
    got = Q.polynomial_means(lambda p, i: i.astype(float), verts, cell_ids=ids)
    assert np.allclose(got, ids, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# The polar rule for radial fields: Gauss-Legendre along each edge, in the
# sinh variable about the centre, from the field's radial antiderivative.


def test_gauss_constants_are_leggauss():
    x, w = np.polynomial.legendre.leggauss(Q.GAUSS_NODES)
    half = Q.GAUSS_NODES // 2
    for got, want in ((Q._GAUSS_X, x), (Q._GAUSS_W, w)):
        assert len(got) == half
        assert np.array_equal(got, want[half:])
        # the other half mirrors this one
        assert np.array_equal(np.abs(want[:half][::-1]), want[half:])


RADIAL_CENTRE = np.array([0.3, 0.2])
# quadrilaterals, a triangle as one with a repeated vertex, each listed
# counterclockwise: the centre inside, outside, at a vertex, inside an edge,
# and 1e-9 below and above an edge's line
RADIAL_POLYGONS = np.array([
    [[0.0, 0.0], [1.0, 0.1], [0.2, 0.9], [0.2, 0.9]],
    [[0.5, 0.5], [1.0, 0.6], [0.9, 0.9], [0.6, 1.0]],
    [[0.3, 0.2], [0.9, 0.3], [0.4, 0.8], [0.1, 0.5]],
    [[0.1, 0.2], [0.6, 0.2], [0.3, 0.7], [0.3, 0.7]],
    [[0.0, 0.2 + 1e-9], [1.0, 0.2 + 1e-9], [0.5, 1.0], [0.0, 0.6]],
    [[0.0, 0.2 - 1e-9], [1.0, 0.2 - 1e-9], [0.5, 1.0], [0.0, 0.6]],
])
# radial polynomials g(r), as functions of r^2, with H(r) = int_0^r g(s) s ds
RADIAL_PROFILES = {
    "one": (lambda r2: np.ones_like(r2), lambda r: 0.5 * r * r),
    "r^2 + 3": (lambda r2: r2 + 3.0, lambda r: 0.25 * r**4 + 1.5 * r * r),
    "r^4": (lambda r2: r2 * r2, lambda r: r**6 / 6.0),
}


@pytest.mark.parametrize("name", sorted(RADIAL_PROFILES))
def test_radial_polygon_integrals_are_exact_for_radial_polynomials(name):
    g, H = RADIAL_PROFILES[name]
    polys = RADIAL_POLYGONS
    # reference: the degree-4 rule on the fan triangles, exact for g(|x - c|)
    fan = np.concatenate([polys[:, [0, 1, 2]], polys[:, [0, 2, 3]]])
    field = lambda p, ids: g(np.sum((p - RADIAL_CENTRE) ** 2, axis=1))
    e1, e2 = fan[:, 1] - fan[:, 0], fan[:, 2] - fan[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    parts = (Q.polynomial_means(field, fan) * area).reshape(2, -1)
    want = parts[0] + parts[1]
    got = Q.radial_polygon_integrals(lambda r, ids: H(r), RADIAL_CENTRE, polys)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    # clockwise, the edges are signed by the orientation
    back = Q.radial_polygon_integrals(lambda r, ids: H(r), RADIAL_CENTRE, polys[:, ::-1])
    assert np.all(np.abs(back - want) <= 1e-14 * np.abs(want))


def test_radial_polygon_integrals_batch_each_polygons_radii():
    seen = []

    def H(r, ids):
        seen.append((r.size, np.all(r > 0)))
        return ids * 0.5 * r * r  # polygon k integrates the constant k

    # the 4096 squares of side 1/64, more than a block and a batch hold
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    los = np.stack(np.meshgrid(np.arange(64), np.arange(64)), axis=2).reshape(-1, 1, 2)
    polys = (los + corners) / 64.0
    got = Q.radial_polygon_integrals(H, (0.3, 0.55), polys, kinks=np.full(len(polys), 0.5))
    assert np.allclose(got, np.arange(len(polys)) / 4096.0, rtol=1e-12, atol=0)
    assert len(seen) > 1 and all(size <= Q._CHUNK and positive for size, positive in seen)


@pytest.mark.parametrize("c", [None, 0.0, 1.5, -0.5])
def test_closed_form_polygons_match_the_gauss_rule(c):
    # the polygons above about a log(1/|x - centre|): the centre inside,
    # outside, at a vertex, inside an edge and 1e-9 from an edge's line,
    # and a repeated vertex (an empty edge), for w and for |w - c|, within
    # 1e-15 absolute, either orientation
    radial = C.log_reciprocal_scalar(tuple(RADIAL_CENTRE)).radial
    if c is None:
        H, kinks, level = (lambda r, ids: radial.antiderivative(r, 0.0)), None, ()
    else:
        rho = radial.level_radius(c)
        top = 2.0 * radial.antiderivative(rho, c)

        def H(r, ids):
            p = radial.antiderivative(r, c)
            np.subtract(top, p, out=p, where=r > rho)
            return p

        kinks, level = rho, (c, rho, top)
    want = Q.radial_polygon_integrals(H, radial.centre, RADIAL_POLYGONS, kinks)
    for polys in (RADIAL_POLYGONS, RADIAL_POLYGONS[:, ::-1]):
        got = Q._radial_line_polygons(radial.line_integral, radial.centre, polys, *level)
        assert np.all(np.abs(got - want) <= 1e-15)
