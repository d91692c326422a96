import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmofem.errors import MeshBoundsError
from bmofem.mesh import (
    Mesh,
    build_uniform_mesh,
    cell_areas,
    interior_vertex_indices,
    triangle_areas,
)

# diameter / inradius of a right isoceles triangle with legs h:
# sqrt(2) h / ((2 - sqrt(2)) h / 2) = 2 + 2 sqrt(2)
STRUCTURED_RATIO = 2.0 + 2.0 * math.sqrt(2.0)


def _edge_lengths(mesh):
    """(m, 3) edge lengths per cell."""
    coords = mesh.cell_coordinates()
    return np.linalg.norm(coords - np.roll(coords, 1, axis=1), axis=2)


def _diameters(mesh):
    return _edge_lengths(mesh).max(axis=1)


def _reference_arrays(level):
    """The mesh arrays by index arithmetic on flat vertex ids, with the
    cell coordinates gathered through the connectivity and the areas
    computed from them: the construction the grid slices replace."""
    n = 2**level
    side = np.arange(n + 1) * (1.0 / n)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    ll, lr, ul, ur = vid(ii, jj), vid(ii + 1, jj), vid(ii, jj + 1), vid(ii + 1, jj + 1)
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([ll, lr, ur])
    cells[1::2] = np.column_stack([ll, ur, ul])
    x, y = vertices[:, 0], vertices[:, 1]
    boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    coords = vertices[cells]
    return {
        "vertices": vertices,
        "cells": cells,
        "boundary_vertex_flags": boundary,
        "cell_coordinates": coords,
        "cell_areas": triangle_areas(coords),
        "interior_vertex_indices": np.flatnonzero(~boundary),
    }


@pytest.mark.parametrize("level", range(9))
def test_arrays_match_the_index_arithmetic_bit_for_bit(level):
    m = Mesh(level)
    got = {
        "vertices": m.vertices,
        "cells": m.cells,
        "boundary_vertex_flags": m.boundary_vertex_flags,
        "cell_coordinates": m.cell_coordinates(),
        "cell_areas": cell_areas(m),
        "interior_vertex_indices": interior_vertex_indices(m),
    }
    for name, want in _reference_arrays(level).items():
        a = got[name]
        assert (a.dtype, a.shape) == (want.dtype, want.shape), name
        assert a.tobytes() == want.tobytes(), name


def test_vertices_are_the_grid_flattened():
    m = Mesh(2)
    assert m.grid.shape == (5, 5, 2) and not m.grid.flags.writeable
    flat = m.grid.reshape(-1, 2)
    assert m.vertices.dtype == flat.dtype and np.array_equal(m.vertices, flat)
    assert tuple(m.grid[3, 1]) == (0.25, 0.75)


# every array a mesh hands out, read-only
_ARRAYS = {
    "grid": lambda m: m.grid,
    "vertices": lambda m: m.vertices,
    "cells": lambda m: m.cells,
    "boundary_vertex_flags": lambda m: m.boundary_vertex_flags,
    "cell_coordinates": lambda m: m.cell_coordinates(),
    "cell_areas": cell_areas,
}


@pytest.mark.parametrize("level", range(4))
def test_mesh_holds_only_its_level(level):
    m = Mesh(level)
    for read in _ARRAYS.values():
        read(m)
    interior_vertex_indices(m)
    assert vars(m) == {"level": level}


def test_level0_base_decomposition():
    m = build_uniform_mesh(0)
    assert m.num_cells == 2
    assert m.num_vertices == 4
    assert m.boundary_vertex_flags.all()


def test_level1_counts_and_interior_vertex():
    m = build_uniform_mesh(1)
    assert m.num_cells == 8
    assert m.num_vertices == 9
    interior = interior_vertex_indices(m)
    assert interior.size == 1
    assert np.allclose(m.vertices[interior[0]], [0.5, 0.5])


def test_level3_measure_additivity():
    m = build_uniform_mesh(3)
    assert m.num_cells == 128
    assert abs(cell_areas(m).sum() - 1.0) <= 1e-12


@settings(deadline=None, max_examples=8)
@given(level=st.integers(min_value=0, max_value=5))
def test_structured_counts(level):
    m = build_uniform_mesh(level)
    n = 2**level
    assert m.num_cells == 2 * n * n
    assert m.num_vertices == (n + 1) ** 2
    assert interior_vertex_indices(m).size == (n - 1) ** 2
    assert abs(cell_areas(m).sum() - 1.0) <= 1e-12
    assert (cell_areas(m) > 0).all()


def test_level_bounds_error():
    for make in (build_uniform_mesh, Mesh):
        with pytest.raises(MeshBoundsError, match="12"):
            make(13)
        with pytest.raises(MeshBoundsError, match="-1"):
            make(-1)


def test_mesh_is_its_level():
    m = Mesh(3)
    built = build_uniform_mesh(3)
    assert m == built and hash(m) == hash(built)
    assert m != Mesh(2)
    assert np.array_equal(m.vertices, built.vertices)
    assert np.array_equal(m.cells, built.cells)
    assert (m.num_vertices, m.num_cells) == (81, 128)
    assert m.vertices.shape == (m.num_vertices, 2)
    assert m.cells.shape == (m.num_cells, 3)
    assert m.boundary_vertex_flags.shape == (m.num_vertices,)


def test_refine_nesting():
    coarse = build_uniform_mesh(2)
    fine = build_uniform_mesh(coarse.level + 1)
    # vertex set of the parent is a subset of the child vertex set
    coarse_set = {tuple(v) for v in coarse.vertices}
    fine_set = {tuple(v) for v in fine.vertices}
    assert coarse_set <= fine_set
    # each parent cell is the union of four children: count children whose
    # centroid lies in each parent, and match areas
    fine_centroids = fine.vertices[fine.cells].mean(axis=1)
    fine_area = np.abs(cell_areas(fine))
    coarse_coords = coarse.vertices[coarse.cells]
    for k in range(coarse.num_cells):
        v0, v1, v2 = coarse_coords[k]
        d = np.column_stack([v1 - v0, v2 - v0])
        bary = np.linalg.solve(d, (fine_centroids - v0).T).T
        inside = (bary[:, 0] >= -1e-14) & (bary[:, 1] >= -1e-14) & (
            bary.sum(axis=1) <= 1 + 1e-14
        )
        assert inside.sum() == 4
        assert abs(fine_area[inside].sum() - np.abs(cell_areas(coarse))[k]) <= 1e-14


def test_refinement_scaling():
    coarse = build_uniform_mesh(1)
    fine = build_uniform_mesh(coarse.level + 1)
    assert np.allclose(_diameters(fine), _diameters(coarse)[0] / 2.0)
    assert np.allclose(np.abs(cell_areas(fine)), np.abs(cell_areas(coarse))[0] / 4.0)


def test_conformity_edge_structure():
    m = build_uniform_mesh(3)
    edges = Counter()
    for tri in m.cells:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[frozenset((tri[a], tri[b]))] += 1
    assert set(edges.values()) <= {1, 2}
    boundary_edges = [e for e, c in edges.items() if c == 1]
    # every boundary edge connects two boundary vertices
    for e in boundary_edges:
        assert all(m.boundary_vertex_flags[v] for v in e)
    assert len(boundary_edges) == 4 * 2**3


def test_shape_regularity_structured_all_levels():
    for level in range(5):
        m = build_uniform_mesh(level)
        inradius = 2.0 * cell_areas(m) / _edge_lengths(m).sum(axis=1)
        assert np.allclose(_diameters(m) / inradius, STRUCTURED_RATIO, rtol=1e-12, atol=0.0)


def test_mesh_is_immutable():
    m = build_uniform_mesh(1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.cells[0, 0] = 7
    with pytest.raises(ValueError):
        m.boundary_vertex_flags[0] = False
    with pytest.raises(AttributeError):
        m.level = 2


@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_arrays_are_computed_per_read_and_not_kept(name):
    m = build_uniform_mesh(2)
    read = _ARRAYS[name]
    first, second = read(m), read(m)
    assert first.dtype == second.dtype and np.array_equal(first, second)
    for a in (first, second):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]
    # the mesh keeps no reference: the array dies with its reader's last
    # reference while the mesh lives on
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None
