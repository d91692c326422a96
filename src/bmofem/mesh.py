"""Structured conforming triangulations of the unit square.

The mesh family is fixed: at refinement level L the unit square is cut into
a (2^L x 2^L) grid of squares and each square is split along its lower-left
to upper-right diagonal into two right isoceles triangles.  The family is
nested (each cell is the union of four children one level down), shape
regular with a level-independent diameter/inradius ratio, and every grid
square is a dyadic square, which is what the maximal-function comparisons
rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, MeshBoundsError

MAX_LEVEL = 12


@dataclass(frozen=True)
class Mesh:
    """Conforming simplicial triangulation of the unit square.

    vertices: (n, 2) coordinates.
    cells: (m, 3) vertex indices, positively oriented.
    boundary_vertex_flags: (n,) bool, True on the boundary.
    level: refinement depth within the structured family.
    cell_diameters: (m,) per-cell diameter, the local mesh size.

    Derived geometry (cell coordinates, areas, hat gradients) is computed
    once per instance on first use and cached read-only on it.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_vertex_flags: np.ndarray
    level: int
    cell_diameters: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def cell_coordinates(self) -> np.ndarray:
        """Vertex coordinates per cell, shape (m, 3, 2)."""
        return self._cell_coordinates

    @cached_property
    def _cell_coordinates(self) -> np.ndarray:
        return _freeze(self.vertices[self.cells])

    @cached_property
    def _cell_areas(self) -> np.ndarray:
        return _freeze(triangle_areas(self.cell_coordinates()))

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """Gradients of the three local hat functions per cell, (m, 3, 2).

        Raises GeometryError naming the first degenerate or negatively
        oriented cell.
        """
        coords = self.cell_coordinates()
        areas = self._cell_areas
        if np.any(areas <= 0.0):
            bad = int(np.argmax(areas <= 0.0))
            raise GeometryError(f"cell {bad} is degenerate or negatively oriented")
        g = np.empty((self.num_cells, 3, 2))
        for a in range(3):
            # grad of the hat that is 1 at vertex a: rotate the opposite edge.
            edge = coords[:, (a + 2) % 3] - coords[:, (a + 1) % 3]
            g[:, a, 0] = -edge[:, 1]
            g[:, a, 1] = edge[:, 0]
        g /= 2.0 * areas[:, None, None]
        return _freeze(g)

    @cached_property
    def is_uniform(self) -> bool:
        """True when this mesh is exactly build_uniform_mesh(level), the
        structure the sine-transform Poisson solve relies on."""
        if not 0 <= self.level <= MAX_LEVEL:
            return False
        vertices, cells, boundary = _uniform_arrays(self.level)
        return (
            np.array_equal(self.vertices, vertices)
            and np.array_equal(self.cells, cells)
            and np.array_equal(self.boundary_vertex_flags, boundary)
        )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _uniform_arrays(level: int):
    """Vertices, cells and boundary flags of the structured mesh."""
    n = 2**level
    h = 1.0 / n
    side = np.arange(n + 1) * h
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()
    ll = vid(ii, jj)
    lr = vid(ii + 1, jj)
    ul = vid(ii, jj + 1)
    ur = vid(ii + 1, jj + 1)
    # Two triangles per grid square, diagonal from lower-left to upper-right.
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    cells[0::2] = lower
    cells[1::2] = upper

    x = vertices[:, 0]
    y = vertices[:, 1]
    boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    return vertices, cells, boundary


def build_uniform_mesh(level: int) -> Mesh:
    """Build the structured mesh at the given refinement level.

    Produces (2^level + 1)^2 vertices on a uniform grid and 2 * 4^level
    cells.  Raises MeshBoundsError for level outside [0, 12].
    """
    if not 0 <= level <= MAX_LEVEL:
        raise MeshBoundsError(
            f"refinement level must be in [0, {MAX_LEVEL}], got {level}"
        )
    vertices, cells, boundary = _uniform_arrays(level)
    diameters = np.full(cells.shape[0], math.sqrt(2.0) / 2**level)
    return Mesh(
        vertices=_freeze(vertices),
        cells=_freeze(cells),
        boundary_vertex_flags=_freeze(boundary),
        level=level,
        cell_diameters=_freeze(diameters),
    )


def refine(mesh: Mesh) -> Mesh:
    """Uniformly refine one level; equals build_uniform_mesh(level + 1)."""
    return build_uniform_mesh(mesh.level + 1)


def triangle_areas(tris: np.ndarray) -> np.ndarray:
    """Signed areas of triangles (..., 3, 2), positive when counterclockwise."""
    d1 = tris[..., 1, :] - tris[..., 0, :]
    d2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def cell_areas(mesh: Mesh) -> np.ndarray:
    """Signed cell areas (positive for valid meshes), cached read-only."""
    return mesh._cell_areas


def shape_regularity_ratio(mesh: Mesh) -> float:
    """Max over cells of diameter / inradius.

    Raises GeometryError identifying the first degenerate (zero-area) cell.
    """
    coords = mesh.cell_coordinates()
    e01 = np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1)
    e12 = np.linalg.norm(coords[:, 2] - coords[:, 1], axis=1)
    e20 = np.linalg.norm(coords[:, 0] - coords[:, 2], axis=1)
    diam = np.maximum(np.maximum(e01, e12), e20)
    areas = np.abs(cell_areas(mesh))
    bad = np.flatnonzero(areas <= 0.0)
    if bad.size:
        raise GeometryError(f"cell {bad[0]} has zero area")
    inradius = 2.0 * areas / (e01 + e12 + e20)
    return float(np.max(diam / inradius))


def interior_vertex_indices(mesh: Mesh) -> np.ndarray:
    return np.flatnonzero(~mesh.boundary_vertex_flags)


def mesh_to_text(mesh: Mesh) -> str:
    """Plain-text debug export: `v x y b` per vertex, `c i j k` per cell."""
    lines = []
    for (x, y), b in zip(mesh.vertices, mesh.boundary_vertex_flags):
        lines.append(f"v {float(x)!r} {float(y)!r} {int(b)}")
    for i, j, k in mesh.cells:
        lines.append(f"c {int(i)} {int(j)} {int(k)}")
    return "\n".join(lines) + "\n"
