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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshBoundsError

MAX_LEVEL = 12


@dataclass(frozen=True)
class Mesh:
    """The structured triangulation of the unit square at one refinement
    level; the level determines everything else, and meshes compare equal
    by level.

    vertices: ((2^level + 1)^2, 2) coordinates on the uniform grid.
    cells: (2 * 4^level, 3) vertex indices, positively oriented.
    boundary_vertex_flags: (num_vertices,) bool, True on the boundary.

    These arrays and the derived geometry (cell coordinates, areas) are
    computed once per instance on first use and cached read-only on it.
    Raises MeshBoundsError for level outside [0, 12].
    """

    level: int

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise MeshBoundsError(
                f"refinement level must be in [0, {MAX_LEVEL}], got {self.level}"
            )

    @cached_property
    def _arrays(self):
        return tuple(_freeze(a) for a in _uniform_arrays(self.level))

    @property
    def vertices(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def cells(self) -> np.ndarray:
        return self._arrays[1]

    @property
    def boundary_vertex_flags(self) -> np.ndarray:
        return self._arrays[2]

    @property
    def num_vertices(self) -> int:
        return (2**self.level + 1) ** 2

    @property
    def num_cells(self) -> int:
        return 2 * 4**self.level

    def cell_coordinates(self) -> np.ndarray:
        """Vertex coordinates per cell, shape (m, 3, 2)."""
        return self._cell_coordinates

    @cached_property
    def _cell_coordinates(self) -> np.ndarray:
        return _freeze(self.vertices[self.cells])

    @cached_property
    def _cell_areas(self) -> np.ndarray:
        return _freeze(triangle_areas(self.cell_coordinates()))


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
    """The structured mesh at the given refinement level, Mesh(level):
    (2^level + 1)^2 vertices on a uniform grid and 2 * 4^level cells.
    Raises MeshBoundsError for level outside [0, 12]."""
    return Mesh(level)


def triangle_areas(tris: np.ndarray) -> np.ndarray:
    """Signed areas of triangles (..., 3, 2), positive when counterclockwise."""
    d1 = tris[..., 1, :] - tris[..., 0, :]
    d2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def cell_areas(mesh: Mesh) -> np.ndarray:
    """Cell areas, positive (cells are counterclockwise), cached read-only."""
    return mesh._cell_areas


def interior_vertex_indices(mesh: Mesh) -> np.ndarray:
    return np.flatnonzero(~mesh.boundary_vertex_flags)
