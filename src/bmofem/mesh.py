"""Structured conforming triangulations of the unit square.

The mesh family is fixed: at refinement level L the unit square is cut into
a (2^L x 2^L) grid of squares and each square is split along its lower-left
to upper-right diagonal into two right isoceles triangles.  The family is
nested (each cell is the union of four children one level down), shape
regular with a level-independent diameter/inradius ratio, and every grid
square is a dyadic square, which is what the maximal-function comparisons
rely on.

Everything is read off one vertex grid, grid[j, i] = (i / n, j / n) with
n = 2^L: cell coordinates are its corner slices and every cell has area
1 / (2 n^2).  A mesh holds only its level and builds each array when it is
read; no study reads the connectivity table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshBoundsError

MAX_LEVEL = 12


@dataclass(frozen=True)
class Mesh:
    """The structured triangulation of the unit square at one refinement
    level; the level determines everything else, and meshes compare equal
    by level.

    grid: (2^level + 1, 2^level + 1, 2), grid[j, i] the vertex in column i
    and row j; vertices: the grid reshaped to ((2^level + 1)^2, 2).
    cells: (2 * 4^level, 3) vertex indices, positively oriented: per grid
    square, row-major, the lower (ll, lr, ur) and upper (ll, ur, ul) cell.
    boundary_vertex_flags: (num_vertices,) bool, True on the boundary.

    These arrays and the derived geometry (cell coordinates, areas) are
    computed on each read and returned read-only; the mesh keeps none.
    Raises MeshBoundsError for level outside [0, 12].
    """

    level: int

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise MeshBoundsError(
                f"refinement level must be in [0, {MAX_LEVEL}], got {self.level}"
            )

    @property
    def grid(self) -> np.ndarray:
        n = 2**self.level
        side = np.arange(n + 1) * (1.0 / n)
        return _freeze(np.stack(np.meshgrid(side, side, copy=False), axis=-1))

    @property
    def vertices(self) -> np.ndarray:
        return self.grid.reshape(-1, 2)

    @property
    def cells(self) -> np.ndarray:
        n = 2**self.level
        k = np.arange(n) + (n + 1) * np.arange(n)[:, None]  # lower-left corners
        corners = np.array([[0, 1, n + 2], [0, n + 2, n + 1]], dtype=np.int64)
        return _freeze((k[:, :, None, None] + corners).reshape(-1, 3))

    @property
    def boundary_vertex_flags(self) -> np.ndarray:
        flags = np.ones((2**self.level + 1,) * 2, dtype=bool)
        flags[1:-1, 1:-1] = False
        return _freeze(flags.ravel())

    @property
    def num_vertices(self) -> int:
        return (2**self.level + 1) ** 2

    @property
    def num_cells(self) -> int:
        return 2 * 4**self.level

    def cell_coordinates(self) -> np.ndarray:
        """Vertex coordinates per cell, shape (m, 3, 2)."""
        g = self.grid
        ll, lr, ul, ur = g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:]
        coords = np.empty(ll.shape[:2] + (2, 3, 2))  # (row, column, cell, vertex, xy)
        for v, (lower, upper) in enumerate(((ll, ll), (lr, ur), (ur, ul))):
            coords[:, :, 0, v], coords[:, :, 1, v] = lower, upper
        return _freeze(coords.reshape(-1, 3, 2))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    """Cell areas, all 1 / (2 * 4^level), read-only."""
    return _freeze(np.full(mesh.num_cells, 0.5 / 4**mesh.level))


def interior_vertex_indices(mesh: Mesh) -> np.ndarray:
    return np.flatnonzero(~mesh.boundary_vertex_flags)
