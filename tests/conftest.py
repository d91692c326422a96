import numpy as np
import pytest

from bmofem.mesh import Mesh, build_uniform_mesh


@pytest.fixture(scope="session")
def meshes():
    """Shared structured meshes, built once."""
    return {level: build_uniform_mesh(level) for level in range(8)}


@pytest.fixture(scope="session")
def perturbed_mesh():
    """Level-1 mesh with the center vertex moved off the grid: a valid
    triangulation outside the structured family."""
    base = build_uniform_mesh(1)
    verts = base.vertices.copy()
    center = np.flatnonzero((verts[:, 0] == 0.5) & (verts[:, 1] == 0.5))[0]
    verts[center] += [0.07, 0.03]
    return Mesh(
        vertices=verts,
        cells=base.cells,
        boundary_vertex_flags=base.boundary_vertex_flags,
        level=base.level,
        cell_diameters=base.cell_diameters,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def sampled_csv_path():
    import pathlib

    return str(pathlib.Path(__file__).parent / "data" / "sampled_coeff.csv")
