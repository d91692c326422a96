import numpy as np
import pytest

from bmofem.mesh import build_uniform_mesh


@pytest.fixture(scope="session")
def meshes():
    """Shared structured meshes, built once."""
    return {level: build_uniform_mesh(level) for level in range(8)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def sampled_csv_path():
    import pathlib

    return str(pathlib.Path(__file__).parent / "data" / "sampled_coeff.csv")


@pytest.fixture(scope="session")
def sampled_grid_csv(tmp_path_factory):
    """Factory: write a sampled-coefficient CSV on the rectilinear grid
    xs x ys (a smooth SPD field plus a seeded perturbation of at most 0.01
    per entry) and return its path."""

    def write(xs, ys, seed=0):
        rng = np.random.default_rng(seed)
        xx, yy = np.meshgrid(xs, ys, indexing="xy")  # rows y-major, x fastest
        x, y = xx.ravel(), yy.ravel()
        a11 = 2.0 + 0.6 * np.sin(np.pi * x) * np.cos(0.5 * np.pi * y)
        a22 = 2.0 + 0.5 * (x - 0.4) ** 2 + 0.7 * (y - 0.6) ** 2
        a12 = 0.3 * (x - 0.5) * (y - 0.5)
        noise = rng.uniform(-0.01, 0.01, (3, x.size))
        rows = zip(x, y, a11 + noise[0], a12 + noise[1], a22 + noise[2])
        lines = ["# alpha=1.5", "x,y,a11,a12,a22"]
        lines += [",".join(repr(float(v)) for v in row) for row in rows]
        path = tmp_path_factory.mktemp("grid") / "coeff.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


@pytest.fixture(scope="session")
def nondyadic_csv_path(sampled_grid_csv):
    """10 x 10 samples, spacing 1/9: every interior sample line is off the
    dyadic mesh lines of every level."""
    side = np.linspace(0.0, 1.0, 10)
    return sampled_grid_csv(side, side)
