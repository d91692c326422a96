"""The benchmark's four study workloads and the inputs generated from a seed.

Every config is exactly what `bmofem run --config` accepts.  Only
`hodge-suite` (its random fields) and `convergence-sampled` (its sampled
coefficient grid) depend on the seed; the other two are the same study at
every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = {
    # The paper's headline pipeline on the unbounded log fixture: projection,
    # Jacobi CG, conjugate and flux Hodge splits, error and oscillation
    # quadrature.  Dominated by quadrature.triangle_means.
    "stability-log": {
        "kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos",
        "p": 2.1, "levels": "5..7",
    },
    # 100 identity-coefficient Poisson splits and no quadrature at all:
    # solve, geometry and assembly only.
    "hodge-suite": {"kind": "hodge-suite", "p": 3.0, "levels": "5..6"},
    # Dyadic maximal and BMO diagnostics: square quadrature, no linear solve.
    "bmo-log": {
        "kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..5",
    },
    # Convergence against a level-6 reference for a coefficient sampled on a
    # 10x10 grid: its kinks sit off the dyadic lines, which drives
    # triangle_means into its stall/adaptive path.  Levels 2..4,6 instead of
    # 2..5,7 keep three warm repeats inside the run length.
    "convergence-sampled": {
        "kind": "convergence", "coeff": "sampled", "rhs": "sin-cos",
        "p": 2.0, "p_hat": 2.0, "levels": "2..4,6",
    },
}

SEEDED = ("hodge-suite", "convergence-sampled")

GRID_SAMPLES = 10  # per side, spacing 1/9: interior grid lines are not dyadic
GRID_PERTURBATION = 0.01  # bound on the seeded perturbation of each entry


def smooth_field(x, y):
    """SPD base field (a11, a12, a22); its smallest eigenvalue is about 1.97."""
    a11 = 2.0 + 0.6 * np.sin(np.pi * x) * np.cos(0.5 * np.pi * y)
    a22 = 2.0 + 0.5 * (x - 0.4) ** 2 + 0.7 * (y - 0.6) ** 2
    a12 = 0.3 * (x - 0.5) * (y - 0.5)
    return a11, a12, a22


def sampled_grid_text(seed: int) -> str:
    """Sampled-coefficient CSV: the smooth field plus a seeded perturbation
    of at most GRID_PERTURBATION per entry, on a 10x10 grid.

    The declared alpha is rounded below the smallest eigenvalue over the
    samples.  Eigenvalues are concave in the matrix, so the minimum of the
    bilinear interpolant over a grid cell is at least the minimum over its
    corners, which makes alpha a certified coercivity constant.
    """
    rng = np.random.default_rng(seed)
    side = np.linspace(0.0, 1.0, GRID_SAMPLES)
    xx, yy = np.meshgrid(side, side, indexing="xy")  # rows y-major, x fastest
    x, y = xx.ravel(), yy.ravel()
    a11, a12, a22 = smooth_field(x, y)
    noise = rng.uniform(-GRID_PERTURBATION, GRID_PERTURBATION, (3, x.size))
    a11, a12, a22 = a11 + noise[0], a12 + noise[1], a22 + noise[2]
    min_eig = float(np.min(0.5 * (a11 + a22) - np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)))
    alpha = math.floor((min_eig - 1e-6) * 1e6) / 1e6
    lines = [f"# alpha={alpha!r}", "x,y,a11,a12,a22"]
    for row in zip(x, y, a11, a12, a22):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def study_config(name: str, seed: int, workdir: Path, root: Path) -> dict:
    """The workload's config for this seed.

    Writes the sampled grid into workdir when the workload needs one; paths
    in the config are relative to root, the directory studies run from.
    """
    data = dict(WORKLOADS[name])
    if name == "hodge-suite":
        data["seed"] = seed
    if data.get("coeff") == "sampled":
        grid = workdir / "coeff.csv"
        grid.write_text(sampled_grid_text(seed), encoding="utf-8")
        data["coeff_csv"] = grid.relative_to(root).as_posix()
    return data


def write_config(name: str, seed: int, workdir: Path, root: Path) -> Path:
    """Write the workload's config.json into workdir and return its path."""
    path = workdir / "config.json"
    data = study_config(name, seed, workdir, root)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
