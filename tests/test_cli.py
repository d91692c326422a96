import json
import time

import pytest

from bmofem import quadrature
from bmofem.cli import main
from bmofem.harness import CSV_HEADER


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_run_success(tmp_path, capsys):
    out = tmp_path / "report.csv"
    cfg = _write_config(
        tmp_path,
        {"kind": "hodge-suite", "levels": "1..2", "seed": 5, "out": str(out)},
    )
    assert main(["run", "--config", cfg]) == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER)
    stdout = capsys.readouterr().out
    assert "# config:" in stdout


def test_flag_overrides(tmp_path):
    out = tmp_path / "o.csv"
    cfg = _write_config(tmp_path, {"kind": "hodge-suite", "levels": "1..2", "seed": 5})
    code = main(
        ["run", "--config", cfg, "--seed", "9", "--levels", "1..1", "--out", str(out)]
    )
    assert code == 0
    body = out.read_text().strip().split("\n")
    assert len(body) == 2  # header plus the single level-1 row


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"kind": "nope", "levels": "1..2"})
    assert main(["run", "--config", cfg]) == 2
    cfg2 = _write_config(tmp_path, {"kind": "stability", "bogus_key": 1}, "c2.json")
    assert main(["run", "--config", cfg2]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json)]) == 2


@pytest.mark.parametrize("levels", ["x..3", "2..", "4..2,5"])
def test_bad_levels_flag_is_a_config_error(levels, capsys):
    assert main(["run", "--kind", "stability", "--levels", levels]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, key",
    [
        # int() would run levels 1 and 2
        ({"kind": "coeff-decay", "coeff": "smooth", "levels": [1.7, 2.9]}, "levels"),
        # numpy's default_rng would raise TypeError mid-study
        ({"kind": "hodge-suite", "levels": "1..2", "seed": 1.5}, "seed"),
        ({"kind": "coeff-decay", "coeff": "smooth", "levels": [True, 2]}, "levels"),
        ({"kind": "hodge-suite", "levels": "1..2", "seed": True}, "seed"),
        ({"kind": "hodge-suite", "levels": "1..2", "seed": "7"}, "seed"),
    ],
)
def test_non_integer_levels_or_seed_is_a_config_error(data, key, tmp_path, capsys):
    out = tmp_path / "o.csv"
    cfg = _write_config(tmp_path, {**data, "out": str(out)})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "fixture",
    [
        {"coeff": "log", "beta": -1},
        {"coeff": "log", "beta": float("inf")},
        {"coeff": "checkerboard", "kappa": float("nan")},
        {"coeff": "checkerboard", "kappa": 0.0},
    ],
)
def test_bad_fixture_parameter_is_a_config_error(fixture, tmp_path, capsys):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cfg = _write_config(tmp_path, {"kind": "stability", "levels": [1], **fixture})
    assert main(["run", "--config", cfg]) == 2
    name = "beta" if "beta" in fixture else "kappa"
    assert f"config error: {name} must be finite" in capsys.readouterr().err


def test_config_file_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, [1, 2])
    assert main(["run", "--config", cfg, "--seed", "3"]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 4


def test_numerical_failure_exit_code(tmp_path, capsys):
    # a sampled coefficient with a non-finite entry trips the quadrature
    # singularity guard during projection
    csv = tmp_path / "broken.csv"
    lines = ["# alpha=1.0", "x,y,a11,a12,a22"]
    for y in (0.0, 1.0):
        for x in (0.0, 1.0):
            a11 = "nan" if (x, y) == (0.0, 0.0) else "2.0"
            lines.append(f"{x},{y},{a11},0.0,2.0")
    csv.write_text("\n".join(lines) + "\n")
    cfg = _write_config(
        tmp_path,
        {"kind": "coeff-decay", "coeff": "sampled", "coeff_csv": str(csv), "levels": [1]},
    )
    assert main(["run", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_overflowing_coefficient_fails_fast(tmp_path, capsys):
    # the CG curvature overflows at kappa 1e300; no comparison is true of
    # NaN, so without the finiteness checks CG would run to its cap, about
    # 15 s at level 5
    cfg = _write_config(
        tmp_path,
        {"kind": "stability", "coeff": "checkerboard", "kappa": 1e300, "rhs": "sin-cos",
         "p": 2.0, "levels": "5"},
    )
    start = time.perf_counter()
    assert main(["run", "--config", cfg]) == 3
    assert time.perf_counter() - start < 1.0
    assert "non-finite curvature inf at CG iteration" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["0..2", "0..3"])
def test_tight_log_coeff_decay_takes_no_refinement(tmp_path, monkeypatch, levels):
    # refined cell means to 1e-12 or 1e-10 ground for 14-19 s on these
    # levels and then exited 3, "adaptive quadrature stalled above
    # tolerance"; the log fixture's polar cell means and L^2 error refine
    # nothing
    def refine(*args, **kwargs):
        raise AssertionError("triangle_means called")

    monkeypatch.setattr(quadrature, "triangle_means", refine)
    out = tmp_path / "decay.csv"
    cfg = _write_config(
        tmp_path,
        {"kind": "coeff-decay", "coeff": "log", "beta": 0.5, "p": 2.0, "levels": levels,
         "out": str(out)},
    )
    start = time.perf_counter()
    assert main(["run", "--config", cfg]) == 0
    assert time.perf_counter() - start < 2.0
    assert len(out.read_text().splitlines()) == 1 + int(levels[-1]) + 1

@pytest.mark.parametrize(
    "text, line",
    [("0.0,1.0,2.0,zero,2.0", 5), ("0.0,1.0,2.0,0.0", 5), ("1.0,1.0,2.0,0.0,2.0,7", 6),
     ("# alpha=one", 1)],
)
def test_malformed_sampled_line_is_a_numerical_failure_naming_it(text, line, tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    lines = ["# alpha=1.0", "x,y,a11,a12,a22", "0.0,0.0,2.0,0.0,2.0", "1.0,0.0,2.0,0.0,2.0",
             "0.0,1.0,2.0,0.0,2.0", "1.0,1.0,2.0,0.0,2.0"]
    lines[line - 1] = text
    csv.write_text("\n".join(lines) + "\n")
    cfg = _write_config(
        tmp_path,
        {"kind": "coeff-decay", "coeff": "sampled", "coeff_csv": str(csv), "levels": [1]},
    )
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and f"line {line}:" in err


def test_sampled_grid_with_a_repeated_point_is_a_numerical_failure_naming_it(tmp_path, capsys):
    # four rows for the 2x2 grid, but (0, 1) twice and (1, 1) missing
    csv = tmp_path / "bad.csv"
    rows = ["0.0,0.0,1.0,0.0,1.0", "1.0,0.0,2.0,0.0,1.0", "0.0,1.0,3.0,0.0,1.0",
            "0.0,1.0,4.0,0.0,1.0"]
    csv.write_text("\n".join(["# alpha=1.0", "x,y,a11,a12,a22"] + rows) + "\n")
    cfg = _write_config(
        tmp_path,
        {"kind": "coeff-decay", "coeff": "sampled", "coeff_csv": str(csv), "levels": [1]},
    )
    assert main(["run", "--config", cfg]) == 3
    assert "point (0.0, 1.0) is given 2 times" in capsys.readouterr().err


@pytest.mark.parametrize(
    "alpha, a11, point",
    [(1.0, -5.0, "(1.0, 1.0)"), (-1.0, 2.0, "(0.0, 0.0)")],
)
def test_sampled_grid_whose_alpha_fails_a_sample_is_a_numerical_failure_naming_it(
    alpha, a11, point, tmp_path, capsys
):
    # unchecked, a negative sample would fail only at assembly, naming no
    # sample, and a negative alpha would pass unnoticed
    csv = tmp_path / "bad.csv"
    rows = [f"{x},{y},{a11 if (x, y) == (1.0, 1.0) else 2.0},0.0,2.0"
            for y in (0.0, 1.0) for x in (0.0, 1.0)]
    csv.write_text("\n".join([f"# alpha={alpha}", "x,y,a11,a12,a22"] + rows) + "\n")
    cfg = _write_config(
        tmp_path,
        {"kind": "stability", "coeff": "sampled", "coeff_csv": str(csv), "levels": [2]},
    )
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and f"alpha={alpha}" in err and f"point {point}" in err


def test_convergence_with_a_vanishing_load_reports_no_order(tmp_path, capsys):
    # rhs constant projects to the zero load, so u_h = 0 on every level and
    # every error is 0: the order is left empty, as in coeff-decay
    out = tmp_path / "zero.csv"
    cfg = _write_config(
        tmp_path,
        {"kind": "convergence", "coeff": "identity", "rhs": "constant", "levels": "2..3,5",
         "out": str(out)},
    )
    assert main(["run", "--config", cfg]) == 0
    header, *rows = out.read_text().strip().split("\n")
    columns = header.split(",")
    study = [dict(zip(columns, row.split(","))) for row in rows][:2]
    assert [r["level"] for r in study] == ["2", "3"]
    assert all(r["order"] == "" and float(r["err_phat"]) == 0.0 for r in study)
