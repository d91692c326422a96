"""Command line interface: `bmofem run --config <path.json>` plus flag
overrides.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BmofemError, ConfigError
from .harness import _CONFIG_KEYS, config_from_dict, run_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmofem",
        description="Finite element studies for elliptic problems with BMO coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one study described by a JSON config")
    run.add_argument("--config", help="path to a JSON config file")
    run.add_argument("--kind", help="study kind override")
    run.add_argument("--p", type=float, help="Lebesgue exponent override")
    run.add_argument("--p-hat", dest="p_hat", type=float, help="error-norm exponent override")
    run.add_argument("--levels", help="refinement levels, e.g. 2..5 or 2..5,7")
    run.add_argument("--coeff", help="coefficient fixture name")
    run.add_argument("--beta", type=float, help="log fixture amplitude")
    run.add_argument("--kappa", type=float, help="checkerboard contrast")
    run.add_argument("--rhs", help="right hand side fixture name")
    run.add_argument("--out", help="CSV output path")
    run.add_argument("--seed", type=int, help="random seed for sampled suites")
    run.add_argument("--solver-tol", dest="solver_tol", type=float, help="CG residual tolerance")
    return parser


def _load_config_data(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _merge_overrides(data, args: argparse.Namespace):
    """The config file's keys, overridden by every config flag that is set;
    config_from_dict parses and checks the values (and rejects a file that
    is not a JSON object)."""
    if not isinstance(data, dict):
        return data
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    return {**data, **flags}


def _print_report(report) -> None:
    meta = report.metadata
    print(f"# config: {meta['config']}")
    for key, val in sorted(meta.items()):
        if key in ("config", "timings_s", "reference_time_s"):
            continue
        print(f"# {key}: {val}")
    for row in report.rows:
        print(
            f"level={row.level} cells={row.cells}"
            + (f" stability_ratio={row.stability_ratio:.6g}" if row.stability_ratio is not None else "")
            + (f" err_phat={row.err_phat:.6g}" if row.err_phat is not None else "")
            + (f" order={row.order:.4g}" if row.order is not None else "")
            + (f" coeff_err_l2={row.coeff_err_l2:.6g}" if row.coeff_err_l2 is not None else "")
        )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config_from_dict(_merge_overrides(_load_config_data(args.config), args))
        report = run_study(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BmofemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _print_report(report)
    if cfg.out:
        print(f"# wrote {cfg.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
