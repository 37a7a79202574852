"""Command-line interface.

Two subcommands:

* ``causalest estimate`` — run one estimator on a user-supplied CSV and
  print a JSON report.
* ``causalest simulate`` — run the benchmark Monte Carlo case studies and
  write report.csv / runs.csv / meta.json, optionally checking the report
  against the packaged reference table.

Exit codes: 0 success, 1 reference check failed, 2 input error (an
``InvalidInputError``), 3 estimation error (any other ``CausalestError``);
``main`` is the one place that maps errors to codes. All randomness flows
from ``--seed`` (default 42); wall-clock time is never consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import _check_int, difference_in_means, validate
from .errors import CausalestError, InvalidInputError
from .estimators import (
    ate_dr,
    ate_ipw,
    ate_matching,
    ate_or,
    ate_psr,
    ate_stratification,
)
from .propensity import estimate_propensity_binary, trim_overlap
from .simulate import CASE_IDS, _check_size, compare_to_reference, run_monte_carlo
from .variance import bootstrap_variance

_PS_METHODS = ("ipw", "psr", "strat", "match", "dr")
_ESTIMATE_METHODS = ("dim", "or") + _PS_METHODS


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_columns(path: str, names: list[str]) -> dict[str, np.ndarray]:
    """The named columns of a CSV file, one contiguous float vector each.

    The file is read as UTF-8, after a byte-order mark if it starts with
    one. The header row is read with `csv`; only the named columns are
    parsed, by `np.loadtxt`. Double quotes around a cell are optional and
    no line is a comment. An empty or non-numeric cell is an input error.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = next(csv.reader(handle), [])
            missing = [name for name in names if name not in header]
            if not missing:
                position = {name: i for i, name in enumerate(header)}  # last one wins
                wanted = list(dict.fromkeys(names))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an empty body
                    table = np.loadtxt(
                        handle,
                        delimiter=",",
                        usecols=[position[name] for name in wanted],
                        quotechar='"',
                        comments=None,
                        ndmin=2,
                    )
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidInputError(_unparsable(path, names, exc)) from exc
    if missing:
        raise InvalidInputError(f"unknown column {missing[0]!r} in {path}")
    if table.shape[0] == 0:
        raise InvalidInputError(f"{path} has no data rows")
    return {name: table[:, j].copy() for j, name in enumerate(wanted)}


def _unparsable(path: str, names: list[str], exc: ValueError) -> str:
    """Why `np.loadtxt` rejected a file: the message names the first
    requested column (in `names` order) holding a cell `float` rejects.

    Only this error path reads the whole file as rows of text.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            position = {name: i for i, name in enumerate(next(reader))}
            rows = [row for row in reader if row]
    except (OSError, csv.Error) as err:  # csv.Error: a cell beyond its field limit
        return f"cannot read {path}: {err}"
    for name in names:
        for row in rows:
            try:
                float(row[position[name]])
            except (IndexError, ValueError):
                return f"column {name!r} has a non-numeric value"
    return f"cannot read {path}: {exc}"


def _parse_trim(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError("--trim expects 'lo,hi'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidInputError("--trim expects numeric bounds") from exc
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidInputError("--trim bounds must satisfy 0 <= lo < hi <= 1")
    return lo, hi


def _estimate_once(ds, method: str, trim: tuple[float, float], start=None):
    """(estimate, score fit start) of one method on one dataset.

    The score methods fit the score from `start` (zeros when None) and
    return the fit's `start`, which a bootstrap replicate starts from; the
    other methods return None for it.
    """
    if method == "dim":
        return difference_in_means(ds), None
    if method == "or":
        return ate_or(ds), None
    fit = estimate_propensity_binary(ds, start)
    fit, kept = trim_overlap(fit, *trim)
    # `kept` is sorted and unique, so keeping every unit is the identity, and
    # the read-only dataset can be shared instead of copied
    sub = ds if kept.size == ds.n else ds.take(kept)
    if method == "ipw":
        return ate_ipw(sub, fit), fit.start
    if method == "psr":
        return ate_psr(sub, fit), fit.start
    if method == "strat":
        return ate_stratification(sub, fit), fit.start
    if method == "match":
        return ate_matching(sub, fit), fit.start
    return ate_dr(sub, fit), fit.start


def _cmd_estimate(args) -> int:
    covariates = [c for c in (args.covariates or "").split(",") if c]
    trim = _parse_trim(args.trim)
    names = [args.outcome, args.treatment, *covariates]
    columns = _read_columns(args.data, names)
    x = (
        np.column_stack([columns[c] for c in covariates])
        if covariates
        else None
    )
    # validate copies a writeable array; these are handed over read-only
    # instead, so the dataset holds them and no second copy is made
    for column in (columns[args.outcome], columns[args.treatment], x):
        if column is not None:
            column.setflags(write=False)
    ds = validate(columns[args.outcome], columns[args.treatment], x)
    del columns, x  # the dataset holds what the estimators read
    est, start = _estimate_once(ds, args.method, trim)
    if args.bootstrap:
        # each replicate's score fit starts at the full-sample coefficients,
        # a root-n step from its own optimum, takes chord steps with the
        # full-sample inverse information, and stops by the same rule as a
        # fit from zeros
        boot = bootstrap_variance(
            ds,
            lambda sample: _estimate_once(sample, args.method, trim, start)[0],
            n_boot=args.bootstrap,
            seed=args.seed,
        )
        # the percentile interval of the replicates need not bracket the
        # full-sample point; the normal interval around it always does
        est = dataclasses.replace(est, variance=boot.variance)

    report = {
        "method": est.method,
        "point": est.point,
        "variance": est.variance,
        "ci": list(est.ci) if est.ci is not None else None,
        "n_used": est.n_used,
        "seed": args.seed,
        "diagnostics": est.diagnostics,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _format_cell(value: float) -> str:
    return repr(float(value))


@contextlib.contextmanager
def _writing(path: Path):
    """Report an OSError raised while writing under `path` as an input error."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def _write_case_outputs(report, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", newline="") as handle:
        handle.write("method,av_est,emp_var,mse\n")
        for j, m in enumerate(report.methods):
            handle.write(
                f"{m},{_format_cell(report.av_est[j])},"
                f"{_format_cell(report.emp_var[j])},{_format_cell(report.mse[j])}\n"
            )
    with open(out_dir / "runs.csv", "w", newline="") as handle:
        handle.write("run," + ",".join(report.methods) + "\n")
        for r in range(report.runs):
            cells = ",".join(_format_cell(v) for v in report.points[r])
            handle.write(f"{r},{cells}\n")
    meta = {
        "case": report.case_id,
        "methods": list(report.methods),
        "runs": report.runs,
        "n": report.n,
        "seed": report.seed,
        "true_tau": report.true_tau,
        "n_failed": report.n_failed.tolist(),
        "metadata": report.metadata,
    }
    with open(out_dir / "meta.json", "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_case(report) -> bool:
    """Compare the report with the packaged reference table under the
    packaged tolerances; returns True when every cell passes."""
    ok = True
    for c in compare_to_reference(report):
        status = "ok" if c.passed else "FAIL"
        print(
            f"[{status}] {report.case_id} {c.method} {c.quantity}: "
            f"{c.produced:.6g} vs {c.expected:.6g} (tol {c.tol:g})"
        )
        ok = ok and c.passed
    return ok


def _cmd_simulate(args) -> int:
    cases = list(CASE_IDS) if args.case == "all" else [args.case]
    out_root = Path(args.out)
    # bad options, then a path that cannot be a directory, fail before any
    # run, in the order `run_monte_carlo` checks the options
    _check_int(2, runs=args.runs)
    _check_int(0, seed=args.seed)
    for case in cases:
        _check_size(case, args.n)
    with _writing(out_root):
        out_root.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for case in cases:
        report = run_monte_carlo(case, runs=args.runs, n=args.n, seed=args.seed)
        target = out_root / case if len(cases) > 1 else out_root
        with _writing(target):
            _write_case_outputs(report, target)
        for j, m in enumerate(report.methods):
            print(
                f"{case} {m}: av_est={report.av_est[j]:.4f} "
                f"emp_var={report.emp_var[j]:.4f} mse={report.mse[j]:.4f}"
            )
        if args.check:
            all_ok = _check_case(report) and all_ok
    if not all_ok:
        print("reference check failed", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalest",
        description="Causal effect estimation and simulation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a treatment effect from a CSV")
    est.add_argument("--method", required=True, choices=_ESTIMATE_METHODS)
    est.add_argument("--data", required=True, help="input CSV path")
    est.add_argument("--outcome", required=True, help="outcome column name")
    est.add_argument("--treatment", required=True, help="treatment column name")
    est.add_argument(
        "--covariates", default="", help="comma-separated covariate column names"
    )
    est.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="B",
        help="bootstrap replicates for the variance and its normal 95%% interval "
        "(0 = analytic only)",
    )
    est.add_argument(
        "--trim",
        default="0.01,0.99",
        help="score trimming bounds lo,hi for score-based methods",
    )
    est.add_argument("--seed", type=int, default=42)
    est.set_defaults(run=_cmd_estimate)

    sim = sub.add_parser("simulate", help="run a benchmark case study")
    sim.add_argument("--case", required=True, choices=CASE_IDS + ("all",))
    sim.add_argument("--runs", type=int, default=1000)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument(
        "--jobs", type=int, default=1, help="ignored: runs always execute serially"
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--check",
        action="store_true",
        help="compare the report with the packaged reference table "
        "under the packaged tolerances",
    )
    sim.set_defaults(run=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InvalidInputError as exc:
        return _fail(2, str(exc))
    except CausalestError as exc:
        return _fail(3, str(exc))


if __name__ == "__main__":
    sys.exit(main())
