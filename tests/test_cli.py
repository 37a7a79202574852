"""End-to-end tests of the command-line interface, invoked in process.

Each test drives ``causalest.cli.main`` with an argv list, captures the
streams, and checks exit codes, JSON reports, and the simulate output
files against independently computed expectations. The one exception runs
the CLI in a fresh interpreter, to see which modules a command loads.
"""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import causalest
from causalest import cli, simulate
from causalest.cli import _read_columns, main

from causalest.errors import TooManyFailedReplicatesError

from .conftest import newton_start_inverse, philox, saturating_binary


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_csv(path, columns):
    names = list(columns)
    length = len(next(iter(columns.values())))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([columns[name][i] for name in names])
    return str(path)


def _dictreader_columns(path, names):
    """Oracle: the row-dict reader, `csv.DictReader` and `float()` per cell."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {name: np.array([float(row[name]) for row in rows]) for name in names}


def _assert_same_bits(got, expected):
    assert list(got) == list(expected)
    for name, column in expected.items():
        assert got[name].shape == column.shape, name
        # compares the sign of zero too, which array_equal does not
        assert np.array_equal(got[name].view(np.int64), column.view(np.int64)), name


def _adversarial_cell(g) -> str:
    """A decimal with 1-17 significant digits and an exponent within +-300,
    written in one of the spellings a CSV producer might use."""
    digits = str(g.integers(1, 10)) + "".join(
        str(v) for v in g.integers(0, 10, size=g.integers(0, 17))
    )
    sign = g.choice(["", "-", "+"])
    exponent = int(g.integers(-300, 301))
    form = int(g.integers(0, 3))
    if form == 0:
        return f"{sign}{digits[0]}.{digits[1:] or '0'}e{exponent}"
    if form == 1:
        return f"{sign}{digits}E{exponent:+d}"
    return f"{sign}0.{digits}" if exponent < 0 else f"{sign}{digits}.5"


@pytest.fixture
def linear_csv(tmp_path):
    """A confounded linear design whose regression-adjusted effect is 2."""
    rng = philox(126)
    n = 400
    x = rng.normal(0.0, 1.0, n)
    d = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x))).astype(float)
    y = 1.0 + 2.0 * d + 1.5 * x + rng.normal(0.0, 0.3, n)
    return _write_csv(tmp_path / "data.csv", {"y": y, "d": d, "x": x})


class TestEstimate:
    def test_difference_in_means_json(self, tmp_path, capsys):
        # [DERIVED] oracle: noise-free outcome gap of exactly 3.
        path = _write_csv(
            tmp_path / "dim.csv",
            {"y": [1.0, 4.0, 1.0, 4.0], "d": [0, 1, 0, 1]},
        )
        code, out, err = _run(
            capsys, "estimate", "--method", "dim",
            "--data", path, "--outcome", "y", "--treatment", "d",
        )
        assert code == 0
        report = json.loads(out)
        assert report["point"] == pytest.approx(3.0)
        assert report["method"] == "difference_in_means"
        assert set(report) == {"method", "point", "variance", "ci", "n_used", "seed", "diagnostics"}
        assert report["n_used"] == 4
        assert report["seed"] == 42
        assert report["ci"] == [3.0, 3.0]
        assert report["diagnostics"] == {"n_treated": 2, "n_control": 2}

    def test_regression_adjustment_recovers_effect(self, linear_csv, capsys):
        # [DERIVED] oracle: the generating effect is 2; adjustment removes
        # the confounding that inflates the raw gap.
        code, out, _ = _run(
            capsys, "estimate", "--method", "or", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        assert code == 0
        report = json.loads(out)
        assert report["point"] == pytest.approx(2.0, abs=0.15)

        code, out, _ = _run(
            capsys, "estimate", "--method", "dim", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d",
        )
        raw = json.loads(out)["point"]
        assert abs(raw - 2.0) > 0.5  # unadjusted gap is visibly confounded

    def test_score_based_methods_run(self, linear_csv, capsys):
        # [TRIVIAL] every score-based method produces a finite point in
        # the right neighbourhood on a well-behaved design.
        for method in ("ipw", "psr", "strat", "match", "dr"):
            code, out, _ = _run(
                capsys, "estimate", "--method", method, "--data", linear_csv,
                "--outcome", "y", "--treatment", "d", "--covariates", "x",
            )
            assert code == 0, method
            report = json.loads(out)
            assert report["point"] == pytest.approx(2.0, abs=0.8), method

    def test_json_diagnostics_are_the_estimators(self, linear_csv, capsys):
        # the score fit's IRLS diagnostics stay out of the estimate report
        code, out, _ = _run(
            capsys, "estimate", "--method", "ipw", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        assert code == 0
        assert set(json.loads(out)["diagnostics"]) == {"n_treated", "n_control"}

    @pytest.mark.parametrize(
        "method, keys",
        [
            ("dim", {"n_treated", "n_control"}),
            ("or", set()),
            ("psr", {"degenerate_score"}),
            ("strat", {"n_unusable_strata", "n_excluded_units"}),
            ("match", set()),
            ("dr", {"n_treated", "n_control"}),
        ],
        ids=["dim", "or", "psr", "strat", "match", "dr"],
    )
    def test_json_diagnostics_describe_the_model_fitted(self, linear_csv, capsys, method, keys):
        # only what varies with the input is reported: the outcome model is
        # always OLS of y on (1, d, x), and the score regression on (1, d, p)
        code, out, _ = _run(
            capsys, "estimate", "--method", method, "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        assert code == 0
        assert set(json.loads(out)["diagnostics"]) == keys

    def test_explicit_default_trim_matches_default(self, linear_csv, capsys):
        # [TRIVIAL] passing the documented default bounds changes nothing.
        args = (
            "estimate", "--method", "ipw", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        _, default_out, _ = _run(capsys, *args)
        _, explicit_out, _ = _run(capsys, *args, "--trim", "0.01,0.99")
        assert explicit_out == default_out

    @pytest.mark.parametrize(
        "method, estimator",
        [("ipw", "ate_ipw"), ("psr", "ate_psr"), ("strat", "ate_stratification"),
         ("match", "ate_matching"), ("dr", "ate_dr")],
    )
    def test_estimator_reads_the_dataset_itself_unless_units_are_trimmed(
        self, monkeypatch, method, estimator
    ):
        # keeping every unit hands over the read-only dataset, not a copy;
        # a trim that drops units hands over ds.take(kept)
        g = philox(128)
        x = g.normal(size=(300, 2))
        d = (g.uniform(size=300) < 1.0 / (1.0 + np.exp(-x @ [1.0, -0.5]))).astype(float)
        ds = causalest.validate(x.sum(axis=1) + 2.0 * d + g.normal(size=300), d, x)
        seen = []
        real = getattr(cli, estimator)
        monkeypatch.setattr(cli, estimator, lambda sub, fit: seen.append(sub) or real(sub, fit))
        score_fit = causalest.estimate_propensity_binary(ds)

        assert causalest.trim_overlap(score_fit, 0.01, 0.99)[1].size == ds.n
        est, start = cli._estimate_once(ds, method, (0.01, 0.99))
        assert est == real(ds, score_fit)
        assert all(np.array_equal(a, b) for a, b in zip(start, score_fit.start, strict=True))
        assert seen[-1] is ds

        _, kept = causalest.trim_overlap(score_fit, 0.2, 0.8)
        assert 0 < kept.size < ds.n
        cli._estimate_once(ds, method, (0.2, 0.8))
        want = ds.take(kept)
        assert seen[-1] is not ds
        for name in ("y", "d", "x"):
            assert np.array_equal(getattr(seen[-1], name), getattr(want, name)), name

    def test_trim_that_keeps_one_unit_exits_3(self, tmp_path, capsys):
        # [DERIVED] bounds halfway to the neighbouring received scores keep
        # exactly one unit, too few for a dataset: an estimation error
        g = philox(129)
        x = g.normal(size=40)
        d = (g.uniform(size=40) < 1.0 / (1.0 + np.exp(-x))).astype(float)
        y = x + d + g.normal(size=40)
        path = _write_csv(tmp_path / "one.csv", {"y": y, "d": d, "x": x})
        scores = np.sort(causalest.estimate_propensity_binary(causalest.validate(y, d, x)).scores)
        lo, hi = (scores[19] + scores[20]) / 2.0, (scores[20] + scores[21]) / 2.0
        assert scores[19] < lo < scores[20] < hi < scores[21]
        code, out, err = _run(
            capsys, "estimate", "--method", "ipw", "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--trim", f"{float(lo)!r},{float(hi)!r}",
        )
        assert code == 3
        assert out == ""
        assert "1 of 40 units" in err

    def test_bootstrap_adds_deterministic_interval(self, linear_csv, capsys):
        # [DERIVED] bootstrap output carries a CI bracketing the point and
        # reproduces byte-for-byte under the same seed.
        args = (
            "estimate", "--method", "or", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--bootstrap", "200", "--seed", "7",
        )
        code, first, _ = _run(capsys, *args)
        assert code == 0
        report = json.loads(first)
        assert report["variance"] > 0.0
        lo, hi = report["ci"]
        assert lo < report["point"] < hi
        assert report["seed"] == 7
        _, second, _ = _run(capsys, *args)
        assert second == first

    def test_bootstrap_interval_brackets_point_when_replicates_do_not(
        self, tmp_path, capsys
    ):
        # On this draw the two matching replicates both land below the
        # full-sample point, so their percentile interval misses it; the
        # report carries the normal interval from the bootstrap variance.
        rng = philox(201)
        n = 2000
        x = rng.normal(size=(n, 3))
        index = x @ np.array([0.6, -0.4, 0.3])
        d = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(0.2 - index))).astype(float)
        y = 1.0 + 2.0 * d + 1.5 * index + rng.normal(size=n)
        path = _write_csv(
            tmp_path / "match.csv",
            {"y": y, "d": d, "x1": x[:, 0], "x2": x[:, 1], "x3": x[:, 2]},
        )
        code, out, err = _run(
            capsys, "estimate", "--method", "match", "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x1,x2,x3",
            "--bootstrap", "2", "--seed", "3",
        )
        assert code == 0, err
        report = json.loads(out)
        lo, hi = report["ci"]
        assert lo < report["point"] < hi
        assert (lo + hi) / 2.0 == pytest.approx(report["point"], abs=1e-12)
        half = 1.959963984540054 * np.sqrt(report["variance"])
        assert hi - lo == pytest.approx(2.0 * half, rel=1e-12)

    def test_unknown_column_exits_2(self, linear_csv, capsys):
        # [TRIVIAL]
        code, _, err = _run(
            capsys, "estimate", "--method", "dim", "--data", linear_csv,
            "--outcome", "wages", "--treatment", "d",
        )
        assert code == 2
        assert "unknown column" in err
        assert "wages" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        # [TRIVIAL]
        code, _, err = _run(
            capsys, "estimate", "--method", "dim",
            "--data", str(tmp_path / "nope.csv"),
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert "cannot read" in err

    def test_non_numeric_column_exits_2(self, tmp_path, capsys):
        # [TRIVIAL]
        path = _write_csv(
            tmp_path / "bad.csv", {"y": [1.0, "oops", 3.0], "d": [0, 1, 0]}
        )
        code, _, err = _run(
            capsys, "estimate", "--method", "dim", "--data", path,
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert "non-numeric" in err

    def test_bad_trim_exits_2(self, linear_csv, capsys):
        # [TRIVIAL]
        code, _, err = _run(
            capsys, "estimate", "--method", "ipw", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--trim", "0.9,0.1",
        )
        assert code == 2
        assert "--trim bounds" in err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        # [TRIVIAL] bytes that are not UTF-8 are an unreadable file
        path = tmp_path / "latin.csv"
        path.write_bytes(b"y,d\n\xff\xfe,1\n1.0,0\n")
        code, _, err = _run(
            capsys, "estimate", "--method", "dim", "--data", str(path),
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert "cannot read" in err

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        # [TRIVIAL] a cell beyond the csv module's field limit
        path = tmp_path / "big.csv"
        path.write_text("y,d\n1.0," + "x" * 200_000 + "\n2.0,0\n")
        code, _, err = _run(
            capsys, "estimate", "--method", "dim", "--data", str(path),
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert "cannot read" in err

    def test_too_few_bootstrap_replicates_exits_2(self, linear_csv, capsys):
        # [TRIVIAL] a bad option value is an input error (exit 2), not an
        # estimation error (exit 3)
        code, _, err = _run(
            capsys, "estimate", "--method", "or", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--bootstrap", "1",
        )
        assert code == 2
        assert "n_boot must be >= 2" in err

    def test_covariates_of_more_than_two_dimensions_exit_2(self, linear_csv, capsys, monkeypatch):
        # no CSV holds a 3-d block, so one is handed to the real validation;
        # its shape error is an input error (exit 2)
        real = causalest.cli.validate
        monkeypatch.setattr(causalest.cli, "validate", lambda y, d, x: real(y, d, x[:, :, None]))
        code, out, err = _run(
            capsys, "estimate", "--method", "or", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        assert code == 2
        assert out == ""
        assert "must be a vector or 2-d matrix" in err

    def test_negative_bootstrap_seed_exits_2(self, linear_csv, capsys):
        # [TRIVIAL] a seed that cannot key a stream is bad input (exit 2)
        code, out, err = _run(
            capsys, "estimate", "--method", "or", "--data", linear_csv,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--bootstrap", "5", "--seed", "-3",
        )
        assert code == 2
        assert out == ""
        assert "seed must be >= 0 and an integer, got -3" in err

    def test_saturated_bootstrap_replicates_are_tolerated(self, tmp_path, capsys):
        # [DERIVED] 2 of the 50 replicates fit scores that round to exactly
        # 1; they count as failed replicates, inside the 5% budget
        y, d, x = saturating_binary(2)
        path = _write_csv(tmp_path / "wide.csv", {"y": y, "d": d, "x": x})
        code, out, err = _run(
            capsys, "estimate", "--method", "ipw", "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--bootstrap", "50", "--seed", "3",
        )
        assert code == 0, err
        assert json.loads(out)["variance"] > 0.0

    def test_saturated_score_fit_exits_3(self, tmp_path, capsys):
        # [DERIVED] the full-sample score fit rounds some scores to exactly
        # 0 or 1: an estimation error (exit 3), not an input error (exit 2)
        y, d, x = saturating_binary(1)
        path = _write_csv(tmp_path / "wide.csv", {"y": y, "d": d, "x": x})
        code, out, err = _run(
            capsys, "estimate", "--method", "ipw", "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        assert code == 3
        assert out == ""
        assert "exactly 0 or 1" in err

    @pytest.mark.parametrize("method", ["ipw", "match", "dr", "psr", "strat", "dim"])
    def test_trimmed_away_arm_exits_3(self, tmp_path, capsys, method):
        # [DERIVED] without covariates the score is the treated share, 0.75:
        # trimming to [0.5, 0.99] keeps the 30 treated units and none of the
        # 10 controls, whose received score is 0.25; `dim` does not trim, so
        # its file has no control. Every method names the empty arm in one
        # message, and the empty arm is an estimation error (exit 3)
        y = np.arange(40.0)
        d = np.ones(40) if method == "dim" else np.repeat([1.0, 0.0], [30, 10])
        path = _write_csv(tmp_path / "arm.csv", {"y": y, "d": d})
        code, out, err = _run(
            capsys, "estimate", "--method", method, "--data", path,
            "--outcome", "y", "--treatment", "d", "--trim", "0.5,0.99",
        )
        assert code == 3
        assert out == ""
        assert err == "error: no unit is in the control arm\n"

    @pytest.mark.parametrize("method", ["dim", "ipw", "psr", "strat", "match", "dr"])
    def test_non_binary_treatment_exits_2(self, tmp_path, capsys, method):
        # [TRIVIAL] every fourth unit has d = 0.5, in neither arm: every
        # method that contrasts the arms rejects the input in one message
        d = np.repeat([1.0, 0.0], [30, 10])
        d[::4] = 0.5
        path = _write_csv(tmp_path / "half.csv", {"y": np.arange(40.0), "d": d})
        code, out, err = _run(
            capsys, "estimate", "--method", method, "--data", path,
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert out == ""
        assert err == "error: the treatment must be a binary (0/1) indicator\n"

    def test_estimation_failure_exits_3(self, tmp_path, capsys):
        # [DERIVED] treatment perfectly separated by the covariate makes
        # the score model diverge: an estimation error, not an input one.
        rng = philox(127)
        x = np.concatenate([rng.uniform(-2, -1, 20), rng.uniform(1, 2, 20)])
        d = (x > 0).astype(float)
        y = rng.normal(size=40)
        path = _write_csv(tmp_path / "sep.csv", {"y": y, "d": d, "x": x})
        code, _, err = _run(
            capsys, "estimate", "--method", "ipw", "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
        )
        assert code == 3
        assert err.startswith("error:")


def _score_csv(tmp_path):
    """The 2,000-row confounded file of three covariates that CI's estimate
    step draws, with the path and the dataset it parses to."""
    g = philox(2)
    x = g.normal(size=(2_000, 3))
    index = x @ np.array([0.6, -0.4, 0.3])
    d = (g.uniform(size=2_000) < 1.0 / (1.0 + np.exp(0.2 - index))).astype(float)
    y = 1.0 + 2.0 * d + 1.5 * index + g.normal(size=2_000)
    path = _write_csv(tmp_path / "score.csv", {"y": y, "d": d, "x1": x[:, 0], "x2": x[:, 1], "x3": x[:, 2]})
    return path, causalest.validate(y, d, x)


_SCORE_ESTIMATORS = {
    "ipw": causalest.ate_ipw,
    "psr": causalest.ate_psr,
    "strat": causalest.ate_stratification,
    "match": causalest.ate_matching,
    "dr": causalest.ate_dr,
}


def _cold_steps(method, trim):
    """Oracle: the fit-trim-estimate steps of `estimate --method`, with a
    score fit that starts from zeros."""
    def steps(sample):
        fit, kept = causalest.trim_overlap(causalest.estimate_propensity_binary(sample), *trim)
        return _SCORE_ESTIMATORS[method](sample.take(kept), fit)

    return steps


class TestWarmStartedBootstrap:
    @pytest.mark.parametrize("trim", [(0.01, 0.99), (0.2, 0.8)], ids=["default", "0.2,0.8"])
    @pytest.mark.parametrize("method", list(_SCORE_ESTIMATORS))
    def test_variance_matches_the_cold_started_bootstrap(
        self, tmp_path, capsys, monkeypatch, method, trim
    ):
        # [DERIVED] oracle: bootstrap_variance of the same steps with every
        # replicate's score fit started from zeros; the two stop by the same
        # max|score| rule, so only the last bits of the variance may differ
        path, ds = _score_csv(tmp_path)
        starts = []
        real = cli.estimate_propensity_binary
        monkeypatch.setattr(
            cli, "estimate_propensity_binary",
            lambda sample, start=None: starts.append(start) or real(sample, start),
        )
        code, out, err = _run(
            capsys, "estimate", "--method", method, "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x1,x2,x3",
            "--trim", f"{trim[0]},{trim[1]}", "--bootstrap", "20", "--seed", "1",
        )
        assert code == 0, err
        report = json.loads(out)
        # one full-sample fit from zeros, and 20 replicates started at its
        # coefficients and the inverse information of its last Newton step
        full = real(ds)
        assert starts[0] is None and len(starts) == 21
        assert all(start is starts[1] for start in starts[2:])
        coef, inverse = starts[1]
        assert np.array_equal(coef, full.start[0])
        design = np.column_stack([np.ones(ds.n), ds.x])
        np.testing.assert_allclose(inverse, newton_start_inverse(design, ds.d), rtol=1e-8)
        cold = causalest.bootstrap_variance(ds, _cold_steps(method, trim), n_boot=20, seed=1)
        assert cold.n_failed == 0
        np.testing.assert_allclose(report["variance"], cold.variance, rtol=1e-9)
        assert report["point"] == _cold_steps(method, trim)(ds).point

    @pytest.mark.parametrize("seed, failed", [(4, 6), (5, 14), (6, 6)])
    def test_saturating_replicates_still_fail(self, tmp_path, capsys, seed, failed):
        # [DERIVED] oracle: the cold-started bootstrap of the same steps. A
        # warm start passes through the same separation and saturation
        # checks, so the same replicates fail and the bootstrap still aborts
        y, d, x = saturating_binary(seed)
        with pytest.raises(TooManyFailedReplicatesError) as info:
            causalest.bootstrap_variance(
                causalest.validate(y, d, x), _cold_steps("ipw", (0.01, 0.99)), n_boot=50, seed=3
            )
        assert f"failed on {failed}/50 " in str(info.value)
        path = _write_csv(tmp_path / "wide.csv", {"y": y, "d": d, "x": x})
        code, out, err = _run(
            capsys, "estimate", "--method", "ipw", "--data", path,
            "--outcome", "y", "--treatment", "d", "--covariates", "x",
            "--bootstrap", "50", "--seed", "3",
        )
        assert code == 3
        assert out == ""
        assert str(info.value) in err


class TestCsvReader:
    NAMES = ["a", "b", "c", "d", "e"]

    def test_adversarial_cells_match_the_row_dict_reader(self, tmp_path):
        # [DERIVED] oracle: csv.DictReader + float() on every cell
        g = philox(128)
        rows = [[_adversarial_cell(g) for _ in self.NAMES] for _ in range(4000)]
        rows.append([
            "4.9406564584124654e-324",  # the smallest subnormal
            "1.7976931348623157e308",  # the largest double
            "-0",
            "-0.0",
            "2.2250738585072014e-308",  # the smallest normal
        ])
        path = tmp_path / "cells.csv"
        path.write_text(
            ",".join(self.NAMES) + "\n" + "".join(",".join(r) + "\n" for r in rows)
        )
        _assert_same_bits(
            _read_columns(str(path), self.NAMES),
            _dictreader_columns(str(path), self.NAMES),
        )

    @pytest.mark.parametrize(
        "body",
        [
            'y,d\n"1.5","0"\n2.5,"1"\n',  # quoted numbers
            "y,d\r\n1.5,0\r\n2.5,1\r\n",  # CRLF line endings
            "y,d\n1.5,0\n2.5,1\n\n",  # a trailing blank line
            "y,d\n1.5,0\n",  # a single data row
            "y,x,d\n1.5,ignored,0\n2.5,,1\n",  # an unrequested column is not parsed
        ],
        ids=["quoted", "crlf", "trailing-blank", "one-row", "unrequested"],
    )
    def test_layouts_match_the_row_dict_reader(self, tmp_path, body):
        path = tmp_path / "layout.csv"
        path.write_bytes(body.encode())
        _assert_same_bits(
            _read_columns(str(path), ["y", "d"]),
            _dictreader_columns(str(path), ["y", "d"]),
        )

    @pytest.mark.parametrize(
        "body",
        ["y,d\n1.0,\n2.0,1\n", "y,d\n#1.0,0\n2.0,1\n", "y,d\n1.0,0\n#2.0,1\n"],
        ids=["empty-cell", "hash-cell", "hash-line"],
    )
    def test_empty_and_comment_like_cells_exit_2(self, tmp_path, capsys, body):
        # no line is a comment: a cell starting with '#' is non-numeric
        path = tmp_path / "cells.csv"
        path.write_text(body)
        code, out, err = _run(
            capsys, "estimate", "--method", "dim", "--data", str(path),
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert out == ""
        assert "non-numeric" in err

    def test_non_numeric_names_first_requested_column(self, tmp_path, capsys):
        # as the row-dict reader did: columns are checked in the order they
        # are requested, not in file order
        path = tmp_path / "bad.csv"
        path.write_text("d,y\n0,1.0\nx,oops\n")
        code, _, err = _run(
            capsys, "estimate", "--method", "dim", "--data", str(path),
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert "column 'y' has a non-numeric value" in err

    def test_header_only_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("y,d\n\n")
        code, _, err = _run(
            capsys, "estimate", "--method", "dim", "--data", str(path),
            "--outcome", "y", "--treatment", "d",
        )
        assert code == 2
        assert "no data rows" in err

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, capsys, linear_csv):
        # [TRIVIAL] a spreadsheet's "CSV UTF-8" starts with a byte-order
        # mark; the same file with and without one gives the same report
        text = Path(linear_csv).read_text()
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfy,")
        reports = []
        for path in (linear_csv, str(marked)):
            code, out, err = _run(
                capsys, "estimate", "--method", "or", "--data", path,
                "--outcome", "y", "--treatment", "d", "--covariates", "x",
            )
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[0] == reports[1]

    def test_columns_are_contiguous_and_independent(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("y,d,x\n1.0,0,5.0\n2.0,1,6.0\n")
        columns = _read_columns(str(path), ["x", "y", "x"])
        assert list(columns) == ["x", "y"]
        for column in columns.values():
            assert column.flags.c_contiguous and column.flags.owndata
        assert not np.shares_memory(columns["x"], columns["y"])

    def test_peak_memory_bounded_by_the_data_size(self, tmp_path):
        # [DERIVED] the bound comes from the data size, not from a
        # measurement: the parsed table and one owned vector per column are
        # 2 x 8 bytes per cell, and 3 x 8 bytes leaves a third for the
        # parser's buffers. A reader that builds a dict per row needs several
        # times that.
        rows, cols = 100_000, 5
        data = philox(129).normal(size=(rows, cols))
        path = tmp_path / "wide.csv"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="a,b,c,d,e", comments="")
        tracemalloc.start()
        try:
            columns = _read_columns(str(path), self.NAMES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * rows * cols
        for j, name in enumerate(self.NAMES):
            assert np.array_equal(columns[name], data[:, j])


_OPTIMIZER_GUARD = """
import json
import sys

loaded = {}
import causalest
loaded["import"] = "scipy.optimize" in sys.modules
from causalest.cli import main
main(["simulate", "--case", "all", "--runs", "3", "--n", "100", "--seed", "1",
      "--out", sys.argv[1]])
loaded["simulate"] = "scipy.optimize" in sys.modules
main(["estimate", "--method", "dr", "--data", sys.argv[2], "--outcome", "y",
      "--treatment", "d", "--covariates", "x", "--bootstrap", "5", "--seed", "1"])
loaded["estimate"] = "scipy.optimize" in sys.modules
fit = causalest.sc_fit(causalest.ScProblem(
    x1=[2.0], x0=[[1.0, 3.0]], z1=[2.0], z0=[[1.0, 3.0]], y1=[5.0], y0=[[4.0, 4.0]]))
loaded["sc_fit"] = "scipy.optimize" in sys.modules
print(json.dumps({"loaded": loaded, "weights": fit.weights.tolist()}))
"""


class TestOptimizerImport:
    def test_only_synthetic_control_loads_scipy_optimize(self, tmp_path, linear_csv):
        # a fresh interpreter, since this one may have loaded the optimizer
        src = Path(causalest.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", _OPTIMIZER_GUARD, str(tmp_path / "sim"), linear_csv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["loaded"] == {
            "import": False, "simulate": False, "estimate": False, "sc_fit": True,
        }
        np.testing.assert_allclose(result["weights"], [0.5, 0.5], atol=1e-6)


class TestSimulate:
    def test_outputs_written_with_exact_schema(self, tmp_path, capsys):
        # [TRIVIAL] report.csv header, runs.csv layout, and meta.json
        # fields are part of the output contract.
        out = tmp_path / "cs5"
        code, stdout, _ = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "10",
            "--n", "200", "--seed", "128", "--out", str(out),
        )
        assert code == 0
        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0] == "method,av_est,emp_var,mse"
        assert len(report_lines) == 3  # header + DID1 + DID2
        assert report_lines[1].startswith("DID1,")

        runs_lines = (out / "runs.csv").read_text().splitlines()
        assert runs_lines[0] == "run,DID1,DID2"
        assert len(runs_lines) == 11
        assert runs_lines[1].split(",")[0] == "0"
        # cells are full-precision reprs that roundtrip exactly
        value = float(runs_lines[1].split(",")[1])
        assert repr(value) == runs_lines[1].split(",")[1]

        meta = json.loads((out / "meta.json").read_text())
        assert meta["case"] == "cs5"
        assert meta["methods"] == ["DID1", "DID2"]
        assert meta["runs"] == 10
        assert meta["n"] == 200
        assert meta["seed"] == 128
        assert meta["true_tau"] == -4.0
        assert meta["n_failed"] == [0, 0]
        assert set(meta["metadata"]) == {"params", "notation_readings"}
        assert "DID1" in stdout and "av_est=" in stdout

    def test_runs_csv_identical_across_invocations_and_jobs(self, tmp_path, capsys):
        # [DERIVED] the per-run table must be byte-identical for a fixed
        # seed, no matter when it runs or how many threads it uses.
        outputs = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            code, _, _ = _run(
                capsys, "simulate", "--case", "cs1", "--runs", "8",
                "--n", "300", "--seed", "129", "--jobs", jobs,
                "--out", str(out),
            )
            assert code == 0
            outputs.append((out / "runs.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_builtin_check_passes(self, tmp_path, capsys):
        # [DERIVED] a 200-run experiment lands inside the packaged
        # tolerance band, so --check exits 0 and reports every cell ok.
        code, stdout, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "200",
            "--n", "1000", "--out", str(tmp_path / "g"), "--check",
        )
        assert code == 0
        assert "[ok]" in stdout
        assert "FAIL" not in stdout
        assert err == ""

    def test_strict_tolerance_file_fails_check(self, tmp_path, capsys, monkeypatch):
        # [DERIVED] an impossibly tight band in place of the packaged
        # tolerances must flip the exit code to 1.
        reference, _ = simulate._packaged_tables("cs5")
        monkeypatch.setattr(
            simulate, "_packaged_tables", lambda case: (reference, {"DID1": {"av_est": 1e-9}})
        )
        code, stdout, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "20",
            "--n", "200", "--out", str(tmp_path / "s"), "--check",
        )
        assert code == 1
        assert "[FAIL]" in stdout
        assert "reference check failed" in err

    def test_check_takes_no_path(self, tmp_path, capsys):
        # [TRIVIAL] --check compares with the packaged table only; a path
        # after it is an unknown argument, which argparse exits 2 on
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", "--case", "cs5", "--runs", "5", "--n", "200",
                "--out", str(tmp_path / "p"), "--check", str(tmp_path / "ref.csv"),
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_missing_reference_row_exits_2(self, tmp_path, capsys, monkeypatch):
        # [TRIVIAL] a reference table lacking one of the report's methods
        # is an input error.
        monkeypatch.setattr(
            simulate,
            "_packaged_tables",
            lambda case: ({"DID1": {"av_est": -4.0, "emp_var": 0.01, "mse": 0.01}}, {}),
        )
        code, _, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "5",
            "--n", "200", "--out", str(tmp_path / "m"), "--check",
        )
        assert code == 2
        assert "no row for DID2" in err

    def test_too_few_runs_exits_2(self, tmp_path, capsys):
        # [TRIVIAL] a bad option value is an input error (exit 2), not an
        # estimation error (exit 3)
        code, _, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "1",
            "--n", "200", "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "runs must be >= 2" in err

    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys):
        # [TRIVIAL] a seed that cannot key a stream is bad input (exit 2)
        out = tmp_path / "neg"
        code, stdout, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "5",
            "--n", "200", "--seed", "-1", "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert "seed must be >= 0 and an integer, got -1" in err
        assert not out.exists()

    def test_out_naming_a_file_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        # [TRIVIAL] an output path that cannot be a directory is bad input
        # (exit 2; exit 1 means a failed reference check), found before
        # the first run does any work
        out = tmp_path / "taken"
        out.write_text("kept\n")
        monkeypatch.setattr(cli, "run_monte_carlo", pytest.fail)
        code, stdout, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "5",
            "--n", "200", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ")
        assert out.read_text() == "kept\n"

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        # [TRIVIAL] an output file that cannot be opened is bad input too
        out = tmp_path / "out"
        (out / "runs.csv").mkdir(parents=True)
        code, _, err = _run(
            capsys, "simulate", "--case", "cs5", "--runs", "5",
            "--n", "200", "--out", str(out),
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {out}: ")

    def test_all_cases_write_per_case_directories(self, tmp_path, capsys):
        # [TRIVIAL] `--case all` fans out into one subdirectory per case.
        out = tmp_path / "all"
        code, _, _ = _run(
            capsys, "simulate", "--case", "all", "--runs", "6",
            "--n", "200", "--seed", "131", "--out", str(out),
        )
        assert code == 0
        for case in ("cs1", "cs2", "cs3", "cs4", "cs5", "cs6"):
            for name in ("report.csv", "runs.csv", "meta.json"):
                assert (out / case / name).is_file(), (case, name)

    def test_unknown_case_rejected_by_parser(self, tmp_path, capsys):
        # [TRIVIAL] argparse enforces the case choices itself.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--case", "cs9", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        capsys.readouterr()
