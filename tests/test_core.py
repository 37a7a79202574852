"""Data model, validation, and the difference-in-means baseline."""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import causalest
from causalest import (
    BINARY,
    CONTINUOUS,
    CausalEstimate,
    difference_in_means,
    normal_interval,
    validate,
    validate_panel,
)
from causalest.errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    EmptyTreatmentArmError,
    InvalidInputError,
    LengthMismatchError,
    NonFiniteValueError,
)

from .conftest import philox, randomized_binary


class TestValidate:
    def test_binary_detection(self):
        ds = validate([1.0, 2.0], [0.0, 1.0])
        assert ds.treatment_kind == BINARY
        assert ds.n == 2
        assert ds.x.shape == (2, 0)

    def test_continuous_detection(self):
        ds = validate([1.0, 2.0, 3.0], [0.5, 1.5, 2.0])
        assert ds.treatment_kind == CONTINUOUS

    def test_vector_covariate_becomes_matrix(self):
        ds = validate([1.0, 2.0], [0.0, 1.0], [3.0, 4.0])
        assert ds.x.shape == (2, 1)

    def test_binary_override_rejects_other_values(self):
        with pytest.raises(ValueError, match="binary"):
            validate([1.0, 2.0], [0.0, 2.0], treatment_kind=BINARY)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            validate([1.0, 2.0, 3.0], [0.0, 1.0])
        with pytest.raises(LengthMismatchError):
            validate([1.0, 2.0], [0.0, 1.0], x=[[1.0], [2.0], [3.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            validate([1.0, np.nan], [0.0, 1.0])
        with pytest.raises(NonFiniteValueError):
            validate([1.0, 2.0], [0.0, 1.0], x=[np.inf, 0.0])

    @pytest.mark.parametrize("column", ["y", "d"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda y, d: validate(y, d),
            lambda y, d: validate_panel([0, 0, 1, 1], [0, 1, 0, 1], y, d),
            lambda y, d: causalest.validate_did(y, d, [0.0, 0.0, 1.0, 1.0]),
        ],
        ids=["validate", "validate_panel", "validate_did"],
    )
    def test_two_dimensional_column_rejected(self, build, column):
        # a 2 x 2 outcome or treatment is not read as four rows
        columns = {"y": np.arange(4.0), "d": np.array([0.0, 1.0, 0.0, 1.0])}
        columns[column] = columns[column].reshape(2, 2)
        with pytest.raises(DimensionMismatchError, match="must be a 1-d vector"):
            build(**columns)

    def test_too_few_rows(self):
        with pytest.raises(EmptyDatasetError):
            validate([1.0], [1.0])

    def test_arrays_are_readonly(self):
        ds = validate([1.0, 2.0], [0.0, 1.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            ds.y[0] = 9.0
        with pytest.raises(ValueError):
            ds.x[0, 0] = 9.0

    def test_take_subsets_and_resamples(self):
        ds = validate([1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [5.0, 6.0, 7.0])
        sub = ds.take([2, 0, 2])
        assert sub.y.tolist() == [3.0, 1.0, 3.0]
        assert sub.d.tolist() == [0.0, 0.0, 0.0]
        assert sub.x[:, 0].tolist() == [7.0, 5.0, 7.0]
        assert sub.treatment_kind == ds.treatment_kind

    def test_take_arrays_are_read_only_and_own_their_data(self):
        g = philox(31)
        ds = validate(g.normal(size=50), (g.uniform(size=50) < 0.5).astype(float),
                      g.normal(size=(50, 2)), z=g.normal(size=(50, 1)))
        sub = ds.take(g.integers(0, 50, size=50))
        for name in ("y", "d", "x", "z"):
            got, parent = getattr(sub, name), getattr(ds, name)
            assert not got.flags.writeable, name
            assert not np.shares_memory(got, parent), name


class TestValidatePanel:
    def test_rows_sorted_by_unit_time(self):
        pds = validate_panel(
            unit=["b", "a", "b", "a"],
            time=[1, 0, 0, 1],
            y=[4.0, 1.0, 3.0, 2.0],
            d=[1.0, 0.0, 0.0, 1.0],
        )
        assert pds.time.tolist() == [0, 1, 0, 1]
        assert pds.y.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert pds.unit_counts.tolist() == [2, 2]

    def test_duplicate_unit_time_rejected(self):
        with pytest.raises(LengthMismatchError, match="duplicate"):
            validate_panel([1, 1], [0, 0], [1.0, 2.0], [0.0, 1.0])

    def test_non_integer_time_rejected(self):
        with pytest.raises(NonFiniteValueError):
            validate_panel([1, 1], [0.0, 0.5], [1.0, 2.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "unit, time, error",
        [
            (np.zeros((4, 1)), [0, 1, 0, 1], DimensionMismatchError),
            ([0, 0, 1, 1], np.zeros((4, 1)), DimensionMismatchError),
            (3, [0, 1, 0, 1], DimensionMismatchError),
            ([0, 0, 1, 1], 1, DimensionMismatchError),
            ([0, 0, 1, 1], ["a", "b", "a", "b"], NonFiniteValueError),
            (np.array(["a", None, "b", "b"], dtype=object), [0, 1, 0, 1], NonFiniteValueError),
            ([None, None, "b", "b"], [0, 1, 0, 1], NonFiniteValueError),
            (np.array(["a", "a", np.nan, np.nan], dtype=object), [0, 1, 0, 1], NonFiniteValueError),
            ([0, 0, 1, 1], [0.0, 1e300, 0.0, 1.0], NonFiniteValueError),
            ([np.nan, np.nan, 1.0, 1.0], [0, 1, 0, 1], NonFiniteValueError),
            ([0.0, 0.0, np.inf, np.inf], [0, 1, 0, 1], NonFiniteValueError),
            (np.array(["a", "a", 1, 1], dtype=object), [0, 1, 0, 1], InvalidInputError),
        ],
        ids=[
            "2d-unit", "2d-time", "scalar-unit", "scalar-time", "string-time",
            "none-among-strings", "none-ids", "object-nan-id", "time-out-of-int64",
            "nan-unit", "inf-unit", "mixed-type-ids",
        ],
    )
    def test_malformed_ids_rejected(self, unit, time, error):
        with pytest.raises(error):
            validate_panel(unit, time, [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0])

    def test_unit_means_and_broadcast(self):
        # [TRIVIAL] hand means: unit 0 -> (1+3)/2 = 2, unit 1 -> 5
        pds = validate_panel([0, 0, 1], [0, 1, 0], y=[1.0, 3.0, 5.0], d=[0, 0, 0])
        means = pds.unit_means(pds.y)
        assert means.tolist() == [2.0, 5.0]
        assert pds.broadcast_units(means).tolist() == [2.0, 2.0, 5.0]

    def test_take_units_keeps_series_and_renames(self):
        pds = validate_panel(
            unit=[0, 0, 1, 1], time=[0, 1, 0, 1], y=[1.0, 2.0, 3.0, 4.0], d=[0, 1, 0, 1]
        )
        boot = pds.take_units([1, 1, 0])
        assert boot.n_units == 3
        assert boot.y.tolist() == [3.0, 4.0, 3.0, 4.0, 1.0, 2.0]
        assert boot.unit_counts.tolist() == [2, 2, 2]


    @pytest.mark.parametrize("time_dtype", [np.int64, np.int32, np.uint16])
    @pytest.mark.parametrize("n_cov", [0, 2])
    def test_take_units_equals_validating_the_drawn_rows(self, time_dtype, n_cov):
        # oracle: the explicit loop over drawn units, each occurrence renamed
        # to its draw position, passed through validate_panel
        g = philox(130)
        periods = g.integers(1, 5, size=12)  # unbalanced
        unit = np.repeat([f"u{i:02d}" for i in range(12)], periods)
        time = np.concatenate([g.permutation(8)[:t] for t in periods])
        shuffle = g.permutation(unit.shape[0])
        x = g.normal(size=(unit.shape[0], n_cov)) if n_cov else None
        pds = validate_panel(
            unit=unit[shuffle],
            time=time[shuffle].astype(time_dtype),
            y=g.normal(size=unit.shape[0]),
            d=g.normal(size=unit.shape[0]),
            x=None if x is None else x[shuffle],
        )
        starts = np.concatenate([[0], np.cumsum(pds.unit_counts)])
        for draw in (g.integers(0, 12, size=12), [5, 5, 5], [11, 0, 3, 0]):
            rows, new_unit = [], []
            for j, u in enumerate(draw):
                rows.extend(range(starts[u], starts[u + 1]))
                new_unit.extend([j] * (starts[u + 1] - starts[u]))
            expected = validate_panel(
                unit=np.array(new_unit),
                time=pds.time[rows],
                y=pds.y[rows],
                d=pds.d[rows],
                x=pds.x[rows] if n_cov else None,
            )
            boot = pds.take_units(draw)
            for name in ("unit", "time", "y", "d", "x", "unit_codes", "unit_counts"):
                got, want = getattr(boot, name), getattr(expected, name)
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                np.testing.assert_array_equal(got, want, err_msg=name)
                assert not got.flags.writeable, name

    def test_take_units_rejects_a_one_row_panel(self):
        pds = validate_panel([0, 0, 1], [0, 1, 0], y=[1.0, 3.0, 5.0], d=[0, 0, 0])
        with pytest.raises(EmptyDatasetError):
            pds.take_units([1])


class TestValidatePanelSortedRows:
    """Rows that come sorted by (unit, time) with numeric ids skip the sort;
    the panel must equal the one the general sort builds."""

    FIELDS = ("unit", "time", "y", "d", "x", "unit_codes", "unit_counts")

    @staticmethod
    def _sorted_rows(unit_dtype):
        g = philox(140)
        periods = g.integers(2, 6, size=15)  # unbalanced
        ids = np.sort(g.choice(250, size=15, replace=False))  # ids with gaps
        unit = np.repeat(ids, periods).astype(unit_dtype)
        if unit.dtype.kind == "f":
            unit = unit / 4.0 - 20.0  # fractional and negative ids
        time = np.concatenate([np.sort(g.permutation(9)[:t]) for t in periods])
        n = unit.shape[0]
        return unit, time, g.normal(size=n), g.normal(size=n), g.normal(size=(n, 2))

    @staticmethod
    def _count_sorts(monkeypatch):
        calls = []
        lexsort = np.lexsort

        def counted(*args, **kwargs):
            calls.append(1)
            return lexsort(*args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counted)
        return calls

    @pytest.mark.parametrize("unit_dtype", [np.int64, np.int32, np.uint8, np.float64])
    def test_sorted_rows_equal_the_general_path(self, unit_dtype, monkeypatch):
        unit, time, y, d, x = self._sorted_rows(unit_dtype)
        shuffle = philox(141).permutation(unit.shape[0])
        sorts = self._count_sorts(monkeypatch)
        general = validate_panel(unit[shuffle], time[shuffle], y[shuffle], d[shuffle], x[shuffle])
        assert len(sorts) == 1
        fast = validate_panel(unit, time, y, d, x)
        assert len(sorts) == 1  # the sorted rows were not sorted again
        for name in self.FIELDS:
            got, want = getattr(fast, name), getattr(general, name)
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert not got.flags.writeable, name

    def test_unsorted_rows_and_string_ids_are_sorted(self, monkeypatch):
        sorts = self._count_sorts(monkeypatch)
        # the units come sorted but the times within unit 0 do not
        pds = validate_panel([0, 0, 1, 1], [1, 0, 0, 1], [2.0, 1.0, 3.0, 4.0], [0.0] * 4)
        assert pds.y.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert pds.time.tolist() == [0, 1, 0, 1]
        # numeric ids out of order
        pds = validate_panel([7, 3, 7, 3], [0, 0, 1, 1], [3.0, 1.0, 4.0, 2.0], [0.0] * 4)
        assert pds.unit.tolist() == [3, 3, 7, 7]
        assert pds.y.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert pds.unit_codes.tolist() == [0, 0, 1, 1]
        # string ids in sorted order still go through the general path
        pds = validate_panel(["a", "a", "b"], [0, 1, 0], [1.0, 2.0, 3.0], [0.0] * 3)
        assert pds.unit.tolist() == ["a", "a", "b"]
        assert pds.unit_counts.tolist() == [2, 1]
        assert len(sorts) == 3

    @pytest.mark.parametrize(
        "unit, time",
        [([0, 0, 1, 1], [0, 0, 0, 1]), ([1, 0, 1, 0], [0, 1, 0, 1]), ([0.5, 0.5], [3, 3])],
        ids=["sorted", "shuffled", "float-ids"],
    )
    def test_duplicate_pairs_rejected_on_both_paths(self, unit, time):
        with pytest.raises(LengthMismatchError, match="duplicate"):
            validate_panel(unit, time, np.ones(len(unit)), np.zeros(len(unit)))


class TestCallerArraysStayTheirs:
    """A dataset copies each writeable array the caller passed in, so the
    caller's array stays writeable and writing to it leaves the dataset as
    it was; a read-only input is taken as it is."""

    @staticmethod
    def _assert_detached(caller_arrays, dataset, fields):
        saved = {name: getattr(dataset, name).copy() for name in fields}
        for a in caller_arrays:
            assert a.flags.writeable
            a[...] = 7
        for name in fields:
            assert np.array_equal(getattr(dataset, name), saved[name]), name
            assert not getattr(dataset, name).flags.writeable, name

    def test_validate(self):
        g = philox(142)
        y, x, z = g.normal(size=20), g.normal(size=(20, 2)), g.normal(size=(20, 1))
        d = (g.uniform(size=20) < 0.5).astype(float)
        ds = validate(y, d, x, z=z)
        self._assert_detached((y, d, x, z), ds, ("y", "d", "x", "z"))
        # a vector covariate becomes a one-column view of the caller's array
        x1 = g.normal(size=20)
        ds = validate(g.normal(size=20), d, x1)
        self._assert_detached((x1,), ds, ("x",))

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    def test_validate_panel(self, shuffled):
        g = philox(143)
        unit, time = np.repeat(np.arange(5), 3), np.tile(np.arange(3), 5)
        y, d, x = g.normal(size=15), g.normal(size=15), g.normal(size=(15, 2))
        if shuffled:
            order = g.permutation(15)
            unit, time, y, d, x = unit[order], time[order], y[order], d[order], x[order]
        pds = validate_panel(unit, time, y, d, x)
        self._assert_detached((unit, time, y, d, x), pds, ("unit", "time", "y", "d", "x"))

    def test_validate_did(self):
        g = philox(144)
        group, period = np.repeat([0.0, 1.0], 10), np.tile([0.0, 1.0], 10)
        y, x, treated = g.normal(size=20), g.normal(size=(20, 1)), group * period
        dd = causalest.validate_did(y, group, period, x, treated=treated)
        self._assert_detached(
            (y, group, period, x, treated), dd, ("y", "group", "period", "x", "treated")
        )

    def test_sc_problem(self):
        g = philox(145)
        arrays = {
            "x1": g.normal(size=3), "x0": g.normal(size=(3, 4)),
            "z1": g.normal(size=2), "z0": g.normal(size=(2, 4)),
            "y1": g.normal(size=2), "y0": g.normal(size=(2, 4)),
        }
        problem = causalest.ScProblem(**arrays)
        self._assert_detached(arrays.values(), problem, tuple(arrays))

    def test_read_only_inputs_are_shared(self):
        ds = randomized_binary(146, 50)
        again = validate(ds.y, ds.d, ds.x)
        for name in ("y", "d", "x"):
            assert np.shares_memory(getattr(again, name), getattr(ds, name)), name


class TestCausalEstimate:
    def test_ci_is_derived_not_set(self):
        with pytest.raises(TypeError, match="ci"):
            CausalEstimate(
                estimand="ATE", method="m", dose=1.0, point=5.0, n_used=10, ci=(1.0, 2.0)
            )
        est = CausalEstimate(
            estimand="ATE", method="m", dose=1.0, point=5.0, n_used=10, variance=1.0
        )
        with pytest.raises(AttributeError):
            est.ci = (1.0, 2.0)
        assert est.ci == normal_interval(5.0, 1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CausalEstimate(
                estimand="ATE", method="m", dose=1.0, point=0.0, n_used=10, variance=-1.0
            )

    def test_replaced_variance_derives_ci(self):
        est = CausalEstimate(estimand="ATE", method="m", dose=1.0, point=0.5, n_used=3)
        out = replace(est, variance=0.04)
        assert out.variance == 0.04
        assert out.ci == normal_interval(0.5, 0.04)
        assert est.variance is None and est.ci is None  # original untouched


class TestDifferenceInMeans:
    def test_hand_example(self):
        # [TRIVIAL] treated outcomes (3, 5), control (2, 4): 4 - 3 = 1
        ds = validate([3.0, 5.0, 2.0, 4.0], [1.0, 1.0, 0.0, 0.0])
        est = difference_in_means(ds)
        assert est.point == pytest.approx(1.0)
        assert est.estimand == "ATE"
        assert est.diagnostics == {"n_treated": 2, "n_control": 2}

    def test_variance_oracle(self):
        # [DERIVED] unpooled two-sample formula s1^2/n1 + s0^2/n0
        g = philox(11)
        y = g.normal(size=40)
        d = np.repeat([1.0, 0.0], 20)
        est = difference_in_means(validate(y, d))
        expected = y[:20].var(ddof=1) / 20 + y[20:].var(ddof=1) / 20
        assert est.variance == pytest.approx(expected, rel=1e-12)

    def test_empty_arm(self):
        with pytest.raises(EmptyTreatmentArmError):
            difference_in_means(validate([1.0, 2.0], [1.0, 1.0]))

    def test_requires_binary(self):
        with pytest.raises(ValueError, match="binary"):
            difference_in_means(validate([1.0, 2.0], [0.5, 1.5]))


def _binary_with_score():
    ds = randomized_binary(31, 200)
    return ds, causalest.estimate_propensity_binary(ds)


def _panel():
    g = philox(32)
    n_units, t = 12, 4
    unit = np.repeat(np.arange(n_units), t)
    time = np.tile(np.arange(t), n_units)
    alpha = np.repeat(g.normal(size=n_units), t)
    d = g.normal(size=n_units * t) + alpha
    x = g.normal(size=n_units * t)
    y = 0.5 * d + x + alpha + g.normal(size=n_units * t)
    return validate_panel(unit, time, y, d, x)


def _iv():
    g = philox(33)
    z = g.normal(size=200)
    u = g.normal(size=200)
    d = z + u + g.normal(size=200)
    return 2.0 * d + u + g.normal(size=200), d, z


def _did():
    g = philox(34)
    group = np.repeat([0.0, 1.0], 50)
    period = np.tile([0.0, 1.0], 50)
    x = g.normal(size=100)
    y = group + period + 2.0 * group * period + x + g.normal(size=100)
    return causalest.validate_did(y, group, period, x)


def _rdd():
    g = philox(35)
    t = g.uniform(-1.0, 1.0, 200)
    d = (g.uniform(size=200) < np.where(t >= 0.0, 0.9, 0.1)).astype(float)
    return 1.0 + 2.0 * d + t + g.normal(size=200), t, d


def _sc_estimate():
    g = philox(36)
    x0, z0, y0 = g.normal(size=(2, 3)), g.normal(size=(3, 3)), g.normal(size=(2, 3))
    w = np.array([0.5, 0.5, 0.0])
    problem = causalest.ScProblem(
        x1=x0 @ w, x0=x0, z1=z0 @ w, z0=z0, y1=y0 @ w + 1.0, y0=y0
    )
    return causalest.sc_fit(problem).estimate


# one call per public function that returns a CausalEstimate, plus sc_fit,
# whose estimate rides on its ScFit
_ESTIMATES = {
    "difference_in_means": lambda: difference_in_means(randomized_binary(31, 200)),
    "ate_or": lambda: causalest.ate_or(randomized_binary(31, 200)),
    "ate_ipw": lambda: causalest.ate_ipw(*_binary_with_score()),
    "ate_psr": lambda: causalest.ate_psr(*_binary_with_score()),
    "ate_stratification": lambda: causalest.ate_stratification(*_binary_with_score()),
    "ate_matching": lambda: causalest.ate_matching(*_binary_with_score()),
    "ate_dr": lambda: causalest.ate_dr(*_binary_with_score()),
    "fit_panel": lambda: causalest.fit_panel(_panel()),
    "fit_pols": lambda: causalest.fit_pols(_panel()),
    "fit_re": lambda: causalest.fit_re(_panel()),
    "fit_fe": lambda: causalest.fit_fe(_panel()),
    "fit_fd": lambda: causalest.fit_fd(_panel()),
    "fit_cre": lambda: causalest.fit_cre(_panel()),
    "ate_2sls": lambda: causalest.ate_2sls(*_iv()),
    "ate_did": lambda: causalest.ate_did(_did()),
    "rdd_sharp": lambda: causalest.rdd_sharp(*_rdd()[:2]),
    "rdd_fuzzy": lambda: causalest.rdd_fuzzy(*_rdd()),
    "sc_fit": _sc_estimate,
}


class TestIntervalRule:
    """Every estimate with a variance carries its normal interval, and only
    those do."""

    @pytest.mark.parametrize("name", sorted(_ESTIMATES))
    def test_interval_follows_variance(self, name):
        est = _ESTIMATES[name]()
        assert (est.ci is None) == (est.variance is None)
        if est.variance is not None:
            assert est.ci == normal_interval(est.point, est.variance)
            assert type(est.variance) is float
        assert type(est.point) is float
        assert type(est.n_used) is int

    def test_covers_every_public_estimator(self):
        returning = {
            name
            for name in causalest.__all__
            if inspect.isfunction(getattr(causalest, name))
            and inspect.signature(getattr(causalest, name)).return_annotation
            == "CausalEstimate"
        }
        assert returning | {"sc_fit"} == set(_ESTIMATES)



_ROOT = Path(__file__).resolve().parent.parent


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute, except a
    top-level definition's reads of its own name. Import statements bind
    names; they do not read them."""
    found = set()
    for statement in tree.body:
        own = set()
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {statement.name}
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            own = {t.id for t in targets if isinstance(t, ast.Name)}
        reads = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        found |= reads - own
    return found


class TestEveryPublicNameHasACaller:
    """A public name is read by the package itself or by a README example,
    so no code in `src/` is there only for the tests."""

    def test_public_names_are_read_by_the_package_or_the_readme(self):
        modules = sorted((_ROOT / "src" / "causalest").glob("*.py"))
        trees = [ast.parse(m.read_text()) for m in modules if m.name != "__init__.py"]
        readme = (_ROOT / "README.md").read_text()
        trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
        read = set().union(*(_names_read(tree) for tree in trees))
        unread = set(causalest.__all__) - {"__version__", "errors"} - read
        assert sorted(unread) == []
