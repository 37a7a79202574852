"""Data model, validation, and the difference-in-means baseline."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import causalest
from causalest import (
    CausalEstimate,
    ObservationalDataset,
    ate_did,
    difference_in_means,
    fit_cre,
    fit_fd,
    fit_fe,
    fit_pols,
    fit_re,
    normal_interval,
    validate,
    validate_panel,
)
from causalest.errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidInputError,
    LengthMismatchError,
    NoWithinVariationError,
    NonFiniteValueError,
    RankDeficientError,
    TooFewPeriodsError,
)

from .conftest import count_svd_solves, philox, randomized_binary


def _laid_out(a, layout):
    """`a` in C order, in Fortran order, or as a read-only strided view (a
    view of a writeable array is copied by validation, so it would not stay
    strided)."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        view = wide[:, ::2]
        view.flags.writeable = False
        return view
    return np.ascontiguousarray(a)


# the fields of a panel built by `take_units` that it gathers on first read
ROW_FIELDS = ("unit", "time", "y", "d", "x", "unit_codes")
# how far a drawn panel's fixed-effects fit, from per-unit sums, may lie
# from the fit of the same rows gathered and validated
FE_POINT_RTOL = 1e-12
FE_VARIANCE_RTOL = 1e-10


def _validated_draw(pds, draw):
    """Oracle for `take_units`: the explicit loop over drawn units, each
    occurrence renamed to its draw position, passed through validate_panel."""
    starts = np.concatenate([[0], np.cumsum(pds.unit_counts)])
    rows, new_unit = [], []
    for j, u in enumerate(draw):
        rows.extend(range(starts[u], starts[u + 1]))
        new_unit.extend([j] * (starts[u + 1] - starts[u]))
    return validate_panel(
        unit=np.array(new_unit),
        time=pds.time[rows],
        y=pds.y[rows],
        d=pds.d[rows],
        x=pds.x[rows] if pds.x.shape[1] else None,
    )


def test_dataset_and_interval_take_only_what_a_caller_sets():
    # a dataset holds (y, d, x), and an estimator that contrasts two arms
    # checks d itself; instruments are passed to `ate_2sls` directly, and
    # every interval is the 95% one. A bootstrap row resample is a private
    # subclass, not another field
    fields = dataclasses.fields(ObservationalDataset)
    assert [f.name for f in fields if f.init] == ["y", "d", "x"]
    assert [f.name for f in fields if not f.init] == []
    assert list(inspect.signature(validate).parameters) == ["y", "d", "x"]
    assert list(inspect.signature(normal_interval).parameters) == ["point", "variance"]


class TestValidate:
    def test_two_rows_without_covariates(self):
        ds = validate([1.0, 2.0], [0.0, 1.0])
        assert ds.n == 2
        assert ds.x.shape == (2, 0)

    def test_any_finite_treatment_is_valid_input(self):
        # validation leaves d as given; the 0/1 check is the arm estimators'
        ds = validate([1.0, 2.0, 3.0], [0.5, 1.5, 2.0])
        assert ds.d.tolist() == [0.5, 1.5, 2.0]
        assert causalest.ate_or(ds).method == "or"

    def test_vector_covariate_becomes_matrix(self):
        ds = validate([1.0, 2.0], [0.0, 1.0], [3.0, 4.0])
        assert ds.x.shape == (2, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            validate([1.0, 2.0, 3.0], [0.0, 1.0])
        with pytest.raises(LengthMismatchError):
            validate([1.0, 2.0], [0.0, 1.0], x=[[1.0], [2.0], [3.0]])

    def test_covariates_of_more_than_two_dimensions_are_a_shape_error(self):
        # a shape error, as for a 2-d outcome, not the length error
        g = philox(33)
        y, d = g.normal(size=50), (g.uniform(size=50) < 0.5).astype(float)
        with pytest.raises(DimensionMismatchError, match="'x' must be a vector or 2-d matrix") as raised:
            validate(y, d, np.zeros((50, 2, 1)))
        assert not isinstance(raised.value, LengthMismatchError)

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
        ],
        ids=["validate", "validate_panel"],
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

    @pytest.mark.parametrize(
        "indices", [np.array([1]), np.array([], dtype=np.intp)], ids=["one", "none"]
    )
    def test_take_of_fewer_than_two_rows_rejected(self, indices):
        # the same floor as validate's and take_units'
        ds = validate([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
        with pytest.raises(EmptyDatasetError, match=f"got {indices.size}"):
            ds.take(indices)
        assert ds.take(np.array([1, 1])).y.tolist() == [2.0, 2.0]

    def test_take_arrays_are_read_only_and_own_their_data(self):
        g = philox(31)
        ds = validate(g.normal(size=50), (g.uniform(size=50) < 0.5).astype(float),
                      g.normal(size=(50, 2)))
        sub = ds.take(g.integers(0, 50, size=50))
        for name in ("y", "d", "x"):
            got, parent = getattr(sub, name), getattr(ds, name)
            assert not got.flags.writeable, name
            assert not np.shares_memory(got, parent), name


    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_take_gathers_rows_of_any_layout_into_c_order(self, layout):
        g = philox(32)
        ds = validate(
            g.normal(size=40), (g.uniform(size=40) < 0.5).astype(float),
            _laid_out(g.normal(size=(40, 3)), layout),
        )
        assert ds.x.flags.c_contiguous == (layout == "C")  # validation kept the layout
        idx = g.integers(0, 40, size=40)
        sub = ds.take(idx)
        np.testing.assert_array_equal(sub.x, ds.x[idx])
        assert sub.x.flags.c_contiguous


@pytest.mark.parametrize(
    "indices",
    [[True, False, True], np.array([0.0, 2.0]), [0, -1], [0, 3], np.array([[0, 1]]), 1],
    ids=["mask", "float", "negative", "past-the-end", "2-d", "scalar"],
)
@pytest.mark.parametrize("take", ["take", "take_units"])
def test_indices_that_would_be_misread_are_rejected(take, indices):
    # a cast would read a mask as 0/1 indices, NumPy would wrap a negative
    # entry and raise a bare IndexError past the end; three rows, three units
    data = {
        "take": validate([10.0, 20.0, 30.0], [0.0, 1.0, 0.0]),
        "take_units": validate_panel([0, 0, 1, 1, 2, 2], [0, 1] * 3, np.arange(6.0), np.zeros(6)),
    }[take]
    with pytest.raises(InvalidInputError, match="indices must"):
        getattr(data, take)(indices)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_indices_of_any_integer_dtype_take_the_same_rows(dtype):
    ds = validate([10.0, 20.0, 30.0], [0.0, 1.0, 0.0])
    assert ds.take(np.array([2, 0, 2], dtype=dtype)).y.tolist() == [30.0, 10.0, 30.0]
    pds = validate_panel([0, 0, 1, 1, 2, 2], [0, 1] * 3, np.arange(6.0), np.zeros(6))
    assert pds.take_units(np.array([2, 0], dtype=dtype)).y.tolist() == [4.0, 5.0, 0.0, 1.0]


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

    def test_uint64_time_beyond_int64_rejected_as_floats_are(self):
        y, d = [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 0.0]
        for top in (2**63, 2**64 - 1):
            for dtype in (np.uint64, float):
                with pytest.raises(NonFiniteValueError, match="within the int64 range"):
                    validate_panel([0, 0, 1, 1], np.array([0, top, 0, top], dtype=dtype), y, d)
        # the largest int64 is in range, and the times keep their dtype
        pds = validate_panel([0, 0, 1, 1], np.array([0, 2**63 - 1] * 2, dtype=np.uint64), y, d)
        assert pds.time.dtype == np.uint64 and pds.time.tolist() == [0, 2**63 - 1] * 2

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
        for draw in (g.integers(0, 12, size=12), [5, 5, 5], [11, 0, 3, 0]):
            expected = _validated_draw(pds, draw)
            boot = pds.take_units(draw)
            # read first: the sizes come from the codes and counts, and
            # reading them gathers none of the lazy row columns
            for name in ("n", "n_units"):
                got, want = getattr(boot, name), getattr(expected, name)
                assert type(got) is int and got == want, name
            assert all(name not in vars(boot) for name in ROW_FIELDS)
            for name in ("unit", "time", "y", "d", "x", "unit_codes", "unit_counts"):
                got, want = getattr(boot, name), getattr(expected, name)
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                np.testing.assert_array_equal(got, want, err_msg=name)
                assert not got.flags.writeable, name
            # the within transform is gathered from the source panel's; it
            # must hold the bits of the one demeaned afresh from the rows
            for name, got, want in zip(("block", "y"), boot._within, expected._within):
                assert got.shape == want.shape, name
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)
                assert got.flags.c_contiguous and not got.flags.writeable, name
        # and the source's own is [d, x] and y, each demeaned unit by unit
        starts = np.concatenate([[0], np.cumsum(pds.unit_counts)])
        block, y = pds._within
        assert block.shape == (pds.n, 1 + n_cov)
        for v, got in zip([pds.d, *pds.x.T, pds.y], [*block.T, y]):
            want = np.concatenate([u - u.mean() for u in np.split(v, starts[1:-1])])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_take_units_gathers_x_of_any_layout_into_c_order(self, layout):
        g = philox(131)
        unit = np.repeat(np.arange(10), 4)
        pds = validate_panel(
            unit, np.tile(np.arange(4), 10), g.normal(size=40), g.normal(size=40),
            _laid_out(g.normal(size=(40, 3)), layout),
        )
        assert pds.x.flags.c_contiguous == (layout == "C")  # sorted rows keep the layout
        draw = g.integers(0, 10, size=10)
        boot = pds.take_units(draw)
        want = np.concatenate([pds.x[pds.unit_codes == u] for u in draw])
        np.testing.assert_array_equal(boot.x, want)
        assert boot.x.flags.c_contiguous

    @staticmethod
    def _effects_panel(did=False):
        """30 units of 5 periods, with unit effects and two covariates; for
        DID the treatment is 0/1, taken up in period 2 by the units whose
        effect is positive."""
        g = philox(132)
        a = np.repeat(g.normal(size=30), 5)
        time = np.tile(np.arange(5), 30)
        x = g.normal(size=(150, 2)) + a[:, None]
        d = 0.5 * a + g.normal(size=150)
        if did:
            d = ((a > 0.0) & (time >= 2)).astype(float)
        y = 1.0 - 1.5 * d + x @ np.array([0.8, -0.3]) + a + g.normal(size=150)
        pds = validate_panel(np.repeat(np.arange(30), 5), time, y, d, x)
        return pds, g.integers(0, 30, size=30)

    @pytest.mark.parametrize("estimator", [fit_pols, fit_re, fit_fd, fit_fe, fit_cre, ate_did],
                             ids=lambda f: f.__name__)
    def test_each_estimator_reads_a_drawn_panel_as_its_validated_rows(self, estimator):
        pds, draw = self._effects_panel(did=estimator is ate_did)
        boot = pds.take_units(draw)
        got, want = estimator(boot), estimator(_validated_draw(pds, draw))
        assert got.n_used == want.n_used
        assert got.diagnostics == want.diagnostics
        if estimator is fit_fe:
            # fixed effects sums the source's per-unit cross products, so a
            # bootstrap replicate gathers no row field and its numbers agree
            # with the gathered fit's to the sums' rounding
            assert got.point == pytest.approx(want.point, rel=FE_POINT_RTOL, abs=0.0)
            assert got.variance == pytest.approx(want.variance, rel=FE_VARIANCE_RTOL, abs=0.0)
        else:
            assert (got.point, got.variance) == (want.point, want.variance)
        # each estimator gathers only the row fields it reads
        unread = {
            fit_fe: list(ROW_FIELDS),
            fit_pols: ["unit", "time", "unit_codes"],
            ate_did: ["unit"],
        }
        lazy = [name for name in ROW_FIELDS if name not in vars(boot)]
        assert lazy == unread.get(estimator, ["unit", "time"])

    def test_lazy_row_column_is_gathered_once(self):
        pds, draw = self._effects_panel()
        boot = pds.take_units(draw)
        first = boot.y
        assert boot.y is first
        assert vars(boot)["y"] is first

    @pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "gathered"])
    def test_drawn_panel_round_trips_through_pickle(self, read_first):
        pds, draw = self._effects_panel()
        boot = pds.take_units(draw)
        fit_fe(boot)
        if read_first:
            for name in ROW_FIELDS:
                getattr(boot, name)
        copy = pickle.loads(pickle.dumps(boot))
        # the copy gathers a field on its own first read, unless it was read before the pickle
        assert all((name not in vars(copy)) != read_first for name in ROW_FIELDS)
        for name in ("unit", "time", "y", "d", "x", "unit_codes", "unit_counts"):
            got, want = getattr(copy, name), getattr(boot, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert (copy.n, copy.n_units) == (boot.n, boot.n_units)
        for got, want in zip(copy._within, boot._within):
            np.testing.assert_array_equal(got, want)
        got, want = fit_fe(copy), fit_fe(boot)
        assert (got.point, got.variance) == (want.point, want.variance)

    def test_take_units_rejects_a_one_row_panel(self):
        pds = validate_panel([0, 0, 1], [0, 1, 0], y=[1.0, 3.0, 5.0], d=[0, 0, 0])
        with pytest.raises(EmptyDatasetError):
            pds.take_units([1])


class TestDrawnFixedEffects:
    """`fit_fe` of a panel built by `take_units` sums its source's per-unit
    cross products. It agrees with the fit of the validated drawn rows to
    the sums' rounding, raises what that fit raises, and takes the gathered
    rows, bit for bit, where the sums would lose digits."""

    @staticmethod
    def _panel(seed, n_cov, balanced, collinearity=1.0, noise=1.0):
        """40 units with unit effects correlated with d and x; unbalanced
        panels have 2-6 periods with gaps. `collinearity` < 1 moves x
        towards d, and `noise` scales the idiosyncratic error of y."""
        g = philox(seed)
        counts = np.full(40, 5) if balanced else np.tile([2, 3, 4, 2, 5, 3, 4, 2, 6, 3], 4)
        unit = np.repeat(np.arange(40), counts)
        time = np.concatenate([np.sort(g.choice(8, c, replace=False)) for c in counts])
        a = np.repeat(g.normal(0.0, 2.0, 40), counts)
        d = 0.5 * a + g.normal(size=unit.size)
        x = d[:, None] + collinearity * g.normal(size=(unit.size, n_cov)) + 0.4 * a[:, None]
        y = 1.0 + 0.5 * d + x @ np.array([1.0, -0.5, 0.25])[:n_cov] + a
        y = y + noise * g.normal(size=unit.size)
        return validate_panel(unit, time, y, d, x if n_cov else None)

    @staticmethod
    def _assert_unread(boot):
        assert all(name not in vars(boot) for name in ROW_FIELDS)
        assert "_rows" not in vars(boot) and "_within" not in vars(boot)

    @pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
    @pytest.mark.parametrize("n_cov", [0, 1, 3])
    def test_agrees_with_the_validated_rows(self, n_cov, balanced, monkeypatch):
        pds = self._panel(150 + n_cov, n_cov, balanced)
        fit_fe(pds)  # the full-sample fit computes the source's transform
        draws = philox(151)
        calls = count_svd_solves(monkeypatch)
        for _ in range(5):
            draw = draws.integers(0, pds.n_units, size=pds.n_units)
            boot = pds.take_units(draw)
            got = fit_fe(boot)
            assert not calls  # the replicate took the sums, not an SVD
            self._assert_unread(boot)
            want = fit_fe(_validated_draw(pds, draw))
            calls.clear()
            assert got.point == pytest.approx(want.point, rel=FE_POINT_RTOL, abs=0.0)
            assert got.variance == pytest.approx(want.variance, rel=FE_VARIANCE_RTOL, abs=0.0)
            assert (got.n_used, got.diagnostics) == (want.n_used, want.diagnostics)

    @staticmethod
    def _failing_draw(label):
        """(panel, draw, error class) whose validated rows fail the within fit."""
        g = philox(152)
        unit, time = np.repeat(np.arange(6), 3), np.tile(np.arange(3), 6)
        y, d = g.normal(size=18), g.normal(size=18)
        if label == "collinear":  # x is twice d
            return validate_panel(unit, time, y, d, 2.0 * d), [0, 1, 2, 3], RankDeficientError
        if label == "badly scaled":
            # the design's singular-value ratio is below RANK_RTOL, though its
            # unit-diagonal-scaled cross products are well conditioned
            x = 1e-13 * g.normal(size=18)
            return validate_panel(unit, time, y, d, x), [0, 1, 2, 3], RankDeficientError
        if label == "constant d":  # units 0-2 keep d constant over their periods
            d[:9] = np.repeat([1.5, -2.0, 0.0], 3)
            return validate_panel(unit, time, y, d), [2, 0, 1, 0], NoWithinVariationError
        if label == "no dof":  # one 2-period unit and no covariate: 2 - 1 - 1 = 0
            return validate_panel([0, 0, 1, 1, 1], [0, 1, 0, 1, 2], y[:5], d[:5]), [0], TooFewPeriodsError
        # "one period": unit 1 has a single row
        return validate_panel([0, 0, 1], [0, 1, 0], y[:3], d[:3]), [0, 1], TooFewPeriodsError

    @pytest.mark.parametrize("label", ["collinear", "badly scaled", "constant d", "no dof", "one period"])
    def test_raises_what_the_validated_rows_raise(self, label):
        pds, draw, error = self._failing_draw(label)
        with pytest.raises(error) as want:
            fit_fe(_validated_draw(pds, draw))
        boot = pds.take_units(draw)
        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            fit_fe(boot)
        if label == "no dof":
            assert "degrees of freedom" in str(want.value)
        if error is not RankDeficientError:
            self._assert_unread(boot)  # the checks read counts and per-unit maxima

    @pytest.mark.parametrize("kind", ["ill-conditioned", "near-exact"])
    def test_falls_back_to_the_gathered_rows_bit_for_bit(self, kind, monkeypatch):
        # x within 1e-3 of d puts the scaled cross products' condition number
        # near 1e6; an error 1e-5 of y's leaves a residual share near 1e-10
        if kind == "ill-conditioned":
            pds = self._panel(153, 2, False, collinearity=1e-3)
        else:
            pds = self._panel(153, 2, False, noise=1e-5)
        draw = philox(154).integers(0, pds.n_units, size=pds.n_units)
        calls = count_svd_solves(monkeypatch)
        got = fit_fe(pds.take_units(draw))
        assert len(calls) == 1
        want = fit_fe(_validated_draw(pds, draw))
        assert (got.point, got.variance, got.n_used) == (want.point, want.variance, want.n_used)

    def test_a_draw_from_a_drawn_panel_draws_from_its_source(self):
        pds = self._panel(155, 1, False)
        first = philox(156).integers(0, pds.n_units, size=pds.n_units)
        second = philox(157).integers(0, pds.n_units, size=pds.n_units)
        boot = pds.take_units(first).take_units(second)
        source, units = boot._drawn_from
        assert source is pds
        np.testing.assert_array_equal(units, first[second])
        expected = _validated_draw(_validated_draw(pds, first), second)
        for name in ("unit", "time", "y", "d", "x", "unit_codes", "unit_counts"):
            np.testing.assert_array_equal(getattr(boot, name), getattr(expected, name), err_msg=name)
        boot = pds.take_units(first).take_units(second)
        got, want = fit_fe(boot), fit_fe(expected)
        self._assert_unread(boot)
        assert got.point == pytest.approx(want.point, rel=FE_POINT_RTOL, abs=0.0)
        assert got.variance == pytest.approx(want.variance, rel=FE_VARIANCE_RTOL, abs=0.0)

    def test_a_draw_keeps_its_units_when_the_caller_reuses_the_index(self):
        pds = self._panel(158, 1, True)
        draw = philox(159).integers(0, pds.n_units, size=pds.n_units)
        boot = pds.take_units(draw)
        want = _validated_draw(pds, draw.copy())
        draw[:] = 0
        np.testing.assert_array_equal(boot.y, want.y)
        assert fit_fe(boot).point == pytest.approx(fit_fe(want).point, rel=FE_POINT_RTOL, abs=0.0)


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
        y, x = g.normal(size=20), g.normal(size=(20, 2))
        d = (g.uniform(size=20) < 0.5).astype(float)
        ds = validate(y, d, x)
        self._assert_detached((y, d, x), ds, ("y", "d", "x"))
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
            CausalEstimate(method="m", point=5.0, n_used=10, ci=(1.0, 2.0))
        est = CausalEstimate(method="m", point=5.0, n_used=10, variance=1.0)
        with pytest.raises(AttributeError):
            est.ci = (1.0, 2.0)
        assert est.ci == normal_interval(5.0, 1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CausalEstimate(method="m", point=0.0, n_used=10, variance=-1.0)

    def test_replaced_variance_derives_ci(self):
        est = CausalEstimate(method="m", point=0.5, n_used=3)
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
        assert est.method == "difference_in_means"
        assert est.diagnostics == {"n_treated": 2, "n_control": 2}

    def test_variance_oracle(self):
        # [DERIVED] unpooled two-sample formula s1^2/n1 + s0^2/n0
        g = philox(11)
        y = g.normal(size=40)
        d = np.repeat([1.0, 0.0], 20)
        est = difference_in_means(validate(y, d))
        expected = y[:20].var(ddof=1) / 20 + y[20:].var(ddof=1) / 20
        assert est.variance == pytest.approx(expected, rel=1e-12)


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
    unit, period = np.repeat(np.arange(50), 2), np.tile([0, 1], 50)
    group = (unit >= 25).astype(float)
    x = g.normal(size=100)
    y = group + period + 2.0 * group * period + x + g.normal(size=100)
    return validate_panel(unit, period, y, group * period, x)


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
