"""The failure contract: every error the package raises is a CausalestError.

Input errors form the InvalidInputError branch (also ValueErrors, exit code
2); every other package error is an estimation error (exit code 3).
"""

from __future__ import annotations

import ast
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

import causalest
from causalest import errors, regress
from causalest.errors import (
    CausalestError,
    ConvergenceError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvalidInputError,
    LengthMismatchError,
    MissingReferenceCellError,
    NonFiniteValueError,
    UnknownCaseError,
)

SOURCES = sorted(Path(causalest.__file__).parent.glob("*.py"))

INPUT_ERRORS = {
    InvalidInputError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteValueError,
    EmptyDatasetError,
    MissingReferenceCellError,
    UnknownCaseError,
}

ERROR_CLASSES = {
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls.__module__ == errors.__name__
}


def _raises(path):
    """(line, raised name) of every `raise` with an exception in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_is_a_package_error(path):
    # a bare `raise ValueError` (or any other non-package raise) would abort
    # a Monte Carlo experiment or a bootstrap instead of counting one run
    bad = []
    for line, name in _raises(path):
        cls = getattr(errors, name, None)
        if not (isinstance(cls, type) and issubclass(cls, CausalestError)):
            bad.append(f"{path.name}:{line}: raise {name}")
    assert bad == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_exception_classes_are_defined_in_errors_only(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            bases = [ast.unparse(b) for b in node.bases]
            assert not any(b.endswith(("Error", "Exception")) for b in bases), node.name


def test_every_error_class_is_raised_in_the_package():
    # a class no `raise` names is taxonomy without a failure behind it, as a
    # public name no caller reads is code without a use
    raised = {name for path in SOURCES for _, name in _raises(path)}
    named = {cls.__name__ for cls in ERROR_CLASSES} - {CausalestError.__name__}
    assert sorted(named - raised) == []


def test_every_error_class_derives_from_the_base():
    assert all(issubclass(cls, CausalestError) for cls in ERROR_CLASSES)


@pytest.mark.parametrize("cls", sorted(INPUT_ERRORS, key=lambda c: c.__name__))
def test_input_errors_are_package_and_value_errors(cls):
    assert issubclass(cls, CausalestError)
    assert issubclass(cls, ValueError)
    assert issubclass(cls, InvalidInputError)


def test_input_branch_is_exactly_the_input_errors():
    assert {c for c in ERROR_CLASSES if issubclass(c, InvalidInputError)} == INPUT_ERRORS
    assert not any(issubclass(c, ValueError) for c in ERROR_CLASSES - INPUT_ERRORS)
    assert issubclass(LengthMismatchError, DimensionMismatchError)


_UNIT, _TIME, _Y = [1, 1, 2, 2], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0]
_SCORES = causalest.PropensityFit.from_scores([0.3, 0.6, 0.5, 0.4], [0, 1, 0, 1])
_SC = {name: [1.0] for name in ("x1", "z1", "y1")} | {name: [[1.0, 2.0]] for name in ("x0", "z0", "y0")}


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: causalest.validate(["a", "b", "c"], [0, 1, 0]), "'y'"),
        (lambda: causalest.validate({"a": 1}, [0, 1]), "'y'"),
        (lambda: causalest.validate([1, 2, 3], [0, 1, 0], [[1, 2], [3], [4, 5]]), "'x'"),
        (lambda: causalest.validate_panel(_UNIT, _TIME, ["a"] * 4, [0, 1, 0, 1]), "'y'"),
        (lambda: causalest.validate_panel(_UNIT, _TIME, _Y, {"d": 1}), "'d'"),
        (lambda: causalest.validate_panel(_UNIT, _TIME, _Y, [0, 1, 0, 1], [[1], [2, 3], [4], [5]]), "'x'"),
        (lambda: causalest.ScProblem(**{**_SC, "x0": [["a", "b"]]}), "'x0'"),
        (lambda: causalest.sc_weights(["a"], [[1.0, 2.0]], [1.0]), "'x1'"),
        (lambda: causalest.fit_ols([[1.0], ["a"]], [1.0, 2.0]), "'design'"),
        (lambda: causalest.fit_logistic([[1.0], [1.0]], ["a", "b"]), "'response'"),
        (lambda: causalest.ate_2sls([1.0, 2.0, 3.0], [0, 1, 0], ["a", "b", "c"]), "'z'"),
        (lambda: causalest.rdd_sharp([1.0, 2.0], {"t": 1}), "'t'"),
        (lambda: causalest.rdd_fuzzy([1.0, 2.0], [-1.0, 1.0], ["a", "b"]), "'d'"),
        (lambda: causalest.PropensityFit.from_scores(["a", "b"], [0, 1]), "'p1'"),
        (lambda: causalest.trim_overlap(_SCORES, "a", 0.9), "lo < hi"),
        (lambda: causalest.trim_overlap(_SCORES, 0.1, None), "lo < hi"),
    ],
    ids=[
        "validate-strings", "validate-mapping", "validate-ragged-x", "panel-y", "panel-d",
        "panel-ragged-x", "sc-problem", "sc-weights", "fit-ols", "fit-logistic", "2sls",
        "rdd-sharp", "rdd-fuzzy", "from-scores", "trim-lo", "trim-hi",
    ],
)
def test_non_numeric_input_is_an_input_error(call, name):
    # NumPy's own TypeError or ValueError would escape the package's base
    # class and abort a caller that catches CausalestError
    with pytest.raises(InvalidInputError, match=name):
        call()


_DESIGN = np.column_stack([np.ones(6), np.arange(6.0)])


def _with(a, at, value):
    a = np.array(a, dtype=float)
    a[at] = value
    return a


@pytest.mark.parametrize(
    "call",
    [
        lambda: causalest.fit_ols(_with(_DESIGN, (2, 1), np.nan), np.arange(6.0)),
        lambda: causalest.fit_ols(_with(_DESIGN, (2, 1), np.inf), np.arange(6.0)),
        lambda: causalest.fit_ols(_DESIGN, _with(np.arange(6.0), 2, np.nan)),
        # an exactly identified fit has no residual sum of squares
        lambda: causalest.fit_ols(_DESIGN[:2], [np.nan, 1.0]),
        lambda: causalest.fit_logistic(_with(_DESIGN, (2, 1), np.nan), [0, 1, 0, 1, 1, 0]),
    ],
    ids=[
        "ols-nan-design", "ols-inf-design", "ols-nan-response", "ols-exact-nan-response",
        "logit-nan-design",
    ],
)
def test_non_finite_input_to_a_fit_is_an_input_error(call):
    with pytest.raises(NonFiniteValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: causalest.fit_logistic(_with(_DESIGN, (2, 1), np.inf), [0, 1, 0, 1, 1, 0]),
        lambda: causalest.fit_logistic(_with(_DESIGN, (2, 1), -np.inf), [0, 1, 0, 1, 1, 0]),
        lambda: causalest.fit_logistic(
            _with(_DESIGN, (2, 1), np.inf), [0, 1, 0, 1, 1, 0], start=([0.1, 0.0], np.eye(2))
        ),
        lambda: causalest.fit_ols(_DESIGN, _with(np.arange(6.0), 2, np.inf)),
        lambda: causalest.fit_ols(_DESIGN[:2], [np.inf, 1.0]),
    ],
    ids=[
        "logit-inf-design", "logit-minus-inf-design", "logit-inf-design-warm",
        "ols-inf-response", "ols-exact-inf-response",
    ],
)
def test_an_infinite_input_to_a_fit_is_an_input_error_when_warnings_are_errors(call):
    # the inputs are not scanned, and inf * 0 in the fit's first products
    # is NaN: NumPy's RuntimeWarning for it must not reach a caller that
    # turns warnings into errors before the package's own error does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError):
            call()


def test_the_solve_itself_rejects_an_infinite_design_entry():
    # the SVD of this design returns NaN singular values without failing,
    # and a NaN ratio would pass the rank test; the solve is reached with
    # unscanned columns, so it checks its largest singular value
    with pytest.raises(NonFiniteValueError):
        regress._svd_solve(_with(_DESIGN, (2, 1), np.inf), np.arange(6.0))


def test_an_svd_that_fails_on_a_finite_design_is_a_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        causalest.fit_ols(_DESIGN, np.arange(6.0))
