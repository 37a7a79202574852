"""The failure contract: every error the package raises is a CausalestError.

Input errors form the InvalidInputError branch (also ValueErrors, exit code
2); every other package error is an estimation error (exit code 3).
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import causalest
from causalest import errors
from causalest.errors import (
    CausalestError,
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
