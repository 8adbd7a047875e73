"""Validation-helper tests."""

import math

import pytest

from repro import validation
from repro.exceptions import ReproError


class TestScalarChecks:
    def test_check_finite_returns_float(self):
        out = validation.check_finite(3, "x")
        assert out == 3.0 and isinstance(out, float)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_check_finite_rejects(self, bad):
        with pytest.raises(ReproError, match="finite"):
            validation.check_finite(bad, "x")

    def test_check_positive(self):
        assert validation.check_positive(0.1, "x") == 0.1

    @pytest.mark.parametrize("bad", [0, -1, math.nan])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ReproError):
            validation.check_positive(bad, "x")

    def test_check_non_negative_allows_zero(self):
        assert validation.check_non_negative(0, "x") == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ReproError):
            validation.check_non_negative(-0.001, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_fraction_accepts(self, value):
        assert validation.check_fraction(value, "x") == value

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ReproError):
            validation.check_fraction(bad, "x")

    def test_check_positive_int(self):
        assert validation.check_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_check_positive_int_rejects(self, bad):
        with pytest.raises(ReproError):
            validation.check_positive_int(bad, "x")

    def test_check_positive_int_rejects_bool(self):
        # True == 1 but "True nodes" is always a bug
        with pytest.raises(ReproError):
            validation.check_positive_int(True, "x")
