"""Tests for the test-length mathematics (formula (3), Tables 2/3/5)."""

from __future__ import annotations

import math

import pytest

from repro.api import AnalysisEngine
from repro.circuits.library import build
from repro.errors import EstimationError
from repro.telemetry import REGISTRY, enabled, set_enabled
from repro.testlen import (
    all_detected_probability,
    expected_coverage,
    log_all_detected_probability,
    required_test_length,
    select_easiest_fraction,
)


def test_single_fault_closed_form():
    """For one fault, N = ceil(log(1-e) / log(1-p))."""
    p, e = 0.01, 0.95
    expected = math.ceil(math.log(1 - e) / math.log(1 - p))
    assert required_test_length([p], e) == expected


def test_probability_matches_direct_product():
    pfs = [0.5, 0.1, 0.25]
    n = 17
    direct = 1.0
    for p in pfs:
        direct *= 1 - (1 - p) ** n
    assert all_detected_probability(pfs, n) == pytest.approx(direct)


def test_monotone_in_n():
    pfs = [0.02, 0.3, 0.001]
    values = [all_detected_probability(pfs, n) for n in (10, 100, 1000, 10000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_required_length_is_minimal():
    pfs = [0.05, 0.2, 0.007]
    for e in (0.9, 0.99):
        n = required_test_length(pfs, e)
        assert all_detected_probability(pfs, n) >= e
        assert all_detected_probability(pfs, n - 1) < e


def test_fraction_drops_hardest():
    pfs = [0.5] * 98 + [1e-9, 1e-9]
    full = required_test_length(pfs, 0.95)  # dominated by the 1e-9 faults
    d98 = required_test_length(pfs, 0.95, fraction=0.98)
    assert d98 < full / 1000  # orders of magnitude shorter


def test_select_easiest_fraction():
    pfs = [0.9, 0.1, 0.5, 0.3]
    assert select_easiest_fraction(pfs, 1.0) == pfs
    assert select_easiest_fraction(pfs, 0.5) == [0.9, 0.5]
    assert select_easiest_fraction(pfs, 0.01) == [0.9]  # at least one kept
    with pytest.raises(EstimationError):
        select_easiest_fraction(pfs, 0.0)
    with pytest.raises(EstimationError):
        select_easiest_fraction(pfs, 1.5)


def test_undetectable_fault_raises():
    with pytest.raises(EstimationError, match="undetectable"):
        required_test_length([0.5, 0.0], 0.95)
    # ... unless the fraction excludes it.
    assert required_test_length([0.5, 0.0], 0.95, fraction=0.5) > 0


def test_certain_faults_need_no_patterns():
    assert required_test_length([1.0, 1.0], 0.99) == 0


def test_confidence_validation():
    with pytest.raises(EstimationError):
        required_test_length([0.5], 0.0)
    with pytest.raises(EstimationError):
        required_test_length([0.5], 1.0)


def test_max_length_guard():
    """Raises iff the smallest N exceeds ``max_length``."""
    with pytest.raises(EstimationError, match="exceeds"):
        required_test_length([1e-15], 0.999, max_length=10**6)
    n = required_test_length([5e-6], 0.95)
    assert n == 599145
    assert required_test_length([5e-6], 0.95, max_length=10**6) == n
    assert required_test_length([5e-6], 0.95, max_length=n) == n
    with pytest.raises(EstimationError, match="exceeds"):
        required_test_length([5e-6], 0.95, max_length=n - 1)
    pfs = [0.05, 0.2, 0.007, 1.0]
    m = required_test_length(pfs, 0.99)
    assert required_test_length(pfs, 0.99, max_length=m) == m
    with pytest.raises(EstimationError, match="exceeds"):
        required_test_length(pfs, 0.99, max_length=m - 1)
    with pytest.raises(EstimationError, match="exceeds"):
        required_test_length(pfs, 0.99, max_length=0)


def test_skipped_terms_are_exact_zeros():
    """The search skips terms with n*log(1-p) < -40 as exact zeros.

    ``expm1`` is monotone, so ``expm1(-40) == -1.0`` makes every term
    below -40 equal ``log(1.0) == 0.0`` on this platform's libm.
    """
    assert -math.expm1(-40.0) == 1.0
    assert math.log(-math.expm1(-40.0)) == 0.0


@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_minimal_past_2_53(fraction):
    """Above 2^53, ``n*lm`` rounds ``n``; the answer is still the
    smallest integer reaching the confidence."""
    pfs = [2e-17, 3e-17, 0.4, 1.0, 0.7] + [1e-16] * 5
    n = required_test_length(pfs, 0.95, fraction)
    assert n > 1 << 53
    kept = [p for p in select_easiest_fraction(pfs, fraction) if p < 1.0]
    target = math.log(0.95)
    assert log_all_detected_probability(kept, n) >= target
    assert log_all_detected_probability(kept, n - 1) < target


def test_log_space_survives_tiny_probabilities():
    """COMP-scale inputs: p ~ 1e-8 and N ~ 1e8 stay finite and sane."""
    pfs = [1e-8] * 100 + [0.5] * 1000
    n = required_test_length(pfs, 0.95)
    assert 1e8 < n < 1e10
    log_p = log_all_detected_probability(pfs, n)
    assert math.exp(log_p) >= 0.95


def test_zero_patterns():
    assert all_detected_probability([0.5], 0) == 0.0
    assert log_all_detected_probability([], 0) == 0.0  # empty product = 1
    with pytest.raises(EstimationError):
        log_all_detected_probability([0.5], -1)


def test_expected_coverage_properties():
    pfs = [0.5, 0.01, 1.0, 0.0]
    assert expected_coverage(pfs, 0) == pytest.approx(0.25)  # only the 1.0
    cov = expected_coverage(pfs, 1000)
    assert 0.74 < cov < 0.76  # the p=0 fault can never be covered
    assert expected_coverage([], 10) == 0.0


@pytest.mark.parametrize("name, bound", [("comp", 7), ("c7552", 24)])
def test_passes_per_solved_pair_stay_bounded(name, bound):
    """Deterministic work pin: O(F) passes (predicate probes plus Newton
    passes) per solved (fraction, confidence) pair.  Doubling plus
    bisection needed 2*log2(N): ~70 on comp, ~120 on c7552."""
    passes = REGISTRY.counter(
        "protest_testlen_passes_total", labelnames=("kind",)
    )

    def total():
        return sum(passes.labels(kind=k).value for k in ("probe", "newton"))

    engine = AnalysisEngine(build(name), "paper")
    engine.raw_detection_probabilities()
    was_enabled = enabled()
    set_enabled(True)
    try:
        before = total()
        report = engine.analyze()
        used = total() - before
    finally:
        set_enabled(was_enabled)
    solved = [n for n in report.test_lengths.values() if n is not None]
    assert solved
    assert used / len(solved) <= bound
