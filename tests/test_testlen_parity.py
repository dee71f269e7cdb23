"""Parity of :func:`required_test_length` against doubling + bisection.

The reference below is the plain search the library used before its
Newton-seeded one: double ``N`` until formula (3) reaches the
confidence, then bisect, evaluating every fault on every probe.  It
keeps the library's ``max_length`` contract (raise iff the smallest
``N`` exceeds it) by probing ``max_length`` first.  Both searches must
agree exactly — the same ``N``, or the same error — on every library
circuit's detection probabilities and on a fixed-seed random corpus.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.api import AnalysisEngine
from repro.circuits.library import build, names
from repro.errors import EstimationError
from repro.testlen import required_test_length, select_easiest_fraction

PAIRS = [(d, e) for d in (1.0, 0.98) for e in (0.95, 0.98, 0.999)]


def reference_required_test_length(
    probabilities, confidence, fraction=1.0, max_length=1 << 62
):
    if not 0.0 < confidence < 1.0:
        raise EstimationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    kept = select_easiest_fraction(probabilities, fraction)
    kept = [p for p in kept if p < 1.0]
    if not kept:
        return 0
    if min(kept) <= 0.0:
        raise EstimationError(
            "fault set contains undetectable faults (P_f = 0); "
            "use fraction < 1 to exclude them"
        )
    target = math.log(confidence)
    log_miss = [math.log1p(-p) for p in kept]

    def enough(n):
        total = 0.0
        for lm in log_miss:
            miss = -math.expm1(n * lm)
            if miss <= 0.0:
                return False
            total += math.log(miss)
        return total >= target

    if not enough(max_length):
        raise EstimationError(f"required test length exceeds {max_length}")
    low, high = 0, 1
    while not enough(high):
        low, high = high, min(2 * high, max_length)
    while high - low > 1:
        mid = (low + high) // 2
        if enough(mid):
            high = mid
        else:
            low = mid
    return high


def outcome(solver, *args):
    """``N``, or the message of the :class:`EstimationError` raised."""
    try:
        return solver(*args)
    except EstimationError as exc:
        return f"raises: {exc}"


def assert_parity(probabilities, confidence, fraction=1.0,
                  max_length=1 << 62):
    args = (probabilities, confidence, fraction, max_length)
    assert outcome(required_test_length, *args) == outcome(
        reference_required_test_length, *args
    ), (len(probabilities), confidence, fraction, max_length)


def seeded_vector(name, inputs):
    """Input probabilities on the 1/16 grid within [4/16, 12/16]."""
    rng = random.Random(f"testlen-parity:{name}")
    return {pin: rng.randint(4, 12) / 16 for pin in inputs}


@pytest.mark.parametrize("name", names())
def test_library_circuits_match_reference(name):
    circuit = build(name)
    engine = AnalysisEngine(circuit, "paper")
    detection = engine.raw_detection_probabilities(
        seeded_vector(name, circuit.inputs)
    )
    values = sorted(detection.values())  # as analyze() passes them
    for fraction, confidence in PAIRS:
        assert_parity(values, confidence, fraction)
    # test_length() passes the dict order; only d = 1 keeps that order.
    for confidence in (0.95, 0.98, 0.999):
        assert_parity(list(detection.values()), confidence)


def random_fault_set(rng):
    size = rng.choice([1, 2, 3, 8, 40, 300])
    probabilities = []
    for _ in range(size):
        kind = rng.random()
        if kind < 0.05:
            probabilities.append(1.0)
        elif kind < 0.08:
            probabilities.append(0.0)
        elif kind < 0.5:
            probabilities.append(10.0 ** rng.uniform(-18, 0))
        else:
            probabilities.append(rng.random())
    if rng.random() < 0.3:  # duplicates
        probabilities += probabilities[: size // 2 + 1]
    if rng.random() < 0.3:  # mostly detectable sets reach an N
        probabilities = [p for p in probabilities if p > 0.0] or [0.5]
    rng.shuffle(probabilities)
    return probabilities


def test_random_fault_sets_match_reference():
    rng = random.Random(20240611)
    confidences = (0.5, 0.95, 0.98, 0.999, 1e-9, 1e-300, 5e-324,
                   1 - 1e-12, 1 - 2.0 ** -53)
    fractions = (1.0, 1.0, 0.98, 0.5, 0.1)
    bounds = (1 << 62, 1 << 62, 10 ** 6, 1000, 1, 0, (1 << 53) + 1)
    for _ in range(1500):
        assert_parity(
            random_fault_set(rng), rng.choice(confidences),
            rng.choice(fractions), rng.choice(bounds),
        )


@pytest.mark.parametrize("p_min", [1e-17, 3e-17, 1e-16, 2.5e-16])
@pytest.mark.parametrize("confidence", [0.95, 0.999])
def test_lengths_past_2_53_match_reference(p_min, confidence):
    """Where ``n * lm`` rounds ``n`` and the predicate plateaus."""
    probabilities = [p_min, 2 * p_min, 0.3, 0.9, 1.0] + [5 * p_min] * 7
    n = reference_required_test_length(probabilities, confidence)
    assert n > 1 << 53
    assert_parity(probabilities, confidence)
    assert_parity(probabilities, confidence, 0.5)


def test_max_length_edges_match_reference():
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        probabilities = [p for p in random_fault_set(rng) if p > 0.0]
        fraction = rng.choice([1.0, 0.98, 0.5])
        n = outcome(reference_required_test_length, probabilities, 0.95,
                    fraction)
        if isinstance(n, str):  # past the default bound
            continue
        checked += 1
        for bound in (n - 1, n, n + 1, 2 * n, n // 2):
            assert_parity(probabilities, 0.95, fraction, bound)
    assert checked > 150
