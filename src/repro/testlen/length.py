"""Random test length computation (paper §5, formula (3)).

Under the independence assumption, ``N`` random patterns detect all faults
of ``F`` with probability

    P_F(N) = prod over f in F of (1 - (1 - P_f)^N)       (3)

PROTEST answers two questions built on (3):

* the probability that a given pattern count reaches full coverage
  (:func:`all_detected_probability`), and
* the smallest ``N`` reaching a required confidence ``e``, optionally for
  only the easiest ``d*100 %`` of the faults
  (:func:`required_test_length`) — the quantity of Tables 2, 3 and 5.

All products are evaluated in log space so the astronomically small
probabilities of random-pattern-resistant circuits (COMP needs ~10^8
patterns) stay representable.

How :func:`required_test_length` finds ``N``
--------------------------------------------

The answer is decided by one predicate, ``enough(n)``: the float sum,
in kept-list order, of ``log(-expm1(n * lm))`` over the kept faults
(``lm = log1p(-P_f)``) is at least ``log(e)``.  Every term is ``<= 0``
and non-decreasing in ``n``, and float addition is monotone, so
``enough`` is monotone in ``n`` and "the smallest ``n`` with
``enough(n)``" is well defined.  Any search that brackets that boundary
with the predicate itself returns the same ``N``; everything else only
guesses where to look:

1. *Lower bound.*  The hardest fault alone needs
   ``x = log(1-e) / log1p(-P_min)`` patterns.  At ``x / 2`` its term is
   ``log(1 - sqrt(1-e)) < log(e)``, by a margin far above rounding, and
   the sum of non-positive terms is at most any one of them, so
   ``N > x / 2``.  So ``max_length <= x / 2`` raises without a probe,
   and faults with ``n * lm < -41`` at ``n = x / 2`` are dropped up
   front: their term is an exact ``0.0`` at every probed ``n``.
2. *Guess.*  Newton steps on the continuous ``g(x)``, the predicate's
   sum over real ``x``, taken on ``log(-g)``, which is convex: from the
   left they approach the root without passing it.  Below ``2^53`` the
   guess typically lands within one pattern of ``N``.
3. *Decide.*  Probe ``ceil(x)`` with ``enough``, gallop in the failing
   direction with doubling steps, then bisect the bracket.  Above
   ``2^53`` ``n * lm`` rounds ``n`` to a float and ``enough`` plateaus;
   the integer bisection still returns the smallest int.

``enough`` skips terms with ``n * lm < -40``: ``expm1`` is exactly
``-1.0`` there (the test suite checks it at ``-40``; monotonicity,
which the whole search assumes, extends it below), so the term is
``log(1.0) == 0.0`` and adding it changes nothing.  It also stops once
the partial sum, which can only fall, drops below ``log(e)``.  The
passes over the faults (probes and Newton passes) are counted in
``protest_testlen_passes_total``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.errors import EstimationError
from repro.telemetry.metrics import REGISTRY

__all__ = [
    "all_detected_probability",
    "log_all_detected_probability",
    "required_test_length",
    "select_easiest_fraction",
    "expected_coverage",
]

#: ``n * log1p(-p)`` below this makes the formula (3) term ``log(1.0)``.
_ZERO_TERM = -40.0
#: First gallop step and Newton stopping tolerance, relative to ``x``
#: (the guess is good to ~1e-14 relative above 2^53).
_GALLOP_REL = 2.0 ** -46
_NEWTON_REL = 2.0 ** -40

_PASSES = REGISTRY.counter(
    "protest_testlen_passes_total",
    "Passes over the kept faults while solving formula (3) for N",
    ("kind",),
)


def select_easiest_fraction(
    probabilities: Sequence[float], fraction: float
) -> List[float]:
    """The ``d*100 %`` faults with the *highest* detection probability.

    ``fraction=1.0`` keeps everything.  The paper's ``F_d`` (§5).
    """
    if not 0.0 < fraction <= 1.0:
        raise EstimationError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(probabilities)
    keep = int(math.floor(fraction * len(probabilities) + 1e-9))
    keep = max(keep, 1)
    ranked = sorted(probabilities, reverse=True)
    return ranked[:keep]


def log_all_detected_probability(
    probabilities: Iterable[float], n_patterns: int
) -> float:
    """``log P_F(N)`` of formula (3); ``-inf`` when any fault is undetectable."""
    if n_patterns < 0:
        raise EstimationError("pattern count must be non-negative")
    total = 0.0
    for p in probabilities:
        if p >= 1.0:
            continue
        if p <= 0.0 or n_patterns == 0:
            return -math.inf
        log_miss = n_patterns * math.log1p(-p)  # log (1-p)^N
        miss = -math.expm1(log_miss)  # 1 - (1-p)^N, accurately
        if miss <= 0.0:
            return -math.inf
        total += math.log(miss)
    return total


def all_detected_probability(
    probabilities: Iterable[float], n_patterns: int
) -> float:
    """``P_F(N)`` of formula (3)."""
    return math.exp(log_all_detected_probability(probabilities, n_patterns))


def required_test_length(
    probabilities: Sequence[float],
    confidence: float,
    fraction: float = 1.0,
    max_length: int = 1 << 62,
) -> int:
    """Smallest ``N`` with ``P_{F_d}(N) >= confidence`` (Tables 2/3/5).

    Raises :class:`~repro.errors.EstimationError` when the kept fault set
    contains an undetectable fault (``P_f = 0``) — no finite test reaches
    the confidence then — or when that smallest ``N`` exceeds
    ``max_length``.  See the module docstring for the search.
    """
    if not 0.0 < confidence < 1.0:
        raise EstimationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    kept = select_easiest_fraction(probabilities, fraction)
    kept = [p for p in kept if p < 1.0]
    if not kept:
        return 0
    p_min = min(kept)
    if p_min <= 0.0:
        raise EstimationError(
            "fault set contains undetectable faults (P_f = 0); "
            "use fraction < 1 to exclude them"
        )
    target = math.log(confidence)
    # The hardest fault alone needs x patterns; N > x / 2 (module doc).
    x = math.log1p(-confidence) / math.log1p(-p_min)
    lo = math.floor(min(x / 2, max_length))
    if lo >= max_length:
        raise EstimationError(f"required test length exceeds {max_length}")
    # Faults this easy contribute an exact 0 at every n > lo: drop them
    # before paying for their log(1-p).
    p_cut = -math.expm1((_ZERO_TERM - 1.0) / lo) if lo > 0 else 1.0
    log_miss = [math.log1p(-p) for p in kept if p <= p_cut]
    x, newton = _newton(max(x, 1.0), log_miss, target, max_length)
    probes = 0

    def enough(n: int) -> bool:
        nonlocal probes
        probes += 1
        return _reaches(n, log_miss, target)

    try:
        return _smallest(enough, lo, x, max_length)
    finally:
        _PASSES.labels(kind="newton").inc(newton)
        _PASSES.labels(kind="probe").inc(probes)


def _smallest(
    enough: Callable[[int], bool], lo: int, x: float, max_length: int
) -> int:
    """Smallest ``n`` in ``(lo, max_length]`` with ``enough(n)``.

    ``enough(lo)`` must be false.  Starts at ``ceil(x)``, gallops in the
    failing direction with doubling steps, then bisects.
    """
    n = min(max(math.ceil(x), lo + 1), max_length)
    step = max(1, int(x * _GALLOP_REL))
    if enough(n):
        hi = n
        while hi - step > lo:
            if not enough(hi - step):
                lo = hi - step
                break
            hi -= step
            step *= 2
    else:
        lo = n
        while True:
            if lo >= max_length:
                raise EstimationError(
                    f"required test length exceeds {max_length}"
                )
            hi = min(lo + step, max_length)
            if enough(hi):
                break
            lo = hi
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _reaches(n: int, log_miss: List[float], target: float) -> bool:
    """The predicate ``log P_F(n) >= target`` of formula (3).

    Terms are summed in list order.  A term with ``n*lm < -40`` is an
    exact ``log(1.0) == 0.0`` and is skipped; the loop stops as soon as
    the partial sum, which can only fall, drops below ``target``.
    """
    log = math.log
    expm1 = math.expm1
    total = 0.0
    for lm in log_miss:
        y = n * lm
        if y < _ZERO_TERM:
            continue
        miss = -expm1(y)
        if miss <= 0.0:
            return False
        total += log(miss)
        if total < target:
            return False
    return True


def _newton(
    x: float, log_miss: List[float], target: float, max_length: int
) -> Tuple[float, int]:
    """Approach the root of ``g(x) = target`` from the left.

    ``g(x) = sum log(-expm1(x*lm))`` is the predicate's sum on the
    reals.  The step is Newton's on ``log(-g)``, which is convex (each
    ``-log(1 - q^x)`` is a positive sum of exponentials in ``x``), so
    from a start left of the root no step passes it.  Returns the
    estimate and the number of passes over the faults.
    """
    log = math.log
    expm1 = math.expm1
    log_neg_target = log(-target)
    passes = 0
    while True:
        passes += 1
        g = 0.0
        dg = 0.0
        for lm in log_miss:
            y = x * lm
            if y < _ZERO_TERM:
                continue
            m = expm1(y)
            g += log(-m)
            dg += lm * (1.0 + m) / m
        if g >= target or dg <= 0.0:
            return x, passes
        step = (log(-g) - log_neg_target) * -g / dg
        if not step > 0.0:
            return x, passes
        x = min(x + step, max_length)
        if step <= 0.5 + x * _NEWTON_REL or x >= max_length:
            return x, passes


def expected_coverage(
    probabilities: Sequence[float], n_patterns: int
) -> float:
    """Expected fault coverage ``mean_f (1 - (1-P_f)^N)`` after N patterns."""
    if not probabilities:
        return 0.0
    total = 0.0
    for p in probabilities:
        if p >= 1.0:
            total += 1.0
        elif p > 0.0 and n_patterns > 0:
            total += -math.expm1(n_patterns * math.log1p(-p))
    return total / len(probabilities)
