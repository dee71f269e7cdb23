"""Fault tolerance for the analysis service and its substrates.

PR 6 made the reproduction a long-running service; this package makes
it survive its own machinery failing, in the spirit of the
secondary-toolchain validation literature: the tool must systematically
distrust itself.  Four cooperating pieces:

* :mod:`repro.resilience.policy` — the transient/permanent error
  taxonomy (one structured ``{type, message, transient, attempts,
  cause}`` payload everywhere) and a :class:`RetryPolicy` with
  exponential backoff + deterministic jitter;
* :mod:`repro.resilience.journal` — the :class:`JobJournal`, durable
  per-job checkpoint state keyed by the same content identity as the
  artifact cache, enabling seed-exact checkpoint/resume of sampled
  jobs across worker crashes and service restarts;
* graceful degradation — a backend raising mid-run falls back to the
  ``"python"`` engine at the next block boundary (implemented in
  :class:`~repro.sampling.montecarlo.MonteCarloEstimator`), recorded
  truthfully in provenance as ``"<failed>-><fallback>"``;
* :mod:`repro.resilience.chaos` — deterministic failure injection at
  the seams (worker kill, backend fault at block *N*, slow jobs, cache
  races) so every recovery path above is exercised by tests and the CI
  chaos-smoke, exactly like the kernel's parity oracle exercises new
  backends.
"""

from repro.resilience.atomic import atomic_write
from repro.resilience.chaos import (
    ChaosKill,
    ChaosPlan,
    ChaosRule,
    chaos_point,
    inject,
    install_from_env,
    parse_spec,
)
from repro.resilience.journal import JobJournal
from repro.resilience.policy import RetryPolicy, error_payload, is_transient

__all__ = [
    "ChaosKill",
    "ChaosPlan",
    "ChaosRule",
    "JobJournal",
    "RetryPolicy",
    "chaos_point",
    "error_payload",
    "inject",
    "install_from_env",
    "is_transient",
    "parse_spec",
]
