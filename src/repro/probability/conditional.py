"""One-level conditional probability evaluation on compiled node ids.

The PROTEST estimator (paper §2, formula (2)) needs two kinds of
conditional quantities:

* ``P(a | A_v)`` — the probability of a gate input given an assignment of
  values to the selected joining points ``W``;
* the Bayes-chain factors ``P(x_j = v_j | x_1..x_{j-1})`` that expand
  ``P(A_v)``.

Both are produced here by *one-level* conditioning: the cone between the
conditioning nodes and the target is re-evaluated with the tree rule,
treating every node outside the cone as carrying its unconditional
estimate.  This bounded recursion is what keeps the tool's effort "nearly
linear" (paper §1); deeper nesting would re-introduce the exponential
blow-up the estimator is designed to avoid.

Everything runs on the compiled kernel's node ids (:mod:`repro.kernel`):

* the **region** of a target is its fan-in up to ``depth`` (MAXLIST)
  edges back, as a frozenset plus an ascending tuple;
* the **cone** of ``(target, sources)`` is one ascending scan of the
  target's region, starting after the lowest source: a node joins iff it
  is not a source and one of its operands is a source or already in the
  cone — i.e. reachable from the sources *while staying in the region*;
* a **replay** pins every condition in ``work`` (a copy of the base
  estimates), evaluates the cone's float entries in order, reads the
  target, then restores the touched ids from ``base`` (an undo log).
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from repro.kernel import CompiledCircuit
from repro.telemetry.profiling import active_profiler

__all__ = ["ConditionalEvaluator"]


class ConditionalEvaluator:
    """Evaluates conditional node probabilities over a base estimate.

    ``base`` holds the unconditional estimate of every node by compiled
    id; ``work`` equals ``base`` between calls.  Callers write estimates
    into both (or :meth:`load` a whole vector) before asking about a
    node; a query reads only the target's fan-in.
    """

    def __init__(self, compiled: CompiledCircuit, depth: "int | None") -> None:
        self.compiled = compiled
        #: Path-length bound for the re-evaluated region (MAXLIST);
        #: ``None`` means unbounded.
        self.depth = depth
        n = compiled.n_nodes
        self.base = [0.0] * n
        self.work = [0.0] * n
        #: Work done in the current pass: computed influence values and
        #: gate evaluations of cone replays (see the estimator's
        #: ``protest_estimator_work_total``).
        self.influence_evals = 0
        self.cone_elems = 0
        #: Seconds spent in ``estimator.influence`` phases (profiled only).
        self.influence_s = 0.0
        #: The active phase profiler, cached once per pass (begin_pass):
        #: the hot paths then pay one attribute load + None check.
        self.profiler = None
        self._regions: Dict[int, FrozenSet[int]] = {}
        self._orders: Dict[int, Tuple[int, ...]] = {}
        # (target, frozenset of relevant sources) -> (entries, ids).
        self._cones: Dict[tuple, tuple] = {}
        # Influence values memoized within one pass (see begin_pass).
        self._influence: Dict[tuple, float] = {}

    def load(self, values: Sequence[float]) -> None:
        """Replace the base estimates (and the working copy)."""
        self.base[:] = values
        self.work[:] = values

    def begin_pass(self) -> None:
        """Reset the per-pass memo and work counts before a new pass.

        :meth:`influence` values depend on the base estimates of the
        target's fan-in; within one estimator pass those are final
        before any consumer asks (topological order fixes them first),
        so memoizing by ``(target, node)`` is exact.  A new pass changes
        the base estimates, so the estimator calls this first.
        """
        self._influence.clear()
        self.profiler = active_profiler()
        self.influence_evals = 0
        self.cone_elems = 0

    # -- structure ------------------------------------------------------------

    def region(self, target: int) -> FrozenSet[int]:
        """Fan-in of ``target`` up to ``depth`` edges back (inclusive)."""
        members = self._regions.get(target)
        if members is None:
            args_of = self.compiled.args_of
            limit = self.compiled.n_nodes if self.depth is None else self.depth
            seen = {target}
            frontier = [target]
            level = 0
            while frontier and level < limit:
                level += 1
                found = []
                for node in frontier:
                    for a in args_of[node]:
                        if a not in seen:
                            seen.add(a)
                            found.append(a)
                frontier = found
            members = frozenset(seen)
            self._regions[target] = members
        return members

    def _cone(self, target: int, sources: FrozenSet[int]) -> tuple:
        """Float entries (and their ids) re-evaluated when ``sources``
        are pinned, for a query about ``target``; cached per key."""
        key = (target, sources)
        cone = self._cones.get(key)
        if cone is not None:
            return cone
        t0 = perf_counter()
        order = self._orders.get(target)
        if order is None:
            order = self._orders[target] = tuple(sorted(self.region(target)))
        args_of = self.compiled.args_of
        marked = set(sources)
        mark = marked.add
        ids = []
        for node in order[bisect_right(order, min(sources)):]:
            if node in marked:
                continue  # a pinned source keeps its condition
            for a in args_of[node]:
                if a in marked:
                    mark(node)
                    ids.append(node)
                    break
        float_entry = self.compiled.float_entry
        cone = (tuple([float_entry[i] for i in ids]), tuple(ids))
        self._cones[key] = cone
        if self.profiler is not None:
            self.profiler.add("estimator.cone_schedule", perf_counter() - t0)
        return cone

    # -- queries --------------------------------------------------------------

    def probability(self, target: int, conditions: Mapping[int, float]) -> float:
        """``P(target = 1 | conditions)`` under the one-level model.

        ``conditions`` maps node ids to pinned values (``1.0``/``0.0``).
        All of them are pinned, not only those inside the target's
        region: a cone gate may read a conditioned operand from outside.
        """
        pinned = conditions.get(target)
        if pinned is not None:
            return pinned
        relevant = self.region(target).intersection(conditions)
        if not relevant:
            return self.base[target]
        entries, ids = self._cone(target, relevant)
        work = self.work
        for node, value in conditions.items():
            work[node] = value
        for i, fn, args, table in entries:
            work[i] = fn(work, args, table)
        value = work[target]
        base = self.base
        for node in conditions:
            work[node] = base[node]
        for i in ids:
            work[i] = base[i]
        self.cone_elems += len(ids)
        return value

    def influence(self, target: int, node: int) -> float:
        """``P(target | node=1) - P(target | node=0)``.

        The covariance of two signals factorizes over this difference:
        ``Cov(target, node) = p_x (1-p_x) * influence`` under the one-level
        model, which is exactly the quantity the paper's selection
        heuristic needs (§2).
        """
        key = (target, node)
        value = self._influence.get(key)
        if value is not None:
            return value
        profiler = self.profiler
        started = profiler.push("estimator.influence") if profiler else 0.0
        self.influence_evals += 1
        if node not in self.region(target):
            # Outside the re-evaluation region both conditionals collapse
            # to the base estimate.
            value = 0.0
        else:
            entries, ids = self._cone(target, frozenset((node,)))
            work = self.work
            work[node] = 1.0
            for i, fn, args, table in entries:
                work[i] = fn(work, args, table)
            high = work[target]
            # The second replay rewrites every cone id before reading it.
            work[node] = 0.0
            for i, fn, args, table in entries:
                work[i] = fn(work, args, table)
            value = high - work[target]
            base = self.base
            work[node] = base[node]
            for i in ids:
                work[i] = base[i]
            self.cone_elems += 2 * len(ids)
        if profiler is not None:
            elapsed = perf_counter() - started
            profiler.pop(started, elapsed)
            self.influence_s += elapsed
        self._influence[key] = value
        return value
