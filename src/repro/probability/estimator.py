"""The PROTEST signal-probability estimator (paper §2).

For every gate the estimator distinguishes the paper's four cases:

1. primary inputs carry their given probability;
2. single-input gates (inverters) follow the exact rule;
3. gates whose inputs share no joining points use the tree rule of
   [AgAg75] (exact under independence);
4. gates with reconvergent fan-out are conditioned on a bounded subset
   ``W`` of their joining points ``V`` (formula (2))::

       p_k  =  sum over assignments A_v of W:
                  P(A_v) * P_gate( P(input_i | A_v) ... )

The subset is chosen by the paper's covariance heuristic: maximize the
captured ``|Cov(a, x) * Cov(b, x)| / S(x)^2`` mass.  ``MAXVERS`` bounds
``|W|`` and ``MAXLIST`` bounds the path length searched for joining points;
``MAXVERS = 0`` degenerates to the pure tree rule, and letting ``W`` cover
all of ``V`` recovers the exact probability on textbook reconvergence
examples (see the tests).
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import EstimationError
from repro.kernel import compile_circuit
from repro.logicsim.patterns import resolve_input_probs
from repro.probability.conditional import ConditionalEvaluator
from repro.telemetry.metrics import REGISTRY

__all__ = [
    "EstimatorParams",
    "SignalProbabilities",
    "SignalProbabilityEstimator",
    "input_probs_key",
]

_WORK = REGISTRY.counter(
    "protest_estimator_work_total",
    "Signal-estimator work: computed influence() values (kind=influence) "
    "and gate evaluations of conditional cone replays (kind=cone_elems)",
    ("kind",),
)


def input_probs_key(
    inputs: Sequence[str],
    probs: "float | Mapping[str, float] | None",
) -> Tuple[float, ...]:
    """Hashable cache key for an input-probability specification.

    Scalar, mapping and ``None`` specifications that resolve to the same
    per-input tuple produce the same key, so callers can memoize whole
    estimation runs by it (the :class:`repro.api.AnalysisEngine` does).
    """
    resolved = resolve_input_probs(inputs, probs)
    return tuple(resolved[name] for name in inputs)


@dataclasses.dataclass(frozen=True)
class EstimatorParams:
    """Tuning knobs of the estimator (paper §2, last paragraph).

    Attributes
    ----------
    maxvers:
        Maximal cardinality of the conditioning set ``W`` (the paper's
        MAXVERS).  Cost per reconvergent gate grows as ``2^maxvers``.
    maxlist:
        Maximal path length searched for joining points (MAXLIST), also
        the radius of the conditional re-evaluation region.
    candidate_cap:
        Upper bound on how many joining-point candidates are scored; the
        topologically closest candidates are kept.  Purely a guard against
        pathological fan-in regions.
    """

    maxvers: int = 3
    maxlist: int = 8
    candidate_cap: int = 10

    def __post_init__(self) -> None:
        if self.maxvers < 0:
            raise EstimationError("maxvers must be >= 0")
        if self.maxlist < 1:
            raise EstimationError("maxlist must be >= 1")
        if self.candidate_cap < 1:
            raise EstimationError("candidate_cap must be >= 1")


class SignalProbabilities(Mapping[str, float]):
    """Estimated signal probability of every node (read-only mapping)."""

    def __init__(
        self,
        probs: Dict[str, float],
        input_probs: Dict[str, float],
        conditioned: FrozenSet[str],
    ) -> None:
        self._probs = probs
        self.input_probs = input_probs
        #: The gates that required joining-point conditioning.
        self.conditioned_nodes = conditioned
        #: Number of gates that required joining-point conditioning.
        self.conditioned_gates = len(conditioned)

    def __getitem__(self, node: str) -> float:
        return self._probs[node]

    def __iter__(self):
        return iter(self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._probs)


class SignalProbabilityEstimator:
    """Near-linear signal-probability estimation with bounded conditioning.

    Runs on the circuit's compiled node ids: base estimates live in a
    flat list, and names are translated only when a pass starts and
    when it returns its :class:`SignalProbabilities`.  Every pass adds
    its computed ``influence()`` values and cone-replay gate evaluations
    to ``protest_estimator_work_total``.
    """

    def __init__(
        self,
        circuit: Circuit,
        params: "EstimatorParams | None" = None,
    ) -> None:
        self.circuit = circuit
        self.params = params or EstimatorParams()
        self.compiled = compiled = compile_circuit(circuit)
        self._conditional = ConditionalEvaluator(compiled, self.params.maxlist)
        # Per-gate float entries ``(id, fn, args, table)``, topo order.
        self._gates = [e for e in compiled.float_entry if e is not None]
        # Nodes with two or more fan-out pins: the joining-point alphabet.
        self._stems = frozenset(
            i for i, pins in enumerate(compiled.consumers) if len(pins) >= 2
        )
        # Joining points per gate id are purely structural: cache them.
        self._joining: Dict[int, Tuple[int, ...]] = {}

    # -- public API ----------------------------------------------------------------

    def run(
        self,
        input_probs: "float | Mapping[str, float] | None" = None,
    ) -> SignalProbabilities:
        """Estimate all node probabilities for the given input tuple."""
        resolved = resolve_input_probs(self.circuit.inputs, input_probs)
        conditional = self._conditional
        conditional.begin_pass()
        base, work = conditional.base, conditional.work
        for i, name in zip(self.compiled.input_index, self.circuit.inputs):
            base[i] = work[i] = resolved[name]
        conditioned = []
        estimate = self._gate_probability
        for entry in self._gates:
            i = entry[0]
            value, used = estimate(entry)
            base[i] = work[i] = value
            if used:
                conditioned.append(i)
        return self._finish(resolved, conditioned)

    def update(
        self,
        previous: SignalProbabilities,
        input_probs: "float | Mapping[str, float] | None",
    ) -> SignalProbabilities:
        """Re-estimate after an input-probability change.

        Only gates in the transitive fan-out of the changed inputs are
        recomputed — the key speed-up for the §6 hill climber, whose moves
        touch one input at a time.  Each recomputed gate's conditioning
        flag is recomputed with it.
        """
        resolved = resolve_input_probs(self.circuit.inputs, input_probs)
        compiled = self.compiled
        changed = [
            (i, name)
            for i, name in zip(compiled.input_index, self.circuit.inputs)
            if resolved[name] != previous.input_probs.get(name)
        ]
        if not changed:
            return previous
        conditional = self._conditional
        conditional.begin_pass()
        conditional.load([previous[name] for name in compiled.names])
        base, work = conditional.base, conditional.work
        index = compiled.index
        flagged = {index[name] for name in previous.conditioned_nodes}
        dirty = bytearray(compiled.n_nodes)
        for i, name in changed:
            base[i] = work[i] = resolved[name]
            dirty[i] = 1
        estimate = self._gate_probability
        for entry in self._gates:
            i, _fn, args, _table = entry
            if not any(dirty[a] for a in args):
                continue
            dirty[i] = 1
            value, used = estimate(entry)
            base[i] = work[i] = value
            if used:
                flagged.add(i)
            else:
                flagged.discard(i)
        return self._finish(resolved, flagged)

    def joining_points_of(self, gate_name: str) -> List[str]:
        """The (depth-bounded) joining points of a gate's input tuple."""
        i = self.compiled.index[gate_name]
        names = self.compiled.names
        return [names[x] for x in self._joining_points(i)]

    # -- core ------------------------------------------------------------------------

    def _finish(
        self, resolved: Dict[str, float], conditioned: Iterable[int]
    ) -> SignalProbabilities:
        """Translate the pass back to names and flush its work counts."""
        conditional = self._conditional
        _WORK.labels(kind="influence").inc(conditional.influence_evals)
        _WORK.labels(kind="cone_elems").inc(conditional.cone_elems)
        names = self.compiled.names
        return SignalProbabilities(
            dict(zip(names, conditional.base)),
            resolved,
            frozenset(names[i] for i in conditioned),
        )

    def _joining_points(self, i: int) -> Tuple[int, ...]:
        """The joining points ``V`` of gate ``i``'s inputs (paper Fig. 2).

        A node with at least two fan-out pins that lies in the
        MAXLIST-bounded fan-in of at least two of the gate's pins —
        counted per pin, so a gate fed twice from one signal makes that
        signal its own joining point.  Ascending id: topological order.
        """
        joining = self._joining.get(i)
        if joining is None:
            region = self._conditional.region
            seen: FrozenSet[int] = frozenset()
            twice: FrozenSet[int] = frozenset()
            for a in self.compiled.args_of[i]:
                members = region(a)
                twice |= seen & members
                seen |= members
            joining = tuple(sorted(twice & self._stems))
            self._joining[i] = joining
        return joining

    def _gate_probability(self, entry: tuple) -> Tuple[float, bool]:
        """Estimate one gate's output probability (cases 2-4)."""
        i, fn, args, table = entry
        base = self._conditional.base
        if len(args) < 2 or self.params.maxvers == 0:
            return fn(base, args, table), False
        profiler = self._conditional.profiler
        if profiler is not None:
            return self._profiled_gate_probability(entry, profiler)
        selected = self._select_conditioning_set(i, args)
        if not selected:
            return fn(base, args, table), False
        return self._conditioned_probability(entry, selected), True

    def _profiled_gate_probability(
        self, entry: tuple, profiler
    ) -> Tuple[float, bool]:
        """:meth:`_gate_probability` with ``estimator.select`` and
        ``estimator.condition`` phases.  Selection time is recorded net
        of the ``estimator.influence`` phases it calls, which stay direct
        children of the enclosing stage."""
        i, fn, args, table = entry
        conditional = self._conditional
        started = perf_counter()
        nested = conditional.influence_s
        selected = self._select_conditioning_set(i, args)
        profiler.add(
            "estimator.select",
            perf_counter() - started - (conditional.influence_s - nested),
        )
        if not selected:
            return fn(conditional.base, args, table), False
        with profiler.phase("estimator.condition"):
            value = self._conditioned_probability(entry, selected)
        return value, True

    def _select_conditioning_set(
        self, i: int, args: Tuple[int, ...]
    ) -> List[int]:
        """Rank joining points by the paper's covariance score, keep MAXVERS.

        score(x) = sum over input pairs (i, j) of
                   |Cov(a_i, x) * Cov(a_j, x)| / S(x)^2
                 = Var(x) * sum |influence_i(x) * influence_j(x)|

        Ties are broken by node name, so the choice does not depend on
        the compiled numbering.
        """
        candidates = self._joining_points(i)
        if not candidates:
            return []
        params = self.params
        if len(candidates) > params.candidate_cap:
            # Keep the topologically closest joining points.
            candidates = candidates[-params.candidate_cap :]
        distinct_inputs = tuple(dict.fromkeys(args))
        base = self._conditional.base
        influence = self._conditional.influence
        names = self.compiled.names
        scored: List[Tuple[float, str, int]] = []
        for x in candidates:
            variance = base[x] * (1.0 - base[x])
            if variance <= 0.0:
                continue  # a constant node cannot carry correlation
            if len(distinct_inputs) == 1:
                # Gate fed twice from one signal: full self-correlation.
                score = variance * abs(influence(distinct_inputs[0], x))
            else:
                influences = [influence(a, x) for a in distinct_inputs]
                score = 0.0
                for j in range(len(influences)):
                    for k in range(j + 1, len(influences)):
                        score += abs(influences[j] * influences[k])
                score *= variance
            scored.append((-score, names[x], x))
        scored.sort()
        selected = [x for neg_score, _name, x in scored if neg_score < 0.0]
        if len(selected) < params.maxvers:
            # Zero first-order covariance does not imply independence (an
            # XOR pair is the classic counterexample), so fill the unused
            # slots with the topologically closest remaining candidates:
            # conditioning on a truly independent node is harmless, while
            # joint (higher-order) correlation gets captured.
            chosen = set(selected)
            for x in reversed(candidates):
                if x not in chosen and base[x] * (1.0 - base[x]) > 0.0:
                    selected.append(x)
                    chosen.add(x)
                if len(selected) >= params.maxvers:
                    break
        return selected[: params.maxvers]

    def _conditioned_probability(
        self, entry: tuple, selected: Sequence[int]
    ) -> float:
        """Formula (2): sum over assignments of the conditioning set.

        The assignment probabilities ``P(A_v)`` are expanded with the Bayes
        chain over the topologically ordered conditioning nodes; shared
        prefixes are evaluated once by the depth-first recursion.
        """
        _i, fn, args, table = entry
        order = sorted(selected)
        depth = len(order)
        # A leaf applies the gate's float op to its conditioned operands.
        positions = tuple(range(len(args)))
        probability = self._conditional.probability
        conditions: Dict[int, float] = {}

        def descend(index: int, weight: float) -> float:
            if weight <= 0.0:
                return 0.0
            if index == depth:
                operands = [probability(a, conditions) for a in args]
                return weight * fn(operands, positions, table)
            node = order[index]
            p_one = probability(node, conditions)
            p_one = min(max(p_one, 0.0), 1.0)
            acc = 0.0
            for value, branch_weight in ((1.0, p_one), (0.0, 1.0 - p_one)):
                if branch_weight <= 0.0:
                    continue
                conditions[node] = value
                acc += descend(index + 1, weight * branch_weight)
                del conditions[node]
            return acc

        # Guard against accumulated float error.
        return min(max(descend(0, 1.0), 0.0), 1.0)
