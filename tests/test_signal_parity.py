"""Exact parity of the signal-probability estimator with its reference.

The library estimator runs on compiled node ids (flat arrays, kernel
cone scans, undo-log replays); ``signal_reference.py`` walks the netlist
by name.  They must agree with ``==`` — every signal probability, the
set of conditioned gates, and (``test_work_counters_*``) the work they
count — on every library circuit, on random DAGs with LUTs and
duplicated pins, across a grid of estimator parameters, and for
incremental ``update()``.  Detection probabilities are compared too,
except on s15850 and mul24, where only the signal stage is checked to
keep this file seconds-scale.
"""

from __future__ import annotations

import random

import pytest

from signal_reference import ReferenceSignalEstimator, ReferenceTopology

from repro.api import AnalysisEngine
from repro.circuit import CircuitBuilder
from repro.circuits.generators import random_dag
from repro.circuits.library import build, names
from repro.detection.estimator import DetectionProbabilityEstimator
from repro.probability.estimator import (
    EstimatorParams,
    SignalProbabilityEstimator,
)
from repro.telemetry.metrics import REGISTRY

SIGNAL_ONLY = ("s15850", "mul24")

GRID_CIRCUITS = ("c17", "alu", "c432", "mult4", "div8x4")


def grid_inputs(circuit, seed):
    """Seeded input probabilities on the 1/16 grid in [1/16, 15/16]."""
    rng = random.Random(seed)
    return {name: rng.randint(1, 15) / 16 for name in circuit.inputs}


def assert_signal_parity(circuit, params, probs):
    got = SignalProbabilityEstimator(circuit, params).run(probs)
    want, conditioned = ReferenceSignalEstimator(circuit, params).run(probs)
    mismatched = [n for n in circuit.nodes if got[n] != want[n]]
    assert not mismatched, mismatched[:5]
    assert got.conditioned_nodes == conditioned
    assert got.conditioned_gates == len(conditioned)
    return want


@pytest.mark.parametrize("name", sorted(names()))
def test_library_parity(name):
    circuit = build(name)
    probs = grid_inputs(circuit, seed=len(name))
    if name in SIGNAL_ONLY:
        assert_signal_parity(circuit, EstimatorParams(), probs)
        return
    engine = AnalysisEngine(circuit, "paper")
    params = engine.config.estimator_params()
    want, conditioned = ReferenceSignalEstimator(circuit, params).run(probs)
    got = engine.raw_signal_probabilities(probs)
    assert dict(got) == want
    assert got.conditioned_nodes == conditioned
    # Downstream stages fed with the reference's estimates agree exactly.
    detector = DetectionProbabilityEstimator(
        circuit, params, engine.config.stem_model, engine.config.pin_model
    )
    observabilities = detector.observability_analyzer.run(want)
    reference = detector.run_with(want, observabilities, engine.faults)
    assert engine.raw_detection_probabilities(probs) == reference


@pytest.mark.parametrize("seed", range(8))
def test_random_dag_parity(seed):
    # rng.choice over earlier nodes repeats operands, so these DAGs carry
    # duplicated-pin gates next to LUTs of every arity.
    circuit = random_dag(7, 60, seed=seed, lut_fraction=0.25)
    duplicated = [
        g for g in circuit.gates.values()
        if len(set(g.inputs)) < len(g.inputs)
    ]
    if seed == 0:
        assert duplicated
    for input_seed in range(3):
        assert_signal_parity(
            circuit, EstimatorParams(), grid_inputs(circuit, input_seed)
        )


@pytest.mark.parametrize("maxvers", [0, 1, 3, 5])
@pytest.mark.parametrize("maxlist", [1, 2, 8])
@pytest.mark.parametrize("candidate_cap", [1, 10])
def test_parameter_grid_parity(maxvers, maxlist, candidate_cap):
    params = EstimatorParams(maxvers, maxlist, candidate_cap)
    for name in GRID_CIRCUITS:
        circuit = build(name)
        assert_signal_parity(circuit, params, grid_inputs(circuit, maxvers))
    circuit = random_dag(6, 50, seed=maxlist, lut_fraction=0.2)
    assert_signal_parity(circuit, params, grid_inputs(circuit, candidate_cap))


@pytest.mark.parametrize("name", ["c17", "alu", "c432", "comp"])
def test_update_matches_fresh_run_and_reference(name):
    circuit = build(name)
    estimator = SignalProbabilityEstimator(circuit)
    reference = ReferenceSignalEstimator(circuit)
    previous = estimator.run(grid_inputs(circuit, 0))
    ref_probs, ref_conditioned = reference.run(grid_inputs(circuit, 0))
    rng = random.Random(name)
    for step in range(4):
        probs = dict(previous.input_probs)
        for input_name in rng.sample(circuit.inputs, min(3, len(probs))):
            probs[input_name] = rng.randint(0, 16) / 16
        updated = estimator.update(previous, probs)
        fresh = SignalProbabilityEstimator(circuit).run(probs)
        ref_probs, ref_conditioned = reference.update(
            ref_probs, ref_conditioned, probs
        )
        assert dict(updated) == dict(fresh) == ref_probs, step
        assert updated.conditioned_nodes == fresh.conditioned_nodes
        assert updated.conditioned_nodes == ref_conditioned
        previous = updated


@pytest.mark.parametrize("name", ["c17", "c432", "mult4", "comp"])
def test_joining_points_match_reference(name):
    circuit = build(name)
    params = EstimatorParams()
    estimator = SignalProbabilityEstimator(circuit, params)
    topology = ReferenceTopology(circuit)
    for gate in circuit.gates.values():
        assert estimator.joining_points_of(gate.name) == \
            topology.joining_points(gate.inputs, params.maxlist), gate.name


# -- hand-built structures the library circuits may not pin down -------------


INPUT_SPECS = (0.5, 0.25, 0.75)


def test_cone_stays_inside_the_region():
    """A node of the target's region that the condition reaches only by
    leaving the region keeps its base estimate: the cone is *not*
    TFO ∩ region.  At MAXLIST 2, region(e) holds d3 but not d1, and d3's
    base estimate is conditioned (it reconverges on d1), so re-evaluating
    it by the tree rule would move P(e | x)."""
    b = CircuitBuilder("detour")
    x, y, u = b.inputs("x", "y", "u")
    d1 = b.or_("d1", x, u)
    d3 = b.and_("d3", b.not_("d2a", d1), b.buf("d2b", d1))
    e = b.or_("e", d3, b.and_("a", x, y))
    b.output(b.and_("g", e, b.or_("c", x, u)))
    circuit = b.build()
    for maxlist in (1, 2, 3, 8):
        params = EstimatorParams(maxvers=3, maxlist=maxlist)
        for probs in INPUT_SPECS:
            assert_signal_parity(circuit, params, probs)


def test_conditions_outside_the_region_stay_pinned():
    """Every condition is pinned, not only those inside the target's
    region.  At MAXLIST 2, g conditions on {x1, x2}; region(t) holds x2
    and n = AND(x2, x1) but not x1, so the cone replay for t must read
    the pinned x1 through n."""
    b = CircuitBuilder("outside")
    x1, x2, r, w = b.inputs("x1", "x2", "r", "w")
    n = b.and_("n", x2, x1)
    t = b.and_("t", b.or_("p", x2, r), b.not_("q", n))
    b.output(b.and_("g", t, b.or_("s1", x1, x2), b.nand("s2", x1, w)))
    circuit = b.build()
    for maxlist in (1, 2, 3, 8):
        params = EstimatorParams(maxvers=3, maxlist=maxlist)
        for probs in INPUT_SPECS:
            assert_signal_parity(circuit, params, probs)


@pytest.mark.parametrize("seed", [18, 19, 98])
def test_selection_ties_break_by_name(seed):
    """At p = 1/2 these DAGs have gates whose top candidates score
    exactly alike, and their names ("g10" < "g9") do not sort like their
    compiled ids: MAXVERS 1 keeps the name-first one."""
    circuit = random_dag(6, 30, seed=seed)
    assert_signal_parity(circuit, EstimatorParams(maxvers=1), 0.5)


# -- work counters -------------------------------------------------------------


def _work_counts():
    counter = REGISTRY.counter(
        "protest_estimator_work_total", labelnames=("kind",)
    )
    return tuple(
        counter.labels(kind=kind).value for kind in ("influence", "cone_elems")
    )


#: Measured per-pass work at the paper setting (seeded grid inputs); a
#: rise beyond these is an algorithmic regression on any machine.
WORK_BOUNDS = {"comp": (824, 7298), "c7552": (2004, 16637)}


@pytest.mark.parametrize("name", sorted(WORK_BOUNDS))
def test_work_counters_match_reference(name):
    circuit = build(name)
    probs = grid_inputs(circuit, seed=1)
    before = _work_counts()
    SignalProbabilityEstimator(circuit).run(probs)
    after = _work_counts()
    influence, cone_elems = (b - a for a, b in zip(before, after))
    reference = ReferenceSignalEstimator(circuit)
    reference.run(probs)
    assert influence == reference.influence_evals
    assert cone_elems == reference.cone_elems
    max_influence, max_cone_elems = WORK_BOUNDS[name]
    assert influence <= max_influence
    assert cone_elems <= max_cone_elems
