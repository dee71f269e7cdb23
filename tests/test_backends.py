"""The backend registry, selection rules and the compile-cache seam.

Cross-backend *numerical* parity lives in ``test_kernel_parity.py``
(the numpy backend must be bit-identical to the python one); this file
covers the subsystem mechanics: registration and generations, auto
selection, graceful degradation when numpy is missing, per-backend
compile-cache keying (a compiled artifact can never outlive the backend
registration it was compiled for), and the engine/provenance plumbing.
"""

from __future__ import annotations

import pytest

from repro.api import AnalysisEngine, ProtestConfig
from repro.backends import (
    AUTO_BACKEND,
    NUMPY_AUTO_MIN_BLOCK_BITS,
    NUMPY_AUTO_MIN_GATES,
    EvalBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    backend_identity,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.backends import base as backends_base
from repro.circuits.library import build
from repro.errors import BackendError, EstimationError
from repro.kernel import compile_circuit
from repro.sampling.montecarlo import MonteCarloEstimator

numpy_available = get_backend("numpy").is_available()
needs_numpy = pytest.mark.skipif(not numpy_available, reason="numpy not installed")


# -- registry ------------------------------------------------------------------


def test_builtin_backends_registered():
    assert "python" in registered_backends()
    assert "numpy" in registered_backends()
    assert "python" in available_backends()
    assert isinstance(get_backend("python"), PythonBackend)
    assert isinstance(get_backend("numpy"), NumpyBackend)


def test_capability_contracts():
    python = get_backend("python")
    assert {"simulate", "fault_sim", "sample"} <= python.capabilities()
    assert "overrides" in python.capabilities()
    numpy = get_backend("numpy")
    assert {"simulate", "fault_sim", "sample", "vectorized"} <= \
        numpy.capabilities()


def test_unknown_backend_raises():
    with pytest.raises(BackendError):
        get_backend("cuda")
    with pytest.raises(BackendError):
        resolve_backend("cuda")


def test_duplicate_registration_requires_replace():
    with pytest.raises(BackendError):
        register_backend(PythonBackend())


def test_auto_name_is_reserved():
    class Weird(PythonBackend):
        name = AUTO_BACKEND

    with pytest.raises(BackendError):
        register_backend(Weird())


class _ThirdParty(PythonBackend):
    """A third-party engine: subclass, new name, plain registration."""

    name = "third-party-test"


def test_third_party_registration_and_selection():
    backend = _ThirdParty()
    register_backend(backend)
    try:
        assert "third-party-test" in registered_backends()
        assert resolve_backend("third-party-test") is backend
        circuit = build("c17")
        engine = AnalysisEngine(
            circuit, ProtestConfig(backend="third-party-test")
        )
        assert engine.backend_name == "third-party-test"
        # Analytic stages run on the python kernel and say so; the
        # packed-pattern stages record the third-party engine.
        report = engine.analyze()
        assert report.provenance.backend == "python"
        sim = engine.fault_simulate(engine.generate_patterns(32))
        assert sim.provenance.backend == "third-party-test"
    finally:
        backends_base._REGISTRY.pop("third-party-test", None)


# -- auto selection ------------------------------------------------------------


def test_resolve_none_is_python():
    assert resolve_backend(None).name == "python"


def test_resolve_instance_passes_through():
    backend = get_backend("python")
    assert resolve_backend(backend) is backend


def test_auto_small_circuit_is_python():
    assert resolve_backend(AUTO_BACKEND, build("c17")).name == "python"


@needs_numpy
def test_auto_large_circuit_is_numpy():
    circuit = build("mul16")
    assert circuit.n_gates >= NUMPY_AUTO_MIN_GATES
    assert resolve_backend(AUTO_BACKEND, circuit).name == "numpy"


def test_auto_without_circuit_is_python():
    assert resolve_backend(AUTO_BACKEND, None).name == "python"


@needs_numpy
def test_auto_is_workload_aware():
    """Narrow blocks stay on python even for large circuits: the word
    engine only wins when the pattern axis amortizes its call overhead."""
    circuit = build("mul16")
    narrow = resolve_backend(AUTO_BACKEND, circuit, block_bits=1024)
    wide = resolve_backend(
        AUTO_BACKEND, circuit, block_bits=NUMPY_AUTO_MIN_BLOCK_BITS
    )
    assert narrow.name == "python"
    assert wide.name == "numpy"


@needs_numpy
def test_auto_sampler_keeps_python_at_default_blocks():
    """The tracked Monte-Carlo workload (1024-pattern blocks) must not
    regress to the numpy engine under backend='auto'."""
    from repro.sampling.montecarlo import MonteCarloEstimator, SamplingPlan

    circuit = build("mul16")
    default_blocks = MonteCarloEstimator(
        circuit, plan=SamplingPlan(max_patterns=1024), backend="auto"
    )
    assert default_blocks.backend_name == "python"
    wide_blocks = MonteCarloEstimator(
        circuit,
        plan=SamplingPlan(
            max_patterns=NUMPY_AUTO_MIN_BLOCK_BITS,
            block_size=NUMPY_AUTO_MIN_BLOCK_BITS,
        ),
        backend="auto",
    )
    assert wide_blocks.backend_name == "numpy"


def test_auto_degrades_when_numpy_missing(monkeypatch):
    numpy = get_backend("numpy")
    monkeypatch.setattr(type(numpy), "is_available", lambda self: False)
    assert resolve_backend(AUTO_BACKEND, build("mul16")).name == "python"
    # ... but asking for it by name is an explicit error with a hint.
    with pytest.raises(BackendError, match="not available"):
        resolve_backend("numpy")


# -- compile-cache keying (the stale-dispatch fix) -----------------------------


def test_compile_cache_shared_per_backend():
    circuit = build("alu")
    default = compile_circuit(circuit)
    assert compile_circuit(circuit) is default
    assert compile_circuit(circuit, get_backend("python")) is default
    other = compile_circuit(circuit, get_backend("numpy"))
    assert other is not default
    assert compile_circuit(circuit, "numpy") is other


def test_replacing_a_backend_invalidates_its_compiled_artifacts():
    circuit = build("comp8")
    stale = compile_circuit(circuit)  # keyed on the current python identity
    old_identity = backend_identity(None)
    replacement = register_backend(PythonBackend(), replace=True)
    try:
        assert backend_identity(None) != old_identity
        fresh = compile_circuit(circuit)
        # The replacement can never be served the artifact compiled for
        # its predecessor: the cache key includes the generation.
        assert fresh is not stale
        assert compile_circuit(circuit, replacement) is fresh
    finally:
        register_backend(PythonBackend(), replace=True)


def test_backend_identity_tracks_generation():
    first = backend_identity("python")
    register_backend(PythonBackend(), replace=True)
    try:
        second = backend_identity("python")
        assert first != second
        assert second.startswith("python#")
    finally:
        register_backend(PythonBackend(), replace=True)


# -- engine / config / provenance plumbing -------------------------------------


def test_config_backend_knob_validation():
    assert ProtestConfig().backend == "auto"
    assert ProtestConfig(backend="python").backend == "python"
    with pytest.raises(EstimationError):
        ProtestConfig(backend="")
    with pytest.raises(EstimationError):
        ProtestConfig(backend=7)


def test_config_backend_changes_hash():
    assert ProtestConfig(backend="python").config_hash != \
        ProtestConfig(backend="numpy").config_hash


def test_engine_resolves_and_reports_backend():
    engine = AnalysisEngine("c17", ProtestConfig(backend="python"))
    assert engine.backend_name == "python"
    assert engine.cache_info()["backend"] == "python"
    report = engine.analyze()
    assert report.provenance.backend == "python"
    round_tripped = type(report).from_dict(report.to_dict())
    assert round_tripped.provenance.backend == "python"


def test_engine_unknown_backend_fails_fast():
    # The config itself stays lazy (third-party backends may register
    # later), but engine construction resolves the name and raises.
    with pytest.raises(BackendError):
        AnalysisEngine("c17", ProtestConfig(backend="not-a-backend"))


@needs_numpy
def test_numpy_engine_end_to_end_matches_python():
    python_engine = AnalysisEngine("alu", ProtestConfig(backend="python"))
    numpy_engine = AnalysisEngine("alu", ProtestConfig(backend="numpy"))
    assert numpy_engine.backend_name == "numpy"
    patterns = python_engine.generate_patterns(96)
    py = python_engine.fault_simulate(patterns, drop_detected=False)
    np_ = numpy_engine.fault_simulate(patterns, drop_detected=False)
    assert py.coverage == np_.coverage
    assert py.curve == np_.curve
    assert np_.provenance.backend == "numpy"


# -- protocol shape ------------------------------------------------------------


def test_eval_backend_is_abstract():
    with pytest.raises(TypeError):
        EvalBackend()  # abstract methods missing
