"""The same seed gives identical inputs; different seeds give different ones."""

import inputs
from service import base_texts


def test_probability_vector_is_seeded():
    names = [f"i{k}" for k in range(40)]
    first = inputs.probability_vector(3, "c432", names)
    assert first == inputs.probability_vector(3, "c432", names)
    assert first != inputs.probability_vector(4, "c432", names)
    assert all(0.25 <= p <= 0.75 for p in first.values())


def test_pattern_seed_and_fault_sample_are_seeded():
    assert inputs.pattern_seed(1, "fsim", "div", 0) == inputs.pattern_seed(1, "fsim", "div", 0)
    assert inputs.pattern_seed(1, "fsim", "div", 0) != inputs.pattern_seed(2, "fsim", "div", 0)
    faults = list(range(500))
    assert inputs.fault_sample(1, "t", faults, 8) == inputs.fault_sample(1, "t", faults, 8)
    assert inputs.fault_sample(1, "t", faults, 8) != inputs.fault_sample(2, "t", faults, 8)


def _requests(seed, n=60):
    stream = inputs.ServiceStream(seed, base_texts())
    return [stream.request(i) for i in range(n)]


def test_service_stream_is_seeded():
    assert _requests(5) == _requests(5)
    assert _requests(5) != _requests(6)


def test_service_stream_mix():
    texts = base_texts()
    requests = _requests(7, n=65)
    warm = len(inputs.SERVICE_BASES)
    fresh = [r for r in requests if r[2]]
    # Warm-up variants plus one fresh variant per round of three.
    assert len(fresh) == warm + (len(requests) - warm) // 3
    seen = set()
    for key, body, is_fresh in requests:
        if is_fresh:
            assert key not in seen
            seen.add(key)
            base = key.split(":")[1]
            changed = [a for a, b in zip(texts[base].splitlines(),
                                         body["bench"].splitlines()) if a != b]
            assert len(changed) == 1
        else:
            assert key in seen
    methods = {("sampled" if isinstance(body["config"], dict) else "analytic")
               for _key, body, _fresh in fresh}
    assert methods == {"analytic", "sampled"}
