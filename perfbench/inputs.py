"""Seeded inputs of every workload.

The program only ever sees what these functions generate from the
``--seed`` argument: input-probability vectors, pattern-set seeds,
fault samples for the oracles, and the service's request stream.
String seeds keep the streams independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Sequence, Tuple

#: Input probabilities are drawn from the 1/16 grid that weighted random
#: pattern hardware realizes (paper §6), within [4/16, 12/16].
_GRID = 16
_LOW, _HIGH = 4, 12


def probability_vector(seed: int, circuit: str, inputs: Sequence[str]) -> Dict[str, float]:
    rng = random.Random(f"analyze:{seed}:{circuit}")
    return {name: rng.randint(_LOW, _HIGH) / _GRID for name in inputs}


def pattern_seed(seed: int, workload: str, circuit: str, index: int) -> int:
    return random.Random(f"{workload}:{seed}:{circuit}:{index}").getrandbits(62)


def fault_sample(seed: int, tag: str, faults: Sequence, k: int) -> List:
    rng = random.Random(f"sample:{seed}:{tag}")
    return rng.sample(list(faults), min(k, len(faults)))


# -- service request stream ----------------------------------------------------

#: Mid-size ISCAS circuits the service stream draws its variants from.
SERVICE_BASES = ("c880", "c1355", "c1908", "c2670", "c3540")

#: Knobs of the sampled (Monte-Carlo) jobs; ``seed`` is added per variant.
SAMPLED_CONFIG = {"method": "sampled", "fault_sample": 256, "max_patterns": 8192}

_FLIP = {"AND": "OR", "OR": "AND", "NAND": "NOR", "NOR": "NAND",
         "XOR": "XNOR", "XNOR": "XOR"}
_GATE_LINE = re.compile(r"^(\s*\S+\s*=\s*)(AND|OR|NAND|NOR|XOR|XNOR)(\s*\()")


def flippable_lines(text: str) -> List[int]:
    """Line numbers of two-level gates whose type a variant may flip."""
    return [i for i, line in enumerate(text.splitlines())
            if _GATE_LINE.match(line)]


def flip_gate(text: str, line_no: int) -> str:
    lines = text.splitlines()
    lines[line_no] = _GATE_LINE.sub(
        lambda m: m.group(1) + _FLIP[m.group(2)] + m.group(3), lines[line_no]
    )
    return "\n".join(lines) + "\n"


class ServiceStream:
    """The seeded request stream of the ``service`` workload.

    The first ``len(SERVICE_BASES)`` requests are fresh variants; after
    that every third request is a fresh variant (a design iteration: one
    gate type flipped, so a cache miss through parse) and the other two
    resubmit an earlier variant, which should hit the artifact cache.
    Variant ``k`` uses base ``k mod 5`` and alternates between analytic
    and sampled jobs in runs of five, so every seed has the same mix of
    circuits and methods; the seed picks the flipped gates, the
    resubmitted variants and the sampling seeds.
    """

    def __init__(self, seed: int, base_texts: Dict[str, str]) -> None:
        self.seed = seed
        self.texts = base_texts
        self._order = {}
        for base in SERVICE_BASES:
            lines = flippable_lines(base_texts[base])
            random.Random(f"service:{seed}:{base}").shuffle(lines)
            self._order[base] = lines
        self._variants: Dict[int, Tuple[str, dict]] = {}
        self.max_variants = len(SERVICE_BASES) * min(
            len(v) for v in self._order.values()
        )

    def variant(self, k: int) -> Tuple[str, dict]:
        """``(request key, POST /jobs body)`` of fresh variant ``k``."""
        cached = self._variants.get(k)
        if cached is not None:
            return cached
        base = SERVICE_BASES[k % len(SERVICE_BASES)]
        line = self._order[base][k // len(SERVICE_BASES)]
        body = {"bench": flip_gate(self.texts[base], line)}
        if (k // len(SERVICE_BASES)) % 2:
            config = dict(SAMPLED_CONFIG)
            config["seed"] = pattern_seed(self.seed, "service", base, k)
            body["config"] = config
        else:
            body["config"] = "paper"
        cached = (f"v{k}:{base}:{line}", body)
        self._variants[k] = cached
        return cached

    def request(self, i: int) -> Tuple[str, dict, bool]:
        """``(key, body, fresh)`` of request ``i``."""
        warm = len(SERVICE_BASES)
        if i < warm:
            return (*self.variant(i), True)
        created = warm + (i - warm) // 3 + 1
        if (i - warm) % 3 == 0:
            return (*self.variant(created - 1), True)
        rng = random.Random(f"resubmit:{self.seed}:{i}")
        # Skip the newest variant: it is most likely still in flight.
        return (*self.variant(rng.randrange(created - 1)), False)

    def __len__(self) -> int:
        warm = len(SERVICE_BASES)
        return warm + 3 * (self.max_variants - warm)
