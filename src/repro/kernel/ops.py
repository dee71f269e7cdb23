"""Dispatch tables of the compiled kernel.

Three families of per-gate evaluation functions, all operating on flat
value arrays indexed by compiled node index (no dicts, no GateType
if-chains in the hot loops):

* **packed** — bit-parallel evaluation of one gate from a full value
  array: ``fn(values, args, mask, table) -> word``;
* **packed overlay** — the same, but reading each operand from a faulty
  overlay array when its version stamp is current and from the good
  array otherwise (the fault-cone re-evaluation primitive):
  ``fn(faulty, stamp, version, good, args, mask, table) -> word``;
* **float** — the tree rule of [AgAg75] over one flat probability
  array indexed by compiled node id: ``fn(w, args, table) -> float``.
  The estimator evaluates unconditioned gates on its base estimates
  and replays conditional cones on a working copy of them (see
  :mod:`repro.probability.conditional`).

The float functions reproduce :func:`repro.circuit.types.gate_probability`
operation for operation, so every estimate is bit-identical to the tree
rule on the same operands, and the packed functions are bit-identical
to :func:`repro.circuit.types.eval_packed`.

Selection happens once at compile time via :func:`packed_op`,
:func:`overlay_op` and :func:`float_op`, which pick an arity-specialized
variant (1- and 2-input gates dominate real netlists) or the generic
fold.
"""

from __future__ import annotations

from repro.circuit.types import GateType
from repro.errors import CircuitError

__all__ = ["packed_op", "overlay_op", "float_op", "OP_CODES", "OP_INPUT"]

#: Small-integer opcode per gate type (documented order; ``OP_INPUT`` marks
#: primary-input rows in the compiled opcode array).
OP_INPUT = 0
OP_CODES = {gtype: code for code, gtype in enumerate(GateType, start=1)}


# ---------------------------------------------------------------------------
# Packed (bit-parallel) ops: fn(values, args, mask, table) -> int
# ---------------------------------------------------------------------------


def _p_and(v, args, mask, table):
    acc = mask
    for a in args:
        acc &= v[a]
    return acc


def _p_or(v, args, mask, table):
    acc = 0
    for a in args:
        acc |= v[a]
    return acc


def _p_nand(v, args, mask, table):
    acc = mask
    for a in args:
        acc &= v[a]
    return acc ^ mask


def _p_nor(v, args, mask, table):
    acc = 0
    for a in args:
        acc |= v[a]
    return (acc ^ mask) & mask


def _p_xor(v, args, mask, table):
    acc = 0
    for a in args:
        acc ^= v[a]
    return acc & mask


def _p_xnor(v, args, mask, table):
    acc = 0
    for a in args:
        acc ^= v[a]
    return (acc ^ mask) & mask


def _p_not(v, args, mask, table):
    return (v[args[0]] ^ mask) & mask


def _p_buf(v, args, mask, table):
    return v[args[0]] & mask


def _p_const0(v, args, mask, table):
    return 0


def _p_const1(v, args, mask, table):
    return mask


def _p_lut(v, args, mask, table):
    out = 0
    for minterm in range(1 << len(args)):
        if not (table >> minterm) & 1:
            continue
        term = mask
        for i, a in enumerate(args):
            if (minterm >> i) & 1:
                term &= v[a]
            else:
                term &= v[a] ^ mask
            if not term:
                break
        out |= term
    return out


def _p_and2(v, args, mask, table):
    a, b = args
    return v[a] & v[b]


def _p_or2(v, args, mask, table):
    a, b = args
    return v[a] | v[b]


def _p_nand2(v, args, mask, table):
    a, b = args
    return (v[a] & v[b]) ^ mask


def _p_nor2(v, args, mask, table):
    a, b = args
    return ((v[a] | v[b]) ^ mask) & mask


def _p_xor2(v, args, mask, table):
    a, b = args
    return (v[a] ^ v[b]) & mask


def _p_xnor2(v, args, mask, table):
    a, b = args
    return ((v[a] ^ v[b]) ^ mask) & mask


_PACKED = {
    GateType.AND: _p_and,
    GateType.OR: _p_or,
    GateType.NAND: _p_nand,
    GateType.NOR: _p_nor,
    GateType.XOR: _p_xor,
    GateType.XNOR: _p_xnor,
    GateType.NOT: _p_not,
    GateType.BUF: _p_buf,
    GateType.CONST0: _p_const0,
    GateType.CONST1: _p_const1,
    GateType.LUT: _p_lut,
}

_PACKED2 = {
    GateType.AND: _p_and2,
    GateType.OR: _p_or2,
    GateType.NAND: _p_nand2,
    GateType.NOR: _p_nor2,
    GateType.XOR: _p_xor2,
    GateType.XNOR: _p_xnor2,
}


def packed_op(gtype: GateType, arity: int):
    """The packed evaluation function for one gate, arity-specialized."""
    if arity == 2:
        fn = _PACKED2.get(gtype)
        if fn is not None:
            return fn
    try:
        return _PACKED[gtype]
    except KeyError:
        raise CircuitError(f"unknown gate type {gtype!r}") from None


# ---------------------------------------------------------------------------
# Packed overlay ops: fn(faulty, stamp, version, good, args, mask, table)
# ---------------------------------------------------------------------------


def _o_and(f, s, ver, g, args, mask, table):
    acc = mask
    for a in args:
        acc &= f[a] if s[a] == ver else g[a]
    return acc


def _o_or(f, s, ver, g, args, mask, table):
    acc = 0
    for a in args:
        acc |= f[a] if s[a] == ver else g[a]
    return acc


def _o_nand(f, s, ver, g, args, mask, table):
    acc = mask
    for a in args:
        acc &= f[a] if s[a] == ver else g[a]
    return acc ^ mask


def _o_nor(f, s, ver, g, args, mask, table):
    acc = 0
    for a in args:
        acc |= f[a] if s[a] == ver else g[a]
    return (acc ^ mask) & mask


def _o_xor(f, s, ver, g, args, mask, table):
    acc = 0
    for a in args:
        acc ^= f[a] if s[a] == ver else g[a]
    return acc & mask


def _o_xnor(f, s, ver, g, args, mask, table):
    acc = 0
    for a in args:
        acc ^= f[a] if s[a] == ver else g[a]
    return (acc ^ mask) & mask


def _o_not(f, s, ver, g, args, mask, table):
    a = args[0]
    return ((f[a] if s[a] == ver else g[a]) ^ mask) & mask


def _o_buf(f, s, ver, g, args, mask, table):
    a = args[0]
    return (f[a] if s[a] == ver else g[a]) & mask


def _o_const0(f, s, ver, g, args, mask, table):
    return 0


def _o_const1(f, s, ver, g, args, mask, table):
    return mask


def _o_lut(f, s, ver, g, args, mask, table):
    vals = [f[a] if s[a] == ver else g[a] for a in args]
    out = 0
    for minterm in range(1 << len(vals)):
        if not (table >> minterm) & 1:
            continue
        term = mask
        for i, w in enumerate(vals):
            if (minterm >> i) & 1:
                term &= w
            else:
                term &= w ^ mask
            if not term:
                break
        out |= term
    return out


def _o_and2(f, s, ver, g, args, mask, table):
    a, b = args
    return (f[a] if s[a] == ver else g[a]) & (f[b] if s[b] == ver else g[b])


def _o_or2(f, s, ver, g, args, mask, table):
    a, b = args
    return (f[a] if s[a] == ver else g[a]) | (f[b] if s[b] == ver else g[b])


def _o_nand2(f, s, ver, g, args, mask, table):
    a, b = args
    return ((f[a] if s[a] == ver else g[a])
            & (f[b] if s[b] == ver else g[b])) ^ mask


def _o_nor2(f, s, ver, g, args, mask, table):
    a, b = args
    return (((f[a] if s[a] == ver else g[a])
             | (f[b] if s[b] == ver else g[b])) ^ mask) & mask


def _o_xor2(f, s, ver, g, args, mask, table):
    a, b = args
    return ((f[a] if s[a] == ver else g[a])
            ^ (f[b] if s[b] == ver else g[b])) & mask


def _o_xnor2(f, s, ver, g, args, mask, table):
    a, b = args
    return (((f[a] if s[a] == ver else g[a])
             ^ (f[b] if s[b] == ver else g[b])) ^ mask) & mask


_OVERLAY = {
    GateType.AND: _o_and,
    GateType.OR: _o_or,
    GateType.NAND: _o_nand,
    GateType.NOR: _o_nor,
    GateType.XOR: _o_xor,
    GateType.XNOR: _o_xnor,
    GateType.NOT: _o_not,
    GateType.BUF: _o_buf,
    GateType.CONST0: _o_const0,
    GateType.CONST1: _o_const1,
    GateType.LUT: _o_lut,
}

_OVERLAY2 = {
    GateType.AND: _o_and2,
    GateType.OR: _o_or2,
    GateType.NAND: _o_nand2,
    GateType.NOR: _o_nor2,
    GateType.XOR: _o_xor2,
    GateType.XNOR: _o_xnor2,
}


def overlay_op(gtype: GateType, arity: int):
    """The packed overlay function for one gate, arity-specialized."""
    if arity == 2:
        fn = _OVERLAY2.get(gtype)
        if fn is not None:
            return fn
    try:
        return _OVERLAY[gtype]
    except KeyError:
        raise CircuitError(f"unknown gate type {gtype!r}") from None


# ---------------------------------------------------------------------------
# Float ops (tree rule): fn(w, args, table) -> float
#
# Each function performs *exactly* the arithmetic of gate_probability on
# the operand probabilities ``w[a] for a in args`` (the 2-input variants
# unroll the same fold), so conditional cone replays are bit-identical
# to the tree rule applied to the same operands.
# ---------------------------------------------------------------------------


def _f_and(w, args, table):
    acc = 1.0
    for a in args:
        acc *= w[a]
    return acc


def _f_or(w, args, table):
    acc = 1.0
    for a in args:
        acc *= 1.0 - w[a]
    return 1.0 - acc


def _f_nand(w, args, table):
    acc = 1.0
    for a in args:
        acc *= w[a]
    return 1.0 - acc


def _f_nor(w, args, table):
    acc = 1.0
    for a in args:
        acc *= 1.0 - w[a]
    return acc


def _f_xor(w, args, table):
    acc = 0.0
    for a in args:
        p = w[a]
        acc = acc + p - 2.0 * acc * p
    return acc


def _f_xnor(w, args, table):
    acc = 0.0
    for a in args:
        p = w[a]
        acc = acc + p - 2.0 * acc * p
    return 1.0 - acc


def _f_not(w, args, table):
    return 1.0 - w[args[0]]


def _f_buf(w, args, table):
    return w[args[0]]


def _f_const0(w, args, table):
    return 0.0


def _f_const1(w, args, table):
    return 1.0


def _f_lut(w, args, table):
    probs = [w[a] for a in args]
    n = len(probs)
    total = 0.0
    for minterm in range(1 << n):
        if not (table >> minterm) & 1:
            continue
        weight = 1.0
        for i in range(n):
            weight *= probs[i] if (minterm >> i) & 1 else 1.0 - probs[i]
        total += weight
    return total


def _f_and2(w, args, table):
    a, b = args
    return w[a] * w[b]


def _f_or2(w, args, table):
    a, b = args
    return 1.0 - (1.0 - w[a]) * (1.0 - w[b])


def _f_nand2(w, args, table):
    a, b = args
    return 1.0 - w[a] * w[b]


def _f_nor2(w, args, table):
    a, b = args
    return (1.0 - w[a]) * (1.0 - w[b])


def _f_xor2(w, args, table):
    a, b = args
    p, q = w[a], w[b]
    return p + q - 2.0 * p * q


def _f_xnor2(w, args, table):
    a, b = args
    p, q = w[a], w[b]
    return 1.0 - (p + q - 2.0 * p * q)


_FLOAT = {
    GateType.AND: _f_and,
    GateType.OR: _f_or,
    GateType.NAND: _f_nand,
    GateType.NOR: _f_nor,
    GateType.XOR: _f_xor,
    GateType.XNOR: _f_xnor,
    GateType.NOT: _f_not,
    GateType.BUF: _f_buf,
    GateType.CONST0: _f_const0,
    GateType.CONST1: _f_const1,
    GateType.LUT: _f_lut,
}

_FLOAT2 = {
    GateType.AND: _f_and2,
    GateType.OR: _f_or2,
    GateType.NAND: _f_nand2,
    GateType.NOR: _f_nor2,
    GateType.XOR: _f_xor2,
    GateType.XNOR: _f_xnor2,
}


def float_op(gtype: GateType, arity: int):
    """The tree-rule function for one gate, arity-specialized."""
    if arity == 2:
        fn = _FLOAT2.get(gtype)
        if fn is not None:
            return fn
    try:
        return _FLOAT[gtype]
    except KeyError:
        raise CircuitError(f"unknown gate type {gtype!r}") from None
