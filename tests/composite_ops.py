"""Engine primitives that only the test references use.

No model path runs these ops: the engine fuses what it needs
(``T.layer_norm``, the loss terms in ``knet.matching``).  The reference
composites in ``test_fused.py`` build the fused ops' functions from them,
one node per primitive, and ``test_tensor.py`` grad-checks each of them.
They are built on the engine's own node constructor, so they record and
walk graphs exactly as the engine's ops do.
"""

import numpy as np

from knet import tensor as T
from knet.tensor import Tensor


def sub(a: Tensor, b: Tensor) -> Tensor:
    T._check_broadcast(a.data, b.data, "sub")
    data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(T._unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(T._unbroadcast(-g, b.data.shape))

    return T._node(data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    T._check_broadcast(a.data, b.data, "div")
    data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(T._unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(T._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return T._node(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        a.accumulate_grad(-g)

    return T._node(-a.data, (a,), bw)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** p

    def bw(g):
        a.accumulate_grad(g * p * a.data ** (p - 1.0))

    return T._node(data, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bw(g):
        a.accumulate_grad(g * 0.5 / np.sqrt(a.data))

    return T._node(data, (a,), bw)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bw(g):
        a.accumulate_grad(g * data)

    return T._node(data, (a,), bw)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def bw(g):
        a.accumulate_grad(g / a.data)

    return T._node(data, (a,), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with a straight-through mask: gradient is zero where clipped."""
    data = np.clip(a.data, lo, hi)

    def bw(g):
        a.accumulate_grad(g * ((a.data >= lo) & (a.data <= hi)))

    return T._node(data, (a,), bw)
