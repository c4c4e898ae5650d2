"""An independent numpy forward pass for checking served outputs.

The reference reads a model's initializers and node attributes and
evaluates the graph in float64 with its own kernels.  It imports nothing
from the program's runtimes or kernel library, so a fault shared by
every variant runtime still shows as a mismatch here.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["SUPPORTED_OPS", "forward"]


def _conv(x, w, attrs):
    if attrs.get("group", 1) != 1:
        raise NotImplementedError("grouped convolution")
    if any(d != 1 for d in attrs.get("dilations", (1, 1))):
        raise NotImplementedError("dilated convolution")
    top, left, bottom, right = attrs.get("pads", (0, 0, 0, 0))
    stride_h, stride_w = attrs.get("strides", (1, 1))
    x = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    kh, kw = w.shape[2:]
    # windows: (N, C, OH, OW, KH, KW) over every stride-1 position.
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride_h, ::stride_w]
    return np.einsum("nchwij,ocij->nohw", windows, w, optimize=True)


def _batch_norm(x, scale, shift, mean, var, attrs):
    eps = attrs.get("epsilon", 1e-5)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv = scale / np.sqrt(var + eps)
    return (x - mean.reshape(shape)) * inv.reshape(shape) + shift.reshape(shape)


def _gemm(a, b, c, attrs):
    if attrs.get("transA", 0):
        a = a.T
    if attrs.get("transB", 0):
        b = b.T
    out = attrs.get("alpha", 1.0) * (a @ b)
    if c is not None:
        out = out + attrs.get("beta", 1.0) * c
    return out


def _softmax(x, attrs):
    axis = attrs.get("axis", -1)
    shifted = np.exp(x - x.max(axis=axis, keepdims=True))
    return shifted / shifted.sum(axis=axis, keepdims=True)


def _flatten(x, attrs):
    axis = attrs.get("axis", 1)
    return x.reshape(int(np.prod(x.shape[:axis], dtype=np.int64)), -1)


_OPS = {
    "Conv": lambda args, attrs: _conv(args[0], args[1], attrs)
    + (0.0 if len(args) < 3 else args[2].reshape(1, -1, 1, 1)),
    "BatchNormalization": lambda args, attrs: _batch_norm(*args, attrs),
    "Relu": lambda args, attrs: np.maximum(args[0], 0.0),
    "Add": lambda args, attrs: args[0] + args[1],
    "GlobalAveragePool": lambda args, attrs: args[0].mean(
        axis=tuple(range(2, args[0].ndim)), keepdims=True
    ),
    "Flatten": lambda args, attrs: _flatten(args[0], attrs),
    "Gemm": lambda args, attrs: _gemm(
        args[0], args[1], args[2] if len(args) > 2 else None, attrs
    ),
    "Softmax": lambda args, attrs: _softmax(args[0], attrs),
}

#: Operator types the reference evaluates.
SUPPORTED_OPS = frozenset(_OPS)


def forward(model, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate ``model`` on ``feeds`` in float64; returns its outputs.

    ``model`` is any object with ``nodes`` (each with ``op_type``,
    ``inputs``, ``outputs``, ``attrs``), ``initializers`` and
    ``outputs`` (each with ``name``); nodes must be listed in
    topological order, as the model builders emit them.
    """
    env = {name: np.asarray(value, dtype=np.float64) for name, value in feeds.items()}
    for name, value in model.initializers.items():
        env[name] = np.asarray(value, dtype=np.float64)
    for node in model.nodes:
        kernel = _OPS.get(node.op_type)
        if kernel is None:
            raise NotImplementedError(f"reference has no {node.op_type} kernel")
        args = [env[name] for name in node.inputs if name]
        env[node.outputs[0]] = kernel(args, node.attrs)
    return {spec.name: env[spec.name] for spec in model.outputs}
