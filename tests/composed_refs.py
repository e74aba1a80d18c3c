"""The composed tape graphs that `modem.ops.layer_norm` and
`modem.ops.silu_gate` fuse into one node each.

They are built from the tensor engine's primitives, one tape node per
operation, as the package built them before the fusion. The fused ops must
give their forward and every gradient byte for byte.
"""

from modem.tensor import ShapeError, Tensor


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-6) -> Tensor:
    """Normalize over axis 0, then the affine: 11 tape nodes."""
    if x.shape[0] < 1:
        raise ShapeError("layernorm: empty normalization axis")
    mu = x.mean(axis=0, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=0, keepdims=True)
    return xc / (var + eps).sqrt() * gamma + beta


def silu_gate(y: Tensor, z: Tensor) -> Tensor:
    """y * silu(z): a sigmoid and two products, 3 tape nodes."""
    return y * z.silu()
