"""Small convolutional encoder-decoder predicting a displacement field from an
atrophy map and one-hot tissue labels.

Architecture (per level widths in `channels`, default (16, 32, 64)):
3x3 same-padding convolutions, leaky-ReLU slope 0.2, stride-2 average-pool
downsampling, nearest-neighbor upsampling, skip connections by channel
concatenation, and a final zero-initialized 1x1 linear convolution to the two
displacement channels. Everything is float64 numpy; forward and backward are
hand-rolled so gradients are exact and runs are bit-reproducible.

The public passes take and return (B, C, H, W) batches; between the input and
output transposes the layer primitives work on channels-last (B, H, W, C)
arrays. The kernel's shape picks how a conv runs. With at most as many input
as output channels (at the default widths, the encoder), it is one im2col
patch matrix times the kernel reordered to (kh*kw*in, out), and the patch
matrix is kept for the weight gradient. With more input than output channels
(the decoder and the head), it is kh*kw GEMMs over shifted row ranges of the
flattened zero-padded input ("kn2row"), so no patch matrix is built; the
weight gradient then comes from the patch matrix of the padded output
gradient, which the input gradient needs anyway. Kernels are stored
(out, in, kh, kw), as in checkpoints.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    InvalidSpec,
    IoFailure,
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .fields import ALL_LABELS, DisplacementField, LabelField, ScalarField

LEAKY_SLOPE = 0.2
IN_CHANNELS = 6  # atrophy map + one-hot of the 5 label classes
OUT_CHANNELS = 2
DEFAULT_CHANNELS = (16, 32, 64)

CHECKPOINT_MAGIC = b"NAWT"
CHECKPOINT_VERSION = 1


def layer_shapes(in_channels: int, channels: tuple[int, ...]
                 ) -> list[tuple[int, int, int, int]]:
    """Kernel shapes (out, in, kh, kw) in declaration order."""
    shapes = []
    prev = in_channels
    for c in channels:  # encoder path, pooling between levels
        shapes.append((c, prev, 3, 3))
        prev = c
    for i in range(len(channels) - 2, -1, -1):  # decoder with skip concat
        shapes.append((channels[i], prev + channels[i], 3, 3))
        prev = channels[i]
    shapes.append((OUT_CHANNELS, prev, 1, 1))
    return shapes


@dataclass
class NetWeights:
    channels: tuple[int, ...]
    in_channels: int
    kernels: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        if not self.channels or min(self.channels) < 1:
            raise InvalidSpec(
                f"need at least one level of positive widths, got {self.channels}")
        if self.in_channels != IN_CHANNELS:
            raise ShapeMismatch(
                f"network takes {IN_CHANNELS} input channels, got {self.in_channels}")
        expected = layer_shapes(self.in_channels, self.channels)
        if len(self.kernels) != len(expected) or len(self.biases) != len(expected):
            raise ShapeMismatch("wrong number of parameter blocks")
        for k, b, shape in zip(self.kernels, self.biases, expected):
            if k.shape != shape or b.shape != (shape[0],):
                raise ShapeMismatch(
                    f"parameter block shape {k.shape}/{b.shape} does not match "
                    f"architecture {shape}")

    @property
    def levels(self) -> int:
        return len(self.channels)


def init_weights(seed: int, channels: tuple[int, ...] = DEFAULT_CHANNELS) -> NetWeights:
    """He-style init for hidden layers; the final layer starts at zero so the
    untrained network predicts u = 0."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    shapes = layer_shapes(IN_CHANNELS, channels)
    kernels, biases = [], []
    for i, shape in enumerate(shapes):
        fan_in = shape[1] * shape[2] * shape[3]
        if i == len(shapes) - 1:
            kernels.append(np.zeros(shape))
        else:
            kernels.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))
        biases.append(np.zeros(shape[0]))
    return NetWeights(channels=channels, in_channels=IN_CHANNELS,
                      kernels=kernels, biases=biases)


# ---------------------------------------------------------------------------
# Layer primitives on channels-last (B, H, W, C) batches. A 3x3 conv reads its
# input from a zero-bordered (B, H+2, W+2, C) buffer that the previous layer
# wrote into; the 1x1 head reads the last activation as it is. The backward
# pass of a conv reads what its forward pass saved: the patch matrix, or for
# a conv with more input than output channels, the padded input.
# ---------------------------------------------------------------------------

def _padded(x: np.ndarray, p: int) -> np.ndarray:
    """(B, H, W, C) -> (B, H+2p, W+2p, C) with a zero border of width p."""
    if not p:
        return x
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2 * p, w + 2 * p, c))
    xp[:, p:-p, p:-p] = x
    return xp


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """Padded (B, H+k-1, W+k-1, C) -> (B*H*W, k*k*C) patch matrix whose
    columns run over (kh, kw, c)."""
    b, hp, wp, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(b, hp - k + 1, wp - k + 1, k, k, c),
        strides=(s0, s1, s2, s1, s2, s3))
    return windows.reshape(-1, k * k * c)


def _conv_forward(xp: np.ndarray, kernel: np.ndarray, bias: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Padded input -> (B, H, W, out) pre-activation and what the backward
    pass reads: the patch matrix, or the padded input itself for a conv with
    more input than output channels."""
    out_c, in_c, k, _ = kernel.shape
    if in_c > out_c:
        return _shifted_forward(xp, kernel, bias), xp
    b, hp, wp, _ = xp.shape
    cols = _im2col(xp, k)
    y = cols @ kernel.transpose(2, 3, 1, 0).reshape(k * k * in_c, out_c)
    y += bias
    return y.reshape(b, hp - k + 1, wp - k + 1, out_c), cols


def _shifted_forward(xp: np.ndarray, kernel: np.ndarray, bias: np.ndarray
                     ) -> np.ndarray:
    """The conv as k*k GEMMs, one per tap, each over a shifted row range of
    the flattened padded input and accumulated into an output laid out on the
    padded grid. Returns a view of the output's interior; the other rows hold
    sums across the seams between image rows and images and are never read."""
    out_c, in_c, k, _ = kernel.shape
    b, hp, wp, _ = xp.shape
    p = k // 2
    x = xp.reshape(-1, in_c)
    lo, hi = p * wp + p, x.shape[0] - p * wp - p  # rows whose taps stay in x
    y = np.empty((b, hp, wp, out_c))
    acc = y.reshape(-1, out_c)[lo:hi]
    acc[...] = bias
    taps = kernel.transpose(2, 3, 1, 0)
    for i in range(k):
        for j in range(k):
            s = (i - p) * wp + (j - p)
            acc += x[lo + s:hi + s] @ taps[i, j]
    return y[:, p:hp - p, p:wp - p]


def _conv_backward(dy: np.ndarray, saved: np.ndarray, kernel: np.ndarray,
                   need_dx: bool = True
                   ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """dy: (B, H, W, out) -> dx (B, H, W, in), dkernel, dbias, from what
    `_conv_forward` saved."""
    out_c, in_c, k, _ = kernel.shape
    p = k // 2
    dy_mat = dy.reshape(-1, out_c)
    db = dy_mat.sum(axis=0)
    if in_c > out_c:
        # column (i, j, o) of the padded dy's patch matrix meets each input
        # pixel through kernel tap (k-1-i, k-1-j)
        b, hp, wp, _ = saved.shape
        x = saved[:, p:hp - p, p:wp - p].reshape(-1, in_c)
        dcols = _im2col(_padded(dy, p), k)
        dk = (x.T @ dcols).reshape(in_c, k, k, out_c)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
    else:
        dk = (saved.T @ dy_mat).reshape(k, k, in_c, out_c).transpose(3, 2, 0, 1)
        dcols = _im2col(_padded(dy, p), k) if need_dx else None
    dk = np.ascontiguousarray(dk)
    if not need_dx:
        return None, dk, db
    # input gradient = same-padding convolution of dy with the channel-swapped,
    # spatially flipped kernel (valid for odd k)
    flipped = kernel[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * out_c, in_c)
    dx = dcols @ flipped
    return dx.reshape(dy.shape[:3] + (in_c,)), dk, db


def _leaky_forward(x: np.ndarray) -> np.ndarray:
    """In place; max(x, slope*x) equals where(x > 0, x, slope*x) bit for bit."""
    return np.maximum(x, LEAKY_SLOPE * x, out=x)


def _leaky_backward(post: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """In place on dy. The post-activation has the sign of the pre-activation,
    and (post > 0) * (1 - slope) + slope is exactly 1.0 or slope."""
    dy *= (post > 0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE
    return dy


def _blocks(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) view as (B, H/2, 2, W/2, 2, C) 2x2 blocks, for any strides."""
    b, h, w, c = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(b, h // 2, 2, w // 2, 2, c),
        strides=(s0, 2 * s1, s1, 2 * s2, s2, s3))


def _pool_forward(x: np.ndarray, out: np.ndarray) -> None:
    """2x2 average of x written into out (B, H/2, W/2, C)."""
    np.sum(_blocks(x), axis=(2, 4), out=out)
    out *= 0.25


def _pool_backward(dy: np.ndarray) -> np.ndarray:
    b, h, w, c = dy.shape
    dx = np.empty((b, 2 * h, 2 * w, c))
    _blocks(dx)[...] = (0.25 * dy)[:, :, None, :, None]
    return dx


def _upsample_forward(x: np.ndarray, out: np.ndarray) -> None:
    """Nearest 2x upsampling of x written into out (B, 2H, 2W, C)."""
    _blocks(out)[...] = x[:, :, None, :, None]


def _upsample_backward(dy: np.ndarray) -> np.ndarray:
    return _blocks(dy).sum(axis=(2, 4))


# ---------------------------------------------------------------------------
# Full network
# ---------------------------------------------------------------------------

def input_planes(a: ScalarField, labels: LabelField) -> np.ndarray:
    """(IN_CHANNELS, H, W): atrophy plane plus one-hot labels."""
    if a.shape != labels.shape:
        raise ShapeMismatch("atrophy and labels dimensions differ")
    planes = np.empty((IN_CHANNELS,) + a.shape)
    planes[0] = a.values
    for cls in ALL_LABELS:
        planes[1 + cls] = labels.labels == cls
    return planes


def _check_divisible(shape: tuple[int, int], levels: int) -> None:
    div = 2 ** (levels - 1)
    if shape[0] % div or shape[1] % div:
        raise ShapeMismatch(
            f"grid {shape} must be divisible by {div} for a {levels}-level net")


def forward_batch(w: NetWeights, x: np.ndarray
                  ) -> tuple[np.ndarray, list]:
    """x: (B, in_channels, H, W) -> (B, 2, H, W) plus the backward cache.

    Activations stay channels-last between the input and output transposes.
    Pooling writes into the next encoder level's padded buffer; upsampling and
    the skip write the two channel ranges of the decoder level's buffer."""
    _check_divisible(x.shape[2:], w.levels)
    ch = w.channels
    cache = []  # per layer: (what _conv_forward saved, post-activation or None)
    dec_bufs = {}
    buf = _padded(x.transpose(0, 2, 3, 1), 1)
    layer = 0
    for lvl in range(w.levels):
        h, saved = _conv_forward(buf, w.kernels[layer], w.biases[layer])
        _leaky_forward(h)
        cache.append((saved, h))
        if lvl < w.levels - 1:
            b, hh, ww, _ = h.shape
            dec_bufs[lvl] = np.zeros((b, hh + 2, ww + 2, ch[lvl + 1] + ch[lvl]))
            dec_bufs[lvl][:, 1:-1, 1:-1, ch[lvl + 1]:] = h
            buf = np.zeros((b, hh // 2 + 2, ww // 2 + 2, ch[lvl]))
            _pool_forward(h, buf[:, 1:-1, 1:-1])
        layer += 1
    for lvl in range(w.levels - 2, -1, -1):
        buf = dec_bufs[lvl]
        _upsample_forward(h, buf[:, 1:-1, 1:-1, :ch[lvl + 1]])
        h, saved = _conv_forward(buf, w.kernels[layer], w.biases[layer])
        _leaky_forward(h)
        cache.append((saved, h))
        layer += 1
    y, saved = _conv_forward(h, w.kernels[layer], w.biases[layer])
    cache.append((saved, None))
    return y.transpose(0, 3, 1, 2), cache


def backward_batch(w: NetWeights, cache: list, dy: np.ndarray
                   ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the parameter blocks given dL/d(output) in (B, 2, H, W)."""
    n_layers = len(w.kernels)
    dks = [None] * n_layers
    dbs = [None] * n_layers

    layer = n_layers - 1
    dh, dks[layer], dbs[layer] = _conv_backward(
        np.ascontiguousarray(dy.transpose(0, 2, 3, 1)), cache[layer][0], w.kernels[layer])

    dskips = {}
    for lvl in range(0, w.levels - 1):  # decoder layers, shallowest first in cache order
        layer -= 1
        saved, post = cache[layer]
        dcat, dks[layer], dbs[layer] = _conv_backward(
            _leaky_backward(post, dh), saved, w.kernels[layer])
        up_c = w.channels[lvl + 1]
        dskips[lvl] = dcat[..., up_c:]
        dh = _upsample_backward(dcat[..., :up_c])

    for lvl in range(w.levels - 1, -1, -1):  # encoder layers, deepest first
        layer -= 1
        saved, post = cache[layer]
        if lvl < w.levels - 1:
            dh += dskips[lvl]
        dh, dks[layer], dbs[layer] = _conv_backward(
            _leaky_backward(post, dh), saved, w.kernels[layer], need_dx=lvl > 0)
        if lvl > 0:
            dh = _pool_backward(dh)
    return dks, dbs


def net_forward(w: NetWeights, a: ScalarField, labels: LabelField) -> DisplacementField:
    x = input_planes(a, labels)[None]
    y, _ = forward_batch(w, x)
    return DisplacementField(y[0, 0], y[0, 1])


def net_backward(w: NetWeights, a: ScalarField, labels: LabelField,
                 upstream: DisplacementField
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """dL/dw given dL/du from the loss gradient."""
    if upstream.shape != a.shape:
        raise ShapeMismatch("upstream gradient dimensions differ from input")
    x = input_planes(a, labels)[None]
    _, cache = forward_batch(w, x)
    dy = np.stack([upstream.ux, upstream.uy])[None]
    return backward_batch(w, cache, dy)


# ---------------------------------------------------------------------------
# Checkpoint format: magic "NAWT", u32 version, u32 level count, u32 channel
# widths, u32 input channel count, then kernel+bias blocks in declaration
# order as 64-bit little-endian reals. Round-trips bit-exactly.
# ---------------------------------------------------------------------------

def save_checkpoint(path, w: NetWeights) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, w.levels))
            fh.write(struct.pack(f"<{w.levels}I", *w.channels))
            fh.write(struct.pack("<I", w.in_channels))
            for k, b in zip(w.kernels, w.biases):
                fh.write(np.ascontiguousarray(k, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_checkpoint(path) -> NetWeights:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if data[:4] != CHECKPOINT_MAGIC:
        raise BadMagic("not a checkpoint file")
    if len(data) < 12:
        raise TruncatedPayload("checkpoint header truncated")
    version, levels = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersion(f"checkpoint version {version}")
    off = 12
    if len(data) < off + 4 * (levels + 1):
        raise TruncatedPayload("checkpoint descriptor truncated")
    channels = struct.unpack_from(f"<{levels}I", data, off)
    off += 4 * levels
    (in_channels,) = struct.unpack_from("<I", data, off)
    off += 4
    kernels, biases = [], []
    for shape in layer_shapes(in_channels, channels):
        n = int(np.prod(shape))
        for target, count, tgt_shape in ((kernels, n, shape),
                                         (biases, shape[0], (shape[0],))):
            nbytes = count * 8
            if len(data) < off + nbytes:
                raise TruncatedPayload("checkpoint payload truncated")
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=off)
            target.append(arr.astype(np.float64).reshape(tgt_shape))
            off += nbytes
    if off != len(data):
        raise TruncatedPayload("trailing bytes after checkpoint payload")
    return NetWeights(channels=tuple(channels), in_channels=in_channels,
                      kernels=kernels, biases=biases)
