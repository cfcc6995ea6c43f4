"""Grid containers and the finite-difference / interpolation primitives.

All fields live on a regular pixel grid with unit spacing. Arrays are
indexed [row, col] = [y, x]; a pixel coordinate pair is always (x, y).
Fields are treated as immutable after construction and every operation
here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyMask, ShapeMismatch

BACKGROUND, CSF, GM, WM, DGM = 0, 1, 2, 3, 4
ALL_LABELS = (BACKGROUND, CSF, GM, WM, DGM)
BRAIN_LABELS = (GM, WM, DGM)


def _as_grid(values, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2D grid, got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ShapeMismatch(f"grid must be at least 2x2, got {arr.shape}")
    return arr


@dataclass
class ScalarField:
    """width x height grid of float64 values (images, atrophy maps, energies)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _as_grid(self.values, np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ShapeMismatch("scalar field contains non-finite values")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class DisplacementField:
    """Per-pixel displacement u = (ux, uy) in pixel units (sampling convention)."""

    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self):
        self.ux = _as_grid(self.ux, np.float64)
        self.uy = _as_grid(self.uy, np.float64)
        if self.ux.shape != self.uy.shape:
            raise ShapeMismatch("ux and uy must share dimensions")
        if not (np.all(np.isfinite(self.ux)) and np.all(np.isfinite(self.uy))):
            raise ShapeMismatch("displacement field contains non-finite values")

    @property
    def height(self) -> int:
        return self.ux.shape[0]

    @property
    def width(self) -> int:
        return self.ux.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.ux.shape

    @staticmethod
    def zeros(height: int, width: int) -> "DisplacementField":
        return DisplacementField(np.zeros((height, width)), np.zeros((height, width)))


@dataclass
class TensorField:
    """Per-pixel 2x2 matrices, stored as an (H, W, 2, 2) array."""

    m: np.ndarray

    def __post_init__(self):
        self.m = np.ascontiguousarray(self.m, dtype=np.float64)
        if self.m.ndim != 4 or self.m.shape[2:] != (2, 2):
            raise ShapeMismatch(f"expected (H, W, 2, 2), got {self.m.shape}")
        if not np.all(np.isfinite(self.m)):
            raise ShapeMismatch("tensor field contains non-finite values")

    @property
    def height(self) -> int:
        return self.m.shape[0]

    @property
    def width(self) -> int:
        return self.m.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.m.shape[:2]

    @staticmethod
    def identity(height: int, width: int) -> "TensorField":
        m = np.zeros((height, width, 2, 2))
        m[..., 0, 0] = 1.0
        m[..., 1, 1] = 1.0
        return TensorField(m)


@dataclass
class LabelField:
    """Per-pixel tissue class: 0=background, 1=CSF, 2=GM, 3=WM, 4=DGM."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = _as_grid(self.labels, np.uint8)
        if self.labels.max(initial=0) > DGM:
            raise ShapeMismatch("labels must lie in {0,1,2,3,4}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def brain_mask(self) -> np.ndarray:
        return np.isin(self.labels, BRAIN_LABELS)


# ---------------------------------------------------------------------------
# Finite-difference stencils (unit spacing): central interior, one-sided edges.
# d_dx differentiates along columns (x), d_dy along rows (y). The adjoints are
# the exact transposes, used by the analytic backward pass. Each takes an
# optional C-contiguous `out` distinct from its input.
#
# The x stencils work on the flattened plane, where a column shift is a flat
# shift by one or two elements: one contiguous pass instead of a strided one
# per row. The terms that wrap from one row into the next only ever reach the
# two edge columns, which the one-sided formulas overwrite (d_dx) or which
# receive zeros (d_dx_adjoint). Every value is the same, to the bit, as the
# column-sliced form.
# ---------------------------------------------------------------------------

def d_dx(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    v = np.ascontiguousarray(v)
    if out is None:
        out = np.empty_like(v)
    flat, of = v.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=of[1:-1])
    np.multiply(of[1:-1], 0.5, out=of[1:-1])
    np.subtract(v[:, 1], v[:, 0], out=out[:, 0])
    np.subtract(v[:, -1], v[:, -2], out=out[:, -1])
    return out


def d_dy(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(v)
    np.subtract(v[2:, :], v[:-2, :], out=out[1:-1, :])
    np.multiply(out[1:-1, :], 0.5, out=out[1:-1, :])
    np.subtract(v[1, :], v[0, :], out=out[0, :])
    np.subtract(v[-1, :], v[-2, :], out=out[-1, :])
    return out


def d_dx_adjoint(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(w)
    half = np.multiply(w, 0.5)
    half[:, 0] = 0.0
    half[:, -1] = 0.0
    hf, of = half.reshape(-1), out.reshape(-1)
    # out[:, j] = (0 + half[:, j-1]) - half[:, j+1]; `+ 0.0` keeps the sign
    # of zero that accumulating into a zeroed plane gives.
    of[0] = 0.0
    np.add(hf[:-1], 0.0, out=of[1:])
    np.subtract(of[:-1], hf[1:], out=of[:-1])
    out[:, 0] -= w[:, 0]
    out[:, 1] += w[:, 0]
    out[:, -1] += w[:, -1]
    out[:, -2] -= w[:, -1]
    return out


def d_dy_adjoint(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(w)
    half = np.multiply(w[1:-1, :], 0.5)
    out[:2, :] = 0.0
    np.add(half, 0.0, out=out[2:, :])
    np.subtract(out[:-2, :], half, out=out[:-2, :])
    out[0, :] -= w[0, :]
    out[1, :] += w[0, :]
    out[-1, :] += w[-1, :]
    out[-2, :] -= w[-1, :]
    return out


def gradient_field(u: DisplacementField) -> TensorField:
    """Per-pixel Jacobian of u: entry (i, j) is du_i/dx_j."""
    m = np.empty((u.height, u.width, 2, 2))
    m[..., 0, 0] = d_dx(u.ux)
    m[..., 0, 1] = d_dy(u.ux)
    m[..., 1, 0] = d_dx(u.uy)
    m[..., 1, 1] = d_dy(u.uy)
    return TensorField(m)


def deformation_gradient(u: DisplacementField) -> TensorField:
    """F = I + grad(u)."""
    t = gradient_field(u)
    t.m[..., 0, 0] += 1.0
    t.m[..., 1, 1] += 1.0
    return t


def jacobian_det(t: TensorField) -> ScalarField:
    m = t.m
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return ScalarField(det)


# ---------------------------------------------------------------------------
# Sampling / warping
# ---------------------------------------------------------------------------

def _sample_coords(u: DisplacementField) -> tuple[np.ndarray, np.ndarray]:
    h, w = u.shape
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return gx + u.ux, gy + u.uy


def warp_image(img: ScalarField, u: DisplacementField) -> ScalarField:
    """Bilinear resample of img at p + u(p); samples outside the grid give 0."""
    if img.shape != u.shape:
        raise ShapeMismatch("image and displacement dimensions differ")
    h, w = img.shape
    sx, sy = _sample_coords(u)
    inside = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)

    # Clamp the base corner so x1 = x0+1 stays valid; the weight compensates.
    x0 = np.clip(np.floor(sx), 0, w - 2).astype(np.intp)
    y0 = np.clip(np.floor(sy), 0, h - 2).astype(np.intp)
    wx = np.clip(sx, 0.0, w - 1.0) - x0
    wy = np.clip(sy, 0.0, h - 1.0) - y0

    v = img.values
    v00 = v[y0, x0]
    v01 = v[y0, x0 + 1]
    v10 = v[y0 + 1, x0]
    v11 = v[y0 + 1, x0 + 1]
    top = (1.0 - wx) * v00 + wx * v01
    bot = (1.0 - wx) * v10 + wx * v11
    out = (1.0 - wy) * top + wy * bot
    return ScalarField(np.where(inside, out, 0.0))


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0.0, np.floor(v + 0.5), np.ceil(v - 0.5))


def warp_labels(labels: LabelField, u: DisplacementField) -> LabelField:
    """Nearest-neighbor resample; ties round half away from zero per axis.
    Samples outside the grid become background."""
    if labels.shape != u.shape:
        raise ShapeMismatch("labels and displacement dimensions differ")
    h, w = labels.shape
    sx, sy = _sample_coords(u)
    xi = _round_half_away(sx)
    yi = _round_half_away(sy)
    inside = (xi >= 0) & (xi <= w - 1) & (yi >= 0) & (yi <= h - 1)
    xi = np.clip(xi, 0, w - 1).astype(np.intp)
    yi = np.clip(yi, 0, h - 1).astype(np.intp)
    out = np.where(inside, labels.labels[yi, xi], np.uint8(BACKGROUND))
    return LabelField(out.astype(np.uint8))


def center_of_mass(mask: LabelField, classes: Iterable[int]) -> tuple[int, int]:
    """Mean (x, y) over pixels whose label is in `classes`, rounded to the
    nearest pixel; exact .5 ties round toward the lower index."""
    sel = np.isin(mask.labels, list(classes))
    if not sel.any():
        raise EmptyMask("no pixel carries a label in the requested classes")
    ys, xs = np.nonzero(sel)
    # ceil(v - 0.5) rounds half toward the lower index
    cx = int(np.ceil(xs.mean() - 0.5))
    cy = int(np.ceil(ys.mean() - 0.5))
    return cx, cy
