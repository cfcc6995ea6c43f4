"""Evaluation protocol: atrophy realization error, image MSE, per-tissue Dice."""

from __future__ import annotations

from .biomech import CONVENTION_JACOBIAN, CONVENTION_PAPER
from .errors import EmptyMask, InvalidSpec, ShapeMismatch
from .fields import (
    DisplacementField,
    LabelField,
    ScalarField,
    deformation_gradient,
    jacobian_det,
)


def mse_atrophy(a: ScalarField, u: DisplacementField, mask: LabelField,
                masked: bool = True,
                convention: str = CONVENTION_JACOBIAN) -> float:
    """Mean squared error between the prescribed Jacobian and det(F).

    The prescribed Jacobian is det(G) of the convention `a` was solved under:
    `a` itself for the jacobian convention, 1/a for the paper convention.
    masked=True averages over brain (GM/WM/DGM) pixels only.
    """
    if not (a.shape == u.shape == mask.shape):
        raise ShapeMismatch("field dimensions differ")
    if convention == CONVENTION_JACOBIAN:
        target = a.values
    elif convention == CONVENTION_PAPER:
        target = 1.0 / a.values
    else:
        raise InvalidSpec(f"unknown convention {convention!r}")
    det = jacobian_det(deformation_gradient(u)).values
    sq = (target - det) ** 2
    if masked:
        brain = mask.brain_mask()
        if not brain.any():
            raise EmptyMask("no brain pixels to average over")
        return float(sq[brain].mean())
    return float(sq.mean())


def mse_image(x: ScalarField, y: ScalarField) -> float:
    if x.shape != y.shape:
        raise ShapeMismatch("image dimensions differ")
    return float(((x.values - y.values) ** 2).mean())


def dice(x: LabelField, y: LabelField, cls: int) -> float:
    """2|X∩Y| / (|X|+|Y|) for one tissue class; 1.0 when both sets are empty."""
    if x.shape != y.shape:
        raise ShapeMismatch("label dimensions differ")
    xm = x.labels == cls
    ym = y.labels == cls
    denom = int(xm.sum()) + int(ym.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((xm & ym).sum()) / denom
