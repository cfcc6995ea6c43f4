"""Growth decomposition, Neo-Hookean strain energy, and the total loss.

The deformation gradient F = I + grad(u) is split multiplicatively into a
prescribed isotropic growth G = g I and an elastic part F_K = F / g. The
elastic part is penalized with a compressible Neo-Hookean energy
    W = (mu/2) [Tr(F_K F_K^T) J^(-ALPHA) - BETA] + (K/2) (J - 1)^2,
with J = det(F_K) and K = bulk_ratio * mu. The total objective adds quadratic
penalties keeping the background still and pinning the brain's center of mass.

This module owns W: `loss_stage` evaluates the objective in the scratch planes
of a `LossContext`, and `strain_energy_density` runs the same W code on given
F_K planes. `gradients.loss_and_gradient` runs the loss stage and then its
gradient stage, which reads the planes the loss stage leaves behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, InvertedElement, NonPositiveAtrophy, ShapeMismatch
from .fields import (
    BACKGROUND,
    BRAIN_LABELS,
    CSF,
    DisplacementField,
    LabelField,
    ScalarField,
    TensorField,
    center_of_mass,
    d_dx,
    d_dy,
)

J_FLOOR = 1e-6  # below this, a material pixel counts as inverted

# The Neo-Hookean exponents of a 2D grid.
ALPHA = 1.0
BETA = 2.0

CONVENTION_PAPER = "paper"        # G = a^(-1/2) I (inverse reading of a)
CONVENTION_JACOBIAN = "jacobian"  # G = a^(+1/2) I, so det(G) = a


@dataclass
class EnergyParams:
    """Material constants and penalty weights of the objective.

    Defaults follow the 2D setting: K = 100 mu, mu = 1 for tissue and 0.01
    for quasi-free CSF, lambda1 = 1e-1, lambda2 = 1e2.
    """

    bulk_ratio: float = 100.0
    mu_tissue: float = 1.0
    mu_csf: float = 0.01
    lambda1: float = 0.1
    lambda2: float = 100.0
    convention: str = CONVENTION_JACOBIAN

    def __post_init__(self):
        if self.bulk_ratio <= 0 or self.mu_tissue <= 0 or self.mu_csf <= 0:
            raise InvalidSpec("bulk_ratio and shear moduli must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InvalidSpec("penalty weights must be non-negative")
        if self.convention not in (CONVENTION_PAPER, CONVENTION_JACOBIAN):
            raise InvalidSpec(f"unknown convention {self.convention!r}")


@dataclass
class LossBreakdown:
    """Raw components of the objective; `total` applies the lambda weights."""

    total: float
    energy: float
    background_penalty: float  # unweighted sum of |u|^2 over background
    center_penalty: float      # unweighted |u|^2 at the center-of-mass pixel


def material_map(labels: LabelField, params: EnergyParams) -> np.ndarray:
    """Per-pixel shear modulus: mu_tissue on GM/WM/DGM, mu_csf on CSF, 0 outside."""
    mu = np.zeros(labels.shape)
    mu[np.isin(labels.labels, BRAIN_LABELS)] = params.mu_tissue
    mu[labels.labels == CSF] = params.mu_csf
    return mu


def growth_scale(a: ScalarField, params: EnergyParams) -> np.ndarray:
    """Scalar g with G = g I per pixel."""
    v = a.values
    if np.any(v <= 0.0):
        raise NonPositiveAtrophy("atrophy map must be strictly positive")
    exponent = -0.5 if params.convention == CONVENTION_PAPER else 0.5
    return v ** exponent


_N_SCRATCH = 12  # float planes the kernel computes in, besides one bool plane


@dataclass
class _Moduli:
    """The per-pixel constants W and its stress multiply by, each grouped as
    the energy formula groups it, and the scratch planes the kernel computes
    in. Because of the scratch, one instance serves one evaluation at a time."""

    params: EnergyParams
    mu: np.ndarray
    material: np.ndarray = field(repr=False)           # mu > 0
    off_material: np.ndarray = field(repr=False)
    half_mu: np.ndarray = field(repr=False)            # 0.5 * mu
    kappa: np.ndarray = field(repr=False)              # bulk_ratio * mu
    half_kappa: np.ndarray = field(repr=False)         # 0.5 * kappa
    neg_half_alpha_mu: np.ndarray = field(repr=False)  # (-ALPHA * 0.5) * mu
    scratch: tuple = field(repr=False)

    @classmethod
    def of(cls, mu: np.ndarray, params: EnergyParams, **more):
        """A `cls` for the shear moduli `mu`; `more` fills a subclass's fields."""
        kappa = params.bulk_ratio * mu
        return cls(
            params=params,
            mu=mu,
            material=mu > 0.0,
            off_material=mu <= 0.0,
            half_mu=0.5 * mu,
            kappa=kappa,
            half_kappa=0.5 * kappa,
            neg_half_alpha_mu=-ALPHA * 0.5 * mu,
            scratch=tuple(np.empty(mu.shape) for _ in range(_N_SCRATCH))
                    + (np.empty(mu.shape, dtype=bool),),
            **more,
        )


@dataclass
class LossContext(_Moduli):
    """Static (u-independent) data for repeated loss/gradient evaluation: the
    moduli and scratch, and the other maps the objective is defined by."""

    g: np.ndarray
    background: np.ndarray
    center: tuple[int, int]
    bg_weight: np.ndarray = field(repr=False)  # 2 lambda1 on background, else 0

    @staticmethod
    def build(a: ScalarField, labels: LabelField,
              params: EnergyParams) -> "LossContext":
        if a.shape != labels.shape:
            raise ShapeMismatch("atrophy and labels dimensions differ")
        background = labels.labels == BACKGROUND
        return LossContext.of(
            material_map(labels, params), params,
            g=growth_scale(a, params),
            background=background,
            center=center_of_mass(labels, BRAIN_LABELS),
            bg_weight=np.where(background, 2.0 * params.lambda1, 0.0),
        )


def _energy_density(m: _Moduli, k00, k01, k10, k11) -> np.ndarray:
    """W per pixel from the F_K planes, into a scratch plane of `m`.

    It leaves J (set to 1 off material, where mu = kappa = 0 make every energy
    and stress term exactly zero), tr(F_K F_K^T), J^-ALPHA and J - 1 in their
    scratch planes. Raises InvertedElement when det(F_K) <= 1e-6 on a material
    pixel.
    """
    jac, trace, j_pow, w, jm1, _, _, tmp, flags = m.scratch[4:]
    np.multiply(k00, k11, out=jac)
    jac -= np.multiply(k01, k10, out=tmp)
    np.less_equal(jac, J_FLOOR, out=flags)
    flags &= m.material
    if flags.any():
        raise InvertedElement("det(F_K) <= 1e-6 on a material pixel")
    np.copyto(jac, 1.0, where=m.off_material)
    np.square(k00, out=trace)
    trace += np.square(k01, out=tmp)
    trace += np.square(k10, out=tmp)
    trace += np.square(k11, out=tmp)
    np.power(jac, -ALPHA, out=j_pow)
    np.subtract(jac, 1.0, out=jm1)

    # W = 0.5 mu (tr J^-a - beta) + 0.5 kappa (J - 1)^2
    np.multiply(trace, j_pow, out=w)
    w -= BETA
    w *= m.half_mu
    np.square(jm1, out=tmp)
    tmp *= m.half_kappa
    w += tmp
    return w


def loss_stage(u: DisplacementField, ctx: LossContext) -> LossBreakdown:
    """The objective at u: summed W plus the two penalties.

    It computes in the context's scratch planes, with the operations and
    grouping of the formulas in the comments, so the result is the same to the
    bit whatever the scratch held. It leaves F_K in the first four planes and
    the planes of `_energy_density` for the gradient stage. Raises
    ShapeMismatch when u is not on the context's grid and InvertedElement
    when det(F_K) <= 1e-6 on a material pixel.
    """
    if u.shape != ctx.mu.shape:
        raise ShapeMismatch(f"displacement is {u.shape}, the context is {ctx.mu.shape}")
    params = ctx.params
    g = ctx.g
    k00, k01, k10, k11 = ctx.scratch[:4]

    # F = I + grad(u); F_K = F / g
    d_dx(u.ux, out=k00)
    k00 += 1.0
    k00 /= g
    d_dy(u.ux, out=k01)
    k01 /= g
    d_dx(u.uy, out=k10)
    k10 /= g
    d_dy(u.uy, out=k11)
    k11 += 1.0
    k11 /= g
    energy = float(np.sum(_energy_density(ctx, k00, k01, k10, k11)))

    bg = ctx.background
    bg_pen = float(np.sum(u.ux[bg] ** 2) + np.sum(u.uy[bg] ** 2))
    cx, cy = ctx.center
    c_pen = float(u.ux[cy, cx] ** 2 + u.uy[cy, cx] ** 2)
    total = energy + params.lambda1 * bg_pen + params.lambda2 * c_pen
    return LossBreakdown(total=total, energy=energy,
                         background_penalty=bg_pen, center_penalty=c_pen)


def strain_energy_density(F_K: TensorField, mu: np.ndarray,
                          params: EnergyParams) -> ScalarField:
    """Per-pixel Neo-Hookean energy; mu = 0 pixels contribute exactly zero."""
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), F_K.shape)
    fk = F_K.m
    w = _energy_density(_Moduli.of(mu, params),
                        fk[..., 0, 0], fk[..., 0, 1], fk[..., 1, 0], fk[..., 1, 1])
    return ScalarField(w)


def total_loss(u: DisplacementField, a: ScalarField, labels: LabelField,
               params: EnergyParams) -> LossBreakdown:
    """Objective value: summed energy + weighted background and center penalties.

    This is the loss stage of `gradients.loss_and_gradient`, so the two agree
    to the bit.
    """
    return loss_stage(u, LossContext.build(a, labels, params))
