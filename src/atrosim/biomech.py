"""Growth decomposition, Neo-Hookean strain energy, and the total loss.

The deformation gradient F = I + grad(u) is split multiplicatively into a
prescribed isotropic growth G and an elastic part F_K = F . G^-1. The elastic
part is penalized with a compressible Neo-Hookean energy
    W = (mu/2) [Tr(F_K F_K^T) J^(-alpha) - beta] + (K/2) (J - 1)^2,
with J = det(F_K) and K = bulk_ratio * mu. The total objective adds quadratic
penalties keeping the background still and pinning the brain's center of mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    InvertedElement,
    NonPositiveAtrophy,
    ShapeMismatch,
    SingularGrowth,
)
from .fields import (
    BRAIN_LABELS,
    CSF,
    DisplacementField,
    LabelField,
    ScalarField,
    TensorField,
)

J_FLOOR = 1e-6  # below this, a material pixel counts as inverted
G_FLOOR = 1e-12

CONVENTION_PAPER = "paper"        # G = a^(-1/2) I (inverse reading of a)
CONVENTION_JACOBIAN = "jacobian"  # G = a^(+1/2) I, so det(G) = a


@dataclass
class EnergyParams:
    """Material constants and penalty weights of the objective.

    Defaults follow the 2D setting: alpha=1, beta=2, K = 100 mu, mu = 1 for
    tissue and 0.01 for quasi-free CSF, lambda1 = 1e-1, lambda2 = 1e2.
    """

    alpha: float = 1.0
    beta: float = 2.0
    bulk_ratio: float = 100.0
    mu_tissue: float = 1.0
    mu_csf: float = 0.01
    lambda1: float = 0.1
    lambda2: float = 100.0
    convention: str = CONVENTION_JACOBIAN

    def __post_init__(self):
        if not (np.isclose(self.alpha, 1.0) and np.isclose(self.beta, 2.0)):
            raise InvalidSpec(
                f"exponents (alpha, beta) must be (1, 2) on a 2D grid, "
                f"got ({self.alpha}, {self.beta})")
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


def growth_tensor(a: ScalarField, params: EnergyParams) -> TensorField:
    g = growth_scale(a, params)
    m = np.zeros(a.shape + (2, 2))
    m[..., 0, 0] = g
    m[..., 1, 1] = g
    return TensorField(m)


def elastic_gradient(F: TensorField, G: TensorField) -> TensorField:
    """F_K = F . G^-1 for isotropic diagonal G."""
    if F.shape != G.shape:
        raise ShapeMismatch("F and G dimensions differ")
    g00 = G.m[..., 0, 0]
    g11 = G.m[..., 1, 1]
    if np.any(g00 <= G_FLOOR) or np.any(g11 <= G_FLOOR):
        raise SingularGrowth("growth tensor has a near-zero diagonal entry")
    fk = np.empty_like(F.m)
    fk[..., :, 0] = F.m[..., :, 0] / g00[..., None]
    fk[..., :, 1] = F.m[..., :, 1] / g11[..., None]
    return TensorField(fk)


def _energy_density_values(fk: np.ndarray, mu: np.ndarray,
                           params: EnergyParams) -> np.ndarray:
    material = mu > 0.0
    jac = fk[..., 0, 0] * fk[..., 1, 1] - fk[..., 0, 1] * fk[..., 1, 0]
    if np.any(material & (jac <= J_FLOOR)):
        raise InvertedElement("det(F_K) <= 1e-6 on a material pixel")
    jac_safe = np.where(material, jac, 1.0)
    trace = np.einsum("...ij,...ij->...", fk, fk)
    kappa = params.bulk_ratio * mu
    w = 0.5 * mu * (trace * jac_safe ** (-params.alpha) - params.beta) \
        + 0.5 * kappa * (jac_safe - 1.0) ** 2
    return np.where(material, w, 0.0)


def strain_energy_density(F_K: TensorField, mu: np.ndarray,
                          params: EnergyParams) -> ScalarField:
    """Per-pixel Neo-Hookean energy; mu = 0 pixels contribute exactly zero."""
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), F_K.shape)
    return ScalarField(_energy_density_values(F_K.m, mu, params))


def total_loss(u: DisplacementField, a: ScalarField, labels: LabelField,
               params: EnergyParams) -> LossBreakdown:
    """Objective value: summed energy + weighted background and center penalties.

    This is the breakdown `gradients.loss_and_gradient` returns, so the two
    agree to the bit.
    """
    from .gradients import LossContext, loss_and_gradient  # gradients imports biomech
    return loss_and_gradient(u, LossContext.build(a, labels, params))[0]
