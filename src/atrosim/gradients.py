"""Analytic gradient of the total loss w.r.t. the displacement field.

The chain is: per-pixel closed-form dW/dF_K, divided by the isotropic growth
scale to get dW/dF, then pushed through the transposed finite-difference
stencils (discrete integration by parts); the background and center penalties
contribute 2*lambda*u directly. Correctness is established against central
finite differences by `finite_diff_check`.

`loss_and_gradient` is the one evaluation of the objective: `total_loss` is
its loss part. It computes with in-place ufuncs in scratch planes held by the
`LossContext`, grouping every product as the formulas in its comments group
it; its results do not depend on what the scratch held before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biomech import (
    EnergyParams,
    J_FLOOR,
    LossBreakdown,
    growth_scale,
    material_map,
)
from .errors import InvertedElement, ShapeMismatch, SingularElastic
from .fields import (
    BACKGROUND,
    BRAIN_LABELS,
    DisplacementField,
    LabelField,
    ScalarField,
    center_of_mass,
    d_dx,
    d_dx_adjoint,
    d_dy,
    d_dy_adjoint,
)


@dataclass
class GradCheckReport:
    n_probes: int
    max_rel_error: float
    max_abs_error: float
    passed: bool


_N_SCRATCH = 12  # float planes used by loss_and_gradient, besides one bool plane


@dataclass
class LossContext:
    """Static (u-independent) data for repeated loss/gradient evaluation.

    Besides the maps the objective is defined by (mu, g, the background mask
    and the pinned centre) it holds the per-pixel constants the kernel
    multiplies by, each grouped as the energy formula groups it, and the
    scratch planes `loss_and_gradient` computes in. Because of the scratch, one
    context serves one evaluation at a time.
    """

    a: ScalarField
    labels: LabelField
    params: EnergyParams
    mu: np.ndarray
    g: np.ndarray
    background: np.ndarray
    center: tuple[int, int]
    material: np.ndarray = field(repr=False)         # mu > 0
    off_material: np.ndarray = field(repr=False)
    half_mu: np.ndarray = field(repr=False)          # 0.5 * mu
    kappa: np.ndarray = field(repr=False)            # bulk_ratio * mu
    half_kappa: np.ndarray = field(repr=False)       # 0.5 * kappa
    neg_half_alpha_mu: np.ndarray = field(repr=False)  # (-alpha * 0.5) * mu
    bg_weight: np.ndarray = field(repr=False)        # 2 lambda1 on background, else 0
    scratch: tuple = field(repr=False)

    @staticmethod
    def build(a: ScalarField, labels: LabelField,
              params: EnergyParams) -> "LossContext":
        if a.shape != labels.shape:
            raise ShapeMismatch("atrophy and labels dimensions differ")
        mu = material_map(labels, params)
        kappa = params.bulk_ratio * mu
        background = labels.labels == BACKGROUND
        return LossContext(
            a=a, labels=labels, params=params,
            mu=mu,
            g=growth_scale(a, params),
            background=background,
            center=center_of_mass(labels, BRAIN_LABELS),
            material=mu > 0.0,
            off_material=mu <= 0.0,
            half_mu=0.5 * mu,
            kappa=kappa,
            half_kappa=0.5 * kappa,
            neg_half_alpha_mu=-params.alpha * 0.5 * mu,
            bg_weight=np.where(background, 2.0 * params.lambda1, 0.0),
            scratch=tuple(np.empty(a.shape) for _ in range(_N_SCRATCH))
                    + (np.empty(a.shape, dtype=bool),),
        )


def loss_and_gradient(u: DisplacementField, ctx: LossContext
                      ) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Loss breakdown plus dL/dux, dL/duy in one pass.

    Every intermediate lives in the context's scratch planes, computed with
    the operations and grouping of the formulas in the comments, so the
    result is the same to the bit whatever the scratch held. The returned
    gradient planes are fresh arrays. Raises ShapeMismatch when u is not on
    the context's grid, InvertedElement when det(F_K) <= 1e-6 on a material
    pixel and SingularElastic when the stress is not finite there.
    """
    if u.shape != ctx.mu.shape:
        raise ShapeMismatch(f"displacement is {u.shape}, the context is {ctx.mu.shape}")
    params = ctx.params
    g = ctx.g
    k00, k01, k10, k11, jac, trace, j_pow, w, jm1, lead, coef, tmp, flags = ctx.scratch

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

    # J = det(F_K); off material J is replaced by 1, where mu = kappa = 0 make
    # every energy and stress term exactly zero.
    np.multiply(k00, k11, out=jac)
    jac -= np.multiply(k01, k10, out=tmp)
    np.less_equal(jac, J_FLOOR, out=flags)
    flags &= ctx.material
    if flags.any():
        raise InvertedElement("det(F_K) <= 1e-6 on a material pixel")
    np.copyto(jac, 1.0, where=ctx.off_material)
    np.square(k00, out=trace)
    trace += np.square(k01, out=tmp)
    trace += np.square(k10, out=tmp)
    trace += np.square(k11, out=tmp)
    np.power(jac, -params.alpha, out=j_pow)
    np.subtract(jac, 1.0, out=jm1)

    # W = 0.5 mu (tr J^-a - beta) + 0.5 kappa (J - 1)^2
    np.multiply(trace, j_pow, out=w)
    w -= params.beta
    w *= ctx.half_mu
    np.square(jm1, out=tmp)
    tmp *= ctx.half_kappa
    w += tmp
    energy = float(np.sum(w))

    # dW/dF_K = mu J^-a F_K + [-a (mu/2) tr J^-a + K (J-1) J] F_K^-T,
    # with J F_K^-T = cofactor(F_K).
    np.multiply(ctx.mu, j_pow, out=lead)
    np.multiply(ctx.neg_half_alpha_mu, trace, out=coef)
    coef *= j_pow
    np.multiply(ctx.kappa, jm1, out=tmp)
    tmp *= jac
    coef += tmp
    coef /= jac
    if not np.isfinite(coef, out=flags).all():
        raise SingularElastic("F_K numerically singular on a material pixel")

    # dL/dF = dW/dF_K / g, pushed through the transposed stencils
    p00, p01, p10, p11 = w, trace, j_pow, jm1
    _stress(lead, k00, coef, k11, np.add, g, tmp, out=p00)
    _stress(lead, k01, coef, k10, np.subtract, g, tmp, out=p01)
    _stress(lead, k10, coef, k01, np.subtract, g, tmp, out=p10)
    _stress(lead, k11, coef, k00, np.add, g, tmp, out=p11)
    gux = d_dx_adjoint(p00, out=np.empty_like(p00))
    gux += d_dy_adjoint(p01, out=tmp)
    guy = d_dx_adjoint(p10, out=np.empty_like(p10))
    guy += d_dy_adjoint(p11, out=tmp)

    bg = ctx.background
    bg_pen = float(np.sum(u.ux[bg] ** 2) + np.sum(u.uy[bg] ** 2))
    gux += np.multiply(ctx.bg_weight, u.ux, out=tmp)
    guy += np.multiply(ctx.bg_weight, u.uy, out=tmp)

    cx, cy = ctx.center
    c_pen = float(u.ux[cy, cx] ** 2 + u.uy[cy, cx] ** 2)
    gux[cy, cx] += 2.0 * params.lambda2 * u.ux[cy, cx]
    guy[cy, cx] += 2.0 * params.lambda2 * u.uy[cy, cx]

    total = energy + params.lambda1 * bg_pen + params.lambda2 * c_pen
    breakdown = LossBreakdown(total=total, energy=energy,
                              background_penalty=bg_pen, center_penalty=c_pen)
    return breakdown, gux, guy


def _stress(lead, k_a, coef, k_b, combine, g, tmp, out):
    """out = combine(lead * k_a, coef * k_b) / g."""
    np.multiply(lead, k_a, out=out)
    combine(out, np.multiply(coef, k_b, out=tmp), out=out)
    out /= g
    return out


def loss_gradient(u: DisplacementField, a: ScalarField, labels: LabelField,
                  params: EnergyParams) -> DisplacementField:
    """dL/du for the total objective, one value per pixel and component."""
    ctx = LossContext.build(a, labels, params)
    _, gux, guy = loss_and_gradient(u, ctx)
    return DisplacementField(gux, guy)


def finite_diff_check(u: DisplacementField, a: ScalarField, labels: LabelField,
                      params: EnergyParams, n_probes: int, step: float,
                      tolerance: float, seed: int) -> GradCheckReport:
    """Compare the analytic gradient to central differences at random probes.

    Relative error uses denominator max(1, |numeric|) so near-zero entries are
    judged on absolute error.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    ctx = LossContext.build(a, labels, params)
    _, gux, guy = loss_and_gradient(u, ctx)
    analytic = (gux, guy)
    planes = (u.ux, u.uy)

    rng = np.random.default_rng(seed)
    h, w = u.shape
    max_rel = 0.0
    max_abs = 0.0
    for _ in range(n_probes):
        comp = int(rng.integers(0, 2))
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w))
        orig = planes[comp][y, x]

        planes[comp][y, x] = orig + step
        lo_hi = loss_and_gradient(u, ctx)[0].total
        planes[comp][y, x] = orig - step
        lo_lo = loss_and_gradient(u, ctx)[0].total
        planes[comp][y, x] = orig

        numeric = (lo_hi - lo_lo) / (2.0 * step)
        err = abs(analytic[comp][y, x] - numeric)
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / max(1.0, abs(numeric)))
    return GradCheckReport(n_probes=n_probes, max_rel_error=max_rel,
                           max_abs_error=max_abs, passed=max_rel < tolerance)
