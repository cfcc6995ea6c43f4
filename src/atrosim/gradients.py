"""Analytic gradient of the total loss w.r.t. the displacement field.

The chain is: per-pixel closed-form dW/dF_K, divided by the isotropic growth
scale to get dW/dF, then pushed through the transposed finite-difference
stencils (discrete integration by parts); the background and center penalties
contribute 2*lambda*u directly. Correctness is established against central
finite differences by `finite_diff_check`.

`loss_and_gradient` runs `biomech.loss_stage`, the one evaluation of the
objective, and then the gradient stage, which reads the F_K, J, trace,
J^-alpha and J - 1 planes the loss stage leaves in the `LossContext`'s
scratch. Both compute with in-place ufuncs, grouping every product as the
formulas in their comments group it; the results do not depend on what the
scratch held before. `LossContext` is defined in `biomech` and is importable
from here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biomech import EnergyParams, LossBreakdown, LossContext, loss_stage
from .errors import SingularElastic
# d_dx and d_dy are the loss stage's; they stay bound here because
# perfbench's traced run patches the stencils by these names.
from .fields import (
    DisplacementField,
    LabelField,
    ScalarField,
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


def loss_and_gradient(u: DisplacementField, ctx: LossContext
                      ) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Loss breakdown plus dL/dux, dL/duy: the loss stage, then the gradient
    stage on the planes it leaves in the context's scratch.

    Like the loss stage, the gradient stage computes with the operations and
    grouping of the formulas in the comments, so the result is the same to
    the bit whatever the scratch held. The returned gradient planes are fresh
    arrays. Raises what `loss_stage` raises, and SingularElastic when the
    stress is not finite on a material pixel.
    """
    breakdown = loss_stage(u, ctx)
    params = ctx.params
    g = ctx.g
    k00, k01, k10, k11, jac, trace, j_pow, w, jm1, lead, coef, tmp, flags = ctx.scratch

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

    # the penalties lambda1 |u|^2 on background and lambda2 |u|^2 at the centre
    gux += np.multiply(ctx.bg_weight, u.ux, out=tmp)
    guy += np.multiply(ctx.bg_weight, u.uy, out=tmp)
    cx, cy = ctx.center
    gux[cy, cx] += 2.0 * params.lambda2 * u.ux[cy, cx]
    guy[cy, cx] += 2.0 * params.lambda2 * u.uy[cy, cx]
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
