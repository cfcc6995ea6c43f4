"""Direct variational solver: Adam on the displacement field itself.

This is the per-image reference path; the trained network amortizes exactly
this objective, so the solver doubles as the oracle it is judged against.
Everything that defines the objective, the growth convention included, comes
from `EnergyParams`; `SolveOptions` only steers the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biomech import EnergyParams, LossBreakdown
from .errors import EmptyMask, InvertedElement, NonPositiveAtrophy
from .fields import (
    BACKGROUND,
    CSF,
    DisplacementField,
    LabelField,
    ScalarField,
)
from .gradients import LossContext, loss_and_gradient
from .metrics import mse_atrophy

TERM_MAX_ITERS = "max_iters"
TERM_GRAD_NORM = "grad_norm"
TERM_BACKOFF = "inversion_backoff_exhausted"

MAX_BACKOFFS = 10


@dataclass
class SolveOptions:
    max_iters: int = 2000
    learning_rate: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    stop_grad_norm: float = 1e-6
    brain_only: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class SolveReport:
    iterations_run: int
    final_loss: LossBreakdown
    loss_history: list[float] = field(default_factory=list)
    mse_atrophy: float = 0.0
    terminated_by: str = TERM_MAX_ITERS


def solve_displacement(a: ScalarField, labels: LabelField, params: EnergyParams,
                       opts: SolveOptions) -> tuple[DisplacementField, SolveReport]:
    """Optimize u from rest with Adam; returns the best-loss iterate.

    The convention (how `a` maps to the growth) is the one in `params`. With
    brain_only the atrophy map is overwritten with 1.0 on CSF and background
    before solving, but the realization error is still reported against the
    original prescription.

    The Adam update
        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g^2,
        u -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    runs in place on planes allocated once per solve, with the operations
    grouped as written here. Wrapping each trial iterate in a
    `DisplacementField` rejects a non-finite step.
    """
    if np.any(a.values <= 0.0):
        raise NonPositiveAtrophy("atrophy map must be strictly positive")
    if not labels.brain_mask().any():
        raise EmptyMask("labels contain no brain pixels")

    a_solve = a
    if opts.brain_only:
        vals = a.values.copy()
        vals[np.isin(labels.labels, (BACKGROUND, CSF))] = 1.0
        a_solve = ScalarField(vals)

    ctx = LossContext.build(a_solve, labels, params)
    shape = a.shape
    u = [np.zeros(shape), np.zeros(shape)]
    trial = [np.empty(shape), np.empty(shape)]
    best = [np.zeros(shape), np.zeros(shape)]
    m = [np.zeros(shape), np.zeros(shape)]
    v = [np.zeros(shape), np.zeros(shape)]
    tmp = np.empty(shape)
    step = np.empty(shape)

    lr = opts.learning_rate
    b1, b2, eps = opts.adam_beta1, opts.adam_beta2, opts.adam_epsilon
    c1, c2 = 1 - b1, 1 - b2

    loss, *grad = loss_and_gradient(DisplacementField(*u), ctx)
    history = [loss.total]
    best_loss = loss
    terminated = TERM_MAX_ITERS
    iterations = 0
    backoffs = 0

    for it in range(1, opts.max_iters + 1):
        gnorm = max(np.abs(gc, out=tmp).max() for gc in grad)
        if gnorm <= opts.stop_grad_norm:
            terminated = TERM_GRAD_NORM
            break

        bc1, bc2 = 1 - b1 ** it, 1 - b2 ** it
        for gc, mc, vc, uc, tc in zip(grad, m, v, u, trial):
            mc *= b1
            mc += np.multiply(gc, c1, out=tmp)
            vc *= b2
            vc += np.multiply(np.square(gc, out=tmp), c2, out=tmp)
            np.divide(mc, bc1, out=step)
            step *= lr
            np.sqrt(np.divide(vc, bc2, out=tmp), out=tmp)
            tmp += eps
            step /= tmp
            np.subtract(uc, step, out=tc)

        try:
            loss, *new_grad = loss_and_gradient(DisplacementField(*trial), ctx)
        except InvertedElement:
            backoffs += 1
            if backoffs > MAX_BACKOFFS:
                terminated = TERM_BACKOFF
                break
            lr *= 0.5
            # rejected step: rewind the moment updates too
            for gc, mc, vc in zip(grad, m, v):
                mc -= np.multiply(gc, c1, out=tmp)
                mc /= b1
                vc -= np.multiply(np.square(gc, out=tmp), c2, out=tmp)
                vc /= b2
            continue

        grad = new_grad
        u, trial = trial, u
        iterations = it
        history.append(loss.total)
        if loss.total < best_loss.total:
            best_loss = loss
            for dst, src in zip(best, u):
                np.copyto(dst, src)

    u_best = DisplacementField(*best)
    report = SolveReport(
        iterations_run=iterations,
        final_loss=best_loss,
        loss_history=history,
        mse_atrophy=mse_atrophy(a, u_best, labels, masked=True,
                                convention=params.convention),
        terminated_by=terminated,
    )
    return u_best, report
