"""Unsupervised training of the amortizer with the biomechanical loss."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biomech import EnergyParams
from .errors import InvertedElement, ShapeMismatch
from .fields import DisplacementField, LabelField, ScalarField
from .gradients import GradCheckReport, LossContext, loss_and_gradient
from .network import (
    DEFAULT_CHANNELS,
    NetWeights,
    backward_batch,
    forward_batch,
    init_weights,
    input_planes,
)


@dataclass
class TrainOptions:
    epochs: int = 1000
    batch_size: int = 8
    learning_rate: float = 1e-4
    seed: int = 0
    params: EnergyParams = field(default_factory=EnergyParams)
    channels: tuple[int, ...] = DEFAULT_CHANNELS

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    skipped_samples: int = 0


def train(dataset: list[tuple[ScalarField, LabelField]], opts: TrainOptions
          ) -> tuple[NetWeights, TrainLog]:
    """Adam over network weights; each step averages the loss over one batch.
    Samples whose prediction inverts an element are skipped for that step."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    shape = dataset[0][0].shape
    for a, labels in dataset:
        if a.shape != shape or labels.shape != shape:
            raise ShapeMismatch("all samples must share grid dimensions")

    inputs = np.stack([input_planes(a, labels) for a, labels in dataset])
    contexts = [LossContext.build(a, labels, opts.params) for a, labels in dataset]

    rng = np.random.default_rng(np.random.PCG64(opts.seed))
    weights = init_weights(opts.seed, channels=opts.channels)

    m_k = [np.zeros_like(k) for k in weights.kernels]
    m_b = [np.zeros_like(b) for b in weights.biases]
    v_k = [np.zeros_like(k) for k in weights.kernels]
    v_b = [np.zeros_like(b) for b in weights.biases]
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = opts.learning_rate

    log = TrainLog()
    step = 0
    n = len(dataset)
    for _ in range(opts.epochs):
        order = rng.permutation(n)
        epoch_loss_sum = 0.0
        epoch_count = 0
        for start in range(0, n, opts.batch_size):
            batch = order[start:start + opts.batch_size]
            x = inputs[batch]
            y, cache = forward_batch(weights, x)

            dy = np.zeros_like(y)
            live = 0
            batch_losses = []
            for row, idx in enumerate(batch):
                u = DisplacementField(y[row, 0], y[row, 1])
                try:
                    loss, gux, guy = loss_and_gradient(u, contexts[idx])
                except InvertedElement:
                    log.skipped_samples += 1
                    continue
                dy[row, 0] = gux
                dy[row, 1] = guy
                batch_losses.append(loss.total)
                live += 1
            if live == 0:
                continue
            dy /= live
            dks, dbs = backward_batch(weights, cache, dy)

            step += 1
            corr1 = 1.0 - b1 ** step
            corr2 = 1.0 - b2 ** step
            for i in range(len(weights.kernels)):
                for param, grad, m, v in ((weights.kernels[i], dks[i], m_k, v_k),
                                          (weights.biases[i], dbs[i], m_b, v_b)):
                    m[i] = b1 * m[i] + (1 - b1) * grad
                    v[i] = b2 * v[i] + (1 - b2) * grad ** 2
                    param -= lr * (m[i] / corr1) / (np.sqrt(v[i] / corr2) + eps)
            epoch_loss_sum += float(np.sum(batch_losses))
            epoch_count += live
        log.epoch_losses.append(epoch_loss_sum / max(epoch_count, 1))
    return weights, log


def net_finite_diff_check(weights: NetWeights, a: ScalarField, labels: LabelField,
                          params: EnergyParams, n_probes: int = 8,
                          step: float = 1e-5, tolerance: float = 1e-4,
                          seed: int = 0) -> GradCheckReport:
    """Probe the composed weights -> displacement -> loss gradient against
    central finite differences at randomly chosen weight entries."""
    ctx = LossContext.build(a, labels, params)
    x = input_planes(a, labels)[None]

    def loss_of(w: NetWeights) -> float:
        y, _ = forward_batch(w, x)
        u = DisplacementField(y[0, 0], y[0, 1])
        return loss_and_gradient(u, ctx)[0].total

    y, cache = forward_batch(weights, x)
    u = DisplacementField(y[0, 0], y[0, 1])
    _, gux, guy = loss_and_gradient(u, ctx)
    dks, dbs = backward_batch(weights, cache, np.stack([gux, guy])[None])

    rng = np.random.default_rng(np.random.PCG64(seed))
    max_rel = 0.0
    max_abs = 0.0
    n_layers = len(weights.kernels)
    for _ in range(n_probes):
        layer = int(rng.integers(0, n_layers))
        use_bias = bool(rng.integers(0, 2))
        block = weights.biases[layer] if use_bias else weights.kernels[layer]
        analytic_block = dbs[layer] if use_bias else dks[layer]
        flat_idx = int(rng.integers(0, block.size))
        idx = np.unravel_index(flat_idx, block.shape)

        orig = block[idx]
        block[idx] = orig + step
        hi = loss_of(weights)
        block[idx] = orig - step
        lo = loss_of(weights)
        block[idx] = orig

        numeric = (hi - lo) / (2.0 * step)
        err = abs(analytic_block[idx] - numeric)
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / max(1.0, abs(numeric)))
    return GradCheckReport(n_probes=n_probes, max_rel_error=max_rel,
                           max_abs_error=max_abs, passed=max_rel < tolerance)
