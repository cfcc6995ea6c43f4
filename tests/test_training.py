import numpy as np
import pytest

from atrosim.biomech import EnergyParams, total_loss
from atrosim.errors import ShapeMismatch
from atrosim.fields import ScalarField
from atrosim.network import net_forward
from atrosim.phantom import AtrophySpec, PhantomSpec, make_atrophy, make_phantom
from atrosim.training import TrainLog, TrainOptions, net_finite_diff_check, train


def make_dataset(n, base_seed=0, size=32):
    ds = []
    for i in range(n):
        labels, _ = make_phantom(PhantomSpec(size=size, seed=base_seed + 2 * i))
        a = make_atrophy(AtrophySpec(seed=base_seed + 2 * i + 1), labels)
        ds.append((a, labels))
    return ds


class TestTrainOptions:
    def test_defaults(self):
        o = TrainOptions()
        assert o.epochs == 1000
        assert o.batch_size == 8
        assert o.learning_rate == 1e-4

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainOptions(epochs=0)
        with pytest.raises(ValueError):
            TrainOptions(learning_rate=-1.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TrainOptions(learning_rate=lr)


class TestTrain:
    def test_loss_decreases(self):
        ds = make_dataset(4)
        w, log = train(ds, TrainOptions(epochs=30, batch_size=4,
                                        learning_rate=1e-3, seed=0))
        assert len(log.epoch_losses) == 30
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_deterministic(self):
        ds = make_dataset(3)
        opts = TrainOptions(epochs=5, batch_size=2, learning_rate=1e-3, seed=1)
        w1, log1 = train(ds, opts)
        w2, log2 = train(ds, opts)
        assert log1.epoch_losses == log2.epoch_losses
        for k1, k2 in zip(w1.kernels, w2.kernels):
            assert np.array_equal(k1, k2)

    def test_seed_changes_trajectory(self):
        ds = make_dataset(3)
        _, log1 = train(ds, TrainOptions(epochs=5, batch_size=2,
                                         learning_rate=1e-3, seed=0))
        _, log2 = train(ds, TrainOptions(epochs=5, batch_size=2,
                                         learning_rate=1e-3, seed=2))
        assert log1.epoch_losses != log2.epoch_losses

    def test_trained_net_beats_zero_prediction(self):
        ds = make_dataset(2)
        params = EnergyParams()
        w, _ = train(ds, TrainOptions(epochs=60, batch_size=2,
                                      learning_rate=1e-3, seed=0,
                                      params=params))
        for a, labels in ds:
            u = net_forward(w, a, labels)
            zero_loss = total_loss(
                type(u)(np.zeros(a.shape), np.zeros(a.shape)),
                a, labels, params).total
            assert total_loss(u, a, labels, params).total < zero_loss

    def test_rest_state_dataset_stays_at_zero_loss(self):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = ScalarField(np.ones((32, 32)))
        ds = [(a, labels), (a, labels)]
        w, log = train(ds, TrainOptions(epochs=3, batch_size=2,
                                        learning_rate=1e-3, seed=0))
        assert all(loss == 0.0 for loss in log.epoch_losses)
        u = net_forward(w, a, labels)
        assert np.all(u.ux == 0.0)
        assert np.all(u.uy == 0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainOptions(epochs=1))

    def test_mixed_grid_sizes_rejected(self):
        ds = make_dataset(1, size=32) + make_dataset(1, base_seed=10, size=64)
        with pytest.raises(ShapeMismatch):
            train(ds, TrainOptions(epochs=1))


class TestNetFiniteDiffCheck:
    def test_passes_after_short_training(self):
        ds = make_dataset(2)
        w, _ = train(ds, TrainOptions(epochs=10, batch_size=2,
                                      learning_rate=1e-3, seed=0))
        a, labels = ds[0]
        rep = net_finite_diff_check(w, a, labels, EnergyParams(),
                                    n_probes=16, step=1e-5,
                                    tolerance=1e-4, seed=0)
        assert rep.passed
        assert rep.max_rel_error < 1e-4

    def test_deterministic(self):
        ds = make_dataset(1)
        w, _ = train(ds, TrainOptions(epochs=3, batch_size=1,
                                      learning_rate=1e-3, seed=0))
        a, labels = ds[0]
        r1 = net_finite_diff_check(w, a, labels, EnergyParams(), seed=4)
        r2 = net_finite_diff_check(w, a, labels, EnergyParams(), seed=4)
        assert r1.max_rel_error == r2.max_rel_error
