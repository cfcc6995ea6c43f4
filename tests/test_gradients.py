import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrosim.biomech import CONVENTION_PAPER, EnergyParams, total_loss
from atrosim.errors import InvertedElement, ShapeMismatch
from atrosim.fields import DisplacementField, LabelField, ScalarField
from atrosim.gradients import (
    LossContext,
    finite_diff_check,
    loss_and_gradient,
    loss_gradient,
)

from oracles import ref_total_loss


def ring_labels(n=8):
    lab = np.zeros((n, n), dtype=np.uint8)
    c = (n - 1) / 2.0
    ys, xs = np.mgrid[0:n, 0:n]
    r = np.hypot(xs - c, ys - c)
    lab[r <= 0.45 * n] = 1
    lab[r <= 0.35 * n] = 2
    lab[r <= 0.25 * n] = 3
    lab[r <= 0.12 * n] = 4
    return LabelField(lab)


def random_problem(seed, n=8, amp=0.05):
    rng = np.random.default_rng(seed)
    labels = ring_labels(n)
    u = DisplacementField(amp * rng.normal(size=(n, n)),
                          amp * rng.normal(size=(n, n)))
    a = ScalarField(rng.uniform(0.9, 1.1, (n, n)))
    return u, a, labels


def brute_force_gradient(u, a, labels, params, step=1e-7):
    """Full central-difference gradient of ref_total_loss; shares no code
    with the analytic path."""
    h, w = u.shape
    grads = []
    conv = "paper" if params.convention == CONVENTION_PAPER else "jacobian"
    for plane in (u.ux, u.uy):
        g = np.zeros((h, w))
        for y in range(h):
            for x in range(w):
                orig = plane[y, x]
                plane[y, x] = orig + step
                hi = ref_total_loss(u.ux, u.uy, a.values, labels.labels,
                                    convention=conv)
                plane[y, x] = orig - step
                lo = ref_total_loss(u.ux, u.uy, a.values, labels.labels,
                                    convention=conv)
                plane[y, x] = orig
                g[y, x] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


class TestLossAndGradient:
    def test_loss_matches_total_loss(self):
        u, a, labels = random_problem(0)
        params = EnergyParams()
        ctx = LossContext.build(a, labels, params)
        lb, _, _ = loss_and_gradient(u, ctx)
        direct = total_loss(u, a, labels, params)
        assert lb.total == direct.total
        assert lb.energy == direct.energy
        assert lb.background_penalty == direct.background_penalty
        assert lb.center_penalty == direct.center_penalty

    def test_zero_gradient_at_rest(self):
        labels = ring_labels()
        u = DisplacementField.zeros(8, 8)
        a = ScalarField(np.ones((8, 8)))
        g = loss_gradient(u, a, labels, EnergyParams())
        assert np.allclose(g.ux, 0.0, atol=1e-14)
        assert np.allclose(g.uy, 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_reference(self, seed):
        u, a, labels = random_problem(seed)
        params = EnergyParams()
        _, gux, guy = loss_and_gradient(u, LossContext.build(a, labels, params))
        ref_ux, ref_uy = brute_force_gradient(u, a, labels, params)
        assert np.allclose(gux, ref_ux, atol=5e-6)
        assert np.allclose(guy, ref_uy, atol=5e-6)

    def test_matches_brute_force_other_convention(self):
        u, a, labels = random_problem(3)
        params = EnergyParams(convention=CONVENTION_PAPER)
        _, gux, guy = loss_and_gradient(u, LossContext.build(a, labels, params))
        ref_ux, ref_uy = brute_force_gradient(u, a, labels, params)
        assert np.allclose(gux, ref_ux, atol=5e-6)
        assert np.allclose(guy, ref_uy, atol=5e-6)

    def test_inverted_element_raises(self):
        labels = ring_labels()
        ux = np.zeros((8, 8))
        ux[:, 4] = -2.0  # steep fold: d(ux)/dx ~ -1 near column 4
        u = DisplacementField(ux, np.zeros((8, 8)))
        a = ScalarField(np.ones((8, 8)))
        with pytest.raises(InvertedElement):
            loss_gradient(u, a, labels, EnergyParams())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            LossContext.build(ScalarField(np.ones((8, 7))), ring_labels(),
                              EnergyParams())

    def test_displacement_shape_mismatch(self):
        _, a, labels = random_problem(0)
        ctx = LossContext.build(a, labels, EnergyParams())
        with pytest.raises(ShapeMismatch):
            loss_and_gradient(DisplacementField.zeros(8, 9), ctx)
        with pytest.raises(ShapeMismatch):
            total_loss(DisplacementField.zeros(9, 8), a, labels, EnergyParams())

    def test_total_loss_is_the_kernel_value(self):
        params = EnergyParams(convention=CONVENTION_PAPER)
        u, a, labels = random_problem(8, amp=0.1)
        lb, _, _ = loss_and_gradient(u, LossContext.build(a, labels, params))
        assert total_loss(u, a, labels, params) == lb
        ux = np.zeros((8, 8))
        ux[:, 4] = -2.0  # the fold of test_inverted_element_raises
        with pytest.raises(InvertedElement):
            total_loss(DisplacementField(ux, np.zeros((8, 8))), a, labels, params)


class TestFiniteDiffCheck:
    def test_passes_on_random_state(self):
        u, a, labels = random_problem(4)
        rep = finite_diff_check(u, a, labels, EnergyParams(),
                                n_probes=64, step=1e-6, tolerance=1e-5, seed=0)
        assert rep.passed
        assert rep.n_probes == 64
        assert rep.max_rel_error < 1e-5

    def test_deterministic_given_seed(self):
        u, a, labels = random_problem(5)
        r1 = finite_diff_check(u, a, labels, EnergyParams(),
                               n_probes=16, step=1e-6, tolerance=1e-5, seed=3)
        r2 = finite_diff_check(u, a, labels, EnergyParams(),
                               n_probes=16, step=1e-6, tolerance=1e-5, seed=3)
        assert r1.max_rel_error == r2.max_rel_error
        assert r1.max_abs_error == r2.max_abs_error

    def test_probe_does_not_mutate_field(self):
        u, a, labels = random_problem(6)
        before = (u.ux.copy(), u.uy.copy())
        finite_diff_check(u, a, labels, EnergyParams(),
                          n_probes=8, step=1e-6, tolerance=1e-5, seed=0)
        assert np.array_equal(u.ux, before[0])
        assert np.array_equal(u.uy, before[1])

    def test_rejects_zero_probes(self):
        u, a, labels = random_problem(7)
        with pytest.raises(ValueError):
            finite_diff_check(u, a, labels, EnergyParams(),
                              n_probes=0, step=1e-6, tolerance=1e-5, seed=0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_property_random_states_pass(self, seed):
        u, a, labels = random_problem(seed, amp=0.03)
        rep = finite_diff_check(u, a, labels, EnergyParams(),
                                n_probes=8, step=1e-6, tolerance=1e-5,
                                seed=seed)
        assert rep.passed
