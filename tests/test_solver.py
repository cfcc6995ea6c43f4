import numpy as np
import pytest

from atrosim.biomech import CONVENTION_PAPER, EnergyParams, total_loss
from atrosim.errors import EmptyMask, NonPositiveAtrophy
from atrosim.fields import CSF, DisplacementField, LabelField, ScalarField
from atrosim.metrics import mse_atrophy
from atrosim.phantom import AtrophySpec, PhantomSpec, make_atrophy, make_phantom
from atrosim.solver import (
    TERM_GRAD_NORM,
    SolveOptions,
    SolveReport,
    solve_displacement,
)


def small_problem(size=32, phantom_seed=0, atrophy_seed=1):
    labels, _ = make_phantom(PhantomSpec(size=size, seed=phantom_seed))
    a = make_atrophy(AtrophySpec(seed=atrophy_seed), labels)
    return a, labels


class TestSolveOptions:
    def test_defaults(self):
        o = SolveOptions()
        assert o.max_iters == 2000
        assert o.learning_rate == 1e-2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolveOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolveOptions(learning_rate=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolveOptions(learning_rate=lr)


class TestSolveDisplacement:
    def test_trivial_problem_terminates_on_grad_norm(self):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = ScalarField(np.ones((32, 32)))
        u, rep = solve_displacement(a, labels, EnergyParams(), SolveOptions())
        assert rep.terminated_by == TERM_GRAD_NORM
        assert rep.iterations_run == 0
        assert np.all(u.ux == 0.0)
        assert np.all(u.uy == 0.0)
        assert rep.final_loss.total == 0.0

    def test_loss_decreases_and_mse_reported(self):
        a, labels = small_problem()
        u, rep = solve_displacement(a, labels, EnergyParams(),
                                    SolveOptions(max_iters=200))
        assert rep.loss_history[-1] < rep.loss_history[0]
        assert rep.final_loss.total == min(rep.loss_history)
        assert rep.mse_atrophy == mse_atrophy(a, u, labels, masked=True)
        # prescribing ~10% atrophy, starting error is ~1e-2; the solve should
        # cut it by well over an order of magnitude in 200 steps
        baseline = mse_atrophy(a, DisplacementField.zeros(32, 32), labels)
        assert rep.mse_atrophy < baseline / 10.0

    def test_deterministic(self):
        a, labels = small_problem()
        u1, r1 = solve_displacement(a, labels, EnergyParams(),
                                    SolveOptions(max_iters=50))
        u2, r2 = solve_displacement(a, labels, EnergyParams(),
                                    SolveOptions(max_iters=50))
        assert np.array_equal(u1.ux, u2.ux)
        assert np.array_equal(u1.uy, u2.uy)
        assert r1.loss_history == r2.loss_history

    def test_best_iterate_returned(self):
        a, labels = small_problem()
        u, rep = solve_displacement(a, labels, EnergyParams(),
                                    SolveOptions(max_iters=100))
        assert np.isclose(
            total_loss(u, a, labels, EnergyParams()).total,
            rep.final_loss.total)

    def test_brain_only_overrides_csf_prescription(self):
        a, labels = small_problem()
        vals = a.values.copy()
        vals[labels.labels == CSF] = 0.5  # aggressive CSF shrink to ignore
        a_mod = ScalarField(vals)
        _, rep_full = solve_displacement(a_mod, labels, EnergyParams(),
                                         SolveOptions(max_iters=150))
        _, rep_brain = solve_displacement(a_mod, labels, EnergyParams(),
                                          SolveOptions(max_iters=150,
                                                       brain_only=True))
        # both reports measure against the original prescription; the
        # brain-only solve should still realize the brain part well
        assert rep_brain.mse_atrophy < 5e-3

    def test_nonpositive_atrophy(self):
        _, labels = small_problem()
        vals = np.ones((32, 32))
        vals[0, 0] = -0.1
        with pytest.raises(NonPositiveAtrophy):
            solve_displacement(ScalarField(vals), labels, EnergyParams(),
                               SolveOptions(max_iters=5))

    def test_no_brain_pixels(self):
        labels = LabelField(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(EmptyMask):
            solve_displacement(ScalarField(np.ones((32, 32))), labels,
                               EnergyParams(), SolveOptions(max_iters=5))

    def test_convention_option_respected(self):
        a, labels = small_problem()
        u_j, _ = solve_displacement(a, labels, EnergyParams(),
                                    SolveOptions(max_iters=30))
        u_p, _ = solve_displacement(a, labels,
                                    EnergyParams(convention=CONVENTION_PAPER),
                                    SolveOptions(max_iters=30))
        assert not np.array_equal(u_j.ux, u_p.ux)

    def test_params_convention_used_with_default_options(self):
        # the convention has one source, EnergyParams; default options used to
        # replace it with the jacobian convention
        a, labels = small_problem()
        paper = EnergyParams(convention=CONVENTION_PAPER)
        u_j, _ = solve_displacement(a, labels, EnergyParams(), SolveOptions())
        u_p, rep = solve_displacement(a, labels, paper, SolveOptions())
        assert not np.array_equal(u_j.ux, u_p.ux)
        assert rep.final_loss == total_loss(u_p, a, labels, paper)

    def test_paper_convention_mse_against_its_own_target(self):
        # under the paper convention det(G) = 1/a; the report measures the
        # solve against that, not against a
        a, labels = small_problem()
        u, rep = solve_displacement(a, labels,
                                    EnergyParams(convention=CONVENTION_PAPER),
                                    SolveOptions())
        assert rep.mse_atrophy == mse_atrophy(a, u, labels,
                                              convention=CONVENTION_PAPER)
        assert rep.mse_atrophy < 1e-6
        assert mse_atrophy(a, u, labels) > 1e-3

    def test_uniform_atrophy_all_tissue_no_penalties(self):
        # with penalties off and a constant prescription on an all-tissue
        # grid, the solved Jacobian matches the prescription in the interior
        from atrosim.fields import GM, jacobian_det, deformation_gradient
        n = 32
        a0 = 0.9
        labels = LabelField(np.full((n, n), GM, dtype=np.uint8))
        a = ScalarField(np.full((n, n), a0))
        params = EnergyParams(lambda1=0.0, lambda2=0.0)
        u, _ = solve_displacement(a, labels, params,
                                  SolveOptions(max_iters=2000))
        det = jacobian_det(deformation_gradient(u)).values
        assert np.abs(det[1:-1, 1:-1] - a0).max() < 1e-3

    def test_history_length_matches_iterations(self):
        a, labels = small_problem()
        _, rep = solve_displacement(a, labels, EnergyParams(),
                                    SolveOptions(max_iters=40))
        assert len(rep.loss_history) == rep.iterations_run + 1
