"""The in-place loss kernel, stencils and Adam loop against frozen references.

The `ref_*` functions below are the plain array forms of the stencils, of
`loss_and_gradient` and of the solver's Adam loop: every step allocates its
result and the x stencils work on column slices. The package computes the same
expressions in place, on flattened planes and with precomputed constants, and
must reproduce these references bit for bit: Adam at lr 1e-2 turns a
last-bit difference in a gradient into a visibly different solve after a few
hundred iterations.
"""

import numpy as np
import pytest

from atrosim.biomech import (
    CONVENTION_JACOBIAN,
    CONVENTION_PAPER,
    EnergyParams,
    J_FLOOR,
    LossBreakdown,
    strain_energy_density,
    total_loss,
)
from atrosim.errors import InvertedElement, SingularElastic
from atrosim.fields import (
    BACKGROUND,
    CSF,
    DGM,
    GM,
    DisplacementField,
    LabelField,
    ScalarField,
    TensorField,
    d_dx,
    d_dx_adjoint,
    d_dy,
    d_dy_adjoint,
)
from atrosim.gradients import LossContext, loss_and_gradient
from atrosim.metrics import mse_atrophy
from atrosim.phantom import AtrophySpec, PhantomSpec, make_atrophy, make_phantom
from atrosim.solver import SolveOptions, solve_displacement


# ---------------------------------------------------------------------------
# Frozen references
# ---------------------------------------------------------------------------

def ref_d_dx(v):
    out = np.empty_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) * 0.5
    out[:, 0] = v[:, 1] - v[:, 0]
    out[:, -1] = v[:, -1] - v[:, -2]
    return out


def ref_d_dy(v):
    out = np.empty_like(v)
    out[1:-1, :] = (v[2:, :] - v[:-2, :]) * 0.5
    out[0, :] = v[1, :] - v[0, :]
    out[-1, :] = v[-1, :] - v[-2, :]
    return out


def ref_d_dx_adjoint(w):
    out = np.zeros_like(w)
    out[:, 2:] += w[:, 1:-1] * 0.5
    out[:, :-2] -= w[:, 1:-1] * 0.5
    out[:, 0] -= w[:, 0]
    out[:, 1] += w[:, 0]
    out[:, -1] += w[:, -1]
    out[:, -2] -= w[:, -1]
    return out


def ref_d_dy_adjoint(w):
    out = np.zeros_like(w)
    out[2:, :] += w[1:-1, :] * 0.5
    out[:-2, :] -= w[1:-1, :] * 0.5
    out[0, :] -= w[0, :]
    out[1, :] += w[0, :]
    out[-1, :] += w[-1, :]
    out[-2, :] -= w[-1, :]
    return out


def ref_loss_and_gradient(u, ctx):
    params = ctx.params
    mu, g = ctx.mu, ctx.g
    material = mu > 0.0

    f00 = ref_d_dx(u.ux) + 1.0
    f01 = ref_d_dy(u.ux)
    f10 = ref_d_dx(u.uy)
    f11 = ref_d_dy(u.uy) + 1.0
    k00, k01, k10, k11 = f00 / g, f01 / g, f10 / g, f11 / g

    jac = k00 * k11 - k01 * k10
    if np.any(material & (jac <= J_FLOOR)):
        raise InvertedElement("det(F_K) <= 1e-6 on a material pixel")
    jac_safe = np.where(material, jac, 1.0)
    trace = k00 ** 2 + k01 ** 2 + k10 ** 2 + k11 ** 2
    kappa = params.bulk_ratio * mu
    j_pow = jac_safe ** (-1.0)

    w = 0.5 * mu * (trace * j_pow - 2.0) + 0.5 * kappa * (jac_safe - 1.0) ** 2
    energy = float(np.sum(np.where(material, w, 0.0)))

    lead = np.where(material, mu * j_pow, 0.0)
    coef = np.where(
        material,
        (-1.0 * 0.5 * mu * trace * j_pow + kappa * (jac_safe - 1.0) * jac_safe)
        / jac_safe,
        0.0,
    )
    if not np.all(np.isfinite(coef)):
        raise SingularElastic("F_K numerically singular on a material pixel")
    p00 = (lead * k00 + coef * k11) / g
    p01 = (lead * k01 - coef * k10) / g
    p10 = (lead * k10 - coef * k01) / g
    p11 = (lead * k11 + coef * k00) / g

    gux = ref_d_dx_adjoint(p00) + ref_d_dy_adjoint(p01)
    guy = ref_d_dx_adjoint(p10) + ref_d_dy_adjoint(p11)

    bg = ctx.background
    bg_pen = float(np.sum(u.ux[bg] ** 2) + np.sum(u.uy[bg] ** 2))
    gux[bg] += 2.0 * params.lambda1 * u.ux[bg]
    guy[bg] += 2.0 * params.lambda1 * u.uy[bg]

    cx, cy = ctx.center
    c_pen = float(u.ux[cy, cx] ** 2 + u.uy[cy, cx] ** 2)
    gux[cy, cx] += 2.0 * params.lambda2 * u.ux[cy, cx]
    guy[cy, cx] += 2.0 * params.lambda2 * u.uy[cy, cx]

    total = energy + params.lambda1 * bg_pen + params.lambda2 * c_pen
    breakdown = LossBreakdown(total=total, energy=energy,
                              background_penalty=bg_pen, center_penalty=c_pen)
    return breakdown, gux, guy


def ref_solve(a, labels, params, opts):
    """The Adam loop of `solve_displacement` (no brain_only handling), on the
    reference kernel; returns (ux, uy, history, iterations, terminated, mse)."""
    ctx = LossContext.build(a, labels, params)
    h, w = a.shape
    ux = np.zeros((h, w))
    uy = np.zeros((h, w))
    m_ux = np.zeros_like(ux)
    m_uy = np.zeros_like(uy)
    v_ux = np.zeros_like(ux)
    v_uy = np.zeros_like(uy)

    lr = opts.learning_rate
    b1, b2, eps = opts.adam_beta1, opts.adam_beta2, opts.adam_epsilon

    loss, gux, guy = ref_loss_and_gradient(DisplacementField(ux, uy), ctx)
    history = [loss.total]
    best_loss = loss
    best_ux, best_uy = ux.copy(), uy.copy()
    terminated = "max_iters"
    iterations = 0
    backoffs = 0

    for it in range(1, opts.max_iters + 1):
        gnorm = max(np.abs(gux).max(), np.abs(guy).max())
        if gnorm <= opts.stop_grad_norm:
            terminated = "grad_norm"
            break

        m_ux = b1 * m_ux + (1 - b1) * gux
        m_uy = b1 * m_uy + (1 - b1) * guy
        v_ux = b2 * v_ux + (1 - b2) * gux ** 2
        v_uy = b2 * v_uy + (1 - b2) * guy ** 2
        mh_ux = m_ux / (1 - b1 ** it)
        mh_uy = m_uy / (1 - b1 ** it)
        vh_ux = v_ux / (1 - b2 ** it)
        vh_uy = v_uy / (1 - b2 ** it)
        step_x = lr * mh_ux / (np.sqrt(vh_ux) + eps)
        step_y = lr * mh_uy / (np.sqrt(vh_uy) + eps)

        try:
            trial = DisplacementField(ux - step_x, uy - step_y)
            loss, gux, guy = ref_loss_and_gradient(trial, ctx)
        except InvertedElement:
            backoffs += 1
            if backoffs > 10:
                terminated = "inversion_backoff_exhausted"
                break
            lr *= 0.5
            m_ux = (m_ux - (1 - b1) * gux) / b1
            m_uy = (m_uy - (1 - b1) * guy) / b1
            v_ux = (v_ux - (1 - b2) * gux ** 2) / b2
            v_uy = (v_uy - (1 - b2) * guy ** 2) / b2
            continue

        ux, uy = trial.ux, trial.uy
        iterations = it
        history.append(loss.total)
        if loss.total < best_loss.total:
            best_loss = loss
            best_ux, best_uy = ux.copy(), uy.copy()

    mse = mse_atrophy(a, DisplacementField(best_ux, best_uy), labels, masked=True)
    return best_ux, best_uy, history, iterations, terminated, mse


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

SHAPES = [(2, 2), (2, 7), (7, 2), (3, 3), (9, 13)]
LAYOUTS = ["edge", "no_background", "csf"]
AMPLITUDES = [0.0, 0.01, 0.1, 0.4, 1.0]


def layout_labels(shape, layout, rng):
    """'edge': random classes everywhere, so material touches every edge;
    'no_background': material on every pixel; 'csf': CSF on every pixel but
    one brain pixel, which the centre pin needs."""
    h, w = shape
    if layout == "edge":
        lab = rng.integers(BACKGROUND, DGM + 1, size=shape)
        lab[rng.integers(h), rng.integers(w)] = GM
    elif layout == "no_background":
        lab = rng.integers(CSF, DGM + 1, size=shape)
        lab[rng.integers(h), rng.integers(w)] = GM
    else:
        lab = np.full(shape, CSF)
        lab[rng.integers(h), rng.integers(w)] = GM
    return LabelField(lab.astype(np.uint8))


def random_case(shape, layout, amp, seed):
    rng = np.random.default_rng(seed)
    labels = layout_labels(shape, layout, rng)
    a = ScalarField(rng.uniform(0.8, 1.2, shape))
    u = DisplacementField(amp * rng.normal(size=shape), amp * rng.normal(size=shape))
    return u, a, labels


def phantom_case(amp, seed):
    labels, _ = make_phantom(PhantomSpec(size=32, seed=seed))
    a = make_atrophy(AtrophySpec(seed=seed + 1), labels)
    rng = np.random.default_rng(seed)
    u = DisplacementField(amp * rng.normal(size=(32, 32)),
                          amp * rng.normal(size=(32, 32)))
    return u, a, labels


def assert_same_evaluation(u, a, labels, params):
    """loss_and_gradient and total_loss against the reference, and the sum of
    strain_energy_density on the reference F_K against the reference energy:
    one W, so the two agree to the bit."""
    ctx = LossContext.build(a, labels, params)
    try:
        ref = ref_loss_and_gradient(u, ctx)
    except InvertedElement:
        with pytest.raises(InvertedElement):
            loss_and_gradient(u, ctx)
        with pytest.raises(InvertedElement):
            total_loss(u, a, labels, params)
        return False
    except SingularElastic:
        with pytest.raises(SingularElastic):
            loss_and_gradient(u, ctx)
        return False
    lb, gux, guy = loss_and_gradient(u, ctx)
    assert lb == ref[0]
    # bytes, not np.array_equal, so a flipped sign of zero counts too
    assert gux.tobytes() == ref[1].tobytes()
    assert guy.tobytes() == ref[2].tobytes()
    assert total_loss(u, a, labels, params) == ref[0]

    fk = np.stack([np.stack([ref_d_dx(u.ux) + 1.0, ref_d_dy(u.ux)], axis=-1),
                   np.stack([ref_d_dx(u.uy), ref_d_dy(u.uy) + 1.0], axis=-1)],
                  axis=-2) / ctx.g[..., None, None]
    w = strain_energy_density(TensorField(fk), ctx.mu, params).values
    assert float(np.sum(w)) == ref[0].energy
    return True


CONVENTIONS = [CONVENTION_JACOBIAN, CONVENTION_PAPER]


class TestKernel:
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_small_grids(self, shape, layout, convention):
        params = EnergyParams(convention=convention)
        evaluated = 0
        for amp in AMPLITUDES:
            for seed in range(4):
                u, a, labels = random_case(shape, layout, amp, seed)
                evaluated += assert_same_evaluation(u, a, labels, params)
        assert evaluated > 0

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_phantom_32(self, convention):
        params = EnergyParams(convention=convention)
        outcomes = set()
        for amp in AMPLITUDES:
            u, a, labels = phantom_case(amp, seed=3)
            outcomes.add(assert_same_evaluation(u, a, labels, params))
        assert outcomes == {True, False}  # both finite and inverted states

    def test_call_history_does_not_leak(self):
        u1, a, labels = phantom_case(0.01, seed=5)
        u2, _, _ = phantom_case(0.05, seed=6)
        ctx = LossContext.build(a, labels, EnergyParams())
        lb1, gx1, gy1 = loss_and_gradient(u1, ctx)
        kept = gx1.copy(), gy1.copy()
        lb2, gx2, gy2 = loss_and_gradient(u2, ctx)
        lb3, gx3, gy3 = loss_and_gradient(u1, ctx)
        assert lb3 == lb1 and lb2 != lb1
        for got, want in ((gx3, kept[0]), (gy3, kept[1]),
                          (gx1, kept[0]), (gy1, kept[1])):
            assert got.tobytes() == want.tobytes()
        assert len({id(x) for x in (gx1, gy1, gx2, gy2, gx3, gy3)}) == 6


class TestStencils:
    @pytest.mark.parametrize("shape", SHAPES + [(32, 32)])
    def test_match_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        v = rng.normal(size=shape)
        v[rng.random(shape) < 0.2] = -0.0
        for new, ref in ((d_dx, ref_d_dx), (d_dy, ref_d_dy),
                         (d_dx_adjoint, ref_d_dx_adjoint),
                         (d_dy_adjoint, ref_d_dy_adjoint)):
            want = ref(v).tobytes()
            assert new(v).tobytes() == want
            out = np.full(shape, np.nan)
            assert new(v, out=out) is out
            assert out.tobytes() == want

    def test_non_contiguous_input(self):
        v = np.random.default_rng(0).normal(size=(9, 14))[:, ::2]
        assert np.array_equal(d_dx(v), ref_d_dx(v))
        assert np.array_equal(d_dx_adjoint(v), ref_d_dx_adjoint(v))


class TestSolver:
    def problem(self):
        labels, _ = make_phantom(PhantomSpec(size=32, seed=0))
        a = make_atrophy(AtrophySpec(seed=1), labels)
        return a, labels

    def assert_same_solve(self, opts):
        a, labels = self.problem()
        u, rep = solve_displacement(a, labels, EnergyParams(), opts)
        ux, uy, history, iterations, terminated, mse = ref_solve(
            a, labels, EnergyParams(), opts)
        assert u.ux.tobytes() == ux.tobytes()
        assert u.uy.tobytes() == uy.tobytes()
        assert rep.loss_history == history
        assert rep.iterations_run == iterations
        assert rep.terminated_by == terminated
        assert rep.mse_atrophy == mse
        return rep

    def test_default_solve_200(self):
        rep = self.assert_same_solve(SolveOptions(max_iters=200))
        assert rep.iterations_run == 200

    def test_forced_backoff(self):
        rep = self.assert_same_solve(SolveOptions(max_iters=60, learning_rate=2.0))
        # fewer accepted steps than iterations: some were rejected
        assert len(rep.loss_history) - 1 < rep.iterations_run
