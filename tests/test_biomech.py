import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrosim.biomech import (
    CONVENTION_JACOBIAN,
    CONVENTION_PAPER,
    EnergyParams,
    elastic_gradient,
    growth_scale,
    growth_tensor,
    material_map,
    strain_energy_density,
    total_loss,
)
from atrosim.errors import (
    InvalidSpec,
    InvertedElement,
    NonPositiveAtrophy,
    ShapeMismatch,
    SingularGrowth,
)
from atrosim.fields import (
    BACKGROUND,
    CSF,
    DGM,
    GM,
    WM,
    DisplacementField,
    LabelField,
    ScalarField,
    TensorField,
)

from oracles import ref_total_loss


def tile(mat, h=3, w=3):
    return TensorField(np.tile(np.asarray(mat, dtype=float), (h, w, 1, 1)))


def simple_labels(h=6, w=6):
    lab = np.full((h, w), BACKGROUND, dtype=np.uint8)
    lab[1:-1, 1:-1] = CSF
    lab[2:-2, 2:-2] = GM
    lab[3, 3] = WM
    return LabelField(lab)


class TestEnergyParams:
    def test_defaults(self):
        p = EnergyParams()
        assert (p.alpha, p.beta, p.bulk_ratio) == (1.0, 2.0, 100.0)
        assert (p.mu_tissue, p.mu_csf) == (1.0, 0.01)
        assert (p.lambda1, p.lambda2) == (0.1, 100.0)

    def test_wrong_exponents_rejected(self):
        with pytest.raises(InvalidSpec):
            EnergyParams(alpha=0.5)

    def test_nonpositive_modulus(self):
        with pytest.raises(InvalidSpec):
            EnergyParams(mu_csf=0.0)

    def test_unknown_convention(self):
        with pytest.raises(InvalidSpec):
            EnergyParams(convention="other")


class TestMaterialMap:
    def test_values(self):
        lab = LabelField(np.array([[BACKGROUND, CSF, GM],
                                   [WM, DGM, BACKGROUND]], dtype=np.uint8))
        mu = material_map(lab, EnergyParams())
        assert np.array_equal(mu, [[0.0, 0.01, 1.0], [1.0, 1.0, 0.0]])


class TestGrowthScale:
    def test_jacobian_convention_sqrt(self):
        a = ScalarField(np.full((3, 3), 0.9))
        g = growth_scale(a, EnergyParams(convention=CONVENTION_JACOBIAN))
        assert np.allclose(g, 0.9 ** 0.5)

    def test_paper_convention_inverse_sqrt(self):
        a = ScalarField(np.full((3, 3), 0.9))
        g = growth_scale(a, EnergyParams(convention=CONVENTION_PAPER))
        assert np.allclose(g, 0.9 ** -0.5)

    def test_nonpositive_atrophy(self):
        vals = np.ones((3, 3))
        vals[0, 0] = 0.0
        with pytest.raises(NonPositiveAtrophy):
            growth_scale(ScalarField(vals), EnergyParams())

    def test_growth_tensor_diagonal(self):
        a = ScalarField(np.full((3, 3), 1.21))
        G = growth_tensor(a, EnergyParams())
        assert np.allclose(G.m[..., 0, 0], 1.1)
        assert np.allclose(G.m[..., 1, 1], 1.1)
        assert np.all(G.m[..., 0, 1] == 0.0)


class TestElasticGradient:
    def test_divides_by_scale(self):
        F = tile([[1.2, 0.1], [0.0, 0.8]])
        G = tile([[2.0, 0.0], [0.0, 2.0]])
        fk = elastic_gradient(F, G)
        assert np.allclose(fk.m, F.m / 2.0)

    def test_singular_growth(self):
        F = tile(np.eye(2))
        G = tile(np.zeros((2, 2)))
        with pytest.raises(SingularGrowth):
            elastic_gradient(F, G)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            elastic_gradient(tile(np.eye(2), 3, 3), tile(np.eye(2), 3, 4))


class TestStrainEnergyDensity:
    def test_rest_state_zero(self):
        w = strain_energy_density(tile(np.eye(2)), np.ones((3, 3)), EnergyParams())
        assert np.allclose(w.values, 0.0)

    def test_uniaxial_stretch_value(self):
        # diag(1.1, 1.0): tr = 2.21, J = 1.1
        # W = 0.5*(2.21/1.1 - 2) + 50*(0.1)^2 = 0.1/2.2 + 0.5
        w = strain_energy_density(tile(np.diag([1.1, 1.0])),
                                  np.ones((3, 3)), EnergyParams())
        assert np.allclose(w.values, 0.5045454545, atol=1e-9)

    def test_mu_zero_contributes_zero_even_if_inverted(self):
        mu = np.ones((3, 3))
        mu[1, 1] = 0.0
        m = np.tile(np.eye(2), (3, 3, 1, 1))
        m[1, 1] = [[-1.0, 0.0], [0.0, 1.0]]  # J = -1 on the mu=0 pixel
        w = strain_energy_density(TensorField(m), mu, EnergyParams())
        assert np.allclose(w.values, 0.0)

    def test_inverted_material_pixel_raises(self):
        m = np.tile(np.eye(2), (3, 3, 1, 1))
        m[1, 1] = [[-1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(InvertedElement):
            strain_energy_density(TensorField(m), np.ones((3, 3)), EnergyParams())

    def test_scales_linearly_with_mu(self):
        fk = tile(np.diag([1.1, 1.0]))
        w1 = strain_energy_density(fk, np.full((3, 3), 1.0), EnergyParams())
        w2 = strain_energy_density(fk, np.full((3, 3), 0.01), EnergyParams())
        assert np.allclose(w2.values, 0.01 * w1.values)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        fk = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
        if fk[0, 0] * fk[1, 1] - fk[0, 1] * fk[1, 0] <= 1e-3:
            return
        phi = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        p = EnergyParams()
        w_plain = strain_energy_density(tile(fk, 2, 2), np.ones((2, 2)), p)
        w_rot = strain_energy_density(tile(rot @ fk, 2, 2), np.ones((2, 2)), p)
        assert np.allclose(w_plain.values, w_rot.values, atol=1e-10)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_near_identity(self, seed):
        rng = np.random.default_rng(seed)
        fk = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        w = strain_energy_density(tile(fk, 2, 2), np.ones((2, 2)), EnergyParams())
        assert np.all(w.values >= -1e-12)


class TestTotalLoss:
    def test_rest_state_zero(self):
        labels = simple_labels()
        u = DisplacementField.zeros(6, 6)
        a = ScalarField(np.ones((6, 6)))
        lb = total_loss(u, a, labels, EnergyParams())
        assert lb.total == 0.0
        assert lb.energy == 0.0
        assert lb.background_penalty == 0.0
        assert lb.center_penalty == 0.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        labels = simple_labels()
        u = DisplacementField(0.05 * rng.normal(size=(6, 6)),
                              0.05 * rng.normal(size=(6, 6)))
        a = ScalarField(rng.uniform(0.9, 1.1, (6, 6)))
        lb = total_loss(u, a, labels, EnergyParams())
        ref = ref_total_loss(u.ux, u.uy, a.values, labels.labels)
        assert np.isclose(lb.total, ref, rtol=1e-12)

    def test_matches_loop_reference_paper_convention(self):
        rng = np.random.default_rng(8)
        labels = simple_labels()
        u = DisplacementField(0.05 * rng.normal(size=(6, 6)),
                              0.05 * rng.normal(size=(6, 6)))
        a = ScalarField(rng.uniform(0.9, 1.1, (6, 6)))
        p = EnergyParams(convention=CONVENTION_PAPER)
        lb = total_loss(u, a, labels, p)
        ref = ref_total_loss(u.ux, u.uy, a.values, labels.labels,
                             convention="paper")
        assert np.isclose(lb.total, ref, rtol=1e-12)

    def test_background_penalty_weighting(self):
        labels = simple_labels()
        ux = np.zeros((6, 6))
        ux[0, 0] = 0.5  # background corner; the kink never reaches material pixels
        lb = total_loss(DisplacementField(ux, np.zeros((6, 6))),
                        ScalarField(np.ones((6, 6))), labels, EnergyParams())
        assert np.isclose(lb.background_penalty, 0.25)
        assert np.isclose(lb.total, 0.1 * 0.25)

    def test_center_penalty_weighting(self):
        labels = simple_labels()
        # center of mass of GM/WM over rows/cols 2..3 is (2.5, 2.5) -> (2, 2)
        ux = np.zeros((6, 6))
        ux[2, 2] = 0.01
        lb = total_loss(DisplacementField(ux, np.zeros((6, 6))),
                        ScalarField(np.ones((6, 6))), labels, EnergyParams())
        assert np.isclose(lb.center_penalty, 1e-4)
        assert np.isclose(lb.total, lb.energy + 100.0 * 1e-4 + 0.1 * lb.background_penalty)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            total_loss(DisplacementField.zeros(6, 6),
                       ScalarField(np.ones((5, 6))), simple_labels(),
                       EnergyParams())

    def test_uniform_atrophy_zero_energy_when_matched(self):
        # a constant everywhere and u realizing the exact shrink about the
        # center gives J = 1: only the Neo-Hookean rest point remains
        labels = LabelField(np.full((8, 8), GM, dtype=np.uint8))
        a_val = 0.81
        scale = np.sqrt(a_val)  # linear shrink factor with det = a
        c = 3.5
        ys, xs = np.mgrid[0:8, 0:8].astype(float)
        u = DisplacementField((scale - 1.0) * (xs - c), (scale - 1.0) * (ys - c))
        a = ScalarField(np.full((8, 8), a_val))
        lb = total_loss(u, a, labels, EnergyParams())
        assert lb.energy < 1e-20
