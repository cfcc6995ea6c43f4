import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrosim.biomech import CONVENTION_PAPER
from atrosim.errors import EmptyMask, InvalidSpec, ShapeMismatch
from atrosim.fields import GM, WM, DisplacementField, LabelField, ScalarField
from atrosim.metrics import dice, mse_atrophy, mse_image


def brain_labels(n=6):
    lab = np.zeros((n, n), dtype=np.uint8)
    lab[1:-1, 1:-1] = GM
    return LabelField(lab)


class TestMseAtrophy:
    def test_zero_displacement_unit_atrophy(self):
        a = ScalarField(np.ones((6, 6)))
        u = DisplacementField.zeros(6, 6)
        assert mse_atrophy(a, u, brain_labels()) == 0.0

    def test_exact_uniform_shrink(self):
        n = 8
        lab = LabelField(np.full((n, n), GM, dtype=np.uint8))
        a_val = 0.9
        scale = np.sqrt(a_val)
        c = (n - 1) / 2.0
        ys, xs = np.mgrid[0:n, 0:n].astype(float)
        u = DisplacementField((scale - 1.0) * (xs - c), (scale - 1.0) * (ys - c))
        a = ScalarField(np.full((n, n), a_val))
        assert mse_atrophy(a, u, lab) < 1e-28

    def test_paper_convention_target_is_inverse(self):
        n = 8
        lab = LabelField(np.full((n, n), GM, dtype=np.uint8))
        a_val = 1.0 / 0.9  # paper convention: det(G) = 1/a = 0.9
        scale = np.sqrt(0.9)
        c = (n - 1) / 2.0
        ys, xs = np.mgrid[0:n, 0:n].astype(float)
        u = DisplacementField((scale - 1.0) * (xs - c), (scale - 1.0) * (ys - c))
        a = ScalarField(np.full((n, n), a_val))
        assert mse_atrophy(a, u, lab, convention=CONVENTION_PAPER) < 1e-28
        assert mse_atrophy(a, u, lab) > 1e-2

    def test_unknown_convention(self):
        a = ScalarField(np.ones((6, 6)))
        with pytest.raises(InvalidSpec):
            mse_atrophy(a, DisplacementField.zeros(6, 6), brain_labels(),
                        convention="inverse")

    def test_masked_vs_unmasked(self):
        lab = brain_labels()
        a_vals = np.ones((6, 6))
        a_vals[0, 0] = 2.0  # background pixel: only the unmasked mean sees it
        a = ScalarField(a_vals)
        u = DisplacementField.zeros(6, 6)
        assert mse_atrophy(a, u, lab, masked=True) == 0.0
        assert np.isclose(mse_atrophy(a, u, lab, masked=False), 1.0 / 36.0)

    def test_empty_brain_raises(self):
        lab = LabelField(np.zeros((6, 6), dtype=np.uint8))
        with pytest.raises(EmptyMask):
            mse_atrophy(ScalarField(np.ones((6, 6))),
                        DisplacementField.zeros(6, 6), lab)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse_atrophy(ScalarField(np.ones((6, 6))),
                        DisplacementField.zeros(6, 5), brain_labels())


class TestMseImage:
    def test_identical(self):
        x = ScalarField(np.arange(12.0).reshape(3, 4))
        assert mse_image(x, x) == 0.0

    def test_constant_offset(self):
        x = ScalarField(np.zeros((3, 4)))
        y = ScalarField(np.full((3, 4), 0.5))
        assert np.isclose(mse_image(x, y), 0.25)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = ScalarField(rng.uniform(size=(5, 5)))
        y = ScalarField(rng.uniform(size=(5, 5)))
        assert mse_image(x, y) == mse_image(y, x)


class TestDice:
    def test_identical(self):
        lab = brain_labels()
        assert dice(lab, lab, GM) == 1.0

    def test_disjoint(self):
        x = np.zeros((4, 4), dtype=np.uint8)
        y = np.zeros((4, 4), dtype=np.uint8)
        x[0, 0] = GM
        y[3, 3] = GM
        assert dice(LabelField(x), LabelField(y), GM) == 0.0

    def test_half_overlap(self):
        x = np.zeros((4, 4), dtype=np.uint8)
        y = np.zeros((4, 4), dtype=np.uint8)
        x[0, 0:2] = WM
        y[0, 1:3] = WM
        assert dice(LabelField(x), LabelField(y), WM) == 0.5

    def test_both_empty_is_one(self):
        lab = LabelField(np.zeros((4, 4), dtype=np.uint8))
        assert dice(lab, lab, WM) == 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = LabelField(rng.integers(0, 5, (5, 5)).astype(np.uint8))
        y = LabelField(rng.integers(0, 5, (5, 5)).astype(np.uint8))
        for cls in range(5):
            d = dice(x, y, cls)
            assert 0.0 <= d <= 1.0
            assert d == dice(y, x, cls)
