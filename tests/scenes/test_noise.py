"""Tests for the value-noise texture primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noise_reference as oracle
from repro.scenes.noise import _bilinear_upsample, fractal_noise, value_noise


class TestValueNoise:
    def test_output_in_unit_interval(self, rng):
        field = value_noise((32, 48), cell=8, rng=rng)
        assert field.min() >= 0.0
        assert field.max() <= 1.0

    def test_shape(self, rng):
        assert value_noise((7, 13), cell=4, rng=rng).shape == (7, 13)

    def test_deterministic_given_seed(self):
        a = value_noise((16, 16), cell=4, rng=np.random.default_rng(5))
        b = value_noise((16, 16), cell=4, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_smooth_at_large_cells(self):
        field = value_noise((64, 64), cell=32, rng=np.random.default_rng(0))
        gradients = np.abs(np.diff(field, axis=0))
        assert gradients.max() < 0.1  # bilinear between sparse nodes

    def test_rough_at_small_cells(self):
        smooth = value_noise((64, 64), cell=32, rng=np.random.default_rng(0))
        rough = value_noise((64, 64), cell=2, rng=np.random.default_rng(0))
        assert np.abs(np.diff(rough, axis=0)).mean() > np.abs(np.diff(smooth, axis=0)).mean()

    def test_rejects_bad_cell(self, rng):
        with pytest.raises(ValueError, match="cell"):
            value_noise((8, 8), cell=0, rng=rng)

    def test_rejects_empty_shape(self, rng):
        with pytest.raises(ValueError, match="shape"):
            value_noise((0, 8), cell=4, rng=rng)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=20),
    )
    def test_bounds_property(self, height, width, cell):
        rng = np.random.default_rng(height * 100 + width + cell)
        field = value_noise((height, width), cell=cell, rng=rng)
        assert field.shape == (height, width)
        assert field.min() >= 0.0 and field.max() <= 1.0


class TestFractalNoise:
    def test_output_in_unit_interval(self, rng):
        field = fractal_noise((32, 32), cell=16, rng=rng, octaves=4)
        assert field.min() >= 0.0
        assert field.max() <= 1.0

    def test_single_octave_matches_value_noise_statistics(self):
        a = fractal_noise((32, 32), cell=8, rng=np.random.default_rng(2), octaves=1)
        b = value_noise((32, 32), cell=8, rng=np.random.default_rng(2))
        assert np.allclose(a, b)

    def test_more_octaves_more_detail(self):
        coarse = fractal_noise((64, 64), cell=32, rng=np.random.default_rng(1), octaves=1)
        fine = fractal_noise((64, 64), cell=32, rng=np.random.default_rng(1), octaves=5)
        # Octave amplitudes are normalized, so compare *relative*
        # high-frequency content (curvature per unit contrast).
        def curvature(field):
            return np.abs(np.diff(field, 2, axis=1)).mean() / field.std()

        assert curvature(fine) > 2 * curvature(coarse)

    def test_rejects_bad_octaves(self, rng):
        with pytest.raises(ValueError, match="octaves"):
            fractal_noise((8, 8), cell=4, rng=rng, octaves=0)

    def test_rejects_bad_persistence(self, rng):
        with pytest.raises(ValueError, match="persistence"):
            fractal_noise((8, 8), cell=4, rng=rng, persistence=0.0)


def _assert_same_array(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


class TestUpsampleOracle:
    """The row-first upsampler equals the four-gather one byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        lattice_shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        height=st.integers(1, 70),
        width=st.integers(1, 70),
        seed=st.integers(0, 2**16),
    )
    def test_equals_oracle(self, lattice_shape, height, width, seed):
        """Every lattice from 1x1 (no neighbour to blend with) up, any output size."""
        lattice = np.random.default_rng(seed).random(lattice_shape)
        _assert_same_array(
            _bilinear_upsample(lattice, (height, width)),
            oracle._bilinear_upsample(lattice, (height, width)),
        )

    @pytest.mark.parametrize(
        "lattice_shape, shape",
        [
            ((2, 2), (1, 1)),
            ((2, 2), (2, 2)),
            ((2, 2), (64, 48)),
            ((2, 9), (1, 37)),  # 1xN output
            ((9, 2), (37, 1)),  # Nx1 output
            ((2, 2), (1, 5)),  # width below a 16-pixel cell
            ((2, 2), (5, 3)),
            ((14, 14), (192, 192)),
            ((194, 194), (192, 192)),  # one lattice node per pixel
        ],
    )
    def test_edge_shapes_equal_oracle(self, lattice_shape, shape):
        lattice = np.random.default_rng(sum(shape)).random(lattice_shape)
        _assert_same_array(
            _bilinear_upsample(lattice, shape), oracle._bilinear_upsample(lattice, shape)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        cell=st.integers(1, 48),
        seed=st.integers(0, 2**16),
    )
    def test_value_noise_equals_oracle_upsample(self, height, width, cell, seed):
        """Through ``value_noise``'s own lattice sizes, widths below the cell included."""
        field = value_noise((height, width), cell=cell, rng=np.random.default_rng(seed))
        lat_h = max(2, -(-height // cell) + 1)
        lat_w = max(2, -(-width // cell) + 1)
        lattice = np.random.default_rng(seed).random((lat_h, lat_w))
        _assert_same_array(field, oracle._bilinear_upsample(lattice, (height, width)))
