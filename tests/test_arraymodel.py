"""Array geometry, steering vectors, channel synthesis, and noise."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import FrozenInstanceError

from nearfield.arraymodel import (ArrayConfig, Measurement, PathParams,
                                  add_noise, distance_basis, distance_steering,
                                  element_distances, los_gain, near_steering,
                                  near_steering_blocks, synthesize_channel)
from nearfield.estimator import THETA_EDGE
from tests.conftest import random_path
from tests.reference import (ORACLE_DIGITS, ORACLE_RTOL, _mp_distance_derivatives,
                             as_vector, basis_derivatives, far_steering,
                             stacked_distance_derivatives)


class TestArrayConfig:
    def test_defaults_half_wavelength_spacing(self):
        cfg = ArrayConfig(num_antennas=64, wavelength=0.003)
        assert cfg.spacing == pytest.approx(0.0015)
        assert cfg.aperture == pytest.approx(0.096)
        assert cfg.rayleigh_distance == pytest.approx(64**2 * 0.003 / 2)
        assert cfg.min_near_distance == pytest.approx(1.2 * 0.096)
        assert cfg.wavenumber == pytest.approx(2 * np.pi / 0.003)

    def test_wide_rayleigh_distance(self, wide_array):
        assert wide_array.rayleigh_distance == pytest.approx(98.304)

    @pytest.mark.parametrize("kwargs", [
        {"num_antennas": 1, "wavelength": 0.003},
        {"num_antennas": 64, "wavelength": 0.0},
        {"num_antennas": 64, "wavelength": 0.003, "spacing": -1.0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ArrayConfig(**kwargs)


class TestPathParams:
    @pytest.mark.parametrize("kwargs", [
        {"theta": 0.0, "r": 1.0, "g": 1.0},
        {"theta": np.pi, "r": 1.0, "g": 1.0},
        {"theta": 1.0, "r": 0.0, "g": 1.0},
        {"theta": 1.0, "r": 1.0, "g": -0.1},
    ])
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ValueError):
            PathParams(**kwargs)

    def test_as_vector_order(self):
        p = PathParams(theta=1.0, r=2.0, g=3.0, phi=4.0)
        assert np.array_equal(as_vector(p), [1.0, 2.0, 3.0, 4.0])


class TestOffsetsAndDistances:
    def test_offsets_symmetric(self, wide_array):
        x = wide_array.offsets
        assert x[0] == -127.5 * wide_array.spacing
        assert x[-1] == 127.5 * wide_array.spacing
        assert np.array_equal(x, -x[::-1])

    def test_offsets_m64(self, desk_array):
        x = desk_array.offsets
        assert x[0] == -31.5 * desk_array.spacing
        assert x[-1] == 31.5 * desk_array.spacing

    def test_offsets_cached_and_read_only(self):
        cfg = ArrayConfig(num_antennas=8, wavelength=0.003)
        for name in ("offsets", "offsets_sq"):
            value = getattr(cfg, name)
            assert getattr(cfg, name) is value
            with pytest.raises(ValueError):
                value[0] = 0.0
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, value)
        assert np.array_equal(cfg.offsets_sq, cfg.offsets**2)

    def test_derived_lengths_cached(self):
        # Cached on first read, the values a fresh computation gives; the
        # config still compares and hashes by its three fields alone.
        cfg = ArrayConfig(num_antennas=8, wavelength=0.003)
        want = {"aperture": 8 * 0.0015, "wavenumber": 2 * np.pi / 0.003,
                "rayleigh_distance": 2 * (8 * 0.0015) ** 2 / 0.003,
                "min_near_distance": 1.2 * (8 * 0.0015)}
        for name, value in want.items():
            assert getattr(cfg, name) == value
            assert name in vars(cfg)
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, value)
        fresh = ArrayConfig(num_antennas=8, wavelength=0.003)
        assert fresh == cfg and hash(fresh) == hash(cfg)

    def test_element_distance_law_of_cosines(self):
        # M=2, m=1: delta=+1/2, d=0.0015, theta=pi/2 -> sqrt(r^2 + (d/2)^2).
        cfg = ArrayConfig(num_antennas=2, wavelength=0.003)
        got = element_distances(cfg, np.pi / 2, 10.0)[1]
        assert got == pytest.approx(np.sqrt(100.0 + 0.00075**2), abs=1e-12)
        assert got == pytest.approx(10.0000000281, abs=1e-9)

    def test_element_distance_oracle(self, desk_array, rng):
        # Direct coordinate-geometry oracle: source at (r cos, r sin),
        # element at (delta*d, 0).
        for _ in range(20):
            p = random_path(desk_array, rng)
            m = int(rng.integers(0, desk_array.num_antennas))
            # theta is measured from the -x array axis: element m sits at
            # -delta_m d on the x axis (the +2*delta*d*r*cos factor fixes this).
            src = np.array([p.r * np.cos(p.theta), p.r * np.sin(p.theta)])
            elem = np.array([-desk_array.offsets[m], 0.0])
            assert element_distances(desk_array, p.theta, p.r)[m] == pytest.approx(
                np.linalg.norm(src - elem), rel=1e-12)

    @pytest.mark.parametrize("num_antennas", [64, 256])
    def test_derivatives_equal_stacked_form(self, num_antennas, rng):
        # Row-filled and stacked forms of the basis rows evaluate the same
        # expressions, so they agree bit for bit, endfire angles and annulus
        # edges included.
        cfg = ArrayConfig(num_antennas=num_antennas, wavelength=0.003)
        thetas = [THETA_EDGE, 1e-3, np.pi / 2, np.pi - 1e-3, np.pi - THETA_EDGE,
                  *np.arccos(rng.uniform(-1.0, 1.0, 8))]
        radii = [cfg.min_near_distance, cfg.rayleigh_distance,
                 *rng.uniform(cfg.min_near_distance, cfg.rayleigh_distance, 3)]
        for theta in thetas:
            for r in radii:
                r_m = element_distances(cfg, float(theta), float(r))
                got = distance_basis(cfg, float(theta), float(r), r_m)
                want = stacked_distance_derivatives(cfg, float(theta), float(r))
                assert np.array_equal(r_m, want[0])
                assert np.array_equal(got, want[1])

    @pytest.mark.parametrize("num_antennas", [64, 256])
    def test_basis_rows_match_extended_precision_oracle(self, num_antennas, rng):
        # The first and second derivatives formed from the basis rows keep
        # every entry to ORACLE_RTOL of mpmath's textbook derivatives, near
        # endfire and at both annulus edges, where forming dr_m/dr - 1 by
        # subtraction would leave no correct digit.
        cfg = ArrayConfig(num_antennas=num_antennas, wavelength=0.003)
        near, far = cfg.min_near_distance, cfg.rayleigh_distance
        points = [(THETA_EDGE, near), (1e-3, far), (np.pi - 1e-3, near),
                  (np.pi / 2, far), *zip(np.arccos(rng.uniform(-1.0, 1.0, 3)),
                                         rng.uniform(near, far, 3))]
        for theta, r in points:
            theta, r = float(theta), float(r)
            rows = stacked_distance_derivatives(cfg, theta, r)[1]
            got = basis_derivatives(cfg, theta, r, rows)
            with mpmath.workdps(ORACLE_DIGITS):
                oracle = _mp_distance_derivatives(cfg, theta, r)
                want = np.array([[float(d_t), float(d_r - 1), float(d_tt),
                                  float(d_tr), float(d_rr)]
                                 for _, d_t, d_r, d_tt, d_tr, d_rr in oracle]).T
            assert np.all(np.abs(got - want) <= ORACLE_RTOL * np.abs(want)), (theta, r)


class TestSteering:
    def test_conjugate_and_blocks_bit_for_bit(self, wide_array, rng):
        # The conjugate steering vector flips only the signs of the imaginary
        # parts, and the blocked float64 columns are near_steering's, bit
        # for bit, across block boundaries.
        theta = np.arccos(rng.uniform(-1.0, 1.0, 150))
        r = rng.uniform(wide_array.min_near_distance, wide_array.rayleigh_distance, 150)
        got = np.concatenate([B for _, B in near_steering_blocks(wide_array, theta, r)],
                             axis=1)
        for j, (t, d) in enumerate(zip(theta.tolist(), r.tolist())):
            b = near_steering(wide_array, t, d)
            r_m = element_distances(wide_array, t, d)
            assert got[:, j].tobytes() == b.tobytes()
            assert distance_steering(wide_array, r_m, d, conj=True).tobytes() \
                == b.conj().tobytes()

    def test_unit_modulus_and_norm(self, desk_array, rng):
        for _ in range(10):
            p = random_path(desk_array, rng)
            b = near_steering(desk_array, p.theta, p.r)
            assert np.allclose(np.abs(b), 1.0, atol=1e-12)
            assert np.linalg.norm(b) ** 2 == pytest.approx(64.0, abs=1e-9)

    def test_two_element_phase(self):
        cfg = ArrayConfig(num_antennas=2, wavelength=0.003)
        b = near_steering(cfg, np.pi / 2, 10.0)
        phases = np.angle(b)
        assert np.allclose(phases, 5.89e-5, atol=2e-6)
        assert phases[0] == pytest.approx(phases[1], abs=1e-12)

    @staticmethod
    def _phase_deviation(cfg, theta, r):
        # far_steering indexes elements from m=0 while near_steering is
        # centered, so compare up to the resulting global phase.
        rel = near_steering(cfg, theta, r) * far_steering(cfg, theta).conj()
        rel = rel * np.exp(-1j * np.angle(np.mean(rel)))
        return np.abs(np.angle(rel)).max()

    def test_far_field_limit(self, desk_array):
        r = 1e6 * desk_array.rayleigh_distance
        assert self._phase_deviation(desk_array, 1.1, r) < 1e-3

    def test_far_field_deviation_decreases(self, desk_array):
        # Stay below ~1e4 * r_R: beyond that the r_m - r cancellation error
        # exceeds the true wavefront-curvature residual.
        devs = [self._phase_deviation(desk_array, 2.0, r)
                for r in desk_array.rayleigh_distance * np.logspace(0, 4, 9)]
        assert all(a >= b for a, b in zip(devs, devs[1:]))


class TestChannel:
    def test_rejects_empty(self, desk_array):
        with pytest.raises(ValueError):
            synthesize_channel(desk_array, [])

    def test_linearity(self, desk_array, rng):
        paths = [random_path(desk_array, rng) for _ in range(3)]
        whole = synthesize_channel(desk_array, paths)
        parts = sum(synthesize_channel(desk_array, [p]) for p in paths)
        assert np.allclose(whole, parts, atol=1e-12)

    def test_energy_matches_elementwise_sum(self, desk_array, rng):
        paths = [random_path(desk_array, rng) for _ in range(3)]
        h = synthesize_channel(desk_array, paths)
        ref = np.zeros(64, dtype=complex)
        for p in paths:
            r_m = element_distances(desk_array, p.theta, p.r)
            ref += p.g * np.exp(1j * (p.phi + desk_array.wavenumber * (r_m - p.r)))
        assert np.linalg.norm(h) ** 2 == pytest.approx(
            np.linalg.norm(ref) ** 2, rel=1e-12)


class TestNoise:
    def test_zero_sigma_copies(self, desk_array):
        h = near_steering(desk_array, 1.0, 1.0)
        m = add_noise(h, 0.0, 7)
        assert np.array_equal(m.y, h)
        assert m.noise_variance == 0.0

    def test_variance_statistics(self):
        rng = np.random.default_rng(3)
        h = np.zeros(256, dtype=complex)
        samples = np.concatenate(
            [add_noise(h, 1.0, rng).y for _ in range(40)])  # 10240 draws
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, abs=0.03)

    def test_seeded_reproducibility(self, desk_array):
        h = near_steering(desk_array, 1.0, 1.0)
        assert np.array_equal(add_noise(h, 0.1, 42).y, add_noise(h, 0.1, 42).y)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(4), -1.0, 0)

    def test_measurement_validation(self):
        with pytest.raises(ValueError):
            Measurement(y=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Measurement(y=np.zeros(4), noise_variance=-1.0)


class TestLosGain:
    def test_free_space_value(self):
        assert los_gain(0.003, 1.0, 10.0) == pytest.approx(2.3873e-5, rel=1e-4)

    @given(r=st.floats(0.1, 1e4), p_t=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_scaling_laws(self, r, p_t):
        g = los_gain(0.003, p_t, r)
        assert g == pytest.approx(los_gain(0.003, p_t, 2 * r) * 2, rel=1e-12)
        assert g == pytest.approx(los_gain(0.003, 4 * p_t, r) / 2, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            los_gain(0.003, 1.0, 0.0)
        with pytest.raises(ValueError):
            los_gain(0.003, 0.0, 1.0)
