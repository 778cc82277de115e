"""Fisher information and CRLB against finite-difference oracles."""

import numpy as np
import pytest

from nearfield.arraymodel import PathParams, near_steering, synthesize_channel
from nearfield.bounds import crlb_diag, fim, steering_derivatives
from nearfield.estimator import grad_hess, project
from nearfield.harness import draw_paths, load_scenario
from tests.conftest import random_path
from tests.reference import (ORACLE_RTOL, as_vector, central_differences,
                             oracle_steering_derivatives, turn_case)


def signal_of(cfg, x):
    """Single-path signal g e^{j phi} b(theta, r) as a function of the
    parameter vector, for finite differencing."""
    theta, r, g, phi = x
    return g * np.exp(1j * phi) * near_steering(cfg, theta, r)


def fd_jacobian(cfg, p: PathParams, h=None):
    if h is None:
        h = np.array([1e-7, 1e-7 * max(p.r, 1.0), 1e-7, 1e-7])
    return central_differences(lambda v: signal_of(cfg, v), as_vector(p), h)


class TestSteeringDerivatives:
    def test_matches_central_fd(self, desk_array, rng):
        for _ in range(20):
            p = random_path(desk_array, rng)
            ana = steering_derivatives(desk_array, p)
            num = fd_jacobian(desk_array, p)
            assert np.linalg.norm(ana - num) <= 1e-6 * np.linalg.norm(num)

    @pytest.mark.parametrize("kind", ["mid", "endfire", "far_edge"])
    @pytest.mark.parametrize("array", ["desk_array", "wide_array"])
    def test_matches_extended_precision_oracle(self, request, rng, array, kind):
        # Entry by entry, so the central elements, whose dr_m/dr - 1 is the
        # smallest, are held to the same relative error as the outer ones.
        cfg = request.getfixturevalue(array)
        for _ in range(6):
            p = turn_case(cfg, kind, rng.uniform(size=7))[1]
            got = steering_derivatives(cfg, p)
            want = oracle_steering_derivatives(cfg, p)
            assert np.all(np.abs(got - want) <= ORACLE_RTOL * np.abs(want)), p

    def test_gain_derivative_is_unit_steering(self, desk_array, rng):
        p = random_path(desk_array, rng)
        v = steering_derivatives(desk_array, p)
        b = np.exp(1j * p.phi) * near_steering(desk_array, p.theta, p.r)
        assert np.allclose(v[2], b, atol=1e-12)
        assert np.allclose(v[3], 1j * p.g * b, atol=1e-12)


class TestFim:
    def test_single_path_gain_information(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.4)
        F = fim(desk_array, [p], sigma2=1.0)
        assert F[2, 2] == pytest.approx(128.0, rel=1e-12)  # 2M/sigma^2

    def test_gain_row_decouples(self, desk_array, rng):
        # Cross inner products v_g^H v_x are purely imaginary, so the gain
        # row of the FIM vanishes off-diagonal.
        for _ in range(5):
            p = random_path(desk_array, rng)
            F = fim(desk_array, [p], sigma2=1.0)
            assert abs(F[2, 0]) < 1e-9 * abs(F[2, 2])
            assert abs(F[2, 1]) < 1e-9 * abs(F[2, 2])
            assert abs(F[2, 3]) < 1e-9 * abs(F[2, 2])

    def test_symmetric_psd(self, desk_array, rng):
        paths = [random_path(desk_array, rng) for _ in range(2)]
        F = fim(desk_array, paths, sigma2=0.01)
        assert F.shape == (8, 8)
        assert np.allclose(F, F.T, atol=1e-9)
        assert np.linalg.eigvalsh(F).min() >= -1e-9 * np.linalg.norm(F)

    def test_matches_fd_construction(self, desk_array, rng):
        for _ in range(20):
            sigma2 = float(rng.uniform(0.001, 1.0))
            p = random_path(desk_array, rng)
            F = fim(desk_array, [p], sigma2)
            J = fd_jacobian(desk_array, p)
            F_fd = 2.0 / sigma2 * np.real(J.conj() @ J.T)
            assert np.linalg.norm(F - F_fd) <= 1e-5 * np.linalg.norm(F_fd)

    @pytest.mark.parametrize("array", ["desk_array", "wide_array"])
    def test_is_minus_objective_hessian_at_noiseless_truth(self, array, request,
                                                            rng):
        # The estimator's objective is ||y||^2 - ||y - s||^2, whose Hessian
        # at y = s is -2 Re{J^H J}: the FIM at sigma^2 = 1, negated.
        cfg = request.getfixturevalue(array)
        for _ in range(10):
            p = random_path(cfg, rng)
            F = fim(cfg, [p], 1.0)
            y = synthesize_channel(cfg, [p])
            _, H = grad_hess(cfg, project(cfg, y, p.theta, p.r), p)
            np.testing.assert_allclose(H, -F, rtol=1e-9,
                                       atol=1e-9 * np.abs(F).max())

    def test_scales_inversely_with_sigma2(self, desk_array, rng):
        p = random_path(desk_array, rng)
        F1 = fim(desk_array, [p], 1.0)
        F2 = fim(desk_array, [p], 2.0)
        assert np.allclose(F1, 2 * F2, rtol=1e-12)

    def test_rejects_bad_sigma2(self, desk_array, rng):
        with pytest.raises(ValueError):
            fim(desk_array, [random_path(desk_array, rng)], 0.0)


class TestCrlb:
    def test_single_path_gain_bound_exact(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.4)
        for sigma2 in (1.0, 0.01):
            F = fim(desk_array, [p], sigma2)
            var = crlb_diag(F)
            assert abs(var[2] - sigma2 / (2 * 64)) < 1e-12

    def test_far_separated_paths_block_diagonalize(self, desk_array):
        p1 = PathParams(theta=0.8, r=1.5, g=1.0, phi=0.3)
        p2 = PathParams(theta=2.4, r=3.0, g=1.0, phi=1.9)
        F12 = fim(desk_array, [p1, p2], 1.0)
        v12 = crlb_diag(F12)
        v1 = crlb_diag(fim(desk_array, [p1], 1.0))
        v2 = crlb_diag(fim(desk_array, [p2], 1.0))
        assert np.allclose(v12, np.concatenate([v1, v2]), rtol=0.01)

    def test_near_coincident_paths_flagged(self, desk_array):
        p1 = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.3)
        p2 = PathParams(theta=1.3 + 1e-9, r=2.0, g=1.0, phi=0.3)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            crlb_diag(fim(desk_array, [p1, p2], 1.0))

    def test_crlb_shrinks_with_snr(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.4)
        hi = crlb_diag(fim(desk_array, [p], 0.001))
        lo = crlb_diag(fim(desk_array, [p], 0.1))
        assert np.all(hi < lo)

    @pytest.mark.parametrize("path", ["scenarios/tab2_desk.json",
                                      "scenarios/tab2_paper.json"])
    def test_bundled_draws_are_well_conditioned(self, path):
        # Their raw FIMs reach condition numbers of 1e13-3e19 from units
        # alone (radians, metres, gains of 1e-7); equilibrated they are
        # well conditioned. Every variance obeys [F^-1]_ii >= 1/F_ii.
        scenario = load_scenario(path)
        rng = np.random.default_rng(12)
        for paths in draw_paths(scenario, rng):
            F = fim(scenario.array, paths, scenario.sigma2)
            var = crlb_diag(F)
            assert np.all(var * np.diag(F) >= 1.0 - 1e-9)
