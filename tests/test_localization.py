"""Coordinate transforms, covariance propagation, gating, and fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield.arraymodel import (Measurement, PathParams, add_noise,
                                  synthesize_channel)
from nearfield.codebook import CodebookConfig, build_codebook
from nearfield.estimator import EstimatorConfig, soft_estimates, vnnce
from nearfield.localization import (BsConfig, SoftPosition, consistency,
                                    gaussian_fuse, gfcl, is_front_side,
                                    polar_to_relative, position_covariance,
                                    position_hessian, relative_to_polar,
                                    to_global, _transform_coefficients)
from tests.reference import (as_vector, central_differences,
                             marginal_position_covariance, objective)


def random_psd_2x2(rng, scale=1.0):
    A = rng.normal(size=(2, 2)) * scale
    return A @ A.T + 1e-6 * scale**2 * np.eye(2)


class TestTransforms:
    def test_known_points(self):
        assert polar_to_relative(np.pi / 2, 10.0, np.pi / 2) == pytest.approx(
            (-10.0, 0.0), abs=1e-12)
        assert polar_to_relative(np.pi / 2, 5.0, 0.0) == pytest.approx(
            (0.0, 5.0), abs=1e-12)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            polar_to_relative(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            relative_to_polar(0.0, 0.0, 0.0)

    @given(theta=st.floats(0.01, np.pi - 0.01), r=st.floats(0.1, 100.0),
           omega=st.floats(-np.pi, np.pi))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, theta, r, omega):
        x, y = polar_to_relative(theta, r, omega)
        theta2, r2 = relative_to_polar(x, y, omega)
        assert r2 == pytest.approx(r, rel=1e-12)
        # Allow the 2*pi wrap of the angle representation.
        assert np.cos(theta2) == pytest.approx(np.cos(theta), abs=1e-9)
        assert np.sin(theta2) == pytest.approx(np.sin(theta), abs=1e-9)

    def test_front_side(self):
        assert is_front_side(0.1) and is_front_side(np.pi - 0.1)
        assert not is_front_side(0.0) and not is_front_side(-1.0)

    def test_coefficients_at_3_4(self):
        T, _, _ = _transform_coefficients(3.0, 4.0)
        assert T[1, 0] == pytest.approx(0.6)
        assert T[1, 1] == pytest.approx(0.8)
        assert T[0, 0] == pytest.approx(-4 / 25)
        assert T[0, 1] == pytest.approx(3 / 25)

    def test_coefficients_match_fd(self, rng):
        h = 1e-7
        for _ in range(10):
            x, y = rng.uniform(0.5, 5.0, size=2)
            T, hess_theta, hess_r = _transform_coefficients(x, y)

            fd = central_differences(
                lambda v: np.array([np.arctan2(v[1], v[0]), np.hypot(*v)]),
                np.array([x, y]), [h, h])
            assert np.allclose(T, fd.T, rtol=1e-5, atol=1e-8)
            # The Hessians are the derivatives of T's rows.
            fd2 = central_differences(lambda v: _transform_coefficients(*v)[0],
                                      np.array([x, y]), [h, h])
            assert np.allclose(hess_theta, fd2[:, 0], rtol=1e-5, atol=1e-8)
            assert np.allclose(hess_r, fd2[:, 1], rtol=1e-5, atol=1e-8)


class TestPositionHessian:
    def test_matches_fd_of_composed_objective(self, desk_array, rng):
        omega = 0.0
        for _ in range(10):
            truth = PathParams(theta=float(rng.uniform(0.4, np.pi - 0.4)),
                               r=float(rng.uniform(0.5, 4.0)), g=1.0,
                               phi=float(rng.uniform(0, 2 * np.pi)))
            y = synthesize_channel(desk_array, [truth])
            p = PathParams(theta=truth.theta + 0.002, r=truth.r * 1.01,
                           g=truth.g, phi=truth.phi)
            est = soft_estimates(desk_array, Measurement(y), [p])[0]
            ana = position_hessian(est, omega)

            x0 = np.array(polar_to_relative(p.theta, p.r, omega))

            def f_xy(v):
                theta, r = relative_to_polar(v[0], v[1], omega)
                return objective(desk_array, y,
                                 PathParams(theta=theta, r=r, g=p.g, phi=p.phi))

            h = [1e-5 * max(p.r, 1.0)] * 2
            num = central_differences(
                lambda v: central_differences(f_xy, v, h), x0, h)
            assert np.linalg.norm(ana - num) <= 1e-4 * max(
                np.linalg.norm(num), 1.0)

    def test_gradient_terms_match_fd_off_the_peak(self, desk_array):
        # Near the peak the gradient vanishes and T^T H T swamps the terms
        # f_theta Hess(theta) + f_r Hess(r). On the main lobe's flank of a
        # noiseless broadside path close to the array the gradient is large
        # and the angle curvature small, so each term must show up here.
        truth = PathParams(theta=np.pi / 2, r=0.2, g=1.0, phi=0.3)
        y = synthesize_channel(desk_array, [truth])
        p = PathParams(theta=truth.theta + 0.026, r=0.17, g=truth.g,
                       phi=truth.phi)
        omega = 0.4
        est = soft_estimates(desk_array, Measurement(y), [p])[0]
        x0 = np.array(polar_to_relative(p.theta, p.r, omega))
        _, hess_theta, hess_r = _transform_coefficients(*x0)
        terms = [est.grad[0] * hess_theta, est.grad[1] * hess_r]

        def f_xy(v):
            theta, r = relative_to_polar(v[0], v[1], omega)
            return objective(desk_array, y,
                             PathParams(theta=theta, r=r, g=p.g, phi=p.phi))

        h = [1e-5 * p.r] * 2
        num = central_differences(
            lambda v: central_differences(f_xy, v, h), x0, h)
        tol = 1e-2 * min(np.linalg.norm(t) for t in terms)
        assert np.linalg.norm(position_hessian(est, omega) - num) <= tol


class TestPositionCovariance:
    def _high_snr_setup(self, desk_array):
        truth = PathParams(theta=1.2, r=2.5, g=1.0, phi=0.3)
        h = synthesize_channel(desk_array, [truth])
        sigma2 = truth.g**2 / 10**3  # 30 dB
        return truth, h, sigma2

    def test_monte_carlo_transform_consistency(self, desk_array):
        # Draw parameters from the 4x4 soft estimate, push them through the
        # polar transform, and compare the sample covariance of the
        # positions against the propagated covariance.
        _, h, sigma2 = self._high_snr_setup(desk_array)
        omega = 0.2
        cb = build_codebook(desk_array, CodebookConfig())
        cfg = EstimatorConfig(codebook=cb)
        rng = np.random.default_rng(77)
        y = add_noise(h, sigma2, 77)
        est = vnnce([y], [1], cfg)[0][0]
        draws = rng.multivariate_normal(as_vector(est.params), est.cov,
                                        size=20000)
        pts = np.array([polar_to_relative(t, r, omega)
                        for t, r, _, _ in draws])
        mc_cov = np.cov(pts.T)
        marginal = marginal_position_covariance(est, omega)
        ratio = np.trace(marginal) / np.trace(mc_cov)
        assert 0.5 < ratio < 2.0
        # The measurement-Hessian route conditions on (g, phi) instead of
        # marginalizing them, so it is tighter by a stable structural
        # factor (~2.26 across geometries); bound it rather than equate it.
        full = position_covariance(est, omega)
        ratio_full = np.trace(full.cov) / np.trace(mc_cov)
        assert 1 / 3 < ratio_full <= ratio + 1e-9

    def test_jacobian_only_matches_hessian_form_at_optimum(self, desk_array):
        # At a noiseless optimum both propagation routes derive from the
        # same curvature; they agree to first order.
        truth, h, _ = self._high_snr_setup(desk_array)
        sigma2 = 1e-8
        y = Measurement(y=h, noise_variance=sigma2)
        est = soft_estimates(desk_array, y, [truth])[0]
        full = position_covariance(est, 0.0)
        marginal = marginal_position_covariance(est, 0.0)
        assert np.allclose(marginal, full.cov, rtol=0.2)

    def test_covariance_scales_with_sigma2(self, desk_array):
        truth, h, _ = self._high_snr_setup(desk_array)
        a = position_covariance(
            soft_estimates(desk_array, Measurement(h, 1e-6), [truth])[0], 0.0)
        b = position_covariance(
            soft_estimates(desk_array, Measurement(h, 2e-6), [truth])[0], 0.0)
        assert np.allclose(b.cov, 2 * a.cov, rtol=1e-9)

    def test_psd_output(self, desk_array, rng):
        truth, h, sigma2 = self._high_snr_setup(desk_array)
        y = add_noise(h, sigma2, rng)
        est = soft_estimates(desk_array, y, [truth])[0]
        sp = position_covariance(est, 0.0)
        assert np.allclose(sp.cov, sp.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(sp.cov).min() >= 0


class TestFusion:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gaussian_fuse([])

    def test_single_input_identity(self, rng):
        p = SoftPosition(mean=[1.0, 2.0], cov=random_psd_2x2(rng))
        out = gaussian_fuse([p])
        assert np.array_equal(out.mean, p.mean)
        assert np.array_equal(out.cov, p.cov)

    def test_information_additivity(self, rng):
        for _ in range(50):
            ps = [SoftPosition(mean=rng.normal(size=2), cov=random_psd_2x2(rng))
                  for _ in range(3)]
            fused = gaussian_fuse(ps)
            info_sum = sum(np.linalg.inv(p.cov) for p in ps)
            assert np.allclose(np.linalg.inv(fused.cov), info_sum,
                               rtol=1e-9, atol=1e-9 * np.linalg.norm(info_sum))

    def test_trace_contraction(self, rng):
        for _ in range(50):
            ps = [SoftPosition(mean=rng.normal(size=2), cov=random_psd_2x2(rng))
                  for _ in range(4)]
            fused = gaussian_fuse(ps)
            assert np.trace(fused.cov) <= min(np.trace(p.cov) for p in ps) + 1e-12

    def test_equal_covariances_average_means(self):
        ps = [SoftPosition(mean=[0.0, 0.0], cov=np.eye(2)),
              SoftPosition(mean=[2.0, 4.0], cov=np.eye(2))]
        fused = gaussian_fuse(ps)
        assert np.allclose(fused.mean, [1.0, 2.0], atol=1e-12)
        assert np.allclose(fused.cov, 0.5 * np.eye(2), atol=1e-12)


class TestConsistency:
    def test_known_gate_decision(self):
        a = SoftPosition(mean=[0.0, 0.0], cov=np.eye(2))
        b = SoftPosition(mean=[10.0, 0.0], cov=np.eye(2))
        # squared form 100/2 = 50 > 3.5^2 = 12.25
        assert consistency(a, b, 3.5) == 0
        close = SoftPosition(mean=[1.0, 0.0], cov=np.eye(2))
        assert consistency(a, close, 3.5) == 1

    def test_symmetric_in_arguments(self, rng):
        for _ in range(20):
            a = SoftPosition(mean=rng.normal(size=2) * 3, cov=random_psd_2x2(rng))
            b = SoftPosition(mean=rng.normal(size=2) * 3, cov=random_psd_2x2(rng))
            assert consistency(a, b, 3.5) == consistency(b, a, 3.5)


class TestToGlobal:
    def test_translation_only(self):
        bs = BsConfig(position=(0.0, 50.0), rotation=np.pi)
        rel = SoftPosition(mean=[10.0, -50.0], cov=np.eye(2))
        out = to_global(rel, bs)
        assert np.allclose(out.mean, [10.0, 0.0], atol=1e-12)
        assert np.allclose(out.cov, rel.cov)


class TestGfcl:
    def _bs_setup(self):
        user = np.array([2.5, 2.5])
        specs = [((0.0, 5.0), np.pi), ((2.0, 5.0), np.pi),
                 ((5.0, 0.0), np.pi / 2), ((5.0, 2.0), np.pi / 2)]
        return user, [BsConfig(position=p, rotation=w) for p, w in specs]

    def _measure(self, desk_array, bss, user, sigma2, rng, extra=None):
        cb = build_codebook(desk_array, CodebookConfig())
        ests = []
        for bs in bss:
            rel = user - np.asarray(bs.position)
            theta, r = relative_to_polar(rel[0], rel[1], bs.rotation)
            paths = [PathParams(theta=theta, r=r, g=1.0,
                                phi=float(rng.uniform(0, 2 * np.pi)))]
            h = synthesize_channel(desk_array, paths)
            y = add_noise(h, sigma2, rng)
            ests.append(vnnce([y], [1], EstimatorConfig(codebook=cb))[0])
        return ests

    def test_high_snr_fusion_quality(self, desk_array, rng):
        user, bss = self._bs_setup()
        sigma2 = 1e-4  # 40 dB with unit gains
        ests = self._measure(desk_array, bss, user, sigma2, rng)
        report = gfcl(ests, bss)
        assert all(c.consistent for c in report.candidates)
        assert np.linalg.norm(report.fused.mean - user) < 0.01
        # Fused trace never exceeds the kept candidates' minimum.
        assert report.fused.cost <= min(
            c.position.cost for c in report.candidates if c.consistent) + 1e-12
        assert not report.all_inconsistent

    def test_reference_flag_and_selection_rule(self, desk_array, rng):
        user, bss = self._bs_setup()
        ests = self._measure(desk_array, bss, user, 1e-4, rng)
        report = gfcl(ests, bss)
        ref = next(c for c in report.candidates if c.bs_index == report.reference)
        assert ref.consistent
        assert ref.position.cost == min(c.position.cost for c in report.candidates)

    def test_corrupted_bs_excluded(self, desk_array, rng):
        user, bss = self._bs_setup()
        ests = self._measure(desk_array, bss, user, 1e-4, rng)
        baseline = gfcl(ests, bss)

        # Replace one BS's candidate with a confident estimate 100 m off.
        bad_theta, bad_r = 1.0, 5.0
        bad = PathParams(theta=bad_theta, r=bad_r, g=1.0, phi=0.0)
        h_bad = synthesize_channel(desk_array, [bad])
        far_bs = BsConfig(position=(100.0, 100.0), rotation=0.0)
        bss2 = bss[:3] + [far_bs]
        y_bad = add_noise(h_bad, 1e-4, rng)
        cb = build_codebook(desk_array, CodebookConfig())
        ests2 = ests[:3] + vnnce([y_bad], [1], EstimatorConfig(codebook=cb))
        report = gfcl(ests2, bss2)
        bad_cand = next(c for c in report.candidates if c.bs_index == 3)
        assert not bad_cand.consistent
        err = np.linalg.norm(report.fused.mean - user)
        base_err = np.linalg.norm(baseline.fused.mean - user)
        assert err < base_err * 3 + 0.01

    def test_rejects_lists_of_different_lengths(self, desk_array, rng):
        user, bss = self._bs_setup()
        ests = self._measure(desk_array, bss, user, 1e-4, rng)
        with pytest.raises(ValueError, match="4 per-BS estimate lists but 3"):
            gfcl(ests, bss[:3])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            gfcl([], [])
        with pytest.raises(ValueError):
            gfcl([[]], [BsConfig(position=(0, 0), rotation=0.0)])
