"""Coordinate transforms, covariance propagation, gating, and fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield.arraymodel import (Measurement, PathParams, add_noise,
                                  synthesize_channel)
from nearfield.codebook import CodebookConfig, build_codebook
from nearfield.estimator import (PSD_FLOOR, EstimatorConfig, Path, project,
                                 soft_estimates, vnnce)
from nearfield.localization import (BsConfig, SoftPosition, consistency,
                                    gaussian_fuse, gfcl, is_front_side,
                                    position_covariance)
from tests.conftest import random_path
from tests.reference import (as_vector, central_differences,
                             marginal_position_covariance)


def random_psd_2x2(rng, scale=1.0):
    A = rng.normal(size=(2, 2)) * scale
    return A @ A.T + 1e-6 * scale**2 * np.eye(2)


class TestTransforms:
    def test_known_points(self):
        assert BsConfig((0.0, 0.0), np.pi / 2).point(np.pi / 2, 10.0) == \
            pytest.approx((-10.0, 0.0), abs=1e-12)
        assert BsConfig((0.0, 0.0), 0.0).point(np.pi / 2, 5.0) == \
            pytest.approx((0.0, 5.0), abs=1e-12)
        # Away from the origin the BS position translates the point.
        bs = BsConfig(position=(0.0, 50.0), rotation=np.pi)
        assert bs.point(np.pi / 2, 50.0) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert bs.polar((10.0, 0.0)) == pytest.approx(
            (np.pi / 2 + np.arctan(0.2), np.hypot(10.0, 50.0)), abs=1e-12)

    def test_rejects_nonpositive_r(self):
        bs = BsConfig(position=(1.0, 2.0), rotation=0.3)
        with pytest.raises(ValueError):
            bs.point(1.0, 0.0)
        with pytest.raises(ValueError):
            bs.polar((1.0, 2.0))

    @given(theta=st.floats(0.01, np.pi - 0.01), r=st.floats(0.1, 100.0),
           omega=st.floats(-np.pi, np.pi), x=st.floats(-10.0, 10.0),
           y=st.floats(-10.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, theta, r, omega, x, y):
        bs = BsConfig(position=(x, y), rotation=omega)
        theta2, r2 = bs.polar(bs.point(theta, r))
        assert r2 == pytest.approx(r, rel=1e-12)
        # Allow the 2*pi wrap of the angle representation.
        assert np.cos(theta2) == pytest.approx(np.cos(theta), abs=1e-9)
        assert np.sin(theta2) == pytest.approx(np.sin(theta), abs=1e-9)

    def test_front_side(self):
        assert is_front_side(0.1) and is_front_side(np.pi - 0.1)
        assert not is_front_side(0.0) and not is_front_side(-1.0)

    def test_jacobian_matches_fd_of_point(self, rng):
        bs = BsConfig(position=(0.0, 0.0), rotation=0.0)
        assert np.allclose(bs.jacobian(np.pi / 2, 5.0), [[-5.0, 0.0], [0.0, 1.0]],
                           rtol=0.0, atol=1e-12)
        for _ in range(10):
            bs = BsConfig(position=tuple(rng.uniform(-5.0, 5.0, size=2)),
                          rotation=float(rng.uniform(-np.pi, np.pi)))
            theta, r = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.5, 50.0)
            fd = central_differences(lambda v: bs.point(*v),
                                     np.array([theta, r]), [1e-6, 1e-6 * r])
            assert np.allclose(bs.jacobian(theta, r), fd.T, rtol=1e-7,
                               atol=1e-7 * r)


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
        bs = BsConfig(position=(3.0, -1.0), rotation=omega)
        cb = build_codebook(desk_array, CodebookConfig())
        cfg = EstimatorConfig(codebook=cb)
        rng = np.random.default_rng(77)
        y = add_noise(h, sigma2, 77)
        est = vnnce([y], [1], cfg)[0][0]
        draws = rng.multivariate_normal(as_vector(est.params), est.cov,
                                        size=20000)
        pts = np.array([bs.point(t, r) for t, r, _, _ in draws])
        mc_cov = np.cov(pts.T)
        marginal = marginal_position_covariance(est, omega)
        ratio = np.trace(marginal) / np.trace(mc_cov)
        assert 0.5 < ratio < 2.0
        # The soft position is that delta-method covariance: gain and phase
        # are marginalised, not held fixed.
        full = position_covariance(est, bs)
        ratio_full = np.trace(full.cov) / np.trace(mc_cov)
        assert ratio_full == pytest.approx(ratio, rel=1e-9)

    def test_jacobian_only_matches_hessian_form_at_optimum(self, desk_array):
        # At a noiseless optimum the soft position's covariance is the
        # delta-method one: the repair leaves a positive definite matrix as
        # it is.
        truth, h, _ = self._high_snr_setup(desk_array)
        sigma2 = 1e-8
        y = Measurement(y=h, noise_variance=sigma2)
        est = soft_estimates(desk_array, y, [Path(truth)])[0]
        full = position_covariance(est, BsConfig(position=(0.0, 0.0), rotation=0.0))
        marginal = marginal_position_covariance(est, 0.0)
        assert np.allclose(marginal, full.cov, rtol=1e-9, atol=0.0)

    def test_information_is_hessian_of_concentrated_cost(self, desk_array, rng):
        # At a noiseless peak the gain is the LS gain and the gradient
        # vanishes, so sigma^2 times the position information is minus the
        # Hessian of the concentrated cost G(x, y) = |b^H y|^2 / M at the
        # point's polar coordinates.
        sigma2 = 1e-8
        for _ in range(10):
            truth = PathParams(theta=float(rng.uniform(0.4, np.pi - 0.4)),
                               r=float(rng.uniform(0.5, 4.0)), g=1.0,
                               phi=float(rng.uniform(0, 2 * np.pi)))
            bs = BsConfig(position=tuple(rng.uniform(-5.0, 5.0, size=2)),
                          rotation=float(rng.uniform(-np.pi, np.pi)))
            y = synthesize_channel(desk_array, [truth])
            est = soft_estimates(desk_array, Measurement(y, sigma2), [Path(truth)])[0]
            info = sigma2 * np.linalg.inv(position_covariance(est, bs).cov)

            def cost(v):
                return project(desk_array, y, *bs.polar(v)).cost

            h = [1e-5 * max(truth.r, 1.0)] * 2
            num = central_differences(
                lambda v: central_differences(cost, v, h),
                bs.point(truth.theta, truth.r), h)
            assert np.linalg.norm(info + num) <= 1e-5 * np.linalg.norm(num)

    @given(seed=st.integers(0, 2**32 - 1), log10_c=st.floats(-8.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_to_the_scale_of_y(self, desk_array, seed, log10_c):
        # Scaling y by c and sigma^2 by c^2 scales the Hessian by S = diag(c,
        # c, 1, c) on both sides, so est.cov scales by diag(1, 1, c, 1) and
        # the soft position does not move: no floor may depend on the scale.
        rng = np.random.default_rng(seed)
        paths = [random_path(desk_array, rng) for _ in range(2)]
        sigma2 = 1e-2
        y = add_noise(synthesize_channel(desk_array, paths), sigma2, rng)
        # The estimates sit near, not at, the peaks, as after a refinement.
        est = [PathParams(p.theta + rng.normal(0.0, 1e-4),
                          p.r * (1 + rng.normal(0.0, 1e-3)), p.g, p.phi)
               for p in paths]
        c = 10.0**log10_c
        bs = BsConfig(position=(1.0, -2.0), rotation=0.3)
        base = soft_estimates(desk_array, y, [Path(p) for p in est])
        scaled = soft_estimates(
            desk_array, Measurement(c * y.y, c * c * sigma2),
            [Path(PathParams(p.theta, p.r, c * p.g, p.phi)) for p in est])
        s = np.array([1.0, 1.0, c, 1.0])
        for a, b in zip(base, scaled):
            # Per entry, relative to sqrt(C_ii C_jj) of the expected C.
            d = s * np.sqrt(np.diag(a.cov))
            assert np.all(np.abs(b.cov - np.outer(s, s) * a.cov)
                          <= 1e-9 * np.outer(d, d))
            ref = position_covariance(a, bs).cov
            got = position_covariance(b, bs).cov
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_covariance_scales_with_sigma2(self, desk_array):
        truth, h, _ = self._high_snr_setup(desk_array)
        bs = BsConfig(position=(0.0, 0.0), rotation=0.0)
        a = position_covariance(
            soft_estimates(desk_array, Measurement(h, 1e-6), [Path(truth)])[0], bs)
        b = position_covariance(
            soft_estimates(desk_array, Measurement(h, 2e-6), [Path(truth)])[0], bs)
        assert np.allclose(b.cov, 2 * a.cov, rtol=1e-9)
        # Noiseless, only the floor is left, in m^2.
        zero = position_covariance(
            soft_estimates(desk_array, Measurement(h, 0.0), [Path(truth)])[0], bs)
        assert np.array_equal(zero.cov, PSD_FLOOR * np.eye(2))

    def test_psd_output(self, desk_array, rng):
        truth, h, sigma2 = self._high_snr_setup(desk_array)
        y = add_noise(h, sigma2, rng)
        est = soft_estimates(desk_array, y, [Path(truth)])[0]
        sp = position_covariance(est, BsConfig(position=(0.0, 0.0), rotation=0.0))
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
            theta, r = bs.polar(user)
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
        ref = report.candidates[report.reference]
        assert ref.consistent
        assert ref.position.cost == min(c.position.cost for c in report.candidates)
        # With the least-cost BS moved to each position in turn, reference
        # follows it.
        for k in range(len(bss)):
            order = list(range(len(bss)))
            order[k], order[report.reference] = order[report.reference], order[k]
            moved = gfcl([ests[j] for j in order], [bss[j] for j in order])
            assert moved.reference == k
            assert moved.to_dict()["reference_bs"] == k

    def test_candidate_i_belongs_to_bs_i(self, desk_array, rng):
        # Candidate i is what BS i's estimates give when fused alone.
        user, bss = self._bs_setup()
        ests = self._measure(desk_array, bss, user, 1e-4, rng)
        report = gfcl(ests, bss)
        assert len(report.candidates) == len(bss)
        for est, bs, cand in zip(ests, bss, report.candidates):
            alone = gfcl([est], [bs]).candidates[0]
            assert cand.path_index == alone.path_index
            assert np.array_equal(cand.position.mean, alone.position.mean)
        assert [d["bs"] for d in report.to_dict()["per_bs"]] == [0, 1, 2, 3]

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
        bad_cand = report.candidates[3]
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
        with pytest.raises(ValueError, match="BS 0 has no path"):
            gfcl([[]], [BsConfig(position=(0, 0), rotation=0.0)])

    def test_rejects_a_bs_without_a_path(self, desk_array, rng):
        # Dropping the pathless BS would shift every later candidate's index.
        user, bss = self._bs_setup()
        ests = self._measure(desk_array, bss[:1], user, 1e-4, rng)
        with pytest.raises(ValueError, match="BS 1 has no path"):
            gfcl([ests[0], []], bss[:2])
