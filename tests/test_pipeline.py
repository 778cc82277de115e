"""Three-step joint estimation/localization/refinement pipeline."""

import numpy as np
import pytest

from nearfield.arraymodel import (Measurement, PathParams, add_noise,
                                  synthesize_channel)
from nearfield.codebook import CodebookConfig, build_codebook
from nearfield.estimator import EstimatorConfig
from nearfield.localization import BsConfig, relative_to_polar
from nearfield.pipeline import run_joint
from tests.reference import oracle_ls


@pytest.fixture(scope="module")
def setup(desk_array):
    """Four-BS square geometry around a user at (2.5, 2.5)."""
    user = np.array([2.5, 2.5])
    specs = [((0.0, 5.0), np.pi), ((2.0, 5.0), np.pi),
             ((5.0, 0.0), np.pi / 2), ((5.0, 2.0), np.pi / 2)]
    bss = [BsConfig(position=p, rotation=w) for p, w in specs]
    cb = build_codebook(desk_array, CodebookConfig())
    return user, bss, cb


def make_paths(desk_array, bss, user, rng, with_nlos=False):
    per_bs = []
    for bs in bss:
        rel = user - np.asarray(bs.position)
        theta, r = relative_to_polar(rel[0], rel[1], bs.rotation)
        paths = [PathParams(theta=theta, r=r, g=1.0,
                            phi=float(rng.uniform(0, 2 * np.pi)))]
        if with_nlos:
            paths.append(PathParams(theta=float(rng.uniform(0.6, 2.4)),
                                    r=float(rng.uniform(1.0, 5.0)),
                                    g=0.3,
                                    phi=float(rng.uniform(0, 2 * np.pi))))
        per_bs.append(paths)
    return per_bs


def run_once(desk_array, bss, cb, per_bs_paths, sigma2, seed):
    channels = [synthesize_channel(desk_array, paths) for paths in per_bs_paths]
    rng = np.random.default_rng(seed)
    meas = [Measurement(y=ch if sigma2 == 0 else add_noise(ch, sigma2, rng).y,
                        noise_variance=sigma2) for ch in channels]
    return channels, run_joint(bss, meas, [len(p) for p in per_bs_paths],
                               EstimatorConfig(codebook=cb), zeta=3.5,
                               true_channels=channels)


class TestNoiseless:
    def test_everything_near_exact(self, desk_array, setup):
        user, bss, cb = setup
        rng = np.random.default_rng(1)
        paths = make_paths(desk_array, bss, user, rng)
        _, result = run_once(desk_array, bss, cb, paths, 0.0, 1)
        for v in result.nmse_step1:
            assert 10 * np.log10(v) <= -60.0
        assert np.linalg.norm(result.step2.fused.mean - user) < 1e-3
        # Noiseless covariances bottom out at the PSD floor, so micron-level
        # refinement residue can push a candidate past the Mahalanobis gate;
        # a majority of BSs must still anchor.
        assert sum(result.anchored) >= 2
        for i, v in enumerate(result.nmse_step3):
            if result.anchored[i]:
                assert v is not None
                assert 10 * np.log10(max(v, 1e-30)) <= -60.0

    def test_step3_structure(self, desk_array, setup):
        user, bss, cb = setup
        rng = np.random.default_rng(2)
        paths = make_paths(desk_array, bss, user, rng, with_nlos=True)
        _, result = run_once(desk_array, bss, cb, paths, 0.0, 2)
        for i, anchored in enumerate(result.anchored):
            if anchored:
                assert result.step3[i] is not None
                assert len(result.step3[i]) == len(result.step1[i])
            else:
                assert result.step3[i] is None
                assert result.nmse_step3[i] is None


class TestAnchoring:
    def test_injected_exact_position_recovers_los(self, desk_array, setup):
        # With a near-perfect fused position (noiseless run) the anchored
        # LoS geometry is exact and the refit is as good as the oracle LS.
        user, bss, cb = setup
        rng = np.random.default_rng(3)
        paths = make_paths(desk_array, bss, user, rng)
        channels, result = run_once(desk_array, bss, cb, paths, 0.0, 3)
        assert sum(result.anchored) >= 2
        for i, bs in enumerate(bss):
            if not result.anchored[i]:
                continue
            los = result.step3[i][0]
            rel = user - np.asarray(bs.position)
            theta_t, r_t = relative_to_polar(rel[0], rel[1], bs.rotation)
            assert los.theta == pytest.approx(theta_t, abs=1e-6)
            assert los.r == pytest.approx(r_t, rel=1e-6)
            h_ls = oracle_ls(desk_array, channels[i], paths[i])
            nmse_ls = (np.linalg.norm(channels[i] - h_ls) ** 2
                       / np.linalg.norm(channels[i]) ** 2)
            # The anchor carries the fused position's ~micron error, so
            # allow a -90 dB floor above the exact oracle-LS solution.
            assert result.nmse_step3[i] <= max(nmse_ls * 10 ** 0.05, 1e-9)

    def test_anchored_path_holds_fused_geometry(self, desk_array, setup):
        # Step 3 freezes the selected path at the fused position's polar
        # coordinates; its cyclic rounds refit only that path's gain.
        user, bss, cb = setup
        rng = np.random.default_rng(4)
        paths = make_paths(desk_array, bss, user, rng, with_nlos=True)
        _, result = run_once(desk_array, bss, cb, paths, 1e-2, 4)
        assert any(result.anchored)
        by_bs = {c.bs_index: c for c in result.step2.candidates}
        for i, bs in enumerate(bss):
            if not result.anchored[i]:
                continue
            rel = result.step2.fused.mean - np.asarray(bs.position)
            theta_a, r_a = relative_to_polar(rel[0], rel[1], bs.rotation)
            r_a = float(np.clip(r_a, desk_array.min_near_distance,
                                desk_array.rayleigh_distance))
            anchor = result.step3[i][by_bs[i].path_index]
            assert (anchor.theta, anchor.r) == (theta_a, r_a)

    def test_refinement_not_worse_on_average(self, desk_array, setup):
        # Trial-mean NMSE after anchoring is no worse than before it.
        user, bss, cb = setup
        sigma2 = 1e-2  # 20 dB per-antenna at unit gain
        deltas = []
        for seed in range(25):
            rng = np.random.default_rng(seed)
            paths = make_paths(desk_array, bss, user, rng, with_nlos=True)
            _, result = run_once(desk_array, bss, cb, paths, sigma2, seed)
            for i in range(len(bss)):
                if result.anchored[i]:
                    deltas.append(result.nmse_step3[i] - result.nmse_step1[i])
        assert len(deltas) > 40
        assert np.mean(deltas) <= 0.0


class TestGatingEdge:
    def test_lone_bs_still_runs(self, desk_array):
        user = np.array([0.0, 3.0])
        bss = [BsConfig(position=(0.0, 0.0), rotation=0.0)]
        cb = build_codebook(desk_array, CodebookConfig())
        rng = np.random.default_rng(11)
        paths = make_paths(desk_array, bss, user, rng)
        _, result = run_once(desk_array, bss, cb, paths, 1e-4, 11)
        assert len(result.step1) == 1
        assert result.step2.reference == 0
        assert result.anchored[0]


class TestPerBsLists:
    def test_rejects_lists_of_different_lengths(self, desk_array, setup):
        user, bss, cb = setup
        per_bs = make_paths(desk_array, bss, user, np.random.default_rng(5))
        channels = [synthesize_channel(desk_array, p) for p in per_bs]
        meas = [add_noise(ch, 1e-4, 5) for ch in channels]
        with pytest.raises(ValueError, match="4 BS configs, 3 measurements"):
            run_joint(bss, meas[:3], [1] * len(bss), EstimatorConfig(codebook=cb),
                      zeta=3.5, true_channels=channels)
