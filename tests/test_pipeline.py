"""Three-step joint estimation/localization/refinement pipeline."""

import numpy as np
import pytest

from nearfield import harness
from nearfield.arraymodel import (Measurement, PathParams, add_noise,
                                  synthesize_channel)
from nearfield.codebook import CodebookConfig, build_codebook
from nearfield.estimator import EstimatorConfig
from nearfield.harness import load_scenario, nmse, run_trial
from nearfield.localization import BsConfig
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
        theta, r = bs.polar(user)
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
    """Run the pipeline once and score it: (channels, result, step-1 NMSE
    per BS, step-3 NMSE per BS or None where the BS was not anchored)."""
    channels = [synthesize_channel(desk_array, paths) for paths in per_bs_paths]
    rng = np.random.default_rng(seed)
    meas = [Measurement(y=ch if sigma2 == 0 else add_noise(ch, sigma2, rng).y,
                        noise_variance=sigma2) for ch in channels]
    result = run_joint(bss, meas, [len(p) for p in per_bs_paths],
                       EstimatorConfig(codebook=cb), zeta=3.5)
    nmse1 = [nmse(h, synthesize_channel(desk_array, [e.params for e in ests]))
             for h, ests in zip(channels, result.step1)]
    nmse3 = [None if paths is None else nmse(h, synthesize_channel(desk_array, paths))
             for h, paths in zip(channels, result.step3)]
    return channels, result, nmse1, nmse3


class TestNoiseless:
    def test_everything_near_exact(self, desk_array, setup):
        user, bss, cb = setup
        rng = np.random.default_rng(1)
        paths = make_paths(desk_array, bss, user, rng)
        _, result, nmse1, nmse3 = run_once(desk_array, bss, cb, paths, 0.0, 1)
        for v in nmse1:
            assert 10 * np.log10(v) <= -60.0
        assert np.linalg.norm(result.step2.fused.mean - user) < 1e-3
        # Noiseless covariances bottom out at the PSD floor, so micron-level
        # refinement residue can push a candidate past the Mahalanobis gate;
        # a majority of BSs must still anchor.
        assert sum(result.anchored) >= 2
        for i, v in enumerate(nmse3):
            if result.anchored[i]:
                assert v is not None
                assert 10 * np.log10(max(v, 1e-30)) <= -60.0

    def test_step3_structure(self, desk_array, setup):
        user, bss, cb = setup
        rng = np.random.default_rng(2)
        paths = make_paths(desk_array, bss, user, rng, with_nlos=True)
        _, result, _, _ = run_once(desk_array, bss, cb, paths, 0.0, 2)
        for i, anchored in enumerate(result.anchored):
            if anchored:
                assert result.step3[i] is not None
                assert len(result.step3[i]) == len(result.step1[i])
            else:
                assert result.step3[i] is None


class TestAnchoring:
    def test_injected_exact_position_recovers_los(self, desk_array, setup):
        # With a near-perfect fused position (noiseless run) the anchored
        # LoS geometry is exact and the refit is as good as the oracle LS.
        user, bss, cb = setup
        rng = np.random.default_rng(3)
        paths = make_paths(desk_array, bss, user, rng)
        channels, result, _, nmse3 = run_once(desk_array, bss, cb, paths, 0.0, 3)
        assert sum(result.anchored) >= 2
        for i, bs in enumerate(bss):
            if not result.anchored[i]:
                continue
            los = result.step3[i][0]
            theta_t, r_t = bs.polar(user)
            assert los.theta == pytest.approx(theta_t, abs=1e-6)
            assert los.r == pytest.approx(r_t, rel=1e-6)
            h_ls = oracle_ls(desk_array, channels[i], paths[i])
            nmse_ls = (np.linalg.norm(channels[i] - h_ls) ** 2
                       / np.linalg.norm(channels[i]) ** 2)
            # The anchor carries the fused position's ~micron error, so
            # allow a -90 dB floor above the exact oracle-LS solution.
            assert nmse3[i] <= max(nmse_ls * 10 ** 0.05, 1e-9)

    def test_anchored_path_holds_fused_geometry(self, desk_array, setup):
        # Step 3 freezes the selected path at the fused position's polar
        # coordinates; its cyclic rounds refit only that path's gain.
        user, bss, cb = setup
        rng = np.random.default_rng(4)
        paths = make_paths(desk_array, bss, user, rng, with_nlos=True)
        _, result, _, _ = run_once(desk_array, bss, cb, paths, 1e-2, 4)
        assert any(result.anchored)
        for i, bs in enumerate(bss):
            if not result.anchored[i]:
                continue
            theta_a, r_a = bs.polar(result.step2.fused.mean)
            r_a = float(np.clip(r_a, desk_array.min_near_distance,
                                desk_array.rayleigh_distance))
            anchor = result.step3[i][result.step2.candidates[i].path_index]
            assert (anchor.theta, anchor.r) == (theta_a, r_a)

    def test_refinement_not_worse_on_average(self, desk_array, setup):
        # Trial-mean NMSE after anchoring is no worse than before it.
        user, bss, cb = setup
        sigma2 = 1e-2  # 20 dB per-antenna at unit gain
        deltas = []
        for seed in range(25):
            rng = np.random.default_rng(seed)
            paths = make_paths(desk_array, bss, user, rng, with_nlos=True)
            _, result, nmse1, nmse3 = run_once(desk_array, bss, cb, paths,
                                               sigma2, seed)
            for i in range(len(bss)):
                if result.anchored[i]:
                    deltas.append(nmse3[i] - nmse1[i])
        assert len(deltas) > 40
        assert np.mean(deltas) <= 0.0


class TestGatingEdge:
    def test_lone_bs_still_runs(self, desk_array):
        user = np.array([0.0, 3.0])
        bss = [BsConfig(position=(0.0, 0.0), rotation=0.0)]
        cb = build_codebook(desk_array, CodebookConfig())
        rng = np.random.default_rng(11)
        paths = make_paths(desk_array, bss, user, rng)
        _, result, _, _ = run_once(desk_array, bss, cb, paths, 1e-4, 11)
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
                      zeta=3.5)


def sweep_draws(name: str, per_snr: int):
    """A scenario and `per_snr` of its sweep's draws at each of 0, 10, 20 and
    30 dB: the BS configs, measurements, path counts and the run_joint
    result that run_trial hands over and gets back for each."""
    scenario = load_scenario(f"scenarios/{name}.json")
    draws = []

    def joint(bss, ys, counts, *args, **kwargs):
        result = run_joint(bss, ys, counts, *args, **kwargs)
        draws.append((bss, ys, counts, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_joint", joint)
        for trial in range(per_snr):
            for idx, snr_db in enumerate([0.0, 10.0, 20.0, 30.0]):
                run_trial(scenario, snr_db, idx, trial)
    return scenario, draws


def params(per_bs):
    """(theta, r, g, phi) of every path, per BS; None stays None."""
    return [None if paths is None else
            [(p.theta, p.r, p.g, p.phi) for p in paths] for paths in per_bs]


def step1_params(result):
    return params([[e.params for e in ests] for ests in result.step1])


class TestInvariance:
    """Metamorphic properties of run_joint (Chen, Cheung & Yiu, *Metamorphic
    testing*, HKUST-CS98-01, 1998): each runs the sweep's own draws and a
    transformed copy on the same measurements, so the noise draw is not a
    variable. Equalities are bit for bit; a tolerance is stated where the
    transformed run sums in another order or another frame."""

    @pytest.fixture(scope="class", params=[("tab2_desk", 2), ("tab2_paper", 1)],
                    ids=["tab2_desk", "tab2_paper"])
    def draws(self, request):
        return sweep_draws(*request.param)

    def test_scale(self, draws):
        # y x 2^5 and sigma^2 x 2^10 scale every cost by 2^10 and every gain
        # by 2^5 exactly, so every decision is the same: (theta, r, phi) in
        # steps 1 and 3 and the fused mean bit for bit, each g x 32.
        scenario, runs = draws
        for bss, ys, counts, base in runs:
            ys_scaled = [Measurement(2.0**5 * y.y, 2.0**10 * y.noise_variance)
                         for y in ys]
            scaled = run_joint(bss, ys_scaled, counts, scenario.estimator,
                               scenario.zeta)
            for got, want in [(step1_params(scaled), step1_params(base)),
                              (params(scaled.step3), params(base.step3))]:
                assert got == [None if paths is None else
                               [(t, r, 32.0 * g, phi) for t, r, g, phi in paths]
                               for paths in want]
            assert scaled.anchored == base.anchored
            assert scaled.step2.fused.mean.tobytes() == base.step2.fused.mean.tobytes()

    @pytest.mark.parametrize("up", [True, False], ids=["x3", "div3"])
    def test_scale_not_a_power_of_two(self, draws, up):
        # y x 3 with sigma^2 x 9, or y / 3 with sigma^2 / 9: the scale is not
        # exact in binary, so the scaled run rounds its own way. The bounds
        # were fixed before the run; on these draws the worst reads theta
        # 3.4e-11, r 1.8e-6, g 4.2e-10 (relative), phi 2.6e-7 rad and the
        # fused mean 7.6e-12 m, with no anchor flipped. r's bound is the
        # loosest: a turn stops on a 1e-3-nat gain, and the cost is flattest
        # in r, so a stop a rounding apart leaves r where the cost moves
        # least.
        scenario, runs = draws
        scale = 3.0 if up else 1.0 / 3.0
        for bss, ys, counts, base in runs:
            ys_scaled = [Measurement(y.y * 3.0, y.noise_variance * 9.0) if up else
                         Measurement(y.y / 3.0, y.noise_variance / 9.0) for y in ys]
            scaled = run_joint(bss, ys_scaled, counts, scenario.estimator,
                               scenario.zeta)
            assert scaled.anchored == base.anchored
            for got, want in [(step1_params(scaled), step1_params(base)),
                              (params(scaled.step3), params(base.step3))]:
                for gs, ws in zip(got, want):
                    for (t, r, g, phi), (t0, r0, g0, phi0) in zip(gs or [], ws or []):
                        assert abs(t - t0) <= 1e-9 * t0
                        assert abs(r - r0) <= 1e-5 * r0
                        assert abs(g / scale - g0) <= 1e-8 * g0
                        assert abs((phi - phi0 + np.pi) % (2 * np.pi) - np.pi) <= 1e-6
            assert np.linalg.norm(scaled.step2.fused.mean
                                  - base.step2.fused.mean) <= 1e-9

    def test_bs_order(self, draws):
        # Reversing the BSs reverses step 1 bit for bit, since every BS takes
        # the steps it takes alone, and the anchored flags. The fusion sums
        # in the other order. Only an exact tie in the selection rule's
        # traces could make it pick another reference.
        scenario, runs = draws
        for bss, ys, counts, base in runs:
            rev = run_joint(bss[::-1], ys[::-1], counts[::-1], scenario.estimator,
                            scenario.zeta)
            assert step1_params(rev) == step1_params(base)[::-1]
            assert rev.anchored == base.anchored[::-1]
            assert np.linalg.norm(rev.step2.fused.mean
                                  - base.step2.fused.mean) <= 1e-9

    def test_rigid_motion(self, draws):
        # Rotating every BS by 0.7 rad about the origin and shifting it by
        # (3, -1) m leaves every BS's view of the user, so the measurements,
        # as they are: step 1 is bit for bit the same, the anchored flags
        # stay, and the fused mean moves by the same motion.
        scenario, runs = draws
        c, s = np.cos(0.7), np.sin(0.7)
        rot, shift = np.array([[c, -s], [s, c]]), np.array([3.0, -1.0])
        for bss, ys, counts, base in runs:
            moved = [BsConfig(position=tuple(rot @ bs.position + shift),
                              rotation=bs.rotation + 0.7) for bs in bss]
            got = run_joint(moved, ys, counts, scenario.estimator, scenario.zeta)
            assert step1_params(got) == step1_params(base)
            assert got.anchored == base.anchored
            assert np.linalg.norm(got.step2.fused.mean
                                  - (rot @ base.step2.fused.mean + shift)) <= 1e-12
