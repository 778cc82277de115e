"""Single-path objective, derivatives, guarded Newton, and multi-path loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from nearfield.arraymodel import (Measurement, PathParams, add_noise,
                                  near_steering, synthesize_channel)
from nearfield.codebook import Codebook, CodebookConfig, build_codebook
from nearfield import estimator
from nearfield.estimator import (PSD_FLOOR_SCALE, THETA_EDGE, EstimatorConfig,
                                 _clamp_params, grad_hess,
                                 newton_refine_once, omp_detect, project,
                                 psd_repair, residual, soft_estimates, vnnce)
from nearfield.harness import draw_paths, load_scenario, run_trial
from tests.conftest import random_path
from tests.reference import (alpha_of, as_vector, beta_of, central_differences,
                             full_steering_matrix, objective, oracle_ls,
                             plain_refine)


def _recording(fn, calls):
    """fn, appending its arguments to `calls` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


fd_grad = central_differences  # gradient of a scalar function


def fd_hess(cfg, y, x, h):
    """Central finite differences of the (separately verified) gradient.

    Differencing the objective twice loses too many digits against the
    1e-4 tolerance; one FD layer on top of the FD-validated gradient keeps
    the oracle independent of the analytic Hessian formulas.
    """
    H = central_differences(lambda v: grad_hess(cfg, y, PathParams(*v))[0], x, h)
    return (H + H.T) / 2


def obj_at(cfg, y, x):
    return objective(cfg, y, PathParams(theta=x[0], r=x[1], g=x[2], phi=x[3]))


def fd_steps(p: PathParams) -> np.ndarray:
    # Scale the distance step with r so the quadratic phase stays resolved.
    return np.array([1e-6, 1e-6 * max(p.r, 1.0), 1e-6 * max(p.g, 1e-3), 1e-6])


@pytest.fixture(scope="module")
def desk_codebook(desk_array):
    return build_codebook(desk_array, CodebookConfig())


class TestCostAndGain:
    def test_cost_at_truth_equals_g2m(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0)
        h = synthesize_channel(desk_array, [p])
        c, _ = project(desk_array, h, p.theta, p.r)
        assert c == pytest.approx(64.0, rel=1e-12)

    def test_cost_scales_with_gain(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=0.5)
        h = synthesize_channel(desk_array, [p])
        c, _ = project(desk_array, h, p.theta, p.r)
        assert c == pytest.approx(16.0, rel=1e-12)

    def test_cost_zero_input(self, desk_array):
        assert project(desk_array, np.zeros(64, dtype=complex), 1.0, 2.0)[0] == 0.0

    def test_cost_global_phase_invariant(self, desk_array, rng):
        p = random_path(desk_array, rng)
        h = synthesize_channel(desk_array, [p])
        c0, _ = project(desk_array, h, 1.0, 2.0)
        c1, _ = project(desk_array, h * np.exp(1j * 0.77), 1.0, 2.0)
        assert c1 == pytest.approx(c0, rel=1e-12)

    def test_ls_gain_recovers_complex_gain(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=0.8, phi=2.1)
        h = synthesize_channel(desk_array, [p])
        _, gain = project(desk_array, h, p.theta, p.r)
        assert abs(gain) == pytest.approx(0.8, rel=1e-12)
        assert np.angle(gain) == pytest.approx(2.1, abs=1e-12)

    def test_ls_gain_strict_mismatch_contraction(self, desk_array, rng):
        # Cauchy-Schwarz: projecting a unit-gain steering vector onto a
        # different one gives |gain| < 1 strictly.
        for _ in range(10):
            p, q = random_path(desk_array, rng), random_path(desk_array, rng)
            h = near_steering(desk_array, p.theta, p.r)
            assert abs(project(desk_array, h, q.theta, q.r)[1]) < 1.0


class TestObjective:
    def test_matches_expanded_likelihood_form(self, desk_array, rng):
        # f(p) = 2 Re{g e^{-j phi} b^H y} - M g^2 up to the |y|^2 constant:
        # equivalently -||y - g e^{j phi} b||^2 + ||y||^2.
        p = random_path(desk_array, rng)
        y = synthesize_channel(desk_array, [random_path(desk_array, rng)])
        recon = p.g * np.exp(1j * p.phi) * near_steering(desk_array, p.theta, p.r)
        expected = -np.linalg.norm(y - recon) ** 2 + np.linalg.norm(y) ** 2
        assert objective(desk_array, y, p) == pytest.approx(expected, rel=1e-9)

    def test_maximized_at_truth_over_gain(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.5)
        h = synthesize_channel(desk_array, [p])
        f_true = objective(desk_array, h, p)
        assert f_true == pytest.approx(64.0, rel=1e-9)  # g^2 M at the optimum
        for g in (0.5, 0.9, 1.1, 2.0):
            worse = PathParams(theta=1.3, r=2.0, g=g, phi=0.5)
            assert objective(desk_array, h, worse) < f_true + 1e-9


class TestDerivatives:
    def test_gradient_vanishes_at_truth(self, desk_array, rng):
        for _ in range(5):
            p = random_path(desk_array, rng)
            h = synthesize_channel(desk_array, [p])
            grad, _ = grad_hess(desk_array, h, p)
            assert np.linalg.norm(grad) < 1e-6 * 64

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_gradient_matches_fd(self, desk_array, rng, snr_db):
        for _ in range(25):
            p = random_path(desk_array, rng)
            truth = random_path(desk_array, rng)
            y = synthesize_channel(desk_array, [truth])
            if snr_db is not None:
                sigma2 = truth.g**2 / 10 ** (snr_db / 10)
                y = add_noise(y, sigma2, rng).y
            x = as_vector(p)
            ana, _ = grad_hess(desk_array, y, p)
            num = fd_grad(lambda v: obj_at(desk_array, y, v), x, fd_steps(p))
            assert np.linalg.norm(ana - num) <= 1e-5 * max(
                np.linalg.norm(num), 1.0)

    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_hessian_matches_fd(self, desk_array, rng, snr_db):
        for _ in range(25):
            p = random_path(desk_array, rng)
            truth = random_path(desk_array, rng)
            y = synthesize_channel(desk_array, [truth])
            if snr_db is not None:
                sigma2 = truth.g**2 / 10 ** (snr_db / 10)
                y = add_noise(y, sigma2, rng).y
            _, ana = grad_hess(desk_array, y, p)
            num = fd_hess(desk_array, y, as_vector(p), fd_steps(p) * 0.1)
            assert np.linalg.norm(ana - num) <= 1e-4 * max(
                np.linalg.norm(num), 1.0)

    def test_hessian_symmetric(self, desk_array, rng):
        p = random_path(desk_array, rng)
        y = synthesize_channel(desk_array, [random_path(desk_array, rng)])
        _, H = grad_hess(desk_array, y, p)
        assert np.allclose(H, H.T, atol=1e-9)
        assert H[2, 2] == -2 * 64  # gain curvature is exactly -2M


def _saddle_start(cfg, truth):
    """A start in the theta valley between the main lobe and a side lobe,
    where the (theta, r) sub-Hessian is not negative definite."""
    h = synthesize_channel(cfg, [truth])
    thetas = np.linspace(truth.theta + 0.02, truth.theta + 0.2, 400)
    costs = [project(cfg, h, t, truth.r)[0] for t in thetas]
    return PathParams(theta=float(thetas[int(np.argmin(costs))]), r=truth.r, g=0.5)


class TestNewtonRefine:
    def test_truth_is_fixed_point(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.5)
        h = synthesize_channel(desk_array, [p])
        out, _ = newton_refine_once(desk_array, h, p)
        assert out.theta == pytest.approx(p.theta, abs=1e-9)
        assert out.r == pytest.approx(p.r, rel=1e-9)
        assert out.g == pytest.approx(1.0, rel=1e-9)

    def test_converges_from_nearest_codeword(self, desk_array, desk_codebook):
        # Off-grid truth in the identifiable mid-annulus: guarded steps from
        # the best codeword reach the noiseless optimum (= the truth). The
        # distance direction has nearly flat curvature, so full parameter
        # convergence needs ~20 rounds even though the channel NMSE target
        # is met after 5.
        rng = np.random.default_rng(17)
        for _ in range(10):
            truth = PathParams(theta=float(np.arccos(rng.uniform(-0.85, 0.85))),
                               r=float(rng.uniform(0.3, 1.5)),
                               g=1.0, phi=float(rng.uniform(0, 2 * np.pi)))
            h = synthesize_channel(desk_array, [truth])
            p = omp_detect(desk_array, h, desk_codebook)
            for _ in range(20):
                p, _ = newton_refine_once(desk_array, h, p)
            assert abs(p.theta - truth.theta) < 1e-6
            assert abs(p.r - truth.r) / truth.r < 1e-4

    def test_indefinite_point_skipped(self, desk_array):
        # Between two symmetric lobes the cost surface has a saddle in
        # theta, so the sub-Hessian is not negative definite there.
        truth = PathParams(theta=1.3, r=2.0, g=1.0)
        h = synthesize_channel(desk_array, [truth])
        start = _saddle_start(desk_array, truth)
        H2 = grad_hess(desk_array, h, start)[1][:2, :2]
        assert not (H2[0, 0] < 0 and np.linalg.det(H2) > 0)
        out, _ = newton_refine_once(desk_array, h, start)
        assert out.theta == start.theta
        assert out.r == start.r

    def test_distance_clamped_into_annulus(self, desk_array):
        truth = PathParams(theta=1.5, r=desk_array.rayleigh_distance * 0.99, g=1.0)
        h = synthesize_channel(desk_array, [truth])
        p = PathParams(theta=1.5, r=desk_array.rayleigh_distance, g=1.0)
        for _ in range(5):
            p, _ = newton_refine_once(desk_array, h, p)
            assert desk_array.min_near_distance <= p.r
            assert p.r <= desk_array.rayleigh_distance

    def test_trace_hook_records_accepted_steps(self, desk_array, desk_codebook):
        truth = PathParams(theta=1.25, r=2.3, g=1.0, phi=1.0)
        h = synthesize_channel(desk_array, [truth])
        records = []
        p = omp_detect(desk_array, h, desk_codebook)
        for j in range(5):
            p, _ = newton_refine_once(desk_array, h, p,
                                      trace=lambda *a: records.append(a),
                                      round_index=j)
        assert len(records) == 5
        for (_, _, _, _, _, _, c_before, c_after, accepted) in records:
            if accepted:
                assert c_after >= c_before

    def test_returns_projection_at_returned_point(self, desk_array, rng):
        # What a step returns beside its params is what the next step would
        # have projected, so passing it on changes nothing.
        truth = random_path(desk_array, rng)
        y = add_noise(synthesize_channel(desk_array, [truth]), 1e-2, rng).y
        p, proj = random_path(desk_array, rng), None
        for _ in range(5):
            p, proj = newton_refine_once(desk_array, y, p, proj=proj)
            assert proj == project(desk_array, y, p.theta, p.r)


def _turn_case(cfg, kind, u):
    """Truth and start of a Newton turn from seven unit draws: mid-array,
    within 1e-6..1e-2 rad of either endfire, or in the outer annulus half."""
    if kind == "endfire":
        th_t, th_s = 10 ** (-6 + 4 * u[0]), 10 ** (-6 + 4 * u[1])
        if u[6] < 0.5:
            th_t, th_s = np.pi - th_t, np.pi - th_s
    else:
        th_t = 0.3 + 2.5 * u[0]
        th_s = th_t + 0.04 * (u[1] - 0.5)
    far = cfg.rayleigh_distance
    near = far / 2 if kind == "far_edge" else cfg.min_near_distance
    r_t, r_s = (near + (far - near) * v for v in u[2:4])
    return (PathParams(th_t, r_t, 1.0, 2 * np.pi * u[4]),
            PathParams(th_s, r_s, 0.5 + u[5], 2 * np.pi * u[6]))


def _assert_turn_exact(codebook, y, start, rounds):
    """_refine returns the plain loop's params bit for bit, its steps are the
    loop's first steps, it traces each executed step once, and it stops
    early only at a fixed point the loop then repeats. Returns its records."""
    cfg = EstimatorConfig(codebook=codebook, single_rounds=rounds)
    want_records, records, calls = [], [], []
    want = plain_refine(cfg, y, start, 0, lambda *a: want_records.append(a))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "newton_refine_once",
                   _recording(estimator.newton_refine_once, calls))
        got = estimator._refine(cfg, y, start, 0, lambda *a: records.append(a))
    assert as_vector(got).tobytes() == as_vector(want).tobytes()
    assert len(records) == len(calls) <= rounds
    assert records == want_records[:len(records)]
    for later in want_records[len(records):]:
        assert later[2:] == records[-1][2:]
    return records


class TestRefineTurn:
    @given(kind=st.sampled_from(["mid", "endfire", "far_edge"]),
           u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
           sigma2=st.sampled_from([0.0, 1e-3, 1e-1]),
           seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_loop(self, desk_array, desk_codebook, kind, u,
                                sigma2, seed, rounds):
        truth, start = _turn_case(desk_array, kind, u)
        y = add_noise(synthesize_channel(desk_array, [truth]), sigma2, seed).y
        _assert_turn_exact(desk_codebook, y, start, rounds)

    def test_skip_branch_stops_at_fixed_point(self, desk_array, desk_codebook):
        truth = PathParams(theta=1.3, r=2.0, g=1.0)
        start = _saddle_start(desk_array, truth)
        h = synthesize_channel(desk_array, [truth])
        H2 = grad_hess(desk_array, h, start)[1][:2, :2]
        assert not (H2[0, 0] < 0 and np.linalg.det(H2) > 0)
        # Step 1 only refits the gain; step 2 returns its input.
        records = _assert_turn_exact(desk_codebook, h, start, 5)
        assert len(records) == 2 and not any(r[8] for r in records)

    @pytest.mark.parametrize("truth, start, sigma2, seed, hit", [
        ((2e-4, 4.5, 1.0, 3.5), (1.5e-6, 2.0, 1.0), 0.0, 0, "theta_lo"),
        ((np.pi - 1.7e-5, 5.4, 1.0, 2.1), (np.pi - 1.5e-4, 5.6, 1.0), 1e-3, 7,
         "theta_hi"),
        ((1.26, 6.09, 1.0, 3.9), (1.25, 5.18, 1.0), 0.1, 5, "r_hi"),
    ])
    def test_clamped_steps(self, desk_array, desk_codebook, truth, start,
                           sigma2, seed, hit):
        h = synthesize_channel(desk_array, [PathParams(*truth)])
        y = add_noise(h, sigma2, seed).y
        records = _assert_turn_exact(desk_codebook, y, PathParams(*start), 8)
        edge = {"theta_lo": (2, THETA_EDGE), "theta_hi": (2, np.pi - THETA_EDGE),
                "r_hi": (3, desk_array.rayleigh_distance)}[hit]
        assert any(r[8] and r[edge[0]] == edge[1] for r in records)

    @pytest.mark.parametrize("theta, r", [
        (1.0, 2.0), (0.0, 0.0), (-1.0, 1e6), (4.0, -1.0), (np.inf, np.inf),
        (-np.inf, -np.inf), (np.nan, np.nan), (THETA_EDGE, 6.144)])
    def test_clamp_equals_np_clip(self, desk_array, theta, r):
        got = _clamp_params(desk_array, np.float64(theta), np.float64(r))
        want = (np.clip(theta, THETA_EDGE, np.pi - THETA_EDGE),
                np.clip(r, desk_array.min_near_distance, desk_array.rayleigh_distance))
        assert all(type(v) is float for v in got)
        assert np.array_equal(got, want, equal_nan=True)


class TestCovariance:
    def test_symmetric_psd_with_nonnegative_diagonal(self, desk_array, rng):
        p = random_path(desk_array, rng)
        h = synthesize_channel(desk_array, [p])
        y = add_noise(h, p.g**2 / 1000, rng)
        cov = soft_estimates(desk_array, y, [p])[0].cov
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(cov) >= 0)
        assert np.all(np.diag(cov) >= 0)

    def test_scales_linearly_with_noise_power(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0)
        h = synthesize_channel(desk_array, [p])
        c1 = soft_estimates(desk_array, Measurement(h, 1e-6), [p])[0].cov
        c2 = soft_estimates(desk_array, Measurement(h, 2e-6), [p])[0].cov
        assert np.allclose(c2, 2 * c1, rtol=1e-12)

    def test_matches_empirical_spread_at_high_snr(self, desk_array, desk_codebook):
        # Reported sqrt(cov_theta_theta) within a factor 3 of the Monte
        # Carlo RMSE of the refined angle at 30 dB SNR.
        truth = PathParams(theta=1.35, r=2.2, g=1.0, phi=0.7)
        h = synthesize_channel(desk_array, [truth])
        sigma2 = truth.g**2 / 10**3  # 30 dB
        rng = np.random.default_rng(31)
        errs, stds = [], []
        cfg = EstimatorConfig(codebook=desk_codebook)
        for _ in range(300):
            y = add_noise(h, sigma2, rng)
            est = vnnce([y], [1], cfg)[0][0]
            errs.append(est.params.theta - truth.theta)
            stds.append(np.sqrt(est.cov[0, 0]))
        emp = float(np.sqrt(np.mean(np.square(errs))))
        rep = float(np.mean(stds))
        assert rep / emp < 3.0
        assert emp / rep < 3.0


class TestRefinementCovariance:
    """The soft information an estimate carries belongs to the point it
    returns, taken against the final residual of the other paths."""

    def test_single_path_cov_is_laplace_at_returned_point(self, desk_array,
                                                          desk_codebook):
        truth = PathParams(theta=1.35, r=2.2, g=1.0, phi=0.7)
        sigma2 = 1e-3
        y = add_noise(synthesize_channel(desk_array, [truth]), sigma2, 5)
        est = vnnce([y], [1], EstimatorConfig(codebook=desk_codebook))[0][0]
        info = -grad_hess(desk_array, y.y, est.params)[1]
        cov = psd_repair(info, PSD_FLOOR_SCALE * 64, invert=True)
        assert np.array_equal(est.cov, sigma2 * cov)

    def test_each_path_against_final_residual_of_the_other(self, desk_array,
                                                           desk_codebook):
        paths = [PathParams(theta=1.0, r=1.5, g=1.0, phi=0.4),
                 PathParams(theta=2.1, r=3.0, g=0.7, phi=2.5)]
        sigma2 = 1e-3
        y = add_noise(synthesize_channel(desk_array, paths), sigma2, 3)
        ests = vnnce([y], [2], EstimatorConfig(codebook=desk_codebook))[0]
        assert len(ests) == 2
        for k, est in enumerate(ests):
            other = ests[1 - k].params
            grad, hess = grad_hess(desk_array, residual(desk_array, y.y, [other]),
                                   est.params)
            assert np.array_equal(est.grad, grad)
            assert np.array_equal(est.hess, hess)
            cov = psd_repair(-hess, PSD_FLOOR_SCALE * 64, invert=True)
            assert np.array_equal(est.cov, sigma2 * cov)

    def test_zero_rounds_return_detection_with_soft_information(
            self, desk_array, desk_codebook):
        truth = PathParams(theta=1.35, r=2.2, g=1.0, phi=0.7)
        sigma2 = 1e-3
        y = add_noise(synthesize_channel(desk_array, [truth]), sigma2, 5)
        cfg = EstimatorConfig(codebook=desk_codebook, single_rounds=0,
                              cyclic_rounds=0)
        est = vnnce([y], [1], cfg)[0][0]
        coarse = omp_detect(desk_array, y.y, desk_codebook)
        assert est.params == coarse
        grad, hess = grad_hess(desk_array, y.y, coarse)
        assert np.array_equal(est.grad, grad)
        assert np.array_equal(est.hess, hess)
        assert est.sigma2 == sigma2


class TestOmpDetect:
    def test_on_grid_exact_winner(self, desk_array, desk_codebook):
        theta, r = float(desk_codebook.theta[500]), float(desk_codebook.r[500])
        h = synthesize_channel(
            desk_array, [PathParams(theta=theta, r=r, g=1.0, phi=0.3)])
        p = omp_detect(desk_array, h, desk_codebook)
        assert p.theta == pytest.approx(theta, abs=1e-12)
        assert p.r == pytest.approx(r, rel=1e-12)
        assert p.g == pytest.approx(1.0, rel=1e-9)

    def test_off_grid_winner_within_one_cell(self, desk_array, desk_codebook):
        rng = np.random.default_rng(9)
        for _ in range(20):
            truth = PathParams(theta=float(np.arccos(rng.uniform(-0.9, 0.9))),
                               r=float(rng.uniform(0.5, 5.0)), g=1.0,
                               phi=float(rng.uniform(0, 2 * np.pi)))
            h = synthesize_channel(desk_array, [truth])
            p = omp_detect(desk_array, h, desk_codebook)
            a = alpha_of(desk_array, np.cos(p.theta), np.cos(truth.theta))
            b = beta_of(desk_array, truth.theta, p.r, truth.r)
            assert abs(a) <= 0.5 + 1e-9
            assert abs(b) <= 1.0 + 1e-6

    def test_tie_breaks_to_lowest_index(self, desk_array, desk_codebook):
        p = omp_detect(desk_array, np.zeros(64, dtype=complex), desk_codebook)
        assert p.theta == desk_codebook.theta[0]
        assert p.r == desk_codebook.r[0]

    def test_empty_codebook_rejected(self, desk_array, desk_codebook):
        empty = Codebook(array=desk_array, config=desk_codebook.config, theta=[],
                         r=[], cos_theta=[], n_theta=[], n_r=[])
        assert empty.steering_matrix.shape == (64, 0)
        with pytest.raises(ValueError):
            omp_detect(desk_array, np.zeros(64, dtype=complex), empty)

    def test_scores_equal_copying_product(self, desk_array, desk_codebook):
        # y^H B reads B in place; the scores of the codewords with a
        # column match B^H y, which copies B.
        B = desk_codebook.steering_matrix
        for seed in range(5):
            rng = np.random.default_rng(seed)
            y = rng.normal(size=64) + 1j * rng.normal(size=64)
            want = np.abs(B.conj().T @ y) ** 2
            got = desk_codebook.scores(y)[:len(desk_codebook) - desk_codebook.num_twins]
            assert np.array_equal(got, want)


class TestMirrorDetection:
    """Scores from the steering matrix without twin columns match a full
    matrix built one near_steering per codeword, and detection picks the
    same codeword."""

    @staticmethod
    def _residuals(cb, seed):
        # Two plain Gaussian rows and two with a random path in them.
        rng = np.random.default_rng(seed)
        M = cb.array.num_antennas
        ys = rng.normal(size=(4, M)) + 1j * rng.normal(size=(4, M))
        for y in ys[2:]:
            y += 10.0 * synthesize_channel(cb.array, [random_path(cb.array, rng)])
        return ys

    def test_scores_and_argmax_match_full_matrix(self, mirror_case):
        cb, _ = mirror_case
        B_full = full_steering_matrix(cb)
        for seed in range(3):
            ys = self._residuals(cb, seed)
            want = np.abs(ys.conj() @ B_full) ** 2
            for got in (cb.scores(ys), [cb.scores(y) for y in ys],
                        cb.scores(ys[:1])):
                for g, w, y in zip(got, want, ys):
                    assert g.shape == w.shape == (len(cb),)
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * w.max())
                    best = int(np.argmax(w))
                    p = omp_detect(cb.array, y, cb, g)
                    assert (p.theta, p.r) == (cb.theta[best], cb.r[best])


class TestResidual:
    def test_no_fixed_paths_is_identity(self, desk_array, rng):
        y = synthesize_channel(desk_array, [random_path(desk_array, rng)])
        assert np.array_equal(residual(desk_array, y, []), y)

    def test_one_of_two_fixed(self, desk_array, rng):
        p1, p2 = random_path(desk_array, rng), random_path(desk_array, rng)
        y = synthesize_channel(desk_array, [p1, p2])
        res = residual(desk_array, y, [p1])
        assert np.allclose(res, synthesize_channel(desk_array, [p2]), atol=1e-12)


class TestVnnce:
    def test_single_path_on_grid_exact(self, desk_array, desk_codebook):
        truth = PathParams(theta=float(desk_codebook.theta[700]),
                           r=float(desk_codebook.r[700]), g=1.2, phi=0.9)
        y = Measurement(y=synthesize_channel(desk_array, [truth]))
        est = vnnce([y], [1], EstimatorConfig(codebook=desk_codebook))[0][0]
        assert est.params.theta == pytest.approx(truth.theta, abs=1e-9)
        assert est.params.r == pytest.approx(truth.r, rel=1e-6)
        assert est.params.g == pytest.approx(1.2, rel=1e-9)

    def test_two_paths_noiseless(self, desk_array, desk_codebook):
        paths = [PathParams(theta=1.0, r=1.5, g=1.0, phi=0.4),
                 PathParams(theta=2.1, r=3.0, g=0.7, phi=2.5)]
        h = synthesize_channel(desk_array, paths)
        y = Measurement(y=h)
        ests = vnnce([y], [2], EstimatorConfig(codebook=desk_codebook))[0]
        h_est = synthesize_channel(desk_array, [e.params for e in ests])
        nmse = np.linalg.norm(h - h_est) ** 2 / np.linalg.norm(h) ** 2
        assert 10 * np.log10(nmse) <= -60.0

    def test_permutation_robust_recovery(self, desk_array, desk_codebook):
        # Recovered (theta, r) set matches truth under optimal assignment,
        # for both orderings of relative path strength.
        for gains in ((1.0, 0.6), (0.6, 1.0)):
            paths = [PathParams(theta=1.0, r=1.5, g=gains[0], phi=0.4),
                     PathParams(theta=2.1, r=3.0, g=gains[1], phi=2.5)]
            y = Measurement(y=synthesize_channel(desk_array, paths))
            ests = vnnce([y], [2], EstimatorConfig(codebook=desk_codebook))[0]
            D = np.array([[np.hypot(e.params.theta - p.theta,
                                    (e.params.r - p.r) / p.r)
                           for p in paths] for e in ests])
            rows, cols = linear_sum_assignment(D)
            assert D[rows, cols].max() < 1e-4

    def test_config_validation(self, desk_codebook):
        y = Measurement(np.zeros(64, dtype=complex), 1e-3)
        for counts in ([0], [2, 0]):
            with pytest.raises(ValueError, match="path count must be >= 1"):
                vnnce([y] * len(counts), counts,
                      EstimatorConfig(codebook=desk_codebook))
        with pytest.raises(ValueError):
            EstimatorConfig(codebook=desk_codebook, single_rounds=-1)


class TestLockstep:
    """All BSs of a trial run step 1 in lockstep, one codebook scan per path
    order; each BS still takes exactly the steps it takes alone."""

    @pytest.fixture(scope="class")
    def desk(self):
        return load_scenario("scenarios/tab2_desk.json")

    @staticmethod
    def _draw(scenario, seed, snr_db):
        rng = np.random.default_rng(seed)
        per_bs = draw_paths(scenario, rng)
        sigma2 = max(sum(p.g**2 for p in paths) for paths in per_bs) \
            / 10.0 ** (snr_db / 10.0)
        return [add_noise(synthesize_channel(scenario.array, paths), sigma2, rng)
                for paths in per_bs]

    @staticmethod
    def _assert_matches_alone(ys, num_paths, cfg):
        together = vnnce(ys, num_paths, cfg)
        assert len(together) == len(ys)
        for y, n, ests in zip(ys, num_paths, together):
            alone = vnnce([y], [n], cfg)[0]
            assert [e.params for e in ests] == [e.params for e in alone]
        return together

    def test_matches_per_bs_runs(self, desk):
        for seed in range(3):
            for snr_db in (0.0, 10.0, 20.0, 30.0):
                self._assert_matches_alone(self._draw(desk, seed, snr_db),
                                           desk.path_counts(),
                                           desk.estimator_config())

    def test_matches_per_bs_runs_with_different_path_counts(self, desk):
        for seed in range(2):
            out = self._assert_matches_alone(self._draw(desk, seed, 20.0),
                                             [1, 3, 2, 4], desk.estimator_config())
            assert [len(ests) for ests in out] == [1, 3, 2, 4]

    def test_trial_scans_once_per_path_order(self, desk, monkeypatch):
        # tab2_desk: 4 BSs x 2 paths, so 2 scans of all 4 residuals.
        scans = []
        monkeypatch.setattr(Codebook, "scores", _recording(Codebook.scores, scans))
        run_trial(desk, 20.0, 0, 0)
        assert [args[1].shape for args in scans] == [(4, 64), (4, 64)]

    def test_scans_shrink_as_bss_finish(self, desk, monkeypatch):
        scans = []
        monkeypatch.setattr(Codebook, "scores", _recording(Codebook.scores, scans))
        vnnce(self._draw(desk, 0, 20.0)[:2], [1, 3], desk.estimator_config())
        assert [args[1].shape for args in scans] == [(2, 64), (1, 64), (1, 64)]

    def test_stacked_scan_rows_match_single_scans(self, desk_codebook):
        # A row of the stacked product (GEMM) can differ from the
        # one-vector product (GEMV) in the last bit, since BLAS may sum in
        # another order. Detection reads only the argmax, and omp_detect
        # recomputes cost and gain with project, so the values are compared
        # to a tolerance and the argmax exactly.
        rng = np.random.default_rng(41)
        for k in (1, 2, 4):
            ys = rng.normal(size=(k, 64)) + 1j * rng.normal(size=(k, 64))
            stacked = desk_codebook.scores(ys)
            for row, y in zip(stacked, ys):
                one = desk_codebook.scores(y)
                assert np.argmax(row) == np.argmax(one)
                assert np.allclose(row, one, rtol=1e-12, atol=1e-12 * one.max())

    def test_rejects_empty_input(self, desk_codebook):
        with pytest.raises(ValueError, match="at least one"):
            vnnce([], [], EstimatorConfig(codebook=desk_codebook))

    def test_rejects_length_mismatch(self, desk_codebook):
        y = Measurement(np.zeros(64, dtype=complex), 1e-3)
        with pytest.raises(ValueError, match="2 measurements but 1 path count"):
            vnnce([y, y], [1], EstimatorConfig(codebook=desk_codebook))


class TestOracleLs:
    def test_noiseless_exact(self, desk_array, rng):
        paths = [random_path(desk_array, rng) for _ in range(2)]
        h = synthesize_channel(desk_array, paths)
        assert np.allclose(oracle_ls(desk_array, h, paths), h, atol=1e-9)

    def test_expected_noise_floor(self, desk_array):
        # E||h - h_LS||^2 = sigma^2 * tr((B^H B)^{-1} B^H B) = L*sigma^2
        # for the projection residual... use the closed-form projector check:
        # E NMSE = sigma^2 * tr(P) / ||h||^2 with tr(P) = L.
        paths = [PathParams(theta=1.0, r=1.5, g=1.0, phi=0.4),
                 PathParams(theta=2.1, r=3.0, g=1.0, phi=2.5)]
        h = synthesize_channel(desk_array, paths)
        sigma2 = np.linalg.norm(h) ** 2 / 64 / 100  # ~20 dB per antenna
        rng = np.random.default_rng(23)
        vals = []
        for _ in range(400):
            y = add_noise(h, sigma2, rng)
            h_ls = oracle_ls(desk_array, y.y, paths)
            vals.append(np.linalg.norm(h - h_ls) ** 2)
        expected = 2 * sigma2  # L = 2
        assert np.mean(vals) == pytest.approx(expected, rel=0.2)
