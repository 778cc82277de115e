"""Single-path objective, derivatives, guarded Newton, and multi-path loop."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from nearfield.arraymodel import (ArrayConfig, Measurement, PathParams, add_noise,
                                  near_steering, synthesize_channel)
from nearfield.codebook import Codebook, CodebookConfig, build_codebook, scan_error
from nearfield import arraymodel, codebook, estimator, harness, pipeline
from nearfield.estimator import (MIN_LOGLIK_GAIN, THETA_EDGE,
                                 EstimatorConfig, Path, _clamp_params, _newton_step,
                                 grad_hess, newton_refine_once, omp_detect, project,
                                 psd_repair, residual, soft_estimates, vnnce)
from nearfield.harness import draw_paths, load_scenario, run_trial
from nearfield.pipeline import run_joint
from tests.conftest import random_path
from tests.reference import (ORACLE_RTOL, alpha_of, as_vector, at_ls_gain,
                             beta_of, central_differences, exact_score,
                             full_steering_matrix,
                             objective, oracle_grad_hess, oracle_ls, plain_cyclic,
                             plain_refine, reference_distance_derivatives,
                             reference_grad_hess, reference_newton_step, turn_case)


def _recording(fn, calls):
    """fn, appending its arguments to `calls` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


fd_grad = central_differences  # gradient of a scalar function


def assert_within_scan_bound(got, want, y, bounds=1):
    """Scores whose amplitudes sqrt(score) lie within `bounds` times the
    scan's float32 amplitude bound, scan_error(M) ||y||_1, of `want`'s."""
    delta = scan_error(len(y)) * np.abs(y).sum()
    assert np.abs(np.sqrt(got) - np.sqrt(want)).max() <= bounds * delta


def fd_hess(cfg, y, x, h):
    """Central finite differences of the (separately verified) gradient.

    Differencing the objective twice loses too many digits against the
    1e-4 tolerance; one FD layer on top of the FD-validated gradient keeps
    the oracle independent of the analytic Hessian formulas.
    """
    H = central_differences(
        lambda v: grad_hess(cfg, project(cfg, y, v[0], v[1]), PathParams(*v))[0],
        x, h)
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
        c = project(desk_array, h, p.theta, p.r).cost
        assert c == pytest.approx(64.0, rel=1e-12)

    def test_cost_scales_with_gain(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=0.5)
        h = synthesize_channel(desk_array, [p])
        c = project(desk_array, h, p.theta, p.r).cost
        assert c == pytest.approx(16.0, rel=1e-12)

    def test_cost_zero_input(self, desk_array):
        assert project(desk_array, np.zeros(64, dtype=complex), 1.0, 2.0).cost == 0.0

    def test_cost_global_phase_invariant(self, desk_array, rng):
        p = random_path(desk_array, rng)
        h = synthesize_channel(desk_array, [p])
        c0 = project(desk_array, h, 1.0, 2.0).cost
        c1 = project(desk_array, h * np.exp(1j * 0.77), 1.0, 2.0).cost
        assert c1 == pytest.approx(c0, rel=1e-12)

    def test_ls_gain_recovers_complex_gain(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=0.8, phi=2.1)
        h = synthesize_channel(desk_array, [p])
        gain = project(desk_array, h, p.theta, p.r).gain
        assert abs(gain) == pytest.approx(0.8, rel=1e-12)
        assert np.angle(gain) == pytest.approx(2.1, abs=1e-12)

    def test_ls_gain_strict_mismatch_contraction(self, desk_array, rng):
        # Cauchy-Schwarz: projecting a unit-gain steering vector onto a
        # different one gives |gain| < 1 strictly.
        for _ in range(10):
            p, q = random_path(desk_array, rng), random_path(desk_array, rng)
            h = near_steering(desk_array, p.theta, p.r)
            assert abs(project(desk_array, h, q.theta, q.r).gain) < 1.0


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
            grad, _ = grad_hess(desk_array, project(desk_array, h, p.theta, p.r), p)
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
            ana, _ = grad_hess(desk_array, project(desk_array, y, p.theta, p.r), p)
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
            _, ana = grad_hess(desk_array, project(desk_array, y, p.theta, p.r), p)
            num = fd_hess(desk_array, y, as_vector(p), fd_steps(p) * 0.1)
            assert np.linalg.norm(ana - num) <= 1e-4 * max(
                np.linalg.norm(num), 1.0)

    @pytest.mark.parametrize("kind", ["mid", "endfire", "far_edge"])
    @pytest.mark.parametrize("array", ["desk_array", "wide_array"])
    def test_matches_extended_precision_oracle(self, request, rng, array, kind):
        # Near endfire dr_m/dr - 1 and 1 - (dr_m/dr)^2 lie below the rounding
        # error of dr_m/dr, so forming them by subtraction leaves no correct
        # digit in the r entries.
        cfg = request.getfixturevalue(array)
        for _ in range(6):
            truth, p = turn_case(cfg, kind, rng.uniform(size=7))
            y = add_noise(synthesize_channel(cfg, [truth]), 0.1, rng).y
            got = grad_hess(cfg, project(cfg, y, p.theta, p.r), p)
            for g, w in zip(got, oracle_grad_hess(cfg, y, p)):
                assert np.all(np.abs(g - w) <= ORACLE_RTOL * np.abs(w)), (p, g, w)

    @given(num_antennas=st.sampled_from([64, 256]),
           angle=st.sampled_from(["mid", "endfire"]),
           edge=st.sampled_from(["inside", "near", "far"]),
           u=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           sigma2=st.sampled_from([1e-3, 1e-1, 1.0]), ls_gain=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_reference_formulas(self, num_antennas, angle, edge, u,
                                               sigma2, ls_gain, seed):
        # The basis-row kernel against the six-row formulas it replaced, at
        # random points, within 1e-3 rad of either endfire and on both
        # annulus edges: each gradient and Hessian entry within 1e-10 of the
        # sum of its terms' magnitudes, and both (theta, r) steps within
        # 1e-10 of what such entry errors can move them by.
        cfg = ArrayConfig(num_antennas=num_antennas, wavelength=0.003)
        near, far = cfg.min_near_distance, cfg.rayleigh_distance
        if angle == "endfire":
            theta = 10 ** (-6 + 3 * u[0])
            theta = theta if u[5] < 0.5 else np.pi - theta
        else:
            theta = 0.05 + (np.pi - 0.1) * u[0]
        r = {"near": near, "far": far}.get(edge, near + (far - near) * u[1])
        truth = PathParams(min(max(theta + 1e-3 * (u[2] - 0.5), 1e-7), np.pi - 1e-7),
                           r * (1.0 + 0.1 * (u[3] - 0.5)), 1.0, 2 * np.pi * u[4])
        y = add_noise(synthesize_channel(cfg, [truth]), sigma2, seed).y
        p = PathParams(theta, r, 0.2 + 2.0 * u[3], 2 * np.pi * u[5])
        if ls_gain:
            p = at_ls_gain(cfg, y, p)
        proj = project(cfg, y, theta, r)
        got, want = grad_hess(cfg, proj, p), reference_grad_hess(cfg, proj, p)
        scale = _term_scale(cfg, y, p)
        for g, w, s in zip(got, want, scale):
            assert np.all(np.abs(g - w) <= 1e-10 * s), (p, g, w)
        G, H = scale
        entries = estimator._derivatives(cfg, proj, p)
        for concentrated in (False, True):
            step = _newton_step(*entries, concentrated)
            ref = reference_newton_step(*want, concentrated)
            assert (step is None) == (ref is None)
            if ref is None:
                continue
            grad, hess = want
            if concentrated and hess[2, 2] * hess[3, 3] - hess[2, 3] ** 2 > 0.0:
                # The (theta, r) part of the full 4x4 step with the (g,
                # phi) gradient zeroed.
                d = np.concatenate([grad[:2], np.zeros(2)])
                x = np.linalg.solve(hess, d)
                reach = np.abs(np.linalg.inv(hess)) @ (
                    np.concatenate([G[:2], np.zeros(2)]) + H @ np.abs(x))
            else:
                reach = np.abs(np.linalg.inv(hess[:2, :2])) @ (
                    G[:2] + H[:2, :2] @ np.abs(ref))
            assert np.all(np.abs(np.subtract(step, ref)) <= 1e-10 * reach[:2])

    def test_hessian_symmetric(self, desk_array, rng):
        p = random_path(desk_array, rng)
        y = synthesize_channel(desk_array, [random_path(desk_array, rng)])
        _, H = grad_hess(desk_array, project(desk_array, y, p.theta, p.r), p)
        assert np.allclose(H, H.T, atol=1e-9)
        assert H[2, 2] == -2 * 64  # gain curvature is exactly -2M


def _term_scale(cfg, y, p):
    """The gradient and Hessian of the objective at p with every term of
    every sum taken by its magnitude: the size against which an entry's
    rounding error is measured."""
    k, M, g = cfg.wavenumber, cfg.num_antennas, p.g
    r_m = arraymodel.element_distances(cfg, p.theta, p.r)
    F = np.abs(reference_distance_derivatives(cfg, p.theta, p.r, r_m))
    a = np.abs(y)
    s = F @ a
    C = (F[:3] * a) @ F[:3].T
    H = np.empty((4, 4))
    H[:2, :2] = 2 * g * k * (k * C[:2, :2] + np.array([[s[3], s[4]], [s[4], s[5]]]))
    H[:2, 2] = H[2, :2] = 2 * k * s[:2]
    H[:2, 3] = H[3, :2] = 2 * g * k * C[:2, 2]
    H[2, 3] = H[3, 2] = 2 * s[2]
    H[2, 2], H[3, 3] = 2 * M, 2 * g * C[2, 2]
    G = np.array([2 * g * k * s[0], 2 * g * k * s[1], 2 * C[2, 2] + 2 * M * g,
                  2 * g * s[2]])
    return G, H


def _saddle_start(cfg, truth):
    """A start in the theta valley between the main lobe and a side lobe,
    where the (theta, r) sub-Hessian is not negative definite."""
    h = synthesize_channel(cfg, [truth])
    thetas = np.linspace(truth.theta + 0.02, truth.theta + 0.2, 400)
    costs = [project(cfg, h, t, truth.r).cost for t in thetas]
    return PathParams(theta=float(thetas[int(np.argmin(costs))]), r=truth.r, g=0.5)


class TestNewtonRefine:
    def test_truth_is_fixed_point(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.5)
        h = synthesize_channel(desk_array, [p])
        out, _ = newton_refine_once(
            desk_array, h, p, project(desk_array, h, p.theta, p.r))
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
            p = at_ls_gain(desk_array, h, omp_detect(
                desk_codebook, desk_codebook.scores(h[None])[0]))
            for _ in range(20):
                p, _ = newton_refine_once(
                    desk_array, h, p, project(desk_array, h, p.theta, p.r))
            assert abs(p.theta - truth.theta) < 1e-6
            assert abs(p.r - truth.r) / truth.r < 1e-4

    def test_indefinite_point_skipped(self, desk_array):
        # Between two symmetric lobes the cost surface has a saddle in
        # theta, so the sub-Hessian is not negative definite there.
        truth = PathParams(theta=1.3, r=2.0, g=1.0)
        h = synthesize_channel(desk_array, [truth])
        start = _saddle_start(desk_array, truth)
        at_start = project(desk_array, h, start.theta, start.r)
        H2 = grad_hess(desk_array, at_start, start)[1][:2, :2]
        assert not (H2[0, 0] < 0 and np.linalg.det(H2) > 0)
        out, _ = newton_refine_once(desk_array, h, start, at_start)
        assert out.theta == start.theta
        assert out.r == start.r

    def test_cost_tie_is_rejected(self, desk_array):
        # Near endfire the cost is flat in r below float64 resolution: from
        # this start the step's candidate is (1e-6, 0.1152), the annulus's
        # near edge, at exactly the start's cost. Only a strict rise is
        # accepted, so the step keeps the start's geometry and refits the
        # gain.
        truth = PathParams(2e-4, 4.5, 1.0, 3.5)
        h = synthesize_channel(desk_array, [truth])
        start = PathParams(1.5e-6, 2.0, 1.0)
        records = []
        out, _ = newton_refine_once(
            desk_array, h, start, project(desk_array, h, start.theta, start.r),
            trace=lambda *a: records.append(a))
        assert (out.theta, out.r) == (start.theta, start.r)
        (rec,) = records
        assert not rec[8] and rec[7] == rec[6]

    def test_distance_clamped_into_annulus(self, desk_array):
        truth = PathParams(theta=1.5, r=desk_array.rayleigh_distance * 0.99, g=1.0)
        h = synthesize_channel(desk_array, [truth])
        p = PathParams(theta=1.5, r=desk_array.rayleigh_distance, g=1.0)
        for _ in range(5):
            p, _ = newton_refine_once(
                desk_array, h, p, project(desk_array, h, p.theta, p.r))
            assert desk_array.min_near_distance <= p.r
            assert p.r <= desk_array.rayleigh_distance

    def test_trace_hook_records_accepted_steps(self, desk_array, desk_codebook):
        truth = PathParams(theta=1.25, r=2.3, g=1.0, phi=1.0)
        h = synthesize_channel(desk_array, [truth])
        records = []
        p = at_ls_gain(desk_array, h, omp_detect(
            desk_codebook, desk_codebook.scores(h[None])[0]))
        for j in range(5):
            p, _ = newton_refine_once(
                desk_array, h, p, project(desk_array, h, p.theta, p.r),
                trace=lambda *a: records.append(a), round_index=j)
        assert len(records) == 5
        for (_, _, _, _, _, _, c_before, c_after, accepted) in records:
            if accepted:
                assert c_after >= c_before

    def test_returns_projection_at_returned_point(self, desk_array, rng):
        # What a step returns beside its params is, bit for bit, what a
        # fresh projection at the returned point gives, derivatives included,
        # so passing it on to the next step changes nothing.
        truth = random_path(desk_array, rng)
        y = add_noise(synthesize_channel(desk_array, [truth]), 1e-2, rng).y
        p = random_path(desk_array, rng)
        proj = project(desk_array, y, p.theta, p.r)
        for _ in range(5):
            p, proj = newton_refine_once(desk_array, y, p, proj)
            fresh = project(desk_array, y, p.theta, p.r)
            assert (proj.cost, proj.gain) == (fresh.cost, fresh.gain)
            for got, want in [(proj.w, fresh.w), (proj.r_m, fresh.r_m),
                              (proj.b_conj, fresh.b_conj)]:
                assert got.tobytes() == want.tobytes()
            for got, want in zip(grad_hess(desk_array, proj, p),
                                 grad_hess(desk_array, fresh, p)):
                assert got.tobytes() == want.tobytes()


def _stops_turn(rec, sigma2):
    """Whether a step with trace record `rec` ends _refine's turn: it was
    a rejected concentrated step (any after the first), so it returned its
    input as every later step would, or it gained less than
    MIN_LOGLIK_GAIN * sigma2. A rejected first step is plain, and the
    concentrated step after it may still move."""
    if not rec[8]:
        return rec[1] > 0
    return rec[7] - rec[6] < MIN_LOGLIK_GAIN * sigma2


def _assert_turn_exact(codebook, y, start, rounds, sigma2):
    """_refine's steps are bit for bit the plain loop's first steps, it
    traces each executed step once, returns the last step's params (the LS
    refit at start's point if it took none), and it stops early exactly
    after the first step that ends a turn (a rejected concentrated step,
    which the loop then repeats, or an accepted step below the gain stop).
    The gain it returns is the drop in the misfit ||y - c||^2 of the path's
    reconstruction c. At sigma2 = 0 it returns the plain loop's params bit
    for bit. Returns its records."""
    cfg = EstimatorConfig(codebook=codebook, single_rounds=rounds)
    want_records, records, calls = [], [], []
    want = plain_refine(cfg, y, start, 0, lambda *a: want_records.append(a))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "newton_refine_once",
                   _recording(estimator.newton_refine_once, calls))
        path, gain = estimator._refine(cfg, y, sigma2, Path(start), 0,
                                       lambda *a: records.append(a))
    got, proj = path.params, path.at
    assert len(records) == len(calls) <= rounds
    fresh = project(codebook.array, y, got.theta, got.r)
    assert (proj.theta, proj.r, proj.cost, proj.gain) == \
        (fresh.theta, fresh.r, fresh.cost, fresh.gain)
    misfit = [np.linalg.norm(y - synthesize_channel(codebook.array, [p])) ** 2
              for p in (start, got)]
    assert abs(gain - (misfit[0] - misfit[1])) <= 1e-12 * np.linalg.norm(y) ** 2
    assert records == want_records[:len(records)]
    states = [as_vector(at_ls_gain(codebook.array, y, start))]
    states += [np.array(r[2:6]) for r in records]
    assert as_vector(got).tobytes() == states[-1].tobytes()
    stops = [_stops_turn(rec, sigma2) for rec in records]
    assert not any(stops[:-1])
    if len(records) < rounds:
        assert stops[-1]
    if records and not records[-1][8]:
        assert tuple(records[-1][2:6]) == tuple(states[-2])
        for later in want_records[len(records):]:
            assert later[2:] == records[-1][2:]
    if sigma2 == 0.0:
        assert as_vector(got).tobytes() == as_vector(want).tobytes()
    return records


class TestRefineTurn:
    @given(kind=st.sampled_from(["mid", "endfire", "far_edge"]),
           u=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
           sigma2=st.sampled_from([0.0, 1e-3, 1e-1]),
           seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_loop(self, desk_array, desk_codebook, kind, u,
                                sigma2, seed, rounds):
        truth, start = turn_case(desk_array, kind, u)
        y = add_noise(synthesize_channel(desk_array, [truth]), sigma2, seed).y
        _assert_turn_exact(desk_codebook, y, start, rounds, sigma2)

    def test_rejected_first_step_does_not_end_turn(self, desk_array,
                                                   desk_codebook):
        # Near endfire at sigma2 = 0 the plain first step is rejected, and
        # the concentrated step from the same point is accepted.
        truth, start = turn_case(desk_array, "endfire",
                                 [0.0, 0.0625, 0.0, 0.25, 0.625, 0.0, 0.0])
        y = synthesize_channel(desk_array, [truth])
        records = _assert_turn_exact(desk_codebook, y, start, 2, 0.0)
        assert [rec[8] for rec in records] == [False, True]

    def test_rejected_first_step_retries_on_one_derivative_pass(
            self, desk_array, desk_codebook, monkeypatch):
        # The turn of test_rejected_first_step_does_not_end_turn: the
        # rejected plain step returns its input projection, and the
        # concentrated retry at that point reads the derivative pass the
        # plain step made.
        truth, start = turn_case(desk_array, "endfire",
                                 [0.0, 0.0625, 0.0, 0.25, 0.625, 0.0, 0.0])
        y = synthesize_channel(desk_array, [truth])
        passes, records = [], []
        monkeypatch.setattr(estimator, "distance_basis",
                            _recording(estimator.distance_basis, passes))
        estimator._refine(EstimatorConfig(codebook=desk_codebook, single_rounds=2),
                          y, 0.0, Path(start), 0, lambda *a: records.append(a))
        assert [rec[8] for rec in records] == [False, True]
        assert len(passes) == 1

    def test_skip_branch_stops_at_fixed_point(self, desk_array, desk_codebook):
        truth = PathParams(theta=1.3, r=2.0, g=1.0)
        start = _saddle_start(desk_array, truth)
        h = synthesize_channel(desk_array, [truth])
        at_start = project(desk_array, h, start.theta, start.r)
        H2 = grad_hess(desk_array, at_start, start)[1][:2, :2]
        assert not (H2[0, 0] < 0 and np.linalg.det(H2) > 0)
        # The turn opens on the LS gain, so step 1 returns its input; the
        # concentrated step 2 moves nothing either, and the turn stops at
        # that fixed point.
        records = _assert_turn_exact(desk_codebook, h, start, 5, 0.0)
        assert [rec[8] for rec in records] == [False, False]

    # Each edge is reached by an accepted step that strictly raises the cost,
    # so no tie decides it: at theta_lo, the turn's third step (a
    # concentrated one) lands at theta = -1.29e-5 unclamped and raises the
    # cost by 2.9e-6 at the edge, in 50-digit arithmetic as well.
    @pytest.mark.parametrize("truth, start, sigma2, seed, hit", [
        ((0.008816, 1.9836, 1.0, 3.8517), (0.009439, 5.5668, 1.0), 0.1, 20,
         "theta_lo"),
        ((np.pi - 1.7e-5, 5.4, 1.0, 2.1), (np.pi - 1.5e-4, 5.6, 1.0), 1e-3, 7,
         "theta_hi"),
        ((1.26, 6.09, 1.0, 3.9), (1.25, 5.18, 1.0), 0.1, 5, "r_hi"),
    ])
    def test_clamped_steps(self, desk_array, desk_codebook, truth, start,
                           sigma2, seed, hit):
        h = synthesize_channel(desk_array, [PathParams(*truth)])
        y = add_noise(h, sigma2, seed).y
        records = _assert_turn_exact(desk_codebook, y, PathParams(*start), 8,
                                     sigma2)
        edge = {"theta_lo": (2, THETA_EDGE), "theta_hi": (2, np.pi - THETA_EDGE),
                "r_hi": (3, desk_array.rayleigh_distance)}[hit]
        assert any(r[8] and r[7] > r[6] and r[edge[0]] == edge[1] for r in records)

    def test_turn_ends_at_first_rejected_step(self, desk_array, desk_codebook):
        # Two accepted steps, each above the gain stop, then a concentrated
        # step whose system is negative definite but whose candidate lowers
        # the cost: it is reverted, returns its input, and ends the turn with
        # rounds to spare.
        truth = PathParams(2.2363, 4.4619, 1.0, 4.147)
        start = PathParams(2.2262, 6.003, 1.0)
        y = add_noise(synthesize_channel(desk_array, [truth]), 0.1, 63).y
        records = _assert_turn_exact(desk_codebook, y, start, 8, 0.1)
        assert [r[8] for r in records] == [True, True, False]
        p = PathParams(*records[1][2:6])
        at_p = project(desk_array, y, p.theta, p.r)
        step = _newton_step(*grad_hess(desk_array, at_p, p), True)
        cand = _clamp_params(desk_array, p.theta - step[0], p.r - step[1])
        assert project(desk_array, y, *cand).cost < at_p.cost

    def test_turn_opens_at_start_ls_gain(self, desk_array, desk_codebook):
        # A turn of no steps returns its start point with the LS gain there,
        # not the (g, phi) the path entered with, and its gain is that refit.
        truth = PathParams(1.2, 2.5, 1.0, 0.8)
        y = add_noise(synthesize_channel(desk_array, [truth]), 1e-2, 4).y
        start = PathParams(1.21, 2.4, 0.3, 5.0)
        cfg = EstimatorConfig(codebook=desk_codebook, single_rounds=0)
        got, gain = estimator._refine(cfg, y, 1e-2, Path(start), 0, None)
        assert got.params == at_ls_gain(desk_array, y, start)
        a = project(desk_array, y, start.theta, start.r).gain
        assert gain == pytest.approx(64 * abs(a - cmath.rect(start.g, start.phi)) ** 2,
                                     rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), sigma2=st.sampled_from([0.0, 1e-3, 1e-1]),
           num_paths=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_only_the_last_step_of_a_turn_is_rejected(self, desk_array,
                                                      desk_codebook, seed,
                                                      sigma2, num_paths):
        # Over whole estimates, each turn (its records start at round 0)
        # ends at its first rejected step after the first: a concentrated
        # step that keeps (theta, r) from a point whose gain is already LS
        # there returns its input, and so would every later one.
        rng = np.random.default_rng(seed)
        truth = [random_path(desk_array, rng) for _ in range(num_paths)]
        y = add_noise(synthesize_channel(desk_array, truth), sigma2, rng)
        records = []
        vnnce([y], [num_paths], EstimatorConfig(codebook=desk_codebook),
              lambda *a: records.append(a))
        starts = [j for j, rec in enumerate(records) if rec[1] == 0]
        for lo, hi in zip(starts, starts[1:] + [len(records)]):
            assert all(rec[8] for rec in records[lo + 1:hi - 1])

    def test_closed_form_step_matches_solve(self, desk_array, rng):
        # Negative-definite Hessians with the scale disparity of the real
        # ones (curvatures over eight decades) and a bounded condition, and a
        # turn's systems. The plain step solves the (theta, r) block; the
        # concentrated one is the (theta, r) part of the full 4x4 step with
        # the (g, phi) gradient zeroed.
        systems = []
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-4, 4, 4)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            corr = q @ np.diag(rng.uniform(0.1, 1.0, 4)) @ q.T
            unit = scale / np.sqrt(np.diag(corr))
            systems.append((rng.normal(size=4) * scale, -np.outer(unit, unit) * corr))
        truth = random_path(desk_array, rng)
        y = add_noise(synthesize_channel(desk_array, [truth]), 1e-2, rng).y
        p = at_ls_gain(desk_array, y, PathParams(truth.theta + 0.003, truth.r * 1.2, 0.0))
        proj = project(desk_array, y, p.theta, p.r)
        for j in range(8):
            systems.append(grad_hess(desk_array, proj, p))
            p, proj = newton_refine_once(desk_array, y, p, proj, concentrated=j > 0)
        for grad, hess in systems:
            zeroed = np.concatenate([grad[:2], np.zeros(2)])
            for concentrated, want in [
                    (False, np.linalg.solve(hess[:2, :2], grad[:2])),
                    (True, np.linalg.solve(hess, zeroed)[:2])]:
                got = _newton_step(grad, hess, concentrated)
                assert np.linalg.norm(np.subtract(got, want)) \
                    <= 1e-12 * np.linalg.norm(want)

    def test_first_step_of_a_turn_plain_later_steps_concentrated(
            self, desk_array, desk_codebook, monkeypatch):
        # The turn of test_turn_ends_at_first_rejected_step: steps 2 and 3
        # solve the system concentrated over gain and phase, and step 2's
        # point is that step's, not the plain one's.
        truth = PathParams(2.2363, 4.4619, 1.0, 4.147)
        y = add_noise(synthesize_channel(desk_array, [truth]), 0.1, 63).y
        kinds, records = [], []

        def step(grad, hess, concentrated=False):
            kinds.append(concentrated)
            return _newton_step(grad, hess, concentrated)

        monkeypatch.setattr(estimator, "_newton_step", step)
        estimator._refine(EstimatorConfig(codebook=desk_codebook, single_rounds=8),
                          y, 0.1, Path(PathParams(2.2262, 6.003, 1.0)), 0,
                          lambda *a: records.append(a))
        assert kinds == [False, True, True]
        p = PathParams(*records[0][2:6])
        at_p = grad_hess(desk_array, project(desk_array, y, p.theta, p.r), p)
        steps = [_newton_step(*at_p, concentrated) for concentrated in (False, True)]
        cands = [_clamp_params(desk_array, p.theta - dt, p.r - dr) for dt, dr in steps]
        assert cands[0] != cands[1] and tuple(records[1][2:4]) == cands[1]

    def test_zero_ls_gain_falls_back_to_plain_step(self, desk_array):
        # At g = 0 the (g, phi) block is singular: the concentrated step is
        # the plain one, with no division by its zero determinant (numpy
        # RuntimeWarnings are test errors).
        truth = PathParams(1.2, 2.5, 1.0, 0.8)
        y = synthesize_channel(desk_array, [truth])
        p = PathParams(1.21, 2.4, 0.0)
        grad, hess = grad_hess(desk_array, project(desk_array, y, p.theta, p.r), p)
        assert hess[2, 2] * hess[3, 3] - hess[2, 3] ** 2 <= 0.0
        assert _newton_step(grad, hess, True) == _newton_step(grad, hess, False)
        hess = -np.eye(4)
        hess[2, 3] = hess[3, 2] = hess[3, 3] = 0.0  # singular, x-block definite
        assert _newton_step(np.ones(4), hess, True) == (-1.0, -1.0)
        zero = np.zeros(64, dtype=complex)  # the LS gain is exactly 0
        at = project(desk_array, zero, p.theta, p.r)
        out, after = newton_refine_once(desk_array, zero, p, at, concentrated=True)
        assert out == PathParams(p.theta, p.r, 0.0, 0.0) and after is at

    def test_step_not_taken_unless_negative_definite(self):
        grad = np.ones(4)
        for block in ([[1.0, 0.0], [0.0, -1.0]], [[-1.0, 2.0], [2.0, -1.0]],
                      [[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, -1.0]],
                      [[np.nan, 0.0], [0.0, -1.0]]):
            hess = -np.eye(4)
            hess[:2, :2] = block
            assert _newton_step(grad, hess) is None
            assert _newton_step(grad, hess, True) is None
        # A definite (theta, r) block whose Schur complement over (g, phi)
        # is singular: only the concentrated step is refused.
        hess = -np.eye(4)
        hess[0, 2] = hess[2, 0] = 1.0
        assert _newton_step(grad, hess) == (-1.0, -1.0)
        assert _newton_step(grad, hess, True) is None

    @pytest.mark.parametrize("name", ["tab2_desk", "tab2_paper"])
    def test_step_count_budget(self, name):
        # The first trial of each default sweep grid point: 416 (desk) and
        # 328 (paper) Newton steps with every step after a turn's first
        # concentrated over gain and phase; 586 and 495 with the plain step
        # throughout. Both counts run with the turn's gain stop and the
        # cyclic rounds' stop. A count, so it does not depend on the machine.
        scenario = load_scenario(f"scenarios/{name}.json")
        steps = []
        for idx, snr_db in enumerate([0.0, 10.0, 20.0, 30.0]):
            run_trial(scenario, snr_db, idx, 0, trace=lambda *a: steps.append(a))
        assert len(steps) <= 450

    @pytest.mark.parametrize("name, max_passes, max_geometry", [
        ("tab2_desk", 442, 572), ("tab2_paper", 354, 462)])
    def test_derivative_and_geometry_budget(self, name, max_passes, max_geometry,
                                            monkeypatch):
        # The trials of test_step_count_budget make 437 (desk) and 349
        # (paper) derivative passes and 551 and 446 evaluations of element
        # distances, each with its steering vector, the harness's channel
        # synthesis included. Recomputing a retried step's derivatives made
        # 448 and 360 passes, and rebuilding each turn's start point and the
        # residual's other paths 975 and 771 evaluations; with step 3
        # evaluating again the points step 1 had built, 589 and 464 (bounds
        # 610 and 480, the same slack). A count, so it does not depend on
        # the machine.
        scenario = load_scenario(f"scenarios/{name}.json")
        passes, geometry = [], []
        monkeypatch.setattr(estimator, "distance_basis",
                            _recording(estimator.distance_basis, passes))
        counted = _recording(arraymodel.element_distances, geometry)
        for module in (arraymodel, estimator):
            monkeypatch.setattr(module, "element_distances", counted)
        for idx, snr_db in enumerate([0.0, 10.0, 20.0, 30.0]):
            run_trial(scenario, snr_db, idx, 0)
        assert len(passes) <= max_passes
        assert len(geometry) <= max_geometry

    @pytest.mark.parametrize("theta, r", [
        (1.0, 2.0), (0.0, 0.0), (-1.0, 1e6), (4.0, -1.0), (np.inf, np.inf),
        (-np.inf, -np.inf), (np.nan, np.nan), (THETA_EDGE, 6.144)])
    def test_clamp_equals_np_clip(self, desk_array, theta, r):
        got = _clamp_params(desk_array, np.float64(theta), np.float64(r))
        want = (np.clip(theta, THETA_EDGE, np.pi - THETA_EDGE),
                np.clip(r, desk_array.min_near_distance, desk_array.rayleigh_distance))
        assert all(type(v) is float for v in got)
        assert np.array_equal(got, want, equal_nan=True)


def _returning(fn, results):
    """fn, appending its result to `results` on every call."""
    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]
    return wrapper


class TestCyclicRefine:
    @given(seed=st.integers(0, 2**32 - 1), sigma2=st.sampled_from([0.0, 1e-3, 1e-1]),
           rounds=st.integers(0, 6), freeze=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stops_after_first_round_without_gain(self, desk_array, desk_codebook,
                                                  seed, sigma2, rounds, freeze):
        # From two detected paths, each after its own first turn: the loop's
        # steps are the fixed-round loop's first steps, each round's turn
        # gains sum to the drop in the misfit ||y - sum of paths||^2, and the
        # loop stops exactly after the first round that gains under
        # MIN_LOGLIK_GAIN nats or leaves every path unchanged.
        rng = np.random.default_rng(seed)
        truth = [random_path(desk_array, rng) for _ in range(2)]
        y = add_noise(synthesize_channel(desk_array, truth), sigma2, rng)
        detect = EstimatorConfig(codebook=desk_codebook, cyclic_rounds=0)
        start = [e.params for e in vnnce([y], [2], detect)[0]]
        frozen = 0 if freeze else None
        cfg = EstimatorConfig(codebook=desk_codebook)
        want_records = []
        snapshots, _ = plain_cyclic(cfg, y, start, rounds,
                                    lambda *a: want_records.append(a), frozen)
        records, turns = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_refine", _returning(estimator._refine, turns))
            got = [p.params for p in estimator.cyclic_refine(
                cfg, y, [Path(p) for p in start], rounds,
                lambda *a: records.append(a), frozen)]
        assert records == want_records[:len(records)]
        fixed = 0 if frozen is None else 1  # turns before and after the rounds
        gains = [gain for _, gain in turns[fixed:len(turns) - fixed]]
        ran = len(gains) // 2
        assert len(gains) == 2 * ran and got == plain_cyclic(cfg, y, start, ran,
                                                             None, frozen)[1]

        def misfit(paths):
            return np.linalg.norm(y.y - synthesize_channel(desk_array, paths)) ** 2

        stops = []
        for before, after, gain in zip(snapshots, snapshots[1:],
                                       np.add(gains[::2], gains[1::2])):
            assert abs(gain - (misfit(before) - misfit(after))) \
                <= 1e-12 * np.linalg.norm(y.y) ** 2
            unchanged = after == before
            stops.append(gain < MIN_LOGLIK_GAIN * sigma2 or unchanged)
            if sigma2 == 0.0:
                assert stops[-1] == unchanged
        assert not any(stops[:-1])
        assert ran == rounds or stops[-1]


class TestCovariance:
    def test_symmetric_psd_with_nonnegative_diagonal(self, desk_array, rng):
        p = random_path(desk_array, rng)
        h = synthesize_channel(desk_array, [p])
        y = add_noise(h, p.g**2 / 1000, rng)
        cov = soft_estimates(desk_array, y, [Path(p)])[0].cov
        assert np.allclose(cov, cov.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(cov) >= 0)
        assert np.all(np.diag(cov) >= 0)

    def test_scales_linearly_with_noise_power(self, desk_array):
        p = PathParams(theta=1.3, r=2.0, g=1.0)
        h = synthesize_channel(desk_array, [p])
        c1 = soft_estimates(desk_array, Measurement(h, 1e-6), [Path(p)])[0].cov
        c2 = soft_estimates(desk_array, Measurement(h, 2e-6), [Path(p)])[0].cov
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
        p = est.params
        info = -grad_hess(desk_array, project(desk_array, y.y, p.theta, p.r), p)[1]
        cov = psd_repair(info, invert=True)
        assert np.array_equal(est.cov, sigma2 * cov)

    def test_cov_is_exact_inverse_wherever_information_is_definite(self):
        # The repair must not touch valid curvature at any path gain: on
        # tab2_paper the LoS information has eigenvalues near 1e-12, which
        # an absolute floor of that size clipped to a ~19x smaller sigma_r.
        scenario = load_scenario("scenarios/tab2_paper.json")
        _, result = run_trial(scenario, 30.0, 3, 0, return_joint=True)
        estimates = [e for bs in result.step1 for e in bs]
        for est in estimates:
            info = -est.hess
            # Cholesky, unlike eigvalsh, decides definiteness independently
            # of the diagonal's scale, which here spans 20 decades.
            np.linalg.cholesky(info)
            ref = est.sigma2 * np.linalg.inv(info)
            d = np.sqrt(np.diag(ref))
            assert np.all(np.abs(est.cov - ref) <= 1e-9 * np.outer(d, d))
        assert len(estimates) == 8

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
            y_r = residual(desk_array, y.y, [Path(other)])
            p = est.params
            hess = grad_hess(desk_array, project(desk_array, y_r, p.theta, p.r), p)[1]
            assert np.array_equal(est.hess, hess)
            cov = psd_repair(-hess, invert=True)
            assert np.array_equal(est.cov, sigma2 * cov)

    def test_zero_rounds_return_detection_with_soft_information(
            self, desk_array, desk_codebook):
        truth = PathParams(theta=1.35, r=2.2, g=1.0, phi=0.7)
        sigma2 = 1e-3
        y = add_noise(synthesize_channel(desk_array, [truth]), sigma2, 5)
        cfg = EstimatorConfig(codebook=desk_codebook, single_rounds=0,
                              cyclic_rounds=0)
        est = vnnce([y], [1], cfg)[0][0]
        coarse = omp_detect(desk_codebook, desk_codebook.scores(y.y[None])[0])
        assert est.params == at_ls_gain(desk_array, y.y, coarse)
        hess = grad_hess(
            desk_array, project(desk_array, y.y, coarse.theta, coarse.r), est.params)[1]
        assert np.array_equal(est.hess, hess)
        assert est.sigma2 == sigma2


class TestOmpDetect:
    def test_on_grid_exact_winner(self, desk_array, desk_codebook):
        theta, r = float(desk_codebook.theta[500]), float(desk_codebook.r[500])
        h = synthesize_channel(
            desk_array, [PathParams(theta=theta, r=r, g=1.0, phi=0.3)])
        p = omp_detect(desk_codebook, desk_codebook.scores(h[None])[0])
        assert p.theta == pytest.approx(theta, abs=1e-12)
        assert p.r == pytest.approx(r, rel=1e-12)
        cfg = EstimatorConfig(codebook=desk_codebook, single_rounds=0,
                              cyclic_rounds=0)
        est = vnnce([Measurement(y=h)], [1], cfg)[0][0].params
        assert est == at_ls_gain(desk_array, h, p)
        a = project(desk_array, h, p.theta, p.r).gain
        assert a == pytest.approx(cmath.rect(1.0, 0.3), rel=1e-9)

    def test_off_grid_winner_within_one_cell(self, desk_array, desk_codebook):
        rng = np.random.default_rng(9)
        for _ in range(20):
            truth = PathParams(theta=float(np.arccos(rng.uniform(-0.9, 0.9))),
                               r=float(rng.uniform(0.5, 5.0)), g=1.0,
                               phi=float(rng.uniform(0, 2 * np.pi)))
            h = synthesize_channel(desk_array, [truth])
            p = omp_detect(desk_codebook, desk_codebook.scores(h[None])[0])
            a = alpha_of(desk_array, np.cos(p.theta), np.cos(truth.theta))
            b = beta_of(desk_array, truth.theta, p.r, truth.r)
            assert abs(a) <= 0.5 + 1e-9
            assert abs(b) <= 1.0 + 1e-6

    def test_tie_breaks_to_lowest_index(self, desk_array, desk_codebook):
        zero = np.zeros(64, dtype=complex)
        p = omp_detect(desk_codebook, desk_codebook.scores(zero[None])[0])
        assert p.theta == desk_codebook.theta[0]
        assert p.r == desk_codebook.r[0]

    def test_detection_makes_no_projection(self, desk_array, desk_codebook,
                                           monkeypatch):
        # The codeword comes back with zero gain: the turn that refines it
        # opens with the one projection there.
        h = synthesize_channel(desk_array, [PathParams(1.1, 2.0, 1.0, 0.3)])
        calls = []
        monkeypatch.setattr(estimator, "project",
                            _recording(estimator.project, calls))
        p = omp_detect(desk_codebook, desk_codebook.scores(h[None])[0])
        assert calls == [] and (p.g, p.phi) == (0.0, 0.0)

    def test_empty_codebook_rejected(self, desk_array, desk_codebook):
        empty = Codebook(array=desk_array, config=desk_codebook.config, theta=[],
                         r=[], cos_theta=[], n_theta=[], n_r=[])
        assert empty.steering_matrix.shape == (64, 0)
        zero = np.zeros(64, dtype=complex)
        scores = empty.scores(zero[None])[0]
        with pytest.raises(ValueError):
            omp_detect(empty, scores)

    def test_scores_equal_copying_product(self, desk_array, desk_codebook):
        # y^H B reads B in place; the scores of the codewords with a
        # column match B^H y on the float64 columns, which copies B, to the
        # scan's float32 amplitude bound.
        stored = len(desk_codebook) - desk_codebook.num_twins
        B = full_steering_matrix(desk_codebook)[:, :stored]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            y = rng.normal(size=64) + 1j * rng.normal(size=64)
            want = np.abs(B.conj().T @ y) ** 2
            got = desk_codebook.scores(y[None])[0, :stored]
            assert_within_scan_bound(got, want, y)
            assert np.argmax(got) == np.argmax(want)

    def test_argmax_invariant_to_row_scale(self, desk_array, desk_codebook):
        # Each row is scaled to max |y_m| = 1 before the complex64 cast, so
        # rows far outside float32's range pick the same codeword.
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.normal(size=64) + 1j * rng.normal(size=64)
            y += 5.0 * synthesize_channel(desk_array, [random_path(desk_array, rng)])
            best = {int(np.argmax(desk_codebook.scores(y[None] * f)[0]))
                    for f in (1e-45, 1e-30, 1.0, 1e30, 1e40)}
            assert len(best) == 1
        zero = np.zeros(64, dtype=complex)
        stacked = desk_codebook.scores(np.stack([zero, y]))
        assert not stacked[0].any() and np.argmax(stacked[0]) == 0


class TestMirrorDetection:
    """Scores from the steering matrix without twin columns match a full
    matrix built one near_steering per codeword, and detection picks the
    same codeword."""

    @staticmethod
    def _residuals(cb, seed):
        # Two plain Gaussian rows, two with a random path in them and those
        # two mirrored, whose path lies at (-cos theta, r).
        rng = np.random.default_rng(seed)
        M = cb.array.num_antennas
        ys = rng.normal(size=(4, M)) + 1j * rng.normal(size=(4, M))
        for y in ys[2:]:
            y += 10.0 * synthesize_channel(cb.array, [random_path(cb.array, rng)])
        return np.concatenate([ys, ys[2:, ::-1]])

    def test_scores_and_argmax_match_full_matrix(self, mirror_case):
        cb, _ = mirror_case
        B_full = full_steering_matrix(cb)
        for seed in range(3):
            ys = self._residuals(cb, seed)
            want = np.abs(ys.conj() @ B_full) ** 2
            for got in (cb.scores(ys), [cb.scores(y[None])[0] for y in ys],
                        cb.scores(ys[:1])):
                for g, w, y in zip(got, want, ys):
                    assert g.shape == w.shape == (len(cb),)
                    assert_within_scan_bound(g, w, y)
                    best = int(np.argmax(w))
                    p = omp_detect(cb, g)
                    assert (p.theta, p.r) == (cb.theta[best], cb.r[best])

    def test_rescores_match_exact_score(self, mirror_case):
        # The block re-score keeps every value within rtol 1e-12 of the
        # one-codeword float64 score, over a window of codewords and twins on
        # Gaussian rows, rows with a path, their mirrors and one-antenna
        # rows. On the first four the argmax is exact_score's; a one-antenna
        # row scores |y_m|^2 on every codeword, to rounding, so any codeword
        # is its argmax.
        cb, _ = mirror_case
        M, N = cb.array.num_antennas, len(cb)
        ys = self._residuals(cb, 4)
        rng = np.random.default_rng(4)
        for m in (0, M // 3, M - 1):
            one = np.zeros(M, dtype=complex)
            one[m] = rng.normal() + 1j * rng.normal()
            ys = np.concatenate([ys, one[None]])
        rows = np.repeat(np.arange(len(ys)), 40)
        window = rng.integers(0, N, len(rows))
        got = cb._exact_scores(ys, rows, window)
        want = [exact_score(cb, ys[i], j)
                for i, j in zip(rows.tolist(), window.tolist())]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        B_full = full_steering_matrix(cb)
        for y, scores in zip(ys, cb.scores(ys)):
            if np.count_nonzero(y) == 1:
                assert np.allclose(scores, np.abs(y).max() ** 2, rtol=1e-12, atol=0.0)
                continue
            near = np.flatnonzero(np.abs(y.conj() @ B_full) ** 2
                                  >= (1 - 1e-6) * scores.max())
            exact = [exact_score(cb, y, j) for j in near.tolist()]
            assert int(np.argmax(scores)) == near[int(np.argmax(exact))]

    def test_one_antenna_row_builds_bounded_blocks(self, mirror_case, monkeypatch):
        # Every codeword of a row nonzero on one antenna lands in the re-rank
        # window; its columns are built once each, a twin on its mirror's,
        # in STEERING_BLOCK-entry blocks, not one steering vector apiece.
        cb, _ = mirror_case
        M, stored = cb.array.num_antennas, len(cb) - cb.num_twins
        columns, blocks = [], []

        def counting(cfg, theta, r):
            columns.append(len(r))
            for out in arraymodel.near_steering_blocks(cfg, theta, r):
                blocks.append(out)
                yield out

        monkeypatch.setattr(codebook, "near_steering_blocks", counting)
        y = np.zeros((1, M), dtype=complex)
        y[0, M // 3] = 1.0
        scores = cb.scores(y)
        assert columns == [stored]
        assert len(blocks) == -(-stored // (arraymodel.STEERING_BLOCK // M))
        assert np.allclose(scores, 1.0, rtol=1e-12, atol=0.0)

    def test_exact_mirror_tie_goes_to_first_in_scan_order(self, mirror_case):
        # y = b + reverse(b) scores a mirrored codeword and its twin alike,
        # bit for bit; the stored member comes first in scan order.
        cb, _ = mirror_case
        if cb.num_twins == 0:
            pytest.skip("no mirror pairs")
        j = int(np.argmin(np.abs(cb.cos_theta[:cb.num_twins] - 0.5)))
        twin = len(cb) - cb.num_twins + j
        b = near_steering(cb.array, float(cb.theta[j]), float(cb.r[j]))
        y = b + b[::-1]
        for scores in (cb.scores(y[None])[0], cb.scores(np.stack([y, y[::-1]]))[1]):
            assert scores[j] == scores[twin] == scores.max()
            p = omp_detect(cb, scores)
            assert (p.theta, p.r) == (cb.theta[j], cb.r[j])

    def test_tie_below_float32_resolution_follows_float64(self, mirror_case):
        # y = (1 - 1e-9) b + reverse(b) is a palindrome to within float32
        # rounding, so the float32 scan cannot tell a codeword from its
        # twin; in float64 the twin scores higher, and the re-rank must
        # pick it.
        cb, _ = mirror_case
        if cb.num_twins == 0:
            pytest.skip("no mirror pairs")
        stored = len(cb) - cb.num_twins
        for c in (0.3, 0.4, 0.5, 0.6, 0.7):
            j = int(np.argmin(np.abs(cb.cos_theta[:cb.num_twins] - c)))
            b = near_steering(cb.array, float(cb.theta[j]), float(cb.r[j]))
            y = (1.0 - 1e-9) * b + b[::-1]
            assert abs(b[::-1].conj() @ y) > abs(b.conj() @ y)
            assert np.argmax(cb.scores(y[None])[0]) == stored + j


class TestResidual:
    def test_no_fixed_paths_is_identity(self, desk_array, rng):
        y = synthesize_channel(desk_array, [random_path(desk_array, rng)])
        assert np.array_equal(residual(desk_array, y, []), y)

    def test_kept_geometry_rebuilds_bit_for_bit(self, desk_array, rng):
        # Rebuilt from kept conjugate steering vectors, from fresh ones, or
        # with a kept projection at another point (which is not used), the
        # residual is y - synthesize_channel bit for bit.
        paths = [random_path(desk_array, rng) for _ in range(3)]
        y = add_noise(synthesize_channel(desk_array, paths), 1e-2, rng).y
        kept = [project(desk_array, y, p.theta, p.r) for p in paths]
        kept[1] = project(desk_array, y, paths[1].theta, paths[1].r * 1.01)
        want = (y - synthesize_channel(desk_array, paths)).tobytes()
        for lent in ([None] * 3, kept, [None, None, kept[0]]):
            records = [Path(p, at) for p, at in zip(paths, lent)]
            assert residual(desk_array, y, records).tobytes() == want

    def test_projection_reuses_kept_geometry_at_its_point_only(self, desk_array,
                                                               rng, monkeypatch):
        p = random_path(desk_array, rng)
        y = add_noise(synthesize_channel(desk_array, [p]), 1e-2, rng).y
        kept = project(desk_array, y, p.theta, p.r)
        calls = []
        monkeypatch.setattr(estimator, "element_distances",
                            _recording(arraymodel.element_distances, calls))
        again = project(desk_array, 2.0 * y, p.theta, p.r, kept)
        assert calls == [] and again.b_conj is kept.b_conj
        assert again.w.tobytes() == (kept.b_conj * (2.0 * y)).tobytes()
        moved = project(desk_array, y, p.theta, p.r * 1.01, kept)
        assert len(calls) == 1 and moved.b_conj is not kept.b_conj

    def test_one_of_two_fixed(self, desk_array, rng):
        p1, p2 = random_path(desk_array, rng), random_path(desk_array, rng)
        y = synthesize_channel(desk_array, [p1, p2])
        res = residual(desk_array, y, [Path(p1)])
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
                                           desk.estimator)

    def test_matches_per_bs_runs_with_different_path_counts(self, desk):
        for seed in range(2):
            out = self._assert_matches_alone(self._draw(desk, seed, 20.0),
                                             [1, 3, 2, 4], desk.estimator)
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
        vnnce(self._draw(desk, 0, 20.0)[:2], [1, 3], desk.estimator)
        assert [args[1].shape for args in scans] == [(2, 64), (1, 64), (1, 64)]

    def test_stacked_scan_rows_match_single_scans(self, desk_codebook):
        # A row of the stacked product can differ from the one-row product
        # in its float32 rounding, since BLAS may sum in another order; each
        # lies within the scan's amplitude bound of float64, and the exact
        # re-rank makes the argmax the same.
        rng = np.random.default_rng(41)
        for k in (1, 2, 4):
            ys = rng.normal(size=(k, 64)) + 1j * rng.normal(size=(k, 64))
            stacked = desk_codebook.scores(ys)
            for row, y in zip(stacked, ys):
                one = desk_codebook.scores(y[None])[0]
                assert np.argmax(row) == np.argmax(one)
                assert_within_scan_bound(row, one, y, bounds=2)

    def test_rejects_empty_input(self, desk_codebook):
        with pytest.raises(ValueError, match="at least one"):
            vnnce([], [], EstimatorConfig(codebook=desk_codebook))

    def test_rejects_length_mismatch(self, desk_codebook):
        y = Measurement(np.zeros(64, dtype=complex), 1e-3)
        with pytest.raises(ValueError, match="2 measurements but 1 path count"):
            vnnce([y, y], [1], EstimatorConfig(codebook=desk_codebook))


class TestCoupledPaths:
    """tab2_desk's BS 0 has its LoS and its fixed scatterer 0.16 rad apart,
    at 3.5 m and 5.0 m, so the two paths' (theta, r) are coupled and each
    cyclic turn moves one along a shared ridge. These are the 30 dB rows
    (grid point 3) where a concentrated step in every turn after a path's
    first ended 9.5-14.3 nats worse."""

    # Step 1's final ||y - sum c||^2 / sigma^2 at BS 0 with the fixed-gain
    # step in every turn, per trial.
    MISFIT = {27: 65.1573786024551, 29: 57.172373546480834,
              36: 57.41894766562387, 37: 54.905690433610324,
              45: 53.69155025652475}

    @pytest.mark.parametrize("trial", sorted(MISFIT))
    def test_final_misfit_not_raised(self, monkeypatch, trial):
        desk = load_scenario("scenarios/tab2_desk.json")
        seen = []

        def joint(bs_configs, measurements, *args, **kwargs):
            seen.append(measurements[0])
            return run_joint(bs_configs, measurements, *args, **kwargs)

        monkeypatch.setattr(harness, "run_joint", joint)
        _, result = run_trial(desk, 30.0, 3, trial, return_joint=True)
        (y,) = seen
        c = synthesize_channel(desk.array, [e.params for e in result.step1[0]])
        misfit = np.linalg.norm(y.y - c) ** 2 / y.noise_variance
        assert misfit <= self.MISFIT[trial] + 0.1


class TestKeptGeometry:
    @pytest.mark.parametrize("seed", range(4))
    def test_only_new_points_are_evaluated(self, desk_array, desk_codebook, seed,
                                           monkeypatch):
        # Over a whole estimate (detection, turns, residuals and soft
        # information) element distances and a steering vector are evaluated
        # only at a detected codeword, once, and at each Newton candidate:
        # a turn opens on its path record's projection and the residual
        # rebuilds the other paths from theirs. The rounds give, bit for bit,
        # what they give on no kept geometry, return records whose
        # projections sit at their points, and leave the caller's list as
        # it was.
        rng = np.random.default_rng(seed)
        truth = [random_path(desk_array, rng) for _ in range(3)]
        y = add_noise(synthesize_channel(desk_array, truth), 1e-2, rng)
        cfg = EstimatorConfig(codebook=desk_codebook)
        evaluated, candidates = [], []
        counted = _recording(arraymodel.element_distances, evaluated)
        for module in (arraymodel, estimator):
            monkeypatch.setattr(module, "element_distances", counted)
        monkeypatch.setattr(estimator, "_clamp_params",
                            _recording(estimator._clamp_params, candidates))
        ests = vnnce([y], [3], cfg)[0]
        assert candidates and len(evaluated) == len(candidates) + 3
        kept = [Path(e.params, e.at) for e in ests]
        held = [(p.params, p.at) for p in kept]
        again = estimator.cyclic_refine(cfg, y, kept, 2)
        assert [(p.params, p.at) for p in kept] == held
        assert again == estimator.cyclic_refine(
            cfg, y, [Path(e.params) for e in ests], 2)
        assert [(p.at.theta, p.at.r) for p in again] == \
            [(p.params.theta, p.params.r) for p in again]

    @pytest.mark.parametrize("name", ["tab2_desk", "tab2_paper"])
    def test_step3_reopens_on_step1_geometry(self, name, monkeypatch):
        # Over a whole run_joint, step 1 evaluates element distances only at
        # detected codewords and Newton candidates, and step 3, which starts
        # once gfcl returns, only at each anchored BS's new LoS point, once,
        # and at its Newton candidates: every other path reopens on the
        # projection its step-1 record carries.
        scenario = load_scenario(f"scenarios/{name}.json")
        evaluated, candidates, marks = [], [], []
        counted = _recording(arraymodel.element_distances, evaluated)
        for module in (arraymodel, estimator):
            monkeypatch.setattr(module, "element_distances", counted)
        monkeypatch.setattr(estimator, "_clamp_params",
                            _returning(estimator._clamp_params, candidates))
        fuse = pipeline.gfcl

        def marked(*args):
            marks.append((len(evaluated), len(candidates)))
            return fuse(*args)

        monkeypatch.setattr(pipeline, "gfcl", marked)
        anchored = 0
        for idx, snr_db in enumerate([0.0, 10.0, 20.0, 30.0]):
            ys = TestLockstep._draw(scenario, idx, snr_db)
            for log in (evaluated, candidates, marks):
                log.clear()
            result = run_joint([bs.config for bs in scenario.bss], ys,
                               scenario.path_counts(), scenario.estimator,
                               scenario.zeta)
            (n1, c1), = marks
            assert n1 == c1 + sum(scenario.path_counts())
            anchors = [(paths[cand.path_index].theta, paths[cand.path_index].r)
                       for paths, cand in zip(result.step3,
                                              result.step2.candidates)
                       if paths is not None]
            assert sorted((th, r) for _, th, r in evaluated[n1:]) == \
                sorted(anchors + candidates[c1:])
            anchored += len(anchors)
        assert anchored


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
