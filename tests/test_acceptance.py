"""Acceptance gate: the ten package-level criteria.

Each test prints a single PASS/FAIL line (bypassing capture so the verdicts
are visible in a plain `pytest -v` run) and then asserts. Criteria 1-5 run
with an instrumentation hook attached; criterion 9 audits every accepted
Newton update those runs produced.
"""

import sys
import time

import numpy as np
import pytest

from nearfield.arraymodel import (ArrayConfig, Measurement, PathParams,
                                  add_noise, synthesize_channel)
from nearfield.bounds import crlb_diag, fim, steering_derivatives
from nearfield.codebook import CodebookConfig, angle_grid, build_codebook
from nearfield.estimator import EstimatorConfig, grad_hess, vnnce
from nearfield.harness import load_scenario, run_trial, sweep, to_db
from nearfield.localization import SoftPosition, gaussian_fuse
from tests.conftest import random_path
from tests.reference import as_vector, oracle_ls
from tests.test_bounds import fd_jacobian
from tests.test_estimator import fd_grad, fd_hess, fd_steps, obj_at

ARRAY = ArrayConfig(num_antennas=64, wavelength=0.003)


# One line per criterion; conftest echoes these in the terminal summary so
# they survive pytest's fd-level capture.
VERDICTS: list[str] = []


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


class TraceLog:
    """Collects accepted Newton updates whose cost decreased."""

    def __init__(self):
        self.accepted = 0
        self.violations = []

    def __call__(self, path_idx, round_idx, theta, r, g, phi,
                 cost_before, cost_after, accepted):
        if accepted:
            self.accepted += 1
            if cost_after < cost_before - 1e-9 * max(abs(cost_before), 1.0):
                self.violations.append((path_idx, round_idx,
                                        cost_before, cost_after))


TRACE = TraceLog()


@pytest.fixture(scope="module")
def codebook():
    return build_codebook(ARRAY, CodebookConfig())


@pytest.fixture(scope="module")
def crit1(codebook):
    """100 noiseless random off-grid single paths, angle cosine uniform over
    the codebook's covered span, distance uniform over the annulus."""
    grid = angle_grid(ARRAY, 0.5)
    span = float(np.abs(grid).max())
    cfg = EstimatorConfig(codebook=codebook)
    rng = np.random.default_rng(7)
    hits = 0
    t0 = time.perf_counter()
    for _ in range(100):
        theta = float(np.arccos(rng.uniform(-span, span)))
        r = float(rng.uniform(ARRAY.min_near_distance, ARRAY.rayleigh_distance))
        r = max(r, float(np.nextafter(ARRAY.min_near_distance, np.inf)))
        truth = PathParams(theta=theta, r=r, g=1.0,
                           phi=float(rng.uniform(0, 2 * np.pi)))
        h = synthesize_channel(ARRAY, [truth])
        ests = vnnce([Measurement(y=h)], [1], cfg, trace=TRACE)[0]
        h_est = synthesize_channel(ARRAY, [e.params for e in ests])
        err = np.linalg.norm(h - h_est) ** 2 \
            / np.linalg.norm(h) ** 2
        if to_db(max(err, 1e-300)) <= -60.0:
            hits += 1
    return hits, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit2(codebook):
    """200 noisy trials, two well-separated paths at 30 dB received SNR:
    mean estimator NMSE vs the channel CRLB tr(J F^-1 J^H)/||h||^2, with
    J = dh/deta over the 4L real path parameters. The CRLB equals
    2*L*sigma2/||h||^2, twice the L*sigma2/||h||^2 floor of the gain-only
    oracle LS, whose median is kept as a reference."""
    paths = [PathParams(theta=1.0, r=1.5, g=1.0, phi=0.4),
             PathParams(theta=2.1, r=3.0, g=0.7, phi=2.5)]
    h = synthesize_channel(ARRAY, paths)
    sigma2 = sum(p.g**2 for p in paths) / 10**3
    h2 = np.linalg.norm(h) ** 2
    J = np.concatenate([steering_derivatives(ARRAY, p) for p in paths])
    F = fim(ARRAY, paths, sigma2)
    crlb = float(np.real(np.trace(J.T @ np.linalg.solve(F, J.conj())))) / h2
    cfg = EstimatorConfig(codebook=codebook)
    rng = np.random.default_rng(7)
    est_nmse, ls_nmse = [], []
    for _ in range(200):
        y = add_noise(h, sigma2, rng)
        ests = vnnce([y], [2], cfg, trace=TRACE)[0]
        h_est = synthesize_channel(ARRAY, [e.params for e in ests])
        est_nmse.append(np.linalg.norm(h - h_est) ** 2 / h2)
        ls_nmse.append(np.linalg.norm(h - oracle_ls(ARRAY, y.y, paths)) ** 2 / h2)
    return (to_db(float(np.mean(est_nmse))), to_db(crlb),
            to_db(float(np.median(est_nmse))), to_db(float(np.median(ls_nmse))))


@pytest.fixture(scope="module")
def crit3(codebook):
    """500 single-path trials at 20 dB: RMSE vs sqrt-CRLB."""
    truth = PathParams(theta=1.35, r=2.2, g=1.0, phi=0.7)
    h = synthesize_channel(ARRAY, [truth])
    sigma2 = truth.g**2 / 10**2
    var, ill = crlb_diag(fim(ARRAY, [truth], sigma2))
    assert not ill
    cfg = EstimatorConfig(codebook=codebook)
    rng = np.random.default_rng(7)
    e_theta, e_r = [], []
    for _ in range(500):
        y = add_noise(h, sigma2, rng)
        p = vnnce([y], [1], cfg, trace=TRACE)[0][0].params
        e_theta.append(p.theta - truth.theta)
        e_r.append(p.r - truth.r)
    rmse_theta = float(np.sqrt(np.mean(np.square(e_theta))))
    rmse_r = float(np.sqrt(np.mean(np.square(e_r))))
    return rmse_theta, rmse_r, float(np.sqrt(var[0])), float(np.sqrt(var[1]))


@pytest.fixture(scope="module")
def joint_runs():
    """200 seeded trials of the 4-BS square scenario at 23 dB peak SNR,
    shared by the fusion-gain and refinement-gain criteria."""
    sc = load_scenario("scenarios/tab2_desk.json")
    n_bs = len(sc.bss)
    out = {
        "wins": 0, "fused": [], "best_single": [], "trace_ok": 0,
        "snr_in_band": True,
        "nmse1": {i: [] for i in range(n_bs)},
        "nmse3": {i: [] for i in range(n_bs)},
        "snr_bs": {i: [] for i in range(n_bs)},
        "trials": 200,
    }
    for t in range(200):
        rows, res = run_trial(sc, 23.0, 0, t, trace=TRACE, return_joint=True)
        fused = rows[0]["fused_rmse_m"]
        best = min(r["single_rmse_m"] for r in rows)
        out["fused"].append(fused)
        out["best_single"].append(best)
        if fused <= best:
            out["wins"] += 1
        min_cost = min(c.position.cost for c in res.step2.candidates)
        if res.step2.fused.cost <= min_cost + 1e-12:
            out["trace_ok"] += 1
        for r in rows:
            out["snr_bs"][r["bs"]].append(r["snr_bs_db"])
            if not 5.0 <= r["snr_bs_db"] <= 25.0:
                out["snr_in_band"] = False
        for i in range(n_bs):
            if res.anchored[i]:
                out["nmse1"][i].append(res.nmse_step1[i])
                out["nmse3"][i].append(res.nmse_step3[i])
    return out


class TestAcceptance:
    def test_criterion_1_noiseless_exact_recovery(self, crit1):
        hits, elapsed = crit1
        ok = hits >= 98 and elapsed < 5.0
        verdict(1, ok, f"noiseless recovery {hits}/100 at <= -60 dB "
                       f"in {elapsed:.1f} s (need >= 98, < 5 s)")
        assert ok

    def test_criterion_2_oracle_ls_asymptote(self, crit2):
        est_mean, crlb, est_med, ls_med = crit2
        gap = est_mean - crlb
        ok = abs(gap) <= 1.0
        verdict(2, ok, f"mean NMSE {est_mean:.2f} dB vs channel CRLB "
                       f"{crlb:.2f} dB, gap {gap:+.2f} dB (need |gap| <= 1.0); "
                       f"reference: median NMSE {est_med:.2f} dB, gain-only "
                       f"oracle-LS median {ls_med:.2f} dB "
                       f"({est_med - ls_med:.2f} dB below the estimator)")
        assert ok

    def test_criterion_3_crlb_attainment(self, crit3):
        rmse_theta, rmse_r, s_theta, s_r = crit3
        ok = rmse_theta <= 2 * s_theta and rmse_r <= 4 * s_r
        verdict(3, ok, f"theta RMSE/sqrt-CRLB {rmse_theta / s_theta:.2f} "
                       f"(need <= 2), r ratio {rmse_r / s_r:.2f} (need <= 4)")
        assert ok

    def test_criterion_4_fusion_gain(self, joint_runs):
        jr = joint_runs
        n = jr["trials"]
        ratio = float(np.mean(jr["fused"]) / np.mean(jr["best_single"]))
        ok = (jr["wins"] >= 0.95 * n and ratio <= 0.5
              and jr["trace_ok"] == n and jr["snr_in_band"])
        verdict(4, ok, f"fused beats best single BS in {jr['wins']}/{n} "
                       f"trials (need >= {int(0.95 * n)}), mean-error ratio "
                       f"{ratio:.3f} (need <= 0.5), trace contraction "
                       f"{jr['trace_ok']}/{n}, per-BS SNR in [5,25] dB: "
                       f"{jr['snr_in_band']}")
        assert ok

    def test_criterion_5_refinement_gain(self, joint_runs):
        jr = joint_runs
        gains = {}
        for i, vals in jr["nmse1"].items():
            if vals:
                gains[i] = to_db(float(np.mean(vals))) - to_db(
                    float(np.mean(jr["nmse3"][i])))
        hottest = max(jr["snr_bs"], key=lambda i: np.mean(jr["snr_bs"][i]))
        ok = all(g >= 0.0 for g in gains.values()) and gains[hottest] >= 0.3
        pretty = ", ".join(f"bs{i}: {g:+.2f} dB" for i, g in sorted(gains.items()))
        verdict(5, ok, f"anchored-BS NMSE gains ({pretty}); highest-SNR BS "
                       f"{hottest} gain {gains[hottest]:.2f} dB (need >= 0.3)")
        assert ok

    def test_criterion_6_derivative_correctness(self):
        rng = np.random.default_rng(6)
        t0 = time.perf_counter()
        worst_g = worst_h = worst_s = 0.0
        for i in range(50):
            p = random_path(ARRAY, rng)
            truth = random_path(ARRAY, rng)
            y = synthesize_channel(ARRAY, [truth])
            if i % 2:  # half the points at 10 dB SNR, half noiseless
                y = add_noise(y, truth.g**2 / 10.0, rng).y
            steps = fd_steps(p)
            g_num = fd_grad(lambda v: obj_at(ARRAY, y, v), as_vector(p), steps)
            g_ana, h_ana = grad_hess(ARRAY, y, p)
            worst_g = max(worst_g, np.linalg.norm(g_ana - g_num)
                          / max(np.linalg.norm(g_num), 1.0))
            h_num = fd_hess(ARRAY, y, as_vector(p), steps * 0.1)
            worst_h = max(worst_h, np.linalg.norm(h_ana - h_num)
                          / max(np.linalg.norm(h_num), 1.0))
            j_num = fd_jacobian(ARRAY, p)
            j_ana = steering_derivatives(ARRAY, p)
            worst_s = max(worst_s, np.linalg.norm(j_ana - j_num)
                          / np.linalg.norm(j_num))
        elapsed = time.perf_counter() - t0
        ok = worst_g <= 1e-5 and worst_h <= 1e-4 and worst_s <= 1e-6 \
            and elapsed < 10.0
        verdict(6, ok, f"max rel err grad {worst_g:.1e} (<=1e-5), hess "
                       f"{worst_h:.1e} (<=1e-4), steering {worst_s:.1e} "
                       f"(<=1e-6) in {elapsed:.1f} s")
        assert ok

    def test_criterion_7_fim_correctness(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            p = random_path(ARRAY, rng)
            sigma2 = float(rng.uniform(0.001, 1.0))
            F = fim(ARRAY, [p], sigma2)
            J = fd_jacobian(ARRAY, p)
            F_fd = 2.0 / sigma2 * np.real(J.conj() @ J.T)
            worst = max(worst, np.linalg.norm(F - F_fd) / np.linalg.norm(F_fd))
        p = PathParams(theta=1.3, r=2.0, g=1.0, phi=0.4)
        gain_err = 0.0
        for sigma2 in (1.0, 0.01):
            var, _ = crlb_diag(fim(ARRAY, [p], sigma2))
            gain_err = max(gain_err, abs(var[2] - sigma2 / (2 * 64)))
        ok = worst <= 1e-5 and gain_err <= 1e-12
        verdict(7, ok, f"FIM max rel err {worst:.1e} (<=1e-5), gain-CRLB "
                       f"abs err {gain_err:.1e} (<=1e-12)")
        assert ok

    def test_criterion_8_fusion_algebra(self):
        rng = np.random.default_rng(8)
        add_worst = 0.0
        contraction_ok = True
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            ps = []
            for _ in range(k):
                A = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
                ps.append(SoftPosition(mean=rng.normal(size=2) * 5,
                                       cov=A @ A.T + 1e-9 * np.eye(2)))
            fused = gaussian_fuse(ps)
            info_sum = sum(np.linalg.inv(p.cov) for p in ps)
            add_worst = max(add_worst,
                            np.linalg.norm(np.linalg.inv(fused.cov) - info_sum)
                            / np.linalg.norm(info_sum))
            if np.trace(fused.cov) > min(np.trace(p.cov) for p in ps) * (1 + 1e-9):
                contraction_ok = False
        ok = add_worst <= 1e-9 and contraction_ok
        verdict(8, ok, f"information additivity max rel err {add_worst:.1e} "
                       f"(<=1e-9) over 1000 ensembles, trace contraction "
                       f"{'held' if contraction_ok else 'violated'}")
        assert ok

    def test_criterion_9_monotone_refinement(self, crit1, crit2, crit3,
                                             joint_runs):
        # The fixtures above force criteria 1-5 to have run with TRACE
        # attached before this audit executes.
        ok = TRACE.accepted > 0 and not TRACE.violations
        verdict(9, ok, f"{len(TRACE.violations)} cost decreases across "
                       f"{TRACE.accepted} accepted Newton updates "
                       f"(need exactly 0)")
        assert ok

    def test_criterion_10_determinism(self):
        sc = load_scenario("scenarios/tab2_desk.json")
        serial = sweep(sc, [10.0, 20.0], trials=3, threads=1).to_csv()
        parallel = sweep(sc, [10.0, 20.0], trials=3, threads=4).to_csv()
        ok = serial == parallel
        verdict(10, ok, f"serial and threads=4 sweep CSVs "
                        f"{'byte-identical' if ok else 'DIFFER'} "
                        f"({len(serial.splitlines()) - 1} rows)")
        assert ok
