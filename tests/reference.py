"""Reference formulas that only the tests use: finite differences and the
objective they check the analytic derivatives against, the far-field
steering vector, the s1/s2 analysis behind the codebook's grid steps, the
gain-only oracle LS, the marginal (delta-method) position covariance, the
stacked form of the distance derivatives, the extended-precision oracle of
the derivatives, the LS gain a turn opens with, the plain Newton turn,
the fixed-round cyclic loop and the full steering matrix of a codebook."""

import cmath
import math

import mpmath
import numpy as np
from scipy import special

from nearfield.arraymodel import (ArrayConfig, Measurement, PathParams,
                                  element_distances, near_steering)
from nearfield.codebook import Codebook
from nearfield.estimator import (EstimatorConfig, SoftEstimate, _refine,
                                 newton_refine_once, project, residual)


def central_differences(fn, x, h) -> np.ndarray:
    """One row (fn(x + h_i e_i) - fn(x - h_i e_i)) / (2 h_i) per coordinate i:
    the gradient of a scalar fn, the transposed Jacobian of a vector fn."""
    rows = []
    for i, step in enumerate(h):
        e = np.zeros(len(x))
        e[i] = step
        rows.append((fn(x + e) - fn(x - e)) / (2 * step))
    return np.array(rows)


def as_vector(p: PathParams) -> np.ndarray:
    """The path's parameters in (theta, r, g, phi) order."""
    return np.array([p.theta, p.r, p.g, p.phi])


def objective(cfg: ArrayConfig, y, p: PathParams) -> float:
    """Reduced single-path objective f = sum 2|y_m| g cos(psi_m) - M g^2,
    with psi_m = k (r_m - r) + phi - arg y_m."""
    y = np.asarray(y, dtype=complex)
    r_m = element_distances(cfg, p.theta, p.r)
    psi = cfg.wavenumber * (r_m - p.r) + p.phi - np.angle(y)
    return float(np.sum(2.0 * np.abs(y) * p.g * np.cos(psi))
                 - cfg.num_antennas * p.g**2)


def far_steering(cfg: ArrayConfig, theta: float) -> np.ndarray:
    """Planar-wave steering vector, entries exp(j*pi*m*cos(theta)) at d=lambda/2."""
    m = np.arange(cfg.num_antennas)
    return np.exp(2j * np.pi * cfg.spacing / cfg.wavelength * m * np.cos(theta))


def s1(alpha: float) -> float:
    """Angle-mismatch ambiguity |sin(pi*alpha)/(pi*alpha)|, s1(0)=1."""
    return float(np.abs(np.sinc(alpha)))


def s2(beta: float) -> float:
    """Distance-mismatch ambiguity |(C+jS)(sqrt|beta|)| / sqrt|beta|, even in beta."""
    b = abs(beta)
    if b == 0.0:
        return 1.0
    x = np.sqrt(b)
    s, c = special.fresnel(x)  # scipy returns (S, C)
    return float(np.hypot(c, s) / x)


def alpha_of(cfg: ArrayConfig, cos_theta: float, cos_theta_true: float) -> float:
    """Dimensionless angle mismatch alpha = M*(cos(theta)-cos(theta_t))/2."""
    return 0.5 * cfg.num_antennas * (cos_theta - cos_theta_true)


def beta_of(cfg: ArrayConfig, theta: float, r: float, r_true: float) -> float:
    """Dimensionless curvature mismatch between distances r and r_true at theta."""
    M, d, lam = cfg.num_antennas, cfg.spacing, cfg.wavelength
    return M**2 * d**2 * np.sin(theta) ** 2 / (2.0 * lam) * (1.0 / r - 1.0 / r_true)


def oracle_ls(cfg: ArrayConfig, y: np.ndarray,
              true_paths: list[PathParams]) -> np.ndarray:
    """Joint LS of all complex gains on the true steering vectors.

    Returns the reconstructed channel; rank-deficient steering matrices fall
    back to the minimum-norm solution.
    """
    B = np.stack([near_steering(cfg, p.theta, p.r) for p in true_paths], axis=1)
    gains, *_ = np.linalg.lstsq(B, y, rcond=None)
    return B @ gains


def marginal_position_covariance(est: SoftEstimate, omega: float) -> np.ndarray:
    """Delta-method covariance of the relative position, J C J^T, with J =
    d(x_r, y_r)/d(theta, r) and C the (theta, r) block of the estimate's
    full 4x4 covariance: gain and phase marginalised, not held fixed."""
    p = est.params
    c, s = np.cos(p.theta + omega), np.sin(p.theta + omega)
    J = np.array([[-p.r * s, c], [p.r * c, s]])
    return J @ est.cov[:2, :2] @ J.T


def stacked_distance_derivatives(cfg: ArrayConfig, theta: float, r: float):
    """The element distances and distance_derivatives' rows, written with
    np.stack, one temporary per row."""
    x, x_sq = cfg.offsets, cfg.offsets_sq
    r_m = element_distances(cfg, theta, r)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    inv = 1.0 / r_m
    x_sq_inv3 = x_sq * inv * inv * inv
    d_t = x * (-r * sin_t) * inv
    return r_m, np.stack([d_t,
                          x_sq * inv / (x * cos_t + r + r_m) * (-sin_t * sin_t),
                          np.ones_like(r_m),
                          (x * (-r * cos_t) - d_t * d_t) * inv,
                          (x + r * cos_t) * x_sq_inv3 * (-sin_t),
                          x_sq_inv3 * (sin_t * sin_t)])


ORACLE_DIGITS = 50
ORACLE_RTOL = 1e-8  # relative error the float64 derivatives must meet per entry


def _mp_distance_derivatives(cfg: ArrayConfig, theta: float, r: float):
    """Per element m, the textbook r_m = sqrt(r^2 + (delta_m d)^2 + 2 delta_m d r
    cos theta) and its derivatives by direct differentiation, (r_m, dr_m/dtheta,
    dr_m/dr, d2r_m/dtheta2, d2r_m/dtheta dr, d2r_m/dr2), in mpmath at the
    working precision. The float inputs are taken as exact."""
    theta, r, d = mpmath.mpf(theta), mpmath.mpf(r), mpmath.mpf(cfg.spacing)
    sin_t, cos_t = mpmath.sin(theta), mpmath.cos(theta)
    M = cfg.num_antennas
    out = []
    for m in range(M):
        x = mpmath.mpf(2 * m - M + 1) / 2 * d
        r_m = mpmath.sqrt(r**2 + x**2 + 2 * x * r * cos_t)
        d_t = -x * r * sin_t / r_m
        d_r = (r + x * cos_t) / r_m
        out.append((r_m, d_t, d_r, (-x * r * cos_t - d_t**2) / r_m,
                    (-x * sin_t - d_t * d_r) / r_m, (1 - d_r**2) / r_m))
    return out


def oracle_grad_hess(cfg: ArrayConfig, y, p: PathParams):
    """grad_hess's gradient and 4x4 Hessian of f = sum 2|y_m| g cos(psi_m) - M
    g^2, psi_m = k (r_m - r) + phi - arg y_m, differentiated by hand and
    evaluated in mpmath at ORACLE_DIGITS digits, then rounded to float64."""
    with mpmath.workdps(ORACLE_DIGITS):
        k, g, phi = (mpmath.mpf(v) for v in (cfg.wavenumber, p.g, p.phi))
        grad = [mpmath.mpf(0)] * 4
        hess = [[mpmath.mpf(0)] * 4 for _ in range(4)]
        rows = _mp_distance_derivatives(cfg, p.theta, p.r)
        for y_m, (r_m, d_t, d_r, d_tt, d_tr, d_rr) in zip(y.tolist(), rows):
            y_m = mpmath.mpc(y_m)
            psi = k * (r_m - p.r) + phi - mpmath.arg(y_m)
            a_cos, a_sin = abs(y_m) * mpmath.cos(psi), abs(y_m) * mpmath.sin(psi)
            dpsi = [k * d_t, k * (d_r - 1), 0, 1]
            d2psi = [[k * d_tt, k * d_tr], [k * d_tr, k * d_rr]]
            for i in range(4):
                if i != 2:
                    grad[i] -= 2 * g * a_sin * dpsi[i]
                    hess[2][i] -= 2 * a_sin * dpsi[i]
                for j in range(4):
                    hess[i][j] -= 2 * g * a_cos * dpsi[i] * dpsi[j]
                    if i < 2 and j < 2:
                        hess[i][j] -= 2 * g * a_sin * d2psi[i][j]
            grad[2] += 2 * a_cos
        M = cfg.num_antennas
        grad[2] -= 2 * M * g
        for i in range(4):
            hess[i][2] = hess[2][i]
        hess[2][2] = mpmath.mpf(-2 * M)
        return (np.array([float(v) for v in grad]),
                np.array([[float(v) for v in row] for row in hess]))


def oracle_steering_derivatives(cfg: ArrayConfig, p: PathParams) -> np.ndarray:
    """bounds.steering_derivatives' 4 x M rows, d(g e^{j phi} b_m)/d(theta, r,
    g, phi) with b_m = e^{j k (r_m - r)}, in mpmath at ORACLE_DIGITS digits,
    then rounded to complex128."""
    with mpmath.workdps(ORACLE_DIGITS):
        k, g, phi = (mpmath.mpf(v) for v in (cfg.wavenumber, p.g, p.phi))
        cols = []
        for r_m, d_t, d_r, *_ in _mp_distance_derivatives(cfg, p.theta, p.r):
            unit = mpmath.expj(phi + k * (r_m - p.r))
            s_m = g * unit
            cols.append([s_m * 1j * k * d_t, s_m * 1j * k * (d_r - 1), unit,
                         1j * s_m])
        return np.array([[complex(v) for v in col] for col in cols]).T


def turn_case(cfg, kind, u):
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


def at_ls_gain(cfg: ArrayConfig, y: np.ndarray, p: PathParams) -> PathParams:
    """p's (theta, r) with the LS gain of y there, where a turn opens."""
    a = project(cfg, y, p.theta, p.r).gain
    return PathParams(p.theta, p.r, abs(a), cmath.phase(a) % (2.0 * math.pi))


def plain_refine(cfg: EstimatorConfig, y_r: np.ndarray, p: PathParams, k: int,
                 trace=None) -> PathParams:
    """A Newton turn as the LS gain refit at p's point, then single_rounds
    calls of newton_refine_once, each projecting afresh, with no early
    exit."""
    array = cfg.codebook.array
    p = at_ls_gain(array, y_r, p)
    for j in range(cfg.single_rounds):
        p, _ = newton_refine_once(array, y_r, p, project(array, y_r, p.theta, p.r),
                                  trace, path_index=k, round_index=j)
    return p


def plain_cyclic(cfg: EstimatorConfig, y: Measurement, paths: list[PathParams],
                 rounds: int, trace=None, frozen=None
                 ) -> tuple[list[list[PathParams]], list[PathParams]]:
    """cyclic_refine without its stop: the frozen path's turn, then all
    `rounds` rounds of one _refine turn per path against the residual of the
    others, then the frozen path's turn again. Returns the paths at the
    start of each round and after the last one, and the paths it ends
    with."""
    array = cfg.codebook.array
    pinned = [] if frozen is None else [frozen]
    paths = list(paths)

    def turns(ks):
        for k in ks:
            y_rk = residual(array, y.y, paths[:k] + paths[k + 1:])
            paths[k] = _refine(cfg, y_rk, y.noise_variance, paths[k], k, trace,
                               k == frozen)[0]

    turns(pinned)
    snapshots = [list(paths)]
    for _ in range(rounds):
        turns(range(len(paths)))
        snapshots.append(list(paths))
    turns(pinned)
    return snapshots, paths


def full_steering_matrix(codebook: Codebook) -> np.ndarray:
    """M x N matrix, one near_steering column per codeword, twins included."""
    return np.stack([near_steering(codebook.array, theta, r) for theta, r
                     in zip(codebook.theta.tolist(), codebook.r.tolist())], axis=1)
