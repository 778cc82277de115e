"""Reference formulas that only the tests use: finite differences and the
objective they check the analytic derivatives against, the far-field
steering vector, the s1/s2 analysis behind the codebook's grid steps, the
gain-only oracle LS, the marginal (delta-method) position covariance, the
stacked form of the distance derivatives, the plain Newton turn and the
full steering matrix of a codebook."""

import numpy as np
from scipy import special

from nearfield.arraymodel import (ArrayConfig, PathParams, antenna_offsets,
                                  element_distances, near_steering)
from nearfield.codebook import Codebook
from nearfield.estimator import (EstimatorConfig, SoftEstimate, newton_refine_once,
                                 project)


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
    """distance_derivatives written with np.stack, one temporary per row."""
    delta_d = antenna_offsets(cfg) * cfg.spacing
    r_m = element_distances(cfg, theta, r)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    d1 = np.stack([-delta_d * r * sin_t, r + delta_d * cos_t]) / r_m
    d2 = np.stack([-delta_d * r * cos_t - d1[0] ** 2,
                   -delta_d * sin_t - d1[0] * d1[1],
                   1.0 - d1[1] ** 2]) / r_m
    return r_m, d1, d2


def plain_refine(cfg: EstimatorConfig, y_r: np.ndarray, p: PathParams, k: int,
                 trace=None) -> PathParams:
    """A Newton turn as single_rounds calls of newton_refine_once, each
    projecting afresh, with no fixed-point exit."""
    array = cfg.codebook.array
    for j in range(cfg.single_rounds):
        p, _ = newton_refine_once(array, y_r, p, project(array, y_r, p.theta, p.r),
                                  trace, path_index=k, round_index=j)
    return p


def full_steering_matrix(codebook: Codebook) -> np.ndarray:
    """M x N matrix, one near_steering column per codeword, twins included."""
    return np.stack([near_steering(codebook.array, theta, r) for theta, r
                     in zip(codebook.theta.tolist(), codebook.r.tolist())], axis=1)
