"""Fisher information and Cramer-Rao lower bounds for the path parameters.

Parameter ordering is (theta_1, r_1, g_1, phi_1, ..., theta_L, r_L, g_L,
phi_L); the FIM is 4L x 4L with all inter-path cross blocks included.
"""

from __future__ import annotations

import numpy as np

from .arraymodel import (ArrayConfig, PathParams, distance_derivatives,
                         distance_steering, element_distances)


def steering_derivatives(cfg: ArrayConfig, p: PathParams) -> np.ndarray:
    """Per-element derivatives of g e^{j phi} b(theta, r) w.r.t. (theta, r,
    g, phi), as the rows of a 4 x M complex array in that order."""
    k = cfg.wavenumber
    r_m = element_distances(cfg, p.theta, p.r)
    d_theta, d_r = distance_derivatives(cfg, p.theta, p.r, r_m)[:2]
    b = distance_steering(cfg, r_m, p.r)
    s_m = p.g * np.exp(1j * p.phi) * b
    v_theta = s_m * 1j * k * d_theta
    v_r = s_m * 1j * k * d_r
    v_g = np.exp(1j * p.phi) * b
    v_phi = 1j * s_m
    return np.stack([v_theta, v_r, v_g, v_phi])


def fim(cfg: ArrayConfig, paths: list[PathParams], sigma2: float) -> np.ndarray:
    """FIM F_ij = (2/sigma^2) Re{(ds/dmu_i)^H ds/dmu_j} over all paths."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    J = np.concatenate([steering_derivatives(cfg, p) for p in paths], axis=0)
    F = 2.0 / sigma2 * np.real(J.conj() @ J.T)
    return (F + F.T) / 2.0


COND_LIMIT = 1e12  # condition number beyond which the FIM counts as singular


def crlb_diag(F: np.ndarray) -> np.ndarray:
    """Diagonal of F^{-1}, the per-parameter CRLB variances.

    The condition number is that of the equilibrated FIM D^{-1/2} F D^{-1/2},
    D = diag(F), which the CRLB's units (radians, metres, linear gain) do not
    move; F^{-1} is inverted through it. Above COND_LIMIT (as with
    coincident paths), or with a diagonal entry that is not positive (as
    with a zero-gain path, whose rows of the PSD F are then zero), no CRLB
    exists, and it raises np.linalg.LinAlgError.
    """
    diag = np.diag(F)
    positive = bool(np.all(diag > 0))
    if positive:
        scale = 1.0 / np.sqrt(diag)
        unit = F * np.outer(scale, scale)
    if not positive or np.linalg.cond(unit) > COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"the Fisher information is singular (condition number above "
            f"{COND_LIMIT:g}, as with coincident paths or a zero gain); no "
            f"CRLB exists")
    return np.diag(np.linalg.inv(unit)) * scale**2
