"""Gaussian fusion cooperative localization.

Per-path soft estimates become soft Cartesian positions: the mean from the
polar transform, the covariance from the estimate's curvature carried
through it. Per base station the least-cost position is selected, gated
against the best one by Mahalanobis consistency, and the surviving
positions are fused by Gaussian product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .arraymodel import ArrayConfig
from .estimator import SoftEstimate, psd_repair
from .estimator import residual  # noqa: F401 - rebound by bench/layertrace.py

POSITION_PSD_FLOOR = 1e-12  # m^2 eigenvalue floor for 2x2 covariances


@dataclass(frozen=True)
class BsConfig:
    """Base station: position, array rotation from the +X axis, and its ULA."""

    position: tuple[float, float]
    rotation: float
    array: ArrayConfig

    def __post_init__(self):
        if not np.all(np.isfinite(self.position)):
            raise ValueError("BS position must be finite")


@dataclass
class SoftPosition:
    mean: np.ndarray
    cov: np.ndarray
    psd_repaired: bool = False

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)

    @property
    def cost(self) -> float:
        return float(np.trace(self.cov))


@dataclass
class BsCandidate:
    """One BS's selected soft user position (global frame) and bookkeeping."""

    bs_index: int
    path_index: int
    position: SoftPosition
    consistent: bool = False


@dataclass
class FusionReport:
    fused: SoftPosition
    candidates: list[BsCandidate]
    reference: int  # BS index of the least-cost (reference) candidate
    all_inconsistent: bool = False

    def to_json(self) -> str:
        def pos(p: SoftPosition):
            return {"mean": list(p.mean), "cov": [float(v) for v in p.cov.ravel()],
                    "cost": p.cost}

        return json.dumps({
            "fused": pos(self.fused),
            "reference_bs": self.reference,
            "all_inconsistent": self.all_inconsistent,
            "per_bs": [{"bs": c.bs_index, "path": c.path_index,
                        "eta": int(c.consistent), **pos(c.position)}
                       for c in self.candidates],
        })


def polar_to_relative(theta: float, r: float, omega: float) -> tuple[float, float]:
    """BS-relative Cartesian position (r cos(theta+omega), r sin(theta+omega))."""
    if r <= 0:
        raise ValueError("r must be > 0")
    return r * np.cos(theta + omega), r * np.sin(theta + omega)


def relative_to_polar(x_r: float, y_r: float, omega: float) -> tuple[float, float]:
    """Inverse transform; theta in (0, pi) only for front-side positions."""
    r = float(np.hypot(x_r, y_r))
    if r == 0.0:
        raise ValueError("relative position must be nonzero")
    theta = float(np.arctan2(y_r, x_r)) - omega
    theta = (theta + np.pi) % (2.0 * np.pi) - np.pi  # wrap to (-pi, pi]
    return theta, r


def is_front_side(theta: float) -> bool:
    return 0.0 < theta < np.pi


def _transform_coefficients(x: float, y: float):
    """First and second derivatives of (theta, r) w.r.t. (x_r, y_r)."""
    rho2 = x * x + y * y
    rho = np.sqrt(rho2)
    th_x, th_y = -y / rho2, x / rho2
    r_x, r_y = x / rho, y / rho
    th_xx = 2.0 * x * y / rho2**2
    th_yy = -2.0 * x * y / rho2**2
    th_xy = (y * y - x * x) / rho2**2
    r_xx = y * y / rho**3
    r_yy = x * x / rho**3
    r_xy = -x * y / rho**3
    return (th_x, th_y, r_x, r_y), (th_xx, th_yy, th_xy, r_xx, r_yy, r_xy)


def position_hessian(est: SoftEstimate, omega: float) -> np.ndarray:
    """Chain-rule Hessian of the objective in relative Cartesian coordinates,
    from the estimate's gradient and Hessian in (theta, r)."""
    p = est.params
    x, yr = polar_to_relative(p.theta, p.r, omega)
    (th_x, th_y, r_x, r_y), (th_xx, th_yy, th_xy, r_xx, r_yy, r_xy) = \
        _transform_coefficients(x, yr)
    f_th, f_r = est.grad[0], est.grad[1]
    f_thth, f_thr, f_rr = est.hess[0, 0], est.hess[0, 1], est.hess[1, 1]

    f_xx = (th_x**2 * f_thth + 2.0 * th_x * r_x * f_thr + r_x**2 * f_rr
            + th_xx * f_th + r_xx * f_r)
    f_yy = (th_y**2 * f_thth + 2.0 * th_y * r_y * f_thr + r_y**2 * f_rr
            + th_yy * f_th + r_yy * f_r)
    f_xy = (th_x * th_y * f_thth + (th_x * r_y + th_y * r_x) * f_thr
            + r_x * r_y * f_rr + th_xy * f_th + r_xy * f_r)
    return np.array([[f_xx, f_xy], [f_xy, f_yy]])


def position_covariance(est: SoftEstimate, omega: float,
                        jacobian_only: bool = False) -> SoftPosition:
    """Soft relative position: mean from the polar transform, covariance from
    the Laplace form sigma^2 * (-H)^{-1} of the Cartesian-coordinate Hessian.

    With jacobian_only=True the covariance is pushed through the transform
    Jacobian from the (theta, r) block of the estimate's covariance instead.
    """
    p = est.params
    x, yr = polar_to_relative(p.theta, p.r, omega)
    if jacobian_only:
        # d(x_r, y_r)/d(theta, r); est.cov already carries the noise scale
        J = np.array([
            [-p.r * np.sin(p.theta + omega), np.cos(p.theta + omega)],
            [p.r * np.cos(p.theta + omega), np.sin(p.theta + omega)],
        ])
        cov = J @ est.cov[:2, :2] @ J.T
    else:
        info, _ = psd_repair(-position_hessian(est, omega), POSITION_PSD_FLOOR)
        cov = est.sigma2 * np.linalg.inv(info)
    cov, repaired = psd_repair(cov, POSITION_PSD_FLOOR)
    return SoftPosition(mean=np.array([x, yr]), cov=cov, psd_repaired=repaired)


def to_global(rel: SoftPosition, bs: BsConfig) -> SoftPosition:
    """Translate a BS-relative soft position into the global frame."""
    return SoftPosition(mean=rel.mean + np.asarray(bs.position),
                        cov=rel.cov.copy(), psd_repaired=rel.psd_repaired)


def gaussian_fuse(positions: list[SoftPosition]) -> SoftPosition:
    """Information-form Gaussian product of soft positions."""
    if not positions:
        raise ValueError("nothing to fuse")
    info = np.zeros((2, 2))
    info_mean = np.zeros(2)
    for p in positions:
        w = np.linalg.inv(p.cov)
        info += w
        info_mean += w @ p.mean
    cov = np.linalg.inv(info)
    return SoftPosition(mean=cov @ info_mean, cov=(cov + cov.T) / 2.0)


def consistency(a: SoftPosition, b: SoftPosition, zeta: float) -> int:
    """Mahalanobis gate: 1 iff (m_a-m_b)^T (V_a+V_b)^{-1} (m_a-m_b) < zeta^2."""
    v_sum = a.cov + b.cov
    try:
        w = np.linalg.inv(v_sum)
    except np.linalg.LinAlgError:
        return 0
    dm = a.mean - b.mean
    return int(float(dm @ w @ dm) < zeta**2)


def gfcl(per_bs_estimates: list[list[SoftEstimate]], bs_configs: list[BsConfig],
         zeta: float = 3.5) -> FusionReport:
    """Select the least-cost soft position per BS, gate, and fuse."""
    if not per_bs_estimates or not any(per_bs_estimates):
        raise ValueError("need at least one BS with at least one path")

    candidates: list[BsCandidate] = []
    for i, (estimates, bs) in enumerate(zip(per_bs_estimates, bs_configs)):
        if not estimates:
            continue
        rel_positions = [position_covariance(e, bs.rotation) for e in estimates]
        best = int(np.argmin([p.cost for p in rel_positions]))
        candidates.append(BsCandidate(
            bs_index=i, path_index=best,
            position=to_global(rel_positions[best], bs)))

    order = sorted(range(len(candidates)), key=lambda j: candidates[j].position.cost)
    ref = candidates[order[0]]
    ref.consistent = True
    for j in order[1:]:
        cand = candidates[j]
        cand.consistent = bool(consistency(cand.position, ref.position, zeta))

    kept = [c.position for c in candidates if c.consistent]
    fused = gaussian_fuse(kept)
    return FusionReport(fused=fused, candidates=candidates,
                        reference=ref.bs_index,
                        all_inconsistent=(len(kept) == 1 and len(candidates) > 1))
