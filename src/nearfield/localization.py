"""Gaussian fusion cooperative localization.

Per-path soft estimates become soft Cartesian positions: the mean from the
polar transform, the covariance from the estimate's curvature carried
through it. Per base station the least-cost position is selected, gated
against the best one by Mahalanobis consistency, and the surviving
positions are fused by Gaussian product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import SoftEstimate, psd_repair
from .estimator import residual  # noqa: F401 - rebound by bench/layertrace.py

POSITION_PSD_FLOOR = 1e-12  # m^2 eigenvalue floor for 2x2 covariances


@dataclass(frozen=True)
class BsConfig:
    """Base station: position and array rotation from the +X axis. Every BS
    carries the codebook's ULA."""

    position: tuple[float, float]
    rotation: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.position)):
            raise ValueError("BS position must be finite")


@dataclass
class SoftPosition:
    mean: np.ndarray
    cov: np.ndarray

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

    def to_dict(self) -> dict:
        def pos(p: SoftPosition):
            return {"mean": list(p.mean), "cov": [float(v) for v in p.cov.ravel()],
                    "cost": p.cost}

        return {
            "fused": pos(self.fused),
            "reference_bs": self.reference,
            "all_inconsistent": self.all_inconsistent,
            "per_bs": [{"bs": c.bs_index, "path": c.path_index,
                        "eta": int(c.consistent), **pos(c.position)}
                       for c in self.candidates],
        }


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
    theta = (theta + np.pi) % (2.0 * np.pi) - np.pi  # wrap to [-pi, pi)
    return theta, r


def is_front_side(theta: float) -> bool:
    return 0.0 < theta < np.pi


def _transform_coefficients(x: float, y: float) -> tuple[np.ndarray, ...]:
    """The Jacobian T = d(theta, r)/d(x_r, y_r) and the 2x2 Hessians of
    theta and of r in (x_r, y_r)."""
    rho2 = x * x + y * y
    rho = np.sqrt(rho2)
    T = np.array([[-y / rho2, x / rho2], [x / rho, y / rho]])
    hess_theta = np.array([[2.0 * x * y, y * y - x * x],
                           [y * y - x * x, -2.0 * x * y]]) / rho2**2
    hess_r = np.array([[y * y, -x * y], [-x * y, x * x]]) / rho**3
    return T, hess_theta, hess_r


def position_hessian(est: SoftEstimate, omega: float) -> np.ndarray:
    """Chain-rule Hessian of the objective in relative Cartesian coordinates,
    T^T H T + f_theta Hess(theta) + f_r Hess(r), from the estimate's
    gradient f and Hessian H in (theta, r)."""
    p = est.params
    T, hess_theta, hess_r = _transform_coefficients(
        *polar_to_relative(p.theta, p.r, omega))
    return (T.T @ est.hess[:2, :2] @ T
            + est.grad[0] * hess_theta + est.grad[1] * hess_r)


def position_covariance(est: SoftEstimate, omega: float) -> SoftPosition:
    """Soft relative position: mean from the polar transform, covariance from
    the Laplace form sigma^2 * (-H)^{-1} of the Cartesian-coordinate Hessian."""
    p = est.params
    x, yr = polar_to_relative(p.theta, p.r, omega)
    info = psd_repair(-position_hessian(est, omega), POSITION_PSD_FLOOR)
    cov = psd_repair(est.sigma2 * np.linalg.inv(info), POSITION_PSD_FLOOR)
    return SoftPosition(mean=np.array([x, yr]), cov=cov)


def to_global(rel: SoftPosition, bs: BsConfig) -> SoftPosition:
    """Translate a BS-relative soft position into the global frame."""
    return SoftPosition(mean=rel.mean + np.asarray(bs.position),
                        cov=rel.cov.copy())


def gaussian_fuse(positions: list[SoftPosition]) -> SoftPosition:
    """Information-form Gaussian product of soft positions."""
    if not positions:
        raise ValueError("nothing to fuse")
    if len(positions) == 1:  # exactly itself, not an inverse of an inverse
        return positions[0]
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
    if len(per_bs_estimates) != len(bs_configs):
        raise ValueError(f"{len(per_bs_estimates)} per-BS estimate lists but "
                         f"{len(bs_configs)} BS configs")
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
    return FusionReport(fused=gaussian_fuse(kept), candidates=candidates,
                        reference=ref.bs_index,
                        all_inconsistent=(len(kept) == 1 and len(candidates) > 1))
