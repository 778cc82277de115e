"""Gaussian fusion cooperative localization.

Per-path soft estimates become soft Cartesian positions: the mean from the
polar transform, the covariance the estimate's own (theta, r) covariance
carried through that transform's Jacobian (the delta method), so gain and
phase are marginalised, not held fixed. Per base station the least-cost
position is selected, gated against the best one by Mahalanobis
consistency at the caller's gate zeta, and the surviving positions are
fused by Gaussian product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import SoftEstimate, psd_repair
from .estimator import residual  # noqa: F401 - rebound by bench/layertrace.py


@dataclass(frozen=True)
class BsConfig:
    """Base station: position and array rotation from the +X axis. Every BS
    carries the codebook's ULA."""

    position: tuple[float, float]
    rotation: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.position)):
            raise ValueError("BS position must be finite")

    def polar(self, point) -> tuple[float, float]:
        """(theta, r) of a global point in this BS's frame, theta wrapped to
        [-pi, pi); theta lies in (0, pi) only for front-side points."""
        x, y = np.asarray(point, dtype=float) - np.asarray(self.position)
        r = float(np.hypot(x, y))
        if r == 0.0:
            raise ValueError("the point is the BS position")
        theta = float(np.arctan2(y, x)) - self.rotation
        return (theta + np.pi) % (2.0 * np.pi) - np.pi, r

    def point(self, theta: float, r: float) -> np.ndarray:
        """The global point at (theta, r) in this BS's frame."""
        if r <= 0:
            raise ValueError("r must be > 0")
        u = theta + self.rotation
        return np.asarray(self.position) + np.array([r * np.cos(u), r * np.sin(u)])

    def jacobian(self, theta: float, r: float) -> np.ndarray:
        """d(x, y)/d(theta, r) of `point` at (theta, r)."""
        u = theta + self.rotation
        c, s = np.cos(u), np.sin(u)
        return np.array([[-r * s, c], [r * c, s]])


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

    path_index: int
    position: SoftPosition
    consistent: bool = False


@dataclass
class FusionReport:
    fused: SoftPosition
    candidates: list[BsCandidate]  # candidates[i] belongs to BS i
    reference: int  # index of the least-cost (reference) candidate
    all_inconsistent: bool = False

    def to_dict(self) -> dict:
        def pos(p: SoftPosition):
            return {"mean": list(p.mean), "cov": [float(v) for v in p.cov.ravel()],
                    "cost": p.cost}

        return {
            "fused": pos(self.fused),
            "reference_bs": self.reference,
            "all_inconsistent": self.all_inconsistent,
            "per_bs": [{"bs": i, "path": c.path_index,
                        "eta": int(c.consistent), **pos(c.position)}
                       for i, c in enumerate(self.candidates)],
        }


def is_front_side(theta: float) -> bool:
    return 0.0 < theta < np.pi


def position_covariance(est: SoftEstimate, bs: BsConfig) -> SoftPosition:
    """Soft global position: mean from the polar transform, covariance J C
    J^T with J = bs.jacobian and C the (theta, r) block of est.cov, which is
    the inverse of the Schur complement of -H / sigma^2 over gain and
    phase."""
    p = est.params
    J = bs.jacobian(p.theta, p.r)
    return SoftPosition(mean=bs.point(p.theta, p.r),
                        cov=psd_repair(J @ est.cov[:2, :2] @ J.T))


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
         zeta: float) -> FusionReport:
    """Select the least-cost soft position per BS, gate each against the
    least-cost one (the first on ties), the reference, at zeta, and fuse.
    Returns one candidate per BS, in BS order; a BS without a path is an
    error. zeta has no default here: the scenario schema's is the one."""
    if len(per_bs_estimates) != len(bs_configs):
        raise ValueError(f"{len(per_bs_estimates)} per-BS estimate lists but "
                         f"{len(bs_configs)} BS configs")
    if not per_bs_estimates:
        raise ValueError("need at least one BS")

    candidates: list[BsCandidate] = []
    for i, (estimates, bs) in enumerate(zip(per_bs_estimates, bs_configs)):
        if not estimates:
            raise ValueError(f"BS {i} has no path; every BS needs at least one")
        positions = [position_covariance(e, bs) for e in estimates]
        best = int(np.argmin([p.cost for p in positions]))
        candidates.append(BsCandidate(path_index=best, position=positions[best]))

    ref = min(range(len(candidates)), key=lambda j: candidates[j].position.cost)
    for j, cand in enumerate(candidates):
        cand.consistent = j == ref or bool(
            consistency(cand.position, candidates[ref].position, zeta))

    kept = [c.position for c in candidates if c.consistent]
    return FusionReport(fused=gaussian_fuse(kept), candidates=candidates,
                        reference=ref,
                        all_inconsistent=(len(kept) == 1 and len(candidates) > 1))
