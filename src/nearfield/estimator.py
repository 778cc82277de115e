"""Variational Newtonized near-field channel estimation.

Single-path machinery: the analytic gradient and Hessian of the reduced
objective f(theta, r, g, phi) = sum_m 2|y_m| g cos(psi_m) - M g^2, with
psi_m = k (r_m - r) + phi - arg y_m, and a guarded Newton step that only
moves when the (theta, r) sub-Hessian is negative definite and the
projection cost G does not decrease. Multi-path estimation greedily detects
paths on the codebook and cyclically re-refines each one against the
residual of the others. Each returned path then gets its soft information
once: the gradient and Hessian at its final point, against the final
residual of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arraymodel import ArrayConfig, Measurement, PathParams, \
    distance_derivatives, near_steering, synthesize_channel
from .codebook import Codebook

THETA_EDGE = 1e-6

# Optional per-iteration trace record: (path_index, round_index, theta, r, g,
# phi, cost_before, cost_after, accepted).
TraceHook = Callable[..., None]

PSD_FLOOR_SCALE = 1e-12  # per-antenna eigenvalue floor of the 4x4 information


@dataclass(frozen=True)
class SoftEstimate:
    """A returned path with its soft information: the objective's gradient
    and 4x4 Hessian at `params`, ordered (theta, r, g, phi) and taken against
    the residual of the other returned paths, and the noise power sigma2."""

    params: PathParams
    grad: np.ndarray
    hess: np.ndarray
    sigma2: float

    @property
    def cov(self) -> np.ndarray:
        """Laplace covariance sigma^2 * (-H)^{-1}, the information matrix
        PSD-repaired (eigenvalue floor) before inversion. The reduced
        objective is the log-likelihood scaled by sigma^2, so the noise
        power is carried back in."""
        # The Hessian's (g, g) entry is -2M, so it carries the array size.
        floor = PSD_FLOOR_SCALE * (-self.hess[2, 2] / 2.0)
        return self.sigma2 * psd_repair(-self.hess, floor, invert=True)


@dataclass
class EstimatorConfig:
    """The settings every BS of a run shares: the codebook (whose array is
    the one array) and the Newton and cyclic round counts."""

    codebook: Codebook
    single_rounds: int = 5
    cyclic_rounds: int = 5

    def __post_init__(self):
        if self.single_rounds < 0 or self.cyclic_rounds < 0:
            raise ValueError("refinement round counts must be >= 0")


def project(cfg: ArrayConfig, y: np.ndarray, theta: float,
            r: float) -> tuple[float, complex]:
    """Matched projection on b(theta, r): cost |b^H y|^2 / M and LS gain b^H y / M."""
    inner = near_steering(cfg, theta, r).conj() @ y
    return float(np.abs(inner) ** 2 / cfg.num_antennas), complex(inner / cfg.num_antennas)


def _gain_polar(gain: complex) -> tuple[float, float]:
    g = abs(gain)
    phi = float(np.angle(gain)) % (2.0 * np.pi)
    return g, phi


def grad_hess(cfg: ArrayConfig, y: np.ndarray,
              p: PathParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and 4x4 Hessian of the objective in (theta, r, g,
    phi) order, as products with P = dpsi/d(theta, r, g, phi) (g row zero,
    phi row ones) and a = |y|: Hessian -2g P diag(a cos psi) P^T - 2g
    (d^2 psi/d(theta, r)^2) . (a sin psi), g row -2 P (a sin psi), (g, g)
    entry -2M; gradient g times the g row, g entry 2 sum(a cos psi) - 2Mg."""
    a = np.abs(y)
    k, M = cfg.wavenumber, cfg.num_antennas
    r_m, d1, d2 = distance_derivatives(cfg, p.theta, p.r)
    psi = k * (r_m - p.r) + p.phi - np.angle(y)
    a_sin, a_cos = a * np.sin(psi), a * np.cos(psi)
    P = np.empty((4, M))
    P[0], P[1], P[2], P[3] = k * d1[0], k * (d1[1] - 1.0), 0.0, 1.0
    g_row = -2.0 * (P @ a_sin)
    pap = (P * a_cos) @ P.T  # its (phi, phi) entry is sum(a cos psi)
    hess = -2.0 * p.g * pap
    hess[:2, :2] -= 2.0 * p.g * k * (d2 @ a_sin)[[0, 1, 1, 2]].reshape(2, 2)
    hess[2] = hess[:, 2] = g_row
    hess[2, 2] = -2.0 * M
    grad = p.g * g_row
    grad[2] = 2.0 * pap[3, 3] - 2.0 * M * p.g
    return grad, hess


def psd_repair(mat: np.ndarray, floor: float, invert: bool = False) -> np.ndarray:
    """Symmetrise, floor the eigenvalues at `floor`, and rebuild the matrix
    (or, with invert=True, its inverse)."""
    mat = (mat + mat.T) / 2.0
    w, v = np.linalg.eigh(mat)
    w = np.maximum(w, floor)
    out = (v / w) @ v.T if invert else (v * w) @ v.T
    return (out + out.T) / 2.0


def _clamp_params(cfg: ArrayConfig, theta: float, r: float) -> tuple[float, float]:
    # np.clip's result (NaN passes through) without its per-call overhead.
    theta = float(min(max(theta, THETA_EDGE), np.pi - THETA_EDGE))
    r = float(min(max(r, cfg.min_near_distance), cfg.rayleigh_distance))
    return theta, r


def newton_refine_once(cfg: ArrayConfig, y: np.ndarray, p: PathParams,
                       trace: TraceHook | None = None,
                       path_index: int = 0, round_index: int = 0,
                       proj: tuple[float, complex] | None = None
                       ) -> tuple[PathParams, tuple[float, complex]]:
    """One guarded Newton update of (theta, r), then the LS gain.

    The (theta, r) step is taken only when the 2x2 sub-Hessian is negative
    definite, the distance is clamped into the near-field annulus, and the
    update is reverted if the projection cost decreased. `proj` is
    project(cfg, y, p.theta, p.r) when the caller already has it; the
    projection at the returned point comes back beside it for the next step.
    """
    theta, r = p.theta, p.r
    cost_before, gain = proj if proj is not None else project(cfg, y, theta, r)

    grad, hess = grad_hess(cfg, y, p)
    h2 = hess[:2, :2]
    # Negative definite iff h00 < 0 and det > 0 (strict); singular => skip.
    det = h2[0, 0] * h2[1, 1] - h2[0, 1] * h2[1, 0]
    accepted = False
    theta_new, r_new = theta, r
    cost_after = cost_before
    if h2[0, 0] < 0.0 and det > 0.0:
        step = np.linalg.solve(h2, grad[:2])
        cand = _clamp_params(cfg, theta - step[0], r - step[1])
        cand_cost, cand_gain = project(cfg, y, *cand)
        if cand_cost >= cost_before:
            accepted = True
            theta_new, r_new = cand
            cost_after, gain = cand_cost, cand_gain

    g, phi = _gain_polar(gain)
    if trace is not None:
        trace(path_index, round_index, theta_new, r_new, g, phi,
              cost_before, cost_after, accepted)
    return PathParams(theta=theta_new, r=r_new, g=g, phi=phi), (cost_after, gain)


def residual(cfg: ArrayConfig, y: np.ndarray, paths: list[PathParams]) -> np.ndarray:
    """Snapshot minus the reconstructed channel of `paths`, as a new array."""
    return y - synthesize_channel(cfg, paths) if paths else y.copy()


def soft_estimates(cfg: ArrayConfig, y: Measurement,
                   paths: list[PathParams]) -> list[SoftEstimate]:
    """The soft information of every path, each against the residual of the
    others: one derivative pass per path."""
    out = []
    for k, p in enumerate(paths):
        y_rk = residual(cfg, y.y, paths[:k] + paths[k + 1:])
        out.append(SoftEstimate(p, *grad_hess(cfg, y_rk, p), y.noise_variance))
    return out


def omp_detect(cfg: ArrayConfig, y_r: np.ndarray, codebook: Codebook,
               scores: np.ndarray | None = None) -> PathParams:
    """Exhaustive codebook scan maximizing |b^H y_r|^2; ties -> lowest
    codeword index, which is the first in scan order. Pass `scores` when the
    scan of y_r is already done."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    if scores is None:
        scores = codebook.scores(y_r)
    best = int(np.argmax(scores))  # first index on ties
    theta, r = float(codebook.theta[best]), float(codebook.r[best])
    return PathParams(theta, r, *_gain_polar(project(cfg, y_r, theta, r)[1]))


def _refine(cfg: EstimatorConfig, y_r: np.ndarray, p: PathParams, k: int,
            trace: TraceHook | None, fixed: tuple[float, float] | None = None
            ) -> PathParams:
    """One turn of path k against its residual y_r.

    A path with a fixed (theta, r) gets an LS gain refit there; any other
    path gets up to single_rounds guarded Newton steps, each reusing the
    previous step's projection. The turn stops at an exact fixed point: a
    step that returns its input would do so again every later step.
    """
    array = cfg.codebook.array
    if fixed is not None:
        return PathParams(*fixed, *_gain_polar(project(array, y_r, *fixed)[1]))
    proj = None
    for j in range(cfg.single_rounds):
        q, proj = newton_refine_once(array, y_r, p, trace, path_index=k,
                                     round_index=j, proj=proj)
        if q == p:
            break
        p = q
    return p


def cyclic_refine(cfg: EstimatorConfig, y: Measurement, paths: list[PathParams],
                  rounds: int, trace: TraceHook | None = None,
                  frozen: dict[int, tuple[float, float]] | None = None
                  ) -> list[PathParams]:
    """Re-refine every path against the residual of the others, `rounds` times.

    A frozen path (index -> fixed (theta, r)) keeps that geometry and only
    has its gain refit; it also takes a turn before and after the rounds.
    """
    array = cfg.codebook.array
    frozen = frozen or {}
    paths = list(paths)
    for k in [*frozen] + [*range(len(paths))] * rounds + [*frozen]:
        y_rk = residual(array, y.y, paths[:k] + paths[k + 1:])
        paths[k] = _refine(cfg, y_rk, paths[k], k, trace, frozen.get(k))
    return paths


def vnnce(ys: list[Measurement], num_paths: list[int], cfg: EstimatorConfig,
          trace: TraceHook | None = None) -> list[list[SoftEstimate]]:
    """Greedy detect-and-refine estimation of num_paths[i] paths from ys[i].

    The measurements run in lockstep, one path order at a time. The
    residuals of every measurement still adding paths are scored in one
    codebook scan, which reads the steering matrix once. Then each, in index
    order, detects its new path on its row of the scores, refines it for
    single_rounds Newton steps, and cyclically re-refines all its paths
    (cyclic_rounds outer rounds) against the residual of the others. A
    measurement stops adding paths at its path count. They share no state,
    so each takes the steps it takes alone. The returned paths carry their
    soft information.
    """
    if not ys:
        raise ValueError("need at least one measurement")
    if len(ys) != len(num_paths):
        raise ValueError(f"{len(ys)} measurements but {len(num_paths)} path counts")
    if min(num_paths) < 1:
        raise ValueError(f"every path count must be >= 1, got {num_paths}")
    codebook = cfg.codebook
    array = codebook.array
    paths: list[list[PathParams]] = [[] for _ in ys]
    active = list(range(len(ys)))
    while active:
        y_rs = [residual(array, ys[i].y, paths[i]) for i in active]
        scores = codebook.scores(np.stack(y_rs))
        still = []
        for i, y_r, s in zip(active, y_rs, scores):
            p = omp_detect(array, y_r, codebook, s)
            paths[i].append(_refine(cfg, y_r, p, len(paths[i]), trace))
            paths[i] = cyclic_refine(cfg, ys[i], paths[i], cfg.cyclic_rounds, trace)
            if len(paths[i]) < num_paths[i]:
                still.append(i)
        active = still
    return [soft_estimates(array, y, p) for y, p in zip(ys, paths)]
