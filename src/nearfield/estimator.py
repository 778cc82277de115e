"""Variational Newtonized near-field channel estimation.

Single-path machinery: the analytic gradient and Hessian of the reduced
objective f(theta, r, g, phi) = sum_m 2|y_m| g cos(psi_m) - M g^2, with
psi_m = k (r_m - r) + phi - arg y_m, and a guarded Newton step that only
moves when the (theta, r) sub-Hessian is negative definite and the
projection cost G strictly rises. A path's turn opens at its point with
the LS gain there and takes such steps until one is rejected, or until an
accepted one raises the log-likelihood (f over sigma^2, up to a constant)
by less than MIN_LOGLIK_GAIN nats; it reports its exact gain. A frozen
path's turn takes no step. Multi-path estimation greedily detects paths
on the codebook, each a bare codeword, and cyclically re-refines each one
against the residual of the others, in rounds that stop once a round
gains less than MIN_LOGLIK_GAIN nats or moves nothing. Each returned path
then gets its soft information once: the gradient and Hessian at its
final point, against the final residual of the others.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .arraymodel import ArrayConfig, Measurement, PathParams, \
    distance_derivatives, distance_steering, element_distances, synthesize_channel
from .arraymodel import near_steering  # noqa: F401 - rebound by bench/layertrace.py
from .codebook import Codebook

THETA_EDGE = 1e-6

# Optional per-iteration trace record: (path_index, round_index, theta, r, g,
# phi, cost_before, cost_after, accepted).
TraceHook = Callable[..., None]

PSD_FLOOR_SCALE = 1e-12  # per-antenna eigenvalue floor of the 4x4 information
# A Newton turn ends after an accepted step that raised the log-likelihood by
# less than this many nats; the cyclic rounds end after a round whose turns
# together raised it by less.
MIN_LOGLIK_GAIN = 1e-3


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
    the one array), the most Newton steps a turn takes, and the most cyclic
    rounds a refinement runs; either may stop earlier on MIN_LOGLIK_GAIN."""

    codebook: Codebook
    single_rounds: int = 5
    cyclic_rounds: int = 5

    def __post_init__(self):
        if self.single_rounds < 0 or self.cyclic_rounds < 0:
            raise ValueError("refinement round counts must be >= 0")


class Projection(NamedTuple):
    """The matched projection of y on b(theta, r): cost |b^H y|^2 / M and LS
    gain b^H y / M, with what the derivatives read: w = y o conj(b), whose
    sum is b^H y, and the point's element distances."""

    cost: float
    gain: complex
    w: np.ndarray
    r_m: np.ndarray


def project(cfg: ArrayConfig, y: np.ndarray, theta: float, r: float) -> Projection:
    """The Projection of y at (theta, r)."""
    r_m = element_distances(cfg, theta, r)
    w = distance_steering(cfg, r_m, r).conj()
    w *= y
    inner = complex(w.sum())
    M = cfg.num_antennas
    return Projection(abs(inner) ** 2 / M, inner / M, w, r_m)


def _gain_polar(gain: complex) -> tuple[float, float]:
    return abs(gain), cmath.phase(gain) % (2.0 * math.pi)


def grad_hess(cfg: ArrayConfig, proj: Projection,
              p: PathParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and 4x4 Hessian of the objective on the projected y,
    at p, whose (theta, r) is proj's point, in (theta, r, g, phi) order.

    With a = |y|, a cos psi and a sin psi are the real and imaginary parts
    of conj(w) e^{j phi}. Every weighted sum comes from the rows F of
    distance_derivatives: s = F (a sin psi) and C = F' diag(a cos psi) F'^T
    over its first three rows F' = (dr_m/dtheta, dr_m/dr - 1, 1), which are
    dpsi/d(theta, r, phi) over (k, k, 1). Hessian -2g (dpsi dpsi^T . a cos
    psi + d^2 psi . a sin psi) in (theta, r, phi), g row -2 dpsi . a sin
    psi, (g, g) entry -2M; gradient g times the g row, g entry 2 sum(a cos
    psi) - 2Mg.
    """
    k, M, g = cfg.wavenumber, cfg.num_antennas, p.g
    a_exp = proj.w.conj()  # a e^{j psi}
    a_exp *= cmath.exp(1j * p.phi)
    F = distance_derivatives(cfg, p.theta, p.r, proj.r_m)
    s_t, s_r, s_1, s_tt, s_tr, s_rr = (F @ a_exp.imag).tolist()
    P = F[:3]
    (c_tt, c_tr, c_t1), (_, c_rr, c_r1), (_, _, c_11) = (
        (P * a_exp.real) @ P.T).tolist()
    gk = -2.0 * g * k
    h_tt = gk * (k * c_tt + s_tt)
    h_tr = gk * (k * c_tr + s_tr)
    h_rr = gk * (k * c_rr + s_rr)
    h_tp, h_rp, h_pp = gk * c_t1, gk * c_r1, -2.0 * g * c_11
    g_t, g_r, g_p = -2.0 * k * s_t, -2.0 * k * s_r, -2.0 * s_1
    hess = np.array([[h_tt, h_tr, g_t, h_tp],
                     [h_tr, h_rr, g_r, h_rp],
                     [g_t, g_r, -2.0 * M, g_p],
                     [h_tp, h_rp, g_p, h_pp]])
    grad = np.array([g * g_t, g * g_r, 2.0 * c_11 - 2.0 * M * g, g * g_p])
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


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> tuple[float, float] | None:
    """The (theta, r) block's Newton step H^-1 g in closed form, or None
    unless that 2x2 sub-Hessian is negative definite."""
    (h00, h01), (h10, h11) = hess[:2, :2].tolist()
    # Negative definite iff h00 < 0 and det > 0 (strict); singular => skip.
    det = h00 * h11 - h01 * h10
    if not (h00 < 0.0 and det > 0.0):
        return None
    g0, g1 = grad[:2].tolist()
    return (h11 * g0 - h01 * g1) / det, (h00 * g1 - h10 * g0) / det


def newton_refine_once(cfg: ArrayConfig, y: np.ndarray, p: PathParams,
                       proj: Projection, trace: TraceHook | None = None,
                       path_index: int = 0, round_index: int = 0
                       ) -> tuple[PathParams, Projection]:
    """One guarded Newton update of (theta, r), then the LS gain.

    The (theta, r) step is taken only when the 2x2 sub-Hessian is negative
    definite, the distance is clamped into the near-field annulus, and the
    update is kept only if it strictly raises the projection cost: a tie is
    rejected, since near endfire the cost can be flat in r below float64
    resolution and a tie would carry r across the annulus. `proj` is the
    Projection of y at p, as the previous step on y returned it; the
    Projection at the returned point comes back beside the params for the
    next step.
    """
    theta, r = p.theta, p.r
    step = _newton_step(*grad_hess(cfg, proj, p))
    out = proj
    if step is not None:
        cand = _clamp_params(cfg, theta - step[0], r - step[1])
        cand_proj = project(cfg, y, *cand)
        if cand_proj.cost > proj.cost:
            out = cand_proj
            theta, r = cand

    g, phi = _gain_polar(out.gain)
    if trace is not None:
        trace(path_index, round_index, theta, r, g, phi,
              proj.cost, out.cost, out is not proj)
    return PathParams(theta=theta, r=r, g=g, phi=phi), out


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
        proj = project(cfg, y_rk, p.theta, p.r)
        out.append(SoftEstimate(p, *grad_hess(cfg, proj, p), y.noise_variance))
    return out


def omp_detect(y_r: np.ndarray, codebook: Codebook,
               scores: np.ndarray) -> PathParams:
    """The codeword maximizing |b^H y_r|^2 on y_r's row of the codebook scan,
    `scores`, as a zero-gain path: the turn that refines it opens with its
    LS gain. Ties -> lowest codeword index, which is the first in scan
    order."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    best = int(np.argmax(scores))  # first index on ties
    return PathParams(float(codebook.theta[best]), float(codebook.r[best]), 0.0)


def _refine(cfg: EstimatorConfig, y_r: np.ndarray, sigma2: float, p: PathParams,
            k: int, trace: TraceHook | None,
            frozen: bool = False) -> tuple[PathParams, float]:
    """One turn of path k against its residual y_r, whose noise power is
    sigma2: the path it returns and the turn's gain.

    The turn opens at p's (theta, r) with the LS gain there, then takes up
    to single_rounds guarded Newton steps (none for a frozen path), each
    reusing the previous step's projection. Each step ends on the LS gain
    at the point it reaches, so a rejected step returns its input, as every
    later step would: the turn stops there. It also stops after an accepted
    step that raised the cost by less than MIN_LOGLIK_GAIN * sigma2: the
    cost is the log-likelihood scaled by sigma2, so that step gained less
    than MIN_LOGLIK_GAIN nats. At sigma2 = 0 only a rejection stops a turn
    early.

    The gain is the drop in ||y_r - c||^2, c the path's reconstruction,
    from p to the returned path: with `start` the projection at p's (theta,
    r), it is the final cost minus start.cost plus M |start.gain - g e^{j
    phi}|^2, the LS refit at the start. It is sigma2 times the turn's rise
    in log-likelihood and never negative.
    """
    array = cfg.codebook.array
    start = proj = project(array, y_r, p.theta, p.r)
    q = PathParams(p.theta, p.r, *_gain_polar(start.gain))
    for j in range(0 if frozen else cfg.single_rounds):
        q, after = newton_refine_once(array, y_r, q, proj, trace,
                                      path_index=k, round_index=j)
        stop = after is proj or after.cost - proj.cost < MIN_LOGLIK_GAIN * sigma2
        proj = after
        if stop:
            break
    refit = array.num_antennas * abs(start.gain - cmath.rect(p.g, p.phi)) ** 2
    return q, proj.cost - start.cost + refit


def cyclic_refine(cfg: EstimatorConfig, y: Measurement, paths: list[PathParams],
                  rounds: int, trace: TraceHook | None = None,
                  frozen: int | None = None) -> list[PathParams]:
    """Re-refine every path against the residual of the others, in up to
    `rounds` rounds of one turn per path.

    The rounds stop after the first one whose turns together raise the
    log-likelihood by less than MIN_LOGLIK_GAIN nats (a summed gain below
    MIN_LOGLIK_GAIN * sigma2), or that leaves every path as it was: the
    turns' gains sum to the drop in ||y - sum of paths||^2 over the round,
    so the rule costs no extra projection. At sigma2 = 0 only a round that
    moved nothing stops early. The path at index `frozen` keeps its (theta,
    r): its turns take no step and only refit its gain. It also takes a
    turn before and after the rounds.
    """
    array = cfg.codebook.array
    paths = list(paths)

    def turns(ks) -> float:
        gain = 0.0
        for k in ks:
            y_rk = residual(array, y.y, paths[:k] + paths[k + 1:])
            paths[k], turn_gain = _refine(cfg, y_rk, y.noise_variance, paths[k],
                                          k, trace, k == frozen)
            gain += turn_gain
        return gain

    pinned = [] if frozen is None else [frozen]
    turns(pinned)
    for _ in range(rounds):
        before = list(paths)
        if turns(range(len(paths))) < MIN_LOGLIK_GAIN * y.noise_variance \
                or paths == before:
            break
    turns(pinned)
    return paths


def vnnce(ys: list[Measurement], num_paths: list[int], cfg: EstimatorConfig,
          trace: TraceHook | None = None) -> list[list[SoftEstimate]]:
    """Greedy detect-and-refine estimation of num_paths[i] paths from ys[i].

    The measurements run in lockstep, one path order at a time. The
    residuals of every measurement still adding paths are scored in one
    codebook scan, which reads the steering matrix once. Then each, in index
    order, detects its new path on its row of the scores, refines it for up
    to single_rounds Newton steps, and cyclically re-refines all its paths
    (up to cyclic_rounds rounds) against the residual of the others. A
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
            p = omp_detect(y_r, codebook, s)
            paths[i].append(_refine(cfg, y_r, ys[i].noise_variance, p,
                                    len(paths[i]), trace)[0])
            paths[i] = cyclic_refine(cfg, ys[i], paths[i], cfg.cyclic_rounds, trace)
            if len(paths[i]) < num_paths[i]:
                still.append(i)
        active = still
    return [soft_estimates(array, y, p) for y, p in zip(ys, paths)]
