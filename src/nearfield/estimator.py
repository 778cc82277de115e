"""Variational Newtonized near-field channel estimation.

Single-path machinery: the analytic gradient and Hessian of the reduced
objective f(theta, r, g, phi) = sum_m 2|y_m| g cos(psi_m) - M g^2, with
psi_m = k (r_m - r) + phi - arg y_m, and a guarded Newton step that only
moves when its 2x2 (theta, r) system is negative definite and the
projection cost G strictly rises. A path's turn opens at its point with
the LS gain there and takes such steps until one after the first is
rejected, or until an accepted one raises the log-likelihood (f over
sigma^2, up to a constant) by less than MIN_LOGLIK_GAIN nats; it reports
its exact gain, and each step to an optional trace hook. Its first step
holds gain and phase fixed; every later one is Newton on the cost
concentrated over gain and phase, variable projection (Golub & Pereyra,
SIAM J. Numer. Anal. 1973), which removes the coupling of r to the phase
that makes the fixed-phase step converge in r only linearly. A step's
candidate goes through clamp_params, the one clamp of (theta, r) into the
near-field annulus, which step 3's anchor goes through too. A frozen
path's turn takes no step. Multi-path estimation greedily detects paths
on the codebook, each a bare codeword, and cyclically re-refines each one
against the residual of the others, in rounds that stop once a round
gains less than MIN_LOGLIK_GAIN nats or moves nothing. Each returned path
then gets its soft information once: the Hessian at its final point,
against the final residual of the others. A path travels as one record,
its parameters with the last Projection at its point, from detection
through the rounds into its soft estimate, so step 3 reopens on step 1's
geometry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arraymodel import ArrayConfig, Measurement, PathParams, \
    distance_basis, distance_steering, element_distances
from .arraymodel import near_steering  # noqa: F401 - rebound by bench/layertrace.py
from .codebook import Codebook

THETA_EDGE = 1e-6

# Optional per-step trace record, one per guarded Newton step of a turn:
# (path_index, step_index, theta, r, g, phi, cost_before, cost_after, accepted).
TraceHook = Callable[..., None]

PSD_FLOOR = 1e-12  # eigenvalue floor of a matrix scaled to a unit diagonal
# A Newton turn ends after an accepted step that raised the log-likelihood by
# less than this many nats; the cyclic rounds end after a round whose turns
# together raised it by less.
MIN_LOGLIK_GAIN = 1e-3


@dataclass(frozen=True)
class SoftEstimate:
    """A returned path with its soft information: the objective's 4x4
    Hessian at `params`, ordered (theta, r, g, phi) and taken against the
    residual of the other returned paths, the noise power sigma2, and `at`,
    the Projection of that residual at the path's point, whose geometry a
    later turn at the point (step 3's) reuses."""

    params: PathParams
    hess: np.ndarray
    sigma2: float
    at: Projection

    @property
    def cov(self) -> np.ndarray:
        """Laplace covariance sigma^2 * (-H)^{-1}, the inverse taken by
        psd_repair, which changes it only where -H scaled to a unit
        diagonal has an eigenvalue below PSD_FLOOR. The reduced objective is
        the log-likelihood scaled by sigma^2, so the noise power is carried
        back in."""
        return self.sigma2 * psd_repair(-self.hess, invert=True)


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


@dataclass(eq=False, slots=True)
class Projection:
    """The matched projection of y on b(theta, r): cost |b^H y|^2 / M and LS
    gain b^H y / M, with what the derivatives read, w = y o conj(b), whose
    sum is b^H y, and the point's geometry: (theta, r), its element
    distances r_m and conj(b), which a later projection or residual at that
    point reuses (a Path record carries it there). `sums` holds the point's
    derivative pass once a step has made it (_basis_sums)."""

    cost: float
    gain: complex
    w: np.ndarray
    theta: float
    r: float
    r_m: np.ndarray
    b_conj: np.ndarray
    sums: list | None = None


@dataclass(frozen=True, slots=True)
class Path:
    """A path as the estimator carries it: its parameters and `at`, the
    last Projection at its (theta, r), or None where no projection was made
    there yet (a detected codeword, step 3's anchor). A turn opens on `at`'s
    geometry and residual rebuilds the path from its conj(b), so no point's
    element distances are evaluated twice. Equality reads the parameters
    only."""

    params: PathParams
    at: Projection | None = field(default=None, compare=False)


def _geometry(cfg: ArrayConfig, theta: float, r: float,
              at: Projection | None) -> tuple[np.ndarray, np.ndarray]:
    """The element distances and conj(b) at (theta, r): at's when it is a
    Projection at that very point, else evaluated afresh."""
    if at is not None and at.theta == theta and at.r == r:
        return at.r_m, at.b_conj
    r_m = element_distances(cfg, theta, r)
    return r_m, distance_steering(cfg, r_m, r, conj=True)


def project(cfg: ArrayConfig, y: np.ndarray, theta: float, r: float,
            at: Projection | None = None) -> Projection:
    """The Projection of y at (theta, r), on at's geometry if at is a
    Projection at that point."""
    r_m, b_conj = _geometry(cfg, theta, r, at)
    w = b_conj * y
    inner = complex(w.sum())
    M = cfg.num_antennas
    return Projection(abs(inner) ** 2 / M, inner / M, w, theta, r, r_m, b_conj)


def _gain_polar(gain: complex) -> tuple[float, float]:
    return abs(gain), cmath.phase(gain) % (2.0 * math.pi)


def _basis_sums(cfg: ArrayConfig, proj: Projection) -> list:
    """The derivative pass at proj's point: the sums of each distance_basis
    row against Re w and Im w, as [row . Re w, row . Im w] pairs in row
    order, from one product with w viewed as real pairs. Made once per
    Projection and kept on it, so a step that is retried at the same point
    (a rejected first step's concentrated retry) makes no second pass."""
    if proj.sums is None:
        block = distance_basis(cfg, proj.theta, proj.r, proj.r_m)
        proj.sums = (block @ proj.w.view(np.float64).reshape(-1, 2)).tolist()
    return proj.sums


def _derivatives(cfg: ArrayConfig, proj: Projection,
                 p: PathParams) -> tuple[list[float], list[list[float]]]:
    """The objective's gradient and 4x4 Hessian on the projected y at p,
    whose (theta, r) is proj's point, as Python floats in (theta, r, g, phi)
    order.

    With a = |y|, a cos psi and a sin psi are the real and imaginary parts
    of conj(w) e^{j phi}, so a row's sum against either is its sums against
    Re w and Im w (_basis_sums) turned by phi; the row of ones sums to b^H y
    = M times the LS gain. The distance_basis rows give dpsi/d(theta, r,
    phi) = (k A rho, k B q, 1) with A = -r sin theta and B = -sin^2 theta,
    their products, and the second derivatives of psi. Hessian -2g (dpsi
    dpsi^T . a cos psi + d^2 psi . a sin psi) in (theta, r, phi), g row -2
    dpsi . a sin psi, (g, g) entry -2M; gradient g times the g row, g entry
    2 sum(a cos psi) - 2Mg.
    """
    k, M, g, r = cfg.wavenumber, cfg.num_antennas, p.g, proj.r
    ((u_rho, v_rho), (u_q, v_q), (u_x2, v_x2), (u_x3, v_x3), (u_rr, v_rr),
     (u_rq, v_rq), (u_qq, v_qq)) = _basis_sums(cfg, proj)
    inner = M * proj.gain
    cp, sp = math.cos(p.phi), math.sin(p.phi)
    sin_t, cos_t = math.sin(proj.theta), math.cos(proj.theta)
    A, B = -r * sin_t, -sin_t * sin_t
    # Sums against a sin psi (s_) and a cos psi (c_), by derivative.
    s_rho = sp * u_rho - cp * v_rho
    s_x2 = sp * u_x2 - cp * v_x2
    s_t = A * s_rho
    s_r = B * (sp * u_q - cp * v_q)
    s_1 = sp * inner.real - cp * inner.imag
    s_tt = -r * cos_t * s_rho - A * A * s_x2
    s_tr = -sin_t * (sp * u_x3 - cp * v_x3 + r * cos_t * s_x2)
    s_rr = -B * s_x2
    c_tt = A * A * (cp * u_rr + sp * v_rr)
    c_tr = A * B * (cp * u_rq + sp * v_rq)
    c_rr = B * B * (cp * u_qq + sp * v_qq)
    c_t1 = A * (cp * u_rho + sp * v_rho)
    c_r1 = B * (cp * u_q + sp * v_q)
    c_11 = cp * inner.real + sp * inner.imag
    gk = -2.0 * g * k
    h_tt = gk * (k * c_tt + s_tt)
    h_tr = gk * (k * c_tr + s_tr)
    h_rr = gk * (k * c_rr + s_rr)
    h_tp, h_rp, h_pp = gk * c_t1, gk * c_r1, -2.0 * g * c_11
    g_t, g_r, g_p = -2.0 * k * s_t, -2.0 * k * s_r, -2.0 * s_1
    grad = [g * g_t, g * g_r, 2.0 * c_11 - 2.0 * M * g, g * g_p]
    hess = [[h_tt, h_tr, g_t, h_tp],
            [h_tr, h_rr, g_r, h_rp],
            [g_t, g_r, -2.0 * M, g_p],
            [h_tp, h_rp, g_p, h_pp]]
    return grad, hess


def grad_hess(cfg: ArrayConfig, proj: Projection,
              p: PathParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and 4x4 Hessian of the objective on the projected y,
    at p, whose (theta, r) is proj's point, in (theta, r, g, phi) order: the
    arrays of _derivatives' floats."""
    grad, hess = _derivatives(cfg, proj, p)
    return np.array(grad), np.array(hess)


def psd_repair(mat: np.ndarray, invert: bool = False) -> np.ndarray:
    """The matrix (or, with invert=True, its inverse) made symmetric positive
    definite in a unit-free way: symmetrise, scale to D^-1/2 mat D^-1/2 with
    D the absolute diagonal (a zero entry left unscaled), floor that
    matrix's eigenvalues at PSD_FLOOR, and rebuild in the original units.

    The scaling makes the floor independent of the units and magnitudes of
    the entries: it binds only where the scaled matrix has an eigenvalue
    below PSD_FLOOR, however small or large the entries are."""
    mat = (mat + mat.T) / 2.0
    d = np.abs(np.diag(mat))
    d = np.sqrt(np.where(d > 0.0, d, 1.0))
    scale = np.outer(d, d)
    w, v = np.linalg.eigh(mat / scale)
    w = np.maximum(w, PSD_FLOOR)
    out = (v / w) @ v.T / scale if invert else (v * w) @ v.T * scale
    return (out + out.T) / 2.0


def clamp_params(cfg: ArrayConfig, theta: float, r: float) -> tuple[float, float]:
    """(theta, r) clamped into [THETA_EDGE, pi - THETA_EDGE] and the
    near-field annulus [min_near_distance, rayleigh_distance], as floats:
    the one clamp, for a Newton candidate and for step 3's anchor."""
    # np.clip's result (NaN passes through) without its per-call overhead.
    theta = float(min(max(theta, THETA_EDGE), np.pi - THETA_EDGE))
    r = float(min(max(r, cfg.min_near_distance), cfg.rayleigh_distance))
    return theta, r


def _newton_step(grad, hess, concentrated: bool = False) -> tuple[float, float] | None:
    """The (theta, r) Newton step S^-1 d in closed form, d the (theta, r)
    part of the gradient, or None unless S is negative definite.

    S is the (theta, r) block H_xx of the Hessian: the plain step, gain and
    phase held fixed. With `concentrated`, S is its Schur complement over
    (g, phi), H_xx - H_xz H_zz^-1 H_zx, the Hessian of the cost concentrated
    over gain and phase; at the LS gain the (g, phi) gradient vanishes, so
    d is that cost's gradient too, and the step is the (theta, r) part of
    the full 4x4 step with the (g, phi) gradient zeroed. Where H_zz is not
    negative definite (an LS gain of 0 makes it singular) the plain step is
    taken. grad and hess are _derivatives' nested floats (or arrays of
    them); the Hessian is symmetric, and only its upper triangle is read.
    """
    (h00, h01, a0, b0), (_, h11, a1, b1), (_, _, zz, zp), (_, _, _, pp) = hess
    if concentrated:
        det_z = zz * pp - zp * zp
        if zz < 0.0 and det_z > 0.0:
            # Entry (i, j) of H_xz H_zz^-1 H_zx is (a_i, b_i) H_zz^-1 (a_j,
            # b_j)^T, with H_zz^-1 = [[pp, -zp], [-zp, zz]] / det_z.
            h00 -= (pp * a0 * a0 - 2.0 * zp * a0 * b0 + zz * b0 * b0) / det_z
            h11 -= (pp * a1 * a1 - 2.0 * zp * a1 * b1 + zz * b1 * b1) / det_z
            h01 -= (pp * a0 * a1 - zp * (a0 * b1 + b0 * a1) + zz * b0 * b1) / det_z
    # Negative definite iff h00 < 0 and det > 0 (strict); singular => skip.
    det = h00 * h11 - h01 * h01
    if not (h00 < 0.0 and det > 0.0):
        return None
    g0, g1 = grad[0], grad[1]
    return (h11 * g0 - h01 * g1) / det, (h00 * g1 - h01 * g0) / det


def newton_refine_once(cfg: ArrayConfig, y: np.ndarray, p: PathParams,
                       proj: Projection, concentrated: bool = False
                       ) -> tuple[PathParams, Projection]:
    """One guarded Newton update of (theta, r), then the LS gain.

    The (theta, r) step is _newton_step's, plain or `concentrated` over
    gain and phase. It is taken only when its 2x2 system is negative
    definite, the distance is clamped into the near-field annulus, and the
    update is kept only if it strictly raises the projection cost: a tie is
    rejected, since near endfire the cost can be flat in r below float64
    resolution and a tie would carry r across the annulus. `proj` is the
    Projection of y at p, as the previous step on y returned it; the
    Projection at the returned point comes back beside the params for the
    next step, a new object iff the step was accepted.
    """
    theta, r = p.theta, p.r
    step = _newton_step(*_derivatives(cfg, proj, p), concentrated)
    out = proj
    if step is not None:
        cand = clamp_params(cfg, theta - step[0], r - step[1])
        cand_proj = project(cfg, y, *cand)
        if cand_proj.cost > proj.cost:
            out = cand_proj
            theta, r = cand

    g, phi = _gain_polar(out.gain)
    return PathParams(theta=theta, r=r, g=g, phi=phi), out


def residual(cfg: ArrayConfig, y: np.ndarray, paths: list[Path]) -> np.ndarray:
    """Snapshot minus the reconstructed channel of `paths`, as a new array,
    bit for bit y - synthesize_channel of their parameters. Each path whose
    record holds a Projection at its point lends its conj(b): the channel
    is rebuilt as the conjugate of sum conj(g e^{j phi}) conj(b), which
    conjugation leaves exact."""
    if not paths:
        return y.copy()
    h_conj = sum(np.conj(p.params.g * np.exp(1j * p.params.phi))
                 * _geometry(cfg, p.params.theta, p.params.r, p.at)[1]
                 for p in paths)
    return y - h_conj.conj()


def soft_estimates(cfg: ArrayConfig, y: Measurement,
                   paths: list[Path]) -> list[SoftEstimate]:
    """The soft information of every path, each against the residual of the
    others: one derivative pass per path, on the geometry its record lends
    (see residual)."""
    out = []
    for k, path in enumerate(paths):
        p = path.params
        y_rk = residual(cfg, y.y, paths[:k] + paths[k + 1:])
        proj = project(cfg, y_rk, p.theta, p.r, path.at)
        out.append(SoftEstimate(p, grad_hess(cfg, proj, p)[1], y.noise_variance,
                                proj))
    return out


def omp_detect(codebook: Codebook, scores: np.ndarray) -> PathParams:
    """The codeword maximizing |b^H y_r|^2 on a residual y_r's row of the
    codebook scan, `scores`, as a zero-gain path: the turn that refines it
    opens with its LS gain. Ties -> lowest codeword index, which is the
    first in scan order."""
    if len(codebook) == 0:
        raise ValueError("codebook is empty")
    best = int(np.argmax(scores))  # first index on ties
    return PathParams(float(codebook.theta[best]), float(codebook.r[best]), 0.0)


def _refine(cfg: EstimatorConfig, y_r: np.ndarray, sigma2: float, path: Path,
            k: int, trace: TraceHook | None, frozen: bool = False
            ) -> tuple[Path, float]:
    """One turn of path k against its residual y_r, whose noise power is
    sigma2: the record it returns, holding the projection at the returned
    point, and the turn's gain. The turn reports each step it takes to
    `trace` as (k, j, theta, r, g, phi, cost before, cost after, accepted),
    j counting the turn's steps from 0.

    The turn opens at p's (theta, r) with the LS gain there, projecting on
    path.at's geometry if that is a Projection at that point, then takes up
    to single_rounds guarded Newton steps (none for a frozen path), each
    reusing the previous step's projection. The first step is the plain
    one, gain and phase held fixed; every later one is concentrated over
    gain and phase (_newton_step). Concentrated from the first step on,
    turns jump basins away from a detected codeword, and on coupled paths
    they walk a path along the ridge it shares with another to a worse
    point. Each step ends on the LS gain at the point it reaches, so a
    rejected concentrated step returns its input, as every later step
    would: the turn stops there. A rejected first step is no such fixed
    point, since the concentrated step after it may still move, so the
    turn goes on. It also stops after an accepted step that raised the
    cost by less than MIN_LOGLIK_GAIN * sigma2: the cost is the
    log-likelihood scaled by sigma2, so that step gained less than
    MIN_LOGLIK_GAIN nats. At sigma2 = 0 only a rejection stops a turn
    early.

    The gain is the drop in ||y_r - c||^2, c the path's reconstruction,
    from p to the returned path: with `start` the projection at p's (theta,
    r), it is the final cost minus start.cost plus M |start.gain - g e^{j
    phi}|^2, the LS refit at the start. It is sigma2 times the turn's rise
    in log-likelihood and never negative.
    """
    array = cfg.codebook.array
    p = path.params
    start = proj = project(array, y_r, p.theta, p.r, path.at)
    q = PathParams(p.theta, p.r, *_gain_polar(start.gain))
    for j in range(0 if frozen else cfg.single_rounds):
        q, after = newton_refine_once(array, y_r, q, proj, concentrated=j > 0)
        if trace is not None:
            trace(k, j, q.theta, q.r, q.g, q.phi, proj.cost, after.cost,
                  after is not proj)
        stop = j > 0 if after is proj else \
            after.cost - proj.cost < MIN_LOGLIK_GAIN * sigma2
        proj = after
        if stop:
            break
    refit = array.num_antennas * abs(start.gain - cmath.rect(p.g, p.phi)) ** 2
    return Path(q, proj), proj.cost - start.cost + refit


def cyclic_refine(cfg: EstimatorConfig, y: Measurement, paths: list[Path],
                  rounds: int, trace: TraceHook | None = None,
                  frozen: int | None = None) -> list[Path]:
    """Re-refine every path against the residual of the others, in up to
    `rounds` rounds of one turn per path, and return the new records; the
    caller's list is left as it was.

    The rounds stop after the first one whose turns together raise the
    log-likelihood by less than MIN_LOGLIK_GAIN nats (a summed gain below
    MIN_LOGLIK_GAIN * sigma2), or that leaves every path as it was: the
    turns' gains sum to the drop in ||y - sum of paths||^2 over the round,
    so the rule costs no extra projection. At sigma2 = 0 only a round that
    moved nothing stops early. The path at index `frozen` keeps its (theta,
    r): its turns take no step and only refit its gain. It also takes a
    turn before and after the rounds.

    A turn opens on its record's projection, and the residual of the
    others is rebuilt from theirs (residual), so no point's element
    distances and steering vector are evaluated twice.
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
    so each takes the steps it takes alone. Each path is a Path record, so
    its last projection goes with it through the residuals, the rounds and
    into the soft estimate it returns as.
    """
    if not ys:
        raise ValueError("need at least one measurement")
    if len(ys) != len(num_paths):
        raise ValueError(f"{len(ys)} measurements but {len(num_paths)} path counts")
    if min(num_paths) < 1:
        raise ValueError(f"every path count must be >= 1, got {num_paths}")
    codebook = cfg.codebook
    array = codebook.array
    paths: list[list[Path]] = [[] for _ in ys]
    active = list(range(len(ys)))
    while active:
        y_rs = [residual(array, ys[i].y, paths[i]) for i in active]
        scores = codebook.scores(np.stack(y_rs))
        still = []
        for i, y_r, s in zip(active, y_rs, scores):
            new, _ = _refine(cfg, y_r, ys[i].noise_variance,
                             Path(omp_detect(codebook, s)), len(paths[i]), trace)
            paths[i] = cyclic_refine(cfg, ys[i], paths[i] + [new],
                                     cfg.cyclic_rounds, trace)
            if len(paths[i]) < num_paths[i]:
                still.append(i)
        active = still
    return [soft_estimates(array, y, p) for y, p in zip(ys, paths)]
