"""Reference formulas that only the tests use: finite differences and the
objective they check the analytic derivatives against, the far-field
steering vector, the s1/s2 analysis behind the codebook's grid steps, the
gain-only oracle LS, the marginal (delta-method) position covariance, the
stacked form of the distance basis rows, the six-row distance derivatives,
gradient, Hessian and closed-form Newton step that the basis-row kernel
replaced, the extended-precision oracle of the derivatives, the LS gain a
turn opens with, the plain Newton turn, the fixed-round cyclic loop, the
full steering matrix of a codebook and one codeword's exact score, and the
per-angle distance grid and codebook build."""

import cmath
import math

import mpmath
import numpy as np
from scipy import special

from nearfield.arraymodel import (ArrayConfig, Measurement, PathParams,
                                  element_distances, near_steering)
from nearfield.codebook import Codebook, CodebookConfig, angle_grid
from nearfield.estimator import (EstimatorConfig, Path, SoftEstimate, _refine,
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
    """The element distances and distance_basis' rows, written with
    np.stack, one temporary per row."""
    x, x_sq = cfg.offsets, cfg.offsets_sq
    r_m = element_distances(cfg, theta, r)
    rho = x / r_m
    q = x_sq / ((x * math.cos(theta) + r + r_m) * r_m)
    rho_sq = rho * rho
    return r_m, np.stack([rho, q, rho_sq / r_m, rho_sq * rho, rho_sq, q * rho,
                          q * q])


def basis_derivatives(cfg: ArrayConfig, theta: float, r: float,
                      rows: np.ndarray) -> np.ndarray:
    """dr_m/dtheta, dr_m/dr - 1, d2r_m/dtheta2, d2r_m/dtheta dr and
    d2r_m/dr2 at (theta, r), formed from distance_basis' rows."""
    rho, q, x2_r3, x3_r3 = rows[:4]
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return np.stack([-r * sin_t * rho, -sin_t**2 * q,
                     -r * cos_t * rho - (r * sin_t) ** 2 * x2_r3,
                     -sin_t * (x3_r3 + r * cos_t * x2_r3), sin_t**2 * x2_r3])


def reference_distance_derivatives(cfg: ArrayConfig, theta: float, r: float,
                                   r_m: np.ndarray) -> np.ndarray:
    """The six rows the Newton kernel read before its basis rows:
    dr_m/dtheta, dr_m/dr - 1, ones, d2r_m/dtheta2, d2r_m/dtheta dr and
    d2r_m/dr2, each per element and free of differences of nearly equal
    terms."""
    x, x_sq = cfg.offsets, cfg.offsets_sq
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    inv = 1.0 / r_m
    x_sq_inv3 = x_sq * inv * inv * inv
    d_t = x * (-r * sin_t) * inv
    return np.stack([d_t,
                     x_sq * inv / (x * cos_t + r + r_m) * (-sin_t * sin_t),
                     np.ones_like(r_m),
                     (x * (-r * cos_t) - d_t * d_t) * inv,
                     (x + r * cos_t) * x_sq_inv3 * (-sin_t),
                     x_sq_inv3 * (sin_t * sin_t)])


def reference_grad_hess(cfg: ArrayConfig, proj, p: PathParams):
    """grad_hess as the six rows F of reference_distance_derivatives give
    it: s = F (a sin psi) and C = F' diag(a cos psi) F'^T over F's first
    three rows, with a e^{j psi} = conj(w) e^{j phi}."""
    k, M, g = cfg.wavenumber, cfg.num_antennas, p.g
    a_exp = proj.w.conj() * cmath.exp(1j * p.phi)
    F = reference_distance_derivatives(cfg, p.theta, p.r, proj.r_m)
    s_t, s_r, s_1, s_tt, s_tr, s_rr = F @ a_exp.imag
    P = F[:3]
    (c_tt, c_tr, c_t1), (_, c_rr, c_r1), (_, _, c_11) = (P * a_exp.real) @ P.T
    gk = -2.0 * g * k
    h_tt, h_tr, h_rr = gk * (k * c_tt + s_tt), gk * (k * c_tr + s_tr), \
        gk * (k * c_rr + s_rr)
    h_tp, h_rp, h_pp = gk * c_t1, gk * c_r1, -2.0 * g * c_11
    g_t, g_r, g_p = -2.0 * k * s_t, -2.0 * k * s_r, -2.0 * s_1
    hess = np.array([[h_tt, h_tr, g_t, h_tp],
                     [h_tr, h_rr, g_r, h_rp],
                     [g_t, g_r, -2.0 * M, g_p],
                     [h_tp, h_rp, g_p, h_pp]])
    grad = np.array([g * g_t, g * g_r, 2.0 * c_11 - 2.0 * M * g, g * g_p])
    return grad, hess


def reference_newton_step(grad: np.ndarray, hess: np.ndarray,
                          concentrated: bool = False):
    """_newton_step on the arrays: the plain (theta, r) step S^-1 d, or with
    `concentrated` the one on the Schur complement of the (g, phi) block
    where that block is negative definite; None unless S is negative
    definite."""
    (h00, h01, a0, b0), (_, h11, a1, b1), (_, _, zz, zp), (_, _, _, pp) = \
        hess.tolist()
    if concentrated:
        det_z = zz * pp - zp * zp
        if zz < 0.0 and det_z > 0.0:
            h00 -= (pp * a0 * a0 - 2.0 * zp * a0 * b0 + zz * b0 * b0) / det_z
            h11 -= (pp * a1 * a1 - 2.0 * zp * a1 * b1 + zz * b1 * b1) / det_z
            h01 -= (pp * a0 * a1 - zp * (a0 * b1 + b0 * a1) + zz * b0 * b1) / det_z
    det = h00 * h11 - h01 * h01
    if not (h00 < 0.0 and det > 0.0):
        return None
    g0, g1 = grad[:2].tolist()
    return (h11 * g0 - h01 * g1) / det, (h00 * g1 - h01 * g0) / det


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
    exit: the first takes the plain step, every later one the step
    concentrated over gain and phase. Each step goes to `trace` as path k's
    step j, accepted iff it returned a new projection."""
    array = cfg.codebook.array
    p = at_ls_gain(array, y_r, p)
    for j in range(cfg.single_rounds):
        proj = project(array, y_r, p.theta, p.r)
        p, after = newton_refine_once(array, y_r, p, proj, concentrated=j > 0)
        if trace is not None:
            trace(k, j, p.theta, p.r, p.g, p.phi, proj.cost, after.cost,
                  after is not proj)
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
            others = [Path(p) for p in paths[:k] + paths[k + 1:]]
            y_rk = residual(array, y.y, others)
            paths[k] = _refine(cfg, y_rk, y.noise_variance, Path(paths[k]), k,
                               trace, k == frozen)[0].params

    turns(pinned)
    snapshots = [list(paths)]
    for _ in range(rounds):
        turns(range(len(paths)))
        snapshots.append(list(paths))
    turns(pinned)
    return snapshots, paths


def exact_score(codebook: Codebook, y: np.ndarray, j: int) -> float:
    """Codeword j's |b^H y|^2 in float64 on near_steering's column, one
    codeword at a time; a twin's is the reversed y's on its mirror's."""
    stored = len(codebook) - codebook.num_twins
    i, y = (j - stored, y[::-1]) if j >= stored else (j, y)
    b = near_steering(codebook.array, float(codebook.theta[i]), float(codebook.r[i]))
    return abs(y.conj() @ b) ** 2


def full_steering_matrix(codebook: Codebook) -> np.ndarray:
    """M x N matrix, one near_steering column per codeword, twins included."""
    return np.stack([near_steering(codebook.array, theta, r) for theta, r
                     in zip(codebook.theta.tolist(), codebook.r.tolist())], axis=1)


def distance_grid(cfg: ArrayConfig, theta: float, delta_beta: float) -> np.ndarray:
    """One angle's distances with uniform 1/r spacing, restricted to (1.2D,
    r_R], in scalar arithmetic; a degenerate grid keeps the single distance
    r_R."""
    if not 0.0 < theta < np.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    M, d, lam = cfg.num_antennas, cfg.spacing, cfg.wavelength
    inv_step = 2.0 * lam * delta_beta / (M**2 * d**2 * np.sin(theta) ** 2)
    r1 = 1.0 / inv_step
    # n runs until r_n drops to the 1.2D lower edge.
    n_max = int(np.floor(r1 / cfg.min_near_distance))
    n = np.arange(1, n_max + 1)
    r = 1.0 / (n * inv_step)
    r = r[(r > cfg.min_near_distance) & (r <= cfg.rayleigh_distance)]
    if r.size == 0:
        return np.array([cfg.rayleigh_distance])
    return r


def per_angle_codebook(cfg: ArrayConfig, cbcfg: CodebookConfig) -> Codebook:
    """build_codebook's layout with one distance_grid call per angle: the
    mirrored angles (cos theta > 0 with the negation on the grid), the
    angles without a twin, then the twins, each grid taken at
    arccos(|cos theta|)."""
    cos_list = angle_grid(cfg, cbcfg.delta_alpha).tolist()
    on_grid = {c: n for n, c in enumerate(cos_list)}
    mirrored = [n for n, c in enumerate(cos_list) if c > 0.0 and -c in on_grid]
    twins = [on_grid[-cos_list[n]] for n in mirrored]
    alone = sorted(set(range(len(cos_list))) - set(mirrored) - set(twins))
    grids = [distance_grid(cfg, float(np.arccos(abs(cos_list[n]))), cbcfg.delta_beta)
             for n in mirrored + alone]
    grids += grids[:len(twins)]
    angles = mirrored + alone + twins
    thetas = [float(np.arccos(cos_list[n])) for n in angles]
    counts = np.array([len(g) for g in grids], dtype=int)
    starts = np.cumsum(counts) - counts
    return Codebook(array=cfg, config=cbcfg,
                    theta=np.repeat(thetas, counts),
                    r=np.concatenate([np.zeros(0), *grids]),
                    cos_theta=np.repeat([cos_list[n] for n in angles], counts),
                    n_theta=np.repeat(np.array(angles, dtype=int), counts),
                    n_r=np.arange(counts.sum()) - np.repeat(starts, counts),
                    num_twins=int(counts[len(counts) - len(twins):].sum()))
