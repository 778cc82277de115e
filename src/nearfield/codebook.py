"""Angle-distance codebook construction.

The angle axis samples cos(theta) uniformly; the distance axis samples 1/r
uniformly per angle. The steps delta_alpha and delta_beta are spacings in
the dimensionless angle mismatch alpha and curvature mismatch beta, whose
ambiguity profiles (a sinc and a Fresnel integral) bound them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arraymodel import ArrayConfig, near_steering_columns

MAX_DELTA_ALPHA = 0.9
MAX_DELTA_BETA = 2.98


@dataclass(frozen=True)
class CodebookConfig:
    delta_alpha: float = 0.5
    delta_beta: float = 1.0
    cover_far_edge: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta_alpha <= MAX_DELTA_ALPHA:
            raise ValueError(
                f"delta_alpha must lie in (0, {MAX_DELTA_ALPHA}], got {self.delta_alpha}"
            )
        if not 0.0 < self.delta_beta < MAX_DELTA_BETA:
            raise ValueError(
                f"delta_beta must lie in (0, {MAX_DELTA_BETA}), got {self.delta_beta}"
            )


@dataclass(eq=False)
class Codebook:
    """Ordered codeword grid as read-only arrays, one entry per codeword,
    with a cached steering matrix of the stored half.

    Codeword j lies at angle theta[j] (cos_theta[j], angle index n_theta[j])
    and distance r[j] (index n_r[j] within its angle). mirror[j] is the
    index of its mirror twin, the codeword at (-cos_theta[j], r[j]), or j
    itself when it has none (cos_theta = 0 is its own twin); left out, it
    makes every codeword its own twin. A symmetric ULA's twin column is the
    row-reversed column, so only `stored` codewords get a steering column:
    first each pair's cos_theta > 0 member, whose twins are `twin` in the
    same order, then every codeword that is its own twin.
    """

    array: ArrayConfig
    config: CodebookConfig
    theta: np.ndarray
    r: np.ndarray
    cos_theta: np.ndarray
    n_theta: np.ndarray
    n_r: np.ndarray
    mirror: np.ndarray | None = None
    _steering: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        index = np.arange(len(self.r))
        if self.mirror is None:
            self.mirror = index
        for name in ("theta", "r", "cos_theta", "n_theta", "n_r", "mirror"):
            value = np.array(getattr(self, name))
            value.setflags(write=False)
            setattr(self, name, value)
        alone = self.mirror == index
        paired = np.flatnonzero(~alone & (self.cos_theta > 0.0))
        self.stored = np.concatenate([paired, np.flatnonzero(alone)])
        self.twin = self.mirror[paired]
        self.stored.setflags(write=False)
        self.twin.setflags(write=False)

    def __len__(self) -> int:
        return len(self.r)

    @property
    def steering_matrix(self) -> np.ndarray:
        """M x len(stored) matrix: column k is the near-field steering
        vector of codeword stored[k]; the twin of a column k < len(twin) is
        that column with its rows reversed."""
        if self._steering is None:
            self._steering = near_steering_columns(
                self.array, self.theta[self.stored], self.r[self.stored])
        return self._steering


def angle_grid(cfg: ArrayConfig, delta_alpha: float) -> np.ndarray:
    """cos(theta) grid: (2*n*delta_alpha - M + 1)/M, values with |cos| >= 1 dropped."""
    M = cfg.num_antennas
    n = np.arange(int(np.floor(M / delta_alpha)))
    cos_vals = (2.0 * n * delta_alpha - M + 1.0) / M
    return cos_vals[np.abs(cos_vals) < 1.0]


def distance_grid(cfg: ArrayConfig, theta: float, delta_beta: float) -> np.ndarray:
    """Distances with uniform 1/r spacing, restricted to (1.2D, r_R].

    A degenerate grid (no r_n inside the annulus, which happens for angles
    near the endpoints where sin(theta) is small) keeps the single distance
    r_R so every angle retains one codeword.
    """
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


def build_codebook(cfg: ArrayConfig, cbcfg: CodebookConfig) -> Codebook:
    """Cross product of the angle grid with per-angle distance grids.

    Each angle's distance grid is taken at arccos(|cos theta|), so the two
    angles of a mirror pair (cos theta and -cos theta, both on the grid)
    share one grid bit for bit and their codewords pair up one to one.
    """
    cos_grid = angle_grid(cfg, cbcfg.delta_alpha)
    thetas, grids, twin_angle = [], [], []
    first_at: dict[float, int] = {}  # |cos theta| -> the first angle with it
    for n, cos_t in enumerate(cos_grid.tolist()):
        thetas.append(float(np.arccos(cos_t)))
        m = first_at.setdefault(abs(cos_t), n)
        if m != n:  # angle m's mirror: the pair shares m's grid
            twin_angle[m] = n
            twin_angle.append(m)
            grids.append(grids[m])
            continue
        distances = distance_grid(cfg, float(np.arccos(abs(cos_t))), cbcfg.delta_beta)
        if cbcfg.cover_far_edge and cfg.rayleigh_distance not in distances:
            distances = np.append(distances, cfg.rayleigh_distance)
        twin_angle.append(n)
        grids.append(distances)
    counts = np.array([len(g) for g in grids], dtype=int)
    starts = np.cumsum(counts) - counts
    n_theta = np.repeat(np.arange(len(grids)), counts)
    n_r = np.arange(counts.sum()) - starts[n_theta]
    return Codebook(array=cfg, config=cbcfg,
                    theta=np.repeat(thetas, counts),
                    r=np.concatenate([np.zeros(0), *grids]),
                    cos_theta=np.repeat(cos_grid, counts),
                    n_theta=n_theta, n_r=n_r,
                    # Twins share a grid: (n, k)'s twin is (twin_angle[n], k).
                    mirror=starts[twin_angle][n_theta] + n_r)
