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
    with a cached steering matrix.

    Codeword j lies at angle theta[j] (cos_theta[j], angle index n_theta[j])
    and distance r[j] (index n_r[j] within its angle).
    """

    array: ArrayConfig
    config: CodebookConfig
    theta: np.ndarray
    r: np.ndarray
    cos_theta: np.ndarray
    n_theta: np.ndarray
    n_r: np.ndarray
    _steering: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("theta", "r", "cos_theta", "n_theta", "n_r"):
            value = np.array(getattr(self, name))
            value.setflags(write=False)
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.r)

    @property
    def steering_matrix(self) -> np.ndarray:
        """M x N matrix, one near-field steering vector per codeword."""
        if self._steering is None:
            self._steering = near_steering_columns(self.array, self.theta, self.r)
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
    """Cross product of the angle grid with per-angle distance grids."""
    cos_grid = angle_grid(cfg, cbcfg.delta_alpha)
    thetas, grids = [], []
    for cos_t in cos_grid:
        theta = float(np.arccos(cos_t))
        distances = distance_grid(cfg, theta, cbcfg.delta_beta)
        if cbcfg.cover_far_edge and cfg.rayleigh_distance not in distances:
            distances = np.append(distances, cfg.rayleigh_distance)
        thetas.append(theta)
        grids.append(distances)
    counts = np.array([len(g) for g in grids], dtype=int)
    starts = np.cumsum(counts) - counts
    return Codebook(array=cfg, config=cbcfg,
                    theta=np.repeat(thetas, counts),
                    r=np.concatenate([np.zeros(0), *grids]),
                    cos_theta=np.repeat(cos_grid, counts),
                    n_theta=np.repeat(np.arange(len(grids)), counts),
                    n_r=np.arange(counts.sum()) - np.repeat(starts, counts))

