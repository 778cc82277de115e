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
    with a cached steering matrix and the detection scan over it.

    Codeword j lies at angle theta[j] (cos_theta[j], angle index n_theta[j])
    and distance r[j] (index n_r[j] within its angle). The last num_twins
    codewords are the mirror twins of the first num_twins, in the same
    order: codeword len - num_twins + j lies at (-cos_theta[j], r[j]). A
    symmetric ULA's twin column is the row-reversed column, so twins get
    no steering column.
    """

    array: ArrayConfig
    config: CodebookConfig
    theta: np.ndarray
    r: np.ndarray
    cos_theta: np.ndarray
    n_theta: np.ndarray
    n_r: np.ndarray
    num_twins: int = 0
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
        """M x (len - num_twins) matrix: column j is the near-field steering
        vector of codeword j; the twin of a column j < num_twins is that
        column with its rows reversed."""
        if self._steering is None:
            stored = len(self) - self.num_twins
            self._steering = near_steering_columns(
                self.array, self.theta[:stored], self.r[:stored])
        return self._steering

    def scores(self, yv: np.ndarray) -> np.ndarray:
        """Detection score |b^H y|^2 of every codeword, in codeword order,
        for one vector or a stack of them, one per row.

        The steering matrix B is read as y^H B, in place (B^H y would copy
        it). A twin's score is the reversed y's score on its mirror's
        column. A stack is scored with its reversed rows in one product over
        the mirrored columns, which reads each column once; one vector takes
        two matrix-vector products.
        """
        B = self.steering_matrix
        P = self.num_twins
        yc = yv.conj()
        if yc.ndim == 1:
            return np.concatenate([np.abs(yc @ B) ** 2, np.abs(yc[::-1] @ B[:, :P]) ** 2])
        paired = np.abs(np.concatenate([yc, yc[:, ::-1]]) @ B[:, :P]) ** 2
        return np.concatenate([paired[:len(yc)], np.abs(yc @ B[:, P:]) ** 2,
                               paired[len(yc):]], axis=1)


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

    Codewords run angle by angle, distances in grid order, in scan order:
    first every angle with cos theta > 0 whose negation is on the grid, then
    every angle without such a twin (cos theta = 0 included), then the twins
    of the first block in the same order. Each angle's distance grid is
    taken at arccos(|cos theta|), so a twin shares its mirror's grid bit for
    bit and the two blocks pair up codeword by codeword.
    """
    cos_list = angle_grid(cfg, cbcfg.delta_alpha).tolist()
    on_grid = {c: n for n, c in enumerate(cos_list)}
    mirrored = [n for n, c in enumerate(cos_list) if c > 0.0 and -c in on_grid]
    twins = [on_grid[-cos_list[n]] for n in mirrored]
    alone = sorted(set(range(len(cos_list))) - set(mirrored) - set(twins))
    grids = []
    for n in mirrored + alone:
        theta_grid = float(np.arccos(abs(cos_list[n])))
        distances = distance_grid(cfg, theta_grid, cbcfg.delta_beta)
        if cbcfg.cover_far_edge and cfg.rayleigh_distance not in distances:
            distances = np.append(distances, cfg.rayleigh_distance)
        grids.append(distances)
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
