"""Angle-distance codebook construction.

The angle axis samples cos(theta) uniformly; the distance axis samples 1/r
uniformly per angle. The steps delta_alpha and delta_beta are spacings in
the dimensionless angle mismatch alpha and curvature mismatch beta, whose
ambiguity profiles (a sinc and a Fresnel integral) bound them.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .arraymodel import (STEERING_ENTRY_ERROR, U32, ArrayConfig,
                         near_steering_blocks, near_steering_columns)

MAX_DELTA_ALPHA = 0.9
MAX_DELTA_BETA = 2.98


@dataclass(frozen=True)
class CodebookConfig:
    delta_alpha: float = 0.5
    delta_beta: float = 1.0

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
        """M x (len - num_twins) complex64 matrix: column j is the near-field
        steering vector of codeword j, within STEERING_ENTRY_ERROR per entry;
        the twin of a column j < num_twins is that column with its rows
        reversed."""
        if self._steering is None:
            stored = len(self) - self.num_twins
            self._steering = near_steering_columns(
                self.array, self.theta[:stored], self.r[:stored])
        return self._steering

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """Detection score |b^H y|^2 of every codeword, in codeword order,
        for a stack of vectors y, one per row of Y; exact in float64 for
        every codeword that can be a row's largest, so the argmax is the
        float64 scan's, first index on ties.

        The scan runs in complex64 on one BLAS thread. Each row is divided
        by its largest |y_m| before its complex64 cast, which neither
        overflows nor underflows then, and an all-zero row scores 0
        everywhere. A codeword's float32 amplitude |b~^H y~| then lies within
        delta = scan_error(M) * ||y||_1 of |b^H y| (see scan_error). The
        largest float32 amplitude, A, is within delta of a float64 one, so
        the float64 argmax scores at least A - 2 delta in float32: every
        codeword scoring that much is re-scored in float64, on
        near_steering's column, and every other keeps its float32 score,
        more than delta below the re-scored largest. The re-scores come in
        blocks over the window's columns (_exact_scores).

        The steering matrix B is read as y^H B, in place (B^H y would copy
        it). A twin's score is the reversed y's score on its mirror's
        column: the stack is scored with its reversed rows in one product
        over the mirrored columns, which reads each column once.
        """
        B = self.steering_matrix
        P, k = self.num_twins, len(Y)
        scale = np.abs(Y).max(axis=1, keepdims=True)
        yc = (Y / np.where(scale > 0.0, scale, 1.0)).astype(B.dtype).conj()
        with one_blas_thread():
            paired = np.abs(np.concatenate([yc, yc[:, ::-1]]) @ B[:, :P])
            alone = np.abs(yc @ B[:, P:])
            amp = np.concatenate([paired[:k], alone, paired[k:]], axis=1) * scale
            out = amp**2
            delta = scan_error(self.array.num_antennas) * np.abs(Y).sum(axis=1)
            top = amp.max(axis=1, keepdims=True, initial=0.0)
            near_max = amp >= top - 2.0 * delta[:, None]
            near_max[delta == 0.0] = False
            rows, window = np.divmod(np.flatnonzero(near_max), len(self))
            out[rows, window] = self._exact_scores(Y, rows, window)
        return out

    def _exact_scores(self, Y: np.ndarray, rows: np.ndarray,
                      window: np.ndarray) -> np.ndarray:
        """|b^H y|^2 in float64, on near_steering's columns, of codeword
        window[i] for the row rows[i] of Y; a twin's is the reversed row's on
        its mirror's column, so a mirror tie stays exact. Each column the
        windows need is built once, in near_steering_blocks, and each block
        scored against every row and its reversal in one product, so even a
        window of every codeword costs a bounded number of blocks."""
        stored = len(self) - self.num_twins
        twin = window >= stored
        mirror = window - stored * twin
        cols = np.array(sorted(set(mirror.tolist())), dtype=int)
        Yc = np.concatenate([Y, Y[:, ::-1]]).conj()
        amp = np.empty((len(Yc), len(cols)))
        for part, B in near_steering_blocks(self.array, self.theta[cols], self.r[cols]):
            amp[:, part] = np.abs(Yc @ B)
        return amp[rows + len(Y) * twin, np.searchsorted(cols, mirror)] ** 2


def scan_error(M: int) -> float:
    """c(M) u: Codebook.scores' float32 amplitude |b~^H y~| lies within
    c(M) u ||y||_1 of the float64 |b^H y|, u the float32 unit roundoff.

    Let y be a row scaled to max |y_m| = 1 (so ||y||_1 >= 1 absorbs the
    underflow of its tiny entries), y~ its complex64 cast, |y~_m - y_m| <=
    u |y_m|, and e = STEERING_ENTRY_ERROR >= |b~_m - b_m|. Then
        |b~^H y~ - b^H y| <= sum |y~_m| |b~_m - b_m| + |y~_m - y_m| |b_m|
                          <= ((1 + u) e + u) ||y||_1.
    Each part of the complex dot product is a real dot product of 2M
    products, and the computed one is within gamma_2M = 2Mu / (1 - 2Mu) of
    the sum of their magnitudes in any order of summation, with or without
    fused multiply-adds (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1); the two parts together are within
    sqrt(2) gamma_2M sum |y~_m| |b~_m| <= sqrt(2) gamma_2M (1 + u)(1 + e)
    ||y||_1. The float32 modulus adds 2u ||y||_1 at most, and the float64
    reference and the scaling under u ||y||_1.
    """
    e = STEERING_ENTRY_ERROR
    gamma = 2 * M * U32 / (1.0 - 2 * M * U32)
    return (1.0 + U32) * (e + U32 + np.sqrt(2.0) * gamma * (1.0 + e)) + 3.0 * U32


# OpenBLAS's thread-count setter under the names its builds export, the
# numpy wheels' scipy-openblas first; each getter swaps _set_ for _get_.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def _blas_threads():
    """OpenBLAS's (get_num_threads, set_num_threads) in the BLAS numpy
    loaded, or None when numpy links another BLAS (MKL, Accelerate). The
    lookup goes through numpy's linalg extension, which links that BLAS and
    keeps its import path across numpy 1 and 2."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(lib, name, None)
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter, setter
    return None


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the count after,
    also when it raises: a serial scan would wake OpenBLAS's helper thread,
    which then spins. At a count of 1 it sets nothing, since in a process
    forked at that count the setter would rebuild the thread pool that the
    fork tore down, helper thread and all. Without OpenBLAS the block runs
    as it is."""
    getter, setter = _blas_threads() or (None, None)
    before = getter() if getter else 1
    if before == 1:
        yield
        return
    setter(1)
    try:
        yield
    finally:
        setter(before)


def angle_grid(cfg: ArrayConfig, delta_alpha: float) -> np.ndarray:
    """cos(theta) grid: (2*n*delta_alpha - M + 1)/M, values with |cos| >= 1 dropped."""
    M = cfg.num_antennas
    n = np.arange(int(np.floor(M / delta_alpha)))
    cos_vals = (2.0 * n * delta_alpha - M + 1.0) / M
    return cos_vals[np.abs(cos_vals) < 1.0]


def _distance_grids(cfg: ArrayConfig, thetas: np.ndarray,
                    delta_beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Every angle's distances with uniform 1/r spacing, restricted to
    (1.2D, r_R], concatenated angle by angle, and the count per angle.

    Angle theta's grid is r_n = 1 / (n * s), n = 1, 2, ... while r_n stays
    above the 1.2D lower edge, with s = 2 lambda delta_beta / (M^2 d^2
    sin^2 theta), then cut to the annulus. A degenerate grid (none of its
    r_n inside the annulus, which happens for angles near the endpoints
    where sin(theta) is small) keeps the single distance r_R, so every
    angle retains one codeword. All angles are computed in one array pass;
    sin^2 is taken with float pow, as a scalar build would.
    """
    M, d, lam = cfg.num_antennas, cfg.spacing, cfg.wavelength
    near, far = cfg.min_near_distance, cfg.rayleigh_distance
    sin_sq = np.array([v**2 for v in np.sin(thetas).tolist()])
    inv_step = 2.0 * lam * delta_beta / (M**2 * d**2 * sin_sq)
    n_max = np.floor(1.0 / inv_step / near).astype(int)
    angle = np.repeat(np.arange(len(thetas)), n_max)
    n = np.arange(1, len(angle) + 1) - np.repeat(np.cumsum(n_max) - n_max, n_max)
    r = 1.0 / (n * inv_step[angle])
    keep = (r > near) & (r <= far)
    empty = np.flatnonzero(np.bincount(angle[keep], minlength=len(thetas)) == 0)
    angle = np.concatenate([angle[keep], empty])
    order = np.argsort(angle, kind="stable")
    r = np.concatenate([r[keep], np.full(len(empty), far)])[order]
    return r, np.bincount(angle, minlength=len(thetas))


def build_codebook(cfg: ArrayConfig, cbcfg: CodebookConfig) -> Codebook:
    """Cross product of the angle grid with per-angle distance grids.

    Codewords run angle by angle, distances in grid order, in scan order:
    first every angle with cos theta > 0 whose negation is on the grid, then
    every angle without such a twin (cos theta = 0 included), then the twins
    of the first block in the same order. Each angle's distance grid is
    taken at arccos(|cos theta|), so a twin shares its mirror's grid bit for
    bit and the two blocks pair up codeword by codeword.
    """
    cos = angle_grid(cfg, cbcfg.delta_alpha)
    cos_list = cos.tolist()
    on_grid = {c: n for n, c in enumerate(cos_list)}
    mirrored = [n for n, c in enumerate(cos_list) if c > 0.0 and -c in on_grid]
    twins = [on_grid[-cos_list[n]] for n in mirrored]
    alone = sorted(set(range(len(cos_list))) - set(mirrored) - set(twins))
    r, counts = _distance_grids(cfg, np.arccos(np.abs(cos[mirrored + alone])),
                                cbcfg.delta_beta)
    paired = int(counts[:len(twins)].sum())
    r = np.concatenate([r, r[:paired]])
    counts = np.concatenate([counts, counts[:len(twins)]])
    angles = mirrored + alone + twins
    starts = np.cumsum(counts) - counts
    return Codebook(array=cfg, config=cbcfg,
                    theta=np.repeat(np.arccos(cos[angles]), counts),
                    r=r,
                    cos_theta=np.repeat(cos[angles], counts),
                    n_theta=np.repeat(np.array(angles, dtype=int), counts),
                    n_r=np.arange(counts.sum()) - np.repeat(starts, counts),
                    num_twins=paired)
