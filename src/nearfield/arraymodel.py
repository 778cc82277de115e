"""ULA geometry, near-field steering vectors, channel synthesis and noise.

All functions are pure; stochastic ones take an explicit seed or Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: M antennas, wavelength and spacing in meters."""

    num_antennas: int
    wavelength: float
    spacing: float | None = None

    def __post_init__(self):
        if self.num_antennas < 2:
            raise ValueError(f"num_antennas must be >= 2, got {self.num_antennas}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)
        if self.spacing <= 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")

    @property
    def aperture(self) -> float:
        return self.num_antennas * self.spacing

    @property
    def rayleigh_distance(self) -> float:
        return 2.0 * self.aperture**2 / self.wavelength

    @property
    def wavenumber(self) -> float:
        # 2*pi/wavelength; reproduces the pi*m*cos(theta) far-field phase
        # at half-wavelength spacing.
        return 2.0 * np.pi / self.wavelength

    @property
    def min_near_distance(self) -> float:
        # Constant-amplitude model is only valid beyond 1.2 apertures.
        return 1.2 * self.aperture


@dataclass(frozen=True)
class PathParams:
    """One propagation path: angle (rad), distance (m), gain magnitude, phase."""

    theta: float
    r: float
    g: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.theta < np.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if self.r <= 0:
            raise ValueError(f"r must be > 0, got {self.r}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")


@dataclass(frozen=True)
class Measurement:
    """Received snapshot y (length M) with its noise power sigma^2."""

    y: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=complex))
        if self.y.ndim != 1:
            raise ValueError("y must be a 1-D complex vector")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")


_OFFSETS_CACHE: dict[int, np.ndarray] = {}
STEERING_BLOCK = 1 << 14  # entries per block: 256 KiB complex temporaries
STEERING_DTYPE = np.dtype(np.complex64)  # near_steering_columns' entries
U32 = 2.0**-24  # float32 unit roundoff
# Largest |b~_m - b_m| of a near_steering_columns entry against near_steering's
# b_m: 2 pi u from rounding the reduced phase in [0, 2 pi] to float32; 2 ulp
# (2u) from each of float32 cos and sin, whose errors numpy (1.49 ulp) and libm
# (under 1 ulp) bound, so 2 sqrt(2) u for the pair; under 0.2u for the float64
# phase, its reduction and near_steering's own rounding (while M d / wavelength
# stays below 10^7).
STEERING_ENTRY_ERROR = (2.0 * np.pi + 3.0) * U32


def antenna_offsets(cfg: ArrayConfig) -> np.ndarray:
    """Element coordinates delta_m = (2m - M + 1)/2, symmetric about zero."""
    delta = _OFFSETS_CACHE.get(cfg.num_antennas)
    if delta is None:
        m = np.arange(cfg.num_antennas)
        delta = (2.0 * m - cfg.num_antennas + 1.0) / 2.0
        delta.setflags(write=False)
        _OFFSETS_CACHE[cfg.num_antennas] = delta
    return delta


def element_distances(cfg: ArrayConfig, theta: float, r: float) -> np.ndarray:
    """Distance from each antenna to a source at (theta, r)."""
    return _distances(antenna_offsets(cfg) * cfg.spacing, r**2, r, np.cos(theta))


def _distances(delta_d, r_sq, r, cos_theta) -> np.ndarray:
    # The one expression behind every element distance.
    return np.sqrt(r_sq + delta_d**2 + 2.0 * delta_d * r * cos_theta)


def distance_derivatives(cfg: ArrayConfig, theta: float, r: float,
                         r_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives in (theta, r) of the element distances r_m at (theta, r):
    d1 holds dr_m/dtheta and dr_m/dr, d2 the (theta, theta), (theta, r),
    (r, r) ones."""
    delta_d = antenna_offsets(cfg) * cfg.spacing
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    neg_dr = -delta_d * r
    d1, d2 = np.empty((2, cfg.num_antennas)), np.empty((3, cfg.num_antennas))
    d1[0], d1[1] = neg_dr * sin_t, r + delta_d * cos_t
    d1 /= r_m
    d2[0] = neg_dr * cos_t - d1[0] ** 2
    d2[1] = -delta_d * sin_t - d1[0] * d1[1]
    d2[2] = 1.0 - d1[1] ** 2
    d2 /= r_m
    return d1, d2


def near_steering(cfg: ArrayConfig, theta: float, r: float) -> np.ndarray:
    """Spherical-wave steering vector, entries exp(j*k*(r_m - r))."""
    return distance_steering(cfg, element_distances(cfg, theta, r), r)


def distance_steering(cfg: ArrayConfig, r_m: np.ndarray, r: float) -> np.ndarray:
    """near_steering from the element distances r_m of a source at distance r."""
    return np.exp(1j * cfg.wavenumber * (r_m - r))


def near_steering_columns(cfg: ArrayConfig, theta: np.ndarray,
                          r: np.ndarray) -> np.ndarray:
    """M x N complex64 matrix whose column j is near_steering(cfg, theta[j],
    r[j]) within STEERING_ENTRY_ERROR per entry, filled STEERING_BLOCK
    entries at a time to keep temporaries small.

    The phase k(r_m - r) is near_steering's, in float64; it is reduced mod
    2 pi there, and only then rounded to float32 for cos and sin.
    """
    M = cfg.num_antennas
    out = np.empty((M, len(r)), dtype=STEERING_DTYPE)
    delta_d = (antenna_offsets(cfg) * cfg.spacing)[:, None]
    r_sq = np.array([v**2 for v in r.tolist()])  # float pow, not np.square
    cos_theta = np.cos(theta)
    step = max(1, STEERING_BLOCK // M)
    for j in range(0, len(r), step):
        cols = slice(j, j + step)
        r_m = _distances(delta_d, r_sq[cols], r[cols], cos_theta[cols])
        phase = np.mod(cfg.wavenumber * (r_m - r[cols]), 2.0 * np.pi)
        phase = phase.astype(np.float32)
        out.real[:, cols] = np.cos(phase)
        out.imag[:, cols] = np.sin(phase)
    return out


def synthesize_channel(cfg: ArrayConfig, paths: list[PathParams]) -> np.ndarray:
    """Multi-path channel h = sum_l g_l e^{j phi_l} b(theta_l, r_l)."""
    if not paths:
        raise ValueError("paths must be non-empty")
    h = np.zeros(cfg.num_antennas, dtype=complex)
    for p in paths:
        h += p.g * np.exp(1j * p.phi) * near_steering(cfg, p.theta, p.r)
    return h


def add_noise(h: np.ndarray, sigma2: float, seed) -> Measurement:
    """Add circularly-symmetric complex Gaussian noise of total power sigma2."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    h = np.asarray(h, dtype=complex)
    rng = np.random.default_rng(seed)
    if sigma2 == 0.0:
        return Measurement(y=h.copy(), noise_variance=0.0)
    scale = np.sqrt(sigma2 / 2.0)
    n = rng.normal(scale=scale, size=h.size) + 1j * rng.normal(scale=scale, size=h.size)
    return Measurement(y=h + n, noise_variance=sigma2)


def los_gain(wavelength: float, p_t: float, r: float) -> float:
    """Free-space line-of-sight gain magnitude, lambda*sqrt(p_t)/(4*pi*r)."""
    if r <= 0:
        raise ValueError("r must be > 0")
    if p_t <= 0:
        raise ValueError("p_t must be > 0")
    return wavelength * np.sqrt(p_t) / (4.0 * np.pi * r)
