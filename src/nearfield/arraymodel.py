"""ULA geometry, near-field steering vectors, channel synthesis and noise.

All functions are pure; stochastic ones take an explicit seed or Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def aperture(self) -> float:
        return self.num_antennas * self.spacing

    @cached_property
    def rayleigh_distance(self) -> float:
        return 2.0 * self.aperture**2 / self.wavelength

    @cached_property
    def wavenumber(self) -> float:
        # 2*pi/wavelength; reproduces the pi*m*cos(theta) far-field phase
        # at half-wavelength spacing.
        return 2.0 * np.pi / self.wavelength

    @cached_property
    def min_near_distance(self) -> float:
        # Constant-amplitude model is only valid beyond 1.2 apertures.
        return 1.2 * self.aperture

    @cached_property
    def offsets(self) -> np.ndarray:
        """Read-only element coordinates delta_m d in meters, delta_m = (2m -
        M + 1)/2, symmetric about the array centre."""
        m = np.arange(self.num_antennas)
        out = (2.0 * m - self.num_antennas + 1.0) / 2.0 * self.spacing
        out.setflags(write=False)
        return out

    @cached_property
    def offsets_sq(self) -> np.ndarray:
        """Read-only squares of `offsets`."""
        out = self.offsets**2
        out.setflags(write=False)
        return out


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
    """Received snapshot y (length M) with its noise power sigma^2, both
    finite: a NaN or inf in either is refused here, not carried into an
    estimate."""

    y: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=complex))
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be finite and >= 0")
        if self.y.ndim != 1 or not np.isfinite(self.y).all():
            raise ValueError("y must be a finite 1-D complex vector")


STEERING_BLOCK = 1 << 14  # entries per block: 256 KiB complex temporaries
STEERING_DTYPE = np.dtype(np.complex64)  # near_steering_columns' entries
U32 = 2.0**-24  # float32 unit roundoff
# Largest |b~_m - b_m| of a near_steering_columns entry against near_steering's
# b_m: 2 pi u from rounding the reduced phase to float32 (the reduction
# x - 2 pi floor(x / 2 pi) may leave it up to 2^-53 |x| outside [0, 2 pi], which
# adds under 10^-8 u here); 2 ulp (2u) from each of float32 cos and sin, whose
# errors numpy (1.49 ulp) and libm (under 1 ulp) bound, so 2 sqrt(2) u for the
# pair; under 0.2u for the float64 phase, its reduction and near_steering's own
# rounding (while M d / wavelength stays below 10^7).
STEERING_ENTRY_ERROR = (2.0 * np.pi + 3.0) * U32


def element_distances(cfg: ArrayConfig, theta: float, r: float) -> np.ndarray:
    """Distance from each antenna to a source at (theta, r)."""
    return _distances(cfg.offsets, cfg.offsets_sq, r**2, r, math.cos(theta))


def _distances(delta_d, delta_d_sq, r_sq, r, cos_theta) -> np.ndarray:
    # The one expression behind every element distance: the law of cosines,
    # r_sq + delta_d^2 + 2 delta_d r cos(theta).
    return np.sqrt(delta_d * (2.0 * r) * cos_theta + (r_sq + delta_d_sq))


def distance_basis(cfg: ArrayConfig, theta: float, r: float,
                   r_m: np.ndarray) -> np.ndarray:
    """The rows every derivative of the element distances r_m at (theta, r)
    is built from, as a 7 x M array. With x = delta_m d, rho = x / r_m and
    q = x^2 / (r_m (r_m + r + x cos theta)), they are rho, q, x^2 / r_m^3,
    x^3 / r_m^3, rho^2, rho q and q^2.

    The first two rows give the first derivatives, dr_m/dtheta = -r sin
    theta rho and dr_m/dr - 1 = -sin^2 theta q; the next two the second,
    d2r_m/dtheta2 = -r cos theta rho - r^2 sin^2 theta x^2/r_m^3,
    d2r_m/dtheta dr = -sin theta (x^3/r_m^3 + r cos theta x^2/r_m^3) and
    d2r_m/dr2 = sin^2 theta x^2/r_m^3; the last three the products of the
    first two. Each row is a product or quotient, none a difference of
    nearly equal terms: the law of cosines gives (r + x cos theta)^2 = r_m^2
    - x^2 sin^2 theta, so dr_m/dr - 1 = -x^2 sin^2 theta / (r_m (r_m + r + x
    cos theta)), which near endfire and far from the array lies below the
    rounding error of dr_m/dr itself.
    """
    x, x_sq = cfg.offsets, cfg.offsets_sq
    out = np.empty((7, cfg.num_antennas))
    rho, q, x2_r3, x3_r3, _, _, q_sq = out
    np.divide(x, r_m, out=rho)
    np.multiply(x, math.cos(theta), out=q)
    q += r
    q += r_m
    q *= r_m
    np.divide(x_sq, q, out=q)
    np.multiply(out[:2], rho, out=out[4:6])  # rho^2, rho q
    np.multiply(q, q, out=q_sq)
    np.divide(out[4], r_m, out=x2_r3)
    np.multiply(out[4], rho, out=x3_r3)
    return out


def near_steering(cfg: ArrayConfig, theta: float, r: float) -> np.ndarray:
    """Spherical-wave steering vector, entries exp(j*k*(r_m - r))."""
    return distance_steering(cfg, element_distances(cfg, theta, r), r)


def distance_steering(cfg: ArrayConfig, r_m: np.ndarray, r: float,
                      conj: bool = False) -> np.ndarray:
    """near_steering from the element distances r_m of a source at distance
    r, or with `conj` its conjugate exp(-j*k*(r_m - r)), the same entries
    with the sign of their imaginary parts flipped."""
    k = cfg.wavenumber
    return np.exp((r_m - r) * (-1j * k if conj else 1j * k))


def near_steering_columns(cfg: ArrayConfig, theta: np.ndarray,
                          r: np.ndarray) -> np.ndarray:
    """M x N complex64 matrix whose column j is near_steering(cfg, theta[j],
    r[j]) within STEERING_ENTRY_ERROR per entry, filled STEERING_BLOCK
    entries at a time to keep temporaries small.

    The phase k(r_m - r) is near_steering's, in float64; it is reduced to
    about [0, 2 pi] there, and only then rounded to float32 for cos and sin.
    """
    out = np.empty((cfg.num_antennas, len(r)), dtype=STEERING_DTYPE)
    for cols, phase in _phase_blocks(cfg, np.cos(theta), r):
        phase -= 2.0 * np.pi * np.floor(phase / (2.0 * np.pi))  # 8x cheaper than np.mod
        phase = phase.astype(np.float32)
        out.real[:, cols] = np.cos(phase)
        out.imag[:, cols] = np.sin(phase)
    return out


def near_steering_blocks(cfg: ArrayConfig, theta: np.ndarray, r: np.ndarray):
    """Yield (cols, B) over slices `cols` of the codewords: B is the M x
    len(cols) complex128 matrix whose column j is near_steering(cfg,
    theta[j], r[j]) bit for bit, at most STEERING_BLOCK entries a block."""
    # math.cos, as element_distances takes it: np.cos may differ in the last bit.
    cos_theta = np.array([math.cos(t) for t in theta.tolist()])
    for cols, phase in _phase_blocks(cfg, cos_theta, r):
        yield cols, np.exp(1j * phase)


def _phase_blocks(cfg: ArrayConfig, cos_theta: np.ndarray, r: np.ndarray):
    # near_steering's phase k (r_m - r) for the columns at (cos_theta[j], r[j]),
    # STEERING_BLOCK entries at a time, as (cols, M x len(cols) float64).
    delta_d, delta_d_sq = cfg.offsets[:, None], cfg.offsets_sq[:, None]
    r_sq = np.array([v**2 for v in r.tolist()])  # float pow, not np.square
    step = max(1, STEERING_BLOCK // cfg.num_antennas)
    for j in range(0, len(r), step):
        cols = slice(j, j + step)
        r_m = _distances(delta_d, delta_d_sq, r_sq[cols], r[cols], cos_theta[cols])
        yield cols, cfg.wavenumber * (r_m - r[cols])


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
