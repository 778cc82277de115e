"""Scenario ingestion, metrics, and the seeded Monte Carlo sweep.

SNR convention: the sweep's snr_db is the per-antenna received SNR
sum_l g_l^2 / sigma^2 at the strongest BS; every row also logs the actual
per-BS SNR. `Scenario.trial_rng` derives each trial's randomness from the
scenario seed with a counter-based SeedSequence spawn key (grid point,
trial), so parallel and serial runs are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arraymodel import (ArrayConfig, PathParams, add_noise, los_gain,
                         synthesize_channel)
from .codebook import (Codebook, CodebookConfig, _blas_thread_setter,
                       build_codebook)
from .estimator import EstimatorConfig
from .localization import BsConfig, polar_to_relative, relative_to_polar, is_front_side
from .pipeline import run_joint

SCHEMA_VERSION = 1

CSV_HEADER = ("snr_db,trial,bs,nmse_db,theta_rmse,r_rmse,single_rmse_m,"
              "fused_rmse_m,step3_nmse_db,snr_bs_db")


class ScenarioError(ValueError):
    """Raised for schema or geometry violations in a scenario file."""


@dataclass
class ScenarioBs:
    config: BsConfig
    nlos_paths: list[PathParams]  # fixed scatterers (phi NaN: drawn per trial)
    num_nlos: int  # random scatterers drawn per trial


@dataclass
class Scenario:
    array: ArrayConfig
    bss: list[ScenarioBs]
    user: tuple[float, float]
    sigma2: float
    p_t: float
    codebook_config: CodebookConfig
    num_paths: int | None  # estimator L'; default 1 + NLoS count per BS
    single_rounds: int
    cyclic_rounds: int
    zeta: float
    seed: int
    _codebook: Codebook | None = field(default=None, repr=False)

    @property
    def codebook(self) -> Codebook:
        if self._codebook is None:
            self._codebook = build_codebook(self.array, self.codebook_config)
        return self._codebook

    def estimator_config(self) -> EstimatorConfig:
        """The one estimator config every BS of a trial runs with."""
        return EstimatorConfig(codebook=self.codebook,
                               single_rounds=self.single_rounds,
                               cyclic_rounds=self.cyclic_rounds)

    def path_counts(self) -> list[int]:
        """Estimator L' per BS: num_paths, else 1 + that BS's NLoS count."""
        if self.num_paths is not None:
            return [self.num_paths] * len(self.bss)
        return [1 + len(bs.nlos_paths) + bs.num_nlos for bs in self.bss]

    def trial_rng(self, point_idx: int, trial: int) -> np.random.Generator:
        """The random stream of one trial (see the module docstring)."""
        return np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(point_idx, trial)))

    def los_geometry(self, bs: ScenarioBs) -> tuple[float, float]:
        """LoS (theta, r) of the user as seen from a BS."""
        rel = np.asarray(self.user) - np.asarray(bs.config.position)
        return relative_to_polar(rel[0], rel[1], bs.config.rotation)


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _number(value, name: str, kind=float):
    """A scenario field as a finite float (or int), else a ScenarioError
    naming the field."""
    try:
        out = kind(value)
        ok = math.isfinite(out)
    except (TypeError, ValueError, OverflowError):
        ok = False
    _require(ok, f"{name} must be a finite number, got {value!r}")
    return out


def _object(value, name: str, fields: tuple[str, ...]) -> dict:
    """A JSON object with no key outside `fields`, else a ScenarioError naming
    the object or the path of its first unknown key."""
    _require(isinstance(value, dict), f"{name} must be a JSON object, got {value!r}")
    prefix = "" if name == "scenario" else f"{name}."
    for key in value:
        if key not in fields:
            raise ScenarioError(f"unknown field {prefix}{key}; "
                                f"{name} takes {', '.join(fields)}")
    return value


def _point(value, name: str) -> tuple[float, float]:
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"{name} must be a pair [x, y], got {value!r}")
    return _number(value[0], f"{name}[0]"), _number(value[1], f"{name}[1]")


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario, filling defaults for omitted fields."""
    _object(data, "scenario", ("schema_version", "seed", "array", "user", "p_t",
                               "sigma2", "sigma2_dbm", "zeta", "codebook",
                               "estimator", "bss"))
    version = data.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version}")

    arr = _object(data.get("array", {}), "array",
                  ("num_antennas", "wavelength", "spacing"))
    _require("num_antennas" in arr, "array.num_antennas is required")
    _require("wavelength" in arr, "array.wavelength is required")
    num_antennas = _number(arr["num_antennas"], "array.num_antennas", int)
    wavelength = _number(arr["wavelength"], "array.wavelength")
    spacing = arr.get("spacing")
    if spacing is not None:
        spacing = _number(spacing, "array.spacing")
    try:
        array = ArrayConfig(num_antennas=num_antennas, wavelength=wavelength,
                            spacing=spacing)
    except ValueError as exc:
        raise ScenarioError(f"array: {exc}") from exc

    _require("sigma2" not in data or "sigma2_dbm" not in data,
             "scenario gives both sigma2 and sigma2_dbm; give one")
    if "sigma2" in data:
        sigma2 = _number(data["sigma2"], "sigma2")
    else:
        dbm = _number(data.get("sigma2_dbm", -110.0), "sigma2_dbm")
        try:
            sigma2 = 10.0 ** (dbm / 10.0)
        except OverflowError:
            raise ScenarioError(f"sigma2_dbm={dbm} overflows sigma2") from None
    _require(sigma2 >= 0, "sigma2 must be >= 0")

    cb = _object(data.get("codebook", {}), "codebook",
                 ("delta_alpha", "delta_beta", "cover_far_edge"))
    delta_alpha = _number(cb.get("delta_alpha", 0.5), "codebook.delta_alpha")
    delta_beta = _number(cb.get("delta_beta", 1.0), "codebook.delta_beta")
    cover_far_edge = cb.get("cover_far_edge", False)
    _require(isinstance(cover_far_edge, bool),
             f"codebook.cover_far_edge must be true or false, got {cover_far_edge!r}")
    try:
        cbcfg = CodebookConfig(delta_alpha=delta_alpha, delta_beta=delta_beta,
                               cover_far_edge=cover_far_edge)
    except ValueError as exc:
        raise ScenarioError(f"codebook: {exc}") from exc

    est = _object(data.get("estimator", {}), "estimator",
                  ("num_paths", "single_rounds", "cyclic_rounds"))
    single_rounds = _number(est.get("single_rounds", 5), "estimator.single_rounds", int)
    cyclic_rounds = _number(est.get("cyclic_rounds", 5), "estimator.cyclic_rounds", int)
    _require(min(single_rounds, cyclic_rounds) >= 0,
             "estimator round counts must be >= 0")
    num_paths = est.get("num_paths")
    if num_paths is not None:
        num_paths = _number(num_paths, "estimator.num_paths", int)
        _require(num_paths >= 1, "estimator.num_paths must be >= 1")

    bss_data = data.get("bss")
    if bss_data is None:
        bss_data = [{"position": [0.0, 0.0], "rotation": 0.0, "num_nlos": 1}]
    _require(isinstance(bss_data, list) and len(bss_data) >= 1,
             "at least one BS is required")

    bss: list[ScenarioBs] = []
    for i, b in enumerate(bss_data):
        _object(b, f"bss[{i}]", ("position", "rotation", "nlos", "num_nlos"))
        _require("nlos" not in b or "num_nlos" not in b,
                 f"bss[{i}] gives both nlos and num_nlos; give one")
        _require("position" in b or i == 0, f"bss[{i}].position is required")
        pos = _point(b.get("position", (0.0, 0.0)), f"bss[{i}].position")
        bs = BsConfig(position=pos, rotation=_number(b.get("rotation", 0.0),
                                                     f"bss[{i}].rotation"))
        nlos_paths = []
        nlos = b.get("nlos", [])
        _require(isinstance(nlos, list), f"bss[{i}].nlos must be a list")
        for j, p in enumerate(nlos):
            _object(p, f"bss[{i}].nlos[{j}]", ("theta", "r", "g", "phi"))
            phi = p.get("phi")  # omitted -> drawn uniformly per trial
            try:
                path = PathParams(
                    theta=_number(p["theta"], "theta"), r=_number(p["r"], "r"),
                    g=_number(p["g"], "g"),
                    phi=math.nan if phi is None else _number(phi, "phi"))
            except (KeyError, ValueError) as exc:
                raise ScenarioError(f"bss[{i}].nlos[{j}]: {exc}") from exc
            _require(array.min_near_distance < path.r <= array.rayleigh_distance,
                     f"bss[{i}].nlos[{j}]: r={path.r} outside near-field annulus "
                     f"({array.min_near_distance}, {array.rayleigh_distance}]")
            nlos_paths.append(path)
        # Without either key a BS gets one random scatterer.
        num_nlos = _number(b.get("num_nlos", 0 if "nlos" in b else 1),
                           f"bss[{i}].num_nlos", int)
        _require(num_nlos >= 0, f"bss[{i}].num_nlos must be >= 0")
        bss.append(ScenarioBs(config=bs, nlos_paths=nlos_paths, num_nlos=num_nlos))

    if "user" in data:
        user = _point(data["user"], "user")
    else:
        # Default: mid-annulus along the first BS's boresight.
        mid = (array.min_near_distance + array.rayleigh_distance) / 2.0
        bs0 = bss[0].config
        x, y = polar_to_relative(np.pi / 2, mid, bs0.rotation)
        user = (bs0.position[0] + x, bs0.position[1] + y)

    scenario = Scenario(array=array, bss=bss, user=user, sigma2=sigma2,
                        p_t=_number(data.get("p_t", 1.0), "p_t"),
                        codebook_config=cbcfg, num_paths=num_paths,
                        single_rounds=single_rounds, cyclic_rounds=cyclic_rounds,
                        zeta=_number(data.get("zeta", 3.5), "zeta"),
                        seed=_number(data.get("seed", 0), "seed", int))
    _require(scenario.p_t > 0, "p_t must be > 0")
    _require(scenario.zeta > 0, "zeta must be > 0")

    for i, bs in enumerate(bss):
        theta, r = scenario.los_geometry(bs)
        _require(is_front_side(theta),
                 f"bss[{i}]: user lies behind the array (theta={theta:.4f})")
        _require(array.min_near_distance < r <= array.rayleigh_distance,
                 f"bss[{i}]: LoS distance {r:.4f} m outside near-field annulus "
                 f"({array.min_near_distance:.4f}, {array.rayleigh_distance:.4f}]")
    return scenario


def load_scenario(path: str) -> Scenario:
    if not os.path.exists(path):
        raise FileNotFoundError(f"scenario file not found: {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data)


def to_db(value: float) -> float:
    """10*log10 with -inf sentinel at zero."""
    return -math.inf if value <= 0.0 else 10.0 * math.log10(value)


def nmse(h_true: np.ndarray, h_est: np.ndarray) -> float:
    """Normalized channel error ||h - h_est||^2 / ||h||^2."""
    h_true, h_est = np.asarray(h_true), np.asarray(h_est)
    if h_true.shape != h_est.shape:
        raise ValueError("length mismatch")
    denom = float(np.linalg.norm(h_true) ** 2)
    if denom == 0.0:
        raise ValueError("true channel is zero")
    return float(np.linalg.norm(h_true - h_est) ** 2 / denom)


def draw_paths(scenario: Scenario, rng: np.random.Generator
               ) -> list[list[PathParams]]:
    """Per-BS path lists: geometric LoS first, then the fixed NLoS, then the
    random ones."""
    arr = scenario.array
    out = []
    for bs in scenario.bss:
        theta, r = scenario.los_geometry(bs)
        g_los = los_gain(arr.wavelength, scenario.p_t, r)
        paths = [PathParams(theta=theta, r=r, g=g_los,
                            phi=rng.uniform(0.0, 2.0 * np.pi))]
        for p in bs.nlos_paths:
            phi = p.phi if math.isfinite(p.phi) else rng.uniform(0.0, 2.0 * np.pi)
            paths.append(PathParams(theta=p.theta, r=p.r, g=p.g, phi=phi))
        for _ in range(bs.num_nlos):
            paths.append(PathParams(
                theta=rng.uniform(1e-3, np.pi - 1e-3),
                r=rng.uniform(arr.min_near_distance, arr.rayleigh_distance),
                g=rng.uniform(0.0, g_los / 3.0),
                phi=rng.uniform(0.0, 2.0 * np.pi)))
        out.append(paths)
    return out


def run_trial(scenario: Scenario, snr_db: float | None, point_idx: int,
              trial: int, trace=None, return_joint: bool = False):
    """One Monte Carlo trial: synthesize, estimate, localize, refine, and
    score the step-1 and step-3 channels against the drawn ones.

    Returns one metrics row per BS. snr_db=None uses the scenario's sigma2.
    With return_joint=True, returns (rows, JointResult) instead.
    """
    rng = scenario.trial_rng(point_idx, trial)
    per_bs_paths = draw_paths(scenario, rng)
    powers = [sum(p.g**2 for p in paths) for paths in per_bs_paths]
    if snr_db is None:
        sigma2 = scenario.sigma2
    else:
        sigma2 = max(powers) / 10.0 ** (snr_db / 10.0)

    channels = [synthesize_channel(scenario.array, paths) for paths in per_bs_paths]
    measurements = [add_noise(ch, sigma2, rng) for ch in channels]
    result = run_joint([bs.config for bs in scenario.bss], measurements,
                       scenario.path_counts(), scenario.estimator_config(),
                       scenario.zeta, trace=trace)

    def channel_nmse_db(i: int, paths: list[PathParams]) -> float:
        return to_db(nmse(channels[i], synthesize_channel(scenario.array, paths)))

    user = np.asarray(scenario.user)
    fused_err = float(np.linalg.norm(result.step2.fused.mean - user))
    rows = []
    for i, (bs, cand) in enumerate(zip(scenario.bss, result.step2.candidates)):
        sel = result.step1[i][cand.path_index].params
        theta_t, r_t = scenario.los_geometry(bs)
        snr_bs = to_db(powers[i] / sigma2) if sigma2 > 0 else math.inf
        rows.append({
            "snr_db": snr_db if snr_db is not None else snr_bs,
            "trial": trial,
            "bs": i,
            "nmse_db": channel_nmse_db(i, [e.params for e in result.step1[i]]),
            "theta_rmse": abs(sel.theta - theta_t),
            "r_rmse": abs(sel.r - r_t),
            "single_rmse_m": float(np.linalg.norm(cand.position.mean - user)),
            "fused_rmse_m": fused_err,
            "step3_nmse_db": (math.nan if result.step3[i] is None
                              else channel_nmse_db(i, result.step3[i])),
            "snr_bs_db": snr_bs,
            "_point": point_idx,
        })
    if return_joint:
        return rows, result
    return rows


@dataclass
class SweepResult:
    rows: list[dict]

    def to_csv(self) -> str:
        cols = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in cols))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        if math.isinf(v):
            return "-inf" if v < 0 else "inf"
        return f"{v:.12g}"
    return str(v)


_SCENARIO: Scenario | None = None  # the sweep's scenario in a pool worker


def _init_worker(scenario: Scenario):
    global _SCENARIO
    _SCENARIO = scenario
    # One BLAS thread per worker: a forked worker inherits OpenBLAS's helper
    # thread, which spins on the CPU another worker needs.
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


def _sweep_task(task: tuple[float, int, int]) -> list[dict]:
    return run_trial(_SCENARIO, *task)


def sweep(scenario: Scenario, snr_grid_db: list[float], trials: int,
          threads: int = 1) -> SweepResult:
    """Monte Carlo sweep over an SNR grid; deterministic given scenario.seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not all(math.isfinite(snr) for snr in snr_grid_db):
        raise ValueError(f"every SNR must be a finite number of dB, got {snr_grid_db}")
    tasks = [(snr, pi, t) for pi, snr in enumerate(snr_grid_db) for t in range(trials)]
    # A fork pool starts all its workers at once: no more than there are
    # CPUs to run them (the affinity mask where the OS has one) and tasks.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, cpus, len(tasks))
    if workers > 1:
        # Build the codebook's steering matrix once, here:
        # the pool forks its workers, which inherit the scenario with the
        # matrix through the initializer, so the tasks carry only indices and
        # nothing large is pickled.
        scenario.codebook.steering_matrix
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(scenario,)) as pool:
            chunks = list(pool.map(_sweep_task, tasks))
    else:
        chunks = [run_trial(scenario, *t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["_point"], r["trial"], r["bs"]))
    return SweepResult(rows=rows)
