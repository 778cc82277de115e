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
from contextlib import suppress
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


# The scenario schema: each object maps its fields, in the order errors list
# them, to (kind, default). A kind is int, float (finite), bool, POINT, an
# object's own table, or [item table] for a list of objects. REQUIRED fields
# have no default, and a default that is an object or a list is read as given.
REQUIRED = object()
POINT = (float, float)  # [x, y]
_NLOS = {"theta": (float, REQUIRED), "r": (float, REQUIRED),
         "g": (float, REQUIRED), "phi": (float, math.nan)}  # NaN: drawn per trial
_BS = {"position": (POINT, REQUIRED), "rotation": (float, 0.0),
       "nlos": ([_NLOS], None), "num_nlos": (int, None)}
SCHEMA = {
    "schema_version": (int, SCHEMA_VERSION),
    "seed": (int, 0),
    "array": ({"num_antennas": (int, REQUIRED), "wavelength": (float, REQUIRED),
               "spacing": (float, None)}, {}),
    "user": (POINT, None),  # unset: mid-annulus on BS 0's boresight
    "p_t": (float, 1.0),
    "sigma2": (float, None),
    "sigma2_dbm": (float, -110.0),
    "zeta": (float, 3.5),
    "codebook": ({"delta_alpha": (float, 0.5), "delta_beta": (float, 1.0),
                  "cover_far_edge": (bool, False)}, {}),
    "estimator": ({"num_paths": (int, None), "single_rounds": (int, 5),
                   "cyclic_rounds": (int, 5)}, {}),
    "bss": ([_BS], [{"position": [0.0, 0.0]}]),  # one BS at the origin
}
EXCLUSIVE = (("sigma2", "sigma2_dbm"), ("nlos", "num_nlos"))  # give at most one


def _read(value, path: str, kind):
    """`value` read as `kind`, with every omitted field's default filled in;
    a ScenarioError names the path of the first field that does not fit."""
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ScenarioError(f"{path} must be an integer, got {value!r}")
    if kind is float:
        with suppress(TypeError, OverflowError):  # not a number, or an int past float
            if not isinstance(value, bool) and math.isfinite(value):
                return float(value)
        raise ScenarioError(f"{path} must be a finite number, got {value!r}")
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ScenarioError(f"{path} must be true or false, got {value!r}")
    if kind is POINT:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ScenarioError(f"{path} must be a pair [x, y], got {value!r}")
        return tuple(_read(v, f"{path}[{i}]", float) for i, v in enumerate(value))
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioError(f"{path} must be a list, got {value!r}")
        return [_read(v, f"{path}[{i}]", kind[0]) for i, v in enumerate(value)]
    name, prefix = (path, f"{path}.") if path else ("scenario", "")
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be a JSON object, got {value!r}")
    for key in value:
        if key not in kind:
            raise ScenarioError(f"unknown field {prefix}{key}; "
                                f"{name} takes {', '.join(kind)}")
    for a, b in EXCLUSIVE:
        if a in value and b in value:
            raise ScenarioError(f"{name} gives both {a} and {b}; give one")
    out = {}
    for key, (sub, default) in kind.items():
        if key not in value and default is REQUIRED:
            raise ScenarioError(f"{prefix}{key} is required")
        if key in value or isinstance(default, (dict, list)):  # fill in its fields
            out[key] = _read(value.get(key, default), prefix + key, sub)
        else:
            out[key] = default
    return out


def _build(cls, path: str, fields: dict):
    """cls(**fields), its ValueError a ScenarioError naming the path."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from a dict of SCHEMA's fields."""
    d = _read(data, "", SCHEMA)
    est = d["estimator"]
    _require(d["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {d['schema_version']}")
    _require(min(est["single_rounds"], est["cyclic_rounds"]) >= 0,
             "estimator round counts must be >= 0")
    _require(est["num_paths"] is None or est["num_paths"] >= 1,
             "estimator.num_paths must be >= 1")
    _require(d["p_t"] > 0, "p_t must be > 0")
    _require(d["zeta"] > 0, "zeta must be > 0")
    _require(len(d["bss"]) >= 1, "at least one BS is required")
    array = _build(ArrayConfig, "array", d["array"])
    cbcfg = _build(CodebookConfig, "codebook", d["codebook"])
    try:
        sigma2 = (d["sigma2"] if d["sigma2"] is not None
                  else 10.0 ** (d["sigma2_dbm"] / 10.0))
    except OverflowError:
        raise ScenarioError(f"sigma2_dbm={d['sigma2_dbm']} overflows sigma2") from None
    _require(sigma2 >= 0, "sigma2 must be >= 0")
    bss: list[ScenarioBs] = []
    for i, b in enumerate(d["bss"]):
        nlos_paths = []
        for j, p in enumerate(b["nlos"] or []):
            path = _build(PathParams, f"bss[{i}].nlos[{j}]", p)
            _require(array.min_near_distance < path.r <= array.rayleigh_distance,
                     f"bss[{i}].nlos[{j}]: r={path.r} outside near-field annulus "
                     f"({array.min_near_distance}, {array.rayleigh_distance}]")
            nlos_paths.append(path)
        num_nlos = b["num_nlos"]
        if num_nlos is None:  # without either key a BS gets one random scatterer
            num_nlos = 1 if b["nlos"] is None else 0
        _require(num_nlos >= 0, f"bss[{i}].num_nlos must be >= 0")
        bs = BsConfig(position=b["position"], rotation=b["rotation"])
        bss.append(ScenarioBs(config=bs, nlos_paths=nlos_paths, num_nlos=num_nlos))
    user = d["user"]
    if user is None:  # mid-annulus along the first BS's boresight
        mid = (array.min_near_distance + array.rayleigh_distance) / 2.0
        bs0 = bss[0].config
        x, y = polar_to_relative(np.pi / 2, mid, bs0.rotation)
        user = (bs0.position[0] + x, bs0.position[1] + y)
    scenario = Scenario(array=array, bss=bss, user=user, sigma2=sigma2,
                        codebook_config=cbcfg, p_t=d["p_t"], zeta=d["zeta"],
                        seed=d["seed"], **est)
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
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:  # a directory, or unreadable
        raise ScenarioError(f"{path}: cannot read ({exc.strerror})") from exc
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
