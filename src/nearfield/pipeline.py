"""Three-step joint architecture: per-BS estimation, fusion, LoS anchoring.

Step 1 runs the channel estimator independently at every BS, in one
lockstep call that shares one estimator config and the codebook scans.
Step 2 fuses the resulting soft positions. Step 3 rebuilds the LoS geometry
of every gated BS from the fused position, freezes it, and cyclically
re-refines the remaining paths; it returns bare path parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arraymodel import Measurement, PathParams, synthesize_channel
from .estimator import (EstimatorConfig, SoftEstimate, TraceHook, cyclic_refine,
                        vnnce)
from .estimator import residual  # noqa: F401 - rebound by bench/layertrace.py
from .localization import (BsConfig, FusionReport, gfcl, is_front_side,
                           relative_to_polar)


@dataclass
class JointResult:
    step1: list[list[SoftEstimate]]
    step2: FusionReport
    step3: list[list[PathParams] | None]
    nmse_step1: list[float]
    nmse_step3: list[float | None]
    anchored: list[bool]


def nmse(h_true: np.ndarray, h_est: np.ndarray) -> float:
    """Normalized channel error ||h - h_est||^2 / ||h||^2."""
    h_true = np.asarray(h_true)
    h_est = np.asarray(h_est)
    if h_true.shape != h_est.shape:
        raise ValueError("length mismatch")
    denom = float(np.linalg.norm(h_true) ** 2)
    if denom == 0.0:
        raise ValueError("true channel is zero")
    return float(np.linalg.norm(h_true - h_est) ** 2 / denom)


def run_joint(bs_configs: list[BsConfig], measurements: list[Measurement],
              num_paths: list[int], cfg: EstimatorConfig, zeta: float,
              true_channels: list[np.ndarray],
              trace: TraceHook | None = None) -> JointResult:
    """Run estimation, cooperative localization, and channel refinement,
    scoring both channel estimates against the true channels."""
    if not (len(bs_configs) == len(measurements) == len(num_paths)
            == len(true_channels)):
        raise ValueError(
            f"per-BS lists differ in length: {len(bs_configs)} BS configs, "
            f"{len(measurements)} measurements, {len(num_paths)} path "
            f"counts, {len(true_channels)} true channels")
    array = cfg.codebook.array
    step1 = vnnce(measurements, num_paths, cfg, trace)
    report = gfcl(step1, bs_configs, zeta)

    def channel_nmse(i: int, paths: list[PathParams]) -> float:
        return nmse(true_channels[i], synthesize_channel(array, paths))

    nmse1 = [channel_nmse(i, [e.params for e in ests])
             for i, ests in enumerate(step1)]

    step3: list[list[PathParams] | None] = [None] * len(bs_configs)
    nmse3: list[float | None] = [None] * len(bs_configs)
    anchored = [False] * len(bs_configs)
    by_bs = {c.bs_index: c for c in report.candidates}
    for i, bs in enumerate(bs_configs):
        cand = by_bs.get(i)
        if cand is None or not cand.consistent:
            continue
        rel = report.fused.mean - np.asarray(bs.position)
        theta_a, r_a = relative_to_polar(rel[0], rel[1], bs.rotation)
        if not is_front_side(theta_a):
            continue
        r_a = float(np.clip(r_a, array.min_near_distance, array.rayleigh_distance))
        step3[i] = cyclic_refine(cfg, measurements[i],
                                 [e.params for e in step1[i]],
                                 max(cfg.cyclic_rounds, 1), trace,
                                 frozen={cand.path_index: (theta_a, r_a)})
        anchored[i] = True
        nmse3[i] = channel_nmse(i, step3[i])
    return JointResult(step1=step1, step2=report, step3=step3,
                       nmse_step1=nmse1, nmse_step3=nmse3, anchored=anchored)
