"""Three-step joint architecture: per-BS estimation, fusion, LoS anchoring.

Step 1 runs the channel estimator independently at every BS, in one
lockstep call that shares one estimator config and the codebook scans.
Step 2 fuses the resulting soft positions. Step 3 reopens every gated BS on
step 1's path records, projections included, puts a record at the fused
position in place of the LoS one (the only new geometry), its (theta, r)
clamped into the annulus by the estimator's clamp_params, freezes it, and
cyclically re-refines the remaining paths; it returns bare path
parameters. The pipeline sees only the measurements: scoring against the
true channels is the harness's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arraymodel import Measurement, PathParams
from .estimator import (EstimatorConfig, Path, SoftEstimate, TraceHook,
                        clamp_params, cyclic_refine, vnnce)
from .estimator import residual  # noqa: F401 - rebound by bench/layertrace.py
from .localization import BsConfig, FusionReport, gfcl, is_front_side


@dataclass
class JointResult:
    step1: list[list[SoftEstimate]]
    step2: FusionReport
    step3: list[list[PathParams] | None]  # None where the BS was not anchored

    @property
    def anchored(self) -> list[bool]:
        return [s is not None for s in self.step3]


def run_joint(bs_configs: list[BsConfig], measurements: list[Measurement],
              num_paths: list[int], cfg: EstimatorConfig, zeta: float,
              trace: TraceHook | None = None) -> JointResult:
    """Estimate, localize and refine from the measurements alone."""
    if not len(bs_configs) == len(measurements) == len(num_paths):
        raise ValueError(
            f"per-BS lists differ in length: {len(bs_configs)} BS configs, "
            f"{len(measurements)} measurements, {len(num_paths)} path counts")
    step1 = vnnce(measurements, num_paths, cfg, trace)
    report = gfcl(step1, bs_configs, zeta)

    step3: list[list[PathParams] | None] = [None] * len(bs_configs)
    for i, (bs, cand) in enumerate(zip(bs_configs, report.candidates)):
        if not cand.consistent:
            continue
        theta_a, r_a = bs.polar(report.fused.mean)
        if not is_front_side(theta_a):
            continue
        theta_a, r_a = clamp_params(cfg.codebook.array, theta_a, r_a)
        paths = [Path(e.params, e.at) for e in step1[i]]
        paths[cand.path_index] = Path(replace(paths[cand.path_index].params,
                                              theta=theta_a, r=r_a))
        step3[i] = [p.params for p in cyclic_refine(
            cfg, measurements[i], paths, max(cfg.cyclic_rounds, 1), trace,
            frozen=cand.path_index)]
    return JointResult(step1=step1, step2=report, step3=step3)
