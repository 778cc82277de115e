"""The two benchmark workloads and the checks on their outputs.

All workloads are closed loops in one main process that call the package
only through `harness.load_scenario`, `Scenario.codebook`,
`harness.run_trial` and `harness.sweep`. Trials are enumerated as
(grid point, trial) over the CLI's default SNR grid, round-robin over the
grid points, so every prefix of a run covers all SNRs evenly.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from nearfield import harness

import layertrace

SNR_GRID_DB = [0.0, 10.0, 20.0, 30.0]  # `nearfield sweep`'s default grid
SWEEP_TRIALS = 4        # trials per grid point in one sweep call: 16 tasks
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 200
SETUP_EVERY_S = 2.0     # one set-up repeat per this much of the timed phase
FUSED_OK_M = 0.01       # a trial localizes the user when fused error <= 1 cm
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10        # samples the tail percentile must leave above it


@dataclass(frozen=True)
class Workload:
    scenario: str
    parallel: bool
    # Trials always timed (serial) or trial samples always collected (sweep);
    # the run keeps going past --seconds until it has them. The quality
    # metrics use exactly this prefix, so they do not depend on run time.
    min_trials: int


WORKLOADS = {
    "desk_serial": Workload("scenarios/tab2_desk.json", False, 100),
    "paper_sweep_parallel": Workload("scenarios/tab2_paper.json", True,
                                     5 * SWEEP_TRIALS * len(SNR_GRID_DB)),
}


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(math.ceil(round(pct * n / 100.0, 9)), 1)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples above it."""
    for pct in TAIL_LADDER:
        if n - rank(n, pct) >= TAIL_BEYOND:
            return pct
    raise ValueError(f"{n} samples are too few for a tail percentile")


def nearest_rank(samples: list[float], pct: float) -> float:
    return sorted(samples)[rank(len(samples), pct) - 1]


def cpu_s() -> tuple[float, float]:
    """CPU seconds (user + system) of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Larger of this process's and its largest reaped child's max RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Outcome:
    """What one phase of a run measured and which of its trials failed."""

    attempted: int = 0
    failed: int = 0
    trial_s: list[float] = field(default_factory=list)
    rows: list[list[dict]] = field(default_factory=list)  # quality prefix only
    wall_s: float = 0.0
    cpu_own_s: float = 0.0
    cpu_children_s: float = 0.0
    peak_rss_mib: float = 0.0
    sweeps: int = 0
    sweep_s: list[float] = field(default_factory=list)  # wall time of each sweep
    queue_bytes: int = 0   # bytes the main process pickled into the pool's queue
    chunks: int = 0        # scenario copies the workers unpickled

    def fail(self, what: str, count: int = 1):
        self.failed += count
        print(f"FAILED: {what}", file=sys.stderr)


def check_rows(rows, n_bs: int) -> str | None:
    """Why a trial's rows are wrong, or None: one finite row per BS."""
    if sorted(r["bs"] for r in rows) != list(range(n_bs)):
        return f"expected one row per BS 0..{n_bs - 1}, got {len(rows)} rows"
    for r in rows:
        for key in ("nmse_db", "fused_rmse_m"):
            if not math.isfinite(r[key]):
                return f"bs {r['bs']}: {key} = {r[key]}"
    return None


def load(root: Path, workload: Workload, seed: int) -> harness.Scenario:
    scenario = harness.load_scenario(str(root / workload.scenario))
    scenario.seed = seed  # as the CLI's --seed does
    return scenario


class Setup:
    """Set-up times: a batch before the timed phase, then repeats spread over it.

    Serial workloads build the codebook and its steering matrix here, so no
    lazy build leaks into the first timed trial. For the sweep this is the
    parent's share, the load and the codeword list that `harness.sweep`
    builds before its pool starts; the timed sweeps still get freshly loaded
    scenarios. The parent never builds the steering matrix, which would be
    pickled into every task.

    The host's speed drifts by 15-30 % over a minute or two, so a batch
    taken only before the timed phase samples one moment of it: on
    `desk_serial` its median spread 40 % from run to run. `catch_up`,
    called between trials or sweeps, repeats set-up once per SETUP_EVERY_S
    of the timed phase, so the median samples the whole run, as
    `trial_ms_p50` does. Its CPU time is kept apart from the trials'.
    """

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.args = (root, workload, seed)
        self.times: list[float] = []
        self.catch_up_cpu_s = 0.0
        while (len(self.times) < SETUP_MIN_REPEATS or sum(self.times) < SETUP_MIN_S) \
                and len(self.times) < SETUP_MAX_REPEATS:
            self.scenario = self.once()
        self.due = perf_counter() + SETUP_EVERY_S

    def once(self) -> harness.Scenario:
        root, workload, seed = self.args
        t0 = perf_counter()
        scenario = load(root, workload, seed)
        codebook = scenario.codebook
        if not workload.parallel:
            codebook.steering_matrix
        self.times.append(perf_counter() - t0)
        return scenario

    def catch_up(self):
        cpu0 = cpu_s()[0]
        while perf_counter() >= self.due:
            self.once()
            self.due += SETUP_EVERY_S
        self.catch_up_cpu_s += cpu_s()[0] - cpu0

    def median_s(self) -> float:
        return statistics.median(self.times)


def serial_phase(scenario: harness.Scenario, seconds: float, min_trials: int,
                 setup: Setup | None) -> Outcome:
    """Call run_trial back to back until both limits are met."""
    out = Outcome()
    n_bs = len(scenario.bss)
    cpu0 = cpu_s()
    deadline = perf_counter() + seconds
    n = 0
    while n < min_trials or perf_counter() < deadline:
        if setup is not None:
            setup.catch_up()
        trial, point = divmod(n, len(SNR_GRID_DB))
        n += 1
        out.attempted += 1
        t0 = perf_counter()
        try:
            rows = harness.run_trial(scenario, SNR_GRID_DB[point], point, trial)
        except Exception:
            out.wall_s += perf_counter() - t0
            traceback.print_exc()
            out.fail(f"trial (point {point}, trial {trial}) raised")
            continue
        out.trial_s.append(perf_counter() - t0)
        out.wall_s += out.trial_s[-1]
        problem = check_rows(rows, n_bs)
        if problem:
            out.fail(f"trial (point {point}, trial {trial}): {problem}")
        elif n <= min_trials:
            out.rows.append(rows)
    finish(out, cpu0, setup)
    return out


def finish(out: Outcome, cpu0: tuple[float, float], setup: Setup | None):
    """Record a phase's CPU time, less its set-up repeats, and the peak memory so far."""
    cpu1 = cpu_s()
    out.cpu_own_s, out.cpu_children_s = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    if setup is not None:
        out.cpu_own_s -= setup.catch_up_cpu_s
    out.peak_rss_mib = peak_rss_mib()


def sweep_seed(seed: int, index: int) -> int:
    """Scenario seed of the index-th sweep in a run, so sweeps differ."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sweep_phase(root: Path, workload: Workload, seed: int, seconds: float,
                min_trials: int, workers: int, setup: Setup | None) -> tuple[Outcome, str]:
    """Repeat `nearfield sweep`-sized sweeps, each on a freshly loaded scenario.

    Returns the outcome and the first sweep's CSV.
    """
    out = Outcome()
    first_csv = ""
    tasks = SWEEP_TRIALS * len(SNR_GRID_DB)
    cpu0 = cpu_s()
    deadline = perf_counter() + seconds
    # Past the minimum, start a sweep only if half of a typical one fits
    # before the deadline, so a run overshoots --seconds by half a sweep at most.
    while out.sweeps * tasks < min_trials or \
            perf_counter() + statistics.median(out.sweep_s or [0.0]) / 2 < deadline:
        if setup is not None:
            setup.catch_up()
        scenario = load(root, workload, sweep_seed(seed, out.sweeps))
        out.sweeps += 1
        out.attempted += tasks
        t0 = perf_counter()
        try:
            result = harness.sweep(scenario, SNR_GRID_DB, SWEEP_TRIALS, threads=workers)
        except Exception:
            traceback.print_exc()
            out.fail(f"sweep {out.sweeps - 1} raised", tasks)
            continue
        out.sweep_s.append(perf_counter() - t0)
        out.wall_s += out.sweep_s[-1]
        if out.sweeps == 1:
            first_csv = result.to_csv()
        by_trial: dict[tuple[int, int], list[dict]] = {}
        for row in result.rows:
            by_trial.setdefault((row["_point"], row["trial"]), []).append(row)
        for point in range(len(SNR_GRID_DB)):
            for trial in range(SWEEP_TRIALS):
                rows = by_trial.get((point, trial), [])
                problem = check_rows(rows, len(scenario.bss))
                if problem:
                    out.fail(f"sweep {out.sweeps - 1} (point {point}, trial {trial}): "
                             f"{problem}")
                elif out.sweeps * tasks <= min_trials:
                    out.rows.append(rows)
    finish(out, cpu0, setup)
    return out, first_csv


def check_sweep_determinism(root: Path, workload: Workload, seed: int,
                            parallel_csv: str, out: Outcome):
    """Criterion 10: a serial run of the first sweep's tasks gives the same bytes.

    Runs after the timed phase, so neither its time nor its memory is measured.
    """
    if not parallel_csv:
        return  # the first sweep raised, which is already counted
    scenario = load(root, workload, sweep_seed(seed, 0))
    serial_csv = harness.sweep(scenario, SNR_GRID_DB, SWEEP_TRIALS, threads=1).to_csv()
    if serial_csv == parallel_csv:
        return
    serial, parallel = serial_csv.splitlines(), parallel_csv.splitlines()
    if len(serial) != len(parallel):
        bad = SWEEP_TRIALS * len(SNR_GRID_DB)
    else:  # a CSV row starts "snr_db,trial,": count trials with a differing row
        bad = len({tuple(a.split(",", 2)[:2]) for a, b in zip(serial, parallel) if a != b})
    out.fail(f"parallel sweep CSV differs from the serial run in {bad} trial(s)", bad)


def quality(rows_by_trial: list[list[dict]]) -> dict[str, float]:
    """Quality over the fixed trial prefix; deterministic for a given seed."""
    rows = [r for rows in rows_by_trial for r in rows]
    step3 = [r["step3_nmse_db"] for r in rows if math.isfinite(r["step3_nmse_db"])]
    return {
        "neg_nmse_step1_db_mean": -statistics.fmean(r["nmse_db"] for r in rows),
        "neg_nmse_step3_db_mean": -statistics.fmean(step3),
    }


def fused_ok_frac(rows_by_trial: list[list[dict]]) -> float:
    """Share of the prefix's trials whose fused position error is at most 1 cm.

    A fact, not a gated metric: on tab2_paper a trial's fused error is either
    under 1 cm or tens of metres and about one trial in three succeeds, so
    over the 80-100 trials a run affords the rate spreads by 10-40 % from
    seed to seed.
    """
    return sum(rows[0]["fused_rmse_m"] <= FUSED_OK_M
               for rows in rows_by_trial) / len(rows_by_trial)


def end_to_end(setup_s: float, out: Outcome, trials_done: int, tail_pct: float) -> dict:
    return {
        "setup_s": setup_s,
        "trial_ms_p50": statistics.median(out.trial_s) * 1e3,
        "trial_ms_tail": nearest_rank(out.trial_s, tail_pct) * 1e3,
        "trials_per_s": trials_done / out.wall_s,
        "cpu_s_per_trial": (out.cpu_own_s + out.cpu_children_s) / trials_done,
        "peak_rss_mb": out.peak_rss_mib,
        **quality(out.rows),
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(root: Path, name: str, seed: int, seconds: float, trace: bool,
        outdir: Path) -> tuple[dict, dict, Outcome, list[str]]:
    """Run one workload; returns (metrics, facts, outcome, self-check problems)."""
    workload = WORKLOADS[name]
    workers = len(os.sched_getaffinity(0)) if workload.parallel else 1
    tail_pct = tail_percentile(workload.min_trials)
    facts = {"tail_percentile": tail_pct, "workers": workers}
    if not trace:
        setup = Setup(root, workload, seed)
        out, csv = timed_phase(root, workload, seed, seconds, workload.min_trials,
                               workers, setup.scenario,
                               timing_tracer(workload, outdir / "timing"), setup)
        if workload.parallel:
            check_sweep_determinism(root, workload, seed, csv, out)
        facts["trial_samples"] = len(out.trial_s)
        facts["fused_ok_frac"] = fused_ok_frac(out.rows)
        if workload.parallel:
            facts["sweep_s"] = out.sweep_s
        facts["setup_repeats"] = len(setup.times)
        metrics = end_to_end(setup.median_s(), out, out.attempted - out.failed, tail_pct)
        return metrics, facts, out, []

    # Traced run: set-up under the tracer, then an untraced phase and a
    # traced phase of equal length; their ratio is the tracing overhead.
    tracer = layertrace.Tracer(fresh_dir(outdir / "setup"), full=True)
    tracer.install()
    try:
        scenario = Setup(root, workload, seed).scenario
    finally:
        tracer.uninstall()
        tracer.flush()
    setup_spans = layertrace.load_spans(tracer.outdir)
    half = seconds / 2.0
    min_trials = SWEEP_TRIALS * len(SNR_GRID_DB) if workload.parallel else len(SNR_GRID_DB)
    plain, csv = timed_phase(root, workload, seed, half, min_trials, workers, scenario,
                             timing_tracer(workload, outdir / "untraced"))
    tracer = layertrace.Tracer(fresh_dir(outdir / "traced"), full=True)
    traced, _ = timed_phase(root, workload, seed, half, min_trials, workers, scenario,
                            tracer)
    stats = layertrace.TrialStats(setup_spans + layertrace.load_spans(tracer.outdir))
    if workload.parallel:
        check_sweep_determinism(root, workload, seed, csv, plain)
        trials = plain.attempted - plain.failed
        pool = {
            "harness.task_bytes": plain.queue_bytes / trials,
            "harness.chunks": plain.chunks / plain.sweeps,
            "harness.worker_cpu_s_per_trial": plain.cpu_children_s / trials,
            "harness.worker_busy_frac": plain.cpu_children_s / (plain.wall_s * workers),
        }
    else:
        pool = {"harness.task_bytes": 0.0, "harness.chunks": 0.0,
                "harness.worker_cpu_s_per_trial": 0.0, "harness.worker_busy_frac": 0.0}
    overhead = statistics.median(traced.trial_s) / statistics.median(plain.trial_s) - 1.0
    metrics = layertrace.layer_metrics(stats, pool, overhead)
    out = Outcome(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed)
    facts["traced_trials"] = len(stats.trials)
    return metrics, facts, out, stats.self_check()


def timing_tracer(workload: Workload, phase_dir: Path) -> layertrace.Tracer | None:
    """The sweep's per-trial clock: a tracer that wraps only run_trial.

    Its spans, written by the forked workers, are the only view of per-trial
    times inside the pool. Serial trials are timed by the loop instead.
    """
    return layertrace.Tracer(fresh_dir(phase_dir), full=False) if workload.parallel else None


def timed_phase(root: Path, workload: Workload, seed: int, seconds: float,
                min_trials: int, workers: int, scenario: harness.Scenario,
                tracer: layertrace.Tracer | None,
                setup: Setup | None = None) -> tuple[Outcome, str]:
    """One timed phase; returns its outcome and, for the sweep, the first CSV.

    With `setup`, set-up is repeated between the phase's trials or sweeps.
    """
    if tracer is not None:
        tracer.install()
    try:
        if workload.parallel:
            out, csv = sweep_phase(root, workload, seed, seconds, min_trials, workers,
                                   setup)
        else:
            out, csv = serial_phase(scenario, seconds, min_trials, setup), ""
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.flush()
    if workload.parallel:
        stats = layertrace.TrialStats(layertrace.load_spans(tracer.outdir))
        out.trial_s = stats.durations.get("harness.run_trial", [])
        out.chunks = sum(a["new_copy"] for a in stats.attrs.get("harness.run_trial", []))
        out.queue_bytes = tracer.queue_bytes
    return out, csv
