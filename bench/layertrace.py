"""Layer spans for the nearfield benchmark, recorded from outside the package.

A Tracer rebinds module attributes of `nearfield` at every place a caller
looks a layer entry point up, so the package itself is unchanged. Each span
is `[id, parent id, trial key, name, start, end, attrs]`. Spans stay in
memory and go to `spans-<pid>.jsonl` in the tracer's directory: the main
process writes its spans when the phase ends; a pool worker, which has no
end-of-run hook, appends its spans after each trial. ProcessPoolExecutor
forks its workers on Linux, so wrappers installed before a sweep are
inherited by the workers.

With `full=False` only `harness.run_trial` and the pool's task pickling are
wrapped: that is how the untraced sweep gets per-trial times from its
workers.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.queues
import os
import statistics
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from nearfield import codebook, estimator, harness, localization, pipeline


class _Seen:
    """Identity set for unhashable objects, such as dataclass instances.

    A pickled copy in a worker is a new object, so it counts as unseen.
    """

    def __init__(self):
        self._refs: dict[int, weakref.ref] = {}

    def add(self, obj) -> bool:
        """Return True the first time `obj` itself is added."""
        ref = self._refs.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._refs[id(obj)] = weakref.ref(obj)
        return True


class Tracer:
    """Installs span-recording wrappers on the package's layer entry points."""

    def __init__(self, outdir: Path, full: bool):
        self.outdir = outdir
        self.full = full
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.process = str(self.pid)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.trials = 0
        self.label = "setup"
        self.queue_bytes = 0
        self._scenarios = _Seen()
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> list:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return [sid, parent, self.label, name, perf_counter(), None, None]

    def _close(self, rec: list, attrs: dict | None = None):
        rec[5] = perf_counter()
        rec[6] = attrs
        self.stack.pop()
        self.spans.append(rec)

    def flush(self):
        """Append this process's spans to its file and drop them from memory."""
        if not self.spans:
            return
        path = self.outdir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in self.spans)
        self.spans.clear()

    # -- installing wrappers ------------------------------------------------

    def _rebind(self, owner, attr: str, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span(self, owner, attr: str, name: str, attrs_of=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            attrs = None
            try:
                out = orig(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(out)
                return out
            finally:
                tracer._close(rec, attrs)

        self._rebind(owner, attr, wrapper)

    def install(self):
        self._install_trial()
        self._install_queue_counter()
        if not self.full:
            return
        self._span(harness, "load_scenario", "harness.load_scenario")
        self._span(harness, "build_codebook", "codebook.build",
                   lambda cb: {"codewords": len(cb),
                               "antennas": cb.array.num_antennas})
        self._install_steering_build()
        self._span(harness, "run_joint", "pipeline.run_joint",
                   lambda res: {"anchored": sum(res.anchored),
                                "bss": len(res.anchored),
                                "paths": sum(len(s) for s in res.step1)})
        self._span(harness, "synthesize_channel", "arraymodel.synthesize_channel")
        self._span(pipeline, "vnnce", "estimator.vnnce")
        self._span(pipeline, "gfcl", "localization.gfcl",
                   lambda rep: {"consistent": sum(c.consistent for c in rep.candidates),
                                "candidates": len(rep.candidates)})
        self._span(estimator, "omp_detect", "estimator.omp_detect")
        self._span(estimator, "newton_refine_once", "estimator.newton_refine_once")
        for module in (estimator, pipeline, localization):
            self._span(module, "residual", "estimator.residual")
        self._span(estimator, "near_steering", "arraymodel.near_steering")

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _install_trial(self):
        orig = harness.run_trial
        tracer = self

        @functools.wraps(orig)
        def run_trial(scenario, *args, **kwargs):
            new_copy = False
            if os.getpid() != tracer.pid:  # first trial in a forked worker
                tracer.pid = os.getpid()
                tracer.process = f"{tracer.pid}.{time.time_ns()}"  # pids recycle
                tracer.spans.clear()
                tracer.stack.clear()
            if tracer.pid != tracer.main_pid:
                new_copy = tracer._scenarios.add(scenario)
            tracer.trials += 1
            tracer.label = f"{tracer.process}:{tracer.trials}"
            hook_counts = [0, 0]
            if tracer.full and len(args) < 4 and kwargs.get("trace") is None:
                def hook(*hook_args, **hook_kwargs):
                    hook_counts[0] += 1
                    accepted = hook_kwargs.get(
                        "accepted", hook_args[8] if len(hook_args) > 8 else False)
                    hook_counts[1] += bool(accepted)
                kwargs["trace"] = hook
            rec = tracer._open("harness.run_trial")
            try:
                return orig(scenario, *args, **kwargs)
            finally:
                tracer._close(rec, {"hook": hook_counts[0],
                                    "accepted": hook_counts[1],
                                    "new_copy": new_copy})
                tracer.label = "setup"
                if tracer.pid != tracer.main_pid:
                    tracer.flush()

        self._rebind(harness, "run_trial", run_trial)

    def _install_steering_build(self):
        prop = codebook.Codebook.__dict__["steering_matrix"]
        tracer = self

        def steering_matrix(cb):
            # The matrix is built lazily and cached on the codebook object, so
            # an access that changes the object's state is a build.
            before = dict(vars(cb))
            rec = tracer._open("codebook.steering_build")
            try:
                return prop.fget(cb)
            finally:
                after = vars(cb)
                if after.keys() != before.keys() or any(
                        after[k] is not v for k, v in before.items()):
                    tracer._close(rec)
                else:
                    tracer.stack.pop()  # a cache hit records no span

        self._rebind(codebook.Codebook, "steering_matrix",
                     property(steering_matrix, doc=prop.__doc__))

    def _install_queue_counter(self):
        base = multiprocessing.queues._ForkingPickler
        tracer = self

        class CountingPickler(base):
            """Counts the bytes the main process pickles into pool queues."""

            @classmethod
            def dumps(cls, obj, protocol=None):
                buf = base.dumps(obj, protocol)
                if os.getpid() == tracer.main_pid:
                    tracer.queue_bytes += len(buf)
                return buf

        self._rebind(multiprocessing.queues, "_ForkingPickler", CountingPickler)


# -- reading spans back -----------------------------------------------------

def load_spans(outdir: Path) -> list[tuple[str, list]]:
    """All spans under outdir, each with the file it came from."""
    out = []
    for path in sorted(outdir.glob("spans-*.jsonl")):
        with open(path) as fh:
            out.extend((str(path), json.loads(line)) for line in fh)
    return out


class TrialStats:
    """Per-trial span counts, times and self times, keyed by span name."""

    def __init__(self, spans: list[tuple[str, list]]):
        # Span ids are unique per tracer and process; a span's children share
        # its file and trial label.
        child_s: Counter = Counter()
        for source, (sid, parent, label, name, t0, t1, attrs) in spans:
            if parent is not None:
                child_s[(source, label, parent)] += t1 - t0
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        self.count: dict[str, Counter] = defaultdict(Counter)
        self.time: dict[str, Counter] = defaultdict(Counter)
        self.self_time: dict[str, Counter] = defaultdict(Counter)
        self.trial_attrs: dict[str, dict[str, dict]] = defaultdict(dict)
        for source, (sid, parent, label, name, t0, t1, attrs) in spans:
            dur = t1 - t0
            self.durations[name].append(dur)
            if attrs is not None:
                self.attrs[name].append(attrs)
                self.trial_attrs[label][name] = attrs
            self.count[label][name] += 1
            self.time[label][name] += dur
            self.self_time[label][name] += dur - child_s[(source, label, sid)]
        self.trials = [label for label, names in self.count.items()
                       if names["harness.run_trial"] == 1]

    def median_per_trial(self, table: dict[str, Counter], name: str,
                         scale: float = 1.0) -> float:
        values = [table[t][name] for t in self.trials]
        return statistics.median(values) * scale if values else math.nan

    def median_call(self, name: str, scale: float) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * scale if values else math.nan

    def attr_ratio(self, name: str, num: str, den: str) -> float:
        recs = self.attrs.get(name, [])
        total = sum(r[den] for r in recs)
        return sum(r[num] for r in recs) / total if total else math.nan

    def self_check(self) -> list[str]:
        """Mismatches between the wrappers' counts and the package's own.

        Every guarded Newton step calls the public trace hook once, and every
        estimated path is one `omp_detect` call, so both pairs match in each
        trial when the rebinding caught every call path, step 3's included.
        """
        if not self.trials:
            return ["no traced trial completed"]
        problems = []
        for t in self.trials:
            newton = self.count[t]["estimator.newton_refine_once"]
            hooks = self.trial_attrs[t]["harness.run_trial"]["hook"]
            if newton != hooks:
                problems.append(f"trial {t}: {newton} newton_refine_once calls "
                                f"but {hooks} trace callbacks")
            detect = self.count[t]["estimator.omp_detect"]
            paths = self.trial_attrs[t].get("pipeline.run_joint", {}).get("paths")
            if detect != paths:
                problems.append(f"trial {t}: {detect} omp_detect calls "
                                f"but {paths} estimated paths")
        return problems


def layer_metrics(stats: TrialStats, pool: dict, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from one traced phase.

    `pool` carries the sweep-only figures measured outside the spans
    (zeros for a serial workload, which never starts a pool).
    """
    builds = stats.attrs.get("codebook.build", [])
    codewords = builds[-1]["codewords"] if builds else math.nan
    antennas = builds[-1]["antennas"] if builds else math.nan
    n_trials = len(stats.trials)
    trial_builds = sum(stats.count[t]["codebook.steering_build"] for t in stats.trials)
    detect_calls = stats.median_per_trial(stats.count, "estimator.omp_detect")
    hooks = stats.attrs.get("harness.run_trial", [])
    hook_calls = sum(a["hook"] for a in hooks)
    step3 = [stats.time[t]["pipeline.run_joint"] - stats.time[t]["estimator.vnnce"]
             - stats.time[t]["localization.gfcl"] for t in stats.trials]
    trial_self = [stats.time[t]["harness.run_trial"] - stats.time[t]["pipeline.run_joint"]
                  for t in stats.trials]
    return {
        "codebook.build_ms": stats.median_call("codebook.build", 1e3),
        "codebook.steering_ms": stats.median_call("codebook.steering_build", 1e3),
        "codebook.codewords": codewords,
        "codebook.steering_mb": antennas * codewords * 16 / 2**20,
        "codebook.steering_builds": trial_builds / n_trials if n_trials else math.nan,
        "estimator.detect_calls_per_trial": detect_calls,
        "estimator.detect_ms": stats.median_call("estimator.omp_detect", 1e3),
        "estimator.detect_codewords_per_trial": detect_calls * codewords,
        "estimator.newton_calls_per_trial":
            stats.median_per_trial(stats.count, "estimator.newton_refine_once"),
        "estimator.newton_us": stats.median_call("estimator.newton_refine_once", 1e6),
        "estimator.newton_accepted_frac":
            sum(a["accepted"] for a in hooks) / hook_calls if hook_calls else math.nan,
        "estimator.vnnce_ms": stats.median_call("estimator.vnnce", 1e3),
        "estimator.vnnce_self_ms_per_trial":
            stats.median_per_trial(stats.self_time, "estimator.vnnce", 1e3),
        "estimator.residual_calls_per_trial":
            stats.median_per_trial(stats.count, "estimator.residual"),
        "estimator.residual_ms_per_trial":
            stats.median_per_trial(stats.time, "estimator.residual", 1e3),
        "arraymodel.steering_calls_per_trial":
            stats.median_per_trial(stats.count, "arraymodel.near_steering"),
        "arraymodel.synth_ms_per_trial":
            stats.median_per_trial(stats.time, "arraymodel.synthesize_channel", 1e3),
        "localization.gfcl_ms": stats.median_call("localization.gfcl", 1e3),
        "localization.consistent_frac":
            stats.attr_ratio("localization.gfcl", "consistent", "candidates"),
        "pipeline.run_joint_ms": stats.median_call("pipeline.run_joint", 1e3),
        "pipeline.step3_self_ms_per_trial":
            statistics.median(step3) * 1e3 if step3 else math.nan,
        "pipeline.anchored_frac": stats.attr_ratio("pipeline.run_joint", "anchored", "bss"),
        "harness.load_ms": stats.median_call("harness.load_scenario", 1e3),
        "harness.run_trial_self_ms":
            statistics.median(trial_self) * 1e3 if trial_self else math.nan,
        **pool,
        "trace.overhead_frac": overhead_frac,
    }
