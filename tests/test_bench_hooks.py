"""The benchmark's layer tracer still finds every entry point it rebinds.

`bench/layertrace.py` wraps package functions by module attribute name and
counts their calls. A rename in the package would make it fail or miss
calls; these run one traced trial and one traced 2-worker sweep and assert
that the tracer's own self-check, Newton calls against trace callbacks and
detections against estimated paths, comes out clean. The sweep also checks
that the pool's workers still report one trial span per task.
"""

from pathlib import Path

import pytest

from nearfield import harness

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def traced(tmp_path, monkeypatch):
    """Run a callable under a full layer tracer; return the trial stats."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    def run(fn):
        tracer = layertrace.Tracer(tmp_path, full=True)
        tracer.install()
        try:
            fn()
        finally:
            tracer.uninstall()
            tracer.flush()
        return layertrace.TrialStats(layertrace.load_spans(tmp_path))

    return run


def desk_scenario():
    return harness.load_scenario(str(ROOT / "scenarios" / "tab2_desk.json"))


def test_traced_trial_passes_layertrace_self_check(traced):
    scenario = desk_scenario()
    stats = traced(lambda: harness.run_trial(scenario, 20.0, 0, 0))
    assert stats.self_check() == []


def test_traced_pool_sweep_passes_layertrace_self_check(traced):
    scenario = desk_scenario()
    stats = traced(lambda: harness.sweep(scenario, [20.0], trials=2, threads=2))
    assert stats.self_check() == []
    assert len(stats.trials) == 2
    assert len(stats.durations["harness.run_trial"]) == 2
