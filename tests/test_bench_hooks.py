"""The benchmark's layer tracer still finds every entry point it rebinds.

`bench/layertrace.py` wraps package functions by module attribute name and
counts their calls. A rename in the package would make it fail or miss
calls; this runs one traced trial and asserts that the tracer's own
self-check, Newton calls against trace callbacks and detections against
estimated paths, comes out clean.
"""

from pathlib import Path

from nearfield import harness

ROOT = Path(__file__).resolve().parent.parent


def test_traced_trial_passes_layertrace_self_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    scenario = harness.load_scenario(str(ROOT / "scenarios" / "tab2_desk.json"))
    tracer = layertrace.Tracer(tmp_path, full=True)
    tracer.install()
    try:
        harness.run_trial(scenario, 20.0, 0, 0)
    finally:
        tracer.uninstall()
        tracer.flush()
    stats = layertrace.TrialStats(layertrace.load_spans(tmp_path))
    assert stats.self_check() == []
