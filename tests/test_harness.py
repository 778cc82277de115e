"""Scenario parsing, metrics, seeded trials, and the Monte Carlo sweep."""

import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from nearfield import codebook, harness
from nearfield.estimator import EstimatorConfig
from nearfield.harness import (CSV_HEADER, ScenarioError, draw_paths,
                               load_scenario, nmse, run_trial,
                               scenario_from_dict, sweep, to_db)

MINIMAL = {"array": {"num_antennas": 64, "wavelength": 0.003}, "sigma2": 1e-9}


def desk_scenario(**overrides):
    data = dict(MINIMAL)
    data.update(overrides)
    return scenario_from_dict(data)


def log_pids(monkeypatch, module, name, log):
    """Make module.<name> append its process id to `log` on every call."""
    orig = getattr(module, name)

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)


@pytest.fixture
def openblas_at_two_threads():
    """OpenBLAS's thread-count getter, with the count set to 2, a count at
    which a worker's scan would set one thread, and restored after."""
    if codebook._blas_threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count a process's threads")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep on one CPU starts no pool")
    getter, setter = codebook._blas_threads()
    before = getter()
    setter(2)
    try:
        yield getter
    finally:
        setter(before)


class TestScenarioParsing:
    def test_minimal_defaults(self):
        sc = desk_scenario()
        assert sc.array.num_antennas == 64
        assert sc.estimator.single_rounds == 5 and sc.estimator.cyclic_rounds == 5
        assert sc.codebook is sc.estimator.codebook
        assert sc.codebook.config.delta_alpha == 0.5
        assert sc.codebook.config.delta_beta == 1.0
        assert sc.zeta == 3.5
        assert sc.seed == 0
        assert len(sc.bss) == 1

    @pytest.mark.parametrize("section,cls", [
        ("codebook", codebook.CodebookConfig), ("estimator", EstimatorConfig)])
    def test_schema_defaults_are_the_dataclass_defaults(self, section, cls):
        # A default lives on its dataclass field; the schema table reads it
        # from there, so the two cannot fork.
        table = harness.SCHEMA[section][0]
        fields = {f.name: f.default for f in dataclasses.fields(cls)
                  if f.name in table}
        assert fields and all(f is not dataclasses.MISSING for f in fields.values())
        assert {name: table[name][1] for name in fields} == fields

    def test_default_user_mid_annulus(self):
        sc = desk_scenario()
        theta, r = sc.los_geometry(sc.bss[0])
        assert theta == pytest.approx(np.pi / 2, abs=1e-9)
        mid = (sc.array.min_near_distance + sc.array.rayleigh_distance) / 2
        assert r == pytest.approx(mid, rel=1e-9)

    def test_sigma2_dbm_fallback(self):
        sc = scenario_from_dict({"array": MINIMAL["array"],
                                 "sigma2_dbm": -90.0})
        assert sc.sigma2 == pytest.approx(1e-9)

    @pytest.mark.parametrize("broken,needle", [
        ({"array": {"wavelength": 0.003}}, "num_antennas"),
        ({"array": {"num_antennas": 64}}, "wavelength"),
        ({"array": MINIMAL["array"], "schema_version": 99}, "schema_version"),
        ({"array": MINIMAL["array"], "bss": []}, "BS"),
        ({**MINIMAL, "zeta": math.nan}, "zeta"),
        ({**MINIMAL, "zeta": 0.0}, "zeta"),
        ({**MINIMAL, "zeta": -1.0}, "zeta"),
        ({**MINIMAL, "sigma2": math.inf}, "sigma2"),
        ({**MINIMAL, "p_t": math.inf}, "p_t"),
        ({**MINIMAL, "user": [math.nan, 3.0]}, r"user\[0\]"),
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0], "rotation": math.nan}]},
         r"bss\[0\]\.rotation"),
        ({"array": {"num_antennas": 64, "wavelength": math.nan}, "sigma2": 1e-9},
         r"array\.wavelength"),
        # Finite JSON values that are still malformed.
        ({**MINIMAL, "sigma2": "inf"}, "sigma2"),
        ({"array": MINIMAL["array"], "sigma2_dbm": 4000}, "sigma2_dbm"),
        ({**MINIMAL, "user": [2.5]}, "user"),
        ({**MINIMAL, "user": ["nan", 1]}, r"user\[0\]"),
        ({**MINIMAL, "bss": [{"position": [0.0]}]}, r"bss\[0\]\.position"),
        ({**MINIMAL, "seed": "x"}, "seed"),
        ({**MINIMAL, "codebook": {"cover_far_edge": True}}, "cover_far_edge"),
        ({**MINIMAL, "codebook": []}, "codebook"),
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0], "nlos": [1]}]},
         r"bss\[0\]\.nlos\[0\]"),
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0], "num_nlos": -1}]}, "num_nlos"),
        ({**MINIMAL, "estimator": {"single_rounds": -1}}, "round counts"),
        # Unknown keys, one per section, named by their path.
        ({**MINIMAL, "estimatr": {"single_rounds": 0}}, "unknown field estimatr;"),
        ({**MINIMAL, "array": {**MINIMAL["array"], "spacng": 0.0015}},
         r"unknown field array\.spacng;"),
        ({**MINIMAL, "codebook": {"delta_alfa": 0.3}},
         r"unknown field codebook\.delta_alfa;"),
        ({**MINIMAL, "estimator": {"single_round": 0}},
         r"unknown field estimator\.single_round;"),
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0], "rotaton": 0.0}]},
         r"unknown field bss\[0\]\.rotaton;"),
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0]}, {"position": [0.0, 0.0], "nlos": [
            {"theta": 1.0, "r": 3.0, "g": 1e-5, "ph": 0.1}]}]},
         r"unknown field bss\[1\]\.nlos\[0\]\.ph;"),
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0], "num_nlos": 3,
                              "nlos": [{"theta": 1.0, "r": 3.0, "g": 1e-5}]}]},
         r"bss\[0\] gives both nlos and num_nlos"),
        ({**MINIMAL, "sigma2": 1e-9, "sigma2_dbm": -60.0},
         "gives both sigma2 and sigma2_dbm"),
        # JSON values of the wrong type, never coerced.
        ({**MINIMAL, "array": {**MINIMAL["array"], "num_antennas": "64"}},
         r"array\.num_antennas must be an integer, got '64'"),
        ({**MINIMAL, "array": {**MINIMAL["array"], "num_antennas": 64.9}},
         r"array\.num_antennas must be an integer, got 64\.9"),
        ({**MINIMAL, "sigma2": "1e-9"}, "sigma2 must be a finite number, got '1e-9'"),
        ({**MINIMAL, "zeta": True}, "zeta must be a finite number, got True"),
        ({**MINIMAL, "seed": 1.7}, r"seed must be an integer, got 1\.7"),
        ({**MINIMAL, "estimator": {"single_rounds": 2.9}},
         r"estimator\.single_rounds must be an integer, got 2\.9"),
        # Required fields, named by their path.
        ({**MINIMAL, "bss": [{"position": [0.0, 0.0], "nlos": [{"r": 3.0, "g": 1e-5}]}]},
         r"bss\[0\]\.nlos\[0\]\.theta is required"),
        ({**MINIMAL, "bss": [{"rotation": 0.0}]}, r"bss\[0\]\.position is required"),
        # Values of the right kind that no scenario can take.
        ({**MINIMAL, "seed": -3}, "seed must be >= 0, got -3"),
        ({**MINIMAL, "user": [2.0, 5.0], "bss": [{"position": [0.0, 0.0]},
                                                 {"position": [2.0, 5.0]}]},
         r"bss\[1\]: the point is the BS position"),
    ])
    def test_descriptive_errors(self, broken, needle):
        with pytest.raises(ScenarioError, match=needle):
            scenario_from_dict(broken)

    def test_nlos_path_outside_annulus_named(self):
        data = dict(MINIMAL)
        data["bss"] = [{"position": [0.0, 0.0], "rotation": 0.0,
                        "nlos": [{"theta": 1.0, "r": 100.0, "g": 1e-5}]}]
        with pytest.raises(ScenarioError, match=r"nlos\[0\]"):
            scenario_from_dict(data)

    def test_user_behind_array_rejected(self):
        data = dict(MINIMAL)
        data["bss"] = [{"position": [0.0, 0.0], "rotation": 0.0}]
        data["user"] = [0.0, -3.0]
        with pytest.raises(ScenarioError, match="behind"):
            scenario_from_dict(data)

    def test_user_outside_annulus_rejected(self):
        data = dict(MINIMAL)
        data["user"] = [0.0, 100.0]
        data["bss"] = [{"position": [0.0, 0.0], "rotation": 0.0}]
        with pytest.raises(ScenarioError, match="annulus"):
            scenario_from_dict(data)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.json"):
            load_scenario(str(tmp_path / "nope.json"))

    def test_load_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(p))

    def test_load_round_trip(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps({**MINIMAL, "seed": 42}))
        sc = load_scenario(str(p))
        assert sc.seed == 42

    def test_bundled_scenarios_parse(self):
        for name in ("tab2_desk.json", "tab2_paper.json", "single_path.json"):
            sc = load_scenario(f"scenarios/{name}")
            assert len(sc.bss) >= 1

    def test_table_geometry_scenario(self):
        sc = load_scenario("scenarios/tab2_paper.json")
        assert sc.array.num_antennas == 256
        assert [b.config.position for b in sc.bss] == [
            (0.0, 50.0), (20.0, 50.0), (50.0, 0.0), (50.0, 20.0)]
        assert [b.config.rotation for b in sc.bss] == pytest.approx(
            [np.pi, np.pi, np.pi / 2, np.pi / 2])
        assert sc.zeta == 3.5


class TestMetrics:
    def test_nmse_values(self):
        h = np.array([1.0 + 0j, 2.0, 3.0])
        assert nmse(h, h) == 0.0
        assert nmse(h, np.zeros(3)) == pytest.approx(1.0)
        e = h * 0.1  # ||e||^2 = 0.01 ||h||^2
        assert to_db(nmse(h, h + e)) == pytest.approx(-20.0)

    def test_nmse_errors(self):
        with pytest.raises(ValueError):
            nmse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            nmse(np.zeros(3), np.ones(3))

    def test_to_db_sentinel(self):
        assert to_db(0.0) == -math.inf
        assert to_db(100.0) == pytest.approx(20.0)


class TestDrawPaths:
    def test_los_first_with_geometry(self):
        sc = desk_scenario()
        paths = draw_paths(sc, np.random.default_rng(0))[0]
        theta, r = sc.los_geometry(sc.bss[0])
        assert paths[0].theta == pytest.approx(theta)
        assert paths[0].r == pytest.approx(r)

    def test_random_nlos_respects_bounds(self):
        sc = desk_scenario(bss=[{"position": [0.0, 0.0], "rotation": 0.0,
                                 "num_nlos": 3}])
        rng = np.random.default_rng(1)
        for _ in range(20):
            paths = draw_paths(sc, rng)[0]
            g_los = paths[0].g
            for p in paths[1:]:
                assert p.g <= g_los / 3
                assert sc.array.min_near_distance < p.r <= sc.array.rayleigh_distance
                assert 0 < p.theta < np.pi

    @pytest.mark.parametrize("bs,count", [
        ({}, 1), ({"nlos": []}, 0), ({"num_nlos": 0}, 0), ({"num_nlos": 3}, 3),
        ({"nlos": [{"theta": 1.0, "r": 3.0, "g": 1e-5}]}, 1),
    ])
    def test_scatterer_count(self, bs, count):
        sc = desk_scenario(bss=[{"position": [0.0, 0.0], **bs}])
        assert len(draw_paths(sc, np.random.default_rng(0))[0]) == 1 + count
        assert sc.path_counts() == [1 + count]

    def test_fixed_nlos_with_random_phase(self):
        bss = [{"position": [0.0, 0.0], "rotation": 0.0,
                "nlos": [{"theta": 1.0, "r": 3.0, "g": 1e-5}]}]
        sc = desk_scenario(bss=bss, user=[0.0, 3.0])
        a = draw_paths(sc, np.random.default_rng(1))[0][1]
        b = draw_paths(sc, np.random.default_rng(2))[0][1]
        assert a.theta == b.theta and a.r == b.r and a.g == b.g
        assert a.phi != b.phi

    def test_fixed_phase_is_deterministic(self):
        bss = [{"position": [0.0, 0.0], "rotation": 0.0,
                "nlos": [{"theta": 1.0, "r": 3.0, "g": 1e-5, "phi": 0.25}]}]
        sc = desk_scenario(bss=bss, user=[0.0, 3.0])
        a = draw_paths(sc, np.random.default_rng(1))[0][1]
        assert a.phi == 0.25


class TestRunTrial:
    @pytest.fixture(scope="class")
    @staticmethod
    def scenario():
        return load_scenario("scenarios/tab2_desk.json")

    def test_trials_share_the_loaded_estimator_config(self, scenario, monkeypatch):
        configs, run_joint = [], harness.run_joint

        def spy(bs_configs, measurements, num_paths, cfg, *args, **kwargs):
            configs.append(cfg)
            return run_joint(bs_configs, measurements, num_paths, cfg, *args, **kwargs)

        monkeypatch.setattr(harness, "run_joint", spy)
        run_trial(scenario, 20.0, 0, 0)
        run_trial(scenario, 20.0, 0, 1)
        assert len(configs) == 2
        assert configs[0] is configs[1] is scenario.estimator

    def test_row_schema(self, scenario):
        rows = run_trial(scenario, 20.0, 0, 0)
        assert len(rows) == len(scenario.bss)
        cols = set(CSV_HEADER.split(","))
        for row in rows:
            assert cols <= set(row)
            assert row["snr_db"] == 20.0

    def test_snr_scaling_definition(self, scenario):
        # snr_bs_db must equal sum g^2 / sigma2 with sigma2 set so the
        # strongest BS hits the requested SNR.
        rows = run_trial(scenario, 20.0, 0, 0)
        assert max(r["snr_bs_db"] for r in rows) == pytest.approx(20.0, abs=1e-9)
        assert all(r["snr_bs_db"] <= 20.0 + 1e-9 for r in rows)

    def test_deterministic_per_seed(self, scenario):
        a = run_trial(scenario, 15.0, 1, 3)
        b = run_trial(scenario, 15.0, 1, 3)
        assert a == b

    def test_distinct_trials_differ(self, scenario):
        a = run_trial(scenario, 15.0, 0, 0)
        b = run_trial(scenario, 15.0, 0, 1)
        assert a != b

    def test_return_joint(self, scenario):
        # At 0 dB BSs go unanchored, so step3_nmse_db has NaN cells.
        rows, result = run_trial(scenario, 0.0, 0, 0, return_joint=True)
        assert len(result.step1) == len(scenario.bss)
        assert any(math.isnan(row["step3_nmse_db"]) for row in rows)
        # The same rows as a plain call; assert_equal takes NaN == NaN.
        np.testing.assert_equal(rows, run_trial(scenario, 0.0, 0, 0))


class TestSweep:
    @pytest.fixture(scope="class")
    @staticmethod
    def scenario():
        return load_scenario("scenarios/tab2_desk.json")

    def test_row_count_and_header(self, scenario):
        res = sweep(scenario, [15.0, 25.0], trials=2)
        assert len(res.rows) == 2 * 2 * len(scenario.bss)
        csv = res.to_csv()
        assert csv.splitlines()[0] == CSV_HEADER

    def test_serial_parallel_identical(self, scenario):
        serial = sweep(scenario, [15.0, 25.0], trials=3, threads=1).to_csv()
        parallel = sweep(scenario, [15.0, 25.0], trials=3, threads=4).to_csv()
        assert serial == parallel

    def test_csv_reparse_reconstructs_stats(self, scenario):
        res = sweep(scenario, [20.0], trials=3)
        csv = res.to_csv()
        lines = csv.strip().splitlines()
        header = lines[0].split(",")
        parsed = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        got = [float(p["nmse_db"]) for p in parsed]
        want = [r["nmse_db"] for r in res.rows]
        assert got == pytest.approx(want, rel=1e-10)

    def test_workers_never_build_the_steering_matrix(self, tmp_path, monkeypatch):
        log = tmp_path / "builds.txt"
        log_pids(monkeypatch, codebook, "near_steering_columns", log)
        scenario = load_scenario("scenarios/tab2_desk.json")
        sweep(scenario, [20.0], trials=2, threads=2)
        assert log.read_text().split() == [str(os.getpid())]

    def test_rejects_zero_trials(self, scenario):
        with pytest.raises(ValueError):
            sweep(scenario, [10.0], trials=0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, scenario, threads):
        with pytest.raises(ValueError, match="threads"):
            sweep(scenario, [10.0], trials=1, threads=threads)

    def test_pool_capped_at_available_cpus(self, scenario, tmp_path, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        log = tmp_path / "workers.txt"
        log_pids(monkeypatch, harness, "_init_worker", log)  # once per started worker
        sweep(scenario, [10.0, 20.0], trials=2, threads=cpus + 2)
        started = log.read_text().split() if log.exists() else []
        assert len(set(started)) <= cpus

    def test_no_pool_for_a_single_task(self, scenario, tmp_path, monkeypatch):
        log = tmp_path / "trials.txt"
        log_pids(monkeypatch, harness, "run_trial", log)
        sweep(scenario, [20.0], trials=1, threads=2)
        assert log.read_text().split() == [str(os.getpid())]

    def test_openblas_setter_resolves(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy links {blas.get('name')!r}, not scipy-openblas")
        assert codebook._blas_threads() is not None

    def test_workers_run_every_task_on_one_thread(self, scenario, tmp_path,
                                                  monkeypatch, openblas_at_two_threads):
        # A worker forked at one BLAS thread sets no count in its scans, so it
        # never rebuilds OpenBLAS's pool: its main thread is its only thread.
        log = tmp_path / "tasks.txt"
        trial = harness.run_trial

        def logged(*args):
            rows = trial(*args)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(os.listdir('/proc/self/task'))} "
                         f"{openblas_at_two_threads()}\n")
            return rows

        monkeypatch.setattr(harness, "run_trial", logged)
        sweep(scenario, [10.0, 20.0], trials=2, threads=2)
        records = [line.split() for line in log.read_text().splitlines()]
        assert len(records) == 4
        assert str(os.getpid()) not in {pid for pid, *_ in records}
        assert [rest for _, *rest in records] == [["1", "1"]] * 4

    def test_pool_restores_the_callers_thread_count(self, scenario,
                                                   openblas_at_two_threads):
        sweep(scenario, [20.0], trials=2, threads=2)
        assert openblas_at_two_threads() == 2

    def test_pool_forks_whatever_the_default_start_method(self, scenario, tmp_path,
                                                         monkeypatch):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a sweep on one CPU starts no pool")
        log = tmp_path / "workers.txt"
        # Only a forked worker runs the patched initializer; a spawned one
        # could not even unpickle it.
        log_pids(monkeypatch, harness, "_init_worker", log)
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            parallel = sweep(scenario, [20.0], trials=2, threads=2).to_csv()
        finally:
            multiprocessing.set_start_method(default, force=True)
        started = set(log.read_text().split())
        assert started and str(os.getpid()) not in started
        assert parallel == sweep(scenario, [20.0], trials=2, threads=1).to_csv()

    def test_serial_parallel_identical_at_paper_size(self):
        scenario = load_scenario("scenarios/tab2_paper.json")
        serial = sweep(scenario, [0.0, 30.0], trials=1, threads=1).to_csv()
        parallel = sweep(scenario, [0.0, 30.0], trials=1, threads=2).to_csv()
        assert serial == parallel

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_snr(self, scenario, snr_db):
        with pytest.raises(ValueError, match="finite"):
            sweep(scenario, [10.0, snr_db], trials=1)

    def test_median_nmse_non_increasing_in_snr(self, scenario):
        res = sweep(scenario, [5.0, 15.0, 25.0], trials=6)
        medians = []
        for snr in (5.0, 15.0, 25.0):
            vals = [r["nmse_db"] for r in res.rows if r["snr_db"] == snr]
            medians.append(np.median(vals))
        assert medians[0] >= medians[1] >= medians[2]
