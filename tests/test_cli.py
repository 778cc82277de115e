"""CLI subcommands, output formats, and exit codes."""

import json
import math
from pathlib import Path

import pytest

from nearfield.cli import cli
from nearfield.harness import CSV_HEADER

DESK = "scenarios/tab2_desk.json"
SINGLE = "scenarios/single_path.json"


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli(["sweep", "--config", DESK, "--bogus"]) == 1

    def test_missing_config_names_path(self, capsys):
        assert cli(["validate", "--config", "does/not/exist.json"]) == 2
        err = capsys.readouterr().err
        assert "does/not/exist.json" in err

    def test_invalid_scenario_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text(json.dumps({"array": {"num_antennas": 64}}))
        assert cli(["validate", "--config", str(p)]) == 2
        assert "wavelength" in capsys.readouterr().err


    def test_non_finite_field_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        p.write_text('{"array": {"num_antennas": 64, "wavelength": 0.003}, '
                     '"sigma2": 1e-9, "zeta": NaN}')
        assert cli(["validate", "--config", str(p)]) == 2
        assert "zeta" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_threads_variable_is_not_read(self, tmp_path, monkeypatch, capsys,
                                          value):
        # --threads (default 1) is the only way to set the sweep's workers.
        monkeypatch.setenv("NEARFIELD_THREADS", value)
        out = tmp_path / "s.csv"
        assert cli(["sweep", "--config", SINGLE, "--trials", "1",
                    "--snr-db", "10", "--out", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER + "\n")

    def test_removed_codebook_field_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "cover.json"
        p.write_text(json.dumps({"array": {"num_antennas": 64, "wavelength": 0.003},
                                 "codebook": {"cover_far_edge": True}}))
        assert cli(["validate", "--config", str(p)]) == 2
        assert "unknown field codebook.cover_far_edge;" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("estimate", ["--threads", "2"]),
        ("crlb", ["--threads", "2"]),
        ("codebook", ["--threads", "2"]),
        ("validate", ["--threads", "2"]),
        ("codebook", ["--seed", "1"]),
    ])
    def test_flag_a_command_does_not_read_is_usage_error(self, tmp_path, capsys,
                                                         command, flag):
        out = tmp_path / "out.txt"
        assert cli([command, "--config", SINGLE, "--out", str(out), *flag]) == 1
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,args", [
        ("--snr-db", ["--snr-db", "nan"]),
        ("--snr-db", ["--snr-db=-inf"]),
        ("--snr-db", ["--snr-db", "abc"]),
        ("--trials", ["--trials", "0"]),
        ("--threads", ["--threads", "0"]),
        ("--threads", ["--threads", "-2"]),
        ("--threads", ["--threads=-1"]),
        ("--seed", ["--seed", "-1"]),
    ])
    def test_bad_sweep_argument_is_usage_error(self, tmp_path, capsys, flag,
                                               args):
        out = tmp_path / "s.csv"
        assert cli(["sweep", "--config", SINGLE, "--out", str(out), *args]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_finite_field_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "user.json"
        p.write_text(json.dumps({"array": {"num_antennas": 64, "wavelength": 0.003},
                                 "sigma2": 1e-9, "user": [2.5]}))
        assert cli(["validate", "--config", str(p)]) == 2
        assert "user" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a_directory", "latin1.json"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name == "a_directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"array": {"num_antennas": 64, "wavelength": 0.003}, '
                             b'"note\xe9": 1}')
        assert cli(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestEstimate:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "est.json"
        assert cli(["estimate", "--config", SINGLE, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "fusion" in payload and "per_bs" in payload
        assert payload["per_bs"][0]["nmse_db_step1"] < -10
        path = payload["per_bs"][0]["paths"][0]
        assert set(path) == {"theta", "r", "g", "phi", "cov"}
        assert len(path["cov"]) == 16

    @staticmethod
    def _estimate_with_unanchored_bss(tmp_path) -> dict:
        # The desk scenario with BS 3's scatterer about 100 times stronger
        # than any LoS path: its soft position, metres from the user and the
        # tightest of all, is the reference, so every LoS candidate fails
        # the gate against it and its BS goes unanchored.
        scenario = json.loads(Path(DESK).read_text())
        scenario["bss"][3]["nlos"][0]["g"] = 6e-3
        config, out = tmp_path / "desk.json", tmp_path / "est.json"
        config.write_text(json.dumps(scenario))
        assert cli(["estimate", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fusion"]["reference_bs"] == 3
        assert payload["anchored"] == [False, False, False, True]
        return payload

    def test_step3_paths_exactly_where_anchored(self, tmp_path):
        payload = self._estimate_with_unanchored_bss(tmp_path)
        anchored = payload["anchored"]
        assert True in anchored and False in anchored
        for bs, flag in zip(payload["per_bs"], anchored):
            if not flag:
                assert bs["paths_step3"] is None
                continue
            assert len(bs["paths_step3"]) == len(bs["paths"])
            for path in bs["paths_step3"]:
                assert set(path) == {"theta", "r", "g", "phi"}
                assert all(math.isfinite(v) for v in path.values())

    def test_per_bs_nmse_is_the_metric_rows(self, tmp_path):
        # The per-BS NMSE is the harness's score of the trial, not a second
        # computation: step 1 equals the row's nmse_db, and step 3 is null
        # exactly where the row's step3_nmse_db is.
        payload = self._estimate_with_unanchored_bss(tmp_path)
        assert len(payload["per_bs"]) == len(payload["metrics"]) == 4
        for i, (bs, row) in enumerate(zip(payload["per_bs"], payload["metrics"])):
            assert row["bs"] == i
            assert bs["nmse_db_step1"] == row["nmse_db"]
            assert bs["nmse_db_step3"] == row["step3_nmse_db"]
        steps3 = [bs["nmse_db_step3"] for bs in payload["per_bs"]]
        assert None in steps3 and any(v is not None for v in steps3)


class TestSweep:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli(["sweep", "--config", SINGLE, "--trials", "2",
                    "--snr-db", "10,20", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # header + points*trials (1 BS)

    def test_seed_override_changes_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli(["sweep", "--config", SINGLE, "--trials", "1",
             "--snr-db", "10", "--out", str(a), "--seed", "1"])
        cli(["sweep", "--config", SINGLE, "--trials", "1",
             "--snr-db", "10", "--out", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestCrlb:
    def test_table_shape(self, tmp_path):
        out = tmp_path / "crlb.csv"
        assert cli(["crlb", "--config", DESK, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bs,path,param,crlb,sqrt_crlb"
        # 4 BSs x 2 paths x 4 params
        assert len(lines) == 1 + 4 * 2 * 4
        for ln in lines[1:]:
            _, _, param, v, sv = ln.split(",")
            assert param in {"theta", "r", "g", "phi"}
            assert float(sv) == pytest.approx(max(float(v), 0.0) ** 0.5,
                                              rel=1e-9)

    def test_coincident_paths_are_runtime_error(self, tmp_path, capsys):
        # A scatterer at the LoS (theta, r) makes the FIM singular; its
        # pseudo-inverse would print a negative variance. A zero-gain
        # scatterer zeroes its rows of the FIM.
        for i, scatterer in enumerate([
                {"theta": 3 * math.pi / 4, "r": 2.5 * math.sqrt(2), "g": 0.5},
                {"theta": 1.0, "r": 2.0, "g": 0.0}]):
            scenario = json.loads(open(SINGLE).read())
            del scenario["bss"][0]["num_nlos"]
            scenario["bss"][0]["nlos"] = [scatterer]
            p = tmp_path / f"coincident{i}.json"
            p.write_text(json.dumps(scenario))
            out = tmp_path / f"crlb{i}.csv"
            assert cli(["crlb", "--config", str(p), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("runtime error: bs0:") and "1e+12" in err
            assert not out.exists()


class TestCodebook:
    def test_dump(self, tmp_path, capsys):
        out = tmp_path / "cb.csv"
        assert cli(["codebook", "--config", SINGLE, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_theta,n_r,cos_theta,theta_rad,r_m"
        assert len(lines) == 1 + 1083
        # The dump runs angle by angle in grid order, whatever the layout.
        cells = [tuple(int(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
        assert cells == sorted(cells) and cells[0] == (0, 0)
        err = capsys.readouterr().err
        assert "1083 codewords" in err
        # Mirror twins share a column: 535 pairs and 13 cos theta = 0 columns.
        assert "548 stored steering columns (0.3 MiB)" in err


class TestValidate:
    def test_bundled_scenarios_pass(self, capsys):
        assert cli(["validate", "--config", DESK]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_out_file_holds_the_verdicts(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert cli(["validate", "--config", SINGLE, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines and all(ln.startswith("PASS  ") for ln in lines)
        assert capsys.readouterr().out == ""
