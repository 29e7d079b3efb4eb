import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from smplab.cli import (
    EXIT_ASSERTION,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    ExperimentConfig,
    main,
    run_experiment,
    sweep,
)
from smplab import cli
from smplab.errors import PromiseViolationError, ReplayMismatchError
from smplab.protocols import hidden_matching_relation


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


class TestRunExperiment:
    def test_eq_public_worst_case_exact(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="eq-public", params={"n": 4, "k": 2}, out=tmp_path
        )
        result = run_experiment(cfg)
        assert result.summary["worst_case_error"] == "0.25"
        summary = read_summary(tmp_path / "eq-public_summary.txt")
        assert summary["worst_case_error"] == "0.25"
        assert summary["alice_bits"] == "2"
        rows = (tmp_path / "eq-public_rows.csv").read_text().splitlines()
        assert rows[0] == "x,y,f,acceptance,error"
        assert len(rows) == 1 + 16 * 16

    def test_learn_state_fixture_reports_single_correction(self, tmp_path):
        cfg = ExperimentConfig(experiment="learn-state", out=tmp_path)
        result = run_experiment(cfg)
        # the first index is corrected; the projected hypothesis then predicts
        # the second exactly, so exactly one record entry is needed
        assert result.summary["T"] == 1
        assert result.ok
        rows = (tmp_path / "learn-state_rows.csv").read_text().splitlines()
        assert rows[0] == "b,p_true,p_reconstructed,status"
        assert rows[1].endswith("bad")
        assert rows[2].endswith("good")

    def test_compile_toy_fixture_within_delta(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="compile", params={"fixture": "toy-q1", "r": 3}, out=tmp_path
        )
        result = run_experiment(cfg)
        assert result.ok
        assert float(result.summary["error_increase"]) <= 0.1 + 1e-9

    def test_derandomize_assertions_hold(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="derandomize", params={"n": 2, "s": 12}, seed=3, out=tmp_path
        )
        result = run_experiment(cfg)
        assert result.ok
        assert float(result.summary["max_deviation"]) <= 0.1

    def test_hidden_matching_success_one(self, tmp_path):
        cfg = ExperimentConfig(experiment="hidden-matching", params={"n": 4}, out=tmp_path)
        result = run_experiment(cfg)
        assert result.ok
        assert float(result.summary["min_valid_mass"]) >= 1 - 1e-9

    def test_matching_qc_small_run(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="matching-qc",
            params={"n": 16, "instances": 4},
            seed=9,
            trials=50,
            out=tmp_path,
        )
        result = run_experiment(cfg)
        assert "success_rate" in result.summary
        assert result.summary["trials_total"] == 200

    def test_learn_state_from_matrix_files(self, tmp_path):
        import numpy as np

        from smplab.qcore import random_density, random_measurement_operator
        from smplab.rng import trial_rng
        from smplab.serialize import save_matrix
        from test_serialize import matrix_to_text

        g = trial_rng(30, 0)
        rho = random_density(2, g)
        ops = [random_measurement_operator(2, g) for _ in range(2)]
        save_matrix(tmp_path / "rho.qmat", rho.entries)
        (tmp_path / "e0.txt").write_text(matrix_to_text(ops[0].entries))
        save_matrix(tmp_path / "e1.qmat", ops[1].entries)
        cfg = ExperimentConfig(
            experiment="learn-state",
            params={
                "mode": "file",
                "rho": str(tmp_path / "rho.qmat"),
                "operators": f"{tmp_path}/e0.txt,{tmp_path}/e1.qmat",
                "r": 6,
            },
            out=tmp_path / "out",
        )
        result = run_experiment(cfg)
        assert result.ok
        assert float(result.summary["max_deviation"]) <= 0.1

    def test_oracle_suite(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="oracle-suite", params={"instances": 20}, seed=5, out=tmp_path
        )
        result = run_experiment(cfg)
        assert result.ok
        assert result.summary["chain_violations"] == 0


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main([
            "--experiment", "eq-public", "--param", "n=2", "--param", "k=1",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK

    @pytest.mark.parametrize("delta", ["0.3", "0.45"])
    def test_compile_at_a_delta_off_the_unit_grid(self, tmp_path, delta):
        # 8/delta is not an integer, so the estimate of an accepting input is
        # the last delta/8 grid point below 1, which its bits decode to
        code = main(["--experiment", "compile", "--param", "fixture=toy-q1",
                     "--param", f"delta={delta}", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = read_summary(tmp_path / "compile_summary.txt")
        assert float(summary["error_increase"]) <= float(delta)
        assert summary["assert_error_increase_within_delta"].startswith("pass")

    def test_honest_record_replays_when_8_over_delta_is_not_an_integer(self, tmp_path):
        # rho = |0><0| against diag(1, 0.39) twice: the record truncates 1.0
        # to 0.975 at the top of the delta/8 grid, and its replay must accept it
        import numpy as np

        from smplab.serialize import save_matrix

        save_matrix(tmp_path / "rho.qmat", np.diag([1.0, 0.0]).astype(complex))
        save_matrix(tmp_path / "e.qmat", np.diag([1.0, 0.39]).astype(complex))
        e = tmp_path / "e.qmat"
        code = main(["--experiment", "learn-state", "--param", "mode=file",
                     "--param", f"rho={tmp_path / 'rho.qmat'}", "--param", f"operators={e},{e}",
                     "--param", "delta=0.3", "--param", "r=2", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        summary = read_summary(tmp_path / "out" / "learn-state_summary.txt")
        assert summary["T"] == "1"
        assert float(summary["max_deviation"]) == pytest.approx(0.025, abs=1e-12)

    @pytest.mark.parametrize("argv, r, band", [
        (["--experiment", "compile", "--param", "fixture=hm-verify", "--param", "r=3"], 3,
         "band [0.45, 0.55] holds no eigenvalue of F, the nearest being 0.333333"),
        (["--experiment", "learn-state", "--param", "mode=file", "--param", "r=2"], 2,
         "band [0.25, 0.35] holds no eigenvalue of F, the nearest being 0.5"),
        (["--experiment", "compile", "--param", "fixture=hm-verify", "--param", "r=1"], 1,
         "band [0.45, 0.55] holds no eigenvalue of F, the nearest being 0"),
    ], ids=["compile-hm-verify-r3", "learn-state-file-r2", "compile-hm-verify-r1"])
    def test_vanishing_projection_below_the_papers_r_names_both(
        self, tmp_path, capsys, argv, r, band
    ):
        # hm-verify at odd r, and diag(0.3, 0.7) against |0><0| at r = 2, put
        # the first correction's band in a gap of the r-copy spectrum, whose
        # eigenvalues are the multiples of 1/r: the error names the band and
        # its nearest eigenvalue (at r = 1 the lower of 0 and 1, which tie).
        # The paper's r at q <= 2 and delta 0.1 is ceil(8 ln 2 / 0.01) = 555
        import numpy as np

        from smplab.serialize import save_matrix

        save_matrix(tmp_path / "rho.qmat", np.diag([0.3, 0.7]).astype(complex))
        save_matrix(tmp_path / "e.qmat", np.diag([1.0, 0.0]).astype(complex))
        e = tmp_path / "e.qmat"
        if "mode=file" in argv:
            argv = argv + ["--param", f"rho={tmp_path / 'rho.qmat'}",
                           "--param", f"operators={e},{e}"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_ASSERTION
        assert capsys.readouterr().err == (
            "check failed: VanishingProjectionError: projection at step 0 has trace "
            f"0.000e+00; {band}; r = {r} is below the paper's r = 555\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unknown_experiment_is_config_error(self, tmp_path, capsys):
        code = main(["--experiment", "eq-public", "--param", "bogus", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_missing_required_param(self, tmp_path):
        code = main(["--experiment", "eq-public", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_missing_seed_for_sampled_run(self, tmp_path):
        code = main(["--experiment", "matching-qc", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_cap_exceeded(self, tmp_path):
        code = main([
            "--experiment", "eq-public", "--param", "n=6", "--out", str(tmp_path)
        ])
        assert code == EXIT_CAP

    def test_eq_public_over_the_coin_cap_names_the_coin_size(self, tmp_path, capsys):
        # 2^(3 * 7) masks is past the default enum_cap of 2^20; only the
        # refusal is checked, nothing is enumerated
        code = main([
            "--experiment", "eq-public", "--param", "n=3", "--param", "k=7",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_CAP
        assert capsys.readouterr().err == (
            "cap exceeded: coin space of size 2097152 exceeds term budget 1048576\n"
        )

    def test_derandomize_past_the_explicit_inputs_exits_4_before_the_code(
        self, tmp_path, capsys
    ):
        # hadamard_code(40) would have 2^40 generator rows
        started = time.perf_counter()
        code = main([
            "--experiment", "derandomize", "--param", "n=40", "--seed", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_CAP
        assert capsys.readouterr().err == "cap exceeded: derandomize report capped at n <= 10\n"
        assert not (tmp_path / "out").exists()

    def test_eq_public_past_the_coin_bit_limit_exits_4(self, tmp_path, capsys):
        code = main([
            "--experiment", "eq-public", "--param", "n=5", "--param", "k=100000000",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_CAP
        assert capsys.readouterr().err == (
            "cap exceeded: coin of n*k = 500000000 bits exceeds 1048576 bits\n"
        )

    def test_failed_assertion_maps_to_exit_3(self, tmp_path, monkeypatch):
        import smplab.cli as cli

        def failing_runner(prm, tol):
            return cli.ExperimentResult(
                columns=["x"], rows=[[0]], summary={"value": 1},
                assertions=[("forced", False, -1.0)],
            )

        monkeypatch.setitem(cli._TABLE, "eq-public", (failing_runner, {}, {}))
        code = cli.main(["--experiment", "eq-public", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("error", [ReplayMismatchError, PromiseViolationError])
    def test_broken_claim_errors_map_to_exit_3(self, tmp_path, monkeypatch, error):
        import smplab.cli as cli

        def raising_runner(prm, tol):
            raise error("forced")

        monkeypatch.setitem(cli._TABLE, "eq-public", (raising_runner, {}, {}))
        code = cli.main(["--experiment", "eq-public", "--out", str(tmp_path)])
        assert code == EXIT_ASSERTION

    def test_unknown_param_names_key_and_accepted_keys(self, tmp_path, capsys):
        code = main([
            "--experiment", "learn-state", "--param", "q=1", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'learn-state' has no param q" in err
        assert "mode, delta, r, rho, operators, instances" in err

    def test_uncastable_param_is_config_error(self, tmp_path):
        code = main(["--experiment", "eq-public", "--param", "n=two", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, key", [
        (["--experiment", "eq-public", "--param", "n=2.7", "--param", "k=1"], "n"),
        (["--experiment", "eq-public", "--param", "n=2", "--param", "k=1.9"], "k"),
        (["--experiment", "compile", "--param", "r=2.5"], "r"),
    ])
    def test_non_integral_int_param_is_config_error(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"--param {key}:" in err
        assert "is not an integer" in err

    def test_integral_float_int_param_is_accepted(self, tmp_path):
        code = main([
            "--experiment", "eq-public", "--param", "n=2.0", "--param", "k=2.0",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert read_summary(tmp_path / "eq-public_summary.txt")["worst_case_error"] == "0.25"

    def test_config_file_mirrors_flags(self, tmp_path):
        doc = {
            "experiment": "eq-public",
            "params": {"n": 2, "k": 2},
            "out": str(tmp_path / "from_file"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path)]) == EXIT_OK
        summary = read_summary(tmp_path / "from_file" / "eq-public_summary.txt")
        assert summary["worst_case_error"] == "0.25"

    def test_flags_override_config_file(self, tmp_path):
        doc = {"experiment": "eq-public", "params": {"n": 2, "k": 1}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main([
            "--config", str(cfg_path), "--param", "k=2", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        summary = read_summary(tmp_path / "o" / "eq-public_summary.txt")
        assert summary["worst_case_error"] == "0.25"


class TestSweep:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        cfg = ExperimentConfig(experiment="eq-public", params={"n": 2}, out=tmp_path)
        path = sweep(cfg, "k", [])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("run_index,k,seed,ok")

    def test_single_value_matches_direct_run(self, tmp_path):
        cfg = ExperimentConfig(experiment="eq-public", params={"n": 2}, out=tmp_path / "s")
        sweep(cfg, "k", [2])
        direct = ExperimentConfig(
            experiment="eq-public", params={"n": 2, "k": 2}, out=tmp_path / "d"
        )
        run_experiment(direct)
        sweep_summary = read_summary(tmp_path / "s" / "run000" / "eq-public_summary.txt")
        direct_summary = read_summary(tmp_path / "d" / "eq-public_summary.txt")
        assert sweep_summary["worst_case_error"] == direct_summary["worst_case_error"]

    def test_duplicate_values_get_distinct_seeds(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="matching-qc",
            params={"n": 16, "instances": 2},
            seed=4,
            trials=20,
            out=tmp_path,
        )
        path = sweep(cfg, "subset_size", [8, 8])
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        seed0 = lines[1].split(",")[2]
        seed1 = lines[2].split(",")[2]
        assert seed0 != seed1

    def test_sweep_via_main(self, tmp_path):
        code = main([
            "--experiment", "eq-public", "--param", "n=2",
            "--sweep-param", "k", "--sweep-values", "1,2,3",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "eq-public_sweep.csv").read_text().splitlines()
        assert len(lines) == 4


class TestReproducibility:
    def test_identical_config_gives_identical_files(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="matching-classical",
            params={"n": 16, "instances": 3},
            seed=77,
            trials=40,
            out=tmp_path,
        )
        run_experiment(cfg)
        first = {
            name: (tmp_path / name).read_bytes()
            for name in (
                "matching-classical_rows.csv",
                "matching-classical_summary.txt",
                "matching-classical_config.json",
            )
        }
        run_experiment(cfg)
        for name, data in first.items():
            assert (tmp_path / name).read_bytes() == data


class TestFlagsRead:
    @pytest.mark.parametrize("argv, flag", [
        (["--experiment", "eq-public", "--param", "n=2", "--trials", "5", "--seed", "9"], "--seed"),
        (["--experiment", "eq-public", "--param", "n=2", "--trials", "5"], "--trials"),
        (["--experiment", "eq-code", "--param", "n=2", "--seed", "1"], "--seed"),
        (["--experiment", "compile", "--seed", "1"], "--seed"),
        (["--experiment", "hidden-matching", "--seed", "1"], "--seed"),
        (["--experiment", "learn-state", "--seed", "1"], "--seed"),
        (["--experiment", "learn-state", "--param", "mode=random", "--seed", "1",
          "--trials", "3"], "--trials"),
        (["--experiment", "derandomize", "--seed", "1", "--trials", "3"], "--trials"),
        (["--experiment", "oracle-suite", "--seed", "1", "--trials", "3"], "--trials"),
    ])
    def test_unread_flag_is_config_error(self, tmp_path, capsys, argv, flag):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"does not read {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_learn_state_random_reports_degenerate_instances(self, tmp_path):
        # at r = 1 the band around a corrected value often holds no eigenvalue
        # of E itself; each degenerate row must be an instance whose own walk
        # vanishes, and every other row one whose walk succeeds
        from smplab.errors import VanishingProjectionError
        from smplab.qcore import random_density, random_measurement_operator
        from smplab.rng import trial_rng
        from smplab.transforms import learn_round_trip

        code = main([
            "--experiment", "learn-state", "--param", "mode=random", "--param", "r=1",
            "--param", "instances=4", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in
                (tmp_path / "learn-state_rows.csv").read_text().splitlines()[1:]]
        degenerate = [row for row in rows if row[-1] == "degenerate"]
        assert read_summary(tmp_path / "learn-state_summary.txt")[
            "degenerate_instances"] == str(len(degenerate))
        assert 0 < len(degenerate) < len(rows)
        for row in rows:
            g = trial_rng(2, int(row[0]))
            q, c = int(g.integers(1, 3)), int(g.integers(2, 4))
            assert row[1:4] == [str(q), str(c), "1"]
            rho = random_density(2**q, g)
            ops = [random_measurement_operator(2**q, g) for _ in range(2**c)]
            if row in degenerate:
                assert row[4:7] == ["", "", ""]
                with pytest.raises(VanishingProjectionError):
                    learn_round_trip(rho, ops, 0.1, 1)
            else:
                assert row[-1] == "ok"
                learn_round_trip(rho, ops, 0.1, 1)

    @pytest.mark.parametrize("mode, param", [
        ("fixture", "rho"), ("fixture", "operators"), ("fixture", "instances"),
        ("random", "rho"), ("random", "operators"), ("file", "instances"),
    ])
    def test_learn_state_refuses_a_param_its_mode_does_not_read(
        self, tmp_path, capsys, mode, param
    ):
        import numpy as np

        from smplab.serialize import save_matrix

        save_matrix(tmp_path / "m.qmat", np.diag([1.0, 0.0]).astype(complex))
        m = tmp_path / "m.qmat"
        given = {"rho": m, "operators": f"{m},{m}", "instances": 50}
        argv = ["--experiment", "learn-state", "--param", f"mode={mode}",
                "--param", f"{param}={given[param]}"]
        if mode == "file":
            argv += ["--param", f"rho={m}", "--param", f"operators={m},{m}"]
        if mode == "random":
            argv += ["--seed", "1"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: learn-state mode={mode} does not read --param {param}\n")
        assert not out.exists()

    def test_learn_state_random_runs_50_instances_by_default(self, tmp_path):
        code = main([
            "--experiment", "learn-state", "--param", "mode=random", "--param", "r=1",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert read_summary(tmp_path / "learn-state_summary.txt")["instances"] == "50"
        assert len((tmp_path / "learn-state_rows.csv").read_text().splitlines()) == 51
        assert "instances" not in json.loads(
            (tmp_path / "learn-state_config.json").read_text())["params"]

    def test_learn_state_reads_seed_in_random_mode(self, tmp_path):
        code = main([
            "--experiment", "learn-state", "--param", "mode=random",
            "--param", "instances=2", "--seed", "4", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert json.loads((tmp_path / "learn-state_config.json").read_text())["seed"] == 4

    def test_sweep_refuses_unread_flag(self, tmp_path, capsys):
        code = main([
            "--experiment", "eq-public", "--param", "n=2", "--seed", "1",
            "--sweep-param", "k", "--sweep-values", "1,2", "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert "does not read --seed" in capsys.readouterr().err
        assert not (tmp_path / "eq-public_sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--experiment", "matching-qc"],
        ["--experiment", "matching-classical", "--trials", "5"],
        ["--experiment", "learn-state", "--param", "mode=random"],
        ["--experiment", "derandomize"],
        ["--experiment", "oracle-suite"],
    ])
    def test_missing_seed_is_config_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert "samples and needs --seed" in capsys.readouterr().err


class TestRejectedInputs:
    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "learn-state", "--param", "mode=random", "--param", "delta=0",
          "--seed", "1"], "need delta in (0, 1/2)"),
        (["--experiment", "compile", "--param", "delta=0"], "need delta in (0, 1/2)"),
        (["--experiment", "matching-classical", "--param", "n=16", "--trials", "0",
          "--seed", "1"], "need trials_per_pair >= 1"),
        (["--experiment", "matching-classical", "--param", "n=16", "--trials", "-3",
          "--seed", "1"], "need trials_per_pair >= 1"),
        (["--experiment", "matching-classical", "--param", "instances=0", "--seed", "1"],
         "--param instances: 0 is not a positive integer"),
        (["--experiment", "learn-state", "--param", "mode=random", "--param", "instances=0",
          "--seed", "1"], "--param instances: 0 is not a positive integer"),
        (["--experiment", "oracle-suite", "--param", "instances=-1", "--seed", "1"],
         "--param instances: -1 is not a positive integer"),
        (["--experiment", "learn-state", "--param", "r=0"], "need r >= 1"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "projector=1"],
         "unknown tolerance override"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "subset_size=0",
          "--seed", "1"], "need 1 <= subset_size <= n = 16, got 0"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "subset_size=17",
          "--seed", "1"], "need 1 <= subset_size <= n = 16, got 17"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "copies=0",
          "--seed", "1"], "need copies >= 1, got 0"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "edges_sent=0",
          "--seed", "1"], "need edges_sent >= 1, got 0"),
        (["--experiment", "matching-classical", "--param", "n=16", "--param", "subset_size=0",
          "--seed", "1"], "need 1 <= subset_size <= n = 16, got 0"),
        (["--experiment", "matching-classical", "--param", "n=16", "--param", "subset_size=17",
          "--seed", "1"], "need 1 <= subset_size <= n = 16, got 17"),
        (["--experiment", "learn-state", "--param", "mode=bogus", "--seed", "1"],
         "--param mode: 'bogus' is not one of fixture, file, random"),
        (["--experiment", "compile", "--param", "fixture=toy-q3"],
         "--param fixture: 'toy-q3' is not one of toy-q1, toy-q2, hm-verify"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "subset_size=1",
          "--seed", "1"], "need subset_size >= 2 so that an edge fits, got 1"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "subset_size=4",
          "--param", "edges_sent=9", "--seed", "1"],
         "need edges_sent <= subset_size // 2 = 2, got 9"),
        (["--experiment", "matching-qc", "--param", "n=16", "--param", "subset_size=5",
          "--param", "edges_sent=3", "--seed", "1"],
         "need edges_sent <= subset_size // 2 = 2, got 3"),
        (["--experiment", "matching-classical", "--param", "n=16", "--param", "subset_size=1",
          "--seed", "1"], "need subset_size >= 2 so that an edge fits, got 1"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "psd=nan"],
         "tolerance psd must be a finite real >= 0, got nan"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "psd=inf"],
         "tolerance psd must be a finite real >= 0, got inf"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "psd=-1"],
         "tolerance psd must be a finite real >= 0, got -1"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "psd=abc"],
         "tolerance psd must be a finite real >= 0, got 'abc'"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "enum_cap=0"],
         "tolerance enum_cap must be an int >= 1, got 0"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "enum_cap=2.5"],
         "tolerance enum_cap must be an int >= 1, got 2.5"),
        (["--experiment", "eq-public", "--param", "n=2", "--tolerance", "enum_cap=abc"],
         "tolerance enum_cap must be an int >= 1, got 'abc'"),
    ])
    def test_exits_2_naming_the_input(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, data, message", [
        ("short.qmat", b"QMAT\x01\x00", "truncated matrix container header (6 of 12 bytes)"),
        ("empty.txt", b"", "empty text matrix"),
    ])
    def test_malformed_matrix_file_exits_2(self, tmp_path, capsys, name, data, message):
        (tmp_path / name).write_bytes(data)
        out = tmp_path / "out"
        argv = ["--experiment", "learn-state", "--param", "mode=file",
                "--param", f"rho={tmp_path / name}",
                "--param", f"operators={tmp_path / name}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rho, operators, message", [
        ("{tmp}", "{tmp}/e.txt", "config error: cannot read matrix file: [Errno 21] "
         "Is a directory: '{tmp}'"),
        ("{tmp}/e.txt", "", "config error: empty matrix file path"),
        ("{tmp}/e.txt", "{tmp}/e.txt,", "config error: empty matrix file path"),
    ], ids=["directory", "empty-operators", "trailing-comma"])
    def test_unreadable_matrix_path_exits_2(self, tmp_path, capsys, rho, operators, message):
        (tmp_path / "e.txt").write_text("qmat v1 dim=1\n1,0\n")
        out = tmp_path / "out"
        argv = ["--experiment", "learn-state", "--param", "mode=file",
                "--param", f"rho={rho.format(tmp=tmp_path)}",
                "--param", f"operators={operators.format(tmp=tmp_path)}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(message.format(tmp=tmp_path))
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ('{"experiment": "derandomize", "seed": "abc"}',
         "config file key 'seed' must be an integer, got 'abc'"),
        ('{"experiment": "derandomize", "seed": 1.5}',
         "config file key 'seed' must be an integer, got 1.5"),
        ('{"experiment": "derandomize", "seed": true}',
         "config file key 'seed' must be an integer, got True"),
        ('{"experiment": "matching-classical", "seed": 1, "trials": "5"}',
         "config file key 'trials' must be an integer, got '5'"),
        ('[1, 2]', "config file must hold a JSON object, not list"),
        ('{"experiment": "eq-public", "params": [1, 2]}',
         "config file key 'params' must be a JSON object, got [1, 2]"),
        ('{"experiment": "eq-public", "params": {"n": 2}, "tolerance": 1e-9}',
         "config file key 'tolerance' must be a JSON object, got 1e-09"),
        ('{"experiment": "eq-public", "params": {"n": 2}, "tolerance": {"enum_cap": null}}',
         "tolerance enum_cap must be an int >= 1, got None"),
        ('{"experiment": ["eq-public"]}',
         "config file key 'experiment' must be a string, got ['eq-public']"),
        ('{"experiment": "eq-public", "params": {"n": true}}', "--param n: True is not an integer"),
    ])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, config, message):
        (tmp_path / "config.json").write_text(config)
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "config.json"), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, files, code, message", [
        (["--experiment", "eq-code", "--param", "n=6"], {}, EXIT_CAP,
         "cap exceeded: eq-code exhaustive report capped at n <= 5"),
        (["--experiment", "hidden-matching", "--param", "n=16"], {}, EXIT_CAP,
         "cap exceeded: hidden-matching exhaustive report capped at n <= 8"),
        (["--experiment", "derandomize", "--param", "n=2", "--param", "reps=2", "--seed", "1",
          "--tolerance", "enum_cap=1000"], {}, EXIT_CAP,
         "cap exceeded: a candidate's 12 * 6 * 2^6 terms exceed term budget 1000"),
        (["--experiment", "learn-state", "--param", "mode=file", "--param", "rho={tmp}/absent",
          "--param", "operators={tmp}/absent"], {}, EXIT_CONFIG,
         "config error: matrix file not found: {tmp}/absent"),
        (["--experiment", "learn-state", "--param", "mode=file"], {}, EXIT_CONFIG,
         "config error: learn-state mode=file requires --param rho=..."),
        (["--experiment", "learn-state", "--param", "mode=file", "--param", "rho={tmp}/absent"],
         {}, EXIT_CONFIG, "config error: learn-state mode=file requires --param operators=..."),
        (["--config", "{tmp}/config.json"], {"config.json": '{"experiment": "bogus"}'},
         EXIT_CONFIG, "config error: unknown experiment 'bogus'; choose from ("),
        (["--config", "{tmp}/absent.json"], {}, EXIT_CONFIG,
         "config error: cannot read config file: [Errno 2] No such file or directory"),
        (["--config", "{tmp}/config.json"], {"config.json": "{"}, EXIT_CONFIG,
         "config error: cannot read config file: Expecting property name"),
        ([], {}, EXIT_CONFIG,
         "config error: an experiment is required (flag --experiment or config file)"),
        (["--experiment", "eq-public", "--param", "n=1", "--sweep-param", "n"], {}, EXIT_CONFIG,
         "config error: --sweep-param needs --sweep-values"),
    ], ids=["eq-code-n", "hidden-matching-n", "derandomize-term-budget", "missing-matrix-file", "file-mode-without-rho",
            "file-mode-without-operators", "unknown-experiment-in-config",
            "missing-config-file", "malformed-config-file", "no-experiment",
            "sweep-without-values"])
    def test_guards_exit_with_their_code(self, tmp_path, capsys, argv, files, code, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message.format(tmp=tmp_path))
        assert not out.exists()

    @pytest.mark.parametrize("law, code, report", [
        (lambda k: {"0": 1.0}, EXIT_CONFIG, "error: message '0' is not an int in [0, 2^2)"),
        (lambda k: {1: 0.5, 2: 0.75}, EXIT_CONFIG, "error: distribution sums to 1.25, not 1"),
        # the other matching's edges are never valid for k: half the mass
        (lambda k: {k: 0.5, k % 3 + 1: 0.5}, EXIT_ASSERTION, "min_valid_mass=0.5\n"),
    ], ids=["string-message", "bad-weights", "two-messages"])
    def test_hidden_matching_validates_and_weights_bobs_law(
        self, tmp_path, capsys, monkeypatch, law, code, report
    ):
        def relation(n):
            protocol, rel = hidden_matching_relation(n)
            return replace(protocol, bob_strategy=lambda k, _c: law(k)), rel

        monkeypatch.setattr(cli, "hidden_matching_relation", relation)
        argv = ["--experiment", "hidden-matching", "--out", str(tmp_path)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert report in (captured.err if code == EXIT_CONFIG else captured.out)

    @pytest.mark.parametrize("n", [4, 8])
    def test_hidden_matching_calls_each_strategy_once_per_input(self, tmp_path, monkeypatch, n):
        # Alice's state depends on x alone and Bob's law on k alone
        calls = {"alice": 0, "bob": 0}

        def counted(role, strategy):
            def call(inp, coin):
                calls[role] += 1
                return strategy(inp, coin)
            return call

        def relation(n):
            protocol, rel = hidden_matching_relation(n)
            return replace(
                protocol,
                alice_strategy=counted("alice", protocol.alice_strategy),
                bob_strategy=counted("bob", protocol.bob_strategy),
            ), rel

        monkeypatch.setattr(cli, "hidden_matching_relation", relation)
        argv = ["--experiment", "hidden-matching", "--param", f"n={n}", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert calls == {"alice": 2**n, "bob": n - 1}
