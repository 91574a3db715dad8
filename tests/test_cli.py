"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.dataset == "glove-small"
        assert args.index_type == "AUTOINDEX"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--dataset", "not-a-dataset"])

    def test_tune_flags(self):
        args = build_parser().parse_args(
            ["tune", "--iterations", "7", "--recall-constraint", "0.9", "--cost-aware", "--json"]
        )
        assert args.iterations == 7
        assert args.recall_constraint == 0.9
        assert args.cost_aware and args.json


class TestEvaluateCommand:
    def test_evaluate_prints_metrics(self, capsys):
        exit_code = main(["evaluate", "--dataset", "glove-small", "--index-type", "IVF_FLAT"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "QPS" in output
        assert "recall" in output

    def test_evaluate_with_overrides(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--dataset",
                "glove-small",
                "--index-type",
                "IVF_FLAT",
                "--set",
                "nprobe=64",
                "--set",
                "segment_max_size=256",
            ]
        )
        assert exit_code == 0
        assert "IVF_FLAT" in capsys.readouterr().out

    def exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        assert isinstance(code, str) and code.startswith("error:")
        return code

    def test_invalid_override_format_rejected(self):
        message = self.exit_message(["evaluate", "--set", "nprobe"])
        assert "'nprobe'" in message and "NAME=VALUE" in message

    def test_unknown_override_parameter_rejected(self):
        message = self.exit_message(["evaluate", "--set", "bogus=3"])
        assert "'bogus'" in message and "unknown parameter" in message

    def test_unparsable_override_value_rejected(self):
        message = self.exit_message(["evaluate", "--set", "shard_num=abc"])
        assert "'shard_num'" in message and "'abc'" in message

    def test_evaluate_sharded_cached_configuration_end_to_end(self, capsys):
        exit_code = main(
            [
                "evaluate", "--dataset", "glove-small",
                "--set", "shard_num=2",
                "--set", "search_threads=4",
                "--set", "cache_policy=lru",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        rows = dict(
            (cell.strip() for cell in line.split(" | "))
            for line in output.splitlines()
            if " | " in line
        )
        assert rows["shards"] == "2"
        assert rows["search threads"] == "4"
        assert rows["cache policy"] == "lru"

    def test_routing_policy_with_a_single_shard_notes(self, capsys):
        exit_code = main(["evaluate", "--set", "routing_policy=range"])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "note: --set routing_policy has no effect with a single shard" in err

    def test_routing_policy_with_several_shards_has_no_note(self, capsys):
        exit_code = main(
            ["evaluate", "--set", "shard_num=4", "--set", "routing_policy=range"]
        )
        assert exit_code == 0
        assert "note:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--shards", "4"],
            ["evaluate", "--routing-policy", "range"],
            ["evaluate", "--search-threads", "4"],
            ["evaluate", "--cache-policy", "lru"],
            ["evaluate", "--cache-capacity", "64"],
            ["tune-online", "--drift", "filter", "--filter-selectivity", "0.2"],
        ],
        ids=lambda argv: argv[-2],
    )
    def test_configuration_alias_flags_are_gone(self, argv, capsys):
        # Each configuration value has one way in: --set NAME=VALUE
        # (or --severity for the filter drift).
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_evaluate_filtered_search_end_to_end(self, capsys):
        exit_code = main(
            [
                "evaluate",
                "--dataset",
                "glove-small",
                "--index-type",
                "IVF_FLAT",
                "--filter-selectivity",
                "0.2",
                "--set",
                "filter_strategy=pre",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "filter selectivity" in output
        assert "filter rows scanned" in output
        assert "latency p99 (ms)" in output

    @pytest.mark.parametrize("selectivity", ["0.0", "-0.3", "1.5"])
    def test_evaluate_filter_selectivity_out_of_range(self, selectivity, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--filter-selectivity", selectivity])
        assert "--filter-selectivity" in str(excinfo.value)

    def test_evaluate_filter_strategy_without_filter_notes(self, capsys):
        exit_code = main(
            ["evaluate", "--index-type", "IVF_FLAT", "--set", "filter_strategy=post"]
        )
        assert exit_code == 0
        assert "no effect without --filter-selectivity" in capsys.readouterr().err


class TestTuneCommand:
    def test_tune_json_output_is_a_valid_configuration(self, capsys):
        exit_code = main(
            ["tune", "--dataset", "glove-small", "--iterations", "9", "--seed", "1", "--json"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        configuration = json.loads(output)
        assert configuration["index_type"] in {
            "FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_PQ", "HNSW", "SCANN", "AUTOINDEX",
        }

    def test_tune_unreachable_recall_floor_fails(self, monkeypatch):
        # No recall exceeds 1, so the floor is refused before any tuning runs.
        monkeypatch.setattr("repro.cli.VDTuner.run", lambda *args, **kwargs: pytest.fail("the loop ran"))
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--dataset", "glove-small", "--iterations", "8", "--recall-floor", "1.1"])
        assert str(excinfo.value.code).startswith("error: --recall-floor: ")


class TestCompareCommand:
    def test_compare_prints_one_row_per_tuner(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset",
                "glove-small",
                "--iterations",
                "8",
                "--tuners",
                "random",
                "default",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "random" in output
        assert "default" in output


class TestBatchParallelFlags:
    def test_tune_batch_parallel_end_to_end(self, capsys):
        exit_code = main(
            [
                "tune",
                "--dataset",
                "glove-small",
                "--iterations",
                "12",
                "--seed",
                "0",
                "--batch-size",
                "4",
                "--workers",
                "2",
                "--json",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        configuration = json.loads(output)
        assert "index_type" in configuration

    def test_tune_batch_size_without_workers(self, capsys):
        exit_code = main(
            ["tune", "--dataset", "glove-small", "--iterations", "10",
             "--batch-size", "3", "--json"]
        )
        assert exit_code == 0
        assert "index_type" in json.loads(capsys.readouterr().out)

    def test_compare_with_batch_flags(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset",
                "glove-small",
                "--iterations",
                "8",
                "--tuners",
                "random",
                "--batch-size",
                "2",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0
        assert "random" in capsys.readouterr().out


class TestTuneOnlineCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["tune-online"])
        assert args.drift == "shift"
        assert args.steps == 36 and args.retune_budget == 8
        assert not args.cold_restart

    def test_unknown_drift_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune-online", "--drift", "comet", "--steps", "6", "--retune-budget", "3"])
        message = excinfo.value.code
        assert isinstance(message, str) and message.startswith("error:")
        assert "--drift" in message and "'comet'" in message

    def test_tune_online_end_to_end(self, capsys):
        exit_code = main(
            [
                "tune-online",
                "--dataset",
                "glove-small",
                "--drift",
                "shift",
                "--seed",
                "0",
                "--steps",
                "16",
                "--retune-budget",
                "6",
                "--drift-step",
                "11",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "phase" in output
        assert "drift detected" in output or "no drift detected" in output

    def test_tune_online_json_summary(self, capsys):
        exit_code = main(
            [
                "tune-online",
                "--dataset",
                "glove-small",
                "--drift",
                "filter",
                "--severity",
                "0.8",
                "--seed",
                "0",
                "--steps",
                "16",
                "--retune-budget",
                "6",
                "--drift-step",
                "11",
                "--json",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        summary = json.loads(output)
        assert summary["total_steps"] == 16
        assert [p["phase"] for p in summary["phases"]] == [0, 1]

    def test_tune_online_cold_restart_and_batch_flags(self, capsys):
        exit_code = main(
            [
                "tune-online",
                "--dataset",
                "glove-small",
                "--drift",
                "burst",
                "--seed",
                "1",
                "--steps",
                "14",
                "--retune-budget",
                "5",
                "--drift-step",
                "9",
                "--cold-restart",
                "--batch-size",
                "2",
                "--workers",
                "2",
                "--json",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        summary = json.loads(output)
        assert summary["warm_start"] is False
        assert summary["total_steps"] == 14

    def test_static_workload_never_drifts(self, capsys):
        exit_code = main(
            ["tune-online", "--drift", "none", "--steps", "10",
             "--retune-budget", "5", "--json"]
        )
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["detections"] == []
        assert [p["phase"] for p in summary["phases"]] == [0]


class TestScenarioMatrixCommand:
    def test_matrix_table_and_json_output(self, capsys, tmp_path):
        output_path = tmp_path / "matrix.json"
        exit_code = main(
            [
                "scenario-matrix",
                "--dataset",
                "glove-small",
                "--drifts",
                "query_shift",
                "qps_burst",
                "--severities",
                "0.7",
                "--tuners",
                "random",
                "--steps",
                "10",
                "--retune-budget",
                "4",
                "--output",
                str(output_path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "query_shift" in output and "qps_burst" in output
        matrix = json.loads(output_path.read_text(encoding="utf-8"))
        assert len(matrix["cells"]) == 2


class TestFlagValidation:
    """Contradictory flags fail fast with actionable messages (not tracebacks)."""

    def exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        assert isinstance(code, str) and code.startswith("error:"), (
            f"expected an actionable error message, got exit code {code!r}"
        )
        return code

    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            (["tune", "--recall-constraint", "0"], "--recall-constraint"),
            (["tune", "--recall-constraint", "2"], "--recall-constraint"),
            (["tune", "--recall-floor", "2"], "--recall-floor"),
            (["tune", "--recall-floor", "-0.1"], "--recall-floor"),
            (["tune", "--recall-floor", "nan"], "--recall-floor"),
            (["scenario-matrix", "--severities", "2"], "--severities"),
            (["scenario-matrix", "--drifts", "comet"], "--drifts"),
            (["scenario-matrix", "--steps", "0", "--tuners", "random",
              "--drifts", "query_shift", "--severities", "0.5"], "--steps"),
            (["scenario-matrix", "--retune-budget", "0", "--tuners", "random",
              "--drifts", "query_shift", "--severities", "0.5"], "--retune-budget"),
            # The default drift step (7) falls after a 3-step run ends.
            (["scenario-matrix", "--steps", "3", "--tuners", "random",
              "--drifts", "query_shift", "--severities", "0.5"], "--steps"),
            (["compare", "--tuners", "bogus"], "--tuners"),
            (["tune-online", "--tuner", "bogus"], "--tuner"),
            (["scenario-matrix", "--tuners", "bogus"], "--tuners"),
            (["tune-tenants", "--tenant-config", "{config}", "--tuner", "bogus"], "--tuner"),
        ],
    )
    def test_rejects_a_bad_value_naming_its_flag(self, argv, flag, tmp_path, capsys):
        config = tmp_path / "tenants.json"
        config.write_text('{"a": {}}', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main([str(config) if arg == "{config}" else arg for arg in argv])
        code = excinfo.value.code
        err = capsys.readouterr().err
        assert code not in (0, None) and "Traceback" not in err
        assert flag in (code if isinstance(code, str) else err)

    @pytest.mark.parametrize(
        "override",
        ["search_threads=0", "shard_num=999999", "cache_capacity=0", "routing_policy=bogus"],
    )
    def test_evaluate_rejects_out_of_range_override(self, override):
        message = self.exit_message(
            ["evaluate", "--dataset", "glove-small", "--set", override]
        )
        name, value = override.split("=")
        assert f"'{name}'" in message and value in message and "--set" in message

    def test_tune_online_rejects_budget_larger_than_steps(self):
        message = self.exit_message(
            ["tune-online", "--steps", "6", "--retune-budget", "12"]
        )
        assert "--retune-budget" in message and "--steps" in message

    def test_tune_online_rejects_bad_severity(self):
        message = self.exit_message(
            ["tune-online", "--steps", "10", "--retune-budget", "3", "--severity", "1.5"]
        )
        assert "--severity" in message

    def test_tune_online_rejects_drift_step_outside_budget(self):
        message = self.exit_message(
            ["tune-online", "--steps", "10", "--retune-budget", "3", "--drift-step", "40"]
        )
        assert "--drift-step" in message

    def test_tune_online_rejects_zero_batch_size(self):
        message = self.exit_message(
            ["tune-online", "--steps", "10", "--retune-budget", "3", "--batch-size", "0"]
        )
        assert "--batch-size" in message

    def test_tune_rejects_zero_workers(self):
        message = self.exit_message(
            ["tune", "--dataset", "glove-small", "--iterations", "2", "--workers", "0"]
        )
        assert "--workers" in message

    def test_tune_rejects_the_parallel_backend_flag(self, capsys):
        # The process pool is the one tuning executor: no backend to pick.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["tune", "--dataset", "glove-small", "--iterations", "2",
                 "--workers", "2", "--parallel-backend", "thread"]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --parallel-backend thread" in capsys.readouterr().err

    def test_valid_drift_step_inside_budget_still_runs(self, capsys):
        assert main([
            "tune-online", "--steps", "4", "--retune-budget", "2",
            "--drift-step", "3", "--seed", "0",
        ]) == 0
        assert "online tuning" in capsys.readouterr().out


class TestServingCommands:
    """Parse and validation paths of the `serve` / `loadgen` subcommands.

    The served request path itself is covered end to end in
    tests/serving/test_frontend.py; here we pin the CLI surface.
    """

    def exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        assert isinstance(code, str) and code.startswith("error:")
        return code

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8421
        assert args.queue_depth == 64
        assert args.serve_workers == 2
        assert args.preload is None
        assert args.collection_name == "bench"

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.url == "http://127.0.0.1:8421"
        assert args.qps == 50.0
        assert args.duration == 5.0
        assert not args.no_cache and not args.json

    def test_serve_rejects_bad_flags(self):
        assert "--queue-depth" in self.exit_message(["serve", "--queue-depth", "0"])
        assert "--serve-workers" in self.exit_message(["serve", "--serve-workers", "0"])
        assert "--port" in self.exit_message(["serve", "--port", "70000"])
        assert "--default-deadline-ms" in self.exit_message(
            ["serve", "--default-deadline-ms", "0"]
        )
        assert "--drain-timeout" in self.exit_message(["serve", "--drain-timeout", "0"])

    def test_loadgen_rejects_bad_flags(self):
        assert "--qps" in self.exit_message(["loadgen", "--qps", "0"])
        assert "--duration" in self.exit_message(["loadgen", "--duration", "0"])
        assert "--top-k" in self.exit_message(["loadgen", "--top-k", "0"])
        assert "--deadline-ms" in self.exit_message(["loadgen", "--deadline-ms", "-5"])

    def test_loadgen_rejects_a_non_http_url(self):
        message = self.exit_message(
            ["loadgen", "--url", "ftp://x", "--qps", "1", "--duration", "0.1"]
        )
        assert "--url" in message and "'ftp://x'" in message

    def test_loadgen_reports_unreachable_server(self):
        message = self.exit_message(
            ["loadgen", "--url", "http://127.0.0.1:9", "--qps", "1", "--duration", "0.1"]
        )
        assert "repro.cli serve" in message

    def test_serve_loadgen_round_trip(self, capsys):
        import threading

        from repro.cli import _command_serve

        argv = [
            "serve", "--port", "0", "--queue-depth", "16", "--serve-workers", "1",
            "--preload", "glove-small", "--index-type", "FLAT",
        ]
        args = build_parser().parse_args(argv)
        # Drive the serve handler on a thread and stop it the way a process
        # manager would (the SIGTERM handler just sets the same event).
        import repro.serving.server as serving_server

        frontends = []
        original_start = serving_server.ServingFrontend.start

        def capture_start(self):
            frontends.append(self)
            return original_start(self)

        serving_server.ServingFrontend.start = capture_start
        try:
            server_thread = threading.Thread(target=_command_serve, args=(args,))
            server_thread.start()
            for _ in range(600):
                if frontends and frontends[0].started.is_set():
                    break
                threading.Event().wait(0.05)
            assert frontends and frontends[0].started.is_set(), "serve never came up"
            frontend = frontends[0]
            assert main([
                "loadgen", "--url", frontend.url, "--collection", "bench",
                "--qps", "10", "--duration", "1", "--no-cache", "--json",
            ]) == 0
        finally:
            if frontends:
                frontends[0].request_drain()
            server_thread.join(timeout=30.0)
            serving_server.ServingFrontend.start = original_start
        output = capsys.readouterr().out
        report = json.loads(output[output.index("{"):output.index("}") + 1])
        assert report["sent"] > 0
        assert report["served"] == report["sent"]
        assert report["errors"] == 0
        assert "serving on" in output
        assert "drained (complete=True)" in output


class TestDurableCommands:
    """Flag surface of durable serving: `serve --data-dir` and `recover`.

    Recovery behavior itself lives in tests/vdms/test_crash_recovery.py and
    tests/test_recovery_format.py; here we pin parsing, the actionable error
    messages, and the report the `recover` subcommand prints.
    """

    def exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        assert isinstance(code, str) and code.startswith("error:")
        return code

    def fixture_data_dir(self, tmp_path):
        """A scratch `serve --data-dir` layout holding the golden fixture."""
        import pathlib
        import shutil

        fixture = pathlib.Path(__file__).parent / "data" / "recovery_fixture"
        data_dir = tmp_path / "data"
        # Recovery appends to the WAL, so it always runs on a copy.
        shutil.copytree(fixture, data_dir / "golden")
        return data_dir

    def test_serve_durability_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.data_dir is None
        assert args.durability_mode is None

    def test_serve_rejects_unknown_durability_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--durability-mode", "fsync-everything"])

    def test_recover_defaults_and_required_data_dir(self):
        args = build_parser().parse_args(["recover", "--data-dir", "/tmp/x"])
        assert args.collection is None and not args.json
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover"])

    def test_serve_data_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("oops")
        message = self.exit_message(["serve", "--data-dir", str(target)])
        assert "--data-dir" in message and "is a file" in message

    def test_serve_data_dir_that_cannot_be_created(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_text("")
        target = blocker / "sub"
        message = self.exit_message(["serve", "--data-dir", str(target), "--port", "0"])
        assert "--data-dir" in message and str(target) in message

    def test_serve_durability_off_contradicts_data_dir(self, tmp_path):
        message = self.exit_message(
            ["serve", "--durability-mode", "off", "--data-dir", str(tmp_path / "d")]
        )
        assert "contradicts" in message

    def test_serve_wal_modes_require_data_dir(self):
        for mode in ("wal", "wal+checkpoint"):
            message = self.exit_message(["serve", "--durability-mode", mode])
            assert "requires --data-dir" in message

    def test_recover_data_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("oops")
        message = self.exit_message(["recover", "--data-dir", str(target)])
        assert "is a file" in message

    def test_recover_rejects_missing_directory(self, tmp_path):
        message = self.exit_message(
            ["recover", "--data-dir", str(tmp_path / "never-created")]
        )
        assert "does not exist" in message

    def test_recover_rejects_directory_without_state(self, tmp_path):
        (tmp_path / "stray").mkdir()
        message = self.exit_message(["recover", "--data-dir", str(tmp_path)])
        assert "holds no durable collection state" in message

    def test_recover_rejects_unknown_collection(self, tmp_path):
        data_dir = self.fixture_data_dir(tmp_path)
        message = self.exit_message(
            ["recover", "--data-dir", str(data_dir), "--collection", "missing"]
        )
        assert "'missing'" in message and "no durable state" in message

    def empty_wal_data_dir(self, tmp_path):
        """A data dir whose one collection lost everything but an empty WAL."""
        data_dir = tmp_path / "data"
        (data_dir / "broken").mkdir(parents=True)
        (data_dir / "broken" / "wal-000000.log").write_bytes(b"")
        return data_dir

    def test_recover_reports_an_unrecoverable_collection(self, tmp_path):
        data_dir = self.empty_wal_data_dir(tmp_path)
        message = self.exit_message(["recover", "--data-dir", str(data_dir)])
        assert "--data-dir" in message and str(data_dir) in message

    def test_serve_reports_an_unrecoverable_collection(self, tmp_path, monkeypatch):
        import signal

        # Keep the test process's own SIGTERM/SIGINT handlers.
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        data_dir = self.empty_wal_data_dir(tmp_path)
        message = self.exit_message(["serve", "--data-dir", str(data_dir), "--port", "0"])
        assert "--data-dir" in message and str(data_dir) in message

    def test_recover_prints_a_report_table(self, tmp_path, capsys):
        data_dir = self.fixture_data_dir(tmp_path)
        assert main(["recover", "--data-dir", str(data_dir)]) == 0
        output = capsys.readouterr().out
        assert f"recovered from {data_dir}" in output
        assert "golden" in output and "WAL replayed" in output

    def test_recover_json_report_matches_the_fixture(self, tmp_path, capsys):
        data_dir = self.fixture_data_dir(tmp_path)
        assert main(["recover", "--data-dir", str(data_dir), "--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["collection"] == "golden"
        assert report["rows"] == 12
        assert report["dimension"] == 4
        assert report["index_type"] == "FLAT"
        assert report["generation"] == 1
        assert report["segments_loaded"] == 1
        assert report["wal_records_replayed"] == 3
        assert report["wal_bytes_truncated"] == 0


class TestMultiTenantCommands:
    """Flag surface of `serve --tenant-config` and `tune-tenants`.

    Scheduler behavior lives in tests/serving/test_admission.py and the
    budget scheduler in tests/core/test_multi_tenant.py; here we pin
    parsing, tenant-config file validation, and the tune-tenants report.
    """

    def exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        assert isinstance(code, str) and code.startswith("error:")
        return code

    def tenant_config(self, tmp_path, payload) -> str:
        path = tmp_path / "tenants.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload),
            encoding="utf-8",
        )
        return str(path)

    def test_serve_tenant_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenant_config is None

    def test_tune_tenants_parser_defaults(self, tmp_path):
        config = self.tenant_config(tmp_path, {"a": {}})
        args = build_parser().parse_args(["tune-tenants", "--tenant-config", config])
        assert args.steps == 12 and args.retune_budget == 6
        assert args.budget is None
        assert args.tuner == "vdtuner"
        assert args.attained_penalty == 4.0

    def test_tune_tenants_requires_tenant_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune-tenants"])

    def test_serve_rejects_missing_tenant_config(self, tmp_path):
        message = self.exit_message(
            ["serve", "--tenant-config", str(tmp_path / "never.json")]
        )
        assert "--tenant-config" in message and "does not exist" in message

    def test_serve_rejects_malformed_tenant_config(self, tmp_path):
        config = self.tenant_config(tmp_path, "{not json")
        message = self.exit_message(["serve", "--tenant-config", config])
        assert "--tenant-config" in message

    def test_serve_rejects_unknown_tenant_spec_field(self, tmp_path):
        config = self.tenant_config(
            tmp_path, {"tenants": {"a": {"wieght": 2.0}}}
        )
        message = self.exit_message(["serve", "--tenant-config", config])
        assert "'a'" in message and "wieght" in message

    def test_serve_rejects_bad_slo_in_tenant_config(self, tmp_path):
        config = self.tenant_config(
            tmp_path, {"a": {"slo": {"recall_floor": 1.5}}}
        )
        message = self.exit_message(["serve", "--tenant-config", config])
        assert "recall_floor" in message

    @pytest.mark.parametrize("field", ["weight", "queue_depth"])
    def test_serve_rejects_infinite_tenant_fields(self, tmp_path, field):
        # Python's json parses the bare token Infinity.
        config = self.tenant_config(tmp_path, '{"a": {"%s": Infinity}}' % field)
        message = self.exit_message(["serve", "--tenant-config", config])
        assert "'a'" in message and field in message

    def test_tune_tenants_rejects_bad_flags(self, tmp_path):
        config = self.tenant_config(tmp_path, {"a": {}})
        base = ["tune-tenants", "--tenant-config", config]
        assert "--steps" in self.exit_message(base + ["--steps", "0"])
        assert "--retune-budget" in self.exit_message(
            base + ["--steps", "4", "--retune-budget", "9"]
        )
        assert "--budget" in self.exit_message(base + ["--budget", "0"])
        assert "--attained-penalty" in self.exit_message(
            base + ["--attained-penalty", "0.5"]
        )
        missing = self.exit_message(
            ["tune-tenants", "--tenant-config", str(tmp_path / "never.json")]
        )
        assert "--tenant-config" in missing and "does not exist" in missing

    def test_tune_tenants_json_round_trip(self, tmp_path, capsys):
        config = self.tenant_config(
            tmp_path,
            {
                "tenants": {
                    "floored": {"slo": {"recall_floor": 0.5}, "weight": 2.0},
                    "open": {},
                }
            },
        )
        exit_code = main(
            ["tune-tenants", "--tenant-config", config, "--dataset", "glove-small",
             "--steps", "6", "--retune-budget", "3", "--seed", "0", "--json"]
        )
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0, "a 0.5 floor on glove-small should be attainable"
        assert set(summary["tenants"]) == {"floored", "open"}
        assert summary["budget"]["total"] == 12
        assert summary["budget"]["used"] == sum(
            entry["evaluations"] for entry in summary["tenants"].values()
        )
        for entry in summary["tenants"].values():
            assert entry["attained"] is True
            assert entry["incumbent"] is not None

    def test_tune_tenants_table_flags_missed_slo(self, tmp_path, capsys):
        # An impossible latency target can never be attained, so the command
        # must exit non-zero and say which tenant is out of contract.
        config = self.tenant_config(
            tmp_path,
            {"doomed": {"slo": {"recall_floor": 0.1, "p99_latency_ms": 1e-9}}},
        )
        exit_code = main(
            ["tune-tenants", "--tenant-config", config, "--dataset", "glove-small",
             "--steps", "5", "--retune-budget", "3", "--seed", "0"]
        )
        output = capsys.readouterr()
        assert exit_code == 1
        assert "doomed" in output.out and "NO" in output.out
        assert "warning" in output.err and "doomed" in output.err
