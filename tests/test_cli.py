"""Tests for the command-line interface."""

import argparse
import json
import re

import pytest

from repro.cli import build_parser, main


def _shutdown_stats(err: str) -> dict:
    """The serve shutdown JSON object — the last JSON line on stderr."""
    for line in reversed(err.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no shutdown JSON on stderr: {err!r}")


@pytest.fixture()
def biosql_dump(tmp_path):
    path = tmp_path / "dump"
    assert main(["generate", "biosql", str(path), "--scale", "tiny"]) == 0
    return path


class TestGenerate:
    def test_generate_writes_csvs(self, tmp_path, capsys):
        path = tmp_path / "scop"
        assert main(["generate", "scop", str(path), "--scale", "tiny"]) == 0
        assert (path / "scop_cla.csv").exists()
        assert (path / "_schema.json").exists()
        out = capsys.readouterr().out
        assert "4 tables" in out

    def test_generate_seed(self, tmp_path):
        main(["generate", "scop", str(tmp_path / "a"), "--scale", "tiny",
              "--seed", "1"])
        main(["generate", "scop", str(tmp_path / "b"), "--scale", "tiny",
              "--seed", "1"])
        assert (
            (tmp_path / "a" / "scop_cla.csv").read_text()
            == (tmp_path / "b" / "scop_cla.csv").read_text()
        )

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nosuch", str(tmp_path / "x")])


class TestProfile:
    def test_profile_lists_columns(self, biosql_dump, capsys):
        assert main(["profile", str(biosql_dump)]) == 0
        out = capsys.readouterr().out
        assert "sg_bioentry.accession" in out
        assert "unique" in out

    def test_missing_directory_is_error(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiscover:
    def test_discover_prints_inds(self, biosql_dump, capsys):
        assert main(["discover", str(biosql_dump)]) == 0
        out = capsys.readouterr().out
        assert "satisfied INDs" in out
        assert "sg_biosequence.bioentry_id [= sg_bioentry.bioentry_id" in out

    def test_discover_json(self, biosql_dump, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        assert main(
            ["discover", str(biosql_dump), "--json", str(json_path)]
        ) == 0
        doc = json.loads(json_path.read_text())
        assert doc["satisfied_count"] > 0

    def test_discover_strategy_flag(self, biosql_dump, capsys):
        assert main(
            ["discover", str(biosql_dump), "--strategy", "brute-force"]
        ) == 0
        assert "strategy=brute-force" in capsys.readouterr().out

    def test_discover_transitivity_with_batch_strategy_is_error(
        self, biosql_dump, capsys
    ):
        assert main(
            ["discover", str(biosql_dump), "--strategy", "single-pass",
             "--transitivity"]
        ) == 2
        assert "sequential" in capsys.readouterr().err

    def test_discover_export_workers_flag(self, biosql_dump, capsys):
        """Export runs on one thread, so the flag is refused, not ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["discover", str(biosql_dump), "--export-workers", "4"])
        assert exc.value.code == 2
        assert "--export-workers" in capsys.readouterr().err

    def test_discover_rejects_bad_workers(self, biosql_dump, capsys):
        assert main(
            ["discover", str(biosql_dump), "--validation-workers", "0"]
        ) == 2
        assert "validation_workers" in capsys.readouterr().err

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_discover_compression_flag(
        self, biosql_dump, tmp_path, capsys, compression
    ):
        docs = []
        for name, extra in (
            ("default", ()),
            ("leg", ("--spool-compression", compression)),
        ):
            json_path = tmp_path / f"{name}.json"
            assert main(
                ["discover", str(biosql_dump), *extra, "--json", str(json_path)]
            ) == 0
            assert "satisfied INDs" in capsys.readouterr().out
            docs.append(json.loads(json_path.read_text()))
        # Compression changes no answer, nor the logical I/O the validator
        # reports.
        default, leg = docs
        assert leg["satisfied"] == default["satisfied"]
        assert leg["validator"]["items_read"] == default["validator"]["items_read"]


class TestSpoolInspect:
    def _keep_spool(self, biosql_dump, tmp_path, **config_kwargs):
        from repro.core.runner import DiscoveryConfig, discover_inds
        from repro.db.csvio import load_csv_directory

        spool_dir = tmp_path / "spool"
        discover_inds(
            load_csv_directory(str(biosql_dump)),
            DiscoveryConfig(
                spool_dir=str(spool_dir), keep_spool=True, **config_kwargs
            ),
        )
        return spool_dir

    def test_inspect_compressed_spool(self, biosql_dump, tmp_path, capsys):
        spool_dir = self._keep_spool(
            biosql_dump, tmp_path, spool_compression="zlib"
        )
        assert main(["spool", "inspect", str(spool_dir)]) == 0
        out = capsys.readouterr().out
        assert "frame v3 (binary)" in out
        assert "compression zlib" in out
        assert "sg_bioentry.accession" in out
        assert "compression:" in out and "stored payload bytes" in out

    def test_inspect_uncompressed_binary_spool(
        self, biosql_dump, tmp_path, capsys
    ):
        spool_dir = self._keep_spool(biosql_dump, tmp_path)
        assert main(["spool", "inspect", str(spool_dir)]) == 0
        out = capsys.readouterr().out
        assert "frame v2 (binary)" in out
        assert "compression none" in out
        # Uncompressed indexes carry no byte counts — no ratio line.
        assert "stored payload bytes" not in out

    def test_inspect_missing_directory_is_error(self, tmp_path, capsys):
        assert main(["spool", "inspect", str(tmp_path / "nope")]) == 2
        assert "not a spool directory" in capsys.readouterr().err


class TestAccession:
    def test_accession_strict(self, biosql_dump, capsys):
        assert main(["accession", str(biosql_dump)]) == 0
        out = capsys.readouterr().out
        assert "sg_bioentry.accession" in out
        assert "sg_reference.crc" in out

    def test_accession_no_candidates(self, tmp_path, capsys):
        d = tmp_path / "plain"
        d.mkdir()
        (d / "t.csv").write_text("a\n1\n2\n")
        assert main(["accession", str(d)]) == 0
        assert "no accession-number candidates" in capsys.readouterr().out


class TestPipeline:
    def test_pipeline_single_source(self, biosql_dump, capsys):
        assert main(["pipeline", str(biosql_dump)]) == 0
        out = capsys.readouterr().out
        assert "primary relation shortlist: sg_bioentry" in out
        assert "FK guess" in out

    def test_pipeline_surrogate_filter_toggle(self, biosql_dump, capsys):
        assert main(
            ["pipeline", str(biosql_dump), "--no-surrogate-filter"]
        ) == 0
        assert "surrogate filter" not in capsys.readouterr().out


class TestHelpText:
    """The PR 2 flags must state their defaults and interactions (self-doc)."""

    def _discover_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["discover", "--help"])
        # argparse wraps help text at terminal width; normalise so the
        # assertions are about content, not line breaks.
        return " ".join(capsys.readouterr().out.split())

    def test_validation_workers_help_states_default_and_scope(self, capsys):
        out = self._discover_help(capsys)
        assert "--validation-workers" in out
        assert "1 (the default)" in out
        assert "brute-force and merge-single-pass" in out

    def test_reuse_spool_and_cache_dir_help_state_interaction(self, capsys):
        out = self._discover_help(capsys)
        assert "default: off" in out
        assert "only consulted with --reuse-spool" in out
        assert "repro-ind/spools" in out  # the actual default path is shown

    def test_serve_and_cache_are_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "serve" in out
        assert "cache" in out

    def test_every_flag_named_in_help_exists(self, cli_parsers):
        """A help, description or epilog names only flags that exist.

        Walks the root parser and every subparser; each ``--flag`` in any
        of their texts must be an option of some parser, so help cannot
        send a reader to a flag that was never added or was removed.
        """
        options: set[str] = set()
        texts: list[str] = []
        for parser in cli_parsers:
            texts += [parser.description or "", parser.epilog or ""]
            for action in parser._actions:
                options.update(action.option_strings)
                texts.append(action.help or "")
                if isinstance(action, argparse._SubParsersAction):
                    texts += [c.help or "" for c in action._choices_actions]
        named = {
            flag
            for text in texts
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)
        }
        assert named, "the walk found no flag in any help text"
        assert named - options == set()


class TestServe:
    def _serve(self, monkeypatch, capsys, lines, *extra_args):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        code = main(["serve", *extra_args])
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        return code, responses, captured.err

    def test_two_requests_share_one_session(
        self, biosql_dump, tmp_path, monkeypatch, capsys
    ):
        request = json.dumps({"directory": str(biosql_dump)}) + "\n"
        code, responses, err = self._serve(
            monkeypatch,
            capsys,
            [request, request],
            "--validation-workers", "2",
            "--reuse-spool", "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert len(responses) == 2
        assert responses[0]["satisfied"] == responses[1]["satisfied"]
        assert responses[0]["satisfied_count"] > 0
        assert not responses[0]["spool_cache_hit"]
        assert responses[1]["spool_cache_hit"]
        shutdown = _shutdown_stats(err)
        assert shutdown["event"] == "serve-shutdown"
        assert shutdown["requests"] == 2
        assert shutdown["pool"]["spool_handle_reuses"] > 0, \
            "second request must find warm spool handles"

    def test_response_carries_bytes_counters(
        self, biosql_dump, monkeypatch, capsys
    ):
        request = json.dumps({"directory": str(biosql_dump)}) + "\n"
        code, responses, _ = self._serve(monkeypatch, capsys, [request])
        assert code == 0
        (response,) = responses
        # Binary spools (the default) charge decoded payload bytes.
        assert response["bytes_read"] > 0
        assert response["bytes_stored"] > 0
        assert "engine_choice" not in response

    def test_bad_request_answers_error_and_keeps_serving(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            "not json\n",
            json.dumps({"no_directory": True}) + "\n",
            json.dumps({"directory": str(biosql_dump)}) + "\n",
        ]
        code, responses, err = self._serve(monkeypatch, capsys, lines)
        assert code == 0
        assert "error" in responses[0]
        assert "error" in responses[1]
        assert responses[2]["satisfied_count"] > 0

    @pytest.mark.parametrize(
        "request_doc, message",
        [
            ({"directory": 5}, "'directory' must be a string, got 5"),
            (
                {"directory": "DUMP", "validation_workers": "2"},
                "'validation_workers' must be an integer, got '2'",
            ),
            (
                {"directory": "DUMP", "validation_workers": True},
                "'validation_workers' must be an integer, got True",
            ),
            ({"directory": "DUMP", "strategy": 1}, "'strategy' must be a string"),
            (
                {"directory": "DUMP", "candidate_mode": None},
                "'candidate_mode' must be a string",
            ),
            (
                {"directory": "DUMP", "trace": "false"},
                "'trace' must be a boolean, got 'false'",
            ),
        ],
        ids=[
            "directory",
            "workers-str",
            "workers-bool",
            "strategy",
            "mode",
            "trace-str",
        ],
    )
    def test_mistyped_request_is_a_bad_request_under_its_id(
        self, biosql_dump, monkeypatch, capsys, request_doc, message
    ):
        request_doc = {
            key: str(biosql_dump) if value == "DUMP" else value
            for key, value in request_doc.items()
        }
        lines = [
            json.dumps({**request_doc, "id": "typo"}) + "\n",
            json.dumps(request_doc) + "\n",
        ]
        code, responses, err = self._serve(monkeypatch, capsys, lines)
        assert code == 0
        by_id = {response["id"]: response for response in responses}
        assert set(by_id) == {"typo", "line-2"}
        for response in by_id.values():
            assert response["error"].startswith("bad request: ")
            assert message in response["error"]
        shutdown = _shutdown_stats(err)
        assert (shutdown["requests"], shutdown["errors"]) == (0, 2)

    def test_request_can_override_strategy(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            json.dumps(
                {"directory": str(biosql_dump), "strategy": "merge-single-pass"}
            )
            + "\n",
        ]
        code, responses, _ = self._serve(monkeypatch, capsys, lines)
        assert code == 0
        assert responses[0]["strategy"] == "merge-single-pass"

    def test_quit_stops_the_loop(self, biosql_dump, monkeypatch, capsys):
        lines = ["quit\n", json.dumps({"directory": str(biosql_dump)}) + "\n"]
        code, responses, _ = self._serve(monkeypatch, capsys, lines)
        assert code == 0
        assert responses == []

    def test_responses_carry_request_ids_and_pool_stats(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            json.dumps({"directory": str(biosql_dump), "id": "mine"}) + "\n",
            json.dumps({"directory": str(biosql_dump)}) + "\n",
            "not json\n",
        ]
        code, responses, _ = self._serve(
            monkeypatch, capsys, lines, "--validation-workers", "2"
        )
        assert code == 0
        by_id = {r["id"]: r for r in responses}
        # Explicit id, then namespaced line fallbacks (never a bare ordinal,
        # which could collide with a client-chosen integer id).
        assert set(by_id) == {"mine", "line-2", "line-3"}
        assert "error" in by_id["line-3"]
        # Per-request pool stats: each request ran its own job on the pool.
        assert by_id["mine"]["pool"]["jobs"] == 1
        assert by_id["mine"]["pool"]["tasks_by_kind"].keys() == {"brute-force"}

    def test_rejects_bad_max_inflight(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--max-inflight", "0"]) == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_stats_request_returns_metrics_and_trace_ids(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            json.dumps({"directory": str(biosql_dump), "id": "d1"}) + "\n",
            json.dumps({"kind": "stats", "id": "s1"}) + "\n",
        ]
        code, responses, _ = self._serve(
            monkeypatch, capsys, lines, "--validation-workers", "2"
        )
        assert code == 0
        by_id = {r["id"]: r for r in responses}
        # Every discovery response carries a per-request trace id ...
        assert isinstance(by_id["d1"]["trace_id"], str)
        assert "trace" not in by_id["d1"]  # ... but not the tree, untraced
        # ... and the stats kind answers with the metrics snapshot.
        stats = by_id["s1"]
        assert stats["kind"] == "stats"
        counters = stats["metrics"]["counters"]
        assert counters["pool_tasks_total{kind=brute-force}"] > 0
        assert stats["pool"]["tasks_completed"] > 0
        assert "validate_seconds" in stats["metrics"]["histograms"]

    def test_request_can_opt_into_full_trace(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            json.dumps(
                {"directory": str(biosql_dump), "id": "t1", "trace": True}
            )
            + "\n",
        ]
        code, responses, _ = self._serve(monkeypatch, capsys, lines)
        assert code == 0
        trace = responses[0]["trace"]
        assert trace["trace_id"] == responses[0]["trace_id"]
        names = {span["name"] for span in trace["spans"]}
        assert "discover" in names and "validate" in names

    def test_request_can_opt_out_of_the_full_trace(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            json.dumps(
                {"directory": str(biosql_dump), "id": "t0", "trace": False}
            )
            + "\n",
        ]
        code, responses, _ = self._serve(monkeypatch, capsys, lines)
        assert code == 0
        (response,) = responses
        assert response["id"] == "t0"
        assert "error" not in response
        assert "trace" not in response
        assert isinstance(response["trace_id"], str)


class TestTraceDump:
    def _traced_result(self, biosql_dump, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main([
            "discover", str(biosql_dump), "--strategy", "brute-force",
            "--validation-workers", "2", "--trace", "--json", str(out),
        ]) == 0
        assert "coverage=" in capsys.readouterr().out
        return out

    def test_dump_chrome_format(self, biosql_dump, tmp_path, capsys):
        result = self._traced_result(biosql_dump, tmp_path, capsys)
        target = tmp_path / "trace.json"
        assert main([
            "trace", "dump", str(result), "-o", str(target),
        ]) == 0
        assert "spans written" in capsys.readouterr().out
        events = json.loads(target.read_text())
        assert events and all(e["ph"] == "X" for e in events)
        assert {e["name"] for e in events} >= {"discover", "validate"}
        # Worker-stamped task spans land in their own pid lanes.
        assert len({e["pid"] for e in events}) > 1

    def test_dump_json_format_to_stdout(self, biosql_dump, tmp_path, capsys):
        result = self._traced_result(biosql_dump, tmp_path, capsys)
        assert main(["trace", "dump", str(result), "--format", "json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["clock"] == "monotonic"
        assert trace["spans"]

    def test_dump_accepts_bare_trace_object(
        self, biosql_dump, tmp_path, capsys
    ):
        result = self._traced_result(biosql_dump, tmp_path, capsys)
        bare = tmp_path / "bare.json"
        assert main([
            "trace", "dump", str(result), "--format", "json",
            "-o", str(bare),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "dump", str(bare), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["spans"]

    def test_dump_untraced_result_is_an_error(
        self, biosql_dump, tmp_path, capsys
    ):
        out = tmp_path / "untraced.json"
        assert main([
            "discover", str(biosql_dump), "--json", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "dump", str(out)]) == 2
        assert "no trace" in capsys.readouterr().err

    def test_dump_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "dump", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestLogging:
    def test_log_level_configures_repro_logger_idempotently(self):
        import logging

        from repro.cli import _configure_logging

        logger = logging.getLogger("repro")
        before_handlers = list(logger.handlers)
        before_level = logger.level
        try:
            _configure_logging("debug")
            assert logger.level == logging.DEBUG
            first = [
                h for h in logger.handlers if h not in before_handlers
            ]
            _configure_logging("warning")
            assert logger.level == logging.WARNING
            # Repeated configuration never stacks a second handler.
            assert [
                h for h in logger.handlers if h not in before_handlers
            ] == first
        finally:
            logger.setLevel(before_level)
            for handler in list(logger.handlers):
                if handler not in before_handlers:
                    logger.removeHandler(handler)

    def test_pool_lifecycle_events_are_logged(self, biosql_dump, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.parallel.pool"):
            assert main([
                "discover", str(biosql_dump), "--strategy", "brute-force",
                "--validation-workers", "2",
            ]) == 0
        spawns = [
            r for r in caplog.records
            if r.name == "repro.parallel.pool" and "spawned" in r.message
        ]
        assert len(spawns) == 2


class TestServeConcurrent:
    """Overlapping requests over one warm pool answer exactly like serial."""

    def _serve(self, monkeypatch, capsys, lines, *extra_args):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        code = main(["serve", *extra_args])
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        return code, responses, captured.err

    def test_overlapping_requests_agree_with_serial_by_id(
        self, biosql_dump, monkeypatch, capsys
    ):
        lines = [
            json.dumps({"directory": str(biosql_dump), "id": "r1"}) + "\n",
            json.dumps(
                {
                    "directory": str(biosql_dump),
                    "id": "r2",
                    "strategy": "merge-single-pass",
                }
            )
            + "\n",
            json.dumps({"directory": str(biosql_dump), "id": "r3"}) + "\n",
        ]
        runs = {}
        for label, inflight in (("serial", "1"), ("concurrent", "3")):
            code, responses, err = self._serve(
                monkeypatch,
                capsys,
                lines,
                "--validation-workers", "2",
                "--max-inflight", inflight,
            )
            assert code == 0
            shutdown = _shutdown_stats(err)
            assert shutdown["max_inflight"] == int(inflight)
            assert shutdown["requests"] == 3
            runs[label] = {r["id"]: r for r in responses}
        assert set(runs["serial"]) == set(runs["concurrent"]) == {
            "r1", "r2", "r3",
        }
        for request_id in runs["serial"]:
            serial = dict(runs["serial"][request_id])
            concurrent = dict(runs["concurrent"][request_id])
            # Timing, pool-placement counters, and per-request trace ids
            # legitimately differ between the two modes; everything the
            # request *answers* must be byte-identical.
            for volatile in ("seconds", "pool", "trace_id"):
                serial.pop(volatile), concurrent.pop(volatile)
            assert serial == concurrent, f"request {request_id} diverges"


class TestServeSignals:
    """SIGINT/SIGTERM drain in-flight work instead of orphaning workers."""

    @pytest.mark.parametrize("signum_name", ["SIGINT", "SIGTERM"])
    def test_signal_drains_and_exits_cleanly(
        self, biosql_dump, tmp_path, signum_name
    ):
        import os
        import pathlib
        import signal as signal_module
        import subprocess
        import sys as sys_module

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.Popen(
            [
                sys_module.executable, "-m", "repro.cli", "serve",
                "--validation-workers", "2", "--max-inflight", "2",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(repo_root),
            env=env,
        )
        try:
            proc.stdin.write(
                json.dumps({"directory": str(biosql_dump), "id": "one"}) + "\n"
            )
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["id"] == "one"
            assert response["satisfied_count"] > 0
            proc.send_signal(getattr(signal_module, signum_name))
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        shutdown = _shutdown_stats(err)
        assert shutdown["event"] == "serve-shutdown"
        assert shutdown["drained-on-signal"] == signum_name
        assert shutdown["requests"] == 1

    def test_second_signal_falls_through_to_default(self, tmp_path):
        """The drain restores the old handlers before waiting (escape hatch)."""
        import signal as signal_module

        from repro.cli import _serve_signal_handlers

        old_int = signal_module.getsignal(signal_module.SIGINT)
        old_term = signal_module.getsignal(signal_module.SIGTERM)
        previous = _serve_signal_handlers()
        try:
            assert previous[signal_module.SIGINT] is old_int
            assert previous[signal_module.SIGTERM] is old_term
            assert signal_module.getsignal(signal_module.SIGINT) is not old_int
        finally:
            for signum, handler in previous.items():
                signal_module.signal(signum, handler)
        assert signal_module.getsignal(signal_module.SIGINT) is old_int
        assert signal_module.getsignal(signal_module.SIGTERM) is old_term


class TestCacheCommand:
    def _warm_cache(self, dump, cache_dir):
        assert main([
            "discover", str(dump), "--strategy", "brute-force",
            "--reuse-spool", "--cache-dir", str(cache_dir),
        ]) == 0

    def test_list_shows_entries_then_evict_all_empties(
        self, biosql_dump, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        self._warm_cache(biosql_dump, cache_dir)
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "binary" in out
        assert "total: 1 entries" in out
        assert "eviction order" in out
        assert main(
            ["cache", "evict", "--cache-dir", str(cache_dir), "--all"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 1 entries" in out
        assert main(["cache", "list", "--cache-dir", str(cache_dir)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_evict_by_budget_and_fingerprint(
        self, biosql_dump, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        self._warm_cache(biosql_dump, cache_dir)
        capsys.readouterr()
        assert main([
            "cache", "evict", "--cache-dir", str(cache_dir),
            "--max-bytes", "1000000000",
        ]) == 0
        assert "evicted 0 entries" in capsys.readouterr().out
        assert main(["cache", "list", "--cache-dir", str(cache_dir)]) == 0
        fingerprint = capsys.readouterr().out.splitlines()[1].split()[0]
        assert main([
            "cache", "evict", "--cache-dir", str(cache_dir),
            "--fingerprint", fingerprint[:10],
        ]) == 0
        assert "evicted 1 entries" in capsys.readouterr().out

    def test_evict_requires_exactly_one_selector(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "evict", "--cache-dir", str(tmp_path)])


class TestPipelineFlags:
    """Removed pipeline flags and router surface exit 2; serve idle reaping."""

    @pytest.mark.parametrize("command", ("discover", "serve"))
    @pytest.mark.parametrize(
        "flag", ("--parallel-export", "--parallel-pretest")
    )
    def test_removed_pipeline_flags_exit_2(
        self, command, flag, biosql_dump, capsys
    ):
        args = [command, flag]
        if command == "discover":
            args.insert(1, str(biosql_dump))
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        (
            ("discover", "DUMP", "--strategy", "adaptive"),
            ("serve", "--strategy", "adaptive"),
            ("calibrate",),
        ),
        ids=("discover-adaptive", "serve-adaptive", "subcommand"),
    )
    def test_removed_router_surface_exits_2(self, args, biosql_dump, capsys):
        # The cost-model router's strategy and its subcommand are gone;
        # argparse rejects each by name.
        argv = [str(biosql_dump) if arg == "DUMP" else arg for arg in args]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert args[-1] in capsys.readouterr().err

    def test_serve_idle_reap_drains_fleet_between_requests(
        self, biosql_dump, monkeypatch, capsys
    ):
        """``--idle-reap-seconds 0`` reaps after every request; answers hold."""
        import io

        request = json.dumps({"directory": str(biosql_dump)}) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(request + request))
        assert main([
            "serve", "--strategy", "brute-force", "--validation-workers", "2",
            "--idle-reap-seconds", "0",
        ]) == 0
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        assert len(responses) == 2
        assert responses[0]["satisfied"] == responses[1]["satisfied"]
        assert responses[0]["satisfied_count"] > 0
        # Both requests reaped their 2 workers; the second respawned a
        # full fleet first (4 spawned overall, none counted as deaths).
        shutdown = _shutdown_stats(captured.err)
        assert shutdown["pool"]["workers_reaped"] == 4
        assert shutdown["pool"]["workers_spawned"] == 4
        assert shutdown["pool"]["workers_replaced"] == 0


class TestBrokenPipe:
    """A reader that closes stdout early ends a command quietly, with the
    status a shell reports for ``yes | head -1``."""

    @staticmethod
    def _first_line_then_close(args: list[str]) -> tuple[str, int, str]:
        import os
        import pathlib
        import subprocess
        import sys as sys_module

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.Popen(
            [sys_module.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        return first, proc.returncode, err

    def test_cache_list_into_a_closed_pipe(self, tmp_path):
        # A listing far longer than a pipe holds, so the writer is still
        # printing when the reader goes.
        cache_dir = tmp_path / "cache"
        for i in range(2000):
            entry = cache_dir / f"{i:032x}-binary-4096"
            entry.mkdir(parents=True)
            (entry / "index.json").write_text(
                '{"version": 2, "format": "binary", "block_size": 4096}'
            )
        first, status, err = self._first_line_then_close(
            ["cache", "list", "--cache-dir", str(cache_dir)]
        )
        assert first.startswith("fingerprint")
        assert status == 141, err
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_watch_into_a_closed_pipe_drains_its_pool(self, biosql_dump):
        """Unbounded rounds: the round after the reader left fails to
        print, and the session's two workers drain before the exit."""
        first, status, err = self._first_line_then_close(
            [
                "watch", str(biosql_dump), "--rounds", "0",
                "--interval", "0.1", "--strategy", "brute-force",
                "--validation-workers", "2",
            ]
        )
        assert json.loads(first)["round"] == 1
        assert status == 141, err
        assert "Traceback" not in err


class TestCacheOrphans:
    def test_list_surfaces_orphans_and_evict_reclaims_them(
        self, tmp_path, capsys
    ):
        from repro.storage.spool_cache import SpoolCache

        cache_dir = tmp_path / "cache"
        SpoolCache(cache_dir).prepare("f" * 64)  # crashed-export shape
        assert main(["cache", "list", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "orphans: 1 in-progress/abandoned temp dirs" in out
        assert "staging" in out
        assert "evict --orphans" in out
        assert main(
            ["cache", "evict", "--cache-dir", str(cache_dir), "--orphans"]
        ) == 0
        assert "evicted 1 entries" in capsys.readouterr().out
        assert main(["cache", "list", "--cache-dir", str(cache_dir)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_orphan_eviction_is_exclusive_with_other_selectors(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "cache", "evict", "--cache-dir", str(tmp_path),
                "--orphans", "--all",
            ])


class TestIncrementalCli:
    def test_discover_incremental_first_run_reports_full(
        self, biosql_dump, capsys
    ):
        assert main(["discover", str(biosql_dump), "--incremental"]) == 0
        assert "delta: full run (no-prior)" in capsys.readouterr().out

    def test_discover_incremental_rejects_transitivity(
        self, biosql_dump, capsys
    ):
        assert main(
            ["discover", str(biosql_dump), "--incremental", "--transitivity"]
        ) == 2
        assert "transitivity" in capsys.readouterr().err

    def test_watch_rounds_emit_delta_accounting(self, biosql_dump, capsys):
        assert main(
            ["watch", str(biosql_dump), "--rounds", "2", "--interval", "0"]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert [line["round"] for line in lines] == [1, 2]
        assert lines[0]["delta"] == {"mode": "full", "reason": "no-prior"}
        assert lines[1]["delta"]["mode"] == "delta"
        assert lines[1]["delta"]["attributes_changed"] == 0
        assert lines[1]["delta"]["candidates_revalidated"] == 0
        assert lines[1]["satisfied"] == lines[0]["satisfied"]
        assert lines[1]["satisfied_count"] > 0

    def test_watch_picks_up_mutations_between_rounds(
        self, biosql_dump, monkeypatch, capsys
    ):
        """The poll loop's sleep is the mutation window: drop one CSV row."""
        target = max(
            biosql_dump.glob("*.csv"),
            key=lambda p: len(p.read_text().splitlines()),
        )

        def mutate(_seconds):
            rows = target.read_text().splitlines()
            target.write_text("\n".join(rows[:-1]) + "\n")

        monkeypatch.setattr("repro.cli.time.sleep", mutate)
        assert main(
            ["watch", str(biosql_dump), "--rounds", "2", "--interval", "1"]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        delta = lines[1]["delta"]
        assert delta["mode"] == "delta"
        assert delta["attributes_changed"] >= 1
        assert delta["decisions_reused"] >= 1, (
            "a one-table edit must not revalidate the whole candidate set"
        )

    def test_watch_rejects_negative_rounds(self, biosql_dump, capsys):
        assert main(
            ["watch", str(biosql_dump), "--rounds", "-1"]
        ) == 2
        assert "--rounds" in capsys.readouterr().err


class TestServeDelta:
    def test_response_carries_null_delta_without_incremental(
        self, biosql_dump, monkeypatch, capsys
    ):
        import io

        request = json.dumps({"directory": str(biosql_dump)}) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(request))
        assert main(["serve"]) == 0
        (response,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert response["delta"] is None

    def test_incremental_serve_reports_delta_per_request(
        self, biosql_dump, monkeypatch, capsys
    ):
        import io

        request = json.dumps({"directory": str(biosql_dump)}) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(request + request))
        assert main(["serve", "--incremental"]) == 0
        first, second = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert first["delta"] == {"mode": "full", "reason": "no-prior"}
        assert second["delta"]["mode"] == "delta"
        assert second["delta"]["attributes_changed"] == 0
        assert second["satisfied"] == first["satisfied"]
