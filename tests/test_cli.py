"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.test_io_properties import HOSTILE_EDITS, mutated


@pytest.fixture(scope="module")
def project_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "project.json"
    assert main(["export-demo", str(path)]) == 0
    return path


class TestInputs:
    def test_inputs_prints_tables(self, capsys):
        assert main(["inputs"]) == 0
        out = capsys.readouterr().out
        assert "add1" in out and "mul3" in out
        assert "311.02" in out  # Table 2 package dimensions


class TestDemo:
    def test_demo_experiment1(self, capsys):
        assert main(["demo", "--experiment", "1", "--partitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "Initiation interval" in out
        assert "Partition P1" in out

    def test_demo_experiment2_enumeration(self, capsys):
        assert main(
            [
                "demo", "--experiment", "2", "--partitions", "3",
                "--heuristic", "enumeration",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "16" in out  # the Table 6 crossover II


class TestProjectCommands:
    def test_export_demo_writes_valid_json(self, project_file):
        data = json.loads(project_file.read_text())
        assert set(data) >= {
            "graph", "library", "clocks", "criteria", "chips",
            "partitions",
        }

    def test_check(self, project_file, capsys):
        assert main(["check", str(project_file)]) == 0
        out = capsys.readouterr().out
        assert "Initiation interval" in out
        assert "Chip occupancy" in out

    def test_predict(self, project_file, capsys):
        assert main(
            ["predict", str(project_file), "--partition", "P1",
             "--limit", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "predicted implementations" in out
        assert "mW" in out

    def test_predict_limit_zero_lists_all(self, project_file, capsys):
        assert main(
            ["predict", str(project_file), "--partition", "P1",
             "--limit", "0"]
        ) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.startswith(f"{len(rows)} predicted implementations")
        assert not any("more" in row for row in rows)

    def test_predict_unknown_partition_errors(self, project_file,
                                              capsys):
        assert main(
            ["predict", str(project_file), "--partition", "P9"]
        ) == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_check_missing_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["check", str(missing)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_check_invalid_json_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "invalid project JSON" in err

    @pytest.mark.parametrize("command", ["check", "explain", "report"])
    @pytest.mark.parametrize("raw", [
        b'{"graph": "\xff\xfe"}',
        b'{"graph": ' + b"1" * 5000 + b"}",
        b"[" * 100_000,
    ], ids=["non-utf8", "5000-digits", "nested-arrays"])
    def test_unparsable_project_file_errors(
        self, tmp_path, capsys, command, raw
    ):
        # Bytes the JSON parser rejects with something other than a
        # JSONDecodeError still exit 3 through the one project loader.
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main([command, str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid project JSON")

    def test_check_malformed_document_errors(self, tmp_path, capsys,
                                             project_file):
        # Well-formed JSON, structurally broken document: a partition
        # entry missing its chip must not surface a raw KeyError.
        data = json.loads(project_file.read_text())
        del data["partitions"][0]["chip"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        assert main(["check", str(broken)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "malformed project document" in err

        # Non-finite numbers and non-string names.
        for path, value in HOSTILE_EDITS:
            broken.write_text(json.dumps(mutated(data, path, value)))
            assert main(["check", str(broken)]) == 3, (path, value)
            err = capsys.readouterr().err
            assert "malformed project document" in err, (path, value)

    def test_export_demo_prints_fingerprint(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["export-demo", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "fingerprint sha256:" in stdout
        from repro.io.project import project_fingerprint

        digest = stdout.split("sha256:")[1].strip()
        assert digest == project_fingerprint(
            json.loads(out.read_text())
        )


class TestCompile:
    def test_compile_example_specs(self, tmp_path, capsys):
        for spec in ("biquad", "moving_average"):
            out_path = tmp_path / f"{spec}.json"
            assert main(
                ["compile", f"examples/specs/{spec}.chop",
                 "-o", str(out_path)]
            ) == 0
            data = json.loads(out_path.read_text())
            assert data["operations"]

    def test_compile_to_stdout(self, tmp_path, capsys):
        spec = tmp_path / "t.chop"
        spec.write_text("input x\ny = x + x\noutput y\n")
        assert main(["compile", str(spec)]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["outputs"] == ["y"]

    def test_compiled_spec_loads_as_project_graph(self, tmp_path):
        spec = tmp_path / "t.chop"
        spec.write_text(
            "graph tiny\ninput a, b\ny = a * b\noutput y\n"
        )
        out_path = tmp_path / "t.json"
        assert main(["compile", str(spec), "-o", str(out_path)]) == 0
        from repro.io.graphs import graph_from_dict

        graph = graph_from_dict(json.loads(out_path.read_text()))
        assert graph.name == "tiny"

    def test_compile_bad_spec_errors(self, tmp_path, capsys):
        spec = tmp_path / "bad.chop"
        spec.write_text("input x\ny = x +\noutput y\n")
        assert main(["compile", str(spec)]) == 3
        assert "error" in capsys.readouterr().err

    def test_non_utf8_spec_errors(self, tmp_path, capsys):
        spec = tmp_path / "latin1.chop"
        spec.write_bytes("input a # caf\xe9\noutput a\n".encode("latin-1"))
        assert main(["compile", str(spec)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: specification is not UTF-8 text")

    @pytest.mark.parametrize("text,message", [
        (
            "input a\ny = " + "(" * 3000 + "a" + ")" * 3000
            + "\noutput y\n",
            "nests deeper",
        ),
        (
            "graph g width 99999999999999999999999\ninput a\n"
            "y = a + a\noutput y\n",
            "width in 1..",
        ),
        (
            "input a\nacc = a\nrepeat 200000 as i:\nacc = acc + a\n"
            "end\noutput acc\n",
            "unrolls to more than",
        ),
        (
            "input a\nacc = a\n" + "repeat 1000 as i:\n" * 3
            + "acc = acc + a\n" + "end\n" * 3 + "output acc\n",
            "unrolls to more than",
        ),
        (
            "input a\nrepeat 10000000 as i:\nend\noutput a\n",
            "unrolls to more than",
        ),
    ], ids=[
        "deep-parentheses", "huge-width", "long-repeat", "nested-repeat",
        "empty-repeat",
    ])
    def test_hostile_spec_is_a_specification_error(
        self, tmp_path, capsys, text, message
    ):
        spec = tmp_path / "hostile.chop"
        spec.write_text(text)
        assert main(["compile", str(spec)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestSearchCommand:
    @pytest.fixture(scope="class")
    def big_project_file(self, tmp_path_factory):
        from repro.experiments import experiment2_session
        from repro.io.project import save_project_file

        path = tmp_path_factory.mktemp("cli-search") / "exp2x3.json"
        save_project_file(
            experiment2_session(partition_count=3), str(path)
        )
        return path

    def test_search_defaults_to_enumeration(self, project_file, capsys):
        assert main(["search", str(project_file)]) == 0
        out = capsys.readouterr().out
        assert "  E  " in out  # the heuristic column

    def test_dry_run_prints_count_and_serial_mode(self, project_file,
                                                  capsys):
        assert main(["search", str(project_file), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "total combinations:" in out
        assert "mode: serial" in out
        assert "Initiation interval" not in out  # nothing was searched

    def test_dry_run_prints_shard_plan(self, big_project_file, capsys,
                                       pool_always):
        assert main(
            ["search", str(big_project_file), "--workers", "2",
             "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode: parallel (2 workers" in out
        assert "shard   0: [0," in out

    def test_workers_flag_matches_serial_result(self, big_project_file,
                                                capsys, pool_always):
        assert main(["search", str(big_project_file)]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["search", str(big_project_file), "--workers", "2"]
        ) == 0
        parallel_out = capsys.readouterr().out

        def rows(text):
            return [
                line for line in text.splitlines()
                if "  E  " in line
            ]

        # Identical result rows modulo the CPU-seconds column.
        strip = lambda line: line.split()[:3] + line.split()[4:]
        assert [strip(r) for r in rows(parallel_out)] == [
            strip(r) for r in rows(serial_out)
        ]

    def test_disk_cache_cold_then_warm(self, project_file, tmp_path,
                                       capsys):
        cache_dir = str(tmp_path / "predcache")
        assert main(
            ["search", str(project_file), "--disk-cache", cache_dir]
        ) == 0
        cold = capsys.readouterr().out
        assert "disk cache: miss" in cold
        assert main(
            ["search", str(project_file), "--disk-cache", cache_dir]
        ) == 0
        warm = capsys.readouterr().out
        assert "disk cache: hit" in warm
        assert "2 partition prediction lists seeded" in warm

    def test_check_accepts_engine_flags(self, project_file, capsys):
        assert main(
            ["check", str(project_file), "--heuristic", "enumeration",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Initiation interval" in out

    def test_small_paper_cell_runs_in_process(self, tmp_path, capsys):
        # Experiment 1, package 1, k=3: 240 combinations, which two
        # workers walk slower than one process.
        _mode, _shards, run, _spans = _dry_run_and_traced_run(
            _exp1_pkg1_k3(tmp_path), tmp_path, capsys
        )
        assert run["attrs"]["mode"] == "serial"

    @pytest.mark.parametrize("pooled", [False, True])
    def test_dry_run_reports_the_plan_the_run_uses(
        self, tmp_path, capsys, monkeypatch, pooled
    ):
        if pooled:
            import repro.engine.workers as workers_module

            monkeypatch.setattr(workers_module, "MIN_COMBINATIONS", 1)
        mode, shards, run, spans = _dry_run_and_traced_run(
            _exp1_pkg1_k3(tmp_path), tmp_path, capsys
        )
        assert mode == run["attrs"]["mode"]
        assert mode == ("parallel" if pooled else "serial")
        assert len(shards) == run["attrs"]["shards"]
        walked = sorted(
            (s["attrs"]["start"], s["attrs"]["stop"]) for s in spans
            if s["name"] in ("engine.shard", "engine.serial")
        )
        assert walked == shards


def _exp1_pkg1_k3(tmp_path):
    from repro.experiments import experiment1_session
    from repro.io.project import save_project_file

    path = tmp_path / "exp1_pkg1_k3.json"
    save_project_file(
        experiment1_session(package_number=1, partition_count=3), str(path)
    )
    return path


def _dry_run_and_traced_run(project, tmp_path, capsys):
    """``search --workers 2 --dry-run``'s mode and shard ranges, then
    the ``engine.run`` span and all spans of the same search run."""
    assert main(
        ["search", str(project), "--workers", "2", "--dry-run"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    mode = next(
        line.split()[1] for line in lines if line.startswith("mode:")
    )
    shards = [
        tuple(int(n) for n in line.split("[")[1].split(")")[0].split(","))
        for line in lines if line.lstrip().startswith("shard ")
    ]
    trace = tmp_path / "run.jsonl"
    main(["search", str(project), "--workers", "2", "--trace", str(trace)])
    capsys.readouterr()
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    run = next(s for s in spans if s["name"] == "engine.run")
    return mode, shards, run, spans


class TestObservabilityCommands:
    @pytest.fixture(scope="class")
    def big_project_file(self, tmp_path_factory):
        from repro.experiments import experiment2_session
        from repro.io.project import save_project_file

        path = tmp_path_factory.mktemp("cli-obs") / "exp2x3.json"
        save_project_file(
            experiment2_session(partition_count=3), str(path)
        )
        return path

    def test_trace_flag_writes_valid_renderable_trace(
        self, big_project_file, tmp_path, capsys, pool_always
    ):
        from repro.obs import load_trace_file, validate_trace

        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["check", str(big_project_file), "--heuristic",
             "enumeration", "--workers", "2", "--trace",
             str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "spans" in out

        spans = load_trace_file(str(trace_path))
        assert validate_trace(spans) == []
        names = {span["name"] for span in spans}
        # The acceptance tree: session -> search -> engine run ->
        # every shard -> merge.
        assert {
            "session.check", "session.predict", "search.enumeration",
            "engine.run", "engine.shard", "engine.merge",
        } <= names

        assert main(["trace", "show", str(trace_path)]) == 0
        rendered = capsys.readouterr().out
        assert "session.check" in rendered
        assert "engine.shard[0]" in rendered
        assert "combinations=" in rendered
        assert "ms" in rendered

    def test_profile_flag_prints_samples(self, big_project_file,
                                         capsys):
        assert main(
            ["check", str(big_project_file), "--heuristic",
             "enumeration", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "wall-clock profile:" in out

    def test_trace_show_rejects_bad_files(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["trace", "show", str(missing)]) == 3

        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json at all\n")
        assert main(["trace", "show", str(garbage)]) == 3
        err = capsys.readouterr().err
        assert "error:" in err

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "show", str(empty)]) == 3

    def test_trace_show_rejects_nested_arrays(self, tmp_path, capsys):
        nested = tmp_path / "nested.jsonl"
        nested.write_text("[" * 100_000 + "\n")
        assert main(["trace", "show", str(nested)]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_explain_command(self, project_file, capsys):
        assert main(["explain", str(project_file)]) == 0
        out = capsys.readouterr().out
        assert "combinations evaluated" in out
        assert "level-1 pruning" in out

    def test_explain_json_output(self, project_file, capsys):
        assert main(["explain", str(project_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evaluated"] == doc["combination_count"] > 0
        assert "constraints" in doc and "level1" in doc


class TestAutoCommand:
    def test_auto_on_a_generated_graph(self, capsys):
        assert main(
            ["auto", "--generate", "chain", "--ops", "80",
             "--chips", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "auto:" in out
        assert "over 2 chips" in out
        assert "cut" in out and "part sizes" in out

    def test_auto_with_replication_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "auto.jsonl"
        out_file = tmp_path / "auto.json"
        assert main(
            ["auto", "--generate", "layered", "--ops", "120",
             "--seed", "7", "--chips", "3", "--replicate",
             "--trace", str(trace), "-o", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "replication:" in out
        assert trace.exists()
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines() if line
        }
        assert {
            "auto.partition", "auto.coarsen", "auto.initial",
            "auto.refine", "auto.replicate", "auto.feasibility",
        } <= names
        # the saved project round-trips through `check`
        assert main(["check", str(out_file)]) == 0

    def test_auto_requires_an_input(self, capsys):
        assert main(["auto"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_auto_rejects_unknown_generator(self, capsys):
        with pytest.raises(SystemExit):
            main(["auto", "--generate", "mystery"])

    @pytest.mark.parametrize("balance", ["nan", "inf", "-inf", "-1"])
    def test_auto_rejects_a_bad_balance_tolerance(self, balance, capsys):
        # Exit 1 means "infeasible"; a bad option is a usage error, 2,
        # raised while parsing, before the graph is built.
        with pytest.raises(SystemExit) as exit_:
            main([
                "auto", "--generate", "layered", "--ops", "60",
                f"--balance={balance}",
            ])
        assert exit_.value.code == 2
        assert "argument --balance" in capsys.readouterr().err


class TestSoftDeadlineOption:
    @pytest.mark.parametrize(
        "value", ["-1", "0", "nan", "inf", "-inf", "soon"]
    )
    def test_bad_budget_is_a_usage_error(self, project_file, value,
                                         capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["check", str(project_file), f"--soft-deadline={value}"])
        assert exit_.value.code == 2
        assert "--soft-deadline" in capsys.readouterr().err

    def test_positive_budget_is_accepted(self, project_file, capsys):
        assert main([
            "check", str(project_file), "--soft-deadline", "300",
        ]) == 0


#: Out-of-range option values by command.  Each must end in an argparse
#: usage error (exit 2) before the command starts, binds or searches;
#: some used to raise a traceback (exit 1, the "infeasible" status) and
#: others were silently accepted.
BAD_OPTIONS = [
    ("serve", "--workers", "0"),
    ("serve", "--cache-size", "-1"),
    ("serve", "--max-sessions", "0"),
    ("serve", "--max-queued", "0"),
    ("serve", "--max-session-jobs", "0"),
    ("serve", "--flight-capacity", "0"),
    ("serve", "--max-body-kb", "-1"),
    ("serve", "--slo-latency-ms", "0"),
    ("serve", "--slo-latency-ms", "nan"),
    ("serve", "--slo-error-rate", "2"),
    ("serve", "--port", "70000"),
    ("serve", "--search-workers", "-3"),
    ("serve", "--job-timeout", "nan"),
    ("serve", "--drain-timeout", "nan"),
    ("serve", "--workers", "two"),
    ("check", "--workers", "-3"),
    ("search", "--workers", "0"),
    ("auto", "--workers", "0"),
    ("explore", "--workers", "0"),
    ("auto", "--ops", "0"),
    ("auto", "--ops", "100000000"),
    ("auto", "--chips", "0"),
    ("auto", "--max-clones", "-1"),
    ("auto", "--feasibility-moves", "-1"),
    ("auto", "--balance", "-1"),
    ("auto", "--balance", "nan"),
    ("explore", "--ops", "-5"),
    ("explore", "--ops", "100000000"),
    ("explore", "--k-min", "0"),
    ("explore", "--k-max", "0"),
    # Above the default --k-max of 4.
    ("explore", "--k-min", "5"),
    ("predict", "--limit", "-3"),
]

_COMMANDS = {
    "serve": "_cmd_serve", "check": "_cmd_check", "search": "_cmd_check",
    "auto": "_cmd_auto", "explore": "_cmd_explore",
    "predict": "_cmd_predict",
}

#: The arguments a command needs besides the option under test.
_REQUIRED = {
    "check": ["p.json"], "search": ["p.json"],
    "predict": ["p.json", "--partition=P1"],
}


@pytest.mark.parametrize(
    "command,option,value", BAD_OPTIONS,
    ids=[f"{c}{o}={v}" for c, o, v in BAD_OPTIONS],
)
def test_out_of_range_option_is_a_usage_error(
    command, option, value, monkeypatch, capsys
):
    import repro.cli as cli

    # Were the option accepted, the command must not run (a server
    # would bind and block).
    monkeypatch.setattr(
        cli, _COMMANDS[command],
        lambda _args: pytest.fail(f"{command} ran with {option}={value}"),
    )
    argv = [command, *_REQUIRED.get(command, []), f"{option}={value}"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}" in err
    assert "Traceback" not in err


def test_boundary_option_values_are_accepted(monkeypatch):
    import repro.cli as cli

    seen = []
    monkeypatch.setattr(cli, "_cmd_serve", lambda args: seen.append(args))
    main([
        "serve", "--port=0", "--job-timeout=0", "--drain-timeout=0",
        "--search-workers=0", "--slo-error-rate=1", "--max-body-kb=1",
    ])
    (args,) = seen
    assert (args.port, args.job_timeout, args.search_workers) == (0, 0, 0)
    assert (args.slo_error_rate, args.max_body_kb) == (1, 1)


#: Flags of the removed multi-process serving tier.
REMOVED_FLAGS = [
    ("serve", "--procs", "2"),
    ("serve", "--cache-backend", "shared"),
    ("check", "--cache-backend", "disk"),
    ("search", "--cache-backend", "auto"),
    ("explore", "--cache-backend", "disk"),
]


@pytest.mark.parametrize(
    "command,option,value", REMOVED_FLAGS,
    ids=[f"{c}{o}" for c, o, _ in REMOVED_FLAGS],
)
def test_removed_flag_is_a_usage_error(
    command, option, value, monkeypatch, capsys
):
    import repro.cli as cli

    monkeypatch.setattr(
        cli, _COMMANDS[command],
        lambda _args: pytest.fail(f"{command} ran with {option}"),
    )
    with pytest.raises(SystemExit) as exit_:
        main([command, *_REQUIRED.get(command, []), option, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_boundary_auto_and_explore_values_are_accepted(monkeypatch):
    import repro.cli as cli
    from repro.dfg.parser import MAX_UNROLLED

    seen = []
    monkeypatch.setattr(cli, "_cmd_auto", lambda args: seen.append(args))
    monkeypatch.setattr(cli, "_cmd_explore", lambda args: seen.append(args))
    main([
        "auto", f"--ops={MAX_UNROLLED}", "--chips=1", "--max-clones=0",
        "--feasibility-moves=0", "--balance=0",
    ])
    main(["explore", "--ops=1", "--k-min=3", "--k-max=3"])
    auto, explore = seen
    assert (auto.ops, auto.chips, auto.balance) == (MAX_UNROLLED, 1, 0)
    assert (auto.max_clones, auto.feasibility_moves) == (0, 0)
    assert (explore.ops, explore.k_min, explore.k_max) == (1, 3, 3)


def test_explore_rejects_infinite_scale(capsys):
    # An infinite die size would print a front and save projects that
    # `chop check` then rejects.
    argv = ["explore", "--generate", "layered", "--ops", "10",
            "--k-max", "1", "--scales", "1.0,inf"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "package scales must be finite positive numbers" in err
