import argparse
import json
import subprocess
import sys

import pytest

from vccover import (
    cone,
    covering_witness_family,
    full_family,
    hypercube_family,
    initial_segment_family,
    make_family,
    product,
    read_family,
    recursive_family,
    write_family,
)
from vccover.cli import _COMMANDS, _OPTIONS, _build_parser, _common_parser, main

CLI = [sys.executable, "-m", "vccover"]


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, input=stdin_text, timeout=180
    )


class TestConstruct:
    def test_full_round_trips(self):
        proc = run_cli("construct", "full", "-n", "5", "-s", "2")
        assert proc.returncode == 0
        assert read_family(proc.stdout) == full_family(5, 2)

    def test_every_construct_output_round_trips(self):
        # Asymmetric values, so that an option passed to the wrong argument shows.
        base = make_family(4, [{1, 2}, {2, 3, 4}])
        cases = [
            (["full", "-n", "6", "-s", "3"], full_family(6, 3)),
            (["segments", "-n", "5"], initial_segment_family(5)),
            (["hypercube", "-k", "2", "-m", "3"], hypercube_family(2, 3)),
            (["fk", "-m", "5", "-k", "2"], recursive_family(5, 2)),
            (["witness", "-k", "2", "-s", "4", "-n", "7"], covering_witness_family(2, 4, 7)),
            (["cone", "--family", "-"], cone(base)),
            (["product", "--family", "-", "-l", "3"], product(base, 3)),
        ]
        for argv, expected in cases:
            proc = run_cli("construct", *argv, stdin_text=write_family(base))
            assert proc.returncode == 0, argv
            assert proc.stdout == write_family(expected), argv
            assert write_family(read_family(proc.stdout)) == proc.stdout, argv
            # Every option is required: dropping any one is a usage error.
            for i in range(1, len(argv), 2):
                with pytest.raises(SystemExit) as exc:
                    main(["construct", *argv[:i], *argv[i + 2:]])
                assert exc.value.code == 2, argv[i]

    def test_cone_and_product_from_stdin(self):
        base = write_family(make_family(4, [{1, 2}, {3, 4}]))
        coned = run_cli("construct", "cone", "--family", "-", stdin_text=base)
        assert read_family(coned.stdout) == make_family(5, [{1, 2, 5}, {3, 4, 5}])
        boxed = run_cli("construct", "product", "--family", "-", "-l", "2", stdin_text=base)
        assert read_family(boxed.stdout).n == 8

    def test_json_format(self):
        proc = run_cli("construct", "full", "-n", "4", "-s", "2", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["n"] == 4
        assert payload["members"][0] == [1, 2]

    def test_out_file(self, tmp_path):
        path = tmp_path / "fam.vcfam"
        proc = run_cli("construct", "segments", "-n", "4", "--out", str(path))
        assert proc.returncode == 0 and proc.stdout == ""
        assert read_family(path.read_text()).n == 4


class TestCheckAndVcdim:
    def test_vcdim_prints_dimension(self, tmp_path):
        path = tmp_path / "f.vcfam"
        path.write_text(write_family(full_family(5, 2)))
        proc = run_cli("vcdim", "--family", str(path))
        assert proc.stdout == "2\n"
        assert proc.returncode == 0

    def test_vcdim_json(self, tmp_path):
        path = tmp_path / "f.vcfam"
        path.write_text(write_family(full_family(4, 2)))
        payload = json.loads(run_cli("vcdim", "--family", str(path), "--format", "json").stdout)
        assert payload == {"dimension": 2, "witness": [1, 2], "refuted_size": 3}

    def test_check_covering_pass_and_fail(self, tmp_path):
        path = tmp_path / "f.vcfam"
        path.write_text(write_family(make_family(4, [{1, 2}, {3, 4}])))
        ok = run_cli("check", "covering", "--family", str(path), "-k", "1")
        assert ok.stdout == "PASS\n" and ok.returncode == 0
        bad = run_cli("check", "covering", "--family", str(path), "-k", "2")
        assert bad.stdout == "FAIL uncovered: 1 3\n" and bad.returncode == 1

    def test_check_ufp(self, tmp_path):
        path = tmp_path / "f.vcfam"
        path.write_text(write_family(full_family(4, 2)))
        proc = run_cli("check", "ufp", "--family", str(path))
        assert proc.stdout == "FAIL violator: 1 2\n" and proc.returncode == 1


class TestOracleCli:
    def test_value_and_witness(self):
        proc = run_cli("oracle", "-k", "1", "-s", "2", "-n", "4")
        assert proc.returncode == 0
        lines = proc.stdout.split("\n")
        assert lines[0] == "1"
        witness = read_family("\n".join(lines[1:]))
        assert witness.n == 4 and witness.uniform_size == 2
        assert "nodes=" in proc.stderr

    def test_cap_exit_code(self):
        proc = run_cli("oracle", "-k", "2", "-s", "3", "-n", "9")
        assert proc.returncode == 3

    def test_cap_override_warns(self):
        proc = run_cli("oracle", "-k", "1", "-s", "2", "-n", "8", "--cap", "28")
        assert proc.returncode == 0
        assert "warning" in proc.stderr
        assert proc.stdout.split("\n")[0] == "1"

    def test_fallback_enum_has_its_own_cap(self):
        # Without --cap the power-set route keeps its cap of 12, below the
        # branch-and-bound cap of 24; --cap lifts it like any other cap.
        argv = ["oracle", "-k", "1", "-s", "1", "-n", "13", "--fallback-enum"]
        refused = run_cli(*argv)
        assert refused.returncode == 3
        assert "exceeds cap 12" in refused.stderr
        lifted = run_cli(*argv, "--cap", "13")
        assert lifted.returncode == 0
        assert "warning" in lifted.stderr
        assert lifted.stdout.split("\n")[0] == "1"

    def test_fallback_enum_agrees(self):
        bb = run_cli("oracle", "-k", "2", "-s", "3", "-n", "5")
        enum = run_cli("oracle", "-k", "2", "-s", "3", "-n", "5", "--fallback-enum")
        assert bb.stdout.split("\n")[0] == enum.stdout.split("\n")[0] == "2"

    def test_json_excludes_stats(self):
        payload = json.loads(
            run_cli("oracle", "-k", "1", "-s", "2", "-n", "4", "--format", "json").stdout
        )
        assert payload["value"] == 1
        assert "nodes_explored" not in payload


class TestVerifyCli:
    def test_prop_const_pass(self):
        proc = run_cli("verify", "prop-const", "-m", "4", "-k", "2")
        assert proc.returncode == 0
        assert proc.stdout.strip().split("\n")[-1] == "PASS"

    def test_certificate_holds(self, tmp_path):
        out = tmp_path / "witness.vcfam"
        proc = run_cli(
            "verify", "certificate", "-k", "2", "-s", "3", "-n", "14",
            "--witness-out", str(out),
        )
        assert proc.returncode == 0
        assert "HOLDS" in proc.stdout
        assert read_family(out.read_text()).uniform_size == 3

    def test_certificate_fails_cleanly_at_small_n(self):
        proc = run_cli("verify", "certificate", "-k", "2", "-s", "3", "-n", "6")
        assert proc.returncode == 1
        assert proc.stdout.strip().split("\n")[-1] == "FAIL"

    def test_main_pass(self):
        proc = run_cli("verify", "main", "-k", "1", "-s", "2")
        assert proc.returncode == 0
        assert proc.stdout.strip().split("\n")[-1] == "PASS"

    def test_main_beyond_n64(self):
        proc = run_cli("verify", "main", "-k", "2", "-s", "7")
        assert proc.returncode == 0
        assert proc.stdout.strip().split("\n")[-1] == "PASS"

    def test_main_json(self):
        payload = json.loads(run_cli("verify", "main", "-k", "2", "-s", "2",
                                     "--format", "json").stdout)
        assert payload["passed"] is True and payload["n"] == 6


class TestExploreCli:
    def test_csv_stream(self):
        proc = run_cli("explore", "-k", "1", "-s", "2", "-n", "3:5")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "k,s,n,lower,upper,exact,method"
        assert len(lines) == 4
        assert "stab_upper_hint" in proc.stderr

    def test_single_n(self):
        proc = run_cli("explore", "-k", "2", "-s", "2", "-n", "4")
        assert "2,2,4,2,2,2,oracle" in proc.stdout

    def test_json(self):
        payload = json.loads(
            run_cli("explore", "-k", "2", "-s", "2", "-n", "2:6", "--format", "json").stdout
        )
        assert payload["attained_values"] == [0, 1, 2]
        assert payload["stab_upper_hint"] == 4
        for row in payload["rows"]:
            assert list(row) == ["k", "s", "n", "lower", "upper", "exact", "method"]

    @pytest.mark.parametrize("cap, methods", [
        ([], ["oracle", "oracle", "", ""]),
        (["--cap", "19"], ["oracle", "", "", ""]),
        (["--cap", "60"], ["oracle"] * 4),
    ])
    def test_cap_reaches_the_rows(self, cap, methods):
        # C(n,3) for n = 5..8 is 10, 20, 35 and 56; the default cap is 24.
        proc = run_cli("explore", "-k", "2", "-s", "3", "-n", "5:8", *cap)
        assert proc.returncode == 0
        assert [line.split(",")[6] for line in proc.stdout.splitlines()[1:]] == methods

    @pytest.mark.parametrize("k", ["0", "6"])
    def test_bad_pair_refused_when_no_n_reaches_s(self, k):
        # The message names k and s only: no n in 1:4 reaches s, so none is quoted.
        proc = run_cli("explore", "-k", k, "-s", "5", "-n", "1:4")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: need 1 <= k <= s <= 256, got k={k} s=5\n"

    def test_oversized_s_refused_as_a_pair(self):
        proc = run_cli("explore", "-k", "2", "-s", "300", "-n", "1:4")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: need 1 <= k <= s <= 256, got k=2 s=300\n"


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_bad_parameters(self):
        assert run_cli("oracle", "-k", "3", "-s", "2", "-n", "5").returncode == 2

    def test_oversized_fk_refused_before_building(self):
        # The family would grow toward ground 299 until memory ran out.
        proc = run_cli("construct", "fk", "-m", "200", "-k", "100")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "ground size 299 exceeds maximum 256" in proc.stderr

    @pytest.mark.parametrize("option", ["--workers", "--cap"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_nonpositive_count_rejected(self, option, value):
        proc = run_cli("oracle", "-k", "1", "-s", "2", "-n", "4", option, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"argument {option}" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["check", "covering", "--family", "f.vcfam", "-k", "2"],
        ["check", "ufp", "--family", "f.vcfam"],
        ["vcdim", "--family", "f.vcfam"],
        ["oracle", "-k", "2", "-s", "3", "-n", "5"],
        ["verify", "prop-const", "-m", "5", "-k", "2"],
        ["verify", "certificate", "-k", "2", "-s", "3", "-n", "5"],
        ["verify", "main", "-k", "2", "-s", "3"],
        ["explore", "-k", "2", "-s", "3", "-n", "5:8"],
    ])
    def test_dropping_any_required_option_is_a_usage_error(self, argv):
        # Each option lands in its own attribute, and none may be left out.
        first = next(i for i, arg in enumerate(argv) if arg.startswith("-"))
        args = _build_parser(argv).parse_args(argv)
        for i in range(first, len(argv), 2):
            value = getattr(args, argv[i].lstrip("-"))
            if isinstance(value, range):  # explore's -n LO:HI
                value = f"{value[0]}:{value[-1]}"
            assert str(value) == argv[i + 1]
            with pytest.raises(SystemExit) as exc:
                main([*argv[:i], *argv[i + 2:]])
            assert exc.value.code == 2, argv[i]

    @pytest.mark.parametrize("spelling", ["5:", ":5", "a", "5:6:7", "7:4"])
    def test_malformed_explore_range_names_its_option(self, spelling, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "-k", "2", "-s", "3", "-n", spelling])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"argument -n: expected N or LO:HI, got {spelling!r}" in err
        assert "int()" not in err

    def test_malformed_family_file(self, tmp_path):
        path = tmp_path / "bad.vcfam"
        path.write_text("vcfam 1\nn=4 s=2\n2 1\n")
        assert run_cli("vcdim", "--family", str(path)).returncode == 2

    def test_json_family_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 4, "members": ' + "[" * 100_000 + "]" * 100_000 + "}")
        proc = run_cli("vcdim", "--family", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "invalid JSON" in proc.stderr and "Traceback" not in proc.stderr

    def test_missing_file(self):
        assert run_cli("vcdim", "--family", "/nonexistent/f.vcfam").returncode == 2

    def test_family_file_closed(self, tmp_path):
        # -X dev turns on ResourceWarning, which an unclosed family file raises.
        path = tmp_path / "f.vcfam"
        path.write_text(write_family(full_family(5, 2)))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "vccover", "vcdim", "--family", str(path)],
            capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0 and proc.stdout == "2\n"
        assert "ResourceWarning" not in proc.stderr


def reference_parser() -> argparse.ArgumentParser:
    """Every command built with all its leaves and options: the slow
    reference for `_build_parser`, which builds only the command it is given."""
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="vccover",
        description="Exact VC-dimension engine for covering set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, run, options) in _COMMANDS.items():
        grouped = isinstance(options, dict)
        p = sub.add_parser(command, parents=[] if grouped else [common], help=help_text)
        p.set_defaults(run=run)
        if grouped:
            leaves = p.add_subparsers(dest="what", required=True)
            targets = [(leaves.add_parser(what, parents=[common]), opts)
                       for what, opts in options.items()]
        else:
            targets = [(p, options)]
        for target, opts in targets:
            for option in opts:
                target.add_argument(option.split()[0], **_OPTIONS[option])
    return parser


# The top level, each command, and each leaf of a grouped command.
HELP_LEVELS = [[]] + [
    [command, *leaf]
    for command, (_, _, options) in _COMMANDS.items()
    for leaf in [[]] + [[what] for what in options if isinstance(options, dict)]
]

USAGE_ERRORS = [
    [],
    ["bogus"],
    ["verify"],
    ["verify", "bogus"],
    ["oracle", "-k", "2"],
    ["--x", "oracle", "-k", "2", "-s", "3", "-n", "5"],
    ["bogus", "oracle", "-k", "2", "-s", "3", "-n", "5"],
    ["verify", "oracle", "-k", "2", "-s", "3"],
    ["construct", "fk", "-m", "5", "-k", "two"],
    ["check", "covering", "--family", "f.vcfam", "-k", "2", "--format", "xml"],
    ["explore", "-k", "2", "-s", "3", "-n", "5:"],
    ["vcdim", "--family", "f.vcfam", "--workers", "0", "explore"],
    ["explore", "-k", "2", "-s", "3", "-n", "7:4"],
]

VALID = [
    ["construct", "product", "--family", "oracle", "-l", "2", "--out", "o.vcfam"],
    ["check", "ufp", "--family", "verify", "--format", "json"],
    ["vcdim", "--family", "-", "--cap", "3"],
    ["oracle", "-k", "2", "-s", "3", "-n", "5", "--fallback-enum", "--workers", "2"],
    ["verify", "certificate", "-k", "2", "-s", "3", "-n", "14", "--witness-out", "explore"],
    ["explore", "-k", "2", "-s", "3", "-n", "4:7"],
    ["explore", "-k", "2", "-s", "3", "-n", "7:7"],
]


def parse_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParserMatchesReference:
    @pytest.mark.parametrize("columns", ["80", "200"])
    def test_help_texts_match(self, columns, monkeypatch, capsys):
        assert len(HELP_LEVELS) == 19
        monkeypatch.setenv("COLUMNS", columns)
        for level in HELP_LEVELS:
            argv = [*level, "--help"]
            got = parse_outcome(main, argv, capsys)
            assert got == parse_outcome(reference_parser().parse_args, argv, capsys), argv
            assert got[0] == 0 and got[1].startswith("usage: vccover")

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_errors_match(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        got = parse_outcome(main, argv, capsys)
        assert got == parse_outcome(reference_parser().parse_args, argv, capsys)
        assert got[0] == 2 and got[1] == "" and "error:" in got[2]

    @pytest.mark.parametrize("argv", VALID)
    def test_parsed_options_match(self, argv):
        assert _build_parser(argv).parse_args(argv) == reference_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, built, leaves", [
        (["oracle", "-k", "2", "-s", "3", "-n", "5"], {"oracle"}, set()),
        (["verify", "main", "-k", "2", "-s", "3"], {"verify"}, {"prop-const", "certificate", "main"}),
        (["--help"], set(), set()),
    ])
    def test_only_the_named_command_is_built(self, argv, built, leaves, monkeypatch):
        # Records the prog and add_help of each parser argparse constructs.
        made = []
        init = argparse.ArgumentParser.__init__

        def recording_init(self, *args, **kwargs):
            made.append((kwargs.get("prog") or "", kwargs.get("add_help", True)))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
        _build_parser(argv)
        levels = [(prog.split()[1:], add_help) for prog, add_help in made]
        commands = {level[0]: add_help for level, add_help in levels if len(level) == 1}
        assert sorted(commands) == sorted(_COMMANDS)
        assert {command for command, add_help in commands.items() if add_help} == built
        assert {level[1] for level, _ in levels if len(level) == 2} == leaves


class TestDeterminism:
    def test_identical_data_streams_across_worker_counts(self):
        for argv in [
            ["oracle", "-k", "2", "-s", "3", "-n", "6"],
            ["verify", "main", "-k", "2", "-s", "3"],
            ["explore", "-k", "2", "-s", "3", "-n", "5:7"],
        ]:
            one = run_cli(*argv, "--workers", "1")
            eight = run_cli(*argv, "--workers", "8")
            assert one.stdout == eight.stdout, argv
            assert one.returncode == eight.returncode, argv

    def test_identical_across_repeat_runs(self):
        a = run_cli("oracle", "-k", "2", "-s", "3", "-n", "5")
        b = run_cli("oracle", "-k", "2", "-s", "3", "-n", "5")
        assert a.stdout == b.stdout
