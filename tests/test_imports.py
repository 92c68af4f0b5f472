"""Import hygiene: each command loads only the modules it uses, and the
package's exported names are resolved lazily to the defining objects."""

import importlib
import subprocess
import sys

import pytest

import vccover
from vccover import full_family, write_family, write_family_json

# Runs one command in process, then prints the names in sys.modules.
PROBE = """
import io, sys
from contextlib import redirect_stdout
from vccover.cli import main
with redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(" ".join(sorted(sys.modules)))
"""

NEVER_LOADED = {"vccover.verify", "concurrent.futures", "csv"}

# `dataclasses` and what it imports; the records are named tuples instead.
# `fractions` and `decimal`: the certificates compare ints. `csv`: the
# explore table is joined by `rows_to_csv` itself.
NEVER_AT_STARTUP = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "csv"
}

# Top-level help and usage errors: argparse alone answers them, and no
# library module is loaded.
PARSER_ONLY = {
    "help": ["--help"],
    "h": ["-h"],
    "bare": [],
    "bogus": ["bogus"],
}

COMMANDS = {
    **PARSER_ONLY,
    "construct": ["construct", "hypercube", "-k", "2", "-m", "3"],
    "check": ["check", "covering", "--family", "{family}", "-k", "2"],
    "vcdim": ["vcdim", "--family", "{family}"],
    "oracle": ["oracle", "-k", "2", "-s", "3", "-n", "5"],
}


STARTUP_COMMANDS = {
    **COMMANDS,
    "verify": ["verify", "main", "-k", "2", "-s", "3"],
    "explore": ["explore", "-k", "2", "-s", "3", "-n", "3:6"],
}


VERIFY_LEAVES = {
    "prop-const": ["verify", "prop-const", "-m", "4", "-k", "2"],
    "certificate": ["verify", "certificate", "-k", "2", "-s", "3", "-n", "14"],
    "main": STARTUP_COMMANDS["verify"],
}


def loaded_modules(argv: list[str], tmp_path) -> set[str]:
    family, json_family = tmp_path / "f.vcfam", tmp_path / "f.json"
    family.write_text(write_family(full_family(5, 2)))
    json_family.write_text(write_family_json(full_family(5, 2)) + "\n")
    argv = [a.format(family=family, json_family=json_family) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_what_it_uses(command, tmp_path):
    loaded = loaded_modules(COMMANDS[command], tmp_path)
    assert "vccover.cli" in loaded
    assert not NEVER_LOADED & loaded
    assert ("vccover.oracle" in loaded) == (command == "oracle")
    assert ("vccover.vc" in loaded) == (command == "vcdim")
    library = {m for m in loaded if m.startswith("vccover.")} - {"vccover.cli"}
    assert (not library) == (command in PARSER_ONLY), library


@pytest.mark.parametrize("command", sorted(STARTUP_COMMANDS))
def test_command_never_loads_dataclasses(command, tmp_path):
    loaded = loaded_modules(STARTUP_COMMANDS[command], tmp_path)
    assert "vccover.cli" in loaded
    assert not NEVER_AT_STARTUP & loaded


NAMED_COMMANDS = {
    **{name: argv for name, argv in STARTUP_COMMANDS.items() if name not in PARSER_ONLY},
    **{f"verify {leaf}": argv for leaf, argv in VERIFY_LEAVES.items()},
}
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("command", sorted(NAMED_COMMANDS))
def test_named_command_never_loads_argparse(command, tmp_path):
    loaded = loaded_modules(NAMED_COMMANDS[command], tmp_path)
    assert "vccover.cli" in loaded
    assert not ARGPARSE & loaded


@pytest.mark.parametrize("argv", [*PARSER_ONLY.values(), ["oracle", "-k", "2"]])
def test_help_and_usage_errors_fall_back_to_argparse(argv, tmp_path):
    assert "argparse" in loaded_modules(argv, tmp_path)


def test_explore_never_loads_the_covering_checks(tmp_path):
    loaded = loaded_modules(STARTUP_COMMANDS["explore"], tmp_path)
    assert {"vccover.verify", "vccover.oracle"} <= loaded
    assert "vccover.covering" not in loaded


@pytest.mark.parametrize("leaf", sorted(VERIFY_LEAVES))
def test_verify_leaves_load_the_covering_checks(leaf, tmp_path):
    loaded = loaded_modules(VERIFY_LEAVES[leaf], tmp_path)
    assert "vccover.covering" in loaded
    assert "vccover.oracle" not in loaded


def test_json_family_writer_does_not_load_json(tmp_path):
    loaded = loaded_modules(
        ["construct", "full", "-n", "5", "-s", "2", "--format", "json"], tmp_path
    )
    assert "vccover.families_json" in loaded
    assert "json" not in loaded


@pytest.mark.parametrize("command", ["vcdim", "check"])
def test_canonical_json_family_reader_does_not_load_json(command, tmp_path):
    argv = [a.replace("{family}", "{json_family}") for a in COMMANDS[command]]
    loaded = loaded_modules(argv, tmp_path)
    assert "vccover.families_json" in loaded
    assert "json" not in loaded


# Commands that read, write or make no JSON family, with the text family for
# those that read one.
TEXT_FAMILY_COMMANDS = {
    name: NAMED_COMMANDS[name]
    for name in ("construct", "check", "vcdim", "oracle", "verify main", "explore")
}


@pytest.mark.parametrize("command", sorted(TEXT_FAMILY_COMMANDS))
def test_text_family_commands_never_load_the_json_mirror(command, tmp_path):
    loaded = loaded_modules(TEXT_FAMILY_COMMANDS[command], tmp_path)
    assert "vccover.families" in loaded
    assert "vccover.families_json" not in loaded


def test_package_import_loads_no_submodule():
    loaded = set(
        subprocess.run(
            [sys.executable, "-c", "import sys, vccover; print(' '.join(sys.modules))"],
            capture_output=True, text=True, timeout=180, check=True,
        ).stdout.split()
    )
    assert {m for m in loaded if m.startswith("vccover.")} == set()


def test_module_run_for_help_imports_no_library_module():
    # `python -m vccover --help` is the start the bench times. runpy executes
    # vccover.__main__ without importing it, so -X importtime does not list it.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "vccover", "--help"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {m for m in imported if m.split(".")[0] == "vccover"} == {"vccover", "vccover.cli"}


def test_every_export_is_the_defining_object():
    assert len(set(vccover.__all__)) == len(vccover.__all__)
    for module, names in vccover._EXPORTS.items():
        source = importlib.import_module(f"vccover.{module}")
        for name in names:
            assert getattr(vccover, name) is getattr(source, name), name
    oracle = importlib.import_module("vccover.oracle")
    assert oracle.DEFAULT_CAP is vccover.DEFAULT_CAP
    assert oracle.FeasibilityError is vccover.FeasibilityError


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from vccover import *", namespace)
    for name in vccover.__all__:
        assert namespace[name] is getattr(vccover, name), name
    assert set(vccover.__all__) <= set(dir(vccover))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        vccover.no_such_name
    assert not hasattr(vccover, "no_such_name")
