"""The byte-identity table of scripts/bitcheck.py, checked without running it."""

import argparse
import importlib.util
import inspect
import os
from pathlib import Path

import pytest

from kdvwaves import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bitcheck", ROOT / "scripts" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


@pytest.fixture
def table(tmp_path):
    return bitcheck.table(tmp_path)


def _configs(argv):
    return [Path(argv[i + 1]) for i, arg in enumerate(argv) if arg == "--config"]


def test_every_config_exists_and_every_check_config_is_run(table):
    named = {path for entry in table for path in _configs(entry.argv)}
    assert all(path.is_file() or path == Path(os.devnull) for path in named)
    checks = set((ROOT / "scripts" / "configs" / "checks").glob("*"))
    assert checks and checks <= named


def test_every_command_parses_and_lists_only_csvs_it_writes(table):
    for entry in table:
        if entry.argv[:2] != ["-m", "kdvwaves"]:
            assert Path(entry.argv[0]).is_file() and not entry.csvs
            continue
        args = cli._parser().parse_args(entry.argv[2:])
        assert (getattr(args, "out", None) is not None) == bool(entry.csvs), entry.argv
        source = inspect.getsource(args.fn)
        assert all(f'"{csv}"' in source for csv in entry.csvs), entry.argv


def test_every_flag_of_a_subcommand_is_run_by_an_entry(table):
    # so that every flag stays under byte identity
    run = {}
    for entry in table:
        if entry.argv[:2] == ["-m", "kdvwaves"]:
            run.setdefault(entry.argv[2], set()).update(a.split("=")[0] for a in entry.argv[3:])
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, p in sub.choices.items():
        flags = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags <= run.get(name, set()), (name, flags - run.get(name, set()))


def test_expectations_are_well_formed(table):
    seen = set()
    for entry in table:
        assert entry.exit in (0, 1, 2, 3)
        assert entry.holds is None or entry.row_of is None
        if entry.row_of is not None:
            sweep, label = entry.row_of
            assert tuple(sweep) in seen and label
        seen.add(tuple(entry.argv))


def test_no_command_is_listed_twice(table):
    assert all(entry not in table[:i] for i, entry in enumerate(table))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_record_that_is_not_strict_json_misses_its_entry(constant):
    entry = bitcheck.Entry(["-m", "kdvwaves", "verify"])
    record = b'{"norm_inf": 1e+300, "norm_2": %s}\n' % constant.encode()
    assert bitcheck.problems(entry, {"exit code": 0, "stdout": record}, {}) == [
        f"stdout record is not strict JSON: {constant} is not a JSON number"]
    finite = {"exit code": 0, "stdout": record.replace(constant.encode(), b"1.5e+300")}
    assert bitcheck.problems(entry, finite, {}) == []
