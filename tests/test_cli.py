"""Command-line surface: subcommands, formats, exit codes, determinism."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ring_explorer.cli import main

from test_acceptance import IMPOSSIBLE_BOTH_SHA256


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSimulate:
    def test_arrow_replay_ends_in_final_arrow(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--n", "9", "--initial", "1,0,2,1,0,0,0,0,0",
            "--policy", "round-robin", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 7
        assert header["initial"] == "1,0,2,1,0,0,0,0,0"
        configs = [json.loads(line)["config"] for line in lines[1:]]
        assert configs[-1] == "0,0,2,1,1,0,0,0,0"
        moves = sum(1 for a, b in zip([header["initial"]] + configs, configs) if a != b)
        assert moves == 5

    def test_byte_identical_reruns(self, capsys):
        argv = ("simulate", "--n", "10", "--initial", "random", "--policy",
                "random-subset", "--seed", "123")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_bad_geometry_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--n", "8"])
        with pytest.raises(SystemExit):
            main(["simulate", "--n", "9", "--initial", "1,1,1,1,0,0,0,0"])


class TestCampaign:
    def test_json_payload_and_exit(self, capsys):
        code, out = run_cli(
            capsys, "campaign", "--n", "9", "--trials", "25", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terminated_count"] == 25
        assert payload["full_coverage_count"] == 25
        assert payload["seed"] == 42


class TestCount:
    def test_single_value(self, capsys):
        code, out = run_cli(capsys, "count", "--k", "3", "--n", "4")
        assert code == 0
        assert out.strip() == "2"

    def test_table(self, capsys):
        code, out = run_cli(capsys, "count", "--k", "3", "--n", "4", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tk\tclasses"
        assert lines[1:] == ["4\t3\t2", "5\t3\t2", "6\t3\t3"]

    def test_console_script_entry_point(self, capsys):
        # The `ring-explorer` command the README calls is the entry point
        # pyproject.toml declares; it resolves to this main.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^ring-explorer = "([\w.]+):(\w+)"$', text, re.M)
        entry = getattr(importlib.import_module(target[1]), target[2])
        assert entry is main
        assert entry(["count", "--k", "3", "--n", "4"]) == 0
        assert capsys.readouterr().out == "2\n"


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "9", "--traces", "5", "--seed", "3")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["claim"] for r in reports} == {
            "no-tower-after-one-step", "four-segment-successors",
            "arrow-growth", "terminal-shape", "mrp-lower-bounds",
        }
        assert all(r["passed"] for r in reports)


class TestImpossible:
    def test_counts_and_timing_on_stderr(self, capsys):
        # A mode takes a fraction of a second, so its time has two decimals.
        # The per-mode reports merged on the command line hash to the pin of
        # the in-process report.
        assert main(["impossible", "--mode", "both"]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == IMPOSSIBLE_BOTH_SHA256
        assert json.loads(captured.out)["modes"]["sequential"]["unrefuted"] == 40
        lines = captured.err.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "distributed: 11121 bad-terminal, 16662 forcing, 0 unrefuted",
            "sequential: 7757 bad-terminal, 19986 forcing, 40 unrefuted",
        ]
        assert all(re.fullmatch(r".* \(\d+\.\d\d s\)", line) for line in lines)


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "11", "--initial", "random", "--policy", "sequential-random",
     "--seed", "5"),
    ("campaign", "--n", "10", "--trials", "20", "--policy", "round-robin", "--seed", "4"),
    ("verify", "--n", "9", "--traces", "3", "--seed", "2"),
    ("count", "--k", "3", "--n", "4", "--n-max", "9"),
    ("impossible", "--mode", "both"),
], ids=lambda argv: argv[0])
def test_stdout_byte_identical_across_runs(capsys, argv):
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first and first == second


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "9", "--initial", "1,0,2,1,0,0,0,0,0", "--seed", "7"),
    ("campaign", "--n", "9", "--trials", "5", "--seed", "1"),
    ("verify", "--n", "9", "--traces", "2", "--seed", "2"),
    ("count", "--k", "3", "--n", "4", "--n-max", "9"),
    ("impossible", "--mode", "sequential"),
], ids=lambda argv: argv[0])
def test_output_file_holds_what_stdout_gets(capsys, tmp_path, argv):
    code, out = run_cli(capsys, *argv)
    path = tmp_path / "payload"
    assert run_cli(capsys, *argv, "--output", str(path)) == (code, "")
    assert path.read_bytes() == out.encode()


# Above ``sys.maxsize``: a ring size or robot count this large cannot size a
# sequence, so it is a usage error rather than an OverflowError traceback.
HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ("campaign", "--trials", "0"),
    ("campaign", "--max-steps", "-1"),
    ("count", "--n", "2"),
    ("count", "--k", "-1"),
    ("simulate", "--n", "9", "--initial", "2,-1,1,1,1,0,0,0,0"),
    ("simulate", "--n", "9", "--initial", "1,1,x"),
    ("verify", "--traces", "-1"),
    ("simulate", "--n", "8"),
    ("simulate", "--n", "x"),
    ("campaign", "--n", "8"),
    ("verify", "--n", "8"),
    ("simulate", "--n", "9", "--initial", "0,0,0,0,0,0,0,0,4"),
    ("simulate", "--n", "9", "--initial", "1,1,1,0,0,0,0,0,0"),
    ("simulate", "--n", "10", "--initial", "1,1,1,1,0,0,0,0,0"),
    ("count", "--n", "5", "--n-max", "4"),
    ("simulate", "--n", HUGE),
    ("campaign", "--n", HUGE),
    ("verify", "--n", HUGE),
    ("count", "--n", HUGE, "--n-max", HUGE),
    ("count", "--n", "4", "--n-max", HUGE),
    ("count", "--k", HUGE),
    ("count", "--k", str(sys.maxsize + 1)),
], ids=["trials-0", "max-steps-negative", "count-n-2", "count-k-negative",
        "initial-negative", "initial-not-int", "traces-negative",
        "simulate-n-8", "simulate-n-not-int", "campaign-n-8", "verify-n-8", "initial-tower-outside-arrow",
        "initial-three-robots", "initial-ring-size-differs", "count-n-max-below-n",
        "simulate-n-huge", "campaign-n-huge", "verify-n-huge", "count-n-huge",
        "count-n-max-huge", "count-k-huge", "count-k-above-maxsize"])
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"ring-explorer {argv[0]}: error: argument ")


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", str(sys.maxsize)),
    ("count", "--k", str(sys.maxsize), "--n", "4"),
], ids=["simulate-n-maxsize", "count-k-maxsize"])
def test_size_beyond_memory_fails_cleanly(argv):
    # Within the usage bound but far beyond memory: each command fails on one
    # refused allocation (a configuration of n entries, an index array of k),
    # and exits with status 1 and one stderr line, no traceback.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == f"ring-explorer {argv[0]}: out of memory"


def test_huge_step_limit_is_not_bounded(capsys):
    code, out = run_cli(capsys, "simulate", "--n", "9", "--initial", "1,0,2,1,0,0,0,0,0",
                        "--seed", "7", "--max-steps", HUGE)
    assert code == 0
    assert json.loads(out.splitlines()[-1])["config"] == "0,0,2,1,1,0,0,0,0"


def run_cli_process(*argv, **kwargs):
    """The CLI in a fresh interpreter, with stdout block-buffered as by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "ring_explorer.cli", *argv],
                          text=True, env=env, timeout=60, **kwargs)


def test_unwritable_output_fails_cleanly(tmp_path):
    target = tmp_path / "missing" / "trace.jsonl"
    proc = run_cli_process("simulate", "--output", str(target), capture_output=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"cannot write {target}: No such file or directory"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("count", "--n", "4"), ("simulate",),
                                  ("impossible", "--mode", "sequential")],
                         ids=lambda argv: argv[0])
def test_unwritable_stdout_fails_cleanly(argv):
    # One stderr line and exit 1, with no traceback and no second complaint
    # from the interpreter's own flush of stdout at exit.
    with open("/dev/full", "w") as full:
        proc = run_cli_process(*argv, stdout=full, stderr=subprocess.PIPE)
    lines = proc.stderr.splitlines()
    if argv[0] == "impossible":
        assert lines.pop(0).startswith("sequential: 7757 bad-terminal")
    assert proc.returncode == 1
    assert lines == ["cannot write stdout: No space left on device"]
