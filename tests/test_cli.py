import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from disksurgery import (
    builtin_scenario,
    dumps_scenario,
    format_word,
    is_primitive,
    parse_word,
    primitivity,
    render_text,
    replay_certificate,
    report,
    run_report,
    save_scenario,
)
from disksurgery.cli import main
from disksurgery.words import MAX_RANK
from helpers import (
    DISK_E_WORD,
    OUTCOME_LONG,
    OUTCOME_SHORT,
    child_env,
    disjoint_system,
    limit_memory,
    single_chord_system,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_disk_e_word(self, capsys):
        code, out, _ = run(capsys, "reduce", DISK_E_WORD)
        assert code == 0
        assert out == "x2\n"

    def test_explicit_rank(self, capsys):
        code, out, _ = run(capsys, "reduce", "--rank", "2", "x1 x1^-1")
        assert code == 0
        assert out == "1\n"

    def test_bad_word_usage_error(self, capsys):
        code, _, err = run(capsys, "reduce", "zebra")
        assert code == 2
        assert "error" in err

    def test_index_above_rank_bound_usage_error(self, capsys):
        # Without --rank the word is parsed at MAX_RANK; both backends
        # stop here, before the word reaches a kernel.
        code, out, err = run(capsys, "reduce", f"x{2**70} x1")
        assert code == 2
        assert out == ""
        assert f"token 1: generator index {2**70} exceeds rank {MAX_RANK}" in err

    def test_index_just_above_rank_bound_names_the_token(self, capsys):
        code, out, err = run(capsys, "reduce", "x1 x3000000000")
        assert (code, out) == (2, "")
        assert err == f"error: token 2: generator index 3000000000 exceeds rank {MAX_RANK}\n"

    def test_help_states_the_default_rank(self, capsys):
        code, out, _ = run(capsys, "reduce", "--help")
        assert code == 0
        # argparse wraps help text to the terminal width.
        assert f"(default: every index up to {MAX_RANK})" in " ".join(out.split())
        assert "inferred" not in out


# Tokens that `\d` matched: Arabic-Indic one and superscript two.
NON_ASCII_DIGITS = ["x\u0661", "x\u00b2"]
# More digits than int() converts by default (4,300).
LONG_INDEX = "9" * 5000


class TestTokenDigits:
    @pytest.mark.parametrize("token", NON_ASCII_DIGITS)
    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]], ids=["inferred", "given"])
    def test_reduce_non_ascii_digit_usage_error(self, capsys, token, rank):
        code, out, err = run(capsys, "reduce", *rank, f"{token} x2")
        assert (code, out) == (2, "")
        assert err == f"error: token 1: {token!r} is not of the form 'x<k>' or 'x<k>^-1'\n"

    @pytest.mark.parametrize("token", NON_ASCII_DIGITS)
    def test_primitive_non_ascii_digit_usage_error(self, capsys, token):
        code, out, err = run(capsys, "primitive", "--rank", "2", f"{token} x2")
        assert (code, out) == (2, "")
        assert err == f"error: token 1: {token!r} is not of the form 'x<k>' or 'x<k>^-1'\n"

    @pytest.mark.parametrize("command,rank", [
        ("reduce", []), ("reduce", ["--rank", "2"]), ("primitive", ["--rank", "2"])])
    def test_long_index_names_the_token(self, capsys, command, rank):
        code, out, err = run(capsys, command, *rank, f"x1 x{LONG_INDEX}")
        bound = rank[1] if rank else MAX_RANK
        assert (code, out) == (2, "")
        assert err == f"error: token 2: generator index {LONG_INDEX} exceeds rank {bound}\n"

    @pytest.mark.parametrize("label,message", [
        (NON_ASCII_DIGITS[0], f"{NON_ASCII_DIGITS[0]!r} is not of the form 'x<k>' or 'x<k>^-1'"),
        (f"x{LONG_INDEX}", f"generator index {LONG_INDEX} exceeds rank 3"),
    ], ids=["non-ascii", "long"])
    @pytest.mark.parametrize("command", ["validate", "closure", "surgeries"])
    def test_scenario_label_exit_four(self, capsys, tmp_path, label, message, command):
        path = tmp_path / "label.json"
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["labels_d"][0] = label
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (4, "")
        assert err == f"error: labels_d[0]: token 1: {message}\n"


class TestPrimitive:
    def test_primitive_exit_zero(self, capsys):
        code, out, _ = run(capsys, "primitive", "--rank", "3", DISK_E_WORD)
        assert code == 0
        assert "verdict: primitive" in out

    def test_not_primitive_exit_three(self, capsys):
        code, out, _ = run(capsys, "primitive", "--rank", "2", OUTCOME_SHORT)
        assert code == 3
        assert "verdict: not primitive" in out
        assert "oz fired: yes" in out

    def test_no_oz_same_verdict(self, capsys):
        code, out, _ = run(capsys, "primitive", "--rank", "2", "--no-oz", OUTCOME_LONG)
        assert code == 3
        assert "oz fired: no" in out

    def test_certificate_printed_for_descent(self, capsys):
        _, out, _ = run(capsys, "primitive", "--rank", "2", "x2 x1 x2")
        assert "certificate:" in out
        assert "step 1:" in out

    @pytest.mark.parametrize("rank, text", [
        (2, "x2 x1 x2"), (2, "x1 x1 x1 x1 x2^-1"), (2, OUTCOME_LONG),
        (4, "x1 x2 x3 x4 x1 x2 x3 x1 x2 x1"), (3, "x1 x2 x1^-1 x2^-1 x3"),
    ])
    def test_printed_trail_is_the_replayed_certificate(self, capsys, rank, text):
        code, out, _ = run(capsys, "primitive", "--rank", str(rank), "--no-oz", text)
        word = parse_word(text, rank)
        verdict = is_primitive(word, rank, use_oz=False)
        trail = replay_certificate(word, verdict.certificate)
        # The CLI iterates the same replay lazily, one word at a time.
        lazy = primitivity._replay(word.cyclic(), verdict.certificate)
        assert iter(lazy) is lazy
        assert trail == (word.cyclic(), *lazy)
        steps = [line.split(" -> ")[1] for line in out.splitlines() if line.startswith("  step ")]
        assert steps == [f"{format_word(c)} (length {len(c)})" for c in trail[1:]]
        assert len(steps) == len(verdict.certificate) > 0
        assert code == (0 if verdict.primitive else 3)

    def test_missing_rank_usage_error(self, capsys):
        code, _, _ = run(capsys, "primitive", "x1")
        assert code == 2

    def test_rank_above_bound_usage_error(self, capsys):
        code, out, err = run(capsys, "primitive", "--rank", str(MAX_RANK + 1), "x1")
        assert code == 2
        assert out == ""
        assert f"from 2 to {MAX_RANK}" in err


class TestOracle:
    def test_streams_sorted(self, capsys):
        code, out, _ = run(capsys, "oracle", "--rank", "2", "--max-len", "1")
        assert code == 0
        assert out.splitlines() == ["x1", "x1^-1", "x2", "x2^-1"]

    def test_lexicographic_order(self, capsys):
        _, out, _ = run(capsys, "oracle", "--rank", "2", "--max-len", "3")
        lines = out.splitlines()
        assert lines == sorted(lines, key=lambda s: [
            2 * int(t[1:].split("^")[0]) - 2 + t.endswith("^-1") for t in s.split()])

    def test_cap_exit_five(self, capsys, monkeypatch):
        monkeypatch.setattr(primitivity, "ORACLE_NODE_CAP", 2)
        code, _, err = run(capsys, "oracle", "--rank", "2", "--max-len", "4")
        assert code == 5
        assert "exceeded" in err

    @pytest.mark.parametrize("rank, max_len", [(2, 10), (3, 5)])
    def test_output_pinned(self, capsys, rank, max_len):
        code, out, _ = run(capsys, "oracle", "--rank", str(rank), "--max-len", str(max_len))
        assert code == 0
        golden = GOLDEN / f"oracle_rank{rank}_len{max_len}.txt"
        assert out.encode("utf-8") == golden.read_bytes()


class TestValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        save_scenario(builtin_scenario("fig1", 3), path)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "valid" in out

    def test_crossing_file_exit_four(self, capsys, tmp_path):
        system = builtin_scenario("fig1", 3)
        path = tmp_path / "crossed.json"
        save_scenario(system, path)
        data = json.loads(path.read_text())
        data["order_e"] = ["p1", "p3", "p2", "p4"]
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 4
        assert out == "crossing-chords-e: chords ('p1', 'p2') and ('p3', 'p4') cross in order_e\n"

    def test_truncated_file_exit_four(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text("{\"rank\": 3,")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 4
        assert "not valid JSON" in err


class TestDisjointPair:
    """A valid pair with no intersection arcs has no surgery: the commands
    that surger it exit 6, its own code, and ``validate`` accepts it."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "disjoint.json"
        save_scenario(disjoint_system(), path)
        return path

    @pytest.mark.parametrize("command", [["surgeries"], ["closure"], ["closure", "--machine"]])
    def test_surgery_exit_six(self, capsys, path, command):
        code, out, err = run(capsys, *command, str(path))
        assert (code, out, err) == (6, "", "error: surgery undefined for disjoint disks\n")

    def test_validate_exit_zero(self, capsys, path):
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (0, "valid: 0 intersection arcs, rank 2\n", "")


def mutual_crossing_scenario(k):
    """Scenario text of k chords that cross each other in both orders."""
    starts = [f"a{i:05d}" for i in range(k)]
    ends = [f"b{i:05d}" for i in range(k)]
    return json.dumps({
        "rank": 2, "points": starts + ends, "order_d": starts + ends,
        "order_e": starts + ends, "chords": [list(c) for c in zip(starts, ends)],
        "labels_d": ["1"] * (2 * k), "labels_e": ["1"] * (2 * k),
    })


def test_mutual_crossings_named_once_per_order(tmp_path):
    # In a child under a memory limit and a timeout, so that naming every
    # crossing pair (about 5 * 10**7 per order here) fails instead of
    # exhausting memory.
    path = tmp_path / "crossed.json"
    path.write_text(mutual_crossing_scenario(10_000))
    out = subprocess.run(
        [sys.executable, "-m", "disksurgery.cli", "validate", str(path)],
        capture_output=True, text=True,
        env=child_env("pure"), preexec_fn=limit_memory, timeout=60,
    )
    assert out.returncode == 4, out.stderr
    assert out.stdout.splitlines() == [
        f"crossing-chords-{disk}: chords ('a00000', 'b00000') and ('a09999', 'b09999')"
        f" cross in order_{disk}"
        for disk in "de"
    ]


def test_long_certificate_printed_in_bounded_memory():
    # x1^3000 x2 is primitive and its certificate has 3,000 steps, whose
    # words total about 4.5 million letters. Replayed one at a time they fit
    # in 36 MiB of address space; keeping the whole trail needs about 55 MiB.
    k = 3000
    out = subprocess.run(
        [sys.executable, "-m", "disksurgery.cli", "primitive", "--rank", "2",
         " ".join(["x1"] * k + ["x2"])],
        capture_output=True, text=True, env=child_env("pure"),
        preexec_fn=partial(limit_memory, 36 * 2**20), timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    assert lines[2] == "verdict: primitive"
    assert len(lines) == 6 + k
    assert lines[-1].startswith(f"  step {k}: second(") and lines[-1].endswith(" (length 1)")


# Scenario files that cannot be decoded, for every command that reads one.
LOADING_COMMANDS = [("validate",), ("closure",), ("closure", "--machine"), ("surgeries",)]


class TestUndecodableScenario:
    @pytest.mark.parametrize("command", LOADING_COMMANDS)
    def test_not_utf8_exit_four(self, capsys, tmp_path, command):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, *command, str(path))
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", LOADING_COMMANDS)
    def test_deep_nesting_exit_four(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, *command, str(path))
        assert code == 4
        assert out == ""
        assert err.startswith("error: not valid JSON: maximum recursion depth exceeded")
        assert len(err.splitlines()) == 1


class TestSurgeries:
    def test_fig1_lists_eight(self, capsys):
        code, out, _ = run(capsys, "surgeries", "fig1", "--genus", "3")
        assert code == 0
        assert out.count("word:") == 8

    def test_file_argument(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        save_scenario(single_chord_system(["x1", "x2"], ["1", "1"]), path)
        code, out, _ = run(capsys, "surgeries", str(path))
        assert code == 0
        assert out.count("word:") == 8

    def test_fig1_pinned(self, capsys):
        code, out, _ = run(capsys, "surgeries", "fig1", "--genus", "3")
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / "surgeries_fig1_genus3.txt").read_bytes()

    def test_mixed_pinned(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run(capsys, "surgeries", "mixed_rank3.json")
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / "surgeries_mixed_rank3.txt").read_bytes()

    def test_genus_with_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        save_scenario(single_chord_system(["x1", "x2"], ["1", "1"]), path)
        code, _, err = run(capsys, "surgeries", str(path), "--genus", "4")
        assert code == 2
        assert "built-in" in err


class TestClosure:
    def test_fig1_text_report(self, capsys):
        code, out, _ = run(capsys, "closure", "fig1", "--genus", "3")
        assert code == 0
        assert "weak closedness fails in both directions" in out
        assert "DEVIATION" not in out

    def test_fig1_machine_report(self, capsys):
        code, out, _ = run(capsys, "closure", "fig1", "--genus", "4", "--machine")
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 4
        assert len(data["outcomes"]) == 8
        assert data["any_primitive"] == {
            "on D along E": False, "on E along D": False}
        assert all(row["oz_fired"] for row in data["outcomes"])
        assert data["deviations"] == []

    @pytest.mark.parametrize("extra, name", [
        ((), "closure_fig1_genus3.txt"),
        (("--machine",), "closure_fig1_genus3.json"),
    ])
    def test_fig1_report_pinned(self, capsys, extra, name):
        code, out, _ = run(capsys, "closure", "fig1", "--genus", "3", *extra)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("extra, name", [
        ((), "closure_mixed_rank3.txt"),
        (("--machine",), "closure_mixed_rank3.json"),
    ])
    def test_mixed_report_pinned(self, capsys, monkeypatch, extra, name):
        # A rank-3 pair with primitive outcomes, descent and sign-test
        # verdicts, one direction closed and deviations from its meta.
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run(capsys, "closure", "mixed_rank3.json", *extra)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "closure", "fig1", "--genus", "3")
        _, second, _ = run(capsys, "closure", "fig1", "--genus", "3")
        assert first == second

    def test_closed_pair_report(self, capsys, tmp_path):
        path = tmp_path / "closed.json"
        save_scenario(single_chord_system(["x1", "x2"], ["1", "1"]), path)
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 0
        assert "closedness holds at this pair" in out

    def test_invalid_scenario_exit_four(self, capsys, tmp_path):
        system = builtin_scenario("fig1", 3)
        path = tmp_path / "bad.json"
        save_scenario(system, path)
        data = json.loads(path.read_text())
        data["labels_d"] = data["labels_d"][:-1]
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "closure", str(path))
        assert code == 4
        assert "label-count-d" in err

    def test_rank_above_bound_exit_four(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        save_scenario(builtin_scenario("fig1", 3), path)
        data = json.loads(path.read_text())
        data["rank"] = MAX_RANK + 1
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "closure", str(path))
        assert code == 4
        assert out == ""
        assert f"rank: rank must be an integer from 2 to {MAX_RANK}" in err

    @pytest.mark.parametrize("command", ["closure", "surgeries"])
    @pytest.mark.parametrize("genus", [MAX_RANK + 1, 3000000000])
    def test_genus_above_bound_usage_error(self, capsys, command, genus):
        code, out, err = run(capsys, command, "fig1", "--genus", str(genus))
        assert code == 2
        assert out == ""
        assert f"genus must be an integer >= 3 and <= {MAX_RANK}" in err

    def test_deviation_flagged_loudly(self, capsys, tmp_path):
        # A mistranscribed pair whose meta still claims the fig1 classes.
        system = builtin_scenario("fig1", 3)
        path = tmp_path / "tweaked.json"
        save_scenario(system, path)
        data = json.loads(path.read_text())
        data["labels_d"][2] = "x2^-1 x1"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 0
        assert "DEVIATION" in out


class TestExpectedClassesChecked:
    """``closure`` checks ``meta.expected_outcome_classes`` before surgery;
    ``validate`` and ``surgeries`` leave ``meta`` free-form."""

    @pytest.fixture(params=[
        (1, "meta.expected_outcome_classes[1]: expected a string, got int"),
        ("x1 zebra", "meta.expected_outcome_classes[1]: token 2:"),
    ])
    def bad_meta(self, request, tmp_path):
        entry, message = request.param
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["meta"]["expected_outcome_classes"][1] = entry
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(data))
        return path, message

    @pytest.mark.parametrize("extra", [(), ("--machine",)])
    def test_closure_exit_four_before_surgery(self, capsys, monkeypatch, bad_meta, extra):
        path, message = bad_meta

        def no_surgery(system):
            raise AssertionError("surgery ran before meta was checked")

        monkeypatch.setattr(report, "closure_report", no_surgery)
        code, out, err = run(capsys, "closure", str(path), *extra)
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    def test_validate_and_surgeries_ignore_meta(self, capsys, bad_meta):
        path, _ = bad_meta
        assert run(capsys, "validate", str(path))[0] == 0
        assert run(capsys, "surgeries", str(path))[0] == 0

    def test_non_list_ignored(self, capsys, tmp_path):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["meta"]["expected_outcome_classes"] = "x1"
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 0
        assert "DEVIATION" not in out


class TestScenarioSubcommand:
    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(capsys, "scenario", "--builtin", "fig1",
                             "--genus", "3", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "scenario", "--builtin", "fig1",
                           "--genus", "5", "--out", str(path))
        assert code == 0
        assert f"wrote {path}" in out
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 0
        assert "weak closedness fails" in out

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "scenario", "--builtin", "fig1", "--genus", "3")
        assert code == 0
        assert json.loads(out)["rank"] == 3

    def test_genus_two_rejected(self, capsys):
        code, _, err = run(capsys, "scenario", "--builtin", "fig1", "--genus", "2")
        assert code == 2
        assert "genus" in err

    def test_genus_above_bound_rejected(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "scenario", "--builtin", "fig1",
                             "--genus", "3000000000", "--out", str(path))
        assert code == 2
        assert out == ""
        assert "genus" in err
        assert not path.exists()

    def test_genus_at_bound_validates(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "scenario", "--builtin", "fig1",
                         "--genus", str(MAX_RANK), "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert out == f"valid: 2 intersection arcs, rank {MAX_RANK}\n"


class TestReportRendering:
    def test_oz_fired_shown_for_every_fig1_outcome(self):
        report = run_report(builtin_scenario("fig1", 3), label="fig1 (genus 3)")
        assert len(report["outcomes"]) == 8
        assert all(row["oz_fired"] and not row["primitive"] for row in report["outcomes"])
        text = render_text(report)
        assert text.count("not primitive, oz") == 8

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2


# One process runs these in turn on the parser that ``main`` builds once;
# a flag or default left over from an earlier call would show here.
REUSED_PARSER_CALLS = [
    ("closure", "fig1", "--genus", "5"),
    ("closure", "fig1"),
    ("closure", "fig1", "--machine"),
    ("closure",),
    ("primitive", "--rank", "2", "--no-oz", OUTCOME_SHORT),
    ("primitive", "--rank", "2", OUTCOME_SHORT),
]


def test_reused_parser_keeps_no_state_between_calls(capsys):
    results = [run(capsys, *argv) for argv in REUSED_PARSER_CALLS]
    for argv, (code, out, _) in zip(REUSED_PARSER_CALLS, results):
        child = subprocess.run(
            [sys.executable, "-m", "disksurgery.cli", *argv],
            capture_output=True, text=True, env=child_env("pure"), timeout=60,
        )
        assert (code, out) == (child.returncode, child.stdout), argv
    genus5, genus3, machine, usage, no_oz, oz = results
    assert genus5[1].startswith("scenario: fig1 (genus 5)\nrank: 5\n")
    assert genus3[1].startswith("scenario: fig1 (genus 3)\nrank: 3\n")
    assert json.loads(machine[1])["scenario"] == "fig1 (genus 3)"
    assert usage[:2] == (2, "")
    assert usage[2].startswith("usage: disksurgery closure")
    assert "oz fired: no" in no_oz[1]
    assert "oz fired: yes" in oz[1]
