"""CLI surface: exit codes, sinks, seeds, manifests, and golden outputs."""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ldlab import (
    SpanTrialConfig,
    check_ld_exact,
    entropy_q,
    parse_chain,
    parse_code,
    parse_witness,
    run_span_experiment,
)
from ldlab.cli import RunManifest, build_parser, dispatch
from ldlab.errors import SHOWN_CHARS, shorten

GOLDEN_DIR = Path(__file__).parent / "golden"

REPETITION_CODE = "2 7 1\n1111111\n"
SMALL_SPACE = "2 4\n" + "".join(
    f"{i >> 3 & 1}{i >> 2 & 1}{i >> 1 & 1}{i & 1}\n" for i in range(16)
)


# The one line every size refusal prints (see errors.check_budget).
REFUSAL = re.compile(r"ldlab: resource refusal: .+ (= \d+|>= 2\^\d+) exceeds "
                     r"the budget of (2\^\d+|\d+)")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_prints_value(capsys):
    code, out, err = run_cli(capsys, "entropy", "--q", "2", "--x", "0.5")
    assert code == 0
    assert out.strip() == "1.0"
    assert err == ""
    code, out, _ = run_cli(capsys, "entropy", "--q", "3", "--x", "1/5")
    assert code == 0
    assert float(out.strip()) == entropy_q(Fraction(1, 5), 3)


def test_ball_volume_prints_count(capsys):
    code, out, _ = run_cli(capsys, "ball-volume", "--n", "10", "--r", "3", "--q", "2")
    assert code == 0
    assert out.strip() == "176"


def test_ball_volume_accepts_p_or_r_but_not_both(capsys):
    code, out, _ = run_cli(capsys, "ball-volume", "--n", "10", "--p", "0.3", "--q", "2")
    assert code == 0
    assert out.strip() == "176"
    code, _, err = run_cli(
        capsys, "ball-volume", "--n", "10", "--p", "0.3", "--r", "3", "--q", "2"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "ball-volume", "--n", "10", "--q", "2")
    assert code == 2


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "ball-volume", "--n", "4", "--r", "9", "--q", "2")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "entropy", "--q", "2", "--x", "1.5")
    assert code == 2
    span = ["span-exp", "--q", "2", "--ell", "2"]
    sweep = ["rate-sweep", "--n", "8", "--q", "2", "--p", "1/4", "--codes", "1"]
    for flag, argv in [
        ("--p", span + ["--n", "8", "--p", "abc", "--trials", "3"]),
        ("--n", span + ["--n", "abc", "--p", "1/4", "--trials", "3"]),
        ("--trials", span + ["--n", "8", "--p", "1/4"]),
        ("--eps", sweep + ["--eps", "x"]),
        ("eps", sweep + ["--eps", "0"]),
        ("eps", sweep + ["--eps=-1/10"]),
        ("c_constant", sweep + ["--eps", "1/10", "--c-constant", "nan"]),
        ("c_constant", sweep + ["--eps", "1/10", "--c-constant", "inf"]),
        ("c_constant", sweep + ["--eps", "1/10", "--c-constant", "-1"]),
        # exact rationals that no float holds, at a live grid point
        ("x=", ["entropy", "--q", "2", "--x", "1e400"]),
        ("p=", sweep + ["--eps", "1/20", "--p", "1e400"]),
        ("p=", sweep + ["--eps", "1/10", "--p", "3/2"]),
        ("eps", sweep + ["--eps", "1e400"]),
        ("eps", sweep + ["--eps", "1e-400"]),
        ("c_constant", sweep + ["--eps", "1/20", "--c-constant", "1e308"]),
        ("n=", sweep + ["--eps", "1/10", "--n", "0"]),
        ("n=", sweep + ["--eps", "1/10", "--n", "-3"]),
        ("n=", ["ball-volume", "--n", "0", "--r", "0", "--q", "2"]),
        ("n=", ["sample-ball", "--n", "0", "--r", "0", "--q", "2",
                "--count", "1"]),
        ("c_threshold", span + ["--n", "8", "--p", "1/4", "--trials", "3",
                                "--c-threshold", "0"]),
        ("c_threshold", span + ["--n", "8", "--p", "1/4", "--trials", "3",
                                "--c-threshold", "-1"]),
        ("{exact,mc}", ["check-ld"]),
        ("{exact,mc}", ["check-ld", "bogus"]),
        ("{find,verify,oracle}", ["chain"]),
        ("{find,verify}", ["shatter"]),
        ("--workers", span + ["--n", "8", "--p", "1/4", "--trials", "3",
                              "--workers", "0"]),
        ("--workers", span + ["--n", "8", "--p", "1/4", "--trials", "3",
                              "--workers", "-2"]),
        ("--translate", ["chain", "oracle", "--set", "S.vs", "--c", "2",
                         "--translate", "0000", "--best-translate"]),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ldlab: error: ")
        assert flag in lines[0]


def test_budget_refusal_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "span-exp",
        "--n", "40", "--q", "2", "--p", "0.25", "--ell", "30", "--trials", "1",
    )
    assert code == 3
    assert "resource refusal" in err


@pytest.mark.parametrize("argv", [
    ["span-exp", "--q", "2", "--n", "8", "--p", "1/4",
     "--ell", "2", "--trials", "1000000000000"],
    ["sample-ball", "--q", "2", "--n", "8", "--p", "1/4",
     "--count", "1000000000000"],
    ["pair-sum", "--q", "2", "--p", "1/4", "--n-list", "8,16",
     "--trials", "5000000"],
    ["rate-sweep", "--q", "2", "--n", "18", "--p", "1/6",
     "--eps", "1/20", "--codes", "20000000"],
    # one code, but its ball walk is past the budget
    ["rate-sweep", "--q", "2", "--n", "20000", "--p", "1/6",
     "--eps", "1/10", "--codes", "1"],
], ids=["span", "ball", "pair", "sweep-codes", "sweep-ball"])
def test_oversized_run_exits_3_before_any_trial(argv, capsys, monkeypatch):
    """A run of more than 2^24 trials (pair-sum: trials x grid cells) is
    refused up front, in the one refusal form; it would otherwise run
    until killed while holding one result per trial.  Every trial job
    first derives its stream, so deriving none shows that none started."""
    from ldlab import experiments

    def no_work(seed, *indices):
        raise AssertionError(f"trial {indices} started")

    monkeypatch.setattr(experiments, "derive_stream", no_work)
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and REFUSAL.fullmatch(lines[0]), err


@pytest.mark.parametrize("argv", [
    ["sample-ball", "--q", "2", "--n", "100000000", "--p", "1/2",
     "--count", "1"],
    ["pair-sum", "--q", "2", "--p", "1/10", "--n-list", "20,100000000",
     "--trials", "1"],
    ["span-exp", "--q", "2", "--n", "100000000", "--p", "1/10", "--ell", "2",
     "--trials", "1"],
    ["ball-volume", "--q", "2", "--p", "1/2", "--n", "20000"],
    ["ball-volume", "--q", "2", "--p", "1/2", "--n", "100000000"],
    # vector-set files: the chain oracle past l = 20, and a translate scan
    # past q^l = 2^16
    ["chain", "oracle", "--c", "1", "--set", "2 21\n" + "1" * 21 + "\n"],
    ["chain", "oracle", "--c", "1", "--best-translate",
     "--set", "2 17\n" + "1" * 17 + "\n"],
    # a ball volume of 6021 digits, past the 4300-digit str limit
    ["check-ld", "exact", "--p", "1/2", "--L", "1",
     "--code", "2 20000 1\n" + "1" * 20000 + "\n"],
    # k = 0 codes whose balls took seconds to sum, or grew until killed
    ["check-ld", "exact", "--p", "1/3", "--L", "1", "--code", "2 200000 0\n"],
    ["check-ld", "exact", "--p", "1/3", "--L", "1", "--code", "2 2000000 0\n"],
])
def test_oversized_ball_sampling_exits_3_before_drawing(argv, tmp_path):
    """A ball whose exact shell table is too large to build is refused
    before the first draw; at n = 10^8 the table alone would run until
    killed.  A volume too long to print is refused before its shells are
    summed: at n = 20000 printing it raised ValueError (the 4300-digit str
    limit), at n = 10^8 the sum ran until killed.  The chain oracle and
    the translate scan refuse before they search, and the exact checker
    from the first shells of a ball past its budget, however long the
    code.  Every refusal is one line in the one refusal form.  An argument holding a newline is the
    text of a file, passed by its path."""
    set_file = tmp_path / "set.txt"
    for arg in argv:
        if "\n" in arg:
            set_file.write_text(arg)
    argv = [str(set_file) if "\n" in arg else arg for arg in argv]
    result = subprocess.run([sys.executable, "-m", "ldlab", *argv],
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and REFUSAL.fullmatch(lines[0]), result.stderr


@pytest.mark.parametrize("argv", [
    ["span-exp", "--q", "3", "--n", "8", "--p", "1/4", "--ell", "30000000",
     "--trials", "1"],
    ["check-ld", "exact", "--mode", "full", "--p", "1/4", "--L", "1",
     "--code", "3 30000000 0\n"],
])
def test_power_past_the_budget_is_refused_by_its_exponent(argv, tmp_path):
    """q^l and q^n are refused from their exponents, without building a
    power of millions of digits first (about 15 s each for these runs)."""
    code_file = tmp_path / "code.txt"
    for arg in argv:
        if "\n" in arg:
            code_file.write_text(arg)
    argv = [str(code_file) if "\n" in arg else arg for arg in argv]
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "ldlab", *argv],
                            capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and REFUSAL.fullmatch(lines[0]), result.stderr
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("argv", [
    ["rate-sweep", "--q", "2", "--n", "100000", "--p", "0", "--eps", "1/10",
     "--codes", "1"],
    ["gen-code", "--q", "2", "--n", "100000", "--k", "50000"],
])
def test_long_code_is_refused_before_any_digit(argv):
    """A k x n generator past the budget is refused before a digit is
    drawn; at --p 0 the sweep's ball of one point passes its own check,
    and drawing and ranking k n digits would take hours."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "ldlab", *argv],
                            capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and REFUSAL.fullmatch(lines[0]), result.stderr
    assert elapsed < 1, elapsed


SWEEP = ["rate-sweep", "--q", "2", "--n", "8", "--codes", "1"]


@pytest.mark.parametrize("argv", [
    [*SWEEP, "--p", "1e400", "--eps", "1/10"],
    [*SWEEP, "--p", "1/6", "--eps", "1e-400"],
    [*SWEEP, "--p", "1/6", "--eps=-1e400"],
    [*SWEEP, "--p", "1/6", "--eps", "1e-300", "--c-constant", "1e300"],
    ["entropy", "--x", "1e400", "--q", "2"],
    # past the 4300-digit str limit, where printing raised ValueError
    ["entropy", "--x", "1e5000", "--q", "2"],
    [*SWEEP, "--p", "1/6", "--eps", "1e-5000"],
])
def test_range_error_on_a_long_rational_is_one_short_line(capsys, argv):
    """A rational out of range is named in one line of at most 200 bytes,
    not with its hundreds of digits (about 450 bytes for 1e400)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) <= 200, err


LONG_TEXT = "z" * 5000


@pytest.mark.parametrize("argv", [
    ["entropy", "--q", "2", "--x", LONG_TEXT],
    ["entropy", "--q", "2", "--x", "\u20ac" * 5000],  # three bytes each
    [*SWEEP, "--p", "1/6", "--eps=" + ",".join(["-1"] * 3000)],
    [*SWEEP, "--p", "1/6", "--eps", "1/10," + LONG_TEXT],
    [*SWEEP, "--p", LONG_TEXT, "--eps", "1/10"],
])
def test_error_on_long_user_text_is_one_short_line(capsys, argv):
    """An unparsable fraction, alone or in the eps list, and a long list
    of eps values below 0 are named shortened, with their length, in one
    line of at most 200 bytes: not echoed in full (5058 bytes for 5000
    characters of --x, 12,034 for 3000 eps values of -1)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) <= 200, err
    assert "characters)" in lines[0], err


def test_shorten_names_the_length_of_a_long_text():
    assert shorten("1/2x") == "1/2x"
    assert shorten("z" * SHOWN_CHARS) == "z" * SHOWN_CHARS
    assert shorten("z" * (SHOWN_CHARS + 1)) == (
        "z" * SHOWN_CHARS + f"... ({SHOWN_CHARS + 1} characters)")


def test_range_error_on_a_short_rational_prints_it_exactly(capsys):
    code, _, err = run_cli(capsys, "entropy", "--x", "3/2", "--q", "2")
    assert code == 2
    assert err == "ldlab: error: entropy argument x=3/2 outside [0, 1]\n"


def test_long_ball_volume_under_the_budget_still_prints(capsys):
    """Thousands of digits are fine: 2^9999 < |B(0, 5000)| < 2^10000."""
    code, out, _ = run_cli(capsys, "ball-volume", "--n", "10000", "--p", "1/2",
                           "--q", "2")
    assert code == 0
    assert 2**9999 < int(out) < 2**10000


def test_ball_volume_print_budget_is_the_exact_volume(capsys):
    """The print guard compares the exact volume with 2^13287, the largest
    power of two of 4000 digits: at p = 1/2, |B| = 2^13286 at n = 13287
    prints, and n = 13288 is refused."""
    code, out, _ = run_cli(capsys, "ball-volume", "--n", "13287", "--p", "1/2",
                           "--q", "2")
    assert code == 0 and int(out) == 2**13286
    code, out, err = run_cli(capsys, "ball-volume", "--n", "13288", "--p",
                             "1/2", "--q", "2")
    assert code == 3 and out == ""
    assert REFUSAL.fullmatch(err.strip()) and "2^13287" in err


def test_decimal_and_fraction_error_rates_agree(capsys):
    argv = ["sample-ball", "--n", "10", "--q", "2", "--count", "4", "--seed", "3"]
    _, out_decimal, _ = run_cli(capsys, *argv, "--p", "0.2")
    _, out_fraction, _ = run_cli(capsys, *argv, "--p", "1/5")
    assert out_decimal == out_fraction


def test_check_ld_exact_on_repetition_code(tmp_path, capsys):
    code_file = tmp_path / "rep.code"
    code_file.write_text(REPETITION_CODE)
    code, out, _ = run_cli(
        capsys,
        "check-ld", "exact", "--code", str(code_file), "--p", "0.2", "--L", "1",
    )
    assert code == 0
    assert "L_max = 1" in out
    code, out, _ = run_cli(
        capsys,
        "check-ld", "exact", "--code", str(code_file), "--p", "0.2", "--L", "1",
        "--json",
    )
    record = json.loads(out)
    assert record["kind"] == "ld-verdict"
    assert record["L_max"] == 1
    assert record["decodable"] is True
    library = check_ld_exact(parse_code(REPETITION_CODE), "0.2", 1)
    assert record["witness_center"] == str(library.witness_center)


def test_check_ld_montecarlo_histogram(tmp_path, capsys):
    code_file = tmp_path / "rep.code"
    code_file.write_text(REPETITION_CODE)
    code, out, _ = run_cli(
        capsys,
        "check-ld", "mc", "--code", str(code_file), "--p", "0.2",
        "--trials", "64", "--seed", "5", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "ld-samples"
    assert record["histogram"] == {"1": 64}


def test_gen_code_is_deterministic_and_parses(capsys):
    argv = ["gen-code", "--n", "9", "--k", "3", "--q", "3", "--seed", "21"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    generated = parse_code(first)
    assert generated.n == 9 and generated.k == 3 and generated.full_rank


def test_out_writes_artifact_with_manifest(tmp_path, capsys):
    target = tmp_path / "code.txt"
    code, _, _ = run_cli(
        capsys,
        "gen-code", "--n", "8", "--k", "2", "--q", "2", "--seed", "9",
        "--out", str(target),
    )
    assert code == 0
    artifact = target.read_text()
    assert parse_code(artifact).k == 2
    manifest_path = Path(str(target) + ".manifest.json")
    manifest = RunManifest.from_json(manifest_path.read_text())
    assert manifest.subcommand == "gen-code"
    assert manifest.seed == 9
    assert manifest.params == {"n": 8, "k": 2, "q": 2, "iid": False}
    assert manifest.outputs == (str(target),)
    assert "created_at" in json.loads(manifest_path.read_text())


def test_manifest_replay_reproduces_the_artifact(tmp_path, capsys):
    target = tmp_path / "code.txt"
    run_cli(
        capsys,
        "gen-code", "--n", "8", "--k", "3", "--q", "2", "--seed", "31",
        "--out", str(target),
    )
    original = target.read_text()
    target.unlink()
    code, _, _ = run_cli(capsys, "--manifest", str(target) + ".manifest.json")
    assert code == 0
    assert target.read_text() == original


def test_manifest_replay_reproduces_stdout(tmp_path, capsys):
    """A manifest written by hand replays argv and reproduces the output."""
    argv = ["sample-ball", "--n", "8", "--q", "2", "--p", "1/4",
            "--count", "3", "--seed", "11", "--json"]
    _, expected, _ = run_cli(capsys, *argv)
    manifest = RunManifest(
        subcommand="sample-ball", argv=tuple(argv), seed=11,
        params={}, outputs=(), version="0.1.0", created_at="",
    )
    manifest_file = tmp_path / "run.manifest.json"
    manifest_file.write_text(manifest.to_json())
    code, out, _ = run_cli(capsys, "--manifest", str(manifest_file))
    assert code == 0
    assert out == expected


def test_parser_built_once_behaves_like_a_fresh_one(tmp_path, capsys):
    """Calls in one process share one parser: a run, two usage errors, a
    manifest replay and another run each return and print exactly what
    they do with a freshly built parser."""
    sweep = ["rate-sweep", "--q", "2", "--n", "10", "--p", "1/5", "--eps",
             "1/10", "--codes", "2", "--seed", "3", "--json"]
    manifest_file = tmp_path / "run.manifest.json"
    manifest_file.write_text(RunManifest(
        subcommand="rate-sweep", argv=tuple(sweep), seed=3, params={},
        outputs=(), version="0.1.0", created_at="").to_json())
    calls = [sweep,
             ["span-exp", "--q", "2", "--n", "8", "--ell", "2",
              "--trials", "3", "--p", "abc"],
             ["check-ld"],
             ["--manifest", str(manifest_file)],
             ["span-exp", "--q", "3", "--n", "8", "--p", "1/4", "--ell", "2",
              "--trials", "5", "--seed", "4", "--json"]]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    build_parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 0]
    for _, out, err in fresh[1:3]:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("ldlab: error: ")
    assert "--p" in fresh[1][2] and "{exact,mc}" in fresh[2][2]
    assert fresh[3][1] == fresh[0][1] != ""


def test_manifest_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.manifest.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "--manifest", str(bad))[0] == 2
    bad.write_text(json.dumps({"seed": 1}))
    assert run_cli(capsys, "--manifest", str(bad))[0] == 2
    bad.write_text(json.dumps([1, 2]))
    assert run_cli(capsys, "--manifest", str(bad))[0] == 2
    fields = json.loads(RunManifest(
        subcommand="entropy", argv=(), seed=None, params={}, outputs=(),
        version="0.1.0", created_at="").to_json())
    for argv in (5, [1, 2]):
        bad.write_text(json.dumps({**fields, "argv": argv}))
        assert run_cli(capsys, "--manifest", str(bad))[0] == 2
    assert run_cli(capsys, "--manifest", str(tmp_path / "missing.json"))[0] == 2


@pytest.mark.parametrize("option, data", [
    (["check-ld", "exact", "--p", "1/3", "--L", "1", "--code"],
     b"2 3 1\n\xff\xfe1\n"),
    (["--manifest"], b"\xff"),
])
def test_non_utf8_input_exits_2(option, data, tmp_path, capsys):
    """A file that is not UTF-8 text is malformed input: one error line."""
    path = tmp_path / "input"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, *option, str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ldlab: error: ")
    assert str(path) in lines[0]


@pytest.mark.parametrize("out", ["missing/out.txt", ".", "taken.txt"])
def test_unwritable_out_exits_2(out, tmp_path, capsys):
    """--out into a missing directory, onto a directory, or beside a
    manifest path that is a directory is one error line, not a traceback."""
    (tmp_path / "taken.txt.manifest.json").mkdir()
    target = str(tmp_path / out)
    code, out_text, err = run_cli(capsys, "entropy", "--q", "2", "--x", "1/2",
                                  "--out", target)
    assert code == 2
    assert out_text == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ldlab: error: ")
    assert "cannot write" in lines[0]


def test_failed_manifest_write_leaves_no_artifact(tmp_path, capsys):
    """--out writes an artifact and its manifest or neither: when the
    manifest path is a directory, the artifact written first is removed."""
    (tmp_path / "F.manifest.json").mkdir()
    code, _, err = run_cli(capsys, "entropy", "--q", "2", "--x", "1/2",
                           "--out", str(tmp_path / "F"))
    assert code == 2
    assert "cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F.manifest.json"]


def test_manifest_naming_a_manifest_exits_2(tmp_path, capsys):
    """A replayed argv that itself names --manifest is refused, not followed."""
    manifest_file = tmp_path / "loop.manifest.json"
    manifest = RunManifest(
        subcommand="entropy", argv=("--manifest", str(manifest_file)),
        seed=None, params={}, outputs=(), version="0.1.0", created_at="",
    )
    manifest_file.write_text(manifest.to_json())
    code, out, err = run_cli(capsys, "--manifest", str(manifest_file))
    assert code == 2
    assert out == ""
    assert err.startswith("ldlab: error:") and len(err.splitlines()) == 1


def test_chain_find_verify_oracle_round_trip(tmp_path, capsys):
    set_file = tmp_path / "space.vs"
    set_file.write_text(SMALL_SPACE)
    chain_file = tmp_path / "chain.txt"
    code, out, _ = run_cli(
        capsys,
        "chain", "find", "--set", str(set_file), "--c", "2",
        "--out", str(chain_file),
    )
    assert code == 0
    chain = parse_chain(chain_file.read_text())
    assert chain.d >= 1 and chain.verify()
    code, out, _ = run_cli(capsys, "chain", "verify", "--chain", str(chain_file))
    assert code == 0
    assert "valid = True" in out
    code, out, _ = run_cli(
        capsys, "chain", "oracle", "--set", str(set_file), "--c", "2", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["longest"] >= chain.d
    code, out, _ = run_cli(
        capsys,
        "chain", "oracle", "--set", str(set_file), "--c", "2",
        "--best-translate", "--json",
    )
    assert json.loads(out)["best_translate"] is not None


def test_shatter_find_and_verify(tmp_path, capsys):
    set_file = tmp_path / "space.vs"
    set_file.write_text(SMALL_SPACE)
    witness_file = tmp_path / "witness.txt"
    code, _, _ = run_cli(
        capsys,
        "shatter", "find", "--set", str(set_file), "--c", "2",
        "--out", str(witness_file),
    )
    assert code == 0
    witness = parse_witness(witness_file.read_text())
    assert len(witness.U) == 2
    coords = ",".join(str(u) for u in sorted(witness.U))
    code, out, _ = run_cli(
        capsys, "shatter", "verify", "--set", str(set_file), "--u", coords, "--json"
    )
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, out, _ = run_cli(
        capsys, "shatter", "verify", "--set", str(set_file), "--u", "1", "--json"
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_span_exp_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "span-exp", "--n", "16", "--q", "2", "--p", "0.25", "--ell", "4",
        "--trials", "40", "--seed", "5", "--json",
    )
    assert code == 0
    config = SpanTrialConfig(
        n=16, p=Fraction(1, 4), q=2, ell=4, trials=40, seed=5, c_threshold=64
    )
    assert json.loads(out) == run_span_experiment(config).as_record()


def test_rate_sweep_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "rate-sweep", "--n", "10", "--q", "2", "--p", "0.2",
        "--eps", "0.1,0.3", "--codes", "4", "--seed", "3", "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,rate,k,degenerate,L_candidate,l_max,codes"
    assert len(lines) >= 3


def test_seed_env_variable_is_a_default(monkeypatch, capsys):
    argv = ["sample-ball", "--n", "8", "--q", "2", "--p", "1/4", "--count", "3",
            "--json"]
    monkeypatch.setenv("LDLAB_SEED", "11")
    _, from_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("LDLAB_SEED")
    _, from_flag, _ = run_cli(capsys, *argv, "--seed", "11")
    assert from_env == from_flag
    monkeypatch.setenv("LDLAB_SEED", "99")
    _, overridden, _ = run_cli(capsys, *argv, "--seed", "11")
    assert overridden == from_flag
    monkeypatch.setenv("LDLAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ldlab", "entropy", "--q", "2", "--x", "0.5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1.0"


@pytest.mark.parametrize("seed", [12345, 67890])
def test_golden_outputs(seed, capsys):
    """Fixed-seed runs match the checked-in golden transcripts byte for byte."""
    cases = {
        f"sample_ball_{seed}.jsonl": [
            "sample-ball", "--n", "12", "--q", "3", "--p", "0.25",
            "--count", "5", "--seed", str(seed), "--json",
        ],
        f"gen_code_{seed}.txt": [
            "gen-code", "--n", "10", "--k", "4", "--q", "2", "--seed", str(seed),
        ],
        f"span_exp_{seed}.json": [
            "span-exp", "--n", "16", "--q", "2", "--p", "0.25", "--ell", "4",
            "--trials", "50", "--seed", str(seed), "--json",
        ],
    }
    for name, argv in cases.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        golden = (GOLDEN_DIR / name).read_text()
        assert out == golden, f"output for {name} diverged from the golden file"


def test_pair_sum_golden(capsys):
    """pair-sum at q = 2 and q = 3 matches the checked-in records byte for
    byte.  The grid reaches both branches of the support draw
    (random.sample's pool for n <= 21, or n <= 85 once w > 5, and its set
    otherwise) and the random-center digit draws."""
    out = []
    for q in ("2", "3"):
        code, text, _ = run_cli(
            capsys, "pair-sum", "--q", q, "--p", "1/4",
            "--n-list", "12,20,40,90", "--trials", "300",
            "--seed", "12345", "--json")
        assert code == 0
        out.append(text)
    assert "".join(out) == (GOLDEN_DIR / "pair_sum_12345.json").read_text()


@pytest.mark.parametrize("q, n, ell", [(3, 32, 6), (5, 20, 4), (9, 12, 3)])
def test_span_goldens_across_fields(q, n, ell, capsys):
    """span-exp at seed 12345 for a SWAR field (q = 3, 5) and the table-loop
    field q = 9 matches the checked-in records byte for byte."""
    code, out, _ = run_cli(
        capsys, "span-exp", "--q", str(q), "--n", str(n), "--p", "1/4",
        "--ell", str(ell), "--trials", "8", "--seed", "12345", "--json")
    assert code == 0
    assert out == (GOLDEN_DIR / f"span_exp_q{q}_12345.json").read_text()


# (q, n, k, p, L): one code per field drawn by gen-code at seed 12345,
# then checked exactly; the verdicts include the witness center.
EXACT_GOLDEN_CASES = [
    (2, 14, 4, "1/4", 2),
    (3, 10, 3, "1/5", 2),
    (4, 8, 3, "1/4", 2),
    (5, 8, 3, "3/8", 2),
    (7, 6, 2, "1/3", 2),
    (9, 6, 2, "1/3", 2),
    (16, 5, 2, "2/5", 2),
]
SWEEP_GOLDEN_ARGV = ["rate-sweep", "--q", "3", "--n", "14", "--p", "1/5",
                     "--eps", "1/20,1/10,1/5", "--codes", "3",
                     "--seed", "12345", "--json"]


def exact_golden_transcript(tmp_path: Path) -> str:
    """The check-ld exact --json lines of EXACT_GOLDEN_CASES, in order."""
    out = io.StringIO()
    for q, n, k, p, L in EXACT_GOLDEN_CASES:
        path = tmp_path / f"code_q{q}.txt"
        argv = ["gen-code", "--q", str(q), "--n", str(n), "--k", str(k),
                "--seed", "12345", "--out", str(path)]
        assert dispatch(argv) == 0
        with contextlib.redirect_stdout(out):
            assert dispatch(["check-ld", "exact", "--code", str(path),
                             "--p", p, "--L", str(L), "--json"]) == 0
    return out.getvalue()


def test_exact_verdict_goldens_across_fields(tmp_path):
    """Exact verdicts (L_max and witness center) for q in {2, 3, 4, 5, 7, 9,
    16} and a q = 3 rate-sweep record match the checked-in files byte for
    byte; both were taken before the level-wise coset tally."""
    assert exact_golden_transcript(tmp_path) == (
        GOLDEN_DIR / "check_ld_exact_12345.jsonl").read_text()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(SWEEP_GOLDEN_ARGV) == 0
    assert out.getvalue() == (GOLDEN_DIR / "rate_sweep_q3_12345.json").read_text()
