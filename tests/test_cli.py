"""CLI surface: parsing, exporters, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import emitted, tampered
from qcrystal import cli, crystal, rank_one
from qcrystal.cli import (EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                          EXIT_VERIFY_FAILED, EXIT_WRITE, emit_dot, emit_json,
                          main, parse_args)
from qcrystal.root_data import _Orbit, cartan_datum


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("CRYSTAL_LOG", "error")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qcrystal", *args],
                          capture_output=True, env=env)


def test_parse_args_roundtrip():
    spec = parse_args(["crystal", "--type", "A1", "--weight", "2", "--format", "text"])
    assert spec.command == "crystal" and spec.type_name == "A1"
    assert spec.weight == (2,) and spec.fmt == "text"
    spec = parse_args(["demazure", "--type", "A2", "--weight", "1,1", "--word", "1,2,1"])
    assert spec.word == (1, 2, 1)


def test_parser_is_shared_but_specs_are_not(capsys):
    first = parse_args(["rank-one", "--weight", "3"])
    with pytest.raises(SystemExit) as err:
        parse_args(["crystal", "--type", "A2", "--weight", "1"])
    assert err.value.code == EXIT_USAGE
    assert capsys.readouterr().err
    second = parse_args(["rank-one", "--weight", "3"])
    assert second == first and second is not first
    first.weight = (9,)
    assert parse_args(["rank-one", "--weight", "3"]).weight == (3,)
    other = parse_args(["demazure", "--type", "A2", "--weight", "1,1", "--word", "1,2"])
    assert (other.command, other.word, other.fmt) == ("demazure", (1, 2), "text")
    assert (second.command, second.word) == ("rank-one", None)


def test_parser_is_built_on_first_use():
    # importing the CLI builds no parser; the first parse builds the only one
    probe = ("import qcrystal.cli as c; n = c._build_parser.cache_info().currsize; "
             "c.parse_args(['rank-one', '--weight', '1']); "
             "c.parse_args(['rank-one', '--weight', '2']); "
             "print(n, c._build_parser.cache_info().currsize, c._build_parser.cache_info().misses)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert result.stdout.split() == [b"0", b"1", b"1"], result.stderr


JOB_FIELDS = {"command", "type_name", "weight", "word", "fmt", "out",
              "max_elements", "inject_failure"}


def test_every_subcommand_yields_the_same_job_fields():
    typed = ["--type", "A2", "--weight", "1,1"]
    jobs = {
        "crystal": parse_args(["crystal", *typed]),
        "demazure": parse_args(["demazure", *typed, "--word", "1"]),
        "character": parse_args(["character", *typed]),
        "rank-one": parse_args(["rank-one", "--weight", "3"]),
        "verify": parse_args(["verify", *typed]),
    }
    for command, job in jobs.items():
        fields = vars(job)
        assert set(fields) == JOB_FIELDS, command
        assert fields["command"] == command
        assert fields["type_name"] == (None if command == "rank-one" else "A2")
        assert fields["word"] == ((1,) if command == "demazure" else None)
        assert (fields["fmt"], fields["out"], fields["max_elements"],
                fields["inject_failure"]) == ("text", None, 200000, False)


def test_format_flags_each_command_ignores(tmp_path):
    # rank-one has one rendering; character and verify render dot as text
    def output(*argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    rank_one = ("rank-one", "--weight", "3")
    assert output(*rank_one) == output(*rank_one, "--format", "json") \
        == output(*rank_one, "--format", "dot")
    for command in ("character", "verify"):
        typed = (command, "--type", "A2", "--weight", "1,1")
        assert output(*typed, "--format", "dot") == output(*typed, "--format", "text")
        assert output(*typed, "--format", "dot") != output(*typed, "--format", "json")


def test_parse_args_usage_errors(capsys):
    cases = [
        (["crystal", "--type", "A2", "--weight", "1"], "--weight needs 2 coordinates for A2"),
        (["crystal", "--type", "Q9", "--weight", "1"], "type Q9 is outside the supported table"),
        (["demazure", "--type", "A2", "--weight", "1,1"], "demazure requires --word"),
        (["demazure", "--type", "A2", "--weight", "1,1", "--word", "3"],
         "--word letters must lie in 1..2"),
        (["crystal", "--type", "A2", "--weight", "1,x"], "expected comma-separated integers"),
        (["crystal", "--type", "A2", "--weight=-1,0"], "--weight must be dominant"),
        (["crystal", "--type", "A2", "--weight", "1,1", "--max-elements", "0"],
         "--max-elements must be positive, got 0"),
        (["crystal", "--type", "A2", "--weight", "1,1", "--max-elements", "-5"],
         "--max-elements must be positive, got -5"),
        (["rank-one", "--weight", "3", "--max-elements", "0"], "--max-elements must be positive"),
        (["rank-one", "--weight", "1,2"], "rank-one takes a single integer --weight"),
        (["rank-one", "--weight=-1"], "rank-one highest weight must be nonnegative"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err, argv


def test_crystal_text_chain():
    result = run_cli("crystal", "--type", "A1", "--weight", "2", "--format", "text")
    assert result.returncode == EXIT_OK
    out = result.stdout.decode()
    assert "3 elements" in out
    assert "0 -1-> 1" in out and "1 -1-> 2" in out


def test_json_schema(graph_of):
    graph = graph_of("A2", (1, 1))
    payload = json.loads(emitted(emit_json, graph, None))
    assert payload["family"] == "A" and payload["rank"] == 2
    assert payload["highest_weight"] == [1, 1]
    assert len(payload["elements"]) == 8
    assert payload["elements"][0] == {"id": 0, "weight": [1, 1],
                                      "eps": [0, 0], "phi": [1, 1]}
    edge_count = sum(child >= 0 for column in graph.children for child in column)
    assert len(payload["edges"]) == edge_count
    assert all(set(e) == {"from", "to", "i"} for e in payload["edges"])
    assert "members" not in payload

    trivial = graph_of("A2", (0, 0))
    payload = json.loads(emitted(emit_json, trivial, None))
    assert len(payload["elements"]) == 1 and payload["edges"] == []

    two = graph_of("A1", (1,))
    payload = json.loads(emitted(emit_json, two, None))
    assert len(payload["elements"]) == 2
    assert payload["edges"] == [{"from": 0, "to": 1, "i": 1}]


def test_json_members_field(graph_of):
    graph = graph_of("A2", (1, 1))
    payload = json.loads(emitted(emit_json, graph, {3, 0, 1}))
    assert payload["members"] == [0, 1, 3]


def test_dot_output(graph_of):
    graph = graph_of("A1", (1,))
    text = emitted(emit_dot, graph, None).decode()
    assert text.startswith("digraph crystal {")
    assert 'n0 [label="(1)"];' in text
    assert 'n0 -> n1 [label="1"];' in text
    marked = emitted(emit_dot, graph, {0}).decode()
    assert 'n0 [label="(1)", peripheries=2];' in marked


def test_byte_identical_outputs(tmp_path):
    jobs = [
        ("crystal", "A1", "4"), ("crystal", "A2", "1,0"), ("crystal", "A2", "1,1"),
        ("crystal", "A2", "2,1"), ("crystal", "B2", "1,0"), ("crystal", "B2", "1,1"),
        ("crystal", "A3", "1,0,1"), ("crystal", "G2", "1,0"),
    ]
    for command, name, weight in jobs:
        blobs = []
        for run in range(2):
            out = tmp_path / f"{name}-{weight.replace(',', '_')}-{run}.json"
            result = run_cli(command, "--type", name, "--weight", weight,
                             "--format", "json", "--out", str(out))
            assert result.returncode == EXIT_OK, result.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        json.loads(blobs[0])


def test_verify_exit_codes():
    ok = run_cli("verify", "--type", "A1", "--weight", "4")
    assert ok.returncode == EXIT_OK
    assert b"result: PASS" in ok.stdout

    bad = run_cli("verify", "--type", "A2", "--weight", "1,1", "--inject-failure")
    assert bad.returncode == EXIT_VERIFY_FAILED
    assert b"string-property" in bad.stdout and b"witness" in bad.stdout


@pytest.mark.parametrize("type_name, weight, top", [
    ("A1", "1", 0), ("A2", "0,1", 1), ("A3", "0,0,1", 2), ("A4", "0,0,0,1", 3)])
def test_inject_failure_fails_on_minuscule_weights(type_name, weight, top):
    # dropping the bottom of a string of these B(lambda) leaves a Demazure
    # subset; dropping the top of a string never leaves one.  The dropped top
    # is that of the first 1-string with a child: element 0 has none unless
    # lambda_1 > 0, and the witness is the rest of its string.
    bad = run_cli("verify", "--type", type_name, "--weight", weight, "--inject-failure")
    assert bad.returncode == EXIT_VERIFY_FAILED
    assert b"string-property" in bad.stdout and b"result: FAIL" in bad.stdout
    assert f"(1, {top}, ({top + 1},)))".encode() in bad.stdout


def test_inject_failure_at_zero_weight_is_a_usage_error():
    # B(0) has no i-string to corrupt: refused up front, without a traceback
    for type_name, weight in (("A1", "0"), ("B2", "0,0")):
        result = run_cli("verify", "--type", type_name, "--weight", weight, "--inject-failure")
        assert result.returncode == EXIT_USAGE
        assert result.stdout == b""
        assert b"Traceback" not in result.stderr
        lines = result.stderr.decode().splitlines()
        assert [ln for ln in lines if ln.startswith("qcrystal")] == [
            "qcrystal: error: --inject-failure needs a nonzero --weight: "
            "B(0) has no string to corrupt"]


def test_non_ascii_digits_in_a_type_name_are_a_usage_error():
    for name in ("A²", "A٣"):
        result = run_cli("crystal", "--type", name, "--weight", "1")
        assert result.returncode == EXIT_USAGE
        assert f"cannot parse type name {name!r}".encode() in result.stderr
        assert b"invalid literal" not in result.stderr


def test_verify_json_report():
    result = run_cli("verify", "--type", "A2", "--weight", "1,1",
                     "--format", "json")
    assert result.returncode == EXIT_OK
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "normal-crystal-relations" in names
    assert all(c["ok"] for c in payload["checks"])


def test_character_command():
    result = run_cli("character", "--type", "A2", "--weight", "1,1")
    assert result.returncode == EXIT_OK
    lines = result.stdout.decode().strip().splitlines()
    assert "(0, 0) : 2" in lines
    assert len(lines) == 7  # seven distinct weights in the adjoint
    weights = [tuple(int(c) for c in line.split(" : ")[0].strip("()").split(", "))
               for line in lines]
    assert weights == sorted(weights, reverse=True)

    with_word = run_cli("character", "--type", "A2", "--weight", "1,1",
                        "--word", "1", "--format", "json")
    payload = json.loads(with_word.stdout)
    assert payload["word"] == [1]
    assert sum(entry["mult"] for entry in payload["character"]) == 2


def test_rank_one_command():
    result = run_cli("rank-one", "--weight", "3")
    assert result.returncode == EXIT_OK
    out = result.stdout.decode()
    assert "f . f^(1)v = [2] f^(2)v = (q + q^-1) f^(2)v" in out
    assert "K . f^(0)v = q^3 f^(0)v" in out
    assert "crystal chain: 0 -> 1 -> 2 -> 3" in out
    assert "sl2 relation" in out and "ok" in out


def test_rank_one_table_prints_the_computed_actions(monkeypatch):
    # the table shows what act_f / act_e returned, not a coefficient rebuilt beside them
    def doubled(act):
        return lambda m, v: {k: c + c for k, c in act(m, v).items()}

    monkeypatch.setattr(cli, "act_f", doubled(cli.act_f))
    monkeypatch.setattr(cli, "act_e", doubled(cli.act_e))
    ok, _ = rank_one.verify_sl2_relation(rank_one.RankOneModule(3))
    out = emitted(cli.emit_rank_one, 3, ok).decode()
    assert "f . f^(1)v = [2] f^(2)v = (2q + 2q^-1) f^(2)v" in out
    assert "e . f^(1)v = [3] f^(0)v = (2q^2 + 2 + 2q^-2) f^(0)v" in out
    assert "f . f^(3)v = 0" in out and "e . f^(0)v = 0" in out


# sha256 of the exact bytes of ``rank-one --weight N``, recorded before the
# Laurent product moved to Kronecker substitution
RANK_ONE_SHA256 = {
    0: "7c42e96898fb2530fd53507acea54465aaefc6e9fde297ef84e93e2ab4fd5f35",
    1: "3762fac63dd9891dacbbe5554da3fa6c9b503a77e5fe072352a0214a348829fb",
    2: "6495b659554d0bb0741ff344acf04926b2089bb6c880f7a897390a7c31859b2a",
    40: "152e0356a489c9f5b0821b56132848c757da43fafda4763ca2134082e860f3ed",
}


def test_rank_one_bytes_pinned(tmp_path):
    for lam, digest in RANK_ONE_SHA256.items():
        out = tmp_path / f"rank-one-{lam}.txt"
        assert main(["rank-one", "--weight", str(lam), "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, lam


def test_rank_one_checks_once_and_exits_1_when_violated(tmp_path, monkeypatch):
    # a doubled e action breaks ef - fe = [lambda - 2k]: the table is still
    # written, ending VIOLATED, and the exit code is 1, as a failed verify's
    checked = []

    def counted(m):
        checked.append(m.lam)
        return rank_one.verify_sl2_relation(m)

    monkeypatch.setattr(cli, "verify_sl2_relation", counted)
    out = tmp_path / "rank-one.txt"
    assert main(["rank-one", "--weight", "3", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[-1].endswith(": ok") and checked == [3]
    act_e = rank_one.act_e
    monkeypatch.setattr(rank_one, "act_e", lambda m, v: {k: c + c for k, c in act_e(m, v).items()})
    assert main(["rank-one", "--weight", "3", "--out", str(out)]) == EXIT_VERIFY_FAILED
    lines = out.read_text().splitlines()
    assert lines[-1] == "sl2 relation (ef - fe = [lambda - 2k]): VIOLATED"
    assert "  e . f^(1)v = [3] f^(0)v = (q^2 + 1 + q^-2) f^(0)v" in lines  # cli's act_e
    assert checked == [3, 3]


def test_verify_on_broken_i_edges_fails_its_rows_without_a_traceback(graph_of, monkeypatch,
                                                                     capsys):
    # a 1-edge from 5 back to 3 closes a cycle: the partition check refuses it
    # and fails the string and filtration rows with its message; saturation is
    # plain reachability, so the walk still ends and its other rows report
    # their own verdicts, which pass: the cycle adds nothing to any closure
    graph = graph_of("A2", (1, 1))
    monkeypatch.setattr(cli, "generate_crystal",
                        lambda *a, **k: tampered(graph, graph.edges | {(5, 1): 3}))
    assert main(["verify", "--type", "A2", "--weight", "1,1"]) == EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    cycle = ("FAIL  witness: the 1-string below element 2 does not end within 8 steps: "
             "the 1-edges contain a cycle")
    assert len(lines) == 9 and lines[-1] == "result: FAIL"
    assert [line.endswith(cycle) for line in lines[1:-1]] == [False, True, True] + [False] * 4
    assert [line.endswith("PASS") for line in lines[1:-1]] == [False] * 3 + [True] * 4
    assert lines[1].endswith("FAIL  witness: ('edge map vs phi', 5, 1)")


def test_resource_cap_exit_code():
    result = run_cli("crystal", "--type", "A2", "--weight", "1,1",
                     "--max-elements", "5")
    assert result.returncode == EXIT_RESOURCE
    assert b"cap" in result.stderr


def test_path_kernel_error_exits_1(tmp_path, capsys, monkeypatch):
    # a denominator too small for lambda breaks the kernel's grid invariant on
    # valid input: a failure of the program (exit 1), not a usage error (exit 2)
    monkeypatch.setattr(crystal, "_denominator", lambda datum, lam: 1)
    out = tmp_path / "out.txt"
    assert main(["crystal", "--type", "A2", "--weight", "1,1", "--out", str(out)]) == 1
    assert EXIT_VERIFY_FAILED == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qcrystal: "), lines
    assert "grid" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["crystal", "verify"])
def test_lowering_back_to_the_top_exits_1(command, tmp_path, capsys, monkeypatch):
    # A lowering mutant that sends f_1 of any path with more than one run back
    # to the top path (0, D): its weight is not the parent's minus alpha_1, so
    # generation stops at once rather than export a broken graph, loop in
    # i_strings or regrow the crystal level after level up to the cap.
    first_pair = _Orbit(cartan_datum("A2"), (2, 1)).pair[0]
    lower = crystal._lower_runs

    def to_top(pair, refl, denom, path, h, m):
        if pair == first_pair and len(path) > 2:
            return (0, denom)
        return lower(pair, refl, denom, path, h, m)

    monkeypatch.setattr(crystal, "_lower_runs", to_top)
    out = tmp_path / "out"
    assert main([command, "--type", "A2", "--weight", "2,1", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "left its level" in lines[0], lines
    assert not out.exists()


def test_rank_one_resource_cap(capsys):
    assert main(["rank-one", "--weight", "5", "--max-elements", "5"]) == EXIT_RESOURCE
    assert "above the cap of 5" in capsys.readouterr().err
    assert main(["rank-one", "--weight", "4", "--max-elements", "5"]) == EXIT_OK
    assert "crystal chain: 0 -> 1 -> 2 -> 3 -> 4" in capsys.readouterr().out


@pytest.mark.parametrize("argv, size", [
    (["crystal", "--type", "A2", "--weight", "1,1"], 8),
    (["demazure", "--type", "A2", "--weight", "1,1", "--word", "1"], 8),
    (["character", "--type", "A2", "--weight", "1,1"], 8),
    (["verify", "--type", "A2", "--weight", "1,1"], 8),
    (["rank-one", "--weight", "4"], 5),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_each_command_at_and_just_above_its_cap(argv, size, tmp_path, capsys):
    # size is the crystal's element count (for rank-one, the lambda + 1 chain)
    out = tmp_path / "out"
    assert main([*argv, "--max-elements", str(size), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes()
    out.unlink()
    assert main([*argv, "--max-elements", str(size - 1), "--out", str(out)]) == EXIT_RESOURCE
    assert "above the cap" in capsys.readouterr().err
    assert not out.exists()


def test_write_failure_exit_code(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    result = run_cli("crystal", "--type", "A1", "--weight", "1",
                     "--format", "json", "--out", str(missing))
    assert result.returncode == EXIT_WRITE
    assert b"cannot write" in result.stderr


def test_crystal_log_env_smoke():
    result = run_cli("verify", "--type", "A1", "--weight", "2",
                     env_extra={"CRYSTAL_LOG": "debug"})
    assert result.returncode == EXIT_OK
    noisy = run_cli("crystal", "--type", "A1", "--weight", "1",
                    env_extra={"CRYSTAL_LOG": "nonsense"})
    assert noisy.returncode == EXIT_OK
    assert b"unknown CRYSTAL_LOG" in noisy.stderr


@pytest.mark.parametrize("levels", [("error", "info"), ("info", "error")])
def test_crystal_log_takes_effect_on_every_main_call(levels):
    # logging.basicConfig acts once per process; each main() must still read CRYSTAL_LOG
    script = ("import os, sys\n"
              "from qcrystal import cli\n"
              "for level in sys.argv[1:]:\n"
              "    os.environ['CRYSTAL_LOG'] = level\n"
              "    cli.main(['verify', '--type', 'A2', '--weight', '1,0', '--out', os.devnull])\n"
              "    print('end of call', file=sys.stderr, flush=True)\n")
    result = subprocess.run([sys.executable, "-c", script, *levels], capture_output=True)
    assert result.returncode == 0, result.stderr
    calls = result.stderr.decode().split("end of call\n")
    phases = [sum(line.startswith("qcrystal INFO: verify phase ") for line in call.splitlines())
              for call in calls]
    assert phases == [5 if level == "info" else 0 for level in levels] + [0]


def test_log_lines_follow_each_main_calls_stderr():
    # A second main() under redirect_stderr logs to the redirect, as its error messages do,
    # not to the stderr of the first call.
    script = ("import contextlib, io, os\n"
              "from qcrystal import cli\n"
              "argv = ['verify', '--type', 'A1', '--weight', '1', '--out', os.devnull]\n"
              "cli.main(argv)\n"
              "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
              "    cli.main(argv)\n"
              "print(err.getvalue(), end='')\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            env=dict(os.environ, CRYSTAL_LOG="info"))
    assert result.returncode == 0, result.stderr
    for stream in (result.stderr, result.stdout):
        lines = stream.decode().splitlines()
        assert len(lines) == 5 and all(line.startswith("qcrystal INFO: ") for line in lines)


def test_main_direct_invocation(capsys):
    code = main(["crystal", "--type", "A1", "--weight", "1", "--format", "dot"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("digraph crystal {")
