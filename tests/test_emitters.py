"""Streamed crystal emitters: bytes, sinks, failures before output, memory."""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc

import pytest

import qcrystal as qc
import emitter_reference
from conftest import emitted
from emitter_reference import (reference_dot, reference_json, reference_rank_one,
                               reference_text)
from qcrystal import cli
from qcrystal.cli import (EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_WRITE,
                          emit_dot, emit_json, emit_rank_one, emit_text, main)
from qcrystal.rank_one import RankOneModule, verify_sl2_relation

EMITTERS = ((emit_json, reference_json), (emit_dot, reference_dot),
            (emit_text, reference_text))


def _cases(graph_of):
    """(graph, members) over all nine types: lambda = 0, rho and a Demazure subset."""
    for name in qc.supported_types():
        datum = qc.cartan_datum(name)
        yield graph_of(name, (0,) * datum.rank), None
        graph = graph_of(name, (1,) * datum.rank)
        yield graph, None
        yield graph, qc.demazure_crystal(graph, qc.longest_word(datum)[:2])
    yield graph_of("G2", (3, 3)), None  # 4096 elements: several chunks


def test_streamed_emitters_match_reference(graph_of):
    for graph, members in _cases(graph_of):
        for emit, reference in EMITTERS:
            expected = reference(graph, members)
            chunks = []
            assert emit(graph, members, chunks.append) is None
            assert b"".join(chunks) == expected, (emit.__name__, graph.datum.name)


def test_large_crystal_is_written_in_bounded_chunks(graph_of):
    graph = graph_of("G2", (3, 3))
    for emit, _ in EMITTERS:
        chunks = []
        emit(graph, None, chunks.append)
        total = sum(map(len, chunks))
        assert len(chunks) > 2 and max(map(len, chunks)) < total / 2, emit.__name__


def _printed(*args):
    env = dict(os.environ, CRYSTAL_LOG="error")
    return subprocess.run([sys.executable, "-m", "qcrystal", *args],
                          capture_output=True, env=env)


JOBS = (
    ("crystal", "--type", "B2", "--weight", "1,1"),
    ("demazure", "--type", "A2", "--weight", "1,1", "--word", "1,2"),
    ("character", "--type", "A2", "--weight", "1,1", "--word", "2,1"),
    ("rank-one", "--weight", "3"),
    ("verify", "--type", "A2", "--weight", "1,0"),
)


def test_stdout_bytes_equal_out_bytes(tmp_path):
    out = tmp_path / "out"
    for job in JOBS:
        for fmt in ("json", "dot", "text"):
            argv = (*job, "--format", fmt)
            assert main([*argv, "--out", str(out)]) == EXIT_OK, argv
            printed = _printed(*argv)
            assert printed.returncode == EXIT_OK, printed.stderr
            assert printed.stdout == out.read_bytes(), argv


def test_stdout_without_a_byte_buffer(graph_of):
    # a caller may point sys.stdout at a text-only stream
    for fmt, emit in (("json", emit_json), ("text", emit_text)):
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            assert main(["crystal", "--type", "G2", "--weight", "3,3", "--format", fmt]) == EXIT_OK
        assert captured.getvalue() == emitted(emit, graph_of("G2", (3, 3)), None).decode(), fmt


def test_reader_closing_stdout_early_is_a_write_failure():
    env = dict(os.environ, CRYSTAL_LOG="error")
    argv = ["crystal", "--type", "G2", "--weight", "3,3", "--format", "json"]
    with subprocess.Popen([sys.executable, "-m", "qcrystal", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b'{\n  "family": "G",')
    assert code == EXIT_WRITE
    # one line, and no "Exception ignored" traceback from the flush at exit
    assert err == b"qcrystal: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, code", [
    (("crystal", "--type", "A2", "--weight", "1,1", "--max-elements", "5"), EXIT_RESOURCE),
    (("demazure", "--type", "A2", "--weight", "1,1", "--word", "1,1"), EXIT_USAGE),
])
def test_failed_job_leaves_no_out_file(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert main([*argv, "--format", "json", "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("qcrystal: ")
    assert not out.exists()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_peak_memory_stays_near_generation(tmp_path):
    # The document is never held whole: a job's peak is generation's plus a chunk.
    datum = qc.cartan_datum("G2")
    qc.generate_crystal(datum, (3, 3))  # fill the root-data caches first
    generation = _traced_peak(lambda: qc.generate_crystal(datum, (3, 3)))
    out = str(tmp_path / "out")
    for fmt in ("json", "dot", "text"):
        job = _traced_peak(lambda: main(["crystal", "--type", "G2", "--weight", "3,3",
                                         "--format", fmt, "--out", out]))
        assert job <= 1.5 * generation, (fmt, job / generation)


# -- the rank-one table ---------------------------------------------------

def _table(lam):
    """The rank-one table of V(lam), with the sl2 verdict that ``main`` passes."""
    ok, _ = verify_sl2_relation(RankOneModule(lam))
    return emitted(emit_rank_one, lam, ok)


@pytest.mark.parametrize("lam", [*range(61), 400])
def test_rank_one_table_matches_reference(lam):
    assert _table(lam) == reference_rank_one(lam)


def test_rank_one_e_line_prints_its_own_image(monkeypatch):
    # For lambda = 7, e . f^(4)v carries [4] like f . f^(3)v; when act_e computes something
    # else there, the e-line must print that, not the f-line's text.
    act_e = cli.act_e

    def off_at_4(m, v):
        image = act_e(m, v)
        return {k: c + 1 for k, c in image.items()} if 4 in v else image

    for module in (cli, emitter_reference):
        monkeypatch.setattr(module, "act_e", off_at_4)
    out = _table(7)
    assert out == reference_rank_one(7)
    lines = out.decode().splitlines()
    assert "  f . f^(3)v = [4] f^(4)v = (q^3 + q + q^-1 + q^-3) f^(4)v" in lines
    assert "  e . f^(4)v = [4] f^(3)v = (q^3 + q + 1 + q^-1 + q^-3) f^(3)v" in lines
    assert "  e . f^(4)v = [4] f^(3)v = (q^3 + q + q^-1 + q^-3) f^(3)v" not in lines


@pytest.mark.parametrize("lam", [0, 1, 2, 7, 40, 200])
def test_streamed_rank_one_table_matches_reference(lam):
    ok, _ = verify_sl2_relation(RankOneModule(lam))
    chunks = []
    assert emit_rank_one(lam, ok, chunks.append) is None
    assert b"".join(chunks) == reference_rank_one(lam)


def test_rank_one_table_streams_in_less_than_its_length():
    # The sl2 check runs first; then each line is written as it is made and
    # only the e-line texts are held, so the traced peak stays below the
    # output's length.  Building the whole table first took it to 3 times that.
    _table(10)
    size = len(_table(400))
    chunks = []

    def job():
        ok, _ = verify_sl2_relation(RankOneModule(400))
        emit_rank_one(400, ok, lambda chunk: chunks.append(len(chunk)))

    peak = _traced_peak(job)
    assert sum(chunks) == size
    assert peak < size, peak / size
    assert len(chunks) > 10 and max(chunks) < cli._CHUNK_CHARS + 4096
