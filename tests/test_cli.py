import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

import copwin
import copwin.cli
from copwin import families
from copwin.cli import (
    ALL_CHECKS,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    SIMULATE_MAX_ROUNDS,
    main,
)
from copwin.enumeration import connected_graph_classes, graph_classes
from copwin.families import cycle, petersen
from copwin.graph6 import PREFIX, emit_graph6, parse_graph6
from copwin.graphs import Graph, is_connected


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "g.g6"
    p.write_text(emit_graph6(petersen()) + "\n")
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("!!\nC~\n")  # a line that fails to parse, then K4
    return str(p)


# sha256 of `copwin solve --variant teleport --nmax 8` stdout: 12,113
# records, one per connected class on at most 8 vertices, each with c and c_T
SOLVE_TELEPORT_NMAX8_SHA256 = "0dd6395490f158ca08d4a89c52cad578e74cc21051fc054c0d946b7cec7da8c5"

# sha256 and exit code of `copwin solve` on the 256 disconnected classes
# on at most 7 vertices, one per line in graph_classes order, under each
# set of flags: without --allow-disconnected every record is an error
SOLVE_DISCONNECTED_LE7 = {
    (): ("51fdff002ba471ddb661541dbc628e9e58906e3168babc4626354436ead8b95e", EXIT_USAGE),
    ("--allow-disconnected",):
        ("ecd0c4a2b31321509247949c6ab3584d235d14d66fbcabfb3441230b265baa4e", EXIT_OK),
    ("--allow-disconnected", "--variant", "teleport"):
        ("474de3d7fd946a04f801a199abbee33f1c1183e28f4bd47bfdf17fd296df6401", EXIT_OK),
    ("--variant", "teleport", "--json"):
        ("0bc7d822e8b4ee2d426eb9050d7879fddc1c3292318820068e93292a4e213b6e", EXIT_USAGE),
}


@pytest.fixture(scope="module")
def disconnected_le7_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("disconnected") / "disconnected7.g6"
    p.write_text("".join(
        emit_graph6(g) + "\n" for n in range(1, 8) for g in graph_classes(n) if not is_connected(g)
    ))
    return str(p)


class TestSolve:
    def test_file_input(self, petersen_file):
        code, text = run(["solve", "--input", petersen_file])
        assert code == EXIT_OK
        assert "c=3" in text and "status=ok" in text

    def test_json(self, petersen_file):
        code, text = run(["solve", "--input", petersen_file, "--json"])
        rec = json.loads(text.strip())
        assert rec["c"] == 3 and rec["n"] == 10

    def test_timing_adds_time(self, petersen_file):
        code, text = run(["solve", "--input", petersen_file, "--timing"])
        assert code == EXIT_OK
        assert re.fullmatch(r"graph=\S+ n=10 c=3 status=ok time=\d+\.\d{3}\n", text), text

    def test_teleport_variant_reports_both(self, petersen_file):
        code, text = run(
            ["solve", "--input", petersen_file, "--variant", "teleport"]
        )
        assert "c=3" in text and "c_T=3" in text

    def test_builtin_enumeration(self):
        code, text = run(["solve", "--nmax", "3"])
        assert code == EXIT_OK
        assert len(text.strip().splitlines()) == 4  # classes up to n=3

    def test_parse_error_keeps_streaming(self, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_text("!!\n@\n")
        code, text = run(["solve", "--input", str(p)])
        lines = text.strip().splitlines()
        assert "parse_error" in lines[0]
        assert "c=1" in lines[1]

    def test_deterministic_output(self, petersen_file):
        _, a = run(["solve", "--input", petersen_file])
        _, b = run(["solve", "--input", petersen_file])
        assert a == b

    def test_budget_exhaustion_marks_unresolved(self, petersen_file):
        code, text = run(["solve", "--input", petersen_file, "--budget", "10"])
        assert code == EXIT_RESOURCE
        assert "status=unresolved" in text
        assert "c_lower_bound=3" in text

    def test_hoffman_singleton_settled_by_bounds(self, tmp_path, hoffman_singleton_graph):
        p = tmp_path / "hs.g6"
        p.write_text(emit_graph6(hoffman_singleton_graph) + "\n")
        code, text = run(["solve", "--budget", "2000000", "--input", str(p)])
        assert code == EXIT_OK
        assert "c=7" in text and "status=ok" in text

    def test_hoffman_singleton_teleport_ignores_budget(self, tmp_path, hoffman_singleton_graph):
        # --budget bounds the solves of c; c_T needs no state vectors
        p = tmp_path / "hs.g6"
        p.write_text(emit_graph6(hoffman_singleton_graph) + "\n")
        code, text = run(["solve", "--budget", "2000000", "--variant", "teleport",
                          "--input", str(p)])
        assert code == EXIT_OK
        assert "c=7 c_T=7 status=ok" in text

    def test_teleport_report_n8_pinned(self):
        code, text = run(["solve", "--variant", "teleport", "--nmax", "8"])
        assert code == EXIT_OK
        assert len(text.splitlines()) == 12113
        assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_TELEPORT_NMAX8_SHA256

    def test_disconnected_teleport_not_summed(self, tmp_path):
        # 2K2: the standard c sums its components, but one teleporting
        # cop jumps between them and wins
        p = tmp_path / "2k2.g6"
        p.write_text("C`\n")
        code, text = run(["solve", "--input", str(p), "--variant", "teleport",
                          "--allow-disconnected"])
        assert code == EXIT_OK
        assert text == "graph=C` n=4 c=2 c_T=1 status=ok\n"

    def test_nmax_cap(self):
        code, _ = run(["solve", "--nmax", "12"])
        assert code == EXIT_USAGE

    def test_error_record_exits_usage(self, tmp_path):
        p = tmp_path / "disconnected.g6"
        p.write_text(emit_graph6(Graph(3, [(0, 1)])) + "\n")
        code, text = run(["solve", "--input", str(p)])
        assert code == EXIT_USAGE
        assert text == ("graph=B_ n=3 status=error "
                        "error=cop number of a disconnected graph needs --allow-disconnected\n")

    @pytest.mark.parametrize("flags", list(SOLVE_DISCONNECTED_LE7), ids=" ".join)
    def test_disconnected_report_le7_pinned(self, disconnected_le7_file, flags):
        code, text = run(["solve", "--input", disconnected_le7_file, *flags])
        assert len(text.splitlines()) == 256
        want_sha, want_code = SOLVE_DISCONNECTED_LE7[flags]
        assert (hashlib.sha256(text.encode()).hexdigest(), code) == (want_sha, want_code)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("before", [1, 5000], ids=["short", "past_first_buffer"])
def test_non_utf8_line_reported_and_exits_usage(tmp_path, before, as_json):
    # a byte that is not UTF-8 is one bad line, also when it comes after
    # the first 8 KB the reader buffers; the stream goes on after it
    p = tmp_path / "bytes.g6"
    p.write_bytes(b"A_\n" * before + b"\xff\n" + b"Bw\n" * 2)
    code, text = run(["solve", "--input", str(p)] + ["--json"] * as_json)
    assert code == EXIT_USAGE
    lines = text.splitlines()
    assert len(lines) == before + 3
    bad = {"line": before + 1, "status": "parse_error",
           "error": "character '\\udcff' outside graph6 range 63..126 (byte offset 0)"}
    text_record = "line=%d status=parse_error error=%s" % (before + 1, bad["error"])
    assert lines[before] == (json.dumps(bad) if as_json else text_record)
    others = lines[:before] + lines[before + 1:]
    graphs = [json.loads(line)["graph"] if as_json else line.split()[0][len("graph="):]
              for line in others]
    assert graphs == ["A_"] * before + ["Bw"] * 2


@pytest.mark.parametrize("argv", [
    ["solve"], ["scan", "--check", "lemma4", "--all"], ["trap"], ["simulate"],
])
def test_bad_input_line_reported_and_exits_usage(bad_file, argv):
    code, text = run(argv + ["--input", bad_file])
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("line=1 status=parse_error error=")
    assert "C~" in lines[1]  # the stream goes on
    assert code == EXIT_USAGE


@pytest.fixture(scope="module")
def plain_and_dressed_le6(tmp_path_factory):
    """The connected classes on at most 6 vertices written twice under one
    file name: plain, and with random >>graph6<< prefixes, spaces and tabs
    around each line and CRLF endings."""
    rng = random.Random(6)
    lines = [emit_graph6(g) for n in range(1, 7) for g in connected_graph_classes(n)]
    plain = tmp_path_factory.mktemp("plain") / "classes6.g6"
    plain.write_text("".join(line + "\n" for line in lines))
    dressed = tmp_path_factory.mktemp("dressed") / "classes6.g6"
    dressed.write_bytes("".join(
        rng.choice(["", " ", "\t", " \t "]) + rng.choice(["", PREFIX]) + line
        + rng.choice(["", " ", "\t"]) + "\r\n"
        for line in lines
    ).encode())
    return str(plain), str(dressed)


@pytest.mark.parametrize("argv", [
    ["trap"],
    ["scan", "--check", "lemma4", "--all"],
    ["scan", "--check", "lemma5", "--all"],
    ["solve", "--variant", "teleport"],
    ["simulate"],
])
def test_dressed_input_lines_report_as_plain(plain_and_dressed_le6, argv):
    # a record names its graph by the line's graph6 text: what surrounds
    # that text on the line leaves no trace in the report
    plain, dressed = (run(argv + ["--input", p]) for p in plain_and_dressed_le6)
    assert plain[0] == EXIT_OK
    assert dressed == plain


@pytest.mark.parametrize("argv", [
    ["solve"], ["scan", "--check", "lemma4"], ["trap"], ["simulate"],
])
def test_nmax_with_input_exits_usage(petersen_file, argv, capsys):
    """--nmax reads the built-in enumeration, so it cannot bound a file."""
    code, text = run(argv + ["--input", petersen_file, "--nmax", "2"])
    assert code == EXIT_USAGE
    assert text == ""  # not even the scan header
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--nmax", "-3"], ["trap", "--nmax", "0"],
    ["scan", "--check", "theorem1", "--nmax", "0"], ["simulate", "--nmax", "0"],
])
def test_nmax_below_one_exits_usage(argv, capsys):
    code, text = run(argv)
    assert code == EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--budget", "-5"], ["solve", "--budget", "0"],
    ["solve", "--max-k", "0"], ["solve", "--max-k", "-1"],
    ["scan", "--check", "theorem1", "--budget", "-5"],
    ["scan", "--check", "lemma5", "--budget", "0"],
])
def test_budget_or_max_k_below_one_exits_usage(argv, capsys):
    # once every record read status=unresolved (exit 3) or status=error
    code, text = run(argv + ["--nmax", "3"])
    assert code == EXIT_USAGE
    assert text == ""  # not even the scan header
    assert capsys.readouterr().err.startswith("error: ")


def test_json_reports_are_json_on_every_line(bad_file, capsys):
    # every stdout line of a --json run is one JSON object, parse_error
    # records and summaries included; simulate writes text traces and
    # has no --json
    for argv, want_lines, want_code in (
        (["solve", "--input", bad_file], 2, EXIT_USAGE),
        (["scan", "--check", "lemma4", "--all", "--input", bad_file], 3, EXIT_USAGE),
        (["trap", "--input", bad_file], 2, EXIT_USAGE),
        (["ineq", "--mmax", "100"], 1, EXIT_OK),
    ):
        code, text = run(argv + ["--json"])
        lines = text.splitlines()
        assert (len(lines), code) == (want_lines, want_code)
        assert all(isinstance(json.loads(line), dict) for line in lines)
    with pytest.raises(SystemExit) as e:
        run(["simulate", "--input", bad_file, "--json"])
    assert e.value.code == EXIT_USAGE
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_graph6_n0_line_exits_usage(tmp_path):
    p = tmp_path / "n0.g6"
    p.write_text("?\n")
    code, text = run(["solve", "--input", str(p)])
    assert code == EXIT_USAGE
    assert text == ("line=1 status=parse_error error=graph6 n=0 not supported "
                    "(graphs are nonempty) (byte offset 0)\n")


def test_resource_exit_wins_over_bad_input(bad_file):
    code, text = run(["solve", "--budget", "10", "--input", bad_file])
    assert "status=parse_error" in text and "status=unresolved" in text
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("argv", [
    ["solve"], ["scan", "--check", "lemma5"], ["trap"], ["simulate"],
])
def test_missing_input_file_exits_usage(tmp_path, argv, capsys):
    code, text = run(argv + ["--input", str(tmp_path / "missing.g6")])
    assert code == EXIT_USAGE
    assert text == ""  # not even the scan header
    assert capsys.readouterr().err.startswith("error: ")


class _ClosedAfterOneWrite(io.StringIO):
    """An out whose reader goes away after the first record."""

    def write(self, s):
        if self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)


@pytest.mark.parametrize("argv, want", [
    (["trap", "--nmax", "7"], EXIT_OK),
    # the parse_error record of line 1 is written before the pipe closes
    (["trap", "--input", "BAD"], EXIT_USAGE),
])
def test_broken_pipe_ends_quietly(bad_file, argv, want, capsys):
    out = _ClosedAfterOneWrite()
    argv = [bad_file if a == "BAD" else a for a in argv]
    assert main(argv, out=out) == want
    assert out.getvalue().count("\n") == 1
    assert capsys.readouterr().err == ""


def test_broken_pipe_at_exit_is_quiet():
    # a pipe whose reader is gone before the run starts: the short report
    # sits in the buffer until the final flush
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(copwin.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "copwin.cli", "trap", "--nmax", "4"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


# sha256 of `copwin scan --check preceq_equiv --nmax 7 --all` stdout: the
# header, 996 records (one per connected class on at most 7 vertices),
# and the summary
PRECEQ_NMAX7_ALL_SHA256 = "955647675d3265bab129d738a391e29af1388758d3d1b4ee86f9b0034e06926c"


class TestScan:
    def test_theorem1_clean(self):
        code, text = run(["scan", "--check", "theorem1", "--nmax", "5"])
        assert code == EXIT_OK
        assert "violations=0" in text

    def test_header_and_summary_lines(self):
        _, text = run(["scan", "--check", "lemma4", "--nmax", "4"])
        lines = text.strip().splitlines()
        assert lines[0].startswith("# check=lemma4")
        assert lines[-1].startswith("# summary")

    def test_all_flag_emits_passes(self):
        _, quiet = run(["scan", "--check", "lemma4", "--nmax", "4"])
        _, loud = run(["scan", "--check", "lemma4", "--nmax", "4", "--all"])
        assert len(loud.splitlines()) > len(quiet.splitlines())

    def test_conjecture_scan_report_only(self):
        code, text = run(["scan", "--check", "conj_sqrt_n", "--nmax", "5"])
        assert code == EXIT_OK  # candidates never fail the run

    def test_teleport_conjecture(self):
        code, text = run(["scan", "--check", "conj_teleport", "--nmax", "5"])
        assert code == EXIT_OK
        assert "violations=0" in text

    def test_teleport_violation_exits_violation(self, petersen_file, monkeypatch):
        # c_T = 4 breaks both asserted halves on Petersen (c = 3, bound 3)
        monkeypatch.setattr(copwin.cli, "teleport_cop_number", lambda g: 4)
        code, text = run(["scan", "--check", "conj_teleport", "--input", petersen_file])
        assert code == EXIT_VIOLATION
        assert text.splitlines()[1:] == [
            "graph=%s n=10 diameter=2 bipartite=false c=3 c_T=4 bound=3 verdict=fail"
            % emit_graph6(petersen()),
            "# summary check=conj_teleport checked=1 violations=1 candidates=0 unresolved=0",
        ]

    def test_preceq_mismatch_exits_violation(self, petersen_file, monkeypatch):
        # one cop loses on Petersen; a fixpoint that says he wins differs at k = 1
        monkeypatch.setattr(copwin.cli, "preceq_fixpoint_wins", lambda g, k, budget: True)
        code, text = run(["scan", "--check", "preceq_equiv", "--input", petersen_file])
        assert code == EXIT_VIOLATION
        assert text.splitlines()[1:] == [
            "graph=%s n=10 diameter=2 bipartite=false k=1 verdict=fail"
            % emit_graph6(petersen()),
            "# summary check=preceq_equiv checked=1 violations=1 candidates=0 unresolved=0",
        ]

    def test_preceq_scan(self):
        code, text = run(["scan", "--check", "preceq_equiv", "--nmax", "4"])
        assert code == EXIT_OK
        assert "violations=0" in text

    def test_preceq_report_n7_pinned(self):
        code, text = run(["scan", "--check", "preceq_equiv", "--nmax", "7", "--all"])
        assert code == EXIT_OK
        assert len(text.splitlines()) == 998
        assert hashlib.sha256(text.encode()).hexdigest() == PRECEQ_NMAX7_ALL_SHA256

    def test_preceq_scan_on_2k2(self, tmp_path):
        # the game is solved on a disconnected graph as on any other
        p = tmp_path / "2k2.g6"
        p.write_text("C`\n")
        code, text = run(["scan", "--check", "preceq_equiv", "--all", "--input", str(p)])
        assert code == EXIT_OK
        assert text.splitlines()[1:] == [
            "graph=C` n=4 diameter=inf bipartite=true verdict=pass",
            "# summary check=preceq_equiv checked=1 violations=0 candidates=0 unresolved=0",
        ]

    def test_header_names_input_file_not_its_path(self, petersen_file, monkeypatch):
        # one file read through two paths gives the same bytes
        _, full = run(["scan", "--check", "lemma5", "--all", "--input", petersen_file])
        monkeypatch.chdir(os.path.dirname(petersen_file))
        _, bare = run(["scan", "--check", "lemma5", "--all", "--input", "g.g6"])
        assert full == bare
        assert full.splitlines()[0] == "# check=lemma5 seed=0 input=g.g6"

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_every_check_summarises_disconnected_input(self, tmp_path, check):
        # every class on at most 6 vertices, disconnected ones included
        p = tmp_path / "classes6.g6"
        p.write_text("".join(emit_graph6(g) + "\n" for n in range(1, 7) for g in graph_classes(n)))
        code, text = run(["scan", "--check", check, "--all", "--input", str(p)])
        assert code == EXIT_OK
        assert text.splitlines()[-1].startswith("# summary check=%s " % check)

    def test_unresolved_returns_resource(self, petersen_file):
        code, text = run(
            ["scan", "--check", "theorem1", "--input", petersen_file,
             "--budget", "10"]
        )
        assert code == EXIT_RESOURCE
        assert "unresolved=1" in text

    def test_json_summary(self):
        _, text = run(["scan", "--check", "lemma5", "--nmax", "4", "--json"])
        last = json.loads(text.strip().splitlines()[-1])
        assert last["violations"] == 0


class TestGen:
    def test_petersen(self):
        code, text = run(["gen", "--family", "petersen"])
        assert code == EXIT_OK
        assert text.strip() == emit_graph6(petersen())

    def test_cycle_param(self):
        code, text = run(["gen", "--family", "cycle", "--param", "5"])
        assert code == EXIT_OK

    def test_missing_param(self):
        code, _ = run(["gen", "--family", "cycle"])
        assert code == EXIT_USAGE

    def test_large_graph_uses_extended_header(self):
        code, text = run(["gen", "--family", "cycle", "--param", "64"])
        assert code == EXIT_OK
        line = text.strip()
        assert line[0] == "~"  # n > 62 takes the 4-byte header
        assert parse_graph6(line) == cycle(64)

    def test_above_reader_cap_exits_usage(self, capsys):
        """gen writes only what every reader accepts (n <= 64)."""
        code, text = run(["gen", "--family", "cycle", "--param", "65"])
        assert code == EXIT_USAGE
        assert text == ""
        assert "exceeds cap 64" in capsys.readouterr().err

    def test_order_checked_before_building(self, capsys):
        # a complete graph on 1500 vertices would take ~100 MB of rows
        tracemalloc.start()
        try:
            code, text = run(["gen", "--family", "complete", "--param", "1500"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert text == ""
        assert "exceeds cap 64" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_prime_cap_checked_before_primality(self, monkeypatch, capsys):
        # trial division on this q took seconds before the cap was checked
        def no_trial_division(q):
            raise AssertionError("primality tested before the cap")

        monkeypatch.setattr(families, "_is_prime", no_trial_division)
        code, text = run(["gen", "--family", "polarity", "--param", "100000000000031"])
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds supported maximum 13" in err

    def test_grid_pinned(self, capsys):
        # every family and an unknown one, against parameters in range,
        # out of range, not prime and past the caps: stdout and exit code
        names = ["cycle", "path", "complete", "petersen", "hoffman_singleton",
                 "polarity", "incidence", "mystery"]
        params = [None, -1, 0, 1, 2, 3, 4, 5, 7, 9, 11, 12, 13, 14, 64, 65, 66]
        h = hashlib.sha256()
        for family in names:
            for param in params:
                argv = ["gen", "--family", family]
                if param is not None:
                    argv += ["--param", str(param)]
                try:
                    code, text = run(argv)
                except SystemExit as e:  # argparse rejects the unknown family
                    code, text = e.code, ""
                h.update(("%s %s %d\n%s" % (family, param, code, text)).encode())
        assert h.hexdigest() == GEN_GRID_SHA256


# sha256 of `copwin gen` over TestGen.test_grid_pinned's grid
GEN_GRID_SHA256 = "cb47c248be60b0545a3507f14240ec5941a7e0d2fb123fb3bcc6407536074aa7"

# sha256 of `copwin trap --nmax 8` stdout: 12,113 records, one per
# connected class on at most 8 vertices
TRAP_NMAX8_SHA256 = "6e42ab83dc2c47d096ec216532bcc7d823f1268eb1c637f3cec7d90de6b7f869"


class TestTrap:
    def test_report_n8_pinned(self):
        code, text = run(["trap", "--nmax", "8"])
        assert code == EXIT_OK
        assert len(text.splitlines()) == 12113
        assert hashlib.sha256(text.encode()).hexdigest() == TRAP_NMAX8_SHA256

    def test_petersen_thresholds(self, petersen_file):
        code, text = run(["trap", "--input", petersen_file])
        assert code == EXIT_OK
        assert "thresholds=3,3,3,3,3,3,3,3,3,3" in text
        assert "alpha_traps=10" in text

    def test_alpha_override(self, petersen_file):
        _, text = run(["trap", "--input", petersen_file, "--alpha", "2"])
        assert "alpha_traps=0" in text

    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan", "-1"])
    def test_alpha_must_be_finite_and_nonnegative(self, bad_file, alpha, capsys):
        # rejected before the bad line's parse_error record is written
        code, text = run(["trap", "--input", bad_file, "--alpha=" + alpha])
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")


class TestIneq:
    def test_clean(self):
        code, text = run(["ineq", "--mmax", "100000"])
        assert code == EXIT_OK
        assert "violations=0" in text

    def test_json(self):
        _, text = run(["ineq", "--mmax", "1000", "--json"])
        rec = json.loads(text.strip())
        assert rec["violations"] == 0

    def test_violation_exits_violation(self, monkeypatch):
        monkeypatch.setattr(copwin.cli, "verify_key_inequality", lambda mmax: [5])
        code, text = run(["ineq", "--mmax", "100"])
        assert code == EXIT_VIOLATION
        assert text == "m=5 verdict=fail\n# summary check=ineq mmax=100 violations=1\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--nmax", "7"],
    ["scan", "--check", "theorem1", "--all", "--nmax", "7"],
])
def test_theorem1_hypothesis_walked_once_per_graph(argv, monkeypatch):
    # 996 connected classes on at most 7 vertices: one diameter walk
    # each, and at most one bipartiteness walk
    calls = {"diameter": 0, "is_bipartite": 0}

    def counting(name, fn):
        def wrapper(g):
            calls[name] += 1
            return fn(g)
        return wrapper

    for module in (copwin.cli, copwin.strategy):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, _ = run(argv)
    assert code == EXIT_OK
    assert calls["diameter"] == 996
    assert calls["is_bipartite"] <= 996


# sha256 of `copwin simulate --nmax 7` stdout: 2,242 lines, one trace per
# theorem 1 class on at most 7 vertices
SIMULATE_NMAX7_SHA256 = "46eb5fe8f0f921131413c3d71ed622100280f697c3dfe42193e942dc5d71f3b5"


class TestSimulate:
    def test_report_n7_pinned(self):
        code, text = run(["simulate", "--nmax", "7"])
        assert code == EXIT_OK
        assert len(text.splitlines()) == 2242
        assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_NMAX7_SHA256

    def test_petersen(self, petersen_file):
        code, text = run(["simulate", "--input", petersen_file])
        assert code == EXIT_OK
        assert "captured round=" in text

    def test_builtin_enumeration_skips_graphs_outside_theorem1(self):
        """--nmax walks every connected class; the plan needs theorem 1's
        hypothesis, so the others (the first is a triangle with a
        two-edge tail, n=5) are skipped, not fatal."""
        code, text = run(["simulate", "--nmax", "5"])
        assert code == EXIT_OK
        golden = os.path.join(os.path.dirname(__file__), "data", "cli_golden",
                              "simulate_theorem1_le5.txt")
        with open(golden, newline="") as fh:
            assert text == fh.read()

    def test_greedy_robber(self, petersen_file):
        code, text = run(["simulate", "--input", petersen_file, "--robber", "greedy"])
        assert code == EXIT_OK
        assert "captured round=" in text

    def test_max_rounds_must_be_nonnegative(self, petersen_file, capsys):
        # rejected before the first trace is written
        code, text = run(["simulate", "--input", petersen_file, "--max-rounds", "-1"])
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_max_rounds_is_capped(self, petersen_file, capsys):
        # every round is kept in memory, so a value above the cap is
        # rejected before the first trace is written; the cap itself runs
        code, text = run(["simulate", "--input", petersen_file,
                          "--max-rounds", str(SIMULATE_MAX_ROUNDS + 1)])
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err.startswith("error: --max-rounds must be at most ")
        code, text = run(["simulate", "--input", petersen_file,
                          "--max-rounds", str(SIMULATE_MAX_ROUNDS)])
        assert code == EXIT_OK
        assert "captured round=" in text
