"""End-to-end command-line behaviour, exit codes, and file round-trips."""

import errno
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import brute_is_dispersed, witness_points

from deltadisp import InternalConsistencyError, core, parse_graph, parse_witness
from deltadisp.cli import _parse_delta, build_parser, run

K2_TEXT = "2 1\n0 1\n"
STAR_TEXT = "4 3\n0 1\n0 2\n0 3\n"
K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C3_TEXT = "3 3\n0 1\n1 2\n0 2\n"


@pytest.fixture
def k2(tmp_path):
    p = tmp_path / "k2.graph"
    p.write_text(K2_TEXT)
    return p


@pytest.fixture
def star(tmp_path):
    p = tmp_path / "star.graph"
    p.write_text(STAR_TEXT)
    return p


@pytest.fixture
def c3(tmp_path):
    p = tmp_path / "c3.graph"
    p.write_text(C3_TEXT)
    return p


@pytest.fixture
def p3(tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text("3 2\n0 1\n1 2\n")
    return p


@pytest.fixture
def k4(tmp_path):
    p = tmp_path / "k4.graph"
    p.write_text(K4_TEXT)
    return p


class TestSolve:
    def test_k2_delta_2(self, k2, capsys):
        assert run(["solve", str(k2), "--delta", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_star_delta_2(self, star, capsys):
        assert run(["solve", str(star), "--delta", "2"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_witness_file_roundtrip(self, star, tmp_path, capsys):
        out = tmp_path / "w.txt"
        assert run(["solve", str(star), "--delta", "2/3", "--witness", str(out)]) == 0
        value = int(capsys.readouterr().out.strip())
        g = parse_graph(STAR_TEXT)
        ws = parse_witness(g, out.read_text(), Fraction(2, 3))
        assert len(ws) == value
        assert brute_is_dispersed(g, witness_points(ws), Fraction(2, 3))

    def test_hard_regime_needs_flag(self, c3, capsys):
        assert run(["solve", str(c3), "--delta", "3"]) == 2
        assert "--brute-force" in capsys.readouterr().err

    def test_tree_needs_no_flag(self, k2, capsys):
        assert run(["solve", str(k2), "--delta", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_tree_grid_over_limit_exits_3(self, k2, capsys, monkeypatch):
        # the tree route's guard counts its answer's bound, 2 + ceil(10**9 / 3)
        def forbidden(*args):
            raise AssertionError("the route ran before the answer's size was checked")

        monkeypatch.setattr("deltadisp.dispatch.tree_disp", forbidden)
        assert run(["solve", str(k2), "--delta", "3/1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "333333336 points at most" in lines[0]

    def test_unit_numerator_grid_over_limit_exits_3(self, k2, capsys):
        assert run(["solve", str(k2), "--delta", "1/1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "2000000001 points" in lines[0]

    def test_brute_force_flag_reaches_oracle(self, c3, capsys, monkeypatch):
        from deltadisp import dispatch

        calls = []
        brute = dispatch.brute_disp
        monkeypatch.setattr(
            dispatch, "brute_disp", lambda *args: calls.append(args) or brute(*args)
        )
        assert run(["solve", str(c3), "--delta", "3/2", "--brute-force"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert len(calls) == 1

    def test_hard_regime_with_flag(self, k2, capsys):
        assert run(["solve", str(k2), "--delta", "3", "--brute-force"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_rejects_float_delta(self, k2):
        assert run(["solve", str(k2), "--delta", "0.5"]) == 2

    @pytest.mark.parametrize("delta", ["\u0661/\u0663", "\uff12", "2/\u0663"])
    def test_rejects_non_ascii_digits_in_delta(self, tmp_path, capsys, delta):
        # \d matches these digits and int() reads them: Arabic-Indic 1/3
        # was solved as 1/3 on P3 and printed 7
        p = tmp_path / "p3.graph"
        p.write_text("3 2\n0 1\n1 2\n")
        assert run(["solve", str(p), "--delta", delta]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_graph(self, tmp_path):
        assert run(["solve", str(tmp_path / "nope.graph"), "--delta", "2"]) == 2

    @pytest.mark.parametrize(
        "name,reason",
        [("nope.graph", "No such file or directory"), ("", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_graph_names_its_path(self, tmp_path, capsys, name, reason):
        path = tmp_path / name
        assert run(["solve", str(path), "--delta", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {reason}\n"

    def test_internal_error_while_reading_exits_4(self, k2, capsys, monkeypatch):
        def broken(text):
            raise InternalConsistencyError("reader broke")

        monkeypatch.setattr("deltadisp.cli.parse_graph", broken)
        assert run(["solve", str(k2), "--delta", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: reader broke\n"

    def test_bad_graph_file(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("2 1\n0 0\n")
        assert run(["solve", str(p), "--delta", "2"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_plain_integer_in_graph_file(self, tmp_path, capsys):
        # int() alone would read the last line as the edge (0, 10)
        p = tmp_path / "star.graph"
        p.write_text("11 10\n" + "".join(f"0 {v}\n" for v in range(1, 10)) + "0 1_0\n")
        assert run(["solve", str(p), "--delta", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "line 11" in lines[0]

    def test_undecodable_graph_file(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_bytes(b"2 1\n0 \xff1\n")
        assert run(["solve", str(p), "--delta", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {p}: ")
        assert "decode" in lines[0]

    def test_disconnected_graph_file(self, tmp_path, capsys):
        # a triangle plus an isolated vertex: past the edge-count guard
        p = tmp_path / "split.graph"
        p.write_text("4 3\n0 1\n1 2\n0 2\n")
        assert run(["solve", str(p), "--delta", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "not connected" in lines[0]

    def test_internal_error_exits_4(self, k2, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalConsistencyError("odd remainder component [0]")

        monkeypatch.setattr("deltadisp.cli.disp", broken)
        assert run(["solve", str(k2), "--delta", "2"]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: odd remainder component [0]\n"
        assert "Traceback" not in err

    def test_corrupted_route_exits_4(self, star, capsys, monkeypatch):
        # a closed-form value one too high fails the witness check in disp
        from deltadisp import dispatch

        route = dispatch._unit_numerator

        def corrupted(g, b):
            value, form = route(g, b)
            return value + 1, form

        monkeypatch.setattr(dispatch, "_unit_numerator", corrupted)
        assert run(["solve", str(star), "--delta", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: ")

    def test_repeated_point_exits_4(self, star, capsys, monkeypatch):
        # a route that emits one vertex twice is an internal error, not bad input
        from deltadisp import dispatch

        route = dispatch._unit_numerator

        def repeating(g, b):
            value, (scale, vertices, interior) = route(g, b)
            return value, (scale, [*vertices, vertices[0]], interior)

        monkeypatch.setattr(dispatch, "_unit_numerator", repeating)
        assert run(["solve", str(star), "--delta", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: ")
        assert "not pairwise distinct" in lines[0]

    def test_unwritable_witness_exits_2(self, star, tmp_path, capsys):
        assert run(["solve", str(star), "--delta", "1/2", "--witness", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {tmp_path}: Is a directory"]


class TestOracle:
    def test_value_and_witness_on_stdout(self, star, capsys):
        assert run(["oracle", str(star), "--delta", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3"
        assert len(out) == 4

    def test_cap_exits_3(self, k4, capsys):
        assert run(["oracle", str(k4), "--delta", "1/7", "--cap", "10"]) == 3
        assert "cap" in capsys.readouterr().err

    def test_timeout_exits_3(self, k4):
        assert run(["oracle", str(k4), "--delta", "3/2", "--timeout", "0"]) == 3

    @pytest.mark.parametrize(
        "command,delta",
        [
            (["oracle"], "3/2"),
            (["solve", "--brute-force"], "3/2"),
            (["solve"], "3"),
            (["solve"], "2"),
        ],
        ids=["oracle", "solve", "solve-tree", "solve-delta-2"],
    )
    def test_nan_timeout_exits_2(self, k4, p3, capsys, command, delta):
        # the tree route and numerator two never reach the oracle
        graph = p3 if delta == "3" else k4
        argv = [command[0], str(graph), *command[1:], "--delta", delta, "--timeout", "nan"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "limit", [["--cap", "0"], ["--cap", "-5"], ["--timeout", "-1"], ["--timeout", "inf"]],
        ids=["cap-0", "cap-negative", "timeout-negative", "timeout-inf"],
    )
    @pytest.mark.parametrize("command", [["oracle"], ["solve", "--brute-force"], ["solve"]])
    def test_bad_limits_exit_2(self, k4, p3, capsys, command, limit):
        # refused before routing: plain solve on a tree never reaches the oracle
        graph = p3 if command == ["solve"] else k4
        assert run([command[0], str(graph), *command[1:], "--delta", "3/2", *limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_timeout_names_verified_lower_bound(self, k4, capsys):
        assert run(["oracle", str(k4), "--delta", "3/2", "--timeout", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        pattern = r"error: .* exceeded its time budget; verified lower bound [1-9]\d*"
        assert re.fullmatch(pattern, lines[0])

    def test_agreement_with_solve(self, tmp_path, capsys):
        graphs = {
            "k2": K2_TEXT,
            "star": STAR_TEXT,
            "k4": K4_TEXT,
            "c5": "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
            "tree": "6 5\n0 1\n0 2\n1 3\n1 4\n2 5\n",
        }
        for name, text in graphs.items():
            p = tmp_path / f"{name}.graph"
            p.write_text(text)
            for delta in ("1", "1/2", "2", "2/3"):
                assert run(["solve", str(p), "--delta", delta]) == 0
                solve_out = capsys.readouterr().out.strip()
                assert run(["oracle", str(p), "--delta", delta]) == 0
                oracle_out = capsys.readouterr().out.splitlines()[0]
                assert solve_out == oracle_out, (name, delta)

    def test_unwritable_witness_exits_2(self, k2, tmp_path, capsys):
        target = tmp_path / "missing" / "w"
        assert run(["oracle", str(k2), "--delta", "3", "--witness", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {target}: No such file or directory"]

    def test_witness_is_checked(self, k2, capsys, monkeypatch):
        # a search result of two conflicting candidates (both ends of K2)
        from deltadisp import brute_disp, oracle

        monkeypatch.setattr(oracle, "_max_independent_set", lambda conflicts, deadline, far: (2, 0b11))
        with pytest.raises(InternalConsistencyError):
            brute_disp(parse_graph(K2_TEXT), Fraction(3))
        assert run(["oracle", str(k2), "--delta", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: ")


class TestVerify:
    def test_accept(self, star, tmp_path, capsys):
        cert = tmp_path / "c.txt"
        cert.write_text("3\nW: 1 2 3\n")
        assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "accept"

    def test_reject(self, star, tmp_path, capsys):
        cert = tmp_path / "c.txt"
        cert.write_text("4\nW: 1 2 3\n")
        assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 1
        assert capsys.readouterr().out.startswith("reject")

    def test_infeasible_system_is_one_line(self, k2, tmp_path, capsys):
        cert = tmp_path / "c.txt"
        cert.write_text("2\nW: 0\n0 1\n")
        assert run(["verify", str(k2), "--delta", "3/2", "--certificate", str(cert)]) == 1
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1
        assert out.startswith("reject: infeasible system: x(")
        assert err == ""

    def test_system_over_grid_limit_exits_3(self, star, tmp_path, capsys, monkeypatch):
        # disp's own certificate on the star at 1/3: 3 edge rows and 3
        # pair rows at the centre
        cert = tmp_path / "c.txt"
        cert.write_text("7\nW: 0 1 2 3\n0 2\n1 2\n2 2\n")
        argv = ["verify", str(star), "--delta", "1/3", "--certificate", str(cert)]
        monkeypatch.setattr(core, "GRID_LIMIT", 5)
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: this certificate's system has 6 rows, over the limit of 5\n"
        monkeypatch.setattr(core, "GRID_LIMIT", 6)
        assert run(argv) == 0
        assert capsys.readouterr().out == "accept\n"

    def test_repeated_certificate_vertex_exits_2(self, k2, tmp_path, capsys):
        cert = tmp_path / "c.txt"
        cert.write_text("1\nW: 0 0\n")
        assert run(["verify", str(k2), "--delta", "2", "--certificate", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2: vertex 0 listed twice" in captured.err

    def test_zero_count_line_exits_2(self, p3, tmp_path, capsys):
        # dropping the zero count would hide edge 99, which P3 lacks
        cert = tmp_path / "c.txt"
        cert.write_text("1\nW: 0\n99 0\n")
        assert run(["verify", str(p3), "--delta", "2", "--certificate", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cert}: line 3: interior count must be positive\n"

    @pytest.mark.parametrize(
        "text,message",
        [("1\nW:\n5 1\n", "invalid edge index 5"), ("1\nW: 2 7\n", "invalid vertex id 7")],
        ids=["edge", "vertex"],
    )
    def test_id_outside_the_graph_names_the_file(self, star, tmp_path, capsys, text, message):
        cert = tmp_path / "c.txt"
        cert.write_text(text)
        assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cert}: {message} in certificate\n"

    def test_bad_certificate_file(self, star, tmp_path):
        cert = tmp_path / "c.txt"
        cert.write_text("zzz\n")
        assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 2

    def test_missing_certificate_names_its_path_once(self, star, tmp_path, capsys):
        cert = tmp_path / "nope.txt"
        assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cert}: No such file or directory\n"

    def test_undecodable_certificate_file(self, star, tmp_path, capsys):
        cert = tmp_path / "c.txt"
        cert.write_bytes(b"3\nW: 1 2 \xff3\n")
        assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cert}: ")
        assert "decode" in lines[0]


class TestGadget:
    def test_emission(self, k4, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["gadget", str(k4), "--delta", "3", "--out", "gg"]) == 0
        out = capsys.readouterr().out
        assert "x1=4 y1=1 x2=4 y2=1" in out
        assert "k + 18" in out
        emitted = parse_graph((tmp_path / "gg.graph").read_text())
        assert emitted.vertex_count == 64 and emitted.edge_count == 72
        map_lines = (tmp_path / "gg.map").read_text().splitlines()
        assert len(map_lines) == 10

    def test_unwritable_output_exits_2(self, k4, tmp_path, capsys):
        prefix = tmp_path / "missing" / "gg"
        assert run(["gadget", str(k4), "--delta", "3", "--out", str(prefix)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {prefix}.graph: No such file or directory"
        ]

    def test_second_output_unwritable_leaves_nothing(self, k4, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gg.map").mkdir()
        before = set(tmp_path.iterdir())
        assert run(["gadget", str(k4), "--delta", "3", "--out", "gg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: gg.map: Is a directory"]
        assert not (tmp_path / "gg.graph").exists()
        assert set(tmp_path.iterdir()) == before

    def test_failed_second_write_removes_first(self, k4, tmp_path, capsys, monkeypatch):
        # any error on the second file, here a full disk, undoes the first
        write_text = Path.write_text

        def disk_full_on_map(path, text):
            if path.suffix == ".map":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, text)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Path, "write_text", disk_full_on_map)
        before = set(tmp_path.iterdir())
        assert run(["gadget", str(k4), "--delta", "3", "--out", "gg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: gg.map: {os.strerror(errno.ENOSPC)}"]
        assert set(tmp_path.iterdir()) == before

    def test_over_grid_limit_exits_3(self, k4, tmp_path, capsys, monkeypatch):
        # K4's gadget at delta = 3 has 64 vertices
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(core, "GRID_LIMIT", 63)
        assert run(["gadget", str(k4), "--delta", "3", "--out", "gg"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: this gadget has 64 points, over the limit of 63\n"
        assert sorted(tmp_path.iterdir()) == [k4]
        monkeypatch.setattr(core, "GRID_LIMIT", 64)
        assert run(["gadget", str(k4), "--delta", "3", "--out", "gg"]) == 0
        assert parse_graph((tmp_path / "gg.graph").read_text()).vertex_count == 64

    def test_non_cubic_rejected(self, star, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["gadget", str(star), "--delta", "3"]) == 2


class TestSubdivide:
    def test_emits_subdivision(self, k2, capsys):
        assert run(["subdivide", str(k2), "--factor", "3"]) == 0
        emitted = parse_graph(capsys.readouterr().out)
        assert emitted.vertex_count == 4 and emitted.edge_count == 3

    def test_bad_factor(self, k2, capsys):
        assert run(["subdivide", str(k2), "--factor", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: subdivision factor must be >= 1\n"

    def test_factor_over_grid_limit_exits_3(self, k2, capsys):
        assert run(["subdivide", str(k2), "--factor", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "1000000001 points" in lines[0]


class TestSingleVertexGraph:
    def test_solve_and_witness(self, tmp_path, capsys):
        p = tmp_path / "k1.graph"
        p.write_text("1 0\n")
        out = tmp_path / "w.txt"
        assert run(["solve", str(p), "--delta", "5", "--brute-force", "--witness", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert out.read_text() == "-1 0 0 0/1\n"
        g = parse_graph("1 0\n")
        ws = parse_witness(g, out.read_text(), Fraction(5))
        assert len(ws) == 1


    def test_oracle_on_the_lone_vertex(self, tmp_path, capsys):
        p = tmp_path / "k1.graph"
        p.write_text("1 0\n")
        assert run(["oracle", str(p), "--delta", "7/3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "-1 0 0 0/1"]


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_delta(self, k2, capsys):
        assert run(["solve", str(k2)]) == 2
        capsys.readouterr()

    def test_commands_after_a_usage_error(self, star, tmp_path, capsys):
        # the process keeps one parser; a failed parse must not change it
        cert = tmp_path / "c.txt"
        cert.write_text("3\nW: 1 2 3\n")
        assert run([]) == 2
        capsys.readouterr()
        for _ in range(2):
            assert run(["solve", str(star), "--delta", "2"]) == 0
            assert capsys.readouterr().out == "3\n"
            assert run(["verify", str(star), "--delta", "2", "--certificate", str(cert)]) == 0
            assert capsys.readouterr().out == "accept\n"
            assert run(["verify", str(star), "--delta", "2"]) == 2
            assert "--certificate" in capsys.readouterr().err

    def test_command_parser_errors_and_help(self, k2, capsys):
        # a command's arguments are parsed by its own parser alone, which
        # keeps the exit codes of the top-level parse before and after a
        # successful command
        for _ in range(2):
            assert run(["solve", str(k2), "--delta", "2", "--bogus"]) == 2
            err = capsys.readouterr().err
            assert "usage: deltadisp solve" in err and "--bogus" in err
            assert run(["solve", "--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: deltadisp solve")
            assert run(["solve", str(k2), "--delta", "2"]) == 0
            assert capsys.readouterr().out == "1\n"

    def test_each_command_keeps_its_options(self, capsys):
        # (dest, option strings, type, default, required) of every option
        graph = ("graph", (), Path, None, True)
        delta = ("delta", ("--delta",), _parse_delta, None, True)
        search = (
            ("witness", ("--witness",), Path, None, False),
            ("cap", ("--cap",), int, 2000, False),
            ("timeout", ("--timeout",), float, None, False),
        )
        brute_force = ("brute_force", ("--brute-force",), None, False, False)
        expected = {
            "solve": {graph, delta, *search, brute_force},
            "oracle": {graph, delta, *search},
            "verify": {graph, delta, ("certificate", ("--certificate",), Path, None, True)},
            "gadget": {graph, delta, ("out", ("--out",), None, "gadget", False)},
            "subdivide": {graph, ("factor", ("--factor",), int, None, True)},
        }
        _, commands = build_parser()
        assert set(commands) == set(expected)
        for name, options in expected.items():
            actions = [a for a in commands[name]._actions if a.dest != "help"]
            assert {
                (a.dest, tuple(a.option_strings), a.type, a.default, a.required) for a in actions
            } == options, name
            assert run([name, "--help"]) == 0
            help_text = capsys.readouterr().out
            named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text)) - {"--help"}
            assert named == {flag for _, flags, *_ in options for flag in flags}, name
