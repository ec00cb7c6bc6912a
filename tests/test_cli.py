from pathlib import Path

import pytest

from hbmatch import GeneratorSpec, generate
from hbmatch.cli import (
    ParseError,
    check_trace_lines,
    main,
    parse_instance,
    parse_result,
    serialize_instance,
)

from .conftest import shift_chain, superposed_commit_instance


class TestParseInstance:
    def test_minimal(self):
        h = parse_instance("p hbm 3 1 2 1\ne 0 0 1\n")
        assert h.r == 3 and h.a_count == 1 and h.b_count == 2 and h.m == 1
        assert h.edges[0].a == 0 and h.edges[0].bs == (0, 1)

    def test_comments_ignored_anywhere(self):
        text = "c hello\np hbm 2 1 1 1\nc mid\ne 0 0\nc end\n"
        assert parse_instance(text).m == 1

    def test_header_edge_count_mismatch(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("p hbm 3 1 2 2\ne 0 0 1\n")
        assert "m=2" in str(exc.value)

    def test_unsorted_b_vertices_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p hbm 3 1 2 1\ne 0 1 0\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("p hbm 2 1 1 2\ne 0 0\ne 0 0\n")
        assert exc.value.line == 3

    def test_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_instance("e 0 0\np hbm 2 1 1 1\n")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_instance("p hbm 3 1 3 1\ne 0 0\n")

    def test_invalid_instance_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p hbm 2 1 1 1\ne 0 5\n")

    def test_negative_header_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p hbm 2 -1 0 0\n")
        with pytest.raises(ParseError):
            parse_instance("p hbm 1 2 2 0\n")

    def test_roundtrip_byte_identical(self):
        spec = GeneratorSpec(mode="planted", r=3, a_count=6, b_count=14, extra_edges=5, seed=11)
        text = serialize_instance(generate(spec))
        assert serialize_instance(parse_instance(text)) == text


class TestParseResult:
    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_result("status: witness\nepsilon: 1\nstatus: perfect_matching\n")
        assert exc.value.line == 3


class TestTraceChecker:
    def test_accepts_decreasing_signatures(self):
        lines = [
            "augment_start root=0 matched=0",
            "signature iter=1 coords= unresolved=0",
            "signature iter=2 coords=-5,7 unresolved=0",
            "signature iter=3 coords=-6,7 unresolved=0",
            "augment_end outcome=matched iterations=3",
        ]
        assert check_trace_lines(lines) is None

    def test_rejects_nondecreasing(self):
        lines = [
            "augment_start root=0 matched=0",
            "signature iter=1 coords=-6,7 unresolved=0",
            "signature iter=2 coords=-5,7 unresolved=0",
        ]
        assert "did not decrease" in check_trace_lines(lines)

    def test_rejects_sign_pattern_break(self):
        lines = ["augment_start root=0", "signature iter=1 coords=5,7 unresolved=0"]
        assert "sign pattern" in check_trace_lines(lines)

    def test_rejects_unresolved_boundary(self):
        lines = ["augment_start root=0", "signature iter=1 coords=-5,7 unresolved=1"]
        assert "unresolved" in check_trace_lines(lines)

    def test_scopes_reset_between_runs(self):
        lines = [
            "augment_start root=0",
            "signature iter=1 coords=-9,9 unresolved=0",
            "augment_end outcome=matched iterations=1",
            "augment_start root=1",
            "signature iter=1 coords=-5,7 unresolved=0",
        ]
        assert check_trace_lines(lines) is None


class TestCommands:
    def write_instance(self, tmp_path, h, name="inst.hbm"):
        path = tmp_path / name
        path.write_text(serialize_instance(h))
        return str(path)

    def test_solve_verify_roundtrip_matching(self, tmp_path):
        inst = self.write_instance(tmp_path, superposed_commit_instance())
        out = str(tmp_path / "result.txt")
        code = main(["solve", "--input", inst, "--epsilon", "1", "--output", out])
        assert code == 0
        doc = parse_result(Path(out).read_text())
        assert doc["status"] == "perfect_matching"
        assert main(["verify", "--instance", inst, "--result", out]) == 0

    def test_solve_verify_roundtrip_witness(self, tmp_path):
        h = generate(GeneratorSpec(mode="adversarial", r=2, a_count=2, b_count=1, seed=0))
        inst = self.write_instance(tmp_path, h)
        out = str(tmp_path / "result.txt")
        code = main(["solve", "--input", inst, "--epsilon", "1/2", "--output", out])
        assert code == 2
        doc = parse_result(Path(out).read_text())
        assert doc["status"] == "witness"
        assert main(["verify", "--instance", inst, "--result", out]) == 0

    def test_verify_rejects_overlapping_matching(self, tmp_path):
        h = parse_instance("p hbm 2 2 2 2\ne 0 0\ne 1 0\n")
        inst = self.write_instance(tmp_path, h)
        res = tmp_path / "bad.txt"
        res.write_text("status: perfect_matching\nepsilon: 1\nmatching: 0 1\n")
        assert main(["verify", "--instance", inst, "--result", str(res)]) == 1

    def test_verify_rejects_witness_over_bound(self, tmp_path):
        h = parse_instance("p hbm 2 2 3 2\ne 0 0\ne 1 1\n")
        inst = self.write_instance(tmp_path, h)
        res = tmp_path / "bad.txt"
        res.write_text("status: witness\nepsilon: 1\nS: 0\nhitting_set: 0 1 2\n")
        assert main(["verify", "--instance", inst, "--result", str(res)]) == 1

    def test_missing_file_is_exit_1(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope"), "--epsilon", "1"]) == 1

    def test_check_haxell_command(self, tmp_path, capsys):
        spec = GeneratorSpec(mode="guaranteed", r=3, a_count=3, b_count=30, d=5, seed=4)
        inst = self.write_instance(tmp_path, generate(spec))
        assert main(["check-haxell", "--input", inst, "--epsilon", "1"]) == 0
        assert "SATISFIED" in capsys.readouterr().out
        funnel = self.write_instance(
            tmp_path,
            generate(GeneratorSpec(mode="adversarial", r=2, a_count=2, b_count=1, seed=0)),
            "funnel.hbm",
        )
        assert main(["check-haxell", "--input", funnel, "--epsilon", "1"]) == 2
        assert "VIOLATED" in capsys.readouterr().out

    def test_gen_then_check_pipeline(self, tmp_path, capsys):
        inst = str(tmp_path / "g.hbm")
        assert main([
            "gen", "--mode", "guaranteed", "--r", "3", "--na", "4", "--nb", "60",
            "--epsilon", "1", "--seed", "2", "--output", inst,
        ]) == 0
        assert main(["check-haxell", "--input", inst, "--epsilon", "1"]) == 0

    def test_gen_adversarial_then_solve_witness(self, tmp_path):
        inst = str(tmp_path / "adv.hbm")
        assert main([
            "gen", "--mode", "adversarial", "--r", "2", "--na", "6", "--nb", "2",
            "--seed", "5", "--output", inst,
        ]) == 0
        out = str(tmp_path / "res.txt")
        assert main(["solve", "--input", inst, "--epsilon", "1/2", "--output", out]) == 2
        assert main(["verify", "--instance", inst, "--result", out]) == 0

    def test_trace_written_and_checkable(self, tmp_path):
        inst = self.write_instance(tmp_path, shift_chain(6))
        out = str(tmp_path / "res.txt")
        trace = str(tmp_path / "trace.txt")
        assert main([
            "solve", "--input", inst, "--epsilon", "1/2",
            "--output", out, "--trace", trace,
        ]) == 0
        assert main(["check-trace", "--trace", trace]) == 0
        # corrupt one signature line: checker must object
        lines = Path(trace).read_text().splitlines()
        sig_idx = [i for i, l in enumerate(lines) if l.startswith("signature")]
        lines[sig_idx[-1]] = lines[sig_idx[0]]
        bad = tmp_path / "bad_trace.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check-trace", "--trace", str(bad)]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        inst = self.write_instance(tmp_path, shift_chain(7))
        outs, traces = [], []
        for tag in ("one", "two"):
            out = tmp_path / f"res-{tag}.txt"
            tr = tmp_path / f"trace-{tag}.txt"
            assert main([
                "solve", "--input", inst, "--epsilon", "1/2",
                "--output", str(out), "--trace", str(tr),
            ]) == 0
            outs.append(out.read_bytes())
            traces.append(tr.read_bytes())
        assert outs[0] == outs[1]
        assert traces[0] == traces[1]

    def test_debug_invariants_flag(self, tmp_path):
        inst = self.write_instance(tmp_path, shift_chain(5))
        assert main([
            "solve", "--input", inst, "--epsilon", "1/2", "--debug-invariants",
            "--output", str(tmp_path / "r.txt"),
        ]) == 0

    def test_parameter_overrides(self, tmp_path):
        inst = self.write_instance(tmp_path, shift_chain(5))
        out = str(tmp_path / "r.txt")
        assert main([
            "solve", "--input", inst, "--epsilon", "1/2",
            "--mu-override", "1/6", "--u-override", "5", "--output", out,
        ]) == 0
        assert main(["verify", "--instance", inst, "--result", out]) == 0

    def test_bench_rows(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.txt"
        spec_file.write_text("mode=planted r=3 na=5 nb=12 extra_edges=4\n")
        assert main([
            "bench", "--spec-file", str(spec_file), "--seeds", "0:5", "--epsilon", "1",
        ]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(rows) == 5
        assert all("status=" in r and "millis=" in r for r in rows)
        seeds = [int(r.split("seed=")[1].split()[0]) for r in rows]
        assert seeds == sorted(seeds)

    def test_bench_spec_line_missing_key_is_parse_error(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.txt"
        spec_file.write_text("# header\nmode=planted nb=10\n")
        assert main(["bench", "--spec-file", str(spec_file), "--seeds", "0:1"]) == 1
        assert "PARSE_ERROR: line 2: spec line lacks na=" in capsys.readouterr().err
        spec_file.write_text("mode=planted na=5 nb=12 extra\n")
        assert main(["bench", "--spec-file", str(spec_file), "--seeds", "0:1"]) == 1
        assert "PARSE_ERROR: line 1: expected key=value" in capsys.readouterr().err

    def test_verify_witness_without_epsilon_is_parse_error(self, tmp_path, capsys):
        h = generate(GeneratorSpec(mode="adversarial", r=2, a_count=2, b_count=1, seed=0))
        inst = self.write_instance(tmp_path, h)
        res = tmp_path / "no-eps.txt"
        res.write_text("status: witness\nS: 0 1\nhitting_set: 0\n")
        assert main(["verify", "--instance", inst, "--result", str(res)]) == 1
        assert "PARSE_ERROR" in capsys.readouterr().err

    def test_verify_rejects_duplicate_status(self, tmp_path, capsys):
        inst = self.write_instance(tmp_path, superposed_commit_instance())
        out = tmp_path / "res.txt"
        assert main(["solve", "--input", inst, "--epsilon", "1", "--output", str(out)]) == 0
        assert main(["verify", "--instance", inst, "--result", str(out)]) == 0
        # the later status line must not silently override the first
        out.write_text("status: witness\n" + out.read_text())
        assert main(["verify", "--instance", inst, "--result", str(out)]) == 1
        assert "line 2: duplicate key 'status'" in capsys.readouterr().err
