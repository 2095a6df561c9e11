"""CLI tests (argument parsing + each subcommand end to end)."""

import json

import pytest

from repro.cli import _parse_host_args, build_parser, main, result_to_dict

KERNEL = """
float smooth(float samples[8], float out[8]) {
    long double acc = 0.0;
    for (int i = 0; i < 8; i++) {
        long double x = samples[i];
        acc = acc + x;
        out[i] = (float)acc;
    }
    return (float)acc;
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestParsing:
    def test_host_args(self):
        assert _parse_host_args("") == []
        assert _parse_host_args("1,2,3") == [1, 2, 3]
        assert _parse_host_args("1, 2.5, 0x10") == [1, 2.5, 16]

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transpile_requires_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transpile", "f.c"])


class TestCheck:
    def test_broken_kernel_exits_nonzero(self, kernel_file, capsys):
        code = main(["check", kernel_file, "--top", "smooth"])
        assert code == 1
        out = capsys.readouterr().out
        assert "long double" in out

    def test_json_output(self, kernel_file, capsys):
        main(["check", kernel_file, "--top", "smooth", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["type"] == "Unsupported Data Types"

    def test_clean_kernel_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.c"
        path.write_text("int kernel(int a[4]) { return a[0]; }")
        assert main(["check", str(path), "--top", "kernel"]) == 0
        assert "synthesizable" in capsys.readouterr().out


class TestFuzz:
    def test_fuzz_reports_coverage(self, kernel_file, capsys):
        code = main([
            "fuzz", kernel_file, "--kernel", "smooth", "--fuzz-execs", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "branch_coverage" in out

    def test_fuzz_json_includes_corpus(self, kernel_file, capsys):
        main([
            "fuzz", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus"]
        assert payload["executions"] > 0


class TestTranspile:
    def test_end_to_end(self, kernel_file, capsys):
        code = main([
            "transpile", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--max-iterations", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "HLS compatible   : yes" in out
        assert "fpga_float<8,71>" in out

    def test_diff_mode(self, kernel_file, capsys):
        main([
            "transpile", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--max-iterations", "50", "--diff",
        ])
        out = capsys.readouterr().out
        assert "---" in out and "+++" in out
        assert "-    long double acc = 0.0;" in out

    def test_json_payload_complete(self, kernel_file, capsys):
        main([
            "transpile", kernel_file, "--kernel", "smooth",
            "--fuzz-execs", "200", "--max-iterations", "50", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["hls_compatible"] is True
        assert payload["behavior_preserved"] is True
        assert payload["applied_edits"]
        assert "final_source" in payload


class TestSubjects:
    def test_list_subjects(self, capsys):
        assert main(["subjects"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P10" in out

    def test_list_subjects_json(self, capsys):
        main(["subjects", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 10


class TestStudy:
    def test_study_render(self, capsys):
        assert main(["study", "--posts", "100"]) == 0
        out = capsys.readouterr().out
        assert "Unsupported Data Types" in out

    def test_study_json(self, capsys):
        main(["study", "--posts", "100", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 100
        assert payload["accuracy"] > 0.9


class TestWorkersValidation:
    def test_type_accepts_positive_integers(self):
        from repro.cli import _workers_count
        assert _workers_count("1") == 1
        assert _workers_count("8") == 8

    def test_type_rejects_non_integers(self):
        import argparse
        from repro.cli import _workers_count
        with pytest.raises(argparse.ArgumentTypeError, match="integer"):
            _workers_count("two")
        with pytest.raises(argparse.ArgumentTypeError, match="integer"):
            _workers_count("1.5")

    def test_type_rejects_zero_and_negative(self):
        import argparse
        from repro.cli import _workers_count
        with pytest.raises(argparse.ArgumentTypeError, match=">= 1"):
            _workers_count("0")
        with pytest.raises(argparse.ArgumentTypeError, match=">= 1"):
            _workers_count("-3")

    def test_parser_exits_on_bad_workers(self, capsys):
        parser = build_parser()
        for bad in ("0", "-1", "x"):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    ["transpile", "f.c", "--kernel", "k", "--workers", bad]
                )
        capsys.readouterr()  # swallow argparse's stderr usage text


class TestSynthFlags:
    def test_default_is_unset(self):
        args = build_parser().parse_args(
            ["transpile", "f.c", "--kernel", "k"]
        )
        assert args.synth is None  # falls through to $REPRO_SYNTH

    def test_synth_and_no_synth(self):
        parser = build_parser()
        on = parser.parse_args(
            ["transpile", "f.c", "--kernel", "k", "--synth"]
        )
        off = parser.parse_args(
            ["transpile", "f.c", "--kernel", "k", "--no-synth"]
        )
        assert on.synth is True
        assert off.synth is False


class TestBadInput:
    """Bad input ends in one ``repro <cmd>: error: ...`` line, exit 2."""

    @pytest.fixture
    def syntax_error_file(self, tmp_path):
        path = tmp_path / "bad.c"
        path.write_text("int f(int a) { return a + ; }\n")
        return str(path)

    def _error_line(self, capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        return lines[0]

    def test_transpile_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.c")
        assert main(["transpile", missing, "--kernel", "f"]) == 2
        line = self._error_line(capsys)
        assert line.startswith("repro transpile: error: ")
        assert "No such file" in line and "nonexistent.c" in line

    def test_transpile_syntax_error(self, syntax_error_file, capsys):
        assert main(["transpile", syntax_error_file, "--kernel", "f"]) == 2
        line = self._error_line(capsys)
        assert line.startswith("repro transpile: error: 1:27: ")

    def test_fuzz_syntax_error(self, syntax_error_file, capsys):
        assert main(["fuzz", syntax_error_file, "--kernel", "f"]) == 2
        assert self._error_line(capsys).startswith("repro fuzz: error: 1:27: ")

    def test_check_syntax_error(self, syntax_error_file, capsys):
        assert main(["check", syntax_error_file, "--top", "f"]) == 2
        assert self._error_line(capsys).startswith("repro check: error: ")

    def test_trace_summary_missing_journal(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert main(["trace", "summary", missing]) == 2
        line = self._error_line(capsys)
        assert line.startswith("repro trace summary: error: ")
        assert "missing.jsonl" in line


def test_interp_backend_help_lists_every_backend(capsys):
    from repro.interp import BACKENDS

    with pytest.raises(SystemExit):
        build_parser().parse_args(["transpile", "--help"])
    help_text = capsys.readouterr().out
    assert "{" + ",".join(BACKENDS) + "}" in help_text
    assert "'batch'" in help_text
