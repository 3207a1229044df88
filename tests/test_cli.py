import io

import pytest

from nilwitness import parse_matrix
from nilwitness.cli import main

from helpers import qmat

T23_TEXT = "Q\n3 3\n1 0 2\n0 1 3\n0 0 0\n"


@pytest.fixture
def t23_file(tmp_path):
    path = tmp_path / "t23.mat"
    path.write_text(T23_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRref:
    def test_prints_matrix_rank_pivots(self, capsys, t23_file):
        code, out, err = run(capsys, "rref", t23_file)
        assert code == 0 and err == ""
        assert out == "Q\n3 3\n1 0 2\n0 1 3\n0 0 0\n# rank: 2\n# pivot columns: 1 2\n"

    def test_output_is_a_fixed_point(self, capsys, t23_file, tmp_path, monkeypatch):
        code, first, _ = run(capsys, "rref", t23_file)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(first))
        code, second, _ = run(capsys, "rref", "-")
        assert code == 0
        assert second == first

    def test_script_written_and_replayable(self, capsys, tmp_path):
        src = tmp_path / "m.mat"
        src.write_text("Q\n2 2\n0 2\n1 1\n")
        script_path = tmp_path / "out.script"
        code, out, _ = run(capsys, "rref", str(src), "--script", str(script_path))
        assert code == 0
        code, applied, _ = run(capsys, "apply", str(src), str(script_path))
        assert code == 0
        assert applied.strip().endswith("1 0\n0 1")

    def test_zero_matrix_pivot_line(self, capsys, tmp_path):
        src = tmp_path / "z.mat"
        src.write_text("Q\n2 2\n0 0\n0 0\n")
        code, out, _ = run(capsys, "rref", str(src))
        assert code == 0
        assert out.endswith("# rank: 0\n# pivot columns:\n")


class TestKernel:
    def test_prints_vector_blocks(self, capsys, t23_file):
        code, out, _ = run(capsys, "kernel", t23_file)
        assert code == 0
        assert out == "Q\n3 1\n-2\n-3\n1\n"

    def test_trivial_kernel_prints_nothing(self, capsys, tmp_path):
        src = tmp_path / "i.mat"
        src.write_text("Q\n2 2\n1 0\n0 1\n")
        code, out, _ = run(capsys, "kernel", str(src))
        assert code == 0
        assert out == ""

    def test_multiple_vectors(self, capsys, tmp_path):
        src = tmp_path / "r1.mat"
        src.write_text("Q\n3 3\n1 1 2\n0 0 0\n0 0 0\n")
        code, out, _ = run(capsys, "kernel", str(src))
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2


class TestWitness:
    def test_report_on_stdout_and_file(self, capsys, t23_file, tmp_path):
        report_path = tmp_path / "cert.txt"
        code, out, _ = run(capsys, "witness", t23_file, "--report", str(report_path))
        assert code == 0
        assert out.startswith("[input]\nQ\n3 3\n")
        assert "[index]\n3\n" in out
        assert "[rref]\nQ\n3 3\n1 0 2\n0 1 3\n0 0 0\n[script]" in out
        assert report_path.read_text() == out

    def test_nonsingular_is_domain_error(self, capsys, tmp_path):
        src = tmp_path / "i.mat"
        src.write_text("Q\n2 2\n1 0\n0 1\n")
        code, out, err = run(capsys, "witness", str(src))
        assert code == 3
        assert out == ""
        assert "singular" in err

    def test_report_script_replays(self, capsys, t23_file, tmp_path):
        code, out, _ = run(capsys, "witness", t23_file)
        assert code == 0
        script_text = out.split("[script]\n", 1)[1]
        nilpotent_text = out.split("[nilpotent]\n", 1)[1].split("[index]", 1)[0]
        script_file = tmp_path / "w.script"
        script_file.write_text(script_text)
        code, applied, _ = run(capsys, "apply", t23_file, str(script_file))
        assert code == 0
        assert applied == nilpotent_text


class TestIndex:
    def test_nilpotent(self, capsys, tmp_path):
        src = tmp_path / "s.mat"
        src.write_text("Q\n3 3\n0 1 0\n0 0 1\n0 0 0\n")
        code, out, _ = run(capsys, "index", str(src))
        assert code == 0 and out == "3\n"

    def test_not_nilpotent_is_an_answer(self, capsys, tmp_path):
        src = tmp_path / "i.mat"
        src.write_text("Q\n2 2\n1 0\n0 1\n")
        code, out, _ = run(capsys, "index", str(src))
        assert code == 0 and out == "not nilpotent\n"

    def test_rectangular_is_domain_error(self, capsys, tmp_path):
        src = tmp_path / "r.mat"
        src.write_text("Q\n1 2\n1 2\n")
        code, out, err = run(capsys, "index", str(src))
        assert code == 3 and err


class TestCertify:
    def test_reflexive(self, capsys, t23_file):
        code, out, _ = run(capsys, "certify", t23_file, t23_file)
        assert code == 0 and out == "row-equivalent\n"

    def test_negative_answer_exits_zero(self, capsys, tmp_path):
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text("Q\n2 2\n1 0\n0 1\n")
        b.write_text("Q\n2 2\n0 0\n0 0\n")
        code, out, _ = run(capsys, "certify", str(a), str(b))
        assert code == 0 and out == "not-row-equivalent\n"

    def test_dimension_mismatch_is_domain_error(self, capsys, tmp_path):
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text("Q\n2 2\n1 0\n0 1\n")
        b.write_text("Q\n1 2\n1 0\n")
        code, _, err = run(capsys, "certify", str(a), str(b))
        assert code == 3 and err

    def test_double_stdin_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "-", "-")
        assert code == 1 and "standard input" in err


class TestApply:
    def test_swap(self, capsys, tmp_path):
        src = tmp_path / "m.mat"
        src.write_text("Q\n2 2\n1 2\n3 4\n")
        script = tmp_path / "s.script"
        script.write_text("swap 1 2\n")
        code, out, _ = run(capsys, "apply", str(src), str(script))
        assert code == 0 and out == "Q\n2 2\n3 4\n1 2\n"

    def test_out_of_range_is_domain_error(self, capsys, tmp_path):
        src = tmp_path / "m.mat"
        src.write_text("Q\n2 2\n1 2\n3 4\n")
        script = tmp_path / "s.script"
        script.write_text("swap 1 3\n")
        code, _, err = run(capsys, "apply", str(src), str(script))
        assert code == 3 and err

    def test_gf_coefficients_parsed_in_matrix_field(self, capsys, tmp_path):
        src = tmp_path / "m.mat"
        src.write_text("GF 5\n2 2\n1 2\n3 4\n")
        script = tmp_path / "s.script"
        script.write_text("scale 1 7\n")  # 7 = 2 mod 5
        code, out, _ = run(capsys, "apply", str(src), str(script))
        assert code == 0 and out == "GF 5\n2 2\n2 4\n3 4\n"


class TestCatalog3:
    def test_parameterized_form(self, capsys):
        code, out, _ = run(capsys, "catalog3", "--rank", "2", "--form", "1", "--a", "2", "--b", "3")
        assert code == 0 and out == T23_TEXT

    def test_rational_tokens(self, capsys):
        # negative tokens need the --opt=value spelling so argparse
        # does not mistake them for option flags
        code, out, _ = run(capsys, "catalog3", "--rank", "1", "--form", "2", "--c=-1/2")
        assert code == 0 and out == "Q\n3 3\n0 1 -1/2\n0 0 0\n0 0 0\n"

    def test_missing_params_domain_error(self, capsys):
        code, _, err = run(capsys, "catalog3", "--rank", "2", "--form", "1")
        assert code == 3 and err

    def test_bad_token_parse_error(self, capsys):
        code, _, err = run(capsys, "catalog3", "--rank", "1", "--form", "2", "--c", "x")
        assert code == 2 and err


class TestPlumbing:
    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(T23_TEXT))
        code, out, _ = run(capsys, "index", "-")
        assert code == 0 and out == "not nilpotent\n"

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "rref", str(tmp_path / "nope.mat"))
        assert code == 2 and err

    def test_malformed_matrix_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.mat"
        src.write_text("Q\n2 2\n1 0\n")
        code, _, err = run(capsys, "rref", str(src))
        assert code == 2 and err

    def test_nonprime_field_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.mat"
        src.write_text("GF 6\n1 1\n0\n")
        code, _, err = run(capsys, "rref", str(src))
        assert code == 2 and err

    def test_large_prime_header_accepted(self, capsys, tmp_path):
        src = tmp_path / "big.mat"
        src.write_text(f"GF {2**61 - 1}\n1 1\n0\n")
        code, out, _ = run(capsys, "index", str(src))
        assert code == 0 and out == "1\n"

    def test_modulus_over_limit_exit_2(self, capsys, tmp_path):
        src = tmp_path / "huge.mat"
        src.write_text(f"GF {2**89 - 1}\n1 1\n0\n")
        code, out, err = run(capsys, "index", str(src))
        assert code == 2 and out == "" and "limit" in err

    def test_superscript_dimension_exit_2(self, capsys, tmp_path):
        src = tmp_path / "sup.mat"
        src.write_text("Q\n\u00b2 2\n1 0\n0 1\n", encoding="utf-8")
        code, out, err = run(capsys, "rref", str(src))
        assert code == 2 and out == "" and err

    def test_superscript_row_index_exit_2(self, capsys, tmp_path):
        src = tmp_path / "m.mat"
        src.write_text("Q\n2 2\n1 0\n0 1\n")
        script = tmp_path / "sup.script"
        script.write_text("swap \u00b2 1\n", encoding="utf-8")
        code, out, err = run(capsys, "apply", str(src), str(script))
        assert code == 2 and out == "" and err

    def test_invalid_utf8_file_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.mat"
        src.write_bytes(b"Q\n2 2\n1 \xff\n0 1\n")
        code, out, err = run(capsys, "rref", str(src))
        assert code == 2 and out == "" and "UTF-8" in err

    def test_invalid_utf8_stdin_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"Q\n2 2\n1 \xff\n0 1\n"))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "rref", "-")
        assert code == 2 and out == "" and "UTF-8" in err

    def test_byte_identical_runs(self, capsys, t23_file):
        outputs = []
        for _ in range(2):
            for argv in (
                ("rref", t23_file),
                ("kernel", t23_file),
                ("witness", t23_file),
                ("index", t23_file),
                ("certify", t23_file, t23_file),
            ):
                code, out, _ = run(capsys, *argv)
                assert code == 0
                outputs.append(out)
        half = len(outputs) // 2
        assert outputs[:half] == outputs[half:]

    def test_rref_output_reparses(self, capsys, t23_file):
        code, out, _ = run(capsys, "rref", t23_file)
        assert parse_matrix(out) == qmat([[1, 0, 2], [0, 1, 3], [0, 0, 0]])
