"""Command-line behavior: subcommands, JSON records, exit codes."""

import json

import pytest

from polarf import cli
from polarf.cli import main
from polarf.corpus import ENVIRONMENT
from polarf.errors import InvariantViolation


@pytest.fixture
def ipf(tmp_path):
    def write(text, name="prog.ipf"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


class TestCheck:
    def test_accepted_program(self, ipf, capsys):
        path = ipf(ENVIRONMENT + "\nrun let t = head(ids); return t")
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "OK : up (dn (forall a. a -> up a))"

    def test_rejected_program_exit_1(self, ipf, capsys):
        path = ipf(ENVIRONMENT + "\nrun let t = choose(id, auto); return t")
        assert main(["check", path]) == 1
        assert "error[subtype-failure]" in capsys.readouterr().out

    def test_parse_error_exit_2(self, ipf, capsys):
        path = ipf("run {return}")
        assert main(["check", path]) == 2
        assert "error[parse]" in capsys.readouterr().out

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "/nonexistent/x.ipf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_file_json_record(self, tmp_path, capsys, where):
        path = str(tmp_path / "x.ipf" if where == "missing" else tmp_path)
        with pytest.raises(OSError) as raised:
            open(path, "rb")
        assert main(["check", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "status": "parse-error", "type": None, "trace": None,
            "error": {"kind": "parse", "message": str(raised.value), "span": None}}

    def test_json_record_ok(self, ipf, capsys):
        path = ipf("run return true")
        assert main(["check", path, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"status": "ok", "type": "up Bool", "error": None,
                          "trace": None}

    def test_json_record_error_fields(self, ipf, capsys):
        path = ipf("run return x")
        assert main(["check", path, "--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "type-error"
        assert record["type"] is None
        assert record["error"]["kind"] == "unbound-variable"
        assert set(record["error"]) == {"kind", "message", "span"}

    def test_json_trace_round_trips(self, ipf, capsys):
        path = ipf("run let x = {return 1}(); return x")
        assert main(["check", path, "--json", "--trace"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["trace"]
        assert set(record["trace"][0]) == {"rule", "goal", "context_before",
                                           "context_after"}

    def test_trace_output_human(self, ipf, capsys):
        path = ipf("run return 5")
        assert main(["check", path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "derivation:" in out and "[return]" in out


class TestSub:
    def test_verdict_lines(self, ipf, capsys):
        path = ipf("forall a. a -> up a <: Int -> up Int\n"
                   "-- a comment line\n"
                   "Int -> up Int <: forall a. a -> up a\n"
                   "dn (forall a. a -> up a) <: dn (forall b. b -> up b)\n",
                   name="subs.txt")
        assert main(["sub", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("1: ok")
        assert lines[1].startswith("3: fail")
        assert lines[2].startswith("4: ok")

    def test_mixed_polarity_is_an_error(self, ipf, capsys):
        path = ipf("Int <: up Int\n", name="subs.txt")
        assert main(["sub", path]) == 2

    def test_bad_type_is_an_error(self, ipf):
        path = ipf("Int <<: Int\n", name="subs.txt")
        assert main(["sub", path]) == 2

    def test_unreadable_file_exit_2(self, tmp_path, capsys):
        assert main(["sub", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_line_without_subtyping_is_an_error(self, ipf, capsys):
        path = ipf("Int <: Int\nInt\n", name="subs.txt")
        assert main(["sub", path]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "1: ok  Int <: Int", "2: error: expected 'A <: B'"]

    def test_ill_formed_query_is_an_error(self, ipf, capsys):
        # `a` is bound by no quantifier, so the query breaks the precondition
        path = ipf("a <: a\n", name="subs.txt")
        assert main(["sub", path]) == 2
        assert capsys.readouterr().out == "1: error: types must be well-formed\n"


class TestInternalError:
    def test_invariant_violation_exit_3(self, ipf, capsys, monkeypatch):
        def broken(*_, **__):
            raise InvariantViolation("planted")

        monkeypatch.setattr(cli, "check_program", broken)
        assert main(["check", ipf("run return 1")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "internal error: planted\n"


class TestCorpus:
    def test_corpus_runs_clean(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "14 accepted / 9 annotated-accepted / 9 rejected" in out


class TestDeterminism:
    def test_double_check_byte_identical(self, ipf, capsys):
        from polarf.cli import check_source_json
        src = ENVIRONMENT + "\nrun let t = app(poly, id); return t"
        first = check_source_json(src, "x.ipf", with_trace=True)
        second = check_source_json(src, "x.ipf", with_trace=True)
        assert first == second
