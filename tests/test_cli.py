"""Command line surface: exit codes, formats, golden outputs."""

import json

import pytest
from click.testing import CliRunner

from hforge.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), **kw)


class TestList:
    def test_lists_every_identity(self, runner):
        r = invoke(runner, "list")
        assert r.exit_code == 0
        lines = [l for l in r.output.splitlines() if l.strip()]
        assert len(lines) == 34

    def test_single_id_with_anchor(self, runner):
        r = invoke(runner, "list", "--id", "ID-5")
        assert r.exit_code == 0
        assert "ID-5" in r.output
        assert "Eq. (43)" in r.output

    def test_json_payload(self, runner):
        r = invoke(runner, "list", "--format", "json")
        data = json.loads(r.output)
        assert len(data) == 34
        assert sorted(data[0]) == ["anchor", "domain", "id", "n_min", "params"]
        by_id = {d["id"]: d for d in data}
        (spec,) = by_id["ID-13"]["params"]
        assert spec["name"] == "m" and spec["default_grid"] == [2, 3, 4, 5]
        assert by_id["THM-2.1"]["domain"] == "Q(s,x)"

    def test_unknown_id(self, runner):
        r = invoke(runner, "list", "--id", "ID-99")
        assert r.exit_code == 2


class TestVerify:
    def test_requires_a_selection(self, runner):
        r = invoke(runner, "verify")
        assert r.exit_code == 2
        assert "--all" in r.output

    def test_single_entry_passes(self, runner):
        r = invoke(runner, "verify", "--id", "ID-5", "--n-max", "5")
        assert r.exit_code == 0
        assert r.output.count(": pass") == 5
        assert "total 5  passed 5  failed 0" in r.output

    def test_misprinted_variant_fails_loudly(self, runner):
        r = invoke(
            runner, "verify", "--id", "INTRO-2", "--variant", "printed", "--n-max", "3"
        )
        assert r.exit_code == 1
        assert "witness at s=1, x=2: lhs=2 rhs=16" in r.output
        assert "cross-multiplied difference: -14" in r.output

    def test_default_sweep_documents_the_misprint(self, runner):
        r = invoke(runner, "verify", "--id", "INTRO-2", "--n-max", "2")
        assert r.exit_code == 0
        assert r.output.count("expected-fail") >= 2

    def test_variant_flag_is_scoped(self, runner):
        r = invoke(runner, "verify", "--id", "ID-5", "--variant", "printed")
        assert r.exit_code == 2

    def test_parameter_grid(self, runner):
        r = invoke(
            runner, "verify", "--id", "ID-13", "--m", "2,5", "--n-max", "3"
        )
        assert r.exit_code == 0
        assert "m=2" in r.output and "m=5" in r.output
        assert "m=3" not in r.output

    def test_oracle_cross_check(self, runner):
        r = invoke(
            runner, "verify", "--id", "COR-2.3", "--n-max", "3", "--oracle", "both"
        )
        assert r.exit_code == 0

    def test_json_output_is_deterministic_without_timing(self, runner):
        args = ("verify", "--id", "ID-5", "--n-max", "3", "--format", "json", "--no-timing")
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert payload["summary"] == {
            "total": 3, "passed": 3, "failed": 0, "expected_failed": 0
        }
        assert all("elapsed_ns" not in row for row in payload["rows"])
        assert all(row["anchor"] for row in payload["rows"])

    def test_csv_output(self, runner):
        r = invoke(
            runner, "verify", "--id", "ID-5", "--n-max", "2", "--format", "csv",
            "--no-timing",
        )
        lines = r.output.strip().splitlines()
        assert lines[0] == "id,n,params,passed,expected_fail"
        assert len(lines) == 3

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        r = invoke(
            runner, "verify", "--id", "ID-5", "--n-max", "2",
            "--format", "json", "--output", str(target),
        )
        assert r.exit_code == 0
        assert json.loads(target.read_text())["summary"]["total"] == 2

    def test_workers_from_environment(self, runner):
        r = invoke(
            runner, "verify", "--id", "ID-5", "--n-max", "2",
            "--format", "json", "--no-timing",
            env={"HFORGE_WORKERS": "2"},
        )
        assert json.loads(r.output)["config"]["workers"] == 2

    def test_unknown_id(self, runner):
        r = invoke(runner, "verify", "--id", "NOPE")
        assert r.exit_code == 2


class TestDslCommand:
    def write(self, tmp_path, text):
        p = tmp_path / "probe.ids"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_good_corpus(self, runner, tmp_path):
        path = self.write(tmp_path, "EULER : sum(k=1..n, 1/k) == H(n)\n")
        r = invoke(runner, "dsl", path, "--n-max", "6")
        assert r.exit_code == 0
        assert "EULER n=6: pass" in r.output

    def test_malformed_corpus_reports_spans(self, runner, tmp_path):
        path = self.write(tmp_path, "BAD : H(n == n\n")
        r = invoke(runner, "dsl", path)
        assert r.exit_code == 2
        assert ":1:11: error:" in r.stderr

    def test_false_identity_fails(self, runner, tmp_path):
        path = self.write(tmp_path, "WRONG : H(n) == n\n")
        r = invoke(runner, "dsl", path, "--n-max", "3")
        assert r.exit_code == 1
        assert "WRONG n=2: FAIL" in r.output

    def test_evaluation_error_is_a_usage_failure(self, runner, tmp_path):
        path = self.write(tmp_path, "POLE : 1/(n-1) == n\n")
        r = invoke(runner, "dsl", path, "--n-max", "2")
        assert r.exit_code == 2

    def test_shipped_corpus_small_slice(self, runner):
        r = invoke(runner, "dsl", "corpus/paper.ids", "--n-max", "2")
        assert r.exit_code == 0
        assert "failed 0" in r.output


class TestEvalCommand:
    def test_rational_constant(self, runner):
        r = invoke(runner, "eval", "H(n)", "--n", "6")
        assert r.exit_code == 0
        assert r.output.strip() == "49/20"

    def test_rational_function_rendering(self, runner):
        r = invoke(runner, "eval", "CS(2,1)")
        assert r.output.strip() == "s + 2"

    def test_substitution(self, runner):
        r = invoke(runner, "eval", "PSID(3,1)", "--s", "0")
        assert r.output.strip() == "3/2"
        r2 = invoke(runner, "eval", "x/(1+x)", "--x", "1/3")
        assert r2.output.strip() == "1/4"

    def test_pole_is_a_runtime_failure(self, runner):
        r = invoke(runner, "eval", "PSID(3,1)", "--s", "-1")
        assert r.exit_code == 1
        assert "pole" in r.output + r.stderr

    def test_domain_error_is_a_usage_failure(self, runner):
        r = invoke(runner, "eval", "H(x)")
        assert r.exit_code == 2
        assert "integer-valued" in r.output + r.stderr

    def test_malformed_fraction(self, runner):
        r = invoke(runner, "eval", "H(n)", "--s", "abc")
        assert r.exit_code == 2


class TestBenchCommand:
    def test_csv_grid(self, runner):
        r = invoke(
            runner, "bench", "--id", "ID-5", "--n-max", "2",
            "--workers", "1,2", "--format", "csv",
        )
        lines = r.output.strip().splitlines()
        assert lines[0] == "id,n,workers,memo,nanos"
        assert len(lines) == 5
        assert {l.split(",")[2] for l in lines[1:]} == {"1", "2"}

    def test_memo_comparison_doubles_rows(self, runner):
        r = invoke(
            runner, "bench", "--id", "ID-5", "--n-max", "2",
            "--memo", "both", "--format", "csv",
        )
        lines = r.output.strip().splitlines()[1:]
        assert len(lines) == 4
        assert {l.split(",")[3] for l in lines} == {"on", "off"}

    def test_parameter_labels(self, runner):
        r = invoke(
            runner, "bench", "--id", "ID-13", "--n-max", "1", "--format", "csv"
        )
        body = r.output.strip().splitlines()[1:]
        assert {l.split(",")[0] for l in body} == {
            "ID-13[m=2]", "ID-13[m=3]", "ID-13[m=4]", "ID-13[m=5]"
        }

    def test_bivariate_cap_applies(self, runner):
        r = invoke(
            runner, "bench", "--id", "THM-2.4", "--n-min", "16", "--n-max", "16",
            "--format", "csv",
        )
        assert r.exit_code == 0
        assert r.output.splitlines() == ["id,n,workers,memo,nanos"]

    def test_text_format_has_a_header(self, runner):
        r = invoke(runner, "bench", "--id", "ID-5", "--n-max", "1")
        assert r.exit_code == 0
        head = r.output.splitlines()[0].split()
        assert head == ["id", "n", "workers", "memo", "nanos"]


class TestTopLevel:
    def test_version(self, runner):
        r = invoke(runner, "--version")
        assert r.exit_code == 0

    def test_unknown_option(self, runner):
        r = invoke(runner, "verify", "--frobnicate")
        assert r.exit_code == 2
