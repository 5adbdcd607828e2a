"""Command line surface: exit codes, formats, golden outputs."""

import hashlib
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

    # sha256 of both listings; the domain column is derived from the
    # statements, so a change in how it is derived changes them
    GOLDEN_LIST_SHA256 = {
        "text": "7d329f286f6bfc1351f415293e4c72e50476e14a6e2ed1ab9cf0da6bc130c7d7",
        "json": "1e9b80bb2c44eb81f12433e490c880e7ca2fc857c7a8b765ada1e35573f28db2",
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_listing_is_byte_identical_to_the_golden_one(self, runner, fmt):
        r = invoke(runner, "list", "--format", fmt)
        assert r.exit_code == 0
        assert hashlib.sha256(r.stdout_bytes).hexdigest() == self.GOLDEN_LIST_SHA256[fmt]


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

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_a_bad_workers_environment_is_a_usage_error(self, runner, value):
        for args in (("verify", "--id", "ID-5", "--n-max", "2"),
                     ("bench", "--id", "ID-5", "--n-max", "2")):
            r = invoke(runner, *args, env={"HFORGE_WORKERS": value})
            assert r.exit_code == 2
            assert "HFORGE_WORKERS" in r.output and repr(value) in r.output
        # an explicit --workers does not read the variable
        r = invoke(runner, "verify", "--id", "ID-5", "--n-max", "2",
                   "--workers", "1", env={"HFORGE_WORKERS": value})
        assert r.exit_code == 0

    def test_an_empty_workers_environment_means_one(self, runner):
        r = invoke(
            runner, "verify", "--id", "ID-5", "--n-max", "2",
            "--format", "json", "--no-timing",
            env={"HFORGE_WORKERS": ""},
        )
        assert r.exit_code == 0
        assert json.loads(r.output)["config"]["workers"] == 1

    def test_unknown_id(self, runner):
        r = invoke(runner, "verify", "--id", "NOPE")
        assert r.exit_code == 2

    # sha256 of the full n <= 25 report; any change to a verdict, a row or
    # the report's layout changes it
    GOLDEN_N25_SHA256 = "d8b69d8b7c5bab09b9a87c9ca57636dcae5ae3d469f07fc495f667f44f380d04"

    def test_full_sweep_report_is_byte_identical_to_the_golden_one(self, runner):
        r = invoke(
            runner, "verify", "--all", "--n-max", "25", "--workers", "1",
            "--format", "json", "--no-timing",
        )
        assert r.exit_code == 0
        assert json.loads(r.stdout)["summary"] == {
            "total": 945, "passed": 920, "failed": 0, "expected_failed": 25
        }
        assert len(r.stdout_bytes) == 190_755
        assert hashlib.sha256(r.stdout_bytes).hexdigest() == self.GOLDEN_N25_SHA256

    # the same for the n <= 10 sweep with both oracles folded in, so a
    # change of any oracle verdict changes it too
    GOLDEN_ORACLE_N10_SHA256 = (
        "c27b312339435d2c5f9b7de47cb7804cb3a87271813cfb5852f1d016408c2e2c"
    )

    def test_oracle_report_is_byte_identical_to_the_golden_one(self, runner):
        r = invoke(
            runner, "verify", "--all", "--n-max", "10", "--oracle", "both",
            "--workers", "1", "--format", "json", "--no-timing",
        )
        assert r.exit_code == 0
        assert len(r.stdout_bytes) == 78_173
        assert (
            hashlib.sha256(r.stdout_bytes).hexdigest()
            == self.GOLDEN_ORACLE_N10_SHA256
        )

    # n <= 15, where the oracle's numbers are larger (about 2-3 s)
    GOLDEN_ORACLE_N15_SHA256 = (
        "82f73df34d24e4261c2ff0f191a92d9d2269016c8a6ef36a60f196e7336cca84"
    )

    def test_n15_oracle_report_is_byte_identical_to_the_golden_one(self, runner):
        r = invoke(
            runner, "verify", "--all", "--n-max", "15", "--oracle", "both",
            "--workers", "1", "--format", "json", "--no-timing",
        )
        assert r.exit_code == 0
        assert len(r.stdout_bytes) == 117_462
        assert (
            hashlib.sha256(r.stdout_bytes).hexdigest()
            == self.GOLDEN_ORACLE_N15_SHA256
        )


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

    def test_a_non_ascii_digit_is_a_diagnostic_not_a_number(self, runner, tmp_path):
        path = self.write(tmp_path, "X : H(n) == H(n-1) + 1/n + \u0661 - 1\n")
        r = invoke(runner, "dsl", path, "--n-max", "3")
        assert r.exit_code == 2
        assert f"{path}:1:28: error: unexpected character '\u0661'" in r.stderr
        assert "pass" not in r.output

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

    @pytest.mark.parametrize(
        "args, printed",
        [
            (["PSID(4,0)"], "(4*s^3 + 18*s^2 + 22*s + 6)/(s^4 + 6*s^3 + 11*s^2 + 6*s)"),
            (
                ["PSI1D(3,0)"],
                "(-3*s^4 - 12*s^3 - 18*s^2 - 12*s - 4)"
                "/(s^6 + 6*s^5 + 13*s^4 + 12*s^3 + 4*s^2)",
            ),
            (["CS(n,2)", "--n", "3"], "1/2*s^2 + 5/2*s + 3"),
            (["(s+1)/(2*s+2)"], "1/2"),
            (["1/(3*s+6)"], "(1/3)/(s + 2)"),
            (["x*PSID(2,0)"], "(2*x*s + x) / (s^2 + s)"),
        ],
    )
    def test_values_print_in_lowest_terms(self, runner, args, printed):
        r = invoke(runner, "eval", *args)
        assert r.exit_code == 0
        assert r.output == printed + "\n"

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

    def test_non_ascii_digit_is_a_usage_failure(self, runner):
        r = invoke(runner, "eval", "\u00b2")
        assert r.exit_code == 2
        assert r.stderr == "<expr>:0: error: unexpected character '\u00b2'\n"

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
        assert lines[0] == "id,n,workers,nanos"
        # two cells and one sweep record per worker count
        assert len(lines) == 7
        assert {l.split(",")[2] for l in lines[1:]} == {"1", "2"}

    def test_the_memo_option_is_gone(self, runner):
        r = invoke(runner, "bench", "--id", "ID-5", "--n-max", "2", "--memo", "on")
        assert r.exit_code == 2
        assert "--memo" in r.output + r.stderr

    def test_parameter_labels(self, runner):
        r = invoke(
            runner, "bench", "--id", "ID-13", "--n-max", "1", "--format", "csv"
        )
        body = r.output.strip().splitlines()[1:]
        assert {l.split(",")[0] for l in body} == {
            "ID-13[m=2]", "ID-13[m=3]", "ID-13[m=4]", "ID-13[m=5]", "sweep"
        }

    def test_bivariate_cap_applies(self, runner):
        r = invoke(
            runner, "bench", "--id", "THM-2.4", "--n-min", "16", "--n-max", "16",
            "--format", "csv",
        )
        assert r.exit_code == 0
        header, sweep = r.output.splitlines()
        assert header == "id,n,workers,nanos"
        assert sweep.startswith("sweep,16,")

    @pytest.mark.parametrize("n_range, message", [
        (("--n-min", "0"), "--n-min must be >= 1"),
        (("--n-min", "3", "--n-max", "2"), "--n-min must not exceed --n-max"),
    ])
    def test_the_n_range_is_checked_as_verify_checks_it(self, runner, n_range, message):
        for command in ("verify", "bench"):
            r = invoke(runner, command, "--id", "ID-5", *n_range)
            assert r.exit_code == 2, command
            assert message in r.output, command

    @pytest.mark.parametrize("args, message", [
        (("verify", "--id", "ID-13", "--m", "2,x"), "bad --m list '2,x'"),
        (("bench", "--id", "ID-5", "--workers", "1,x"), "bad --workers list '1,x'"),
        (("bench", "--id", "ID-5", "--workers", ","),
         "--workers must list at least one value"),
    ])
    def test_a_bad_comma_list_is_named(self, runner, args, message):
        r = invoke(runner, *args)
        assert r.exit_code == 2
        assert message in r.output

    def test_each_sweep_starts_with_cold_tables(self, runner, monkeypatch):
        from hforge import cli
        from hforge.special import memo_info
        from test_special import cold_memos

        seen = []
        real = cli.verify_all

        def recording(*args, **kwargs):
            before = memo_info()
            report = real(*args, **kwargs)
            seen.append((before, memo_info()))
            return report

        monkeypatch.setattr(cli, "verify_all", recording)
        r = invoke(
            runner, "bench", "--id", "THM-2.11", "--n-max", "3",
            "--workers", "1,1,1", "--format", "csv",
        )
        assert r.exit_code == 0
        assert len(seen) == 3
        # every registered memo, whichever the sweep fills
        for before, after in seen:
            assert before == cold_memos()
            assert after == seen[0][1]
        for name in ("special.binom_factor", "special.psi_factor", "dsl.products"):
            assert seen[0][1][name].misses > 0

    def test_no_sweep_compiles_a_tree(self, runner, monkeypatch):
        from hforge import cli
        from hforge.catalog import lookup
        from hforge.dsl import compiled as compiled_mod

        for tag in ("ID-5", "INTRO-2"):
            entry = lookup(tag)
            for side in (entry.lhs, entry.rhs, *entry.rhs_variants.values()):
                monkeypatch.setattr(side, "_ast", None)  # parse and compile afresh
        compiles = {"outside": 0, "inside": 0}
        where = ["outside"]
        real_compile, real_verify_all = compiled_mod._compile, cli.verify_all

        def counting(node):
            compiles[where[0]] += 1
            return real_compile(node)

        def sweeping(*args, **kwargs):
            where[0] = "inside"
            try:
                return real_verify_all(*args, **kwargs)
            finally:
                where[0] = "outside"

        monkeypatch.setattr(compiled_mod, "_compile", counting)
        monkeypatch.setattr(cli, "verify_all", sweeping)
        r = invoke(
            runner, "bench", "--id", "ID-5", "--id", "INTRO-2", "--n-max", "3",
            "--workers", "1,1,1", "--format", "csv",
        )
        assert r.exit_code == 0
        assert compiles["outside"] > 0 and compiles["inside"] == 0

    def test_each_sweep_ends_with_its_wall_clock_time(self, runner):
        r = invoke(
            runner, "bench", "--id", "ID-5", "--id", "THM-2.6", "--n-max", "3",
            "--workers", "1,2", "--format", "csv",
        )
        assert r.exit_code == 0
        rows = [l.split(",") for l in r.output.strip().splitlines()[1:]]
        sweeps = [i for i, row in enumerate(rows) if row[0] == "sweep"]
        # one record per worker count, after that count's six cells
        assert sweeps == [6, 13]
        start = 0
        for end in sweeps:
            cells, sweep = rows[start:end], rows[end]
            assert sweep[1] == "3"
            assert {c[2] for c in cells} == {sweep[2]}
            wall = int(sweep[3])
            assert wall >= max(int(c[3]) for c in cells)
            if sweep[2] == "1":
                assert wall >= sum(int(c[3]) for c in cells)
            start = end + 1

    def test_the_sweep_record_times_the_whole_call(self, runner, monkeypatch):
        import time as _time

        from hforge import cli

        real = cli.verify_all

        def slow(*args, **kwargs):
            _time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_all", slow)
        r = invoke(runner, "bench", "--id", "ID-5", "--n-max", "1", "--format", "csv")
        assert r.exit_code == 0
        sweep = r.output.strip().splitlines()[-1].split(",")
        assert sweep[0] == "sweep" and int(sweep[3]) >= 50_000_000

    def test_text_format_has_a_header(self, runner):
        r = invoke(runner, "bench", "--id", "ID-5", "--n-max", "1")
        assert r.exit_code == 0
        head = r.output.splitlines()[0].split()
        assert head == ["id", "n", "workers", "nanos"]


class TestTopLevel:
    def test_version(self, runner):
        r = invoke(runner, "--version")
        assert r.exit_code == 0

    def test_unknown_option(self, runner):
        r = invoke(runner, "verify", "--frobnicate")
        assert r.exit_code == 2
