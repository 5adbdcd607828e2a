"""Report rows, witnesses, and the three output renderings."""

import json

import pytest

from hforge.bivar import BiFrac, BiPoly
from hforge.report import Report, ReportRow, Witness, make_witness


def row(id="T", n=1, passed=True, expected_fail=False, witness=None, ns=5):
    return ReportRow(
        id=id, n=n, params={}, passed=passed,
        expected_fail=expected_fail, witness=witness, elapsed_ns=ns,
    )


class TestWitness:
    def test_probe_values_and_difference(self):
        lhs = BiFrac.from_rational(2)
        rhs = BiFrac(BiPoly.s(), BiPoly.one())
        w = make_witness(lhs, rhs)
        assert w.lhs_probe == "2"
        assert w.rhs_probe == "1"
        assert w.probe_point == "s=1, x=2"
        assert w.cross_diff == "-s + 2"

    def test_probe_reports_poles(self):
        lhs = BiFrac(BiPoly.one(), BiPoly.s() - 1)
        w = make_witness(lhs, BiFrac.from_rational(0))
        assert w.lhs_probe == "pole"

    def test_a_probe_error_that_is_not_a_pole_propagates(self, monkeypatch):
        def broken(self, s0, x0):
            raise ZeroDivisionError("substitution bug")

        monkeypatch.setattr(BiFrac, "eval", broken)
        with pytest.raises(ZeroDivisionError, match="substitution bug"):
            make_witness(BiFrac.from_rational(2), BiFrac.from_rational(1))

    def test_round_trip_dict(self):
        w = Witness(cross_diff="0", lhs_probe="1", rhs_probe="1")
        assert w.to_dict()["probe_point"] == "s=1, x=2"


class TestRowSemantics:
    def test_only_unexcused_failures_count(self):
        assert row(passed=True).ok
        assert not row(passed=False).ok
        assert row(passed=False, expected_fail=True).ok

    def test_counters(self):
        rep = Report()
        rep.add(row(passed=True))
        rep.add(row(passed=False))
        rep.add(row(passed=False, expected_fail=True))
        assert rep.summary() == {
            "total": 3, "passed": 1, "failed": 1, "expected_failed": 1
        }
        assert not rep.all_ok()

    def test_extend_concatenates(self):
        a, b = Report(), Report()
        a.add(row(n=1))
        b.add(row(n=2))
        a.extend(b)
        assert [r.n for r in a.rows] == [1, 2]


class TestRenderings:
    def make_report(self):
        rep = Report()
        rep.add(ReportRow(id="A", n=1, params={"m": 2}, passed=True, elapsed_ns=7))
        rep.add(
            ReportRow(
                id="B", n=2, params={}, passed=False,
                witness=Witness(cross_diff="-14", lhs_probe="2", rhs_probe="16"),
                elapsed_ns=9,
            )
        )
        return rep

    def test_text_lines(self):
        text = self.make_report().to_text()
        assert "A n=1 m=2: pass  [7 ns]" in text
        assert "B n=2: FAIL" in text
        assert "witness at s=1, x=2: lhs=2 rhs=16" in text
        assert "cross-multiplied difference: -14" in text
        assert "total 2  passed 1  failed 1  expected-failed 0" in text

    def test_text_without_timing(self):
        text = self.make_report().to_text(timing=False)
        assert "[7 ns]" not in text

    def test_csv_shape(self):
        lines = self.make_report().to_csv().strip().splitlines()
        assert lines[0] == "id,n,params,passed,expected_fail,elapsed_ns"
        assert lines[1].startswith("A,1,m=2,")
        plain = self.make_report().to_csv(timing=False).strip().splitlines()
        assert plain[0] == "id,n,params,passed,expected_fail"

    def test_json_envelope(self):
        payload = json.loads(
            self.make_report().to_json(
                tool_version="9.9.9",
                config={"b": 2, "a": 1},
                timing=False,
                anchors={"A": "left margin"},
            )
        )
        assert payload["tool_version"] == "9.9.9"
        assert list(payload["config"]) == ["a", "b"]
        rows = payload["rows"]
        assert rows[0]["anchor"] == "left margin"
        assert "anchor" not in rows[1]
        assert rows[1]["witness"]["rhs_probe"] == "16"
        assert all("elapsed_ns" not in r for r in rows)
