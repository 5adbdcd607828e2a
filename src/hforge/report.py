"""Deterministic verification reports with text/JSON/CSV rendering."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bivar import BiFrac, cross_difference
from .exact import PoleError

PROBE_S = Fraction(1)
PROBE_X = Fraction(2)


@dataclass(frozen=True)
class Witness:
    """Failure evidence: cross-multiplied difference plus a probe evaluation."""

    cross_diff: str
    lhs_probe: str
    rhs_probe: str
    probe_point: str = "s=1, x=2"

    def to_dict(self) -> dict:
        return {
            "cross_diff": self.cross_diff,
            "lhs_probe": self.lhs_probe,
            "rhs_probe": self.rhs_probe,
            "probe_point": self.probe_point,
        }


def make_witness(lhs: BiFrac, rhs: BiFrac) -> Witness:
    diff = cross_difference(lhs, rhs)
    return Witness(
        cross_diff=str(diff),
        lhs_probe=_probe(lhs),
        rhs_probe=_probe(rhs),
    )


def _probe(side: BiFrac) -> str:
    try:
        return str(side.eval(PROBE_S, PROBE_X))
    except PoleError:
        return "pole"


@dataclass(frozen=True)
class ReportRow:
    id: str
    n: int
    params: dict
    passed: bool
    expected_fail: bool = False
    witness: Optional[Witness] = None
    elapsed_ns: int = 0

    @property
    def ok(self) -> bool:
        """Whether this row should count against the exit code."""
        return self.passed or self.expected_fail

    def to_dict(self, *, timing: bool = True) -> dict:
        d = {
            "id": self.id,
            "n": self.n,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "passed": self.passed,
            "expected_fail": self.expected_fail,
        }
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        if timing:
            d["elapsed_ns"] = self.elapsed_ns
        return d


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)

    def extend(self, other: "Report") -> None:
        self.rows.extend(other.rows)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if not r.passed and not r.expected_fail)

    @property
    def expected_failed(self) -> int:
        return sum(1 for r in self.rows if not r.passed and r.expected_fail)

    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def summary(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "expected_failed": self.expected_failed,
        }

    # -- rendering ---------------------------------------------------------

    def to_json(
        self,
        *,
        tool_version: str,
        config: dict,
        timing: bool = True,
        anchors: Optional[dict] = None,
    ) -> str:
        rows = []
        for r in self.rows:
            d = r.to_dict(timing=timing)
            if anchors and r.id in anchors:
                d["anchor"] = anchors[r.id]
            rows.append(d)
        doc = {
            "tool_version": tool_version,
            "config": {k: config[k] for k in sorted(config)},
            "rows": rows,
            "summary": self.summary(),
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self, *, timing: bool = True) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        header = ["id", "n", "params", "passed", "expected_fail"]
        if timing:
            header.append("elapsed_ns")
        w.writerow(header)
        for r in self.rows:
            params = ";".join(f"{k}={r.params[k]}" for k in sorted(r.params))
            row = [r.id, r.n, params, r.passed, r.expected_fail]
            if timing:
                row.append(r.elapsed_ns)
            w.writerow(row)
        return buf.getvalue()

    def to_text(self, *, timing: bool = True) -> str:
        lines = []
        for r in self.rows:
            params = "".join(f" {k}={r.params[k]}" for k in sorted(r.params))
            if r.passed:
                status = "pass"
            elif r.expected_fail:
                status = "expected-fail"
            else:
                status = "FAIL"
            tail = f"  [{r.elapsed_ns} ns]" if timing else ""
            lines.append(f"{r.id} n={r.n}{params}: {status}{tail}")
            if r.witness is not None and not r.passed:
                w = r.witness
                lines.append(f"    witness at {w.probe_point}: "
                             f"lhs={w.lhs_probe} rhs={w.rhs_probe}")
                lines.append(f"    cross-multiplied difference: {w.cross_diff}")
        s = self.summary()
        lines.append(
            f"total {s['total']}  passed {s['passed']}  failed {s['failed']}  "
            f"expected-failed {s['expected_failed']}"
        )
        return "\n".join(lines) + "\n"
