"""The four workloads.

Each workload has a ``setup`` (timed as set-up), a ``run`` (the timed
verification work) and a ``check`` that turns the outputs into a count
of operations attempted and a list of failed ones.  ``call`` puts a span
around a call into the program when the round is traced.

The program's own inputs are fixed: the catalog, the corpus file and the
n ranges below.  The seed draws the rational points at which the checks
evaluate returned sides, and the n at which each corpus line is compared
with its catalog entry.  It never changes the work a round times, so the
figures of different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import time
from pathlib import Path

import checks

N_MAX = 10  # the CLI's default --n-max, for ``verify`` and ``dsl`` alike
BIVARIATE_CAP = 15  # the default cap of verify_all and of the CLI
WORKERS = 2
CORPUS_PATH = Path("corpus/paper.ids")


class SideProbe:
    """Keeps the value of each pair of compared sides at a seeded point.

    In a timed round each pair is evaluated as it is produced and dropped,
    so the sides do not stay alive and raise peak memory; the probe's own
    wall and CPU time are subtracted from the measurement.  In a traced
    round the pairs are kept and evaluated after the sweep, so that no
    probe time lands inside a span.
    """

    def __init__(self, seed: int, deferred: bool):
        self.seed = seed
        self.deferred = deferred
        self.pending = []
        self.values = []  # (key, point, lhs value, rhs value)
        self.spent_ns = []  # probe time per pair, inside the cell's own timer
        self.sample = None  # one pair of sides over s or x, for the self-test
        self.line = None  # corpus line being checked
        self.wall = 0.0
        self.cpu = 0.0

    def record(self, key, lhs, rhs):
        if self.deferred:
            self.pending.append((key, lhs, rhs))
            return
        w0, c0 = time.perf_counter_ns(), time.process_time()
        self._evaluate(key, lhs, rhs)
        spent = time.perf_counter_ns() - w0
        self.spent_ns.append(spent)
        self.wall += spent / 1e9
        self.cpu += time.process_time() - c0

    def _evaluate(self, key, lhs, rhs):
        point, (lv, rv) = checks.seeded_values(self.seed, key, [lhs, rhs])
        self.values.append((key, point, lv, rv))
        if self.sample is None and lhs.num.terms and max(
            max(k) for k in lhs.num.terms
        ) > 0:
            self.sample = (key, point, lhs, rhs)

    def finish(self):
        for item in self.pending:
            self._evaluate(*item)
        self.pending = []


class Workload:
    name = ""
    workers = 1

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.probe = SideProbe(seed, deferred=tracer is not None)

    def call(self, span_name, fn, /, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(span_name, fn, *args, **kwargs)

    def setup(self):
        self.C = importlib.import_module("hforge.catalog")
        self.entries = self.C.catalog()
        self.tags = {e.tag for e in self.entries}

    def install_probe(self):
        pass

    def run(self):
        raise NotImplementedError

    def check(self, out) -> tuple[int, list[str], dict, int]:
        """(operations attempted, reasons, self-test sample, operations failed)."""
        raise NotImplementedError

    def verdicts(self, out) -> list:
        raise NotImplementedError

    def elapsed_ns(self, out) -> list[int]:
        """Cell times from the report rows, where the workload has them."""
        return []

    def points(self, out) -> int:
        return 0

    # Shared by the two catalog sweeps.
    def check_sweep(self, rows, n_max):
        """Reasons and indexes of bad rows (-1 for a wrong row set)."""
        sample = {}
        reasons = []
        failed = set()
        keys = []
        for i, row in enumerate(rows):
            tag, n, params = row["id"], row["n"], row["params"]
            variant = params.get("variant")
            keys.append(checks.row_key(tag, n, params))
            reason = checks.check_verdict(
                tag, variant, row["passed"], row["expected_fail"]
            ) or checks.check_witness(tag, n, variant, row.get("witness"))
            if reason:
                reasons.append(reason)
                failed.add(i)
            sample.setdefault("row", (tag, variant, row["passed"], row["expected_fail"]))
            if not checks.expected_pass(tag, variant):
                sample.setdefault("witness", (n, row.get("witness")))
        expected = checks.expected_rows(self.entries, n_max, BIVARIATE_CAP)
        reason = checks.check_rows(keys, expected)
        if reason:
            reasons.append(reason)
            failed.add(-1)
        sample["rows"] = (keys, expected)
        return reasons, failed, sample


def _sweep_verdicts(rows) -> list:
    return sorted(
        (r["id"], r["n"], sorted(r["params"].items()), r["passed"], r["expected_fail"])
        for r in rows
    )


class CatalogSerial(Workload):
    """``verify_all`` over the whole catalog, one worker."""

    name = "catalog-serial"

    def install_probe(self):
        compare = self.C.bifrac_eq
        probe = self.probe
        counter = itertools.count()

        def probing_eq(lhs, rhs):
            result = compare(lhs, rhs)
            probe.record(next(counter), lhs, rhs)
            return result

        self.C.bifrac_eq = probing_eq

    def run(self):
        return self.call("catalog.verify_all", self.C.verify_all, N_MAX)

    def check(self, report):
        self.probe.finish()
        rows = [r.to_dict() for r in report.rows]
        reasons, failed, sample = self.check_sweep(rows, N_MAX)
        if len(self.probe.values) != len(rows):
            reasons.append(f"{len(self.probe.values)} compared pairs for {len(rows)} rows")
            failed.add(-1)
        for i, (row, (_, point, lv, rv)) in enumerate(zip(rows, self.probe.values)):
            tag, n, variant = row["id"], row["n"], row["params"].get("variant")
            reason = checks.check_values(tag, variant, point, lv, rv) or checks.check_abstract(
                tag, n, lv, rv
            )
            if reason:
                reasons.append(reason)
                failed.add(i)
            if self.probe.sample and self.probe.sample[0] == i:
                sample["sides"] = (tag, *self.probe.sample[1:])
        return len(rows), reasons, sample, min(len(failed), len(rows))

    def verdicts(self, report):
        return _sweep_verdicts(r.to_dict() for r in report.rows)

    def elapsed_ns(self, report):
        spent = self.probe.spent_ns or [0] * len(report.rows)
        return [r.elapsed_ns - p for r, p in zip(report.rows, spent)]


class CliParallel(Workload):
    """``hforge verify --all --workers 2 --format json`` through the entry point."""

    name = "cli-parallel"
    workers = WORKERS

    def setup(self):
        super().setup()
        self.cli = importlib.import_module("hforge.cli")

    def run(self):
        argv = ["verify", "--all", "--workers", str(WORKERS), "--format", "json"]
        buf = io.StringIO()
        code = None
        with contextlib.redirect_stdout(buf):
            try:
                self.call("cli.main", self.cli.main, argv, prog_name="hforge", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, out):
        code, text = out
        doc = json.loads(text)
        rows = doc["rows"]
        reasons, failed, sample = self.check_sweep(rows, N_MAX)
        anchors = {e.tag: e.anchor for e in self.entries}
        for i, row in enumerate(rows):
            if row.get("anchor") != anchors.get(row["id"]):
                reasons.append(f"{row['id']}: anchor {row.get('anchor')!r}")
                failed.add(i)
        summary = doc["summary"]
        want = {
            "total": len(rows),
            "passed": sum(r["passed"] for r in rows),
            "failed": sum(not r["passed"] and not r["expected_fail"] for r in rows),
            "expected_failed": sum(not r["passed"] and r["expected_fail"] for r in rows),
        }
        if summary != want or code != 0:
            reasons.append(f"summary {summary}, exit code {code}")
            failed.add(-1)
        return len(rows), reasons, sample, min(len(failed), len(rows))

    def verdicts(self, out):
        return _sweep_verdicts(json.loads(out[1])["rows"])

    def elapsed_ns(self, out):
        return [r["elapsed_ns"] for r in json.loads(out[1])["rows"]]


class Corpus(Workload):
    """The DSL path: parse, check and evaluate every line of corpus/paper.ids."""

    def setup(self):
        super().setup()
        self.dsl = importlib.import_module("hforge.dsl")
        self.evaluator = importlib.import_module("hforge.dsl.evaluator")
        entries, self.issues = self.call("dsl.parse", self.dsl.load_corpus, CORPUS_PATH)
        self.lines = []
        self.unchecked = []
        for ce in entries:
            result = self.call("dsl.check", self.dsl.check, ce.identity)
            if isinstance(result, list):
                self.unchecked.append(ce.name)
            else:
                self.lines.append(ce)

    def install_probe(self):
        evaluate = self.evaluator.eval
        probe = self.probe
        held = {}

        def probing_eval(ast, n, *args, **kwargs):
            value = evaluate(ast, n, *args, **kwargs)
            if "lhs" in held:
                probe.record((probe.line, n), held.pop("lhs"), value)
            else:
                held["lhs"] = value
            return value

        self.evaluator.eval = probing_eval

    def run(self):
        rows = []
        for ce in self.lines:
            self.probe.line = ce.name
            report = self.call(
                "dsl.check_identity",
                self.dsl.check_identity,
                ce.identity.lhs,
                ce.identity.rhs,
                range(1, N_MAX + 1),
                name=ce.name,
            )
            rows.extend(report.rows)
        return rows

    def check(self, rows):
        self.probe.finish()
        names = [ce.name for ce in self.lines] + self.unchecked
        reasons = []
        sample = {"corpus": (names, self.tags)}
        load = checks.check_corpus_load(names, self.issues, self.unchecked, self.tags)
        if load:
            reasons.append(load)
        failed = set()
        expected = {(name, n) for name in names for n in range(1, N_MAX + 1)}
        if sorted((r.id, r.n) for r in rows) != sorted(expected):
            reasons.append(f"{len(rows)} rows for {len(expected)} (line, n) pairs")
            failed.add(("rows", 0))
        for r in rows:
            if not r.passed:
                reasons.append(f"{r.id} n={r.n}: fails")
                failed.add((r.id, r.n))
        by_key = {key: (point, lv, rv) for key, point, lv, rv in self.probe.values}
        if len(by_key) != len(rows):
            reasons.append(f"{len(by_key)} evaluated pairs for {len(rows)} rows")
            failed.add(("pairs", 0))
        for (name, n), (point, lv, rv) in by_key.items():
            tag = name.split("[", 1)[0]
            reason = checks.check_values(tag, None, point, lv, rv) or checks.check_abstract(
                tag, n, lv, rv
            )
            if reason:
                reasons.append(f"{name}: {reason}")
                failed.add((name, n))
        if self.probe.sample:
            key, point, lhs, rhs = self.probe.sample
            sample["sides"] = (key[0].split("[", 1)[0], point, lhs, rhs)
        # Each line's left side against the catalog entry it restates.
        for ce in self.lines:
            tag, _, rest = ce.name.partition("[")
            params = {}
            if rest:
                k, v = rest.rstrip("]").split("=")
                params[k] = int(v)
            entry = self.C.lookup(tag)
            rng = random.Random(f"{self.seed}|{ce.name}")
            n = rng.randint(entry.n_min, max(entry.n_min, 4))
            point, lv, _ = by_key.get((ce.name, n), (None, None, None))
            cat = self.C.eval_side(entry, "lhs", n, params)
            cat_val = checks.side_value(cat, *point) if point else None
            reason = checks.check_same(f"{ce.name} n={n} left side vs catalog", lv, cat_val)
            if reason:
                reasons.append(reason)
                failed.add((ce.name, n))
            sample.setdefault("same", (f"{ce.name} n={n}", cat_val))
        return len(rows), reasons, sample, min(len(failed), len(rows))

    def verdicts(self, rows):
        return sorted((r.id, r.n, r.passed) for r in rows)


class Oracle(Workload):
    """Grid sampling for every catalog cell plus integer-s checks, as
    ``verify --oracle both`` runs them."""

    def setup(self):
        super().setup()
        self.O = importlib.import_module("hforge.oracle")
        self.cells = []
        for e in self.entries:
            top = min(N_MAX, BIVARIATE_CAP) if e.domain == "Q(s,x)" else N_MAX
            for cell in self.C.plan_cells(e, range(e.n_min, top + 1)):
                self.cells.append((e, *cell))

    def run(self):
        out = []
        for entry, tag, n, params, variant, _ in self.cells:
            cert = self.call(
                "oracle.sampling", self.O.sampling_verify, entry, n, params, variant=variant
            )
            ints = []
            if "s" in entry.domain:
                ints = [
                    self.call(
                        "oracle.integer_s",
                        self.O.integer_s_check,
                        entry,
                        n,
                        s0,
                        params,
                        variant=variant,
                    )
                    for s0 in checks.INTEGER_S_POINTS
                ]
            out.append((entry, n, params, variant, cert, ints))
        return out

    def check(self, out):
        reasons = []
        failed = 0
        sample = {}
        for entry, n, params, variant, cert, ints in out:
            tag = entry.tag
            bound = self.O.degree_bound(entry, n)
            reason = (
                checks.check_same(f"{tag} n={n} certificate bound", cert.degree_bound, bound)
                or checks.check_certificate(
                    tag, variant, list(cert.sample_points), cert.degree_bound, cert.all_equal
                )
                or (checks.check_integer_s(tag, variant, ints) if "s" in entry.domain else None)
            )
            if reason:
                reasons.append(reason)
                failed += 1
            if checks.expected_pass(tag, variant):
                sample.setdefault(
                    "certificate",
                    (tag, list(cert.sample_points), cert.degree_bound, cert.all_equal),
                )
                if ints:
                    sample.setdefault("integer_s", (tag, ints))
        if len(out) != len(self.cells):
            reasons.append(f"{len(out)} cells checked of {len(self.cells)}")
            failed = max(failed, 1)
        return len(self.cells), reasons, sample, failed

    def verdicts(self, out):
        return sorted(
            (e.tag, n, sorted(p.items()), str(v), c.all_equal, tuple(i))
            for e, n, p, v, c, i in out
        )

    def points(self, out):
        return sum(c.point_count for _, _, _, _, c, _ in out)


class CorpusOracle(Workload):
    """The two verification paths beside the catalog builders, one after the
    other: the DSL corpus, then the numeric oracles.

    They share a workload because the oracle alone varied too much from run
    to run on the reference machine to be held to a bound (see README.md).
    """

    name = "corpus-oracle"

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        self.parts = (Corpus(seed, tracer), Oracle(seed, tracer))
        self.probe = self.parts[0].probe

    def setup(self):
        for part in self.parts:
            part.setup()

    def install_probe(self):
        self.parts[0].install_probe()

    def run(self):
        return [part.run() for part in self.parts]

    def check(self, out):
        results = [part.check(o) for part, o in zip(self.parts, out)]
        return (
            sum(r[0] for r in results),
            [reason for r in results for reason in r[1]],
            {k: v for r in results for k, v in r[2].items()},
            sum(r[3] for r in results),
        )

    def verdicts(self, out):
        return [part.verdicts(o) for part, o in zip(self.parts, out)]

    def points(self, out):
        return self.parts[1].points(out[1])


WORKLOADS = {w.name: w for w in (CatalogSerial, CorpusOracle, CliParallel)}
