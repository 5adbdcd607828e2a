"""Batch command-line interface.

Subcommands: ``list`` the catalog, ``verify`` entries symbolically (with
optional independent oracle cross-checks), ``dsl`` to check a corpus
file of user-stated identities, ``eval`` for one-off expression
evaluation, and ``bench`` for kernel timing sweeps.  Reports emit as
text, JSON (stable schema), or CSV; exit codes are 0 on success, 1 on
identity failure, 2 on usage or parse errors.
"""

from __future__ import annotations

# The pool stack that ``import hforge`` leaves out: ``verify`` and
# ``bench`` take ``--workers``, and a forked worker inherits it either
# way, so the CLI loads it at start-up rather than inside a timed sweep.
import concurrent.futures.process  # noqa: F401
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Tuple

import click

from . import __version__, dsl
# ``verify`` stays importable here for perfbench/spans.py, which looks it up.
from .catalog import (  # noqa: F401
    ORACLE_MODES,
    IdentityEntry,
    catalog,
    verify,
    verify_all,
)
from .dsl.compiled import compiled
from .exact import PoleError
from .report import Report
from .special import clear_memos

_FORMATS = click.Choice(["text", "json", "csv"])
_ORACLES = click.Choice(ORACLE_MODES)
# the right-hand-side variants that entries state, and those entries
_VARIANTS = click.Choice(list(dict.fromkeys(v for e in catalog() for v in e.rhs_variants)))
_VARIANT_TAGS = ", ".join(e.tag for e in catalog() if e.rhs_variants)


def _default_workers() -> int:
    """Worker count from ``HFORGE_WORKERS``: 1 when unset or empty, else a
    positive integer."""
    text = os.environ.get("HFORGE_WORKERS", "").strip()
    if not text:
        return 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise click.UsageError(
            f"HFORGE_WORKERS must be a positive integer, not {text!r}"
        )
    return workers


def _int_list(option: str, text: str) -> Tuple[int, ...]:
    """The integers of the comma list ``text`` given to ``option``."""
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise click.UsageError(f"bad {option} list {text!r}")
    if not values:
        raise click.UsageError(f"{option} must list at least one value")
    return values


@dataclass
class RunConfig:
    """Resolved options for one command invocation."""

    command: str
    n_min: int = 1
    n_max: int = 10
    ids: Optional[Tuple[str, ...]] = None
    m_grid: Optional[Tuple[int, ...]] = None
    fmt: str = "text"
    output: Optional[str] = None
    workers: int = 1
    oracle: str = "off"
    variant: Optional[str] = None
    timing: bool = True
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_min < 1:
            raise click.UsageError("--n-min must be >= 1")
        if self.n_min > self.n_max:
            raise click.UsageError("--n-min must not exceed --n-max")
        if self.workers < 1:
            raise click.UsageError("--workers must be >= 1")

    def to_dict(self) -> dict:
        d = {
            "command": self.command,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "ids": list(self.ids) if self.ids is not None else "all",
            "format": self.fmt,
            "workers": self.workers,
            "oracle": self.oracle,
            "timing": self.timing,
        }
        if self.m_grid is not None:
            d["m"] = list(self.m_grid)
        if self.variant is not None:
            d["variant"] = self.variant
        d.update(self.extra)
        return d


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _resolve_entries(ids: Sequence[str]) -> list[IdentityEntry]:
    known = {e.tag for e in catalog()}
    for tag in ids:
        if tag not in known:
            raise click.UsageError(f"unknown identity id {tag!r} (see 'hforge list')")
    wanted = set(ids)
    return [e for e in catalog() if e.tag in wanted]


def _param_text(entry: IdentityEntry) -> str:
    parts = []
    for spec in entry.extra_params:
        if spec.allowed is not None:
            parts.append(f"{spec.name} in {{{','.join(map(str, spec.allowed))}}}")
        else:
            grid = ",".join(map(str, spec.default_grid))
            parts.append(f"{spec.name}>={spec.minimum} (default {grid})")
    return "; ".join(parts) if parts else "-"


def _emit_report(report: Report, config: RunConfig) -> None:
    if config.fmt == "json":
        anchors = {e.tag: e.anchor for e in catalog()}
        text = report.to_json(
            tool_version=__version__,
            config=config.to_dict(),
            timing=config.timing,
            anchors=anchors,
        )
    elif config.fmt == "csv":
        text = report.to_csv(timing=config.timing)
    else:
        text = report.to_text(timing=config.timing)
    _emit(text, config.output)


@click.group()
@click.version_option(version=__version__, prog_name="hforge")
def main():
    """Exact verification of finite harmonic-number and binomial-sum
    identities, symbolic in s and x."""


@main.command("list")
@click.option("--id", "ids", multiple=True, help="Restrict to these identity ids.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def list_cmd(ids, fmt):
    """One line per catalog entry: id, anchor, domain, minimum n, parameters."""
    entries = _resolve_entries(ids) if ids else list(catalog())
    if fmt == "json":
        import json as _json

        doc = [
            {
                "id": e.tag,
                "anchor": e.anchor,
                "domain": e.domain,
                "n_min": e.n_min,
                "params": [
                    {
                        "name": s.name,
                        "minimum": s.minimum,
                        "allowed": list(s.allowed) if s.allowed else None,
                        "default_grid": list(s.default_grid),
                    }
                    for s in e.extra_params
                ],
            }
            for e in entries
        ]
        click.echo(_json.dumps(doc, indent=2))
        return
    for e in entries:
        click.echo(
            f"{e.tag:<9} {e.domain:<7} n>={e.n_min:<2} "
            f"{_param_text(e):<28} {e.anchor}"
        )


@main.command("verify")
@click.option("--all", "run_all", is_flag=True, help="Verify every catalog entry.")
@click.option("--id", "ids", multiple=True, help="Verify only these identity ids.")
@click.option("--n-min", type=int, default=1, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--m", "m_text", default=None, help="Comma list of m values for the m-parameterized families.")
@click.option("--variant", type=_VARIANTS, default=None,
              help=f"Right-hand-side variant; only valid with --id {_VARIANT_TAGS}.")
@click.option("--oracle", type=_ORACLES, default="off", show_default=True,
              help="Also run the independent numeric paths and require agreement.")
@click.option("--bivariate-cap", type=int, default=15, show_default=True,
              help="Cap n for entries symbolic in both s and x; the default "
                   "fixes the rows of the standard sweep, not a cost limit.")
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--workers", type=int, default=_default_workers,
              help="Parallel worker processes [default: HFORGE_WORKERS or 1].")
@click.option("--no-timing", is_flag=True, help="Omit elapsed times from the report.")
def verify_cmd(run_all, ids, n_min, n_max, m_text, variant, oracle,
               bivariate_cap, fmt, output, workers, no_timing):
    """Verify catalog identities symbolically over a range of n."""
    if not run_all and not ids:
        raise click.UsageError("pass --all or at least one --id")
    m_grid = None if m_text is None else _int_list("--m", m_text)
    config = RunConfig(
        command="verify", n_min=n_min, n_max=n_max,
        ids=tuple(ids) if ids else None, m_grid=m_grid, fmt=fmt,
        output=output, workers=workers, oracle=oracle, variant=variant,
        timing=not no_timing, extra={"bivariate_cap": bivariate_cap},
    )
    tags = [e.tag for e in _resolve_entries(ids)] if ids else None
    try:
        report = verify_all(
            n_max,
            n_min=n_min,
            tags=tags,
            bivariate_cap=bivariate_cap,
            variant=variant,
            workers=workers,
            m_grid=m_grid,
            oracle=oracle,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit_report(report, config)
    raise SystemExit(0 if report.all_ok() else 1)


@main.command("dsl")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-min", type=int, default=1, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="text", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timing", is_flag=True, help="Omit elapsed times from the report.")
def dsl_cmd(path, n_min, n_max, fmt, output, no_timing):
    """Parse, check, and verify every identity in a corpus file."""
    config = RunConfig(
        command="dsl", n_min=n_min, n_max=n_max, fmt=fmt, output=output,
        timing=not no_timing, extra={"path": path},
    )
    entries, issues = dsl.load_corpus(path)
    diag_lines = []

    def _diag(line_no: int, d: dsl.Diagnostic) -> None:
        col = d.span[0] + 1
        diag_lines.append(f"{path}:{line_no}:{col}: {d.severity}: {d.message}")
        if d.hint:
            diag_lines.append(f"    hint: {d.hint}")

    for issue in issues:
        _diag(issue.line_no, issue.diagnostic)
    checked = []
    for ce in entries:
        result = dsl.check(ce.identity)
        if isinstance(result, list):
            for d in result:
                _diag(ce.line_no, d)
        else:
            checked.append(ce)
    if diag_lines:
        click.echo("\n".join(diag_lines), err=True)
        raise SystemExit(2)
    report = Report()
    for ce in checked:
        try:
            part = dsl.check_identity(
                ce.identity.lhs,
                ce.identity.rhs,
                range(n_min, n_max + 1),
                name=ce.name,
            )
        except dsl.EvalError as exc:
            _diag(ce.line_no, dsl.Diagnostic("error", exc.message, exc.span))
            click.echo("\n".join(diag_lines), err=True)
            raise SystemExit(2)
        report.extend(part)
    _emit_report(report, config)
    raise SystemExit(0 if report.all_ok() else 1)


def _render_value(value) -> str:
    if value.is_constant():
        return str(value.as_constant())
    if value.deg_x > 0:
        return str(value)
    num, den = value.lowest_terms()
    return str(num) if den == 1 else f"({num})/({den})"


@main.command("eval")
@click.argument("expr")
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--s", "s_text", default=None, help="Rational value to substitute for s.")
@click.option("--x", "x_text", default=None, help="Rational value to substitute for x.")
def eval_cmd(expr, n, s_text, x_text):
    """Evaluate one expression exactly; s and x stay symbolic unless bound."""
    ast = dsl.parse_expr(expr)
    if isinstance(ast, list):
        for d in ast:
            click.echo(f"<expr>:{d.span[0]}: {d.severity}: {d.message}", err=True)
        raise SystemExit(2)
    checked = dsl.check(ast)
    if isinstance(checked, list):
        for d in checked:
            click.echo(f"<expr>:{d.span[0]}: {d.severity}: {d.message}", err=True)
        raise SystemExit(2)
    try:
        value = dsl.eval(checked, n)
    except dsl.EvalError as exc:
        click.echo(f"<expr>:{exc.span[0]}: error: {exc.message}", err=True)
        raise SystemExit(1)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        if x_text is not None:
            value = value.subst_x(Fraction(x_text))
        if s_text is not None:
            value = value.subst_s(Fraction(s_text))
    except PoleError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad substitution value: {exc}")
    click.echo(_render_value(value))


@main.command("bench")
@click.option("--id", "ids", multiple=True, help="Benchmark only these identity ids.")
@click.option("--n-min", type=int, default=1, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--workers", "workers_text", default=None,
              help="Comma list of worker counts [default: HFORGE_WORKERS or 1].")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text",
              show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def bench_cmd(ids, n_min, n_max, workers_text, fmt, output):
    """Time each cell of a catalog sweep (capped like ``verify --all``) per
    worker count; CSV header id,n,workers,nanos.

    Every sweep starts cold: the memos are emptied (``clear_memos``)
    before it, and the sides are compiled once before the first.  A
    cell's nanos are measured inside the cell.  After the
    cells of each worker count comes one record with id ``sweep`` and
    n = n-max whose nanos are the wall-clock time of the whole sweep, pool
    start-up included, so the worker counts can be compared by it."""
    if workers_text is None:
        worker_counts = (_default_workers(),)
    else:
        worker_counts = _int_list("--workers", workers_text)
    # validates the n range and the smallest worker count as verify does
    RunConfig(command="bench", n_min=n_min, n_max=n_max, workers=min(worker_counts))
    entries = _resolve_entries(ids) if ids else catalog()
    tags = [e.tag for e in entries] if ids else None
    for side in (s for e in entries for s in (e.lhs, e.rhs, *e.rhs_variants.values())):
        compiled(side.ast)
    records = []
    for w in worker_counts:
        clear_memos()
        start = time.perf_counter_ns()
        part = verify_all(n_max, n_min=n_min, tags=tags, workers=w)
        wall = time.perf_counter_ns() - start
        for row in part.rows:
            label = row.id
            extras = [f"{k}={row.params[k]}" for k in sorted(row.params)]
            if extras:
                label += "[" + ",".join(extras) + "]"
            records.append((label, row.n, w, row.elapsed_ns))
        records.append(("sweep", n_max, w, wall))
    if fmt == "csv":
        lines = ["id,n,workers,nanos"]
        lines += [f"{r[0]},{r[1]},{r[2]},{r[3]}" for r in records]
    else:
        lines = [f"{'id':<20} {'n':>4} {'workers':>7} {'nanos':>14}"]
        lines += [f"{r[0]:<20} {r[1]:>4} {r[2]:>7} {r[3]:>14}" for r in records]
    _emit("\n".join(lines) + "\n", output)


if __name__ == "__main__":
    main()
