"""Command-line interface.

Subcommands:
  bound    evaluate every applicable bound for one or two matrices
  verify   run a randomized verification sweep plus the check of the
           truncation certificates; besides `trials.csv` and
           `summary.json` it writes the per-bound statistics as the
           plot-ready `compare.csv`

`verify` runs its trials and its check on one worker process per CPU
the process's affinity allows, and `bound` runs a pair's eigensolves
and SVDs that way from n = 96 on; `taskset -c 0` runs them in-process. The reports, exit codes and error
messages are the same either way, at one BLAS thread count.

Exit codes: 0 success, 1 a violation or failed check (verify),
or a bound below its oracle (bound, which names each such bound after
writing its report), 2 structural error (bad file or option value,
dimension mismatch, unknown or malformed name, a series truncation out
of floating-point range, a norm so close to the radius of convergence
that no truncation order up to 10^6 certifies the tolerance, a worker
process that died), 3 non-commuting pair given to bound (its report is
written first, with each bound that needs AB = BA unavailable).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

from . import harness
from .bounds import best_bound
from .errors import SpecboundError
from .matrices import load_matrix
from .harness import oracle_radii
from .series import DEFAULT_TOL, lookup


def _parse_list(text: str, convert=str) -> tuple:
    return tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())


def _is_complex(text: str) -> bool:
    try:
        complex(text)
    except ValueError:
        return False
    return True


def _parse_series(text: str) -> tuple[str, ...]:
    """The sweep's --series list. A token that is empty or a complex
    literal continues the "poly:" or "2F1:" name before it (no catalog
    name is a complex literal), so "poly:1,0.5,exp" is two series."""
    names: list[str] = []
    for tok in map(str.strip, text.split(",")):
        if (names and names[-1].startswith(("poly:", "2F1:"))
                and (not tok or _is_complex(tok))):
            names[-1] += "," + tok
        elif tok:
            names.append(tok)
    return tuple(names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="Spectral-radius bounds for power-series matrix functions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pb = sub.add_parser("bound", help="bound r[f(T)] or r[f(AB)] for given matrices")
    pb.add_argument("--series", required=True,
                    help="catalog name, 2F1:alpha,beta,gamma, or poly:c0,c1,... "
                         "for an explicit polynomial")
    pb.add_argument("--matrix", action="append", default=[], required=True,
                    help="matrix file (one for single mode, two for pair mode)")
    pb.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pb.add_argument("--format", choices=("table", "csv", "structured"),
                    default="table")
    pb.add_argument("--out", default=None, help="write the report here instead of stdout")

    sweep = harness.SweepConfig  # the sweep's defaults
    pv = sub.add_parser("verify")
    pv.add_argument("--series", default=",".join(sweep.series_names),
                    help="comma-separated catalog names, 2F1:alpha,beta,gamma "
                         "or poly:c0,c1,...")
    pv.add_argument("--tol", type=float, default=sweep.tol)
    pv.add_argument("--trials", type=int, default=sweep.trials,
                    help="instances per family")
    pv.add_argument("--dims", default=",".join(map(str, sweep.dims)))
    pv.add_argument("--families", default=",".join(sweep.families))
    pv.add_argument("--seed", type=int, default=sweep.seed)
    pv.add_argument("--out", required=True, help="output directory")
    return parser


# `main` only parses with it, so one parser serves every call.
_parser = functools.cache(build_parser)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _bound_report_text(results, oracles, minimum) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        if r.available:
            lines.append(f"{r.name:<{width}}  [{r.target}]  {r.value!r}")
        else:
            lines.append(f"{r.name:<{width}}  [{r.target}]  unavailable: {r.reason}")
    for target in sorted(oracles):
        value, err = oracles[target]
        lines.append(f"oracle r[{target}] = {value!r} (+/- {err!r})")
    if minimum is not None:
        lines.append(f"minimum [{minimum.target}] = {minimum.value!r} from {minimum.name}")
    else:
        lines.append("minimum: no applicable bound")
    return "\n".join(lines) + "\n"


def _bound_report_csv(results, oracles) -> str:
    """The rows of `results` with their oracles, in trials.csv's bound columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness._BOUND_COLUMNS)
    for r in results:
        oracle, oracle_err = oracles.get(r.target, (None, None))
        writer.writerow([r.name, r.target, "1" if r.available else "0",
                         *map(harness._fmt, (r.value, r.reason, oracle, oracle_err))])
    return buf.getvalue()


def _strict(x):
    """The report document `x` as strict JSON data, in one walk: each
    dataclass a dict of its fields and each non-finite float None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {key: _strict(y) for key, y in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(y) for y in x]
    if is_dataclass(x):
        return {f.name: _strict(getattr(x, f.name)) for f in fields(x)}
    return x


def cmd_bound(args) -> int:
    f = lookup(args.series)
    if not 1 <= len(args.matrix) <= 2:
        print("error: --matrix must appear once (single mode) or twice (pair mode)",
              file=sys.stderr)
        return 2
    matrices = [load_matrix(path) for path in args.matrix]
    # best_bound raises DimMismatch (exit 2) for a pair of unequal sizes.
    report = best_bound(f, *matrices, tol=args.tol)
    (oracles,) = oracle_radii(f, [report.invariants], tol=args.tol)
    if not isinstance(oracles, dict):
        raise oracles

    if args.format == "table":
        _emit(_bound_report_text(report.results, oracles, report.minimum), args.out)
    elif args.format == "csv":
        _emit(_bound_report_csv(report.results, oracles), args.out)
    else:
        doc = _strict({
            "series": args.series,
            "oracles": oracles,
            "results": report.results,
            "minimum": None if report.minimum is None else report.minimum.name,
        })
        _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", args.out)

    _, low = harness._judged(report.results, oracles)
    for r in low:
        value, err = oracles[r.target]
        print(f"error: {r.name} = {r.value!r} is below oracle r[{r.target}] = "
              f"{value!r} (+/- {err!r})", file=sys.stderr)
    inv = report.invariants
    if len(matrices) == 2 and not inv.commuting:
        print(
            f"error: pair does not commute: ||AB-BA|| = {inv['||AB-BA||']:.6e}",
            file=sys.stderr,
        )
        return 3
    return 1 if low else 0


def _sweep_config(args) -> harness.SweepConfig:
    if args.trials == 0:  # verify's check would still run and report a pass
        raise ValueError("--trials 0 sweeps nothing; give at least 1")
    return harness.SweepConfig(
        series_names=_parse_series(args.series),
        families=_parse_list(args.families),
        trials=args.trials,
        dims=_parse_list(args.dims, int),
        seed=args.seed,
        tol=args.tol,
    )


def cmd_verify(args) -> int:
    config = _sweep_config(args)  # before --out is made: a bad option makes nothing
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The check runs with the trials, on the same workers, which send back
    # report pieces, not records.
    *pieces, checks = harness.run_sweep(
        config,
        (harness.run_limit_checks, (args.seed, min(args.trials, 300), config.dims)),
        reduce=harness.report_piece,
    )
    harness.write_trials_csv("".join(rows for rows, _ in pieces),
                             out_dir / "trials.csv")
    sweep_summary = harness.summarize_tallies(tally for _, tally in pieces)
    all_checks_pass = all(c.passed for c in checks.values())
    passed = sweep_summary["violations"] == 0 and all_checks_pass
    summary = {
        "sweep": sweep_summary,
        "checks": {name: asdict(c) for name, c in checks.items()},
        "passed": passed,
    }
    harness.write_summary_json(summary, out_dir / "summary.json")
    with open(out_dir / "compare.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        stats = sweep_summary["bounds"]
        writer.writerow(["bound", *next(iter(stats.values()))])
        for name, stat in stats.items():
            writer.writerow([name, *map(harness._fmt, stat.values())])
    print(
        f"{sweep_summary['trials']} trials, "
        f"{sweep_summary['violations']} violations; "
        f"checks {'pass' if all_checks_pass else 'FAIL'}"
    )
    print(f"reports: {out_dir / 'trials.csv'}, {out_dir / 'summary.json'}, "
          f"{out_dir / 'compare.csv'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up now, so a wrapper bound in this module later is called
        return globals()[f"cmd_{args.subcommand}"](args)
    except (SpecboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
