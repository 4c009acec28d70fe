"""Output checks applied to every benchmark operation.

A `bound` operation fails on a non-zero exit, on an available bound or an
oracle that is not finite, or on an available bound below its target's
oracle minus (oracle_error + 1e-8 * max(1, oracle)), the slack the
verification harness itself allows. A `verify` operation fails unless it
exits 0 with `summary.json` reporting `passed: true`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SLACK_REL = 1e-8


def bound_report_problems(doc: dict) -> list[str]:
    """Problems found in one structured `bound` report (empty if sound)."""
    problems = []
    oracles = doc["oracles"]
    for target, (oracle, err) in sorted(oracles.items()):
        if not (math.isfinite(oracle) and math.isfinite(err)):
            problems.append(f"oracle r[{target}] = {oracle!r} +/- {err!r} is not finite")
    for r in doc["results"]:
        value = r["value"]
        if value is None:
            continue
        if not math.isfinite(value):
            problems.append(f"{r['name']}: value {value!r} is not finite")
        elif r["target"] in oracles:
            oracle, err = oracles[r["target"]]
            floor = oracle - (err + SLACK_REL * max(1.0, oracle))
            if value < floor:
                problems.append(
                    f"{r['name']}: value {value!r} below oracle r[{r['target']}]"
                    f" = {oracle!r} beyond its slack"
                )
    return problems


def report_files(kind: str, out: Path) -> list[Path]:
    """The files one operation writes: its report, or verify's two reports."""
    return [out] if kind == "bound" else [out / "trials.csv", out / "summary.json"]


def check_output(kind: str, rc: int, out: Path) -> tuple[list[str], str]:
    """(problems, report digest) for one finished operation."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    files = report_files(kind, out)
    missing = [str(p) for p in files if not p.is_file()]
    if missing:
        return problems + [f"missing report {', '.join(missing)}"], ""
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.read_bytes())
    if kind == "bound":
        problems += bound_report_problems(json.loads(out.read_text(encoding="utf-8")))
    elif json.loads(files[1].read_text(encoding="utf-8")).get("passed") is not True:
        problems.append("summary.json does not report passed: true")
    return problems, digest.hexdigest()
