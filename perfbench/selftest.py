"""Self-test of the benchmark: the output checker and the metric names.

    python3 perfbench/selftest.py

1. A structured `bound` report doctored to hold a NaN value, and one
   doctored to hold a value below its oracle, must each count as failed.
2. Each workload runs at a tiny size, untraced and traced, and must emit
   exactly the metrics BENCHMARK.json names, each with its unit.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    "verify-default": {"trials": 2, "seeds": 1},
    "bound-pair-large": {"n": 8, "pairs": 2},
    "bound-near-radius": {"n": 4, "count": 3},
}
SEED = 20260101


def expect(ok: bool, what: str, errors: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        errors.append(what)


def checker_cases(errors: list[str]) -> None:
    from checks import check_output

    out = run.run("bound-near-radius", SEED, 0.0, False, {},
                  TINY["bound-near-radius"])
    expect(out["result"]["correct"], "tiny bound-near-radius passes its checks", errors)
    report = run.RUNS / f"bound-near-radius-seed{SEED}-trace0" / "inputs" / "near-0.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    problems, _ = check_output("bound", 0, report)
    expect(not problems, "an untouched report has no problems", errors)
    available = next(r for r in doc["results"] if r["value"] is not None)
    oracle, err = doc["oracles"][available["target"]]

    for label, value in (("NaN", float("nan")),
                         ("below its oracle", oracle - err - 1e-6 * max(1.0, oracle))):
        available["value"] = value
        report.write_text(json.dumps(doc), encoding="utf-8")
        problems, _ = check_output("bound", 0, report)
        expect(bool(problems), f"a report with a value {label} counts as failed", errors)
    problems, _ = check_output("bound", 2, report)
    expect(any("exit code" in p for p in problems), "a non-zero exit counts as failed", errors)


def metric_names(errors: list[str]) -> None:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json lists the workloads run.py knows", errors)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in run.WORKLOAD_NAMES:
            result = run.run(name, SEED, 0.0, trace, {}, TINY[name])["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)} passes its checks", errors)
            expect(got == wanted,
                   f"{name} trace={int(trace)} emits every {key} metric with its unit",
                   errors)


def main() -> int:
    run.prepare_env()
    errors: list[str] = []
    checker_cases(errors)
    metric_names(errors)
    print(f"selftest: {len(errors)} failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
