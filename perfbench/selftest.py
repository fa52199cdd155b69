#!/usr/bin/env python3
"""Self-tests of the benchmark, on the shrunken (--short) workloads.

    python3 perfbench/selftest.py [workload ...]

For each workload it checks that
  * an untraced run prints every end-to-end metric with its unit, and its
    result line carries exactly the end_to_end metrics of BENCHMARK.json;
  * a traced run prints every per-layer metric with its unit, and its result
    line carries exactly the per_layer metrics of BENCHMARK.json;
  * both pass the output check (exit code 0, "correct": true);
  * two runs with the same seed give identical counts and digests;
  * another seed gives different inputs.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every metric the benchmark defines, by the unit it is printed with.
END_TO_END = {
    "docs_per_s": "docs/s", "round_p50_ms": "ms", "round_tail_ms": "ms",
    "subscribe_p50_us": "us", "subscribe_tail_us": "us",
    "unsubscribe_p50_us": "us", "checkpoint_p50_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}
PER_LAYER = {
    "warehouse.ingest_us_per_doc": "us", "xml.parse_us_per_doc": "us",
    "xml.parse_mb_per_s": "MB/s", "xmldiff.diff_us_per_doc": "us",
    "xmldiff.changes_per_doc": "count", "alerters.detect_us_per_doc": "us",
    "alerters.alert_frac": "ratio", "mqp.match_us_per_alert": "us",
    "mqp.matches_per_alert": "count", "system.resolve_us_per_doc": "us",
    "system.actions_per_doc": "count",
    "system.gather_deliver_us_per_doc": "us", "system.shard_skew": "ratio",
    "reporter.tick_ms_p50": "ms", "reporter.tick_ms_max": "ms",
    "reporter.notifications_per_doc": "count",
    "outbox.mails_per_round": "count", "sublang.parse_us_per_sub": "us",
    "storage.state_mb": "MB",
    "pipeline.stage_us_per_doc.ingest": "us",
    "pipeline.stage_us_per_doc.detect": "us",
    "pipeline.stage_us_per_doc.match": "us",
    "pipeline.stage_us_per_doc.notify": "us",
}


class Failure(Exception):
    pass


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--short"], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"{workload} seed {seed} trace {trace}: exit "
                      f"{proc.returncode}\n{proc.stdout}\n{proc.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def printed(lines, kind):
    """{name: unit} of the `metric`/`layer` lines."""
    out = {}
    for line in lines:
        m = re.match(rf"{kind} (\S+)\s+(\S+)\s+(\S+)", line)
        if m:
            out[m.group(1)] = m.group(3)
    return out


def check_line(lines):
    (line,) = [l for l in lines if l.startswith("check ")]
    return line


def expect(cond, what):
    if not cond:
        raise Failure(what)


def check_result(result, declared, workload):
    expect(result["correct"] is True, f"{workload}: output check failed")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{workload}: attempted/failed {result}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == declared, f"{workload}: result metrics {got} != {declared}")


def test_workload(workload, bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    lines, result = run(workload, 7, 0)
    expect(printed(lines, "metric") == END_TO_END,
           f"{workload}: printed end-to-end metrics {printed(lines, 'metric')}")
    check_result(result, e2e, workload)
    expect(any(l.startswith("provenance {") for l in lines),
           f"{workload}: no provenance line")

    again, _ = run(workload, 7, 0)
    expect(check_line(again) == check_line(lines),
           f"{workload}: same seed, different outputs:\n{check_line(lines)}\n"
           f"{check_line(again)}")

    traced, traced_result = run(workload, 7, 1)
    expect(printed(traced, "layer") == PER_LAYER,
           f"{workload}: printed per-layer metrics {printed(traced, 'layer')}")
    check_result(traced_result, layers, workload)
    expect(check_line(traced) == check_line(lines),
           f"{workload}: tracing changed the outputs")
    expect(any(l.startswith("trace accounting:") for l in traced),
           f"{workload}: no trace accounting line")

    other, _ = run(workload, 8, 0)
    inputs = re.search(r"inputs=(\w+)", check_line(lines)).group(1)
    expect(f"inputs={inputs}" not in check_line(other),
           f"{workload}: seeds 7 and 8 generated the same inputs")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    try:
        for workload in workloads:
            test_workload(workload, bench)
            print(f"ok {workload}", flush=True)
    except Failure as err:
        print(f"FAIL {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
