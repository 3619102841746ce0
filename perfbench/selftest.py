#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about a minute on 4 cores).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  1. one short run of each workload is correct and emits every end-to-end
     metric of BENCHMARK.json with its unit (explore_serve also proves the
     server answered shutdown_ok, drained and exited 0: run.py counts a
     failure otherwise);
  2. the traced run emits every per-layer metric with its unit and writes
     a Chrome trace that opens as plain JSON;
  3. a perturbed committed reference is reported as a failure, for a
     batch workload and for the server;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import scenarios  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run(workload, trace=0, seconds=2, refs=None, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds",
           str(seconds), "--trace", str(trace)]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines and
                          lines[-1].startswith("{") else None), p


def expect(cond, message, detail=""):
    if not cond:
        sys.exit(f"selftest: FAIL {message}\n{detail}")
    print(f"selftest: ok   {message}")


def check_metrics(result, wanted, label):
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    expect(not missing, f"{label}: every metric emitted (missing {missing})")
    wrong = [m["name"] for m in wanted
             if got[m["name"]]["unit"] != m["unit"]]
    expect(not wrong, f"{label}: every unit as in BENCHMARK.json")


def main():
    for w in SPEC["workloads"]:
        code, result, p = run(w["name"])
        expect(code == 0 and result is not None,
               f"{w['name']}: exit 0 with a result", p.stderr[-3000:])
        expect(result["correct"] and result["failed"] == 0,
               f"{w['name']}: correct, fail_ratio 0", p.stderr[-3000:])
        check_metrics(result, SPEC["end_to_end"], w["name"])

    code, result, p = run("explore_serve", trace=1)
    expect(code == 0 and result is not None and result["correct"],
           "traced run correct", p.stderr[-3000:])
    check_metrics(result, SPEC["per_layer"], "traced run")
    trace = next(line.split("trace written to ", 1)[1]
                 for line in p.stdout.splitlines()
                 if "trace written to " in line)
    events = json.loads(Path(trace).read_text())["traceEvents"]
    expect(events and all(e["ph"] == "X" for e in events),
           "Chrome trace opens as plain JSON")

    refs = json.loads((HERE / "refs" / f"seed-{SEED}.json").read_text())
    with tempfile.TemporaryDirectory(dir=ROOT) as bad:
        # Keys every run uses: the first operation of round 0, and the
        # most popular request template.
        first_op = " ".join(bench.batch_ops(
            scenarios.make_bench_workload("activity_extract", SEED))[0][1])
        hot = scenarios.make_bench_workload("explore_serve",
                                            SEED).templates[0].key
        for workload, key, field in (
                ("activity_extract", first_op, "transitions"),
                ("explore_serve", hot, "digest")):
            doc = json.loads(json.dumps(refs))
            value = doc[workload][key][field]
            doc[workload][key][field] = (value + 1 if isinstance(value, int)
                                         else "0" * len(value))
            Path(bad, f"seed-{SEED}.json").write_text(json.dumps(doc))
            code, result, p = run(workload, seconds=1, refs=bad)
            expect(code == 0 and result is not None
                   and not result["correct"] and result["failed"] >= 1,
                   f"{workload}: perturbed reference ({field} of '{key}') "
                   "reported as a failure")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(Path(bare) / "build"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "activity_extract", "--seed", "1", "--seconds",
                            "1", "--trace", "0"], cwd=bare, env=env,
                           capture_output=True, text=True, timeout=180)
        expect(p.returncode != 0 and "{" not in p.stdout,
               "without the repository sources: nonzero exit, no result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
