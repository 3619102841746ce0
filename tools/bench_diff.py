#!/usr/bin/env python3
"""Compare two google-benchmark JSON files benchmark-by-benchmark.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]

Prints a table of real_time per benchmark name with the candidate/baseline
ratio. Benchmarks present in only one file are listed separately. With
--threshold, exits non-zero if any shared benchmark's real_time regressed
by more than PCT percent — the contract the CI bench-smoke job and local
before/after runs (EXPERIMENTS.md) both use.

--require-speedup SLOW,FAST,RATIO[,MIN_MS] (repeatable) additionally
asserts a relationship *within* the candidate file: benchmark SLOW's
real_time must be at least RATIO times benchmark FAST's. The bench-smoke
job uses this to pin the bit-parallel kernel's advantage over the scalar
one and the parallel scheduler's 4-thread speedup over 1 thread on the
skewed campaign, so a regression in either fails the build even though
the job has no cross-run baseline. The optional MIN_MS field is a noise floor: when
either benchmark's real_time is below it the ratio is too jittery to
gate on, so the check downgrades to a warning instead of failing.

A missing baseline file is not an error: first runs on a fresh checkout
have nothing to compare against, so the cross-run diff is skipped with a
warning (exit 0). --require-speedup checks still run — they only need
the candidate.
"""

import argparse
import json
import os
import sys


# google-benchmark time_unit values, as milliseconds per unit.
_MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def to_ms(value, unit):
    return value * _MS_PER_UNIT.get(unit, 1e-6)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions);
        # raw iterations carry run_type == "iteration".
        if b.get("run_type", "iteration") != "iteration":
            continue
        out[b["name"]] = (float(b["real_time"]), b.get("time_unit", "ns"))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if any benchmark regresses by more than PCT percent",
    )
    ap.add_argument(
        "--require-speedup",
        action="append",
        default=[],
        metavar="SLOW,FAST,RATIO[,MIN_MS]",
        help="fail unless candidate real_time(SLOW) >= RATIO * "
             "real_time(FAST); with MIN_MS, warn instead when either "
             "side ran under MIN_MS milliseconds",
    )
    args = ap.parse_args()

    if not os.path.exists(args.candidate):
        # The candidate is this run's own output — its absence means the
        # bench run itself failed, which is a real error.
        print(f"bench_diff: candidate '{args.candidate}' not found",
              file=sys.stderr)
        return 2
    cand = load(args.candidate)
    regressions = []
    if not os.path.exists(args.baseline):
        # First run on a fresh checkout / CI cache miss: nothing to diff
        # against. Warn rather than fail so the job that *produces* the
        # first baseline doesn't need a special case.
        print(f"bench_diff: warning: baseline '{args.baseline}' not found; "
              f"skipping cross-run comparison", file=sys.stderr)
    else:
        base = load(args.baseline)
        shared = sorted(set(base) & set(cand))
        if not shared:
            print("bench_diff: no common benchmarks between the two files",
                  file=sys.stderr)
            return 2

        width = max(len(n) for n in shared)
        print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  "
              f"{'ratio':>7}")
        for name in shared:
            (t0, unit), (t1, _) = base[name], cand[name]
            ratio = t1 / t0 if t0 > 0 else float("inf")
            print(f"{name:<{width}}  {t0:>10.0f} {unit}  {t1:>10.0f} {unit}  "
                  f"{ratio:>6.2f}x")
            if (args.threshold is not None
                    and ratio > 1.0 + args.threshold / 100.0):
                regressions.append((name, ratio))

        for name in sorted(set(base) - set(cand)):
            print(f"only in baseline:  {name}")
        for name in sorted(set(cand) - set(base)):
            print(f"only in candidate: {name}")

    unmet = []
    for spec in args.require_speedup:
        try:
            fields = spec.split(",")
            if len(fields) == 3:
                (slow, fast, ratio_s), min_ms = fields, None
            else:
                slow, fast, ratio_s, min_ms_s = fields
                min_ms = float(min_ms_s)
            want = float(ratio_s)
        except ValueError:
            print(f"bench_diff: bad --require-speedup spec {spec!r} "
                  f"(expected SLOW,FAST,RATIO[,MIN_MS])", file=sys.stderr)
            return 2
        missing = [n for n in (slow, fast) if n not in cand]
        if missing:
            print(f"bench_diff: --require-speedup names not in candidate: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 2
        got = cand[slow][0] / cand[fast][0] if cand[fast][0] > 0 else 0.0
        if min_ms is not None:
            floor_ms = min(to_ms(*cand[slow]), to_ms(*cand[fast]))
            if floor_ms < min_ms:
                print(f"speedup SKIP: {slow} / {fast} = {got:.2f}x — "
                      f"fastest side ran {floor_ms:.3f} ms < {min_ms:g} ms "
                      f"noise floor, not gating")
                continue
        status = "OK" if got >= want else "FAIL"
        print(f"speedup {status}: {slow} / {fast} = {got:.2f}x "
              f"(required {want:.2f}x)")
        if got < want:
            unmet.append(spec)

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.1f}%:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    if unmet:
        print(f"\n{len(unmet)} speedup requirement(s) unmet", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
