#!/usr/bin/env python3
"""perf_guard.py — fail the perf-smoke lane on a real throughput regression.

Compares a freshly generated engine kernel-sweep report (the JSON that
bench_micro_engine writes as BENCH_engine.json) against the committed
baseline at the repository root. A lane regresses when its incremental
events/s falls more than the tolerance below the baseline's — 20% by
default, chosen well above the ~10% run-to-run noise of the sweep so the
guard only trips on genuine regressions, not scheduler jitter.

It also checks that the candidate's cost per event stays flat as the trace
grows: within each policy of the scaling lane ("lane": "scaling"), the
largest trace may cost at most 1.2x the smallest per event. Both numbers
come from the same report, so host speed cancels out of the ratio.

Usage:
  perf_guard.py --baseline BENCH_engine.json --candidate new.json
  perf_guard.py --selftest

Wall-clock numbers depend on the host as much as on the code. Reports carry
a "host" block (CPU model, nproc, compiler, build type); each failure the
guard reports names the hosts of the reports it compared, so a comparison
across hosts is visible as one. The host never changes a verdict.

Exit status: 0 when every lane holds (or improves) and the scaling lane is
flat, 1 on any regression, superlinear scaling or malformed report. Lanes
present in only one report are reported but do not fail the guard (the
benchmark may grow lanes; the baseline catches up when it is next
regenerated).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.20
SCALING_LIMIT = 1.20


def lanes(report: dict) -> dict[str, float]:
    """Map policy name -> incremental events/s, skipping malformed entries."""
    out: dict[str, float] = {}
    for entry in report.get("policies", []):
        name = entry.get("policy")
        inc = entry.get("incremental", {})
        rate = inc.get("eventsPerSec")
        if isinstance(name, str) and isinstance(rate, (int, float)) and rate > 0:
            out[name] = float(rate)
    return out


def host_label(report: dict) -> str:
    """One-line description of the host a report was measured on."""
    host = report.get("host")
    if not isinstance(host, dict):
        return "unrecorded"
    return (f"{host.get('cpuModel', '?')}, {host.get('nproc', '?')} cpus, "
            f"{host.get('compiler', '?')}, {host.get('buildType', '?')}")


def hosts_note(baseline: dict, candidate: dict) -> str:
    """The hosts printed beside a lane flagged against the baseline."""
    base, cand = host_label(baseline), host_label(candidate)
    same = "same host" if base == cand else "DIFFERENT hosts"
    return f"baseline host: {base}; candidate host: {cand} ({same})"


def compare(baseline: dict, candidate: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass)."""
    base = lanes(baseline)
    cand = lanes(candidate)
    if not base:
        return ["baseline report has no usable lanes"]
    if not cand:
        return ["candidate report has no usable lanes"]
    failures = []
    for name, rate in sorted(base.items()):
        if name not in cand:
            print(f"note: lane '{name}' missing from candidate (not failing)")
            continue
        floor = rate * (1.0 - tolerance)
        got = cand[name]
        verdict = "ok" if got >= floor else "REGRESSION"
        print(f"{name}: baseline {rate:,.0f} ev/s, candidate {got:,.0f} ev/s, "
              f"floor {floor:,.0f} ({verdict})")
        if got < floor:
            failures.append(
                f"lane '{name}' regressed: {got:,.0f} ev/s < floor "
                f"{floor:,.0f} ev/s ({(1 - got / rate) * 100:.1f}% below "
                f"baseline {rate:,.0f}; {hosts_note(baseline, candidate)})")
    for name in sorted(set(cand) - set(base)):
        print(f"note: new lane '{name}' has no baseline (not checked)")
    return failures + scaling_failures(candidate)


def scaling_failures(report: dict) -> list[str]:
    """Flatness check within one report: for each policy of the scaling
    lane, ns/event at the largest trace over ns/event at the smallest must
    not exceed SCALING_LIMIT. Policies measured at fewer than two sizes are
    skipped; a report without a scaling lane passes (older baselines)."""
    sizes: dict[str, list[tuple[int, float]]] = {}
    for entry in report.get("policies", []):
        if entry.get("lane") != "scaling":
            continue
        policy = entry.get("scalingPolicy")
        jobs = entry.get("jobs")
        ns = entry.get("nsPerEvent")
        if isinstance(policy, str) and isinstance(jobs, int) and \
                isinstance(ns, (int, float)) and ns > 0:
            sizes.setdefault(policy, []).append((jobs, float(ns)))
    failures = []
    for policy, points in sorted(sizes.items()):
        if len(points) < 2:
            continue
        points.sort()
        (small_jobs, small_ns), (big_jobs, big_ns) = points[0], points[-1]
        ratio = big_ns / small_ns
        verdict = "ok" if ratio <= SCALING_LIMIT else "SUPERLINEAR"
        print(f"scaling {policy}: {small_ns:,.0f} ns/event at {small_jobs:,} "
              f"jobs, {big_ns:,.0f} at {big_jobs:,} ({ratio:.2f}x, limit "
              f"{SCALING_LIMIT:.2f}x, {verdict})")
        if ratio > SCALING_LIMIT:
            failures.append(
                f"scaling lane '{policy}' is superlinear: {big_ns:,.0f} "
                f"ns/event at {big_jobs:,} jobs is {ratio:.2f}x the "
                f"{small_ns:,.0f} at {small_jobs:,} "
                f"(limit {SCALING_LIMIT:.2f}x; host: {host_label(report)})")
    return failures


def selftest() -> int:
    """Exercise the comparator on synthetic reports; used as a ctest."""
    def report(rates: dict[str, float]) -> dict:
        return {"policies": [
            {"policy": n, "incremental": {"eventsPerSec": r}}
            for n, r in rates.items()]}

    base = report({"fcfs": 1_000_000.0, "ss": 200_000.0})
    cases = [
        # (candidate, expect_failures, label)
        (report({"fcfs": 1_000_000.0, "ss": 200_000.0}), 0, "identical"),
        (report({"fcfs": 900_000.0, "ss": 161_000.0}), 0, "within tolerance"),
        (report({"fcfs": 1_500_000.0, "ss": 400_000.0}), 0, "improved"),
        (report({"fcfs": 799_999.0, "ss": 200_000.0}), 1, "fcfs regressed"),
        (report({"fcfs": 500_000.0, "ss": 100_000.0}), 2, "both regressed"),
        (report({"fcfs": 1_000_000.0}), 0, "lane missing (warn only)"),
        ({"policies": []}, 1, "empty candidate"),
    ]
    ok = True
    for candidate, expected, label in cases:
        got = len(compare(base, candidate))
        status = "pass" if got == expected else "FAIL"
        if got != expected:
            ok = False
        print(f"selftest [{label}]: expected {expected} failure(s), "
              f"got {got} — {status}")
    # Empty baseline is always a failure.
    if len(compare({"policies": []}, base)) != 1:
        print("selftest [empty baseline]: FAIL")
        ok = False

    def scaling(curves: dict[str, list[tuple[int, float]]]) -> dict:
        return {"policies": [
            {"policy": f"{p}@{jobs // 1000}k", "lane": "scaling",
             "scalingPolicy": p, "jobs": jobs, "nsPerEvent": ns,
             "incremental": {"eventsPerSec": 1e9 / ns}}
            for p, points in curves.items() for jobs, ns in points]}

    scaling_cases = [
        # (report, expect_failures, label)
        (scaling({"easy": [(50_000, 500.0), (200_000, 520.0),
                           (800_000, 540.0)]}), 0, "flat"),
        (scaling({"easy": [(800_000, 595.0), (50_000, 500.0)]}), 0,
         "1.19x, unsorted sizes"),
        (scaling({"easy": [(50_000, 500.0), (800_000, 650.0)],
                  "fcfs": [(50_000, 300.0), (800_000, 310.0)]}), 1,
         "easy superlinear"),
        (scaling({"easy": [(50_000, 500.0), (200_000, 900.0),
                           (800_000, 2_000.0)],
                  "fcfs": [(50_000, 300.0), (800_000, 1_200.0)]}), 2,
         "both superlinear"),
        (scaling({"easy": [(800_000, 900.0)]}), 0, "one size (skipped)"),
        (base, 0, "no scaling lane"),
    ]
    for candidate, expected, label in scaling_cases:
        got = len(scaling_failures(candidate))
        status = "pass" if got == expected else "FAIL"
        if got != expected:
            ok = False
        print(f"selftest [scaling: {label}]: expected {expected} "
              f"failure(s), got {got} — {status}")
    # A flagged lane names both hosts; the host never changes a verdict.
    def with_host(rep: dict, cpu: str) -> dict:
        return dict(rep, host={"cpuModel": cpu, "nproc": 4,
                               "compiler": "GNU 12.2.0",
                               "buildType": "Release"})

    host_cases = [
        # (baseline, candidate, expected substrings of the one failure)
        (with_host(base, "Xeon A"),
         with_host(report({"fcfs": 700_000.0, "ss": 200_000.0}), "EPYC B"),
         ["baseline host: Xeon A, 4 cpus, GNU 12.2.0, Release",
          "candidate host: EPYC B, 4 cpus", "DIFFERENT hosts"]),
        (with_host(base, "Xeon A"),
         with_host(report({"fcfs": 700_000.0, "ss": 200_000.0}), "Xeon A"),
         ["candidate host: Xeon A", "same host"]),
        (base, report({"fcfs": 700_000.0, "ss": 200_000.0}),
         ["baseline host: unrecorded", "candidate host: unrecorded"]),
    ]
    for baseline, candidate, expected in host_cases:
        failures = compare(baseline, candidate)
        good = len(failures) == 1 and all(e in failures[0] for e in expected)
        print(f"selftest [hosts: {expected[-1]}]: "
              f"{'pass' if good else 'FAIL'}")
        ok = ok and good
    # A superlinear curve fails the full guard even when every lane holds
    # against the baseline.
    superlinear = scaling({"easy": [(50_000, 500.0), (800_000, 700.0)]})
    got = len(compare(superlinear, superlinear))
    print(f"selftest [scaling through compare]: expected 1 failure(s), "
          f"got {got} — {'pass' if got == 1 else 'FAIL'}")
    if got != 1:
        ok = False
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path,
                    help="committed BENCH_engine.json to guard against")
    ap.add_argument("--candidate", type=Path,
                    help="freshly generated sweep report")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="allowed fractional drop (default %(default)s)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the comparator's self-checks and exit")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        ap.error("--baseline and --candidate are required (or --selftest)")
    try:
        baseline = json.loads(args.baseline.read_text())
        candidate = json.loads(args.candidate.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_guard: cannot read reports: {e}", file=sys.stderr)
        return 1
    failures = compare(baseline, candidate, args.tolerance)
    for f in failures:
        print(f"perf_guard: {f}", file=sys.stderr)
    print("perf_guard:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
