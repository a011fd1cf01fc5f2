#!/usr/bin/env python3
"""Compare bench headline metrics against committed baselines.

Usage: bench_diff.py <baseline_dir> <current_dir> [--tolerance 0.05]

For every BENCH_*.json in <baseline_dir>, the matching file must exist in
<current_dir>. Headline keys are compared by direction:

  - virtual-time keys (containing `_vms`, or ending in `_ms`/`_ns`):
    lower is better; the run FAILS if current > baseline * (1 + tolerance).
  - speedup keys (containing `speedup`): higher is better; FAILS if
    current < baseline * (1 - tolerance).
  - anything else is reported but never fails the run.

A bench may also carry a top-level "timeseries" section of curve-shape
counts (e.g. nonempty_buckets from the instant-recovery run). Those are
coverage floors: the run FAILS if a count drops below
baseline * (1 - tolerance) — a sparser curve means the experiment lost
signal, while a denser one is fine.

A bench may also carry a top-level "host" section of machine-local
measurements (host seconds, sim-txns-per-host-second from
bench_sim_scale). Absolute host rates vary with the runner, so they are
reported as info only; `speedup` keys are within-run ratios (both sides
are timed in the same run) and are gated higher-is-better at a loosened
tolerance of max(tolerance, 0.25).

Exit status 1 on any regression, so CI can gate on it. Improvements are
reported; refresh the baselines to lock them in.
"""

import argparse
import json
import sys
from pathlib import Path


def classify(key: str):
    if "_vms" in key or key.endswith("_ns") or key.endswith("_ms"):
        return "lower"
    if "speedup" in key:
        return "higher"
    return "info"


GATED_SECTIONS = ("headline", "timeseries", "host")


def compare(baseline_path: Path, current_path: Path, tolerance: float):
    with baseline_path.open() as f:
        base = json.load(f)
    with current_path.open() as f:
        curr = json.load(f)
    base_head = base.get("headline", {})
    curr_head = curr.get("headline", {})

    failures = []
    # The loops below walk the *baseline's* sections, so a section the
    # current run emits but the baseline predates would silently skip
    # every gate in it. That is a stale baseline, not a pass: name it
    # and the file to refresh instead of quietly comparing nothing.
    for section in GATED_SECTIONS:
        if curr.get(section) and section not in base:
            print(f"  section '{section}' present in current run but absent "
                  f"from baseline")
            failures.append(
                f"baseline lacks section '{section}' that the current run "
                f"emits — refresh {baseline_path}")
    for key, base_val in sorted(base_head.items()):
        if not isinstance(base_val, (int, float)):
            continue
        direction = classify(key)
        curr_val = curr_head.get(key)
        if curr_val is None:
            failures.append(f"{key}: missing from current run")
            continue
        if base_val == 0:
            delta_pct = 0.0 if curr_val == 0 else float("inf")
        else:
            delta_pct = (curr_val - base_val) / abs(base_val) * 100.0
        regressed = (
            direction == "lower" and curr_val > base_val * (1 + tolerance)
        ) or (direction == "higher" and curr_val < base_val * (1 - tolerance))
        marker = "REGRESSION" if regressed else (
            "ok" if direction != "info" else "info")
        print(f"  {key:40s} {base_val:12.3f} -> {curr_val:12.3f} "
              f"({delta_pct:+7.2f}%) [{marker}]")
        if regressed:
            gate = ("lower-is-better" if direction == "lower"
                    else "higher-is-better")
            failures.append(
                f"{key}: {base_val:.3f} -> {curr_val:.3f} ({delta_pct:+.2f}%) "
                f"({gate} gate, beyond {tolerance:.0%})")

    base_ts = base.get("timeseries", {})
    curr_ts = curr.get("timeseries", {})
    for key, base_val in sorted(base_ts.items()):
        if not isinstance(base_val, (int, float)):
            continue
        curr_val = curr_ts.get(key)
        if curr_val is None:
            failures.append(f"timeseries.{key}: missing from current run")
            continue
        # Coverage floor: fewer buckets than baseline means the curve
        # lost signal. bucket_ns is a configuration echo, not a floor.
        is_floor = key != "bucket_ns"
        regressed = is_floor and curr_val < base_val * (1 - tolerance)
        marker = "REGRESSION" if regressed else ("ok" if is_floor else "info")
        print(f"  timeseries.{key:29s} {base_val:12.0f} -> {curr_val:12.0f} "
              f"[{marker}]")
        if regressed:
            failures.append(
                f"timeseries.{key}: {base_val:.0f} -> {curr_val:.0f} "
                f"(coverage-floor gate, beyond {tolerance:.0%})")

    base_host = base.get("host", {})
    curr_host = curr.get("host", {})
    host_tol = max(tolerance, 0.25)
    for key, base_val in sorted(base_host.items()):
        if not isinstance(base_val, (int, float)):
            continue
        curr_val = curr_host.get(key)
        if curr_val is None:
            failures.append(f"host.{key}: missing from current run")
            continue
        # Only within-run ratios are comparable across machines.
        is_ratio = "speedup" in key
        regressed = is_ratio and curr_val < base_val * (1 - host_tol)
        marker = "REGRESSION" if regressed else ("ok" if is_ratio else "info")
        print(f"  host.{key:35s} {base_val:12.3f} -> {curr_val:12.3f} "
              f"[{marker}]")
        if regressed:
            failures.append(
                f"host.{key}: {base_val:.3f} -> {curr_val:.3f} "
                f"(higher-is-better host-ratio gate, beyond {host_tol:.0%})")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline_dir", type=Path)
    ap.add_argument("current_dir", type=Path)
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed fractional regression (default 0.05)")
    args = ap.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 1

    all_failures = []
    for baseline in baselines:
        current = args.current_dir / baseline.name
        print(f"{baseline.name}:")
        if not current.exists():
            print("  MISSING from current run")
            all_failures.append(f"{baseline.name}: not produced")
            continue
        failures = compare(baseline, current, args.tolerance)
        all_failures.extend(f"{baseline.name}: {f}" for f in failures)

    if all_failures:
        print(f"\n{len(all_failures)} regression(s) beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall headline metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
