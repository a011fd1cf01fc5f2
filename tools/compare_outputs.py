#!/usr/bin/env python3
"""Check that two builds produce the same bench and example outputs.

Usage: compare_outputs.py OLD_BUILD NEW_BUILD

OLD_BUILD and NEW_BUILD are CMake build directories of this repository
(for example a build of the parent commit and one of the change). The
binaries are found in each build: every bench/bench_* executable and
every executable in examples/. Each build's binaries run in a fresh
temporary directory of their own, one build after the other. Then the
two runs are compared byte for byte:

  - each binary's exit status and stdout;
  - every BENCH_*.json and crash_recovery_demo.trace.json either run
    wrote.

Two things are exempt, both host-time measurements of bench_sim_scale:
its JSON "host" section, and the host-time figures on its stdout (the
numbers before `host-s`, `sim-txn/host-s` and `host-ns`, and the crc32
speed ratio).

Every difference is printed. Exit status 1 if there is any, 2 when a
binary is found in one build only or neither build has any.
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ARTIFACTS = ["BENCH_*.json", "crash_recovery_demo.trace.json"]

# bench_sim_scale's host-time figures: "0.52 host-s", "11472
# sim-txn/host-s", "crc32 3651 vs reference 25671 host-ns ... (7.03x)".
# A figure's column padding goes with it.
HOST_FIGURES = [
    re.compile(r" *[\d.]+(?= (?:sim-txn/)?host-(?:s|ns)\b)"),
    re.compile(r"(?<=crc32 )\d+(?= vs reference)"),
    re.compile(r"(?<=\()[\d.]+(?=x\))"),
]
HOST_BENCH = "bench_sim_scale"
HOST_JSON = "BENCH_sim_scale.json"


def binaries(build: Path):
    """The build's bench/bench_* and examples/ executables, by name."""
    found = list((build / "bench").glob("bench_*"))
    if (build / "examples").is_dir():
        found += (build / "examples").iterdir()
    return {p.name: p for p in sorted(found)
            if p.is_file() and os.access(p, os.X_OK)}


def matching_binaries(old_build: Path, new_build: Path):
    """Both builds' binaries; exits 2 unless they name the same set."""
    old, new = binaries(old_build), binaries(new_build)
    only = [str(path) for mine, theirs in ((old, new), (new, old))
            for name, path in mine.items() if name not in theirs]
    if only:
        print("binaries found in one build only (build every target in "
              "both):\n  " + "\n  ".join(only), file=sys.stderr)
        sys.exit(2)
    if not old:
        print("no bench or example binaries in either build",
              file=sys.stderr)
        sys.exit(2)
    return old, new


def run_build(build: Path, found, workdir: Path):
    """Runs every binary in `found` in `workdir`; returns name -> result."""
    results = {}
    for binary in found.values():
        print(f"  {build.name}: {binary.name}", flush=True)
        proc = subprocess.run([str(binary)], cwd=workdir,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=900)
        stdout = proc.stdout.decode(errors="replace")
        if binary.name == HOST_BENCH:
            for pattern in HOST_FIGURES:
                stdout = pattern.sub("<host>", stdout)
        results[binary.name] = (proc.returncode, stdout)
    return results


def artifacts(workdir: Path):
    out = {}
    for pattern in ARTIFACTS:
        for path in sorted(workdir.glob(pattern)):
            data = path.read_bytes()
            if path.name == HOST_JSON:
                doc = json.loads(data)
                doc.pop("host", None)
                data = json.dumps(doc, indent=1).encode()
            out[path.name] = data
    return out


def text_diff(name, old, new, limit=40):
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                      f"old/{name}", f"new/{name}",
                                      lineterm=""))
    shown = lines[:limit]
    if len(lines) > limit:
        shown.append(f"... ({len(lines) - limit} more diff lines)")
    return "\n".join(shown)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("old_build", type=Path)
    ap.add_argument("new_build", type=Path)
    args = ap.parse_args()
    old_build, new_build = args.old_build.resolve(), args.new_build.resolve()
    old_found, new_found = matching_binaries(old_build, new_build)

    differences = []
    with tempfile.TemporaryDirectory() as old_dir, \
            tempfile.TemporaryDirectory() as new_dir:
        old_dir, new_dir = Path(old_dir), Path(new_dir)
        old_runs = run_build(old_build, old_found, old_dir)
        new_runs = run_build(new_build, new_found, new_dir)
        for name in old_runs:
            (old_rc, old_out), (new_rc, new_out) = old_runs[name], new_runs[name]
            if old_rc != new_rc:
                differences.append(f"{name}: exit status {old_rc} -> {new_rc}")
            if old_out != new_out:
                differences.append(f"{name}: stdout differs\n"
                                   + text_diff(name + ".stdout", old_out,
                                               new_out))
        old_files, new_files = artifacts(old_dir), artifacts(new_dir)
        for name in sorted(set(old_files) | set(new_files)):
            if name not in new_files:
                differences.append(f"{name}: written by the old build only")
            elif name not in old_files:
                differences.append(f"{name}: written by the new build only")
            elif old_files[name] != new_files[name]:
                differences.append(
                    f"{name}: contents differ\n"
                    + text_diff(name, old_files[name].decode(errors="replace"),
                                new_files[name].decode(errors="replace")))

    for d in differences:
        print(f"DIFF {d}")
    checked = len(old_runs)
    if differences:
        print(f"FAIL: {len(differences)} difference(s) across {checked} "
              f"binaries and {len(old_files)} artifacts")
        return 1
    print(f"OK: {checked} binaries, {len(old_files)} artifacts identical "
          f"(bench_sim_scale host figures exempt)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
