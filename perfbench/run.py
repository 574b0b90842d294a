#!/usr/bin/env python3
"""Repository benchmark: build the perfbench binary from source and run one
workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The binary is built with CMake into
.bench_build/ (library sources from src/, benchmark sources from
perfbench/src/); traces, checkpoints and WAL files go to .bench_out/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics are
the end-to-end set of BENCHMARK.json, with --trace 1 the per-layer set. The
exit code is non-zero when the build fails, an output check fails, or the
environment arms a knob that changes the program under test.

--smoke runs every workload at tiny sizes, untraced and traced, and checks
that each result is correct and names exactly the metrics BENCHMARK.json
lists.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; returns False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """git sha when the tree is a git checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources:" + digest.hexdigest()[:16]


def run_binary(args, extra, sid):
    """Run one workload; returns (exit code, parsed result or None, stdout)."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", sid] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, ""
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"}):
        result = None
    return proc.returncode, result, proc.stdout


def smoke(sid):
    """Every workload at tiny sizes, untraced and traced; names must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=2,
                                      trace=trace)
            t0 = time.monotonic()
            code, result, _ = run_binary(args, ["--tiny"], sid)
            where = f"{w['name']} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                log(f"SMOKE FAIL {where}: exit {code}, result {result}")
                ok = False
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            units = sorted(k for k in got if k in expected[trace]
                           and got[k] != expected[trace][k])
            if missing or extra or units:
                log(f"SMOKE FAIL {where}: missing {missing}, extra {extra}, "
                    f"unit mismatch {units}")
                ok = False
                continue
            log(f"smoke ok: {where} ({time.monotonic() - t0:.1f} s)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny end-to-end run of every workload")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    if not build():
        return 1
    sid = source_id()
    if args.smoke:
        return 0 if smoke(sid) else 1

    code, result, stdout = run_binary(args, [], sid)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if result is None:
        sys.stdout.write("\n".join(lines[:-1]) + ("\n" if lines else ""))
        log("the benchmark binary printed no result")
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
