#!/usr/bin/env python3
"""The repo benchmark: build the measuring binary, run one workload, check
its record against BENCHMARK.json, and print it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The binary is built from the sources in this checkout into the directory
named by CARGO_TARGET_DIR (default .bench_build).  The last line printed is
the JSON record {"correct", "attempted", "failed", "metrics"}; --trace 0
gives the end-to-end metrics and --trace 1 the per-layer ones.  The exit
status is nonzero when the build fails, a correctness check fails, or the
record does not match the metrics BENCHMARK.json declares.

--self-test checks the benchmark itself: every workload, traced twice on
one seed and untraced on two seeds, must emit every declared metric with
its unit, and its exact counts must repeat on the same seed.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) are missing; nothing to build")
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        step = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def git_sha():
    """HEAD's commit id read from .git, or "none" outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def declared(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(record, spec, trace):
    """Problems with a result record, as a list of strings."""
    problems = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"record keys are {sorted(record)}")
        return problems
    if not isinstance(record["attempted"], int) or record["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(record["failed"], int) or record["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = declared(spec, trace)
    got = record["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} not emitted")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} emitted but not declared")
    for name, metric in got.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is malformed")
        if name in want and metric.get("unit") != want[name]:
            problems.append(f"metric {name} has unit {metric.get('unit')!r}, "
                            f"declared {want[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has value {value!r}")
    if not trace:
        for name in want:
            if name in got and got[name].get("value") == 0:
                problems.append(f"end-to-end metric {name} reads 0")
    return problems


def run_once(binary, spec, workload, seed, seconds, trace):
    """Run the binary; returns (printed lines, record, exact counts, ok)."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        fail(f"unknown workload {workload!r}; declared: {', '.join(names)}")
    out_dir = build_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(out_dir)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("DISTSKETCH_METRICS", "DISTSKETCH_TRACE",
                        "DISTSKETCH_THREADS")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {proc.returncode})")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} exited {proc.returncode} without a result record")
    exact = {}
    for line in lines[:-1]:
        if line.startswith('{"exact"'):
            exact = json.loads(line)["exact"]
    problems = validate(record, spec, trace)
    for problem in problems:
        print(f"perfbench: schema: {problem}", file=sys.stderr)
    ok = proc.returncode == 0 and not problems and record.get("correct")
    return lines, record, exact, ok


def self_test(binary, spec, seconds):
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2):
            _, record, _, ok = run_once(binary, spec, workload, seed, seconds,
                                        False)
            print(f"self-test: {workload} seed {seed} untraced: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"({record.get('attempted')} attempted, "
                  f"{record.get('failed')} failed)")
            if not ok:
                failures.append(f"{workload} seed {seed} untraced")
        exacts = []
        for _ in range(2):
            _, record, exact, ok = run_once(binary, spec, workload, 1, seconds,
                                            True)
            if not ok:
                failures.append(f"{workload} traced")
            exacts.append(exact)
        same = exacts[0] == exacts[1] and exacts[0]
        print(f"self-test: {workload} traced twice on seed 1: exact counts "
              f"{'repeat' if same else 'DIFFER'}: {exacts[0]}")
        if not same:
            failures.append(f"{workload} exact counts {exacts}")
    for failure in failures:
        print(f"self-test: FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not NAME_RE.match(metric["name"]):
                fail(f"declared metric name {metric['name']!r} is malformed")
    if args.self_test:
        binary = build()
        sys.exit(self_test(binary, spec, args.seconds or 4))
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    lines, record, _, ok = run_once(binary, spec, args.workload, args.seed,
                                    args.seconds, args.trace == 1)
    print(json.dumps({"build": {"git_sha": git_sha(),
                                "source_sha256": source_digest()}}))
    for line in lines[:-1]:
        print(line)
    if not validate(record, spec, args.trace == 1):
        print(lines[-1], flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
