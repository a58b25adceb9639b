"""Self-test of the benchmark at the micro shape (cor1 n=16 m=2 eps=1/2).

    python3 perfbench/selftest.py

Runs every workload end to end, untraced twice and traced once, and checks:
the result line has exactly the contracted keys, every metric named in
BENCHMARK.json is present with its unit, outputs hash the same on two runs
of one seed, and the human-readable lines name each workload's metrics.
Last, it runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
HUMAN = {
    "extract_reuse": ["wall_s", "setup_s", "mbit_s", "peak_rss_mib", "fail_ratio"],
    "extract_fresh": ["wall_s", "setup_s", "mbit_s", "peak_rss_mib", "fail_ratio"],
    "design_cold": ["wall_s", "setup_s", "peak_rss_mib", "fail_ratio"],
    "certify_exact": ["wall_s", "setup_s", "sources_per_s", "peak_rss_mib", "fail_ratio"],
}


def bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--shape", "micro"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict, what: str) -> list:
    if proc.returncode != 0:
        return [f"{what}: exit code {proc.returncode}\n{proc.stderr}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"{what}: correct={res.get('correct')} failed={res.get('failed')} "
                        f"attempted={res.get('attempted')}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{what}: metrics {sorted(set(metrics) ^ set(expected))} "
                        "are not both in the result and in BENCHMARK.json")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{what}: {name} has unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: {name} = {value!r} is not a finite number")
    return problems


def human_lines(proc) -> dict:
    out = {}
    for line in proc.stdout.splitlines()[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep:
            out[name] = rest
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        first, second = bench(ROOT, name, 0), bench(ROOT, name, 0)
        traced = bench(ROOT, name, 1)
        problems += check_result(first, e2e, f"{name} --trace 0")
        problems += check_result(second, e2e, f"{name} --trace 0 (again)")
        problems += check_result(traced, per_layer, f"{name} --trace 1")
        if first.returncode == 0:
            for metric in e2e:
                value = json.loads(first.stdout.strip().splitlines()[-1])["metrics"][metric]["value"]
                if not value > 0:
                    problems.append(f"{name}: end-to-end metric {metric} = {value} is not positive")
        digests = {ln for p in (first, second, traced) for ln in p.stdout.splitlines()
                   if ln.startswith("output sha256=")}
        if len(digests) != 1:
            problems.append(f"{name}: output hashes differ across runs of seed {SEED}: {digests}")
        shown = human_lines(first)
        problems += [f"{name}: {m} is not printed" for m in HUMAN[name] if m not in shown]
        print(f"{name}: {len(problems)} problem(s) so far", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or "{" in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
