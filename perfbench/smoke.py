"""Self-test of the benchmark: each workload at a tiny size, every check on.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced for about a second
each at the `smoke` size (tiny models, a few dozen trials), and checks that:

- each run exits 0 with `correct` true and a last line of exactly the keys and
  metrics that BENCHMARK.json names, with their units;
- `failed` is the same share of `attempted` in the untraced and traced runs;
- run.py exits non-zero without printing a result in a directory that holds
  only BENCHMARK.json and the benchmark's files.

It takes about 20 seconds and exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done: subprocess.CompletedProcess, expected: dict) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, done.stdout[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, sorted(set(got) ^ set(expected))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        shares = []
        for trace in (0, 1):
            result = check_result(run(ROOT, workload, trace), units[trace])
            shares.append(Fraction(result["failed"], result["attempted"]))
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
        assert shares[0] == shares[1], (workload, shares)
        print(f"ok {workload}: failed share {shares[0]}")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print("ok: refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
