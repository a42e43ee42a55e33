"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/check_smoke.py

For every workload in BENCHMARK.json it runs the benchmark untraced and
traced on the tiny scale and asserts that every named metric comes out
with its declared unit.  It then corrupts copies of the reference
fingerprints (a chord count, and a delay residual by more than its
tolerance) and asserts that the affected operations are counted as failed
instead of passing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"


def run(*args: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result, _ = run("--workload", workload, "--seed", "0", "--trace", trace)
            assert result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: {result}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(wanted)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{workload}: {name} is not a number"
            print(f"PASS {workload} --trace {trace}: {len(got)} metrics with units")


def check_corrupted(workload: str, corrupt) -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    corrupt(reference[f"{workload}/tiny"][0])
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"corrupt-reference-{workload}.json"
    path.write_text(json.dumps(reference))
    result, stdout = run("--workload", workload, "--seed", "0", "--trace", "0", "--reference", str(path))
    failed_lines = [line for line in stdout.splitlines() if line.startswith("FAILED op 0 ")]
    assert result["failed"] >= 1 and not result["correct"], f"{workload}: corrupted reference passed: {result}"
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert failed_lines, f"{workload}: no FAILED line for the corrupted operation"
    print(f"PASS {workload}: corrupted reference counted as failed ({failed_lines[0]})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)

    def bump_count(fp):
        fp["count"] += 1

    def shift_residual(fp):
        fp["max_delay_residual"] += 1e-3

    check_corrupted("chord-scan", bump_count)
    check_corrupted("delay-verify", shift_residual)
    return 0


if __name__ == "__main__":
    sys.exit(main())
