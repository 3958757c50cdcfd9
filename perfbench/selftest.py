"""Self-test of the benchmark, run from the root of an eeglm checkout:

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json at the tiny size, traced and not,
and asserts that the result line has exactly the keys correct, attempted,
failed and metrics, and every metric with its unit, also on its own printed
line. It then shows that corrupted outputs trip the checks: an edited
metrics.csv row, out-of-range tokens, an accuracy under the floor and
differing repetitions. Last, it runs the benchmark in a directory holding
only BENCHMARK.json and the benchmark, where it must fail without printing a
result. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, *args: str) -> tuple[int, list[str], int]:
    """Run the benchmark; return its exit code, stdout lines and pid. Its
    standard error is shown unless it succeeded or refused the directory."""
    proc = subprocess.Popen(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=600)
    if proc.returncode not in (0, 2):
        sys.stderr.write(err)
    return proc.returncode, out.splitlines(), proc.pid


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    code, lines, _ = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                               "--trace", str(trace), "--size", "tiny")
    where = f"{workload} trace={trace}"
    if code != 0 or not lines:
        return [f"{where}: exit code {code}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} reads {got}")
        elif not any(line.startswith(f"metric {m['name']} = ") and line.endswith(" " + m["unit"])
                     for line in lines):
            problems.append(f"{where}: {m['name']} not printed with its unit")
    return problems


def check_corruption() -> list[str]:
    """Outputs of a real tiny run pass the checks; edited copies fail them."""
    code, _, pid = run_bench(ROOT, "--workload", "quickstart", "--seed", "7", "--seconds", "2",
                             "--trace", "0", "--size", "tiny", "--keep")
    work = ROOT / ".perfbench-out" / "work" / f"quickstart-7-{pid}"
    if code != 0:
        return [f"kept quickstart run: exit code {code}"]
    try:
        problems = []
        good = work / "quickstart" / "run-cpt" / "metrics.csv"
        rows = good.read_text().splitlines()
        steps = len(rows) - 1
        if checks.metrics_csv(good, 0.1, steps):
            problems.append("an untouched metrics.csv fails the checks")
        bad = work / "bad.csv"
        cells = rows[2].split(",")
        edits = {
            "loss_total off by 1e-6": [cells[0], repr(float(cells[1]) + 1e-6), *cells[2:]],
            "non-finite loss": [cells[0], "nan", *cells[2:]],
            "step out of order": ["9999", *cells[1:]],
        }
        for what, row in edits.items():
            bad.write_text("\n".join(rows[:2] + [",".join(row)] + rows[3:]) + "\n")
            if not checks.metrics_csv(bad, 0.1, steps):
                problems.append(f"metrics.csv with {what} passes the checks")
        bad.write_text("\n".join(rows[:-1]) + "\n")
        if not checks.metrics_csv(bad, 0.1, steps):
            problems.append("metrics.csv missing its last row passes the checks")

        seq = SimpleNamespace(indices=np.array([0, 1, 2, 32]), channels=2, patches=2)
        if not checks.tokens(seq, 32, 2, 2, "seq"):
            problems.append("a token index equal to num_codes passes the checks")
        if not checks.tokens(seq, 64, 4, 1, "seq"):
            problems.append("tokens with the wrong extents pass the checks")
        report = json.loads((work / "quickstart" / "report" / "report.json").read_text())
        report["metrics"]["balanced_accuracy"] = 0.5
        if not checks.eval_report(report, checks.BALANCED_ACCURACY_FLOOR):
            problems.append("balanced accuracy under the floor passes the checks")
        sft = work / "quickstart" / "run-sft" / "checkpoints"
        last = sorted(sft.iterdir())[-1]
        digest = checks.tree_digest(last)
        with open(last / "weights.bin", "r+b") as f:
            byte = f.read(1)
            f.seek(0)
            f.write(bytes([byte[0] ^ 1]))
        if not checks.same([digest, checks.tree_digest(last)], "sft checkpoint digest"):
            problems.append("a checkpoint with one flipped bit has the same digest")
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark fails and prints no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines, _ = run_bench(bare, "--workload", "quickstart", "--seed", "1",
                                   "--seconds", "2", "--trace", "0")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit code {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            got = check_result(w["name"], trace, spec)
            print(f"{'PASS' if not got else 'FAIL'} {w['name']} trace={trace}", flush=True)
            failures += got
    for name, fn in (("corrupted outputs trip the checks", check_corruption),
                     ("bare directory fails without a result", check_bare_directory)):
        got = fn()
        print(f"{'PASS' if not got else 'FAIL'} {name}", flush=True)
        failures += got
    for f in failures:
        print(f"  {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
