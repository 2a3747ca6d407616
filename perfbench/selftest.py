#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Runs every workload at smoke budgets, untraced and traced, and checks:
  - the span decorators leave every simulated statistic unchanged
    (each traced run's digest equals the untraced run's);
  - the traced spans pass run.check_phases (no span left open, each
    phase once per run and equal to the same phase timed on another
    clock, little residual in warmup + measure), and that check fails
    when a layer's spans go missing or a phase time is off;
  - every metric name printed is declared in BENCHMARK.json, with its
    unit, and every declared metric is printed;
  - with only BENCHMARK.json and perfbench/ present, run.py fails
    without printing a result.
Exits non-zero on the first failure.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc


def main():
    spec = run.load_benchmark_json()
    out_dir = run.build_dir() / "out"
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace), "--smoke")
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            section = spec["per_layer" if trace else "end_to_end"]
            declared = {m["name"]: m["unit"] for m in section}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == declared,
                  f"{workload} trace={trace} prints exactly the declared "
                  "metric names and units")
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"} and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace} has no failed run")
            if not trace:
                continue
            stem = f"{workload}-s3-t1"
            raw = json.loads((out_dir / f"{stem}.json").read_text())
            by_kind = {b["kind"]: [r["digest"] for r in b["runs"]]
                       for b in raw["batches"]}
            check(all(by_kind["traced"]) and
                  by_kind["traced"] == by_kind["observed"],
                  f"{workload}: decorators leave simulated statistics "
                  "unchanged")
            runs = run.load_spans(out_dir / f"{stem}.spans.jsonl")
            check(run.check_phases(raw, runs) == [],
                  f"{workload}: traced phases are whole and agree with "
                  "the outside clock")
            # The same check on damaged spans must fail.
            hidden = copy.deepcopy(runs)
            for nodes in hidden.values():
                for n in nodes:
                    if n["name"] == "cpu.run":
                        n["name"] = "unnamed"
            check(any("residual" in p
                      for p in run.check_phases(raw, hidden)),
                  f"{workload}: a layer escaping the decorators is caught")
            skewed = copy.deepcopy(raw)
            traced = next(b for b in skewed["batches"]
                          if b["kind"] == "traced")
            traced["runs"][0]["phase_ns"][3] *= 2
            check(any("timed outside" in p
                      for p in run.check_phases(skewed, runs)),
                  f"{workload}: a phase span off its outside time is "
                  "caught")

    # Without the simulator sources the benchmark must refuse to run.
    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a checkout without src/ fails without printing a result")


if __name__ == "__main__":
    main()
