#!/usr/bin/env python3
"""Same-host A/B run of the benchmark: the current checkout against a parent.

    python3 tools/bench_ab.py --parent REV [--out FILE]

Checks REV out into a temporary git worktree, then runs BENCHMARK.json's
command (perfbench/run.py) for every workload it declares, one run at a
time, on the parent and on the current checkout (uncommitted edits
included). Each side builds into its own CARGO_TARGET_DIR. Every run
uses seed 0 and BENCHMARK.json's run_seconds. The runs come in 10 pairs
per workload, and the side that runs first alternates from pair to pair,
so drift of the host's speed hits both sides alike. Every run must exit 0
and report "correct": true and "failed": 0; the first that does not stops
the A/B with the side, workload and pair.

For each end-to-end metric on each workload it prints, and writes to
--out as one tlsim-ab-v1 JSON document with every run's values, each
side's median and quartiles, the pairs the change wins, and a verdict:

  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json (a fraction of
              the parent's median)
  gain        the change wins at least 9 in 10 of all pairs (ties count
              for neither) and its median is better by more than the
              parent's interquartile range
  unresolved  neither, and either side's interquartile range is wider
              than the bound, unless every change run beats every
              parent run
  same        otherwise

Exits 1 when a run fails or a verdict is "regression", 0 otherwise. The
worktree is removed, and any benchmark run still going is killed with
its whole process group, on every exit path, interrupts included.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "tlsim-ab-v1"
PAIRS = 10
SEED = 0
# A pair is won by a change that is better in it; a gain needs this share
# of all pairs run.
GAIN_WIN_SHARE = 0.9
# The benchmark runs that have started and not yet finished.
running = []


class RunFailed(Exception):
    pass


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def compare(parent, change, better, bound):
    """Summary and verdict of one metric over paired runs: parent[i] and
    change[i] ran in the same pair. better is "lower" or "higher";
    bound is the share of the parent's median by which the change's
    median may be worse before it counts as a regression."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs the same non-zero number of runs "
                         "per side")
    sign = 1.0 if better == "higher" else -1.0

    def advantage(p, c):
        """How much better c reads than p (negative: worse)."""
        return sign * (c - p)

    wins = sum(advantage(p, c) > 0 for p, c in zip(parent, change))
    losses = sum(advantage(p, c) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    spread = max(iqr, c_q3 - c_q1)
    delta = advantage(p_med, c_med)
    scale = abs(p_med)
    all_better = advantage(max(parent, key=lambda p: sign * p),
                           min(change, key=lambda c: sign * c)) > 0

    if -delta > bound * scale:
        verdict = "regression"
    elif wins >= GAIN_WIN_SHARE * len(parent) and delta > iqr:
        verdict = "gain"
    elif spread > bound * scale and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "better": better,
        "bound": bound,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "ratio": c_med / p_med if p_med else None,
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "pairs": len(parent),
        "verdict": verdict,
    }


def check_run(side, workload, pair, returncode, stdout, stderr):
    """The metrics of one benchmark run, or RunFailed naming the run."""
    where = f"{side} run of {workload}, pair {pair}"
    tail = "\n".join(stderr.strip().splitlines()[-20:])
    if returncode != 0:
        raise RunFailed(f"{where} exited {returncode}:\n{tail}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise RunFailed(f"{where} printed no result line:\n{tail}")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"{where} reported correct="
                        f"{result.get('correct')}, failed="
                        f"{result.get('failed')}:\n{tail}")
    return metrics


def run_side(command, side, root, target, workload, pair, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = list(command) + ["--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds)]
    # A session of its own makes the run and everything it starts (the
    # build, the benchmark binary) one process group, which
    # kill_running() kills if bench_ab exits before the run does.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    running.append(proc)
    stdout, stderr = proc.communicate()
    running.remove(proc)
    return check_run(side, workload, pair, proc.returncode, stdout, stderr)


def kill_running():
    """Kill the process group of every run that has not finished."""
    while running:
        proc = running.pop()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def report(workloads):
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>5}  verdict")
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            sides = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, "
                     f"{m[s]['q3']:.4g}]" for s in ("parent", "change")]
            print(f"{workload:<15} {name:<12} {sides[0]:<30} {sides[1]:<30} "
                  f"{m['wins']:>2}/{m['pairs']:<2}  {m['verdict']}")


def ab(spec, parent_sha, scratch):
    sides = {"parent": scratch / "parent", "change": ROOT}
    targets = {side: scratch / f"{side}-target" for side in sides}
    git("worktree", "add", "--detach", "--quiet", str(sides["parent"]),
        parent_sha)
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else \
            ("change", "parent")
        for workload in names:
            row = {"pair": pair, "first": order[0]}
            for side in order:
                print(f"bench_ab: pair {pair}, {workload}, {side}",
                      file=sys.stderr, flush=True)
                row[side] = run_side(spec["command"], side, sides[side],
                                     targets[side], workload, pair,
                                     spec["run_seconds"])
            runs[workload].append(row)
    workloads = {}
    for workload, rows in runs.items():
        metrics = {
            m["name"]: compare([r["parent"][m["name"]] for r in rows],
                               [r["change"][m["name"]] for r in rows],
                               m["better"], m["bound"])
            for m in spec["end_to_end"]}
        workloads[workload] = {"metrics": metrics, "runs": rows}
    return workloads


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="revision to compare the current checkout with")
    ap.add_argument("--out", default="bench_ab.json")
    args = ap.parse_args()

    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = {"rev": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain"))}
    # SIGTERM and SIGHUP unwind like Ctrl-C, so the finally below still
    # removes the worktree.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    try:
        workloads = ab(spec, parent_sha, scratch)
    except RunFailed as failure:
        print(f"bench_ab: {failure}", file=sys.stderr)
        return 1
    finally:
        kill_running()
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(scratch / "parent")],
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)

    doc = {
        "schema": SCHEMA,
        "parent": parent_sha,
        "change": change,
        "pairs": PAIRS,
        "seconds": spec["run_seconds"],
        "seed": SEED,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "workloads": workloads,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    report(workloads)
    print(f"bench_ab: wrote {out}")
    regressions = [f"{w}/{name}" for w, r in workloads.items()
                   for name, m in r["metrics"].items()
                   if m["verdict"] == "regression"]
    if regressions:
        print(f"bench_ab: regression on {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
