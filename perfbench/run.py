#!/usr/bin/env python3
"""End-to-end benchmark of the simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs tlsim_perfbench, checks every run's
simulated statistics, and prints one JSON object as the last line of
standard output: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --record

stores the runs' digests as the expected output for that seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
# A first build may take up to 900 s; a measuring run up to 180 s.
BUILD_LIMIT_S = 800.0
RUN_LIMIT_S = 170.0

# Spans whose self time belongs to a named layer, by layer: workload
# (workload.next), l1 (funcwarm: System::functionalWarm's loop around
# L1Cache::accessFunctional), l2 (l2.func, l2.access), cpu (cpu.run,
# l2.respond) and mem (mem.read, mem.write, mem.complete). The self time
# of every other span is the residual the decorators cannot see.
LAYER_SPANS = frozenset({
    "workload.next", "funcwarm", "l2.func", "l2.access", "cpu.run",
    "l2.respond", "mem.read", "mem.write", "mem.complete"})
# A traced run's phases, in the order of its raw "phase_ns" times.
PHASES = ("build", "funcwarm", "warmup", "measure")
# A phase span may be shorter than the same phase timed outside the
# recorder by its own enter/exit cost, and by no more than this.
PHASE_CLOCK_SLACK = 0.01  # share of the phase
PHASE_CLOCK_SLACK_NS = 50_000
# Most of warmup and measure must be inside a named layer: a larger
# residual means a layer escaped the decorators.
TIMED_RESIDUAL_LIMIT = 0.01


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configure (once) and build tlsim_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    deadline = time.time() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out_dir / "tlsim_perfbench"


def median(values):
    return statistics.median(values) if values else 0.0


def best_cpu_ns(batches, spec_index, start, end):
    """Least worker-thread CPU time between stamps start and end of one
    run over its repetitions (stamps: run start, System built, measure
    begin, measure end, run end)."""
    return min(b["runs"][spec_index]["cpu_ns"][end] -
               b["runs"][spec_index]["cpu_ns"][start] for b in batches)


def replay_sweep(durations, jobs):
    """Per-worker busy time when jobs workers claim runs in spec order,
    as runSweep does."""
    busy = [0.0] * max(1, jobs)
    for d in durations:
        busy[busy.index(min(busy))] += d
    return busy


def end_to_end(raw):
    """wall_s of a sweep workload is its fastest whole runSweep pass in
    wall time. Every other time is CPU time of the thread doing the
    work, best of the observed repetitions per run: wall time on the
    shared VM this was tuned on includes the hypervisor's steal
    (README.md)."""
    specs = raw["specs"]
    observed = [b for b in raw["batches"] if b["kind"] == "observed"]
    sweeps = [b["wall_s"] for b in raw["batches"] if b["kind"] == "sweep"]
    runs = range(len(specs))
    warm_ns = sum(best_cpu_ns(observed, i, 1, 2) for i in runs)
    measure_ns = sum(best_cpu_ns(observed, i, 2, 3) for i in runs)
    warm_instr = sum(s["functional_instr"] + s["warmup_instr"]
                     for s in specs)
    measure_instr = sum(s["measure_instr"] for s in specs)
    return {
        "wall_s": (min(sweeps) if sweeps else
                   sum(best_cpu_ns(observed, i, 0, 4) for i in runs) * 1e-9),
        "measure_mips": measure_instr / measure_ns * 1e3,
        "warm_mips": warm_instr / warm_ns * 1e3,
        "setup_s": median([r["cold_s"] for r in raw["setup"]]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fig5_err": raw["fig5_err"],
    }


def load_spans(path):
    """Span nodes grouped by run: {run: [node, ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            node = json.loads(line)
            node["self_ns"] = node["total_ns"] - node["child_ns"]
            runs[node["run"]].append(node)
    return runs


def subtree(nodes, root_id):
    """Nodes under root_id (inclusive); nodes are parents-first."""
    inside = {root_id}
    out = []
    for n in nodes:
        if n["id"] in inside or n["parent"] in inside:
            inside.add(n["id"])
            out.append(n)
    return out


def check_phases(raw, runs):
    """Problems with the traced run's spans, as messages: a span left
    open, a phase that is missing or not exactly once under its run, a
    phase span that disagrees with the same phase timed on another
    clock, or a residual share of warmup + measure that shows a layer
    escaping the decorators."""
    traced = next(b for b in raw["batches"] if b["kind"] == "traced")
    problems = []
    residual_ns = timed_ns = 0
    if sorted(runs) != list(range(len(raw["specs"]))):
        problems.append(f"spans cover runs {sorted(runs)}")
    for run_id, nodes in runs.items():
        root = nodes[0]
        if root["unclosed"]:
            problems.append(f"run {run_id}: {root['unclosed']} spans open "
                            "at its end")
        for name, outside_ns in zip(PHASES,
                                    traced["runs"][run_id]["phase_ns"]):
            found = [n for n in nodes if n["name"] == name]
            if (len(found) != 1 or found[0]["parent"] != root["id"] or
                    found[0]["count"] != 1):
                problems.append(f"run {run_id}: phase {name} is not one "
                                "span under the run")
                continue
            phase = found[0]
            gap = outside_ns - phase["total_ns"]
            if not 0 <= gap <= (PHASE_CLOCK_SLACK * outside_ns +
                                PHASE_CLOCK_SLACK_NS):
                problems.append(f"run {run_id}: phase {name} span "
                                f"{phase['total_ns']} ns, timed outside "
                                f"{outside_ns} ns")
            if name in ("warmup", "measure"):
                timed_ns += phase["total_ns"]
                residual_ns += sum(
                    n["self_ns"] for n in subtree(nodes, phase["id"])
                    if n["name"] not in LAYER_SPANS)
    if timed_ns and residual_ns / timed_ns > TIMED_RESIDUAL_LIMIT:
        problems.append(f"residual is {residual_ns / timed_ns:.3f} of "
                        f"warmup + measure (limit {TIMED_RESIDUAL_LIMIT})")
    return problems


def per_layer(raw, runs, names):
    specs = raw["specs"]
    setup = raw["setup"]
    serial = next(b for b in raw["batches"] if b["kind"] == "observed")
    traced = next(b for b in raw["batches"] if b["kind"] == "traced")
    m = dict.fromkeys(names, 0.0)
    calls = defaultdict(float)  # denominators of the per-call metrics

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    seen_warm = set()
    redundant_ns = run_ns = generated = l1_calls = l2_func_calls = 0
    for run_id, nodes in runs.items():
        spec = specs[run_id]
        l2, mem = f"l2.{spec['design']}", f"mem.{spec['backend']}"
        by_id = {n["id"]: n for n in nodes}
        run_ns += nodes[0]["total_ns"]
        generated += nodes[0]["generated_instr"]
        funcwarm_ns = l2_func_ns = 0
        for n in nodes:
            name, self_ns = n["name"], n["self_ns"]
            parent = by_id.get(n["parent"])
            if name == "workload.next":
                add("workload.gen_s", self_ns * 1e-9)
                if parent["name"] == "funcwarm":
                    l1_calls += n["count"]  # one L1 call per record
            elif name == "funcwarm":
                add("l1.func_self_s", self_ns * 1e-9)
                funcwarm_ns += n["total_ns"]
            elif name == "l2.func":
                add(f"{l2}.func_ns", self_ns)
                add(f"{l2}.func_calls", n["count"])
                calls[f"{l2}.func_ns"] += n["count"]
                l2_func_calls += n["count"]
                l2_func_ns += n["total_ns"]
            elif name in ("cpu.run", "l2.respond"):
                add("cpu.self_s", self_ns * 1e-9)
            elif name == "l2.access":
                add(f"{l2}.access_ns", self_ns)
                add(f"{l2}.requests", n["count"])
                calls[f"{l2}.access_ns"] += n["count"]
            elif name.startswith("mem."):
                add(f"{mem}.call_ns", self_ns)
                if name == "mem.read":
                    add(f"{mem}.reads", n["count"])
                if name != "mem.complete":
                    calls[f"{mem}.call_ns"] += n["count"]
        # Regenerating and re-filtering a stream an earlier run of the
        # batch already produced: all of funcwarm but the L2's part.
        if spec["warm_key"] in seen_warm:
            redundant_ns += funcwarm_ns - l2_func_ns
        seen_warm.add(spec["warm_key"])

    for key, count in calls.items():
        m[key] = m[key] / count if count else 0.0
    gen_s = m["workload.gen_s"]
    m["workload.gen_mips"] = generated / gen_s / 1e6 if gen_s else 0.0
    m["l1.func_filter"] = l2_func_calls / l1_calls if l1_calls else 0.0
    m["funcwarm.redundant_share"] = redundant_ns / run_ns
    timed_instr = sum(s["warmup_instr"] + s["measure_instr"] for s in specs)
    m["cpu.host_ns_per_instr"] = m["cpu.self_s"] * 1e9 / timed_instr
    for design in {s["design"] for s in specs}:
        idx = [i for i, s in enumerate(specs) if s["design"] == design]
        instr = sum(specs[i]["measure_instr"] for i in idx)
        ns = sum(best_cpu_ns([serial], i, 2, 3) for i in idx)
        m[f"l2.{design}.measure_mips"] = instr / ns * 1e3
    retries = sum(r["link_retries"] for r in serial["runs"])
    demand = sum(r["demand_requests"] for r in serial["runs"])
    m["fault.retry_ratio"] = retries / demand if demand else 0.0
    for i, design in enumerate(raw["machines"]):
        m[f"harness.build_s.{design}"] = median(
            [r["cold_per_machine_s"][i] for r in setup])
    m["phys.cold_s"] = max(0.0, median([r["cold_s"] - r["warm_s"]
                                        for r in setup]))
    m["phys.cache_misses"] = median([r["phys_misses"] for r in setup])
    m["phys.cache_hits"] = median([r["phys_hits"] for r in setup])
    # Worker-seconds idle while the sweep waits on its last runs.
    busy = replay_sweep([best_cpu_ns([serial], i, 0, 4) * 1e-9
                         for i in range(len(specs))], raw["jobs"])
    m["harness.sweep_idle_s"] = max(busy) * len(busy) - sum(busy)
    m["trace.overhead_ratio"] = traced["wall_s"] / serial["wall_s"]
    return m


def check_runs(raw, workload, seed):
    """(attempted, failed): a run fails if it errored, or its digest
    differs from the stored one for this seed, or (with no stored
    digests for this seed) from the same spec's digest in the batch run
    first. Stored digests must name exactly this workload's specs: a
    spec with none stored fails."""
    expected = (json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {})
    expected = expected.get(workload, {}).get(str(seed))
    keys = [s["key"] for s in raw["specs"]]
    first = raw["batches"][0]["runs"]
    attempted = failed = 0
    if expected is not None and set(expected) != set(keys):
        print(f"perfbench: stored digests of seed {seed} name other specs: "
              f"{sorted(set(expected) ^ set(keys))}", file=sys.stderr)
    for batch in raw["batches"]:
        for key, run, ref in zip(keys, batch["runs"], first):
            attempted += 1
            want = (ref["digest"] if expected is None else
                    expected.get(key, "none stored"))
            if run["error"] or run["cycles"] <= 0 or run["digest"] != want:
                failed += 1
                print(f"perfbench: {batch['kind']} run {key} failed: "
                      f"{run['error'] or 'digest ' + run['digest'] + ' != ' + want}",
                      file=sys.stderr)
    return attempted, failed


def record_digests(raw, workload, seed):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    runs = raw["batches"][0]["runs"]
    if any(r["error"] for r in runs):
        fail("not recording digests of failed runs")
    data.setdefault(workload, {})[str(seed)] = {
        s["key"]: r["digest"] for s, r in zip(raw["specs"], runs)}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store the digests of this seed's runs")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets (self-tests only)")
    args = ap.parse_args()

    spec = load_benchmark_json()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {workloads}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}

    out_dir = build_dir()
    binary = build(out_dir)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    raw_path = out_dir / "out" / f"{stem}.json"
    spans_path = out_dir / "out" / f"{stem}.spans.jsonl"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(raw_path), "--spans",
           str(spans_path)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("tlsim_perfbench timed out")
    if proc.returncode != 0:
        fail(f"tlsim_perfbench exited with {proc.returncode}")
    raw = json.loads(raw_path.read_text())

    if args.record:
        record_digests(raw, args.workload, args.seed)
    attempted, failed = check_runs(raw, args.workload, args.seed)
    if args.trace:
        runs = load_spans(spans_path)
        problems = check_phases(raw, runs)
        for problem in problems:
            print(f"perfbench: traced run: {problem}", file=sys.stderr)
        failed += bool(problems)
        values = per_layer(raw, runs, declared)
    else:
        values = end_to_end(raw)
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        failed += 1
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
