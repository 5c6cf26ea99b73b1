"""Layered benchmark for disksurgery.

    python3 layerbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in fresh
single-threaded worker processes that import the checkout's ``src/``;
this process generates the inputs from the seed, checks every answer
with its own reference computations (``refs``), and prints the metrics.
The last line of standard output is one JSON object. ``--workload all``
runs the three workloads one after another. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import check
import gen
import refs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("descent", "oracle", "closure")
SETUP_RUNS = 7  # set-up is timed in this many fresh processes; the median is reported
# A worker may take this long beyond the run length: set-up, the round under
# way when the time is up, and writing its results.
WORKER_SLACK = 60

# Per-operation figures of the traced worker, under their metric names.
PER_LAYER = (
    ("kernels.apply_images.calls", "count/op"),
    ("kernels.apply_images.self_s", "s/op"),
    ("kernels.cyclic_reduce.self_s", "s/op"),
    ("kernels.apply_images_canonical.calls", "count/op"),
    ("kernels.apply_images_canonical.self_s", "s/op"),
    ("words.CyclicWord.calls", "count/op"),
    ("words.CyclicWord.self_s", "s/op"),
    ("words.unoriented_cyclic_class.self_s", "s/op"),
    ("primitivity.whitehead_minimize.self_s", "s/op"),
    ("primitivity.whitehead_minimize.steps", "count/op"),
    ("primitivity.whitehead_minimize.autos_evaluated", "count/op"),
    ("primitivity.is_primitive.calls", "count/op"),
    ("primitivity.is_primitive.oz_fired", "count/op"),
    ("primitivity.oracle_primitives.self_s", "s/op"),
    ("primitivity.oracle_primitives.words", "count/op"),
    ("primitivity.oracle_primitives.autos_applied", "count/op"),
    ("surgery.validate_system.calls", "count/op"),
    ("surgery.validate_system.self_s", "s/op"),
    ("surgery.closure_report.self_s", "s/op"),
    ("surgery.outcomes", "count/op"),
    ("report.run_report.self_s", "s/op"),
    ("report.render_text.s", "s/op"),
    ("report.render_json.s", "s/op"),
    ("report.bytes", "B/op"),
    ("scenarios.load_scenario.s", "s/op"),
    ("cli.main.self_s", "s/op"),
)
TABLE_RANKS = (2, 3, 4, 5, 6)


def generate(workload, seed, run_dir):
    """Inputs for the worker (written to RUN_DIR) and, for the checks, the truth."""
    if workload == "descent":
        items = gen.descent_inputs(seed)
        for_worker = [{"letters": it["letters"], "rank": it["rank"]} for it in items]
    elif workload == "oracle":
        items = gen.oracle_inputs(seed)
        for_worker = items
    else:
        items = []
        for n, pair in enumerate(gen.closure_inputs(seed)):
            path = os.path.relpath(os.path.join(run_dir, f"pair-{n}.json"), ROOT)
            with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
                json.dump(scenario_json(pair), fh)
            for extra in ([], ["--machine"]):
                items.append({"argv": ["closure", path] + extra, "path": path,
                              "pair": pair, "rank": pair["rank"]})
        for genus in gen.FIG1_GENERA:
            for extra in ([], ["--machine"]):
                items.append({"argv": ["closure", "fig1", "--genus", str(genus)] + extra,
                              "path": None, "pair": None, "rank": genus})
        for_worker = [{k: it[k] for k in ("argv", "path", "rank")} for it in items]
    with open(os.path.join(run_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(for_worker, fh)
    return items


def scenario_json(pair):
    return {
        "rank": pair["rank"], "points": list(pair["order_d"]),
        "order_d": list(pair["order_d"]), "order_e": list(pair["order_e"]),
        "chords": [list(c) for c in pair["chords"]],
        "labels_d": [refs.format_word(w) for w in pair["labels_d"]],
        "labels_e": [refs.format_word(w) for w in pair["labels_e"]],
        "meta": {},
    }


def worker(mode, workload, run_dir, seconds=None, trace_path=None):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, SRC, run_dir]
    cmd += [str(arg) for arg in (seconds, trace_path) if arg is not None]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=(seconds or 0) + WORKER_SLACK)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} failed:\n{proc.stderr.strip()}")
    return proc.stdout


def run_workload(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        items = generate(workload, seed, run_dir)
        if trace:
            trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
            worker("trace", workload, run_dir, seconds, trace_path)
            setups = []
        else:
            setups = [json.loads(worker("setup", workload, run_dir))
                      for _ in range(SETUP_RUNS - 1)]
            worker("measure", workload, run_dir, seconds)
        with open(os.path.join(run_dir, "results.json"), encoding="utf-8") as fh:
            results = json.load(fh)
        errors = check.CHECKS[workload](items, results, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    errors += results["errors"]
    if results["nondeterministic"]:
        errors.append(f"{results['nondeterministic']} results differ between rounds")
    attempted = results["rounds"] * results["ops"]
    raw = {}
    if trace:
        metrics = layer_metrics(results)
    else:
        setups.append(results)
        metrics = end_to_end(results, setups, scaled=True)
        raw = end_to_end(results, setups, scaled=False)
    return {
        "workload": workload, "seed": seed, "trace": trace, "backend": results["backend"],
        "correct": not errors, "errors": errors, "attempted": attempted,
        "failed": results["failed"], "rounds": results["rounds"], "ops_per_round": results["ops"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }


def end_to_end(results, setups, scaled):
    """The four end-to-end metrics; times in reference time when SCALED."""
    factors = [speed.scale(*r) if scaled else 1.0 for r in results["round_speed"]]
    per_op = op_medians(results["op_times"], results["ops"], factors)
    setup_times = [s["setup_s"] * (speed.scale(*s["setup_speed"]) if scaled else 1.0)
                   for s in setups]
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (results["rss_kib"] / 1024, "MiB"),
    }


def op_medians(times, ops, factors):
    """Each operation's median time over the rounds, each round's times
    multiplied by its factor.

    Every round repeats the same operations, so a burst of load from
    elsewhere on the machine that slows one round is voted out."""
    rounds = len(times) // ops
    return [statistics.median(times[r * ops + i] * factors[r] for r in range(rounds))
            for i in range(ops)]


def layer_metrics(results):
    layers = results["layers"]
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit in PER_LAYER}
    builds = {int(r): b for r, b in results["builds"].items()}
    for rank in TABLE_RANKS:
        seconds, autos = builds.get(rank, (0.0, 0))
        name = f"primitivity.enumerate_whitehead_autos.r{rank}"
        metrics[name + ".s"] = (seconds, "s")
        metrics[name + ".autos"] = (autos, "count")
    metrics["cli.import_s"] = (results["import_s"], "s")
    untraced = statistics.median(results["round_times"])
    traced = statistics.median(results["traced_times"])
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    return metrics


def report(result):
    print(f"workload {result['workload']}  seed {result['seed']}  backend {result['backend']}"
          f"  rounds {result['rounds']} x {result['ops_per_round']} ops")
    print(f"  attempted {result['attempted']}  failed {result['failed']}"
          f"  correct {'yes' if result['correct'] else 'NO'}")
    for error in result["errors"][:10]:
        print(f"  ERROR: {error}")
    for name, m in result["metrics"].items():
        unscaled = result["unscaled"].get(name)
        note = f"  (unscaled {unscaled['value']:.6g})" if unscaled else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length of the timed phase (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "disksurgery", "__init__.py")):
        print(f"error: no disksurgery sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    refs.self_test()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        suffix = "-trace" if args.trace else ""
        with open(os.path.join(OUT, f"result-{name}-seed{args.seed}{suffix}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
