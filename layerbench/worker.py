"""One workload in one fresh process.

    python3 worker.py setup   WORKLOAD SRC RUN_DIR
    python3 worker.py measure WORKLOAD SRC RUN_DIR SECONDS
    python3 worker.py trace   WORKLOAD SRC RUN_DIR SECONDS TRACE_PATH

``setup`` imports the package and warms its caches, then exits; ``run.py``
starts several to take the median set-up time. ``measure`` then loads the
inputs ``run.py`` wrote to RUN_DIR, runs whole rounds of them for about
SECONDS, and writes what the program returned to
RUN_DIR/results.json for ``run.py`` to check. ``trace`` alternates
untraced and traced rounds and adds the per-layer figures.

Times are CPU time of this process (``time.process_time``): the
operations are single-threaded computation, so on an idle core CPU time
equals wall time, and on a shared machine it leaves out the time other
processes hold the core. Set-up time is the CPU time from the start of
the process (interpreter start included) to the end of the warm-up, so
the modules only the timed phase needs are imported where they are used.
Beside every round, and after set-up, ``speed.Meter`` measures the
machine's speed; the worker records it and ``run.py`` scales the times.
The timed phase ends at the round boundary nearest to SECONDS of wall
time (judged by the mean round so far), so a run measures SECONDS give or
take half a round rather than always overrunning by part of one.
"""

import os
import sys
import time

CLOCK = time.process_time

# Whitehead tables each workload's warm-up builds.
RANKS = {"descent": (3, 4, 5, 6), "oracle": (2, 3), "closure": (2, 3)}
# The machine's speed after set-up is measured over at least this much CPU time.
SETUP_SPEED_S = 0.1


def setup(workload, src):
    started = CLOCK()
    import disksurgery
    from disksurgery import cli, primitivity, report, scenarios, surgery, words
    import_s = CLOCK() - started
    if not os.path.abspath(disksurgery.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"imported {disksurgery.__file__}, not the checkout under {src}")
    builds = {}
    for rank in RANKS[workload]:
        t = CLOCK()
        autos = primitivity.enumerate_whitehead_autos(rank)
        builds[rank] = (CLOCK() - t, len(autos))
    modules = {"disksurgery": disksurgery, "cli": cli, "primitivity": primitivity,
               "report": report, "scenarios": scenarios, "surgery": surgery, "words": words}
    info = {"setup_s": CLOCK(), "import_s": import_s, "builds": builds,
            "backend": disksurgery.KERNEL_BACKEND}
    import speed

    meter = speed.Meter()
    meter.after(max(info["setup_s"], SETUP_SPEED_S) / speed.SHARE)
    info["setup_speed"] = meter.take()
    return modules, info, meter


def peak_rss_kib():
    """Peak resident memory of this process image, in KiB.

    Read from VmHWM: ``ru_maxrss`` would report the parent's peak instead
    whenever that is higher, since Linux carries it across fork and exec.
    """
    import resource

    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def plain(name, fn, *args):
    return fn(*args)


def describe(auto):
    return {"kind": auto.kind, "rank": auto.rank, "multiplier": auto.multiplier,
            "members": sorted(auto.members) if auto.members is not None else None,
            "perm": list(auto.perm) if auto.perm is not None else None,
            "signs": list(auto.signs) if auto.signs is not None else None}


def verdict_record(verdict):
    return {"primitive": verdict.primitive, "oz_fired": verdict.oz_fired,
            "minimal": list(verdict.minimal.letters),
            "certificate": [describe(a) for a in verdict.certificate]}


class Workload:
    """The operations of one round, and how to keep and compare results."""

    def __init__(self, name, modules, run_dir, inputs):
        self.name = name
        self.m = modules
        self.run_dir = run_dir
        self.inputs = inputs
        self.first = []
        self.ops = getattr(self, "_ops_" + name)()

    def _ops_descent(self):
        is_primitive, Word = self.m["primitivity"].is_primitive, self.m["words"].Word

        def op(call, word, rank):
            return call("primitivity.is_primitive", is_primitive, word, rank)

        return [(op, (Word(tuple(item["letters"])), item["rank"])) for item in self.inputs]

    def _ops_oracle(self):
        oracle = self.m["primitivity"].oracle_primitives

        def op(call, rank, max_len):
            return call("primitivity.oracle_primitives", oracle, rank, max_len)

        return [(op, (rank, max_len)) for rank, max_len in self.inputs]

    def _ops_closure(self):
        import contextlib
        import io

        main = self.m["cli"].main

        def op(call, argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = call("cli.main", main, argv)
            return code, buf.getvalue()

        return [(op, (item["argv"],)) for item in self.inputs]

    def failed(self, result):
        return self.name == "closure" and result[0] != 0

    def key(self, result):
        """What must repeat exactly in every round."""
        if self.name == "descent":
            return (result.primitive, result.minimal.letters, len(result.certificate))
        if self.name == "oracle":
            return result
        import hashlib

        return result[0], hashlib.sha1(result[1].encode("utf-8")).hexdigest()

    def keep(self, i, result):
        if result is None:
            self.first.append(None)
        elif self.name == "descent":
            self.first.append(verdict_record(result))
        elif self.name == "oracle":
            self.first.append(sorted(list(w.letters) for w in result))
        else:
            with open(os.path.join(self.run_dir, f"out-{i}.txt"), "w", encoding="utf-8") as fh:
                fh.write(result[1])
            self.first.append({"code": result[0]})

    def extra(self):
        """Certificates for rank-3 pair outcomes, which the report omits."""
        if self.name != "closure":
            return None
        load = self.m["scenarios"].load_scenario
        closure_report = self.m["surgery"].closure_report
        out = {}
        for item in self.inputs:
            path = item.get("path")
            if path is None or path in out or item["rank"] != 3:
                continue
            report = closure_report(load(path))
            out[path] = [dict(verdict_record(v), word=list(o.boundary_word.letters))
                         for d in report.directions for o, v in d.entries]
        return out


def run_round(work, call, state, meter):
    times = []
    for i, (op, args) in enumerate(work.ops):
        started = CLOCK()
        try:
            result = op(call, *args)
        except Exception as exc:  # an operation that raises counts as failed
            times.append(CLOCK() - started)
            state["failed"] += 1
            if len(state["errors"]) < 5:
                state["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
            result, key = None, ("raised", type(exc).__name__)
        else:
            times.append(CLOCK() - started)
            if work.failed(result):
                state["failed"] += 1
            key = work.key(result)
        if state["rounds"] == 0:
            state["keys"].append(key)
            work.keep(i, result)
        elif key != state["keys"][i]:
            state["nondeterministic"] += 1
        meter.after(times[-1])
    state["rounds"] += 1
    return times


def main(argv):
    mode, workload, src, run_dir = argv[:4]
    modules, info, meter = setup(workload, src)
    import json

    if mode == "setup":
        print(json.dumps(info))
        return 0
    seconds = float(argv[4])
    with open(os.path.join(run_dir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    work = Workload(workload, modules, run_dir, inputs)
    state = {"failed": 0, "errors": [], "rounds": 0, "keys": [], "nondeterministic": 0}

    op_times, round_times, traced_times, round_speed = [], [], [], []
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer(modules)
    begun = time.perf_counter()
    while True:
        traced = tracer is not None and state["rounds"] % 2 == 1
        if traced:
            tracer.install()
            tracer.op_id = state["rounds"] * len(work.ops)
            times = run_round(work, traced_call(tracer), state, meter)
            tracer.uninstall()
            traced_times.append(sum(times))
            meter.take()
        else:
            times = run_round(work, plain, state, meter)
            op_times.extend(times)
            round_times.append(sum(times))
            round_speed.append(meter.take())
        elapsed = time.perf_counter() - begun
        if elapsed + elapsed / state["rounds"] / 2 >= seconds and (tracer is None or traced):
            break
    rss_kib = peak_rss_kib()

    results = dict(info, mode=mode, ops=len(work.ops), rounds=state["rounds"],
                   op_times=op_times, round_times=round_times, traced_times=traced_times,
                   round_speed=round_speed,
                   rss_kib=rss_kib, failed=state["failed"], errors=state["errors"],
                   nondeterministic=state["nondeterministic"], first=work.first,
                   extra=work.extra())
    if tracer is not None:
        results["layers"] = layer_figures(tracer, len(traced_times) * len(work.ops))
        write_trace(argv[5], workload, tracer)
    with open(os.path.join(run_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


def traced_call(tracer):
    def call(name, fn, *args):
        tracer.op_id += 1
        return tracer.call(name, fn, *args)
    return call


def layer_figures(tracer, traced_ops):
    """Per-operation totals over the traced rounds."""
    per_op = {}
    for name in set(tracer.calls):
        per_op[name + ".calls"] = tracer.calls[name] / traced_ops
        per_op[name + ".s"] = tracer.total[name] / traced_ops
        per_op[name + ".self_s"] = tracer.self_time[name] / traced_ops
    for name, value in tracer.counts.items():
        per_op[name] = value / traced_ops
    return per_op


def write_trace(path, workload, tracer):
    import json

    epoch = min((s[1] for s in tracer.spans), default=0.0)
    spans = [{"id": i, "name": n, "start_s": a - epoch, "end_s": b - epoch,
              "parent": p, "op": op} for i, (n, a, b, p, op) in enumerate(tracer.spans)]
    layers = {name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                     "self_s": tracer.self_time[name]} for name in sorted(tracer.calls)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "layers": layers, "counts": dict(tracer.counts),
                   "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
