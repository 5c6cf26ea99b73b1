"""Benchmark: compiled kernel core vs pure-Python fallback.

Micro-benchmarks call both backends in-process; the end-to-end rows run
a fresh interpreter per backend with DISKSURGERY_KERNEL set, since the
package binds its kernels at import.

    python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import os
import random
import subprocess
import sys
import time

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)

from disksurgery._kernels import available_backends, load_backend  # noqa: E402
from disksurgery.primitivity import enumerate_whitehead_autos  # noqa: E402


def random_words(count, rank, length, seed=1234):
    rng = random.Random(seed)
    alphabet = [i for i in range(-rank, rank + 1) if i != 0]
    return [tuple(rng.choice(alphabet) for _ in range(length)) for _ in range(count)]


def timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def micro_rows(quick):
    count = 2_000 if quick else 20_000
    words = random_words(count, 3, 48)
    autos = enumerate_whitehead_autos(3)[:16]

    def bench_simple(backend, name):
        fn = getattr(backend, name)
        return timed(lambda: [fn(w) for w in words])

    def bench_apply(backend):
        fn = backend.apply_images_canonical
        return timed(lambda: [fn(w, a._flat, a._offsets) for w in words[: count // 4] for a in autos])

    rows = []
    for name in ("free_reduce", "cyclic_reduce", "canonical_cyclic"):
        rows.append((f"{name} x{count}",
                     {b: bench_simple(load_backend(b), name) for b in available_backends()}))
    rows.append((f"apply_images_canonical x{count // 4 * len(autos)}",
                 {b: bench_apply(load_backend(b)) for b in available_backends()}))
    return rows


END_TO_END = """
import time
from disksurgery import is_primitive, oracle_primitives, CyclicWord
import itertools
started = time.perf_counter()
truth = oracle_primitives(2, {max_len})
alphabet = [1, -1, 2, -2]
classes = set()
for L in range({max_len} + 1):
    for combo in itertools.product(alphabet, repeat=L):
        classes.add(CyclicWord(combo))
for c in classes:
    assert is_primitive(c, 2).primitive == (c in truth)
print(time.perf_counter() - started)
"""


def end_to_end_row(quick):
    max_len = 6 if quick else 8
    results = {}
    for backend in available_backends():
        # The child imports this checkout's src/, as the parent does.
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, DISKSURGERY_KERNEL=backend,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, inherited])))
        out = subprocess.run([sys.executable, "-c", END_TO_END.format(max_len=max_len)],
                             capture_output=True, text=True, check=True, env=env)
        results[backend] = float(out.stdout.strip())
    return (f"oracle sweep rank 2 len<={max_len} (subprocess)", results)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    backends = available_backends()
    print(f"backends: {', '.join(backends)}")
    if "compiled" not in backends:
        print("compiled core not built; run `python setup.py build_ext --inplace`")

    rows = micro_rows(args.quick)
    rows.append(end_to_end_row(args.quick))

    width = max(len(name) for name, _ in rows) + 2
    header = f"{'workload':<{width}}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for name, results in rows:
        line = f"{name:<{width}}" + "".join(f"{results[b]:>11.3f}s" for b in backends)
        if len(backends) == 2:
            line += f"{results['pure'] / results['compiled']:>9.1f}x"
        print(line)


if __name__ == "__main__":
    main()
