"""The machine's speed, measured beside the operations it times.

The shared host these figures come from changes speed by up to 1.5x for
tens of seconds at a time (most likely other tenants' load on the same
cores), and that alone pushed time metrics past their bounds between
runs of identical code. So the worker runs a fixed piece of harness-owned
pure-Python work (``chunk``) between the operations, about ``SHARE`` of
their time, and ``run.py`` scales every time by REFERENCE_S over the mean
chunk time measured with it. A reported time is then the time the
operation would take on a machine that runs a chunk in REFERENCE_S;
REFERENCE_S is the typical chunk time on that host, so the scaled
figures read within about a fifth of the raw ones. The chunk never
touches ``disksurgery``: a change to the program can move it only
through the caches an operation leaves, which ``Meter.after`` largely
absorbs.

With chunks interleaved between ``closure`` operations, the scaled round
time had a coefficient of variation of 2.3% over 150 s where the raw
round time had 6.9%.
"""

from __future__ import annotations

import gc
import time

CLOCK = time.process_time
SHARE = 0.1  # chunk time per unit of operation time
REFERENCE_S = 0.0009  # typical CPU time of one chunk on the reference host


def _words():
    """Fixed signed words over three letters, from a fixed LCG."""
    x, words = 12345, []
    for _ in range(18):
        word = []
        for _ in range(24):
            x = (1103515245 * x + 12345) % 2 ** 31
            letter = (x >> 16) % 3 + 1
            word.append(letter if (x >> 20) % 2 else -letter)
        words.append(tuple(word))
    return words


WORDS = _words()


def _reduce(word):
    out = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def chunk():
    """Run the fixed work once; return its CPU time.

    The collector is off meanwhile, so a collection of the program's
    heap never lands in a chunk (the chunk makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    started = CLOCK()
    seen = {}
    for word in WORDS:
        r = _reduce(word + word[::-1] + word)
        key = min(r[i:] + r[:i] for i in range(len(r))) if r else r
        seen[key] = seen.get(key, 0) + 1
    elapsed = CLOCK() - started
    if enabled:
        gc.enable()
    return elapsed


class Meter:
    """Chunks run after operations, in proportion to their time, plus one
    uncounted chunk after each."""

    def __init__(self):
        chunk()  # warm the chunk's code before any is timed
        self.seconds = 0.0
        self.chunks = 0
        self._owed = 0.0

    def after(self, op_seconds):
        # The first chunk after an operation runs about 10% slower, on caches
        # the operation left; it is not counted, so the speed read does not
        # depend on how many chunks follow each operation.
        chunk()
        self._owed += SHARE * op_seconds
        while self._owed > 0:
            spent = chunk()
            self.seconds += spent
            self.chunks += 1
            self._owed -= spent

    def take(self):
        """(chunks, their CPU time) since the last take."""
        taken = (self.chunks, self.seconds)
        self.chunks, self.seconds = 0, 0.0
        return taken


def scale(chunks, seconds):
    """Factor that turns a time measured beside these chunks into
    reference time."""
    return REFERENCE_S * chunks / seconds
