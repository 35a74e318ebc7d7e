"""Span tracing and call counting around the package's public functions.

Spans are recorded from outside the package: every module attribute that is
bound to a traced function (the defining module and every `from ... import`
copy) is replaced by a wrapper for the duration of a traced solution, then
restored.  Spans stay in memory and are reduced to per-function call counts
and self times when the run ends.
"""

import functools
import statistics
import sys
import time
import types
from collections import Counter

PACKAGE = "xymqc"

# Wrapped with a span: (module, attribute).
SPAN_TARGETS = (
    ("cli", "main"),
    ("analysis", "sweep"),
    ("analysis", "measure_point"),
    ("xychain", "rdm3"),
    ("xychain", "g_infinite"),
    ("xychain", "g_finite"),
    ("measures", "evaluate"),
    ("measures", "concurrence"),
    ("sdp", "e_ppt"),
    ("sdp", "solve_kappa"),
    ("edsim", "build_hamiltonian"),
    ("edsim", "reference_state"),
    ("edsim", "reduced_state"),
)

# Counted only: these calls take microseconds, so a span would distort them.
COUNT_TARGETS = (
    ("linalg", "partial_trace"),
    ("linalg", "partial_transpose"),
    ("linalg", "trace_norm"),
    ("linalg", "DensityMatrix.validate"),
)

# Span names under this prefix are harness work done inside a traced call
# (the certificate probe).  They are subtracted from their parent's self time
# and left out of every reported figure.
HARNESS_PREFIX = "bench."


class TraceCheckError(RuntimeError):
    """The instrumentation saw calls that contradict the workload's design."""


class Tracer:
    """In-memory span log plus counters, for one single-threaded process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.rdm3_keys = set()
        self.rdm3_repeats = 0
        self.kappa_iterations = 0
        self.kappa_failed = 0
        self.certificate_hits = 0
        self.certificate_probes = 0
        self._stack = []
        self._suspended = 0

    def span(self, name, fn, after=None):
        """Wrap `fn` so that each call records a span and optional extras."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._suspended:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def harness(self, name, fn, *args):
        """Run harness code inside a traced call: own span, no counting."""
        record = [HARNESS_PREFIX + name, 0.0, 0.0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._suspended += 1
        record[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter()
            self._suspended -= 1

    def harness_seconds(self):
        return sum(end - start for name, start, end, _ in self.spans
                   if name.startswith(HARNESS_PREFIX))


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    `spans` is a list of (name, start, end, parent index or -1) with parents
    listed before their children.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """{name: (calls, self seconds)} over every span not owned by the harness."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        if span[0].startswith(HARNESS_PREFIX):
            continue
        calls, secs = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, secs + own)
    return totals


def tail_percentile(samples, beyond=10):
    """(percentile, value, samples beyond) for the highest nearest-rank
    percentile that leaves at least `beyond` samples above it.

    With fewer than `beyond + 1` samples no percentile qualifies; the maximum
    is returned as the 100th percentile with the true count beyond it (0).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100.0, xs[-1], 0
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1], beyond


def block_tail(samples, block=200, beyond=10):
    """Median over consecutive blocks of `block` samples of each block's
    `tail_percentile`; the remainder after the last full block is dropped.

    A single tail over thousands of ops sits at p99.9 and reads the host's
    rare stalls; per block it stays at one percentile whatever the run's
    length.  Returns (percentile, value, samples beyond per block, blocks).
    """
    samples = list(samples)
    count = max(len(samples) // block, 1)
    size = block if len(samples) >= block else len(samples)
    tails = [tail_percentile(samples[i * size:(i + 1) * size], beyond)
             for i in range(count)]
    pct, _, n_beyond = tails[0]
    return pct, statistics.median(t[1] for t in tails), n_beyond, count


def check_calls(totals, must_call, must_not_call):
    """Raise TraceCheckError when a dominant function saw no calls, or an
    idle one saw some."""
    missing = [name for name in must_call if totals.get(name, (0, 0.0))[0] == 0]
    if missing:
        raise TraceCheckError(
            f"wrapper saw no calls to {', '.join(missing)}; "
            "a binding was not patched or the workload no longer reaches it"
        )
    stray = [name for name in must_not_call if totals.get(name, (0, 0.0))[0] > 0]
    if stray:
        raise TraceCheckError(f"unexpected calls to {', '.join(stray)}")


def _resolve(module, attr):
    obj = sys.modules[f"{PACKAGE}.{module}"]
    owner, _, leaf = attr.rpartition(".")
    if owner:
        obj = getattr(obj, owner)
    return obj, leaf


def bindings(original):
    """Every (namespace, name) in the package that is bound to `original`."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for name, value in vars(module).items():
            if value is original:
                found.append((module, name))
    return found


class Patch:
    """Swap every binding of each target for its wrapper; undo on exit."""

    def __init__(self):
        self._undo = []
        self._replacements = []      # (module, attr, wrapper factory)

    def add(self, module, attr, make_wrapper):
        self._replacements.append((module, attr, make_wrapper))

    def __enter__(self):
        for module, attr, make_wrapper in self._replacements:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf, None)
            if original is None:
                continue            # target gone from the package: no calls
            wrapper = make_wrapper(original)
            targets = [(owner, leaf)]
            if isinstance(owner, types.ModuleType):
                targets = bindings(original)
            for namespace, name in targets:
                self._undo.append((namespace, name, original))
                setattr(namespace, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            namespace, name, original = self._undo.pop()
            setattr(namespace, name, original)
        return False
