"""xymqc benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The workload repeats whole solutions, each on a freshly seeded
grid, until `--seconds` have passed (at least one solution, two when
tracing).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the
environment and the details behind the metrics.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced solutions and reports per-layer calls and self times (means per
traced solution) plus the tracing overhead.
"""

import os

# Fixed before numpy loads: BLAS threads change timings run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set-up probe: import, warm up, print 'ready', exit")
    return p.parse_args(argv)


def load_package():
    """Import the package from this checkout's `src/`, nowhere else."""
    if not (SRC / "xymqc" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import xymqc
    if Path(xymqc.__file__).resolve().parent != SRC / "xymqc":
        raise SystemExit(f"error: imported xymqc from {xymqc.__file__}, not {SRC}")


def setup_seconds(workload):
    """Median time from spawning a fresh process until its first op can run."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed (exit {code})")
    return statistics.median(samples), samples


def environment(args):
    import numpy
    import scipy
    from workloads import WORKERS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"          # the checkout need not be a git repository
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "xymqc").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": WORKERS,
    }


def instrument(tracer):
    """Span and count wrappers for a traced solution, as one Patch."""
    from xymqc import sdp

    def note_rdm3(args, kwargs, result):
        params = args[1] if len(args) > 1 else kwargs["params"]
        key = (params.lam, params.gamma, params.length)
        tracer.rdm3_repeats += key in tracer.rdm3_keys
        tracer.rdm3_keys.add(key)

    def note_kappa(args, kwargs, solution):
        tracer.kappa_iterations += solution.iterations
        tracer.kappa_failed += solution.status != "converged"

    def with_certificate(fn):
        traced = tracer.span("sdp.e_ppt", fn)

        def e_ppt(rho, dims=(2, 2, 2), center=0):
            tracer.certificate_probes += 1
            tracer.certificate_hits += bool(
                tracer.harness("certificate", sdp.binegativity_is_psd,
                               rho, dims, center)
            )
            return traced(rho, dims, center)

        return e_ppt

    after = {"xychain.rdm3": note_rdm3, "sdp.solve_kappa": note_kappa}
    patch = tracing.Patch()
    for module, attr in tracing.SPAN_TARGETS:
        name = f"{module}.{attr}"
        if name == "sdp.e_ppt":
            patch.add(module, attr, with_certificate)
        else:
            patch.add(module, attr,
                      lambda fn, name=name: tracer.span(name, fn, after.get(name)))
    for module, attr in tracing.COUNT_TARGETS:
        name = f"{module}.{attr}"
        patch.add(module, attr, lambda fn, name=name: tracer.counter(name, fn))
    return patch


def run_loop(workload, args):
    """Solutions until the time is up; returns (solutions, oplog, tracer,
    loop seconds)."""
    from workloads import OpLog, op_timer

    rng = random.Random(args.seed)
    oplog = OpLog()
    tracer = tracing.Tracer() if args.trace else None
    solutions = []       # (wall seconds, traced, ok, output bytes)
    min_solutions = 2 if args.trace else 1
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(solutions) < min_solutions):
        traced = bool(args.trace) and len(solutions) % 2 == 1
        inputs = workload.inputs(rng)
        mark, bytes_before = len(oplog.ok), workload.cli.output_bytes
        patch = tracing.Patch()
        if workload.op_target is not None:
            patch.add(*workload.op_target, op_timer(oplog))
        with contextlib.ExitStack() as stack:
            stack.enter_context(patch)
            if traced:
                stack.enter_context(instrument(tracer))
            t0 = time.perf_counter()
            try:
                ok = workload.solve(inputs, oplog)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            wall = time.perf_counter() - t0
        if not ok:
            oplog.fail_since(mark)
        solutions.append((wall, traced, ok, workload.cli.output_bytes - bytes_before))
    return solutions, oplog, tracer, time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(solutions, oplog, loop_s, setup_s):
    ok_ops = sum(oplog.ok)
    pct, tail, beyond, blocks = tracing.block_tail(oplog.latencies)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(s[0] for s in solutions), "s"),
        "ops_per_s": metric(len(oplog.ok) / loop_s, "1/s"),
        "op_ms_p50": metric(1e3 * statistics.median(oplog.latencies), "ms"),
        "op_ms_tail": metric(1e3 * tail, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": metric(ok_ops / len(oplog.ok), "frac"),
    }
    detail = {"tail_percentile": pct, "tail_samples_beyond": beyond,
              "tail_blocks": blocks, "ops": len(oplog.ok),
              "solutions": len(solutions),
              "loop_s": loop_s}
    return metrics, detail


def per_layer(solutions, tracer, workload):
    traced = [s for s in solutions if s[1]]
    plain = [s for s in solutions if not s[1]]
    n = len(traced)
    totals = tracing.summarize(tracer.spans)
    tracing.check_calls(totals, workload.must_call, workload.must_not_call)
    metrics = {}
    for module, attr in tracing.SPAN_TARGETS:
        calls, secs = totals.get(f"{module}.{attr}", (0, 0.0))
        metrics[f"{module}.{attr}.calls"] = metric(calls / n, "count/solution")
        metrics[f"{module}.{attr}.self_s"] = metric(secs / n, "s/solution")
    for module, attr in tracing.COUNT_TARGETS:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = metric(tracer.counts[name] / n, "count/solution")
    traced_s = sum(secs for _, secs in totals.values())
    for module in ("cli", "analysis", "xychain", "measures", "sdp", "edsim"):
        own = sum(secs for name, (_, secs) in totals.items()
                  if name.startswith(module + "."))
        metrics[f"{module}.self_share"] = metric(
            own / traced_s if traced_s else 0.0, "frac")
    rdm3_calls = totals.get("xychain.rdm3", (0, 0.0))[0]
    kappa_calls = totals.get("sdp.solve_kappa", (0, 0.0))[0]
    metrics["xychain.rdm3.repeat_frac"] = metric(
        tracer.rdm3_repeats / rdm3_calls if rdm3_calls else 0.0, "frac")
    metrics["sdp.solve_kappa.iters_mean"] = metric(
        tracer.kappa_iterations / kappa_calls if kappa_calls else 0.0, "count")
    metrics["sdp.solve_kappa.failed"] = metric(tracer.kappa_failed / n, "count/solution")
    metrics["sdp.e_ppt.certificate_frac"] = metric(
        tracer.certificate_hits / tracer.certificate_probes
        if tracer.certificate_probes else 0.0, "frac")
    metrics["cli.output_bytes"] = metric(
        statistics.mean(s[3] for s in traced), "B/solution")
    harness_s = tracer.harness_seconds() / n
    metrics["trace.overhead_frac"] = metric(
        (statistics.median(s[0] for s in traced) - harness_s)
        / statistics.median(s[0] for s in plain) - 1.0, "frac")
    return metrics, {"traced_solutions": n, "untraced_solutions": len(plain),
                     "harness_s_per_solution": harness_s}


def main(argv=None):
    args = parse_args(argv)
    t_process = time.perf_counter()
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workload.warm_up()
    if args.probe:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - t_process

    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = setup_seconds(args.workload)

    solutions, oplog, tracer, loop_s = run_loop(workload, args)
    correct = all(s[2] for s in solutions) and all(oplog.ok)
    if args.trace:
        try:
            metrics, detail = per_layer(solutions, tracer, workload)
        except tracing.TraceCheckError as exc:
            raise SystemExit(f"error: traced run failed its check: {exc}")
    else:
        metrics, detail = end_to_end(solutions, oplog, loop_s, setup_s)
        detail["setup_samples_s"] = setup_samples
    detail["in_process_setup_s"] = own_setup_s
    detail["solution_wall_s"] = [s[0] for s in solutions]

    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(oplog.ok),
        "failed": len(oplog.ok) - sum(oplog.ok),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
