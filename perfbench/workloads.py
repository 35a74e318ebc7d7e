"""The benchmark's workloads: seeded inputs, one solution each, and checks.

A *solution* is the unit a user waits for (one CLI scan, one cascaded
pseudo-critical scan, one pass of ED cross-checks); an *op* is the unit whose latency is
recorded (one `analysis.measure_point` call, or one `verify` call).  Every
solution draws a fresh sub-step grid offset from the seeded generator, so no
solution can reuse correlators cached by another.
"""

import contextlib
import io
import json
import time
from pathlib import Path

from xymqc import analysis, cli

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
WORKERS = 1      # explicit, so that XYMQC_WORKERS cannot change a run


class OpLog:
    """Latency and outcome of every op, in call order."""

    def __init__(self):
        self.latencies = []
        self.ok = []

    def record(self, seconds, ok):
        self.latencies.append(seconds)
        self.ok.append(bool(ok))

    def fail_since(self, mark):
        """Count every op from index `mark` on as failed (its solution failed)."""
        self.ok[mark:] = [False] * (len(self.ok) - mark)


class CliRunner:
    """Calls `cli.main` with stdout captured; counts the bytes it wrote."""

    def __init__(self):
        self.output_bytes = 0

    def __call__(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        self.output_bytes += len(text.encode())
        return code, text


def op_timer(oplog):
    """Wrapper factory timing each `measure_point` call as one op."""

    def make(fn):
        def op(*args, **kwargs):
            start = time.perf_counter()
            row = None
            try:
                row = fn(*args, **kwargs)
            finally:
                oplog.record(time.perf_counter() - start,
                             row is not None and row["status"] == "ok")
            return row

        return op

    return make


def json_payload(text):
    """The JSON document a CLI command printed after its '#' header lines."""
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    payload, _ = json.JSONDecoder().raw_decode(body.lstrip())
    return payload


class Workload:
    """Seeded inputs, one solution, and its check.

    `op_target` names the package function timed as one op (None: the
    workload times its own ops).  The traced run fails when a function in
    `must_call` saw no calls or one in `must_not_call` saw any.
    """

    name = ""
    op_target = None
    must_call = ()
    must_not_call = ()

    def __init__(self):
        self.cli = CliRunner()
        self.ref = REFERENCE[self.name]


class BoundScanSdp(Workload):
    """Criterion 6 as users run it: `xymqc boundscan` with the SDP on."""

    name = "boundscan_sdp"
    op_target = ("analysis", "measure_point")
    must_call = ("sdp.solve_kappa",)

    def warm_up(self):
        analysis.measure_point(0.5, 0.5, 4, 4, None, with_sdp=True)

    def inputs(self, rng):
        step = self.ref["step"]
        offset = rng.uniform(0.0, step)
        lo, hi = self.ref["lambda_range"]
        return [
            "boundscan", "--gamma", "0.5", "--alpha", "4", "--beta", "4",
            "--infinite", "--lambda-min", repr(lo + offset),
            "--lambda-max", repr(hi + offset), "--step", repr(step),
            "--workers", str(WORKERS),
        ]

    def solve(self, argv, oplog):
        code, text = self.cli(argv)
        return code == 0 and self.check(json_payload(text))

    def check(self, windows):
        ref = self.ref
        (lo1, hi1), tol = ref["window1"], ref["window1_tol"]
        lo2, hi2 = ref["window2_overlap"]
        first = [w for w in windows
                 if abs(w["lo"] - lo1) <= tol and abs(w["hi"] - hi1) <= tol]
        second = [w for w in windows
                  if w["lo"] < hi2 and w["hi"] > lo2 and w not in first]
        return bool(first) and bool(second) and all(
            w["max_neg_outer"] < ref["neg_outer_max"] for w in (first[0], second[0])
        )


class FssN3(Workload):
    """Criteria 3/4 pipeline without the SDP: the cascaded n3 scan at L=2701.

    One length keeps the op latencies unimodal, so their median is stable;
    at L=2701 all four cascade stages run.
    """

    name = "fss_n3"
    op_target = ("analysis", "measure_point")
    must_call = ("xychain.g_finite",)
    must_not_call = ("sdp.solve_kappa",)

    def warm_up(self):
        analysis.measure_point(0.5, 1.0, 2, 1, 41, with_sdp=False)

    def inputs(self, rng):
        lo, hi, step = self.ref["coarse"]
        offset = rng.uniform(0.0, step)
        return (lo + offset, hi + offset, step)

    def solve(self, coarse, oplog):
        ref = self.ref
        scan = analysis.scan_pseudo_critical(
            1.0, 2, 1, ref["length"], "n3", coarse=coarse, workers=WORKERS
        )
        return (
            abs(scan.lambda_m - ref["lambda_m"]) <= ref["lambda_tol"]
            and abs(scan.min_derivative - ref["min_derivative"])
            <= ref["min_derivative_tol"]
        )


class EdOracle(Workload):
    """Criterion 1: `xymqc verify` against exact diagonalization.

    L=11 gets more lambda points than L=13 so that the median op falls
    inside the tight L=11 latency cluster, not between clusters.
    """

    name = "ed_oracle"
    must_call = ("edsim.reference_state",)
    must_not_call = ("sdp.solve_kappa",)

    def warm_up(self):
        self.cli(["verify", "--L", "5", "--lambda", "0.3", "--gamma", "0.7"])

    def inputs(self, rng):
        step = self.ref["lambda_step"]
        offset = rng.uniform(0.0, step)
        return [
            (int(length), lam + offset, gamma)
            for length, lambdas in self.ref["lambdas"].items()
            for gamma in self.ref["gammas"]
            for lam in lambdas
        ]

    def solve(self, cases, oplog):
        ok = True
        for length, lam, gamma in cases:
            argv = ["verify", "--L", str(length), "--lambda", repr(lam),
                    "--gamma", repr(gamma)]
            start = time.perf_counter()
            code, text = self.cli(argv)
            elapsed = time.perf_counter() - start
            good = code == 0 and self.check(text)
            oplog.record(elapsed, good)
            ok &= good
        return ok

    def check(self, text):
        lines = text.splitlines()
        worst = [l for l in lines if l.strip().startswith("worst rdm3 deviation")]
        return (
            "verify: PASS" in lines and len(worst) == 1
            and float(worst[0].split()[3]) < self.ref["max_deviation"]
        )


WORKLOADS = {w.name: w for w in (BoundScanSdp, FssN3, EdOracle)}
