"""Sweeps, derivatives, fits, and detection routines over the measure grids.

This is the reproduction layer: pseudo-critical points and their drift
exponents, logarithmic divergence fits of measure derivatives, finite-size
scaling, data collapse onto a homogeneous function, factorization-point
detection, bound-entanglement windows, and finite-vs-infinite fidelity.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import measures, sdp
from .linalg import matrix_sqrt_psd, trace_norm
from .xychain import ModelParams, SpinGeometry, factorization_lambda, rdm3

LAMBDA_C = 1.0
# a factorization dip counts as zero below this
ZERO_THRESHOLD = 1e-9
# a factorization dip must revive to this fraction of the window's maximum
REVIVAL_FRACTION = 1e-3
# bins of the inter-curve spread in `scaling_collapse`
COLLAPSE_BINS = 20
# widths at which the golden-section search of a factorization dip and the
# bisection of a bound-entanglement window edge stop
DIP_TOL = 1e-9
EDGE_TOL = 5e-5
# the coarse stage of `scan_pseudo_critical` first measures every this many
# points of the caller's lattice
COARSE_STRIDE = 10
# a fine stage of `scan_pseudo_critical` spans this many steps of the stage
# before it on each side of that stage's minimum
FINE_HALFWIDTH_STEPS = 2
# a fine stage measures the points within this many of its steps of its
# centre, and as many beyond a derivative minimum that lacks two
# central-difference neighbours: the parabolic fit's 5-point stencil plus
# one point of margin
FINE_RUN_STEPS = 3
MEASURE_COLUMNS = ("n3", "t3", "tau_ub", "tau_lb")
# the numeric columns of one grid point: the four measures, the negativities
# of the cuts 0 | 12, 1 | 02 and 2 | 01, and the concurrence of qubits 0, 1
POINT_COLUMNS = (*MEASURE_COLUMNS, "neg_i", "neg_j", "neg_k", "c_alpha")
SDP_COLUMNS = frozenset({"tau_ub"})


class WindowError(ValueError):
    pass


class FactorizationNotFound(RuntimeError):
    pass


class NonConvergedPoint(RuntimeError):
    """An E_kappa solve at a grid point did not converge."""

    def __init__(self, lam, status):
        self.lam = float(lam)
        self.status = status
        super().__init__(
            f"E_kappa solve did not converge at lambda={self.lam!r}: {status}"
        )


@dataclass
class FitResult:
    slope: float
    intercept: float
    rms_residual: float
    # the x range of the fitted points: ln|lambda - LAMBDA_C|, ln L, or L
    window: tuple
    n_points: int
    r_squared: float = float("nan")


@dataclass
class CriticalScan:
    length: int | None
    lambda_m: float
    min_derivative: float


@dataclass
class SweepTable:
    lambdas: np.ndarray
    columns: dict
    gamma: float
    alpha: int
    beta: int
    length: int | None = None

    @classmethod
    def from_rows(cls, lambdas, rows, gamma, alpha, beta, length):
        """The table of `measure_point` rows taken at `lambdas`, in order."""
        columns = {key: np.array([r[key] for r in rows]) for key in POINT_COLUMNS}
        columns["status"] = [r["status"] for r in rows]
        return cls(lambdas=lambdas, columns=columns, gamma=gamma, alpha=alpha,
                   beta=beta, length=length)

    def row(self, i):
        """The `measure_point` row of the table's i-th point."""
        return {key: self.columns[key][i] for key in (*POINT_COLUMNS, "status")}

    @property
    def spacing(self):
        diffs = np.diff(self.lambdas)
        if len(diffs) and (np.max(diffs) - np.min(diffs)) > 1e-9 * np.max(diffs):
            raise WindowError("grid spacing is not uniform")
        return float(diffs[0]) if len(diffs) else 0.0

    def require_converged(self):
        """Raise NonConvergedPoint at the first row whose solves did not converge.

        A table without a status column (no solver behind it) counts as
        converged.
        """
        for lam, status in zip(self.lambdas, self.columns.get("status", ())):
            if status != "ok":
                raise NonConvergedPoint(lam, status)


def grid(lo, hi, step):
    """The lambda grid lo, lo + step, ... up to hi inclusive (within step / 2)."""
    if not np.all(np.isfinite([lo, hi, step])):
        raise ValueError(f"lambda grid needs finite bounds and step, got {(lo, hi, step)}")
    if step <= 0:
        raise ValueError(f"lambda grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty lambda range: max {hi} < min {lo}")
    return np.arange(lo, hi + step / 2, step)


def measure_point(lam, gamma, alpha, beta, length=None, with_sdp=True):
    """The POINT_COLUMNS and the solver "status" at one grid point, as a plain
    dict; tau_ub is NaN without the SDP."""
    params = ModelParams(lam, gamma, length)
    rho = rdm3(SpinGeometry(alpha, beta), params)
    rec = measures.evaluate(rho.matrix, solve_ppt=sdp.e_ppt if with_sdp else None)
    tau_ub = rec.tau_ub if rec.tau_ub is not None else np.nan
    row = dict(zip(POINT_COLUMNS, (rec.n3, rec.t3, tau_ub, rec.tau_lb,
                                   *rec.negativities, rec.pair_concurrences[0])))
    row["status"] = rec.sdp_status
    return row


def _converged_point(lam, gamma, alpha, beta, length, with_sdp):
    """measure_point, or NonConvergedPoint where an E_kappa solve failed."""
    row = measure_point(lam, gamma, alpha, beta, length, with_sdp=with_sdp)
    if row["status"] != "ok":
        raise NonConvergedPoint(lam, row["status"])
    return row


def sweep(gamma, alpha, beta, lambdas, length=None, with_sdp=True, workers=1):
    """Evaluate the measure columns over a lambda grid."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("empty lambda grid")
    inputs = (lambdas, repeat(gamma), repeat(alpha), repeat(beta),
              repeat(length), repeat(with_sdp))
    if workers > 1 and len(lambdas) > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(measure_point, *inputs, chunksize=8))
    else:
        rows = list(map(measure_point, *inputs))
    return SweepTable.from_rows(lambdas, rows, gamma, alpha, beta, length)


def derivative(table, column):
    """Add a central-difference derivative column d_<column> to the table."""
    if len(table.lambdas) < 3:
        raise WindowError("need at least 3 rows for a derivative")
    h = table.spacing
    table.columns["d_" + column] = np.gradient(
        table.columns[column], h, edge_order=2
    )
    return table


def _converged_derivative(table, column):
    """d_<column> of a table whose solves all converged, added if missing."""
    table.require_converged()
    name = "d_" + column
    if name not in table.columns:
        derivative(table, column)
    return table.columns[name]


def pseudo_critical(table, column):
    """Locate the minimum of d_<column> by parabolic interpolation."""
    y = _converged_derivative(table, column)
    i = int(np.argmin(y))
    if i == 0 or i == len(y) - 1:
        raise WindowError(
            f"derivative minimum of {column} sits at the window edge "
            f"(lambda={table.lambdas[i]:.6f}); widen the scan window"
        )
    h = table.spacing
    denom = y[i + 1] - 2.0 * y[i] + y[i - 1]
    shift = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom * h
    lam_m = float(table.lambdas[i] + shift)
    min_val = float(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift / h)
    return CriticalScan(length=table.length, lambda_m=lam_m, min_derivative=min_val)


def _fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5:
        raise WindowError(f"need at least 5 points to fit, got {len(x)}")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    rms = float(np.sqrt(np.mean((pred - y) ** 2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((pred - y) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(
        slope=float(slope), intercept=float(intercept), rms_residual=rms,
        window=(float(np.min(x)), float(np.max(x))), n_points=len(x), r_squared=r2,
    )


def fit_log_divergence(table, column, window=(3e-4, 3e-2), side="below"):
    """Fit d_<column> = a * ln|lambda - LAMBDA_C| + b on one side of LAMBDA_C."""
    y = _converged_derivative(table, column)
    dist = table.lambdas - LAMBDA_C
    mask = (np.abs(dist) >= window[0]) & (np.abs(dist) <= window[1])
    if side == "below":
        mask &= dist < 0
    elif side == "above":
        mask &= dist > 0
    if np.count_nonzero(mask) < 5:
        raise WindowError("fit window selects fewer than 5 points")
    return _fit(np.log(np.abs(dist[mask])), y[mask])


def fit_finite_size(scans):
    """Fit min derivative vs ln L over a set of pseudo-critical scans."""
    if len(scans) < 5:
        raise WindowError(f"need at least 5 chain lengths, got {len(scans)}")
    x = np.log([s.length for s in scans])
    y = [s.min_derivative for s in scans]
    return _fit(x, y)


def fit_drift_exponent(scans):
    """Fit ln|lambda_m(L) - LAMBDA_C| vs ln L; slope is -theta."""
    x = np.log([s.length for s in scans])
    y = np.log([abs(s.lambda_m - LAMBDA_C) for s in scans])
    return _fit(x, y)


def _fine_run(lattice, column, gamma, alpha, beta, length, with_sdp,
              center=None, rows=None):
    """The table of a run of consecutive `lattice` points around `center`.

    `center` is a lattice index, the middle of the lattice by default.  The
    run starts FINE_RUN_STEPS points either side of it.  While the
    derivative minimum of the run lacks two central-difference neighbours
    on one side, the run grows to FINE_RUN_STEPS points beyond that
    minimum, unless it already reaches the lattice end on that side.
    `rows` maps lattice indices to `measure_point` rows taken before; every
    other point is measured once, in this process.
    """
    rows = {} if rows is None else rows
    last = len(lattice) - 1
    center = last // 2 if center is None else center
    lo, hi = max(center - FINE_RUN_STEPS, 0), min(center + FINE_RUN_STEPS, last)
    while True:
        for k in range(lo, hi + 1):
            if k not in rows:
                rows[k] = measure_point(lattice[k], gamma, alpha, beta, length,
                                        with_sdp=with_sdp)
        table = SweepTable.from_rows(lattice[lo:hi + 1],
                                     [rows[k] for k in range(lo, hi + 1)],
                                     gamma, alpha, beta, length)
        i = int(np.argmin(_converged_derivative(table, column)))
        if i < 2 and lo > 0:
            lo = max(lo + i - FINE_RUN_STEPS, 0)
        elif i > hi - lo - 2 and hi < last:
            hi = min(lo + i + FINE_RUN_STEPS, last)
        else:
            return table


def scan_pseudo_critical(gamma, alpha, beta, length, column,
                         coarse=(0.90, 1.05, 1e-3), workers=1):
    """Cascaded scans for the derivative minimum of one measure at finite L.

    The coarse stage works on the caller's lattice `grid(*coarse)`.  It
    sweeps every COARSE_STRIDE-th point of it, with `workers` processes;
    that subsample sweep is the only work `workers` spreads.  A run of the
    lattice then starts at the subsample's derivative minimum (at the
    lattice's middle when the subsample holds fewer than 3 points) and grows
    as a fine stage's run does.  The dip is a rounded logarithmic divergence
    about 1/L wide, far wider than the coarse step, so the subsample's
    minimum lies a few lattice points from the lattice's.  Where the
    lattice holds more than one local minimum of the derivative, say at a
    kink of a measure, the scan returns the one that the run reaches from
    the subsample's minimum, the lattice minimum nearest to it, which need
    not be the lowest.  A run that reaches the lattice end raises the
    window-edge WindowError of `pseudo_critical`, as a dip outside the
    caller's window should.

    Each fine stage then works on the lattice lambda_m ± FINE_HALFWIDTH_STEPS
    × (the step of the stage before it) around the previous minimum, at its
    own step: 1e-4, then 1e-5 from L >= 300, then 1e-6 from L >= 1000.  The
    dip narrows like 1/L, so longer chains earn extra stages; SDP-backed
    columns stop at 1e-5 where solver noise on the numerical derivative
    starts to matter.  A stage whose step is not finer than the step before
    it is skipped.

    A fine stage does not sweep its whole lattice.  It measures the
    2 × FINE_RUN_STEPS + 1 lattice points around its centre and grows that
    run towards the derivative minimum until the minimum has two
    central-difference neighbours on each side, which the parabolic fit of
    `pseudo_critical` reads, or the run reaches the lattice end.  Those few
    points run in this process whatever `workers` is.  Every lambda measured
    is a point of the stage's lattice, measured once, and the fit reads the
    same five points as on a sweep of the whole lattice wherever that
    lattice holds one derivative minimum.

    Between stages the minimum moves by a fraction of the previous step: at
    most 0.067 of it over the criterion-3/4 scans (gamma = 1, L = 41..2701),
    0.19 at gamma = 0.5, 0.57 at gamma = 0.2 and 1.07 at gamma = 0.1.  A
    fine-stage WindowError (the minimum at the lattice end) therefore means
    the stage before did not resolve the dip (its minimum moved by two of its
    steps or more), not that the caller's window is too narrow.
    """
    if length is None:
        raise ValueError("an infinite chain has no pseudo-critical point; give a length")
    if column not in POINT_COLUMNS:
        raise ValueError(f"unknown column {column!r}; expected one of {POINT_COLUMNS}")
    with_sdp = column in SDP_COLUMNS
    lattice = grid(*coarse)
    sample = sweep(gamma, alpha, beta, lattice[::COARSE_STRIDE], length=length,
                   with_sdp=with_sdp, workers=workers)
    center = None
    if len(sample.lambdas) >= 3:
        dips = _converged_derivative(sample, column)
        center = COARSE_STRIDE * int(np.argmin(dips))
    rows = {COARSE_STRIDE * j: sample.row(j) for j in range(len(sample.lambdas))}
    scan = pseudo_critical(
        _fine_run(lattice, column, gamma, alpha, beta, length, with_sdp,
                  center=center, rows=rows),
        column)
    steps = [1e-4]
    if length >= 300:
        steps.append(1e-5)
    if length >= 1000 and not with_sdp:
        steps.append(1e-6)
    previous = coarse[2]
    for step in steps:
        if step >= previous:
            continue
        center = scan.lambda_m
        halfwidth = FINE_HALFWIDTH_STEPS * previous
        lattice = grid(center - halfwidth, center + halfwidth, step)
        try:
            scan = pseudo_critical(
                _fine_run(lattice, column, gamma, alpha, beta, length, with_sdp),
                column)
        except WindowError as err:
            raise WindowError(
                f"fine stage at step {step:g} (window lambda={center:.9f} ± "
                f"{FINE_HALFWIDTH_STEPS} × previous step {previous:g}): the "
                f"previous stage did not resolve the dip of {column}"
            ) from err
        previous = step
    return scan


@dataclass
class CollapseResult:
    curves: dict                 # length -> (x, y) arrays
    spread: float                # worst binned inter-curve spread / data range
    window: tuple


def scaling_collapse(tables, column, scans=None, x_window=None):
    """Rescale derivative curves to (L*(lambda-lambda_m), d - d(lambda_m)).

    `tables` maps length -> SweepTable; a missing derivative column is added.
    The quality metric is the worst inter-curve spread over COLLAPSE_BINS
    bins inside `x_window` (default: the full common support), normalized by
    the data range over the common support.
    """
    curves = {}
    for length, table in tables.items():
        d = _converged_derivative(table, column)
        scan = (scans or {}).get(length) or pseudo_critical(table, column)
        y0 = float(np.interp(scan.lambda_m, table.lambdas, d))
        curves[length] = (length * (table.lambdas - scan.lambda_m), d - y0)
    full_lo = max(c[0].min() for c in curves.values())
    full_hi = min(c[0].max() for c in curves.values())
    lo, hi = x_window if x_window is not None else (full_lo, full_hi)

    def binned(a, b):
        edges = np.linspace(a, b, COLLAPSE_BINS + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return np.vstack([np.interp(mids, *curves[L]) for L in curves])

    stack = binned(lo, hi)
    spread = float(np.max(stack.max(axis=0) - stack.min(axis=0)))
    full = binned(full_lo, full_hi)
    data_range = float(full.max() - full.min())
    return CollapseResult(
        curves=curves,
        spread=spread / data_range if data_range > 0 else 0.0,
        window=(float(lo), float(hi)),
    )


@dataclass
class FactorizationDetection:
    lambda_detected: float
    dip_value: float


def _golden_minimize(fn, lo, hi):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > DIP_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return (0.5 * (a + b), min(fc, fd))


SUDDEN_CHANGE_COLUMNS = ("n3", "tau_ub")


def detect_factorization(evaluator, window, grid_step=2e-3):
    """Locate the coupling where a measure collapses to zero and revives.

    `evaluator` maps lambda -> measure value.  The detector finds the grid
    minimum, requires the measure to revive on both sides of it (one-sided
    deaths are rejected), then narrows the dip by golden-section search and
    checks it actually reaches zero.
    """
    lambdas = grid(*window, grid_step)
    vals = np.array([evaluator(l) for l in lambdas])
    i = int(np.argmin(vals))
    if i == 0 or i == len(vals) - 1:
        raise FactorizationNotFound("measure minimum at window edge")
    scale = float(np.max(vals))
    if scale <= ZERO_THRESHOLD:
        raise FactorizationNotFound("measure is zero over the whole window")
    left, right = vals[:i], vals[i + 1:]
    if min(left.max(), right.max()) < REVIVAL_FRACTION * scale:
        raise FactorizationNotFound(
            "no sudden change: measure does not revive on both sides of the dip"
        )
    lam, dip = _golden_minimize(evaluator, lambdas[i - 1], lambdas[i + 1])
    if dip > ZERO_THRESHOLD:
        raise FactorizationNotFound(
            f"dip bottom {dip:.3e} stays above the zero threshold"
        )
    return FactorizationDetection(lambda_detected=float(lam), dip_value=float(dip))


def measure_evaluator(column, gamma, alpha, beta, length=None):
    """lambda -> single measure column, for the detection routines."""
    with_sdp = column in SDP_COLUMNS

    def evaluate(lam):
        return _converged_point(lam, gamma, alpha, beta, length, with_sdp)[column]

    return evaluate


def detect_factorization_measure(column, gamma, alpha, beta, length=None,
                                 grid_step=2e-3):
    """Factorization-point detection for one measure of the XY chain.

    Scans lambda_f(gamma) ± 0.04 at `grid_step`, then narrows the dip as
    `detect_factorization` does.  Only n3 and tau_ub carry the sudden-change
    signature at a usable scale; t3 and tau_lb are rejected up front.
    """
    if column not in SUDDEN_CHANGE_COLUMNS:
        raise FactorizationNotFound(
            f"{column} is not a sudden-change indicator; use one of "
            f"{SUDDEN_CHANGE_COLUMNS}"
        )
    lam_f = factorization_lambda(gamma)
    evaluator = measure_evaluator(column, gamma, alpha, beta, length)
    return detect_factorization(evaluator, (lam_f - 0.04, lam_f + 0.04), grid_step)


@dataclass
class FactorizationScaling:
    lengths: np.ndarray
    values: np.ndarray           # measure at lambda_f per length
    fit: FitResult               # ln(value) vs L


def factorization_scaling(gamma, alpha, beta, column, lengths):
    """One measure at lambda_f(gamma) on each finite length, with the fit of
    its logarithm against L; an unconverged point raises NonConvergedPoint."""
    lam_f = factorization_lambda(gamma)
    with_sdp = column in SDP_COLUMNS
    vals = np.array([_converged_point(lam_f, gamma, alpha, beta, int(L), with_sdp)[column]
                     for L in lengths])
    lengths = np.asarray(lengths, dtype=int)
    fit = _fit(lengths, np.log(np.clip(vals, 1e-300, None)))
    return FactorizationScaling(lengths=lengths, values=vals, fit=fit)


@dataclass
class BoundWindow:
    lo: float
    hi: float
    max_tau_ub: float
    min_tau_ub: float
    max_neg_outer: float         # max over the window of N(i|jk), should be ~0


def _bisect_edge(flag_fn, lam_in, lam_out):
    """Bisect the boundary between a flagged and an unflagged point."""
    a, b = lam_in, lam_out
    while abs(b - a) > EDGE_TOL:
        mid = 0.5 * (a + b)
        if flag_fn(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def bound_entanglement_scan(gamma, alpha, beta, lambdas, length=None,
                            tau_threshold=1e-12, workers=1):
    """Windows where the outer cut is PPT yet the state stays correlated.

    A grid point is flagged when N(rho_{i|jk}) < measures.NEG_ZERO_TOL while
    there is still entanglement evidence: tau_ub above threshold or one of
    the other two cuts NPT.  All three partition negativities are recorded.
    Each window edge next to an unflagged grid point is bisected to within
    EDGE_TOL.
    """

    def flagged(row):
        # row: one measure_point dict, or the columns of a whole table
        evidence = ((row["tau_ub"] > tau_threshold)
                    | (row["neg_j"] > measures.NEG_ZERO_TOL)
                    | (row["neg_k"] > measures.NEG_ZERO_TOL))
        return (row["neg_i"] < measures.NEG_ZERO_TOL) & evidence

    def flag_at(lam):
        return flagged(_converged_point(lam, gamma, alpha, beta, length, with_sdp=True))

    table = sweep(gamma, alpha, beta, lambdas, length=length, with_sdp=True,
                  workers=workers)
    table.require_converged()
    neg_outer = table.columns["neg_i"]
    tau = table.columns["tau_ub"]
    flags = flagged(table.columns)

    windows = []
    i = 0
    n = len(lambdas)
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        lo, hi = float(lambdas[i]), float(lambdas[j])
        if i > 0:
            lo = _bisect_edge(flag_at, lambdas[i], lambdas[i - 1])
        if j + 1 < n:
            hi = _bisect_edge(flag_at, lambdas[j], lambdas[j + 1])
        inside = slice(i, j + 1)
        windows.append(
            BoundWindow(
                lo=lo, hi=hi,
                max_tau_ub=float(np.max(tau[inside])),
                min_tau_ub=float(np.min(tau[inside])),
                max_neg_outer=float(np.max(neg_outer[inside])),
            )
        )
        i = j + 1
    return windows


def fidelity(rho_a, rho_b):
    """Uhlmann fidelity Tr sqrt(sqrt(a) b sqrt(a)), in [0, 1].

    Evaluated as the trace norm of sqrt(a) sqrt(b), which is the same
    quantity but much better conditioned when either state is nearly
    singular (no square root of near-zero products is needed).
    """
    a, b = np.asarray(rho_a), np.asarray(rho_b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    val = trace_norm(matrix_sqrt_psd(a) @ matrix_sqrt_psd(b))
    return min(max(val, 0.0), 1.0)
