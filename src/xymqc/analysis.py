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
ZERO_THRESHOLD = 1e-9
# a factorization dip must revive to this fraction of the window's maximum
REVIVAL_FRACTION = 1e-3
# bins of the inter-curve spread in `scaling_collapse`
COLLAPSE_BINS = 20
MEASURE_COLUMNS = ("n3", "t3", "tau_ub", "tau_lb")
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
    """All measure columns at one grid point, as a plain dict."""
    params = ModelParams(lam, gamma, length)
    rho = rdm3(SpinGeometry(alpha, beta), params)
    rec = measures.evaluate(
        rho.matrix, rho.dims, solve_ppt=sdp.e_ppt if with_sdp else None
    )
    return {
        "lambda": lam,
        "n3": rec.n3,
        "t3": rec.t3,
        "tau_ub": rec.tau_ub if rec.tau_ub is not None else np.nan,
        "tau_lb": rec.tau_lb,
        "neg_i": rec.bipartite_negativities[0],
        "neg_j": rec.bipartite_negativities[1],
        "neg_k": rec.bipartite_negativities[2],
        "c_alpha": rec.concurrence_01,
        "status": rec.sdp_status,
    }


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
    columns = {
        key: np.array([r[key] for r in rows])
        for key in rows[0]
        if key not in ("lambda", "status")
    }
    columns["status"] = [r["status"] for r in rows]
    return SweepTable(
        lambdas=lambdas, columns=columns, gamma=gamma, alpha=alpha, beta=beta,
        length=length,
    )


def derivative(table, column):
    """Add a central-difference derivative column d_<column> to the table."""
    if len(table.lambdas) < 3:
        raise WindowError("need at least 3 rows for a derivative")
    h = table.spacing
    table.columns["d_" + column] = np.gradient(
        table.columns[column], h, edge_order=2
    )
    return table


def pseudo_critical(table, column):
    """Locate the minimum of d_<column> by parabolic refinement."""
    table.require_converged()
    name = "d_" + column
    if name not in table.columns:
        derivative(table, column)
    y = table.columns[name]
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
    table.require_converged()
    name = "d_" + column
    if name not in table.columns:
        derivative(table, column)
    dist = table.lambdas - LAMBDA_C
    mask = (np.abs(dist) >= window[0]) & (np.abs(dist) <= window[1])
    if side == "below":
        mask &= dist < 0
    elif side == "above":
        mask &= dist > 0
    if np.count_nonzero(mask) < 5:
        raise WindowError("fit window selects fewer than 5 points")
    return _fit(np.log(np.abs(dist[mask])), table.columns[name][mask])


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


def scan_pseudo_critical(gamma, alpha, beta, length, column,
                         coarse=(0.90, 1.05, 1e-3), workers=1):
    """Cascaded scans for the derivative minimum of one measure at finite L.

    Each stage re-scans a narrower window around the previous minimum with
    a finer grid.  The dip narrows like 1/L, so longer chains earn extra
    stages; SDP-backed columns stop at 1e-5 where solver noise on the
    numerical derivative starts to matter.
    """
    with_sdp = column in SDP_COLUMNS
    tbl = sweep(gamma, alpha, beta, grid(*coarse), length=length,
                with_sdp=with_sdp, workers=workers)
    scan = pseudo_critical(tbl, column)
    stages = [(1e-4, 6e-3)]
    if length >= 300:
        stages.append((1e-5, 8e-4))
    if length >= 1000 and not with_sdp:
        stages.append((1e-6, 8e-5))
    for fine_step, halfwidth in stages:
        center = scan.lambda_m
        tbl = sweep(gamma, alpha, beta,
                    grid(center - halfwidth, center + halfwidth, fine_step),
                    length=length, with_sdp=with_sdp, workers=workers)
        scan = pseudo_critical(tbl, column)
    return scan


@dataclass
class CollapseResult:
    curves: dict                 # length -> (x, y) arrays
    spread: float                # worst binned inter-curve spread / data range
    window: tuple


def scaling_collapse(tables, column, scans=None, x_window=None):
    """Rescale derivative curves to (L*(lambda-lambda_m), d - d(lambda_m)).

    `tables` maps length -> SweepTable with the derivative column present.
    The quality metric is the worst inter-curve spread over COLLAPSE_BINS
    bins inside `x_window` (default: the full common support), normalized by
    the data range over the common support.
    """
    curves = {}
    for length, table in tables.items():
        table.require_converged()
        name = "d_" + column
        if name not in table.columns:
            derivative(table, column)
        scan = (scans or {}).get(length) or pseudo_critical(table, column)
        y0 = float(np.interp(scan.lambda_m, table.lambdas, table.columns[name]))
        x = length * (table.lambdas - scan.lambda_m)
        y = table.columns[name] - y0
        curves[length] = (x, y)
    if len(curves) == 1:
        only = next(iter(curves.values()))
        return CollapseResult(curves=curves, spread=0.0,
                              window=(float(only[0].min()), float(only[0].max())))
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
    window: tuple


def _golden_minimize(fn, lo, hi, tol=1e-9):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
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
    deaths are rejected), then refines the dip by golden-section search and
    checks it actually reaches zero.
    """
    lo, hi = window
    lambdas = grid(lo, hi, grid_step)
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
    return FactorizationDetection(lambda_detected=float(lam), dip_value=float(dip),
                                  window=(lo, hi))


def measure_evaluator(column, gamma, alpha, beta, length=None):
    """lambda -> single measure column, for the detection routines."""
    with_sdp = column in SDP_COLUMNS

    def evaluate(lam):
        return _converged_point(lam, gamma, alpha, beta, length, with_sdp)[column]

    return evaluate


def detect_factorization_measure(column, gamma, alpha, beta, window=None,
                                 length=None, **kwargs):
    """Factorization-point detection for one measure of the XY chain.

    Only n3 and tau_ub carry the sudden-change signature at a usable scale;
    t3 and tau_lb are rejected up front.
    """
    if column not in SUDDEN_CHANGE_COLUMNS:
        raise FactorizationNotFound(
            f"{column} is not a sudden-change indicator; use one of "
            f"{SUDDEN_CHANGE_COLUMNS}"
        )
    if window is None:
        lam_f = factorization_lambda(gamma)
        window = (lam_f - 0.04, lam_f + 0.04)
    evaluator = measure_evaluator(column, gamma, alpha, beta, length)
    return detect_factorization(evaluator, window, **kwargs)


@dataclass
class FactorizationScaling:
    gamma: float
    alpha: int
    beta: int
    lengths: np.ndarray
    values: np.ndarray           # measure at lambda_f per length
    concurrence_nn: np.ndarray   # nearest-neighbor concurrence series
    fit: FitResult               # ln(value) vs L


def factorization_scaling(gamma, alpha, beta, column, lengths):
    """Measure at the factorization point versus finite chain length."""
    lam_f = factorization_lambda(gamma)
    vals, c1 = [], []
    for L in lengths:
        row = _converged_point(lam_f, gamma, alpha, beta, int(L),
                               with_sdp=column in SDP_COLUMNS)
        vals.append(row[column])
        rho = rdm3(SpinGeometry(1, 1), ModelParams(lam_f, gamma, int(L)))
        c1.append(measures.evaluate(rho.matrix).concurrence_01)
    lengths = np.asarray(lengths, dtype=int)
    vals = np.asarray(vals)
    fit = _fit(lengths, np.log(np.clip(vals, 1e-300, None)))
    return FactorizationScaling(
        gamma=gamma, alpha=alpha, beta=beta, lengths=lengths, values=vals,
        concurrence_nn=np.asarray(c1), fit=fit,
    )


@dataclass
class BoundWindow:
    lo: float
    hi: float
    max_tau_ub: float
    min_tau_ub: float
    max_neg_outer: float         # max over the window of N(i|jk), should be ~0


def _bisect_edge(flag_fn, lam_in, lam_out, tol=5e-5):
    """Refine the boundary between a flagged and an unflagged point."""
    a, b = lam_in, lam_out
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if flag_fn(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def bound_entanglement_scan(gamma, alpha, beta, lambdas, length=None,
                            tau_threshold=1e-12, refine=True, workers=1):
    """Windows where the outer cut is PPT yet the state stays correlated.

    A grid point is flagged when N(rho_{i|jk}) < ZERO_THRESHOLD while there
    is still entanglement evidence: tau_ub above threshold or one of the
    other two cuts NPT.  All three partition negativities are recorded.
    """

    def flagged(row):
        # row: one measure_point dict, or the columns of a whole table
        evidence = ((row["tau_ub"] > tau_threshold)
                    | (row["neg_j"] > ZERO_THRESHOLD)
                    | (row["neg_k"] > ZERO_THRESHOLD))
        return (row["neg_i"] < ZERO_THRESHOLD) & evidence

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
        if refine and i > 0:
            lo = _bisect_edge(flag_at, lambdas[i], lambdas[i - 1])
        if refine and j + 1 < n:
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
