"""Command-line front end.

Subcommands: rdm, sweep, fit, factorize, boundscan, fidelity, verify.
CSV/JSON outputs are written atomically and start with a metadata header
carrying the tool version, the full canonical config, and a timestamp
(SOURCE_DATE_EPOCH is honored so runs can be made bit-reproducible).

Exit codes: 0 success, 1 computational failure, 2 usage, 3 I/O.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, analysis, edsim, measures
from .xychain import (
    ModelParams,
    SpinGeometry,
    factorization_lambda,
    correlators,
    rdm3,
    rdm3_many,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_FIELDS = ("lambda", "gamma", "alpha", "beta", "L", *analysis.POINT_COLUMNS, "status")


class UsageError(ValueError):
    pass


def _timestamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _canonical_config(args):
    skip = {"func", "output"}
    items = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return json.dumps(items, default=str, sort_keys=True)


def _header_lines(args):
    return [
        f"# xymqc {__version__}",
        f"# config {_canonical_config(args)}",
        f"# generated {_timestamp()}",
    ]


def _write_atomic(path, text):
    """Write a temp file beside `path` and rename it over `path`, with the
    mode open(path, "w") would give; a failed write removes the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".xymqc-")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _emit(args, text):
    if getattr(args, "output", None):
        _write_atomic(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)


def _setup(args, *grid):
    """(params, geometry, lambdas) of one command; a bad value is a usage error.

    `grid` is (lo, hi, step) for a command that scans lambda; the params
    then carry the grid's first lambda (for factorize, which builds its own
    window, the factorization point, which exists only for 0 < gamma < 1).
    geometry is None without --alpha.
    """
    try:
        for name in ("step", "workers"):
            value = getattr(args, name, 1)
            if not 0 < value < np.inf:
                raise ValueError(f"--{name} must be positive and finite, got {value}")
        for name in ("tolerance", "tau_threshold"):
            value = getattr(args, name, 0.0)
            if not 0 <= value < np.inf:
                raise ValueError(
                    f"--{name.replace('_', '-')} must be finite and >= 0, got {value}"
                )
        if hasattr(args, "window_min") and not 0 < args.window_min < args.window_max:
            raise ValueError(
                "the fit window needs 0 < --window-min < --window-max, got "
                f"{args.window_min}, {args.window_max}"
            )
        if getattr(args, "infinite", False) == (args.length is not None):
            raise ValueError("give exactly one of --L <odd int> and --infinite")
        lambdas = analysis.grid(*grid) if grid else None
        if grid:
            lam = lambdas[0]
        elif args.command == "factorize":
            lam = factorization_lambda(args.gamma)
        else:
            lam = args.lam
        params = ModelParams(lam, args.gamma, args.length)
        geom = None
        if hasattr(args, "alpha"):
            geom = SpinGeometry(args.alpha, args.beta)
            geom.validate_for(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return params, geom, lambdas


def _fmt(x):
    if isinstance(x, float) and np.isnan(x):
        return ""
    return repr(float(x))


def _csv_text(args, table):
    length = np.inf if table.length is None else table.length
    fixed = [args.gamma, args.alpha, args.beta, length]
    lines = _header_lines(args)
    lines.append(",".join(CSV_FIELDS))
    for k, lam in enumerate(table.lambdas):
        measured = [table.columns[f][k] for f in analysis.POINT_COLUMNS]
        lines.append(",".join(map(_fmt, [lam, *fixed, *measured]))
                     + "," + table.columns["status"][k])
    return "\n".join(lines) + "\n"


def _json_text(args, payload):
    return "\n".join(_header_lines(args)) + "\n" + json.dumps(payload, indent=2) + "\n"


def cmd_rdm(args):
    params, geom, _ = _setup(args)
    rho = rdm3(geom, params)
    span = geom.span
    g_vals = dict(zip(range(-span, span + 1), correlators(params, span)))
    eigs = np.linalg.eigvalsh(rho.matrix)[::-1]
    lines = _header_lines(args)
    lines.append(
        f"# lambda={args.lam} gamma={args.gamma} "
        f"L={'inf' if args.length is None else args.length} alpha={args.alpha} beta={args.beta}"
    )
    lines.append("# g_r: " + " ".join(f"g({r})={v:.12f}" for r, v in g_vals.items()))
    for i in range(8):
        lines.append(" ".join(f"{rho.matrix[i, j].real:+.12f}" for j in range(8)))
    lines.append("eigenvalues: " + " ".join(f"{e:.12e}" for e in eigs))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args):
    _, _, lambdas = _setup(args, args.lambda_min, args.lambda_max, args.step)
    table = analysis.sweep(args.gamma, args.alpha, args.beta, lambdas,
                           length=args.length, with_sdp=not args.no_sdp,
                           workers=args.workers)
    _emit(args, _csv_text(args, table))
    return EXIT_OK


def cmd_fit(args):
    column, step = args.measure, args.step
    lo = analysis.LAMBDA_C - args.window_max - 2 * step
    hi = analysis.LAMBDA_C + args.window_max + 2 * step
    if args.side == "below":
        hi = analysis.LAMBDA_C - args.window_min / 3
    elif args.side == "above":
        lo = analysis.LAMBDA_C + args.window_min / 3
    _, _, lambdas = _setup(args, lo, hi, step)
    table = analysis.sweep(args.gamma, args.alpha, args.beta, lambdas,
                           length=args.length, with_sdp=column in analysis.SDP_COLUMNS,
                           workers=args.workers)
    fit = analysis.fit_log_divergence(
        table, column, window=(args.window_min, args.window_max), side=args.side
    )
    payload = {
        "measure": column, "gamma": args.gamma,
        "alpha": args.alpha, "beta": args.beta,
        "L": args.length if args.length is not None else "inf",
        **dataclasses.asdict(fit),
    }
    _emit(args, _json_text(args, payload))
    return EXIT_OK


def cmd_factorize(args):
    params, _, _ = _setup(args)
    det = analysis.detect_factorization_measure(
        args.measure, args.gamma, args.alpha, args.beta, length=args.length,
        grid_step=args.step,
    )
    lam_f = params.lam
    payload = {
        "measure": args.measure, "gamma": args.gamma,
        "alpha": args.alpha, "beta": args.beta,
        **dataclasses.asdict(det),
        "lambda_f_analytic": lam_f,
        "deviation": det.lambda_detected - lam_f,
    }
    _emit(args, _json_text(args, payload))
    print(f"lambda_f detected {det.lambda_detected:.6f} "
          f"(analytic {lam_f:.6f}, deviation {det.lambda_detected - lam_f:+.2e})")
    return EXIT_OK


def cmd_boundscan(args):
    _, _, lambdas = _setup(args, args.lambda_min, args.lambda_max, args.step)
    windows = analysis.bound_entanglement_scan(
        args.gamma, args.alpha, args.beta, lambdas, length=args.length,
        tau_threshold=args.tau_threshold, workers=args.workers,
    )
    _emit(args, _json_text(args, [dataclasses.asdict(w) for w in windows]))
    for w in windows:
        print(f"window ({w.lo:.4f}, {w.hi:.4f}) max tau_ub {w.max_tau_ub:.3e}")
    if not windows:
        print("no bound-entanglement windows in the scanned range")
    return EXIT_OK


def cmd_fidelity(args):
    params, geom, _ = _setup(args)
    rho_fin = rdm3(geom, params)
    rho_inf = rdm3(geom, ModelParams(args.lam, args.gamma, None))
    f = analysis.fidelity(rho_fin.matrix, rho_inf.matrix)
    if args.output:
        payload = {
            "lambda": args.lam, "gamma": args.gamma,
            "alpha": args.alpha, "beta": args.beta, "L": args.length,
            "fidelity": f,
        }
        _emit(args, _json_text(args, payload))
    print(f"F(rho_L={args.length}, rho_inf) = {f:.10f} "
          f"at lambda={args.lam} gamma={args.gamma} m=({args.alpha},{args.beta})")
    return EXIT_OK


def cmd_verify(args):
    params, _, _ = _setup(args)
    if args.length not in edsim.LENGTHS:
        raise UsageError(f"--L must be one of {edsim.LENGTHS} for exact "
                         f"diagonalization, got {args.length}")
    ham = edsim.build_hamiltonian(args.length, params)
    energy, state = edsim.reference_state(ham)
    geoms = [SpinGeometry(alpha, beta)
             for alpha in range(1, args.length) for beta in range(1, args.length - alpha)]
    rho_a = rdm3_many(geoms, params)
    # the ED state is dihedral-even, so rho(beta, alpha) is rho(alpha, beta)
    # with qubits 0 and 2 swapped: trace out only the geometries alpha <= beta
    pairs = [(g.alpha, g.beta) for g in geoms]
    traced = [(a, b) for a, b in pairs if a <= b]
    slot = {ab: i for i, ab in enumerate(traced)}
    half = edsim.reduced_states(state, [[0, a, a + b] for a, b in traced], args.length)
    mirrored = half.reshape(-1, 64)[:, measures._MIRROR].reshape(half.shape)
    pick = [slot[a, b] if a <= b else len(traced) + slot[b, a] for a, b in pairs]
    rho_e = np.concatenate([half, mirrored])[pick]
    dev = np.max(np.abs(rho_a - rho_e), axis=(1, 2))
    k = int(np.argmax(dev))
    worst, worst_geom = float(dev[k]), (geoms[k].alpha, geoms[k].beta)
    e_disp = edsim.dispersion_ground_energy(args.length, params)
    e_dev = abs(energy - e_disp)
    print(f"L={args.length} lambda={args.lam} gamma={args.gamma}")
    print(f"  sector ground energy  {energy:.12f}")
    print(f"  dispersion sum        {e_disp:.12f}  (|diff| {e_dev:.3e})")
    print(f"  worst rdm3 deviation  {worst:.3e} at m={worst_geom}")
    ok = worst <= args.tolerance and e_dev <= 1e-9
    print("verify:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_COMPUTE


def _add_common(p, chain=True, workers=True):
    p.add_argument("--alpha", type=int, required=True, help="left spin offset")
    p.add_argument("--beta", type=int, required=True, help="right spin offset")
    p.add_argument("--gamma", type=float, required=True, help="anisotropy in [0,1]")
    if chain:
        p.add_argument("--L", dest="length", type=int, default=None,
                       help="finite chain length (odd, >= 5)")
        p.add_argument("--infinite", action="store_true",
                       help="thermodynamic limit (explicit, never a default)")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1)")
    p.add_argument("--output", default=None, help="output file (default stdout)")


@functools.cache
def build_parser():
    """The `xymqc` argument parser, built once per process.

    parse_args keeps no state on the parser: every call fills a fresh
    namespace from the defaults, so in-process callers may share it.
    """
    parser = argparse.ArgumentParser(
        prog="xymqc",
        description="Tripartite quantum correlations in the transverse-field XY chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rdm", help="print one three-spin reduced density matrix")
    _add_common(p, workers=False)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("sweep", help="measure columns over a lambda grid (CSV)")
    _add_common(p)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--no-sdp", action="store_true",
                   help="skip the SDP-backed tau_ub column")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="log-divergence fit of a measure derivative")
    _add_common(p)
    p.add_argument("--measure", choices=analysis.MEASURE_COLUMNS, required=True)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--window-min", type=float, default=3e-4)
    p.add_argument("--window-max", type=float, default=3e-2)
    p.add_argument("--side", choices=("below", "above", "both"), default="below")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("factorize", help="detect the factorization point")
    _add_common(p, workers=False)
    p.add_argument("--measure", choices=analysis.SUDDEN_CHANGE_COLUMNS,
                   default="n3")
    p.add_argument("--step", type=float, default=2e-3)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("boundscan", help="scan for bound-entanglement windows")
    _add_common(p)
    p.add_argument("--lambda-min", type=float, default=0.9)
    p.add_argument("--lambda-max", type=float, default=1.3)
    p.add_argument("--step", type=float, default=2e-3)
    p.add_argument("--tau-threshold", type=float, default=1e-12)
    p.set_defaults(func=cmd_boundscan)

    p = sub.add_parser("fidelity", help="finite vs infinite reduced-state fidelity")
    _add_common(p, chain=False, workers=False)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--L", dest="length", type=int, required=True)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("verify", help="cross-validate analytic RDMs against ED")
    p.add_argument("--L", dest="length", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, analysis.FactorizationNotFound, analysis.NonConvergedPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
