"""PPT exact entanglement cost E_kappa of a 2x4 cut.

E_kappa is log2 of the optimum of  minimize Tr S  over Hermitian S with

    S >= 0,    S^{T_A} - rho^{T_A} >= 0,    S^{T_A} + rho^{T_A} >= 0,

where T_A transposes the first (2-dimensional) factor.  Only three-qubit
states (dims (2, 2, 2)) are taken, as in `measures.evaluate`; the cut
center | rest puts qubit `center` first.  Each cut's rho^{T_A} is a gather
of the 64 entries of rho through `measures._CUT_PT[center]`, in rho's own
dtype, and the partial transpose |rho^{T_A}|^{T_A}
is one more gather through the fixed table `_PT_FRONT`.  One `eigh` of
rho^{T_A} and one `eigvalsh` of |rho^{T_A}|^{T_A} give the trace norm and
the binegativity certificate |rho^{T_A}|^{T_A} >= 0.

`e_ppt` first tests that certificate; where it holds, S = |rho^{T_A}|^{T_A}
is optimal and E_kappa is the log-negativity log2 ||rho^{T_A}||_1 in closed
form (Wang & Wilde, PRL 125, 040502 (2020)).  Only where it fails does the
semidefinite program run.

Its solver is a feasible-start primal-dual path-following method with
Nesterov-Todd scaling.  It is warm-started from the strictly feasible
S_0 = |rho^{T_A}|^{T_A} + (m + WARM_START_MARGIN) I, where -m is the
certificate's minimum eigenvalue where negative (m = 0 otherwise): since
|rho^{T_A}| -+ rho^{T_A} >= 0, every block of S_0 is at least
WARM_START_MARGIN I, and Tr S_0 exceeds the lower bound ||rho^{T_A}||_1 on
the optimum by only 8 (m + WARM_START_MARGIN) (warm starts for
interior-point methods: Yildirim & Wright, SIAM J. Optim. 12, 782 (2002)).
The three constraint blocks are held as one stack of shape (k, d, d), and
each iteration makes one `eigh` of the stacked slacks and duals, which gives
the slack inverses, the dual square roots of the scaling and the step
lengths of both the predictor and the corrector.  Real data (every `rdm3`
state) stay in real arithmetic throughout.

Every `rdm3` state commutes with the parity P = Z x Z x Z (its Pauli
expansion holds only Z, XX and YY strings), and P commutes with T_A.  Then
P S P is feasible whenever S is, so the optimum can be taken P-invariant
(symmetry reduction of SDPs: Gatermann & Parrilo, J. Pure Appl. Algebra
192, 95 (2004)).  S and the three blocks split into even- and odd-parity
4x4 blocks on the basis states {0, 3, 5, 6} and {1, 2, 4, 7}: k = 6, d = 4,
and the variable space is spanned by the 20 real symmetric basis elements
supported on those blocks (32 Hermitian ones for complex data).  Inputs
without the symmetry run through the same loop with k = 3, d = 8 and the
whole space of 8x8 Hermitian matrices (64-dimensional, or 36-dimensional
for real data).  Everything is deterministic.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

# unused here, but kept bound: perfbench's tracer patches and checks every
# binding of trace_norm in the package
from .linalg import trace_norm  # noqa: F401
from .measures import _CUT_PT, DIMS3

# the solver's stopping rule, read at every call
GAP_TOL = 1e-9
MAX_ITERS = 200
# the solver starts WARM_START_MARGIN inside every constraint block
WARM_START_MARGIN = 1e-3
# |rho^T|^T + eps*I is feasible, so the closed form is exact to 8*eps/ln 2,
# the size of the SDP's own duality gap.
CERTIFICATE_TOL = 1e-10
_STEP_FRACTION = 0.98
# largest entry of rho^{T_A} between the two parity sectors that still counts
# as P-invariant
PARITY_TOL = 1e-14
# the parity of the number of 1 bits of each three-qubit basis state; the
# even and odd sectors are {0, 3, 5, 6} and {1, 2, 4, 7}
_PARITY = np.array([bin(i).count("1") % 2 for i in range(8)])
_SECTORS = (np.flatnonzero(_PARITY == 0), np.flatnonzero(_PARITY == 1))
_CROSS = _PARITY[:, None] != _PARITY[None, :]
# the partial transpose of the first qubit of an 8x8 matrix, as indices into
# its 64 entries: the cut-0 table, whose qubit 0 is already in front
_PT_FRONT = _CUT_PT[0]


@dataclass
class SdpSolution:
    optimum: float
    e_kappa: float
    s_matrix: np.ndarray = field(repr=False)
    duality_gap: float
    iterations: int
    # converged | max-iterations | stalled | infeasible-numerics (a Schur
    # complement that is not finite or not positive definite)
    status: str
    dual_blocks: list = field(repr=False)


def _dag(m):
    mt = np.swapaxes(m, -1, -2)
    return mt.conj() if np.iscomplexobj(mt) else mt


def _cut_pt(rho, dims, center):
    """rho^{T_A} across the cut center | rest, center first, in rho's dtype."""
    if tuple(dims) != DIMS3:
        raise ValueError(f"E_kappa takes three qubits, dims {DIMS3}; got {tuple(dims)}")
    return np.asarray(rho).reshape(64)[_CUT_PT[center]]


def _certificate(rho_pt):
    """(||rho^T||_1, |rho^T|^T, the minimum eigenvalue of |rho^T|^T)."""
    w, v = np.linalg.eigh(rho_pt)
    abs_pt_pt = ((v * np.abs(w)) @ _dag(v)).reshape(64)[_PT_FRONT]
    return float(np.abs(w).sum()), abs_pt_pt, float(np.linalg.eigvalsh(abs_pt_pt)[0])


def _has_parity(rho_pt):
    """True when rho^{T_A} commutes with Z x Z x Z (no cross-sector entry)."""
    return np.max(np.abs(rho_pt[_CROSS])) <= PARITY_TOL


@functools.cache
def _block_basis(real_data, parity):
    """(ops, sectors): the images of the variable basis in the block stack.

    ops[a] is the (k, d, d) stack [F_a, F_a^{T_A}, F_a^{T_A}], each block cut
    into the sectors' diagonal blocks.  The F_a are a Frobenius-orthonormal
    basis of the real symmetric (real_data) or Hermitian 8x8 matrices: the
    diagonal units, then for each i < j the symmetric element and, for
    complex data, the antisymmetric one.  With parity only the pairs i, j
    within one parity sector enter (k = 6, d = 4); otherwise all of them, on
    one sector (k = 3, d = 8).  The returned stack is cached, shared between
    calls and read-only.
    """
    sectors = _SECTORS if parity else (np.arange(8),)
    unit = 1.0 / np.sqrt(2.0)
    # the (i, j) and (j, i) entries of each element
    entries = [(i, i, 1.0, 1.0) for i in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            if not (parity and _CROSS[i, j]):
                entries.append((i, j, unit, unit))
                if not real_data:
                    entries.append((i, j, -1.0j * unit, 1.0j * unit))
    basis = np.zeros((len(entries), 8, 8), dtype=float if real_data else complex)
    for a, (i, j, upper, lower) in enumerate(entries):
        basis[a, i, j], basis[a, j, i] = upper, lower
    basis_pt = basis.reshape(len(basis), 64)[:, _PT_FRONT]
    ops = np.stack(
        [m[:, s[:, None], s] for m in (basis, basis_pt, basis_pt) for s in sectors],
        axis=1,
    )
    ops.flags.writeable = False
    return ops, sectors


class KappaProgram:
    """One cut's program: the variable basis images, rho^{T_A} by sector and
    the coordinates `start` of the warm start S_0."""

    def __init__(self, rho, dims, center):
        rho_pt = _cut_pt(rho, dims, center)
        real_data = not np.iscomplexobj(rho_pt)
        _, abs_pt_pt, min_eig = _certificate(rho_pt)
        self.ops, self.sectors = _block_basis(real_data, _has_parity(rho_pt))
        p = len(self.sectors)
        r = self._by_sector(rho_pt)
        self.offset = np.concatenate([np.zeros_like(r), -r, r])
        self.flat = self.ops.reshape(len(self.ops), -1)
        self.flat_conj = self.flat if real_data else self.flat.conj()
        # Tr S = unit @ s for the coordinates s of S; unit holds those of I
        self.unit = np.real(np.trace(self.ops[:, :p], axis1=-2, axis2=-1).sum(axis=1))
        # the basis is orthonormal, so S_0's coordinates are its inner products
        # with the sector blocks of the F_a
        coords = np.real(
            self.flat_conj[:, : r.size] @ self._by_sector(abs_pt_pt).reshape(-1)
        )
        self.start = coords + (max(-min_eig, 0.0) + WARM_START_MARGIN) * self.unit

    def _by_sector(self, m):
        return np.stack([m[np.ix_(s, s)] for s in self.sectors])

    def blocks(self, s):
        """[S, S^T - rho^T, S^T + rho^T] by sector, for the coordinates s of S."""
        return (s @ self.flat).reshape(self.offset.shape) + self.offset

    def full(self, blocks):
        """The 8x8 matrix with the sectors' diagonal blocks `blocks`."""
        out = np.zeros((8, 8), dtype=blocks.dtype)
        for block, s in zip(blocks, self.sectors):
            out[np.ix_(s, s)] = block
        return out


def solve_kappa(rho, dims=(2, 2, 2), center=0):
    """PPT exact entanglement cost across the cut center | rest."""
    return _solve_program(KappaProgram(rho, dims, center))


def _solve_program(prog):
    k, d = prog.ops.shape[1:3]
    p = len(prog.sectors)

    s = prog.start
    z = prog.blocks(s)
    x = np.broadcast_to(np.eye(d, dtype=prog.ops.dtype) / 3.0, (k, d, d)).copy()

    status = "max-iterations"
    iters = 0
    for iters in range(1, MAX_ITERS + 1):
        gap = _inner(x, z)
        if gap < GAP_TOL:
            status = "converged"
            break
        mu = gap / (k * d)

        try:
            # one decomposition of [Z; X] serves Z^-1, X^1/2 and both step tests
            w_eig, v = np.linalg.eigh(np.concatenate([z, x]))
            if w_eig[:, 0].min() <= 0.0:
                status = "stalled"  # an iterate left the interior: no step is possible
                break
            root = np.sqrt(w_eig)[:, None, :]
            scaled = v / root
            z_inv = scaled[:k] @ _dag(scaled[:k])
            w = _nt_scaling((v[k:] * root[k:]) @ _dag(v[k:]), z)
            l_inv = _schur_factor(prog, w)

            # affine direction fixes the centering weight
            _, dz_aff, dx_aff = _newton_step(prog, x, z_inv, w, l_inv, 0.0)
            a_p, a_d = _step_lengths(scaled, np.concatenate([dz_aff, dx_aff]))
            gap_aff = _inner(x + a_d * dx_aff, z + a_p * dz_aff)
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-8), 1.0)

            ds, dz, dx = _newton_step(prog, x, z_inv, w, l_inv, sigma * mu)
        except np.linalg.LinAlgError:
            status = "infeasible-numerics"
            break

        alpha_p, alpha_d = _step_lengths(scaled, np.concatenate([dz, dx]))
        if min(alpha_p, alpha_d) < 1e-13:
            status = "stalled"
            break
        s = s + alpha_p * ds
        z = prog.blocks(s)
        x = x + alpha_d * dx
        x = 0.5 * (x + _dag(x))

    optimum = float(prog.unit @ s)
    return SdpSolution(
        optimum=optimum,
        e_kappa=float(np.log2(optimum)),
        s_matrix=prog.full(z[:p]),
        duality_gap=_inner(x, z),
        iterations=iters,
        status=status,
        dual_blocks=[prog.full(x[i * p:(i + 1) * p]) for i in range(3)],
    )


def _nt_scaling(rx, z):
    """Nesterov-Todd points W with W Z W = X, from the roots rx = X^{1/2}."""
    wi, vi = np.linalg.eigh(rx @ z @ rx)
    inner_isqrt = (vi / np.sqrt(np.clip(wi, 1e-300, None))[:, None, :]) @ _dag(vi)
    w = rx @ inner_isqrt @ rx
    return 0.5 * (w + _dag(w))


def _step_lengths(scaled, d):
    """(primal, dual) step lengths t <= 1 keeping [Z; X] + t*d PSD.

    `scaled` holds the eigenvectors of the positive definite blocks of
    [Z; X], each divided by the square root of its eigenvalue, so that a
    block plus t times its direction is PSD iff I + t * scaled^H d scaled
    is.  The fraction _STEP_FRACTION of the step to the boundary is taken.
    """
    t = _dag(scaled) @ d @ scaled
    lam_min = np.linalg.eigvalsh(0.5 * (t + _dag(t)))[:, 0]
    steps = _STEP_FRACTION / np.maximum(-lam_min, _STEP_FRACTION)
    k = len(steps) // 2
    return float(steps[:k].min()), float(steps[k:].min())


def _schur_factor(prog, w):
    """The inverse Cholesky factor L^-1 of M_ab = sum_k Re Tr(F_a^k W_k F_b^k W_k).

    An M that is not finite or not positive definite raises LinAlgError,
    which ends the solve as infeasible-numerics.
    """
    wbw = (w @ prog.ops @ w).reshape(len(prog.ops), -1)
    m = np.real(prog.flat_conj @ wbw.T)
    m = 0.5 * (m + m.T)
    if not np.all(np.isfinite(m)):
        raise np.linalg.LinAlgError("non-finite Schur complement")
    return np.linalg.inv(np.linalg.cholesky(m))


def _inner(x, z):
    """Re Tr(x z) summed over a stack of Hermitian blocks."""
    return float(np.real(np.vdot(z, x)))


def _newton_step(prog, x, z_inv, w, l_inv, target):
    """NT direction for centering target sigma*mu (0 = affine direction)."""
    # residual R_k = target * Z_k^{-1} - X_k ; solve A*(W dZ W) = A*(R)
    resid = target * z_inv - x
    ds = l_inv.T @ (l_inv @ np.real(prog.flat_conj @ resid.reshape(-1)))
    dz = (ds @ prog.flat).reshape(resid.shape)
    dx = resid - w @ dz @ w
    return ds, dz, 0.5 * (dx + _dag(dx))


def _binegativity(rho, dims, center):
    """(min eigenvalue of |rho^T|^T, ||rho^T||_1) across the cut center | rest."""
    pt_norm, _, min_eig = _certificate(_cut_pt(rho, dims, center))
    return min_eig, pt_norm


def e_ppt(rho, dims=(2, 2, 2), center=0):
    """PPT exact entanglement cost across center | rest as (e_kappa, status).

    Where the binegativity certificate holds, e_kappa is the log-negativity
    and no SDP is solved; otherwise the interior-point solver runs.
    """
    min_eig, pt_norm = _binegativity(rho, dims, center)
    if min_eig >= -CERTIFICATE_TOL:
        return float(np.log2(pt_norm)), "converged"
    sol = solve_kappa(rho, dims, center)
    return sol.e_kappa, sol.status


def binegativity_is_psd(rho, dims=(2, 2, 2), center=0):
    """True when |rho^T|^T is PSD, which forces e_kappa to equal LN."""
    return _binegativity(rho, dims, center)[0] >= -CERTIFICATE_TOL
