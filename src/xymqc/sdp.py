"""PPT exact entanglement cost E_kappa of a 2x4 cut.

E_kappa is log2 of the optimum of  minimize Tr S  over Hermitian S with

    S >= 0,    S^{T_A} - rho^{T_A} >= 0,    S^{T_A} + rho^{T_A} >= 0,

where T_A transposes the first (2-dimensional) factor.  `e_ppt` first tests
the binegativity certificate |rho^{T_A}|^{T_A} >= 0; where it holds, S =
|rho^{T_A}|^{T_A} is optimal and E_kappa is the log-negativity
log2 ||rho^{T_A}||_1 in closed form (Wang & Wilde, PRL 125, 040502 (2020)).
Only where it fails does the semidefinite program run.  Its solver is a
feasible-start primal-dual path-following method with Nesterov-Todd scaling
on the three Hermitian blocks; the variable space is the real vector space
of 8x8 Hermitian matrices (64-dimensional, or the 36-dimensional symmetric
subspace when the data are real).  Everything is deterministic.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .linalg import partial_transpose, trace_norm
from .measures import _permute_to_front

GAP_TOL = 1e-9
MAX_ITERS = 200
# |rho^T|^T + eps*I is feasible, so the closed form is exact to 8*eps/ln 2,
# the size of the SDP's own duality gap.
CERTIFICATE_TOL = 1e-10
_STEP_FRACTION = 0.98


@dataclass
class SdpSolution:
    optimum: float
    e_kappa: float
    s_matrix: np.ndarray = field(repr=False)
    duality_gap: float
    iterations: int
    status: str                      # converged | max-iterations | stalled | infeasible-numerics
    dual_blocks: list = field(repr=False, default=None)
    pt_trace_norm: float = 0.0


@dataclass
class VerificationReport:
    min_eigs: tuple        # (S, S^T - rho^T, S^T + rho^T)
    dual_min_eigs: tuple
    dual_residual: float   # || X1 + PT(X2) + PT(X3) - I ||
    duality_gap: float
    feasible: bool
    optimal: bool


@functools.cache
def hermitian_basis(dim, real_only=False):
    """Orthonormal (Frobenius) basis of Hermitian dim x dim matrices.

    With real_only, the basis spans real symmetric matrices, which is
    sufficient whenever the problem data are real (conjugation symmetry).
    The returned stack is cached, shared between calls and read-only.
    """
    dtype = float if real_only else complex
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=dtype)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=dtype)
            e[i, j] = inv_sqrt2
            e[j, i] = inv_sqrt2
            basis.append(e)
            if not real_only:
                e = np.zeros((dim, dim), dtype=complex)
                e[i, j] = -1.0j * inv_sqrt2
                e[j, i] = 1.0j * inv_sqrt2
                basis.append(e)
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def _nt_scaling(x, z):
    """Nesterov-Todd point W with W Z W = X, for Hermitian PD X, Z."""
    wx, vx = np.linalg.eigh(x)
    rx = (vx * np.sqrt(np.clip(wx, 1e-300, None))) @ vx.conj().T  # X^{1/2}
    inner = rx @ z @ rx
    wi, vi = np.linalg.eigh(inner)
    inner_isqrt = (vi / np.sqrt(np.clip(wi, 1e-300, None))) @ vi.conj().T
    w = rx @ inner_isqrt @ rx
    return 0.5 * (w + w.conj().T)


def _max_step(block, dblock):
    """Largest t <= 1 with block + t*dblock staying PSD (fraction applied)."""
    w, v = np.linalg.eigh(block)
    if w[0] <= 0.0:
        return 0.0
    scaled = v / np.sqrt(w)
    t = scaled.conj().T @ dblock @ scaled
    lam_min = float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[0])
    if lam_min >= 0:
        return 1.0
    return min(1.0, -_STEP_FRACTION / lam_min)


class KappaProgram:
    """Problem data plus the linear maps between the variable and blocks."""

    def __init__(self, rho, dims, center):
        dims = tuple(dims)
        rho = np.asarray(rho, dtype=complex)
        self.real_data = bool(np.max(np.abs(rho.imag)) < 1e-14)
        if self.real_data:
            rho = rho.real.astype(float)
        rho_front = _permute_to_front(rho, dims, center)
        d_a = dims[center]
        d_b = rho.shape[0] // d_a
        self.dim = rho.shape[0]
        self.rho_pt = partial_transpose(rho_front, (d_a, d_b), 0)
        if self.real_data:
            self.rho_pt = self.rho_pt.real
        self.pt_dims = (d_a, d_b)
        self.pt_norm = trace_norm(self.rho_pt)
        self.basis = hermitian_basis(self.dim, self.real_data)
        self.basis_pt = partial_transpose(self.basis, self.pt_dims, 0)
        # flattened views used for fast trace contractions
        self._basis_flat = self.basis.reshape(len(self.basis), -1)
        self._basis_flat_conj = self._basis_flat.conj()
        self._basis_pt_flat_conj = self.basis_pt.reshape(len(self.basis), -1).conj()

    def pt(self, m):
        return partial_transpose(m, self.pt_dims, 0)

    def blocks_from_s(self, s):
        spt = self.pt(s)
        return [s, spt - self.rho_pt, spt + self.rho_pt]

    def adjoint(self, blocks):
        """A*(X) = X1 + PT(X2) + PT(X3) as a Hermitian matrix."""
        return blocks[0] + self.pt(blocks[1]) + self.pt(blocks[2])

    def dual_objective(self, blocks):
        return float(
            np.real(np.trace(self.rho_pt @ blocks[1]) - np.trace(self.rho_pt @ blocks[2]))
        )


def solve_kappa(rho, dims=(2, 2, 2), center=0, gap_tol=GAP_TOL, max_iters=MAX_ITERS):
    """PPT exact entanglement cost across the cut center | rest."""
    return _solve_program(KappaProgram(rho, dims, center), gap_tol, max_iters)


def _solve_program(prog, gap_tol=GAP_TOL, max_iters=MAX_ITERS):
    n = prog.dim
    m_var = len(prog.basis)  # real dimension of the Hermitian variable space

    dtype = float if prog.real_data else complex
    s = (prog.pt_norm + 1.0) * np.eye(n, dtype=dtype)
    z_blocks = prog.blocks_from_s(s)
    x_blocks = [np.eye(n, dtype=dtype) / 3.0 for _ in range(3)]

    status = "max-iterations"
    iters = 0
    for iters in range(1, max_iters + 1):
        gap = sum(_inner(x, z) for x, z in zip(x_blocks, z_blocks))
        if gap < gap_tol:
            status = "converged"
            break
        mu = gap / (3.0 * n)

        try:
            w_blocks = [_nt_scaling(x, z) for x, z in zip(x_blocks, z_blocks)]
            z_invs = [np.linalg.inv(z) for z in z_blocks]
            schur = _factor_schur(prog, w_blocks, m_var)

            # affine direction fixes the centering weight
            _, dz_aff, dx_aff = _newton_step(
                prog, x_blocks, z_invs, w_blocks, schur, 0.0
            )
            a_p = min(_max_step(z, dz) for z, dz in zip(z_blocks, dz_aff))
            a_d = min(_max_step(x, dx) for x, dx in zip(x_blocks, dx_aff))
            gap_aff = sum(
                _inner(x + a_d * dx, z + a_p * dz)
                for x, dx, z, dz in zip(x_blocks, dx_aff, z_blocks, dz_aff)
            )
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-8), 1.0)

            ds, dz_blocks, dx_blocks = _newton_step(
                prog, x_blocks, z_invs, w_blocks, schur, sigma * mu
            )
        except np.linalg.LinAlgError:
            status = "infeasible-numerics"
            break

        alpha_p = min(_max_step(z, dz) for z, dz in zip(z_blocks, dz_blocks))
        alpha_d = min(_max_step(x, dx) for x, dx in zip(x_blocks, dx_blocks))
        if min(alpha_p, alpha_d) < 1e-13:
            status = "stalled"
            break
        s = s + alpha_p * ds
        z_blocks = prog.blocks_from_s(s)
        x_blocks = [
            0.5 * ((x + alpha_d * dx) + (x + alpha_d * dx).conj().T)
            for x, dx in zip(x_blocks, dx_blocks)
        ]

    gap = sum(_inner(x, z) for x, z in zip(x_blocks, z_blocks))
    optimum = float(np.real(np.trace(s)))
    return SdpSolution(
        optimum=optimum,
        e_kappa=float(np.log2(optimum)),
        s_matrix=s,
        duality_gap=gap,
        iterations=iters,
        status=status,
        dual_blocks=x_blocks,
        pt_trace_norm=prog.pt_norm,
    )


class _SchurFactor:
    def __init__(self, matrix):
        self.matrix = matrix
        if not np.all(np.isfinite(matrix)):
            raise np.linalg.LinAlgError("non-finite Schur complement")
        try:
            self._cho = sla.cho_factor(matrix, check_finite=False)
        except sla.LinAlgError:
            self._cho = None

    def solve(self, rhs):
        if self._cho is not None:
            return sla.cho_solve(self._cho, rhs, check_finite=False)
        return np.linalg.lstsq(self.matrix, rhs, rcond=None)[0]


def _inner(x, z):
    """Re Tr(x z) for Hermitian blocks without forming the product."""
    return float(np.real(np.sum(x * z.T)))


def _factor_schur(prog, w_blocks, m_var):
    """Factorized M with M_ab = sum_k Tr(F_a^k W_k F_b^k W_k)."""
    d = prog.dim
    d2 = d * d
    m = np.zeros((m_var, m_var))
    for k, w in enumerate(w_blocks):
        first = k == 0
        b = prog.basis if first else prog.basis_pt
        b_flat_conj = prog._basis_flat_conj if first else prog._basis_pt_flat_conj
        # W B_a W for every basis element via two fused matmuls
        wb = (w @ b.transpose(1, 0, 2).reshape(d, m_var * d)).reshape(
            d, m_var, d
        ).transpose(1, 0, 2)
        wbw = (wb.reshape(m_var * d, d) @ w).reshape(m_var, d2)
        m += np.real(b_flat_conj @ wbw.T)
    return _SchurFactor(0.5 * (m + m.T))


def _newton_step(prog, x_blocks, z_invs, w_blocks, schur, target):
    """NT direction for centering target sigma*mu (0 = affine direction)."""
    # residual R_k = target * Z_k^{-1} - X_k ; solve A*(W dZ W) = A*(R)
    resid = [target * zi - x for zi, x in zip(z_invs, x_blocks)]
    rhs_mat = prog.adjoint(resid)
    rhs = np.real(prog._basis_flat_conj @ rhs_mat.reshape(-1))
    ds_vec = schur.solve(rhs)
    ds = (ds_vec @ prog._basis_flat).reshape(prog.dim, prog.dim)
    ds = 0.5 * (ds + ds.conj().T)
    ds_pt = prog.pt(ds)
    dz_blocks = [ds, ds_pt, ds_pt]
    dx_blocks = [r - w @ dz @ w for r, w, dz in zip(resid, w_blocks, dz_blocks)]
    dx_blocks = [0.5 * (dx + dx.conj().T) for dx in dx_blocks]
    return ds, dz_blocks, dx_blocks


def verify_solution(rho, dims, center, solution, gap_tol=1e-6, feas_tol=1e-8):
    """Independent feasibility/optimality audit of a returned solution."""
    prog = KappaProgram(rho, dims, center)
    z_blocks = prog.blocks_from_s(solution.s_matrix)
    min_eigs = tuple(float(np.linalg.eigvalsh(z)[0]) for z in z_blocks)
    if solution.dual_blocks is not None:
        dual_min = tuple(
            float(np.linalg.eigvalsh(x)[0]) for x in solution.dual_blocks
        )
        resid = prog.adjoint(solution.dual_blocks) - np.eye(prog.dim)
        dual_resid = float(np.linalg.norm(resid))
        gap = float(np.real(np.trace(solution.s_matrix))) - prog.dual_objective(
            solution.dual_blocks
        )
    else:
        dual_min, dual_resid, gap = (), np.inf, np.inf
    feasible = all(e >= -feas_tol for e in min_eigs)
    optimal = (
        feasible
        and all(e >= -feas_tol for e in dual_min)
        and dual_resid < 1e-7
        and abs(gap) < gap_tol
    )
    return VerificationReport(
        min_eigs=min_eigs,
        dual_min_eigs=dual_min,
        dual_residual=dual_resid,
        duality_gap=gap,
        feasible=feasible,
        optimal=optimal,
    )


def _binegativity(rho, dims, center):
    """(min eigenvalue of |rho^T|^T, ||rho^T||_1) across the cut center | rest."""
    dims = tuple(dims)
    rho_front = _permute_to_front(rho, dims, center)
    pt_dims = (dims[center], rho_front.shape[0] // dims[center])
    w, v = np.linalg.eigh(partial_transpose(rho_front, pt_dims, 0))
    abs_pt = (v * np.abs(w)) @ v.conj().T
    min_eig = float(np.linalg.eigvalsh(partial_transpose(abs_pt, pt_dims, 0))[0])
    return min_eig, float(np.sum(np.abs(w)))


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


def binegativity_is_psd(rho, dims=(2, 2, 2), center=0, tol=CERTIFICATE_TOL):
    """True when |rho^T|^T is PSD, which forces e_kappa to equal LN."""
    return _binegativity(rho, dims, center)[0] >= -tol
