"""Reference constructions that only the tests use.

Each one is computed independently of the package code it checks: the
exact factorized eigenstates of a finite chain at the factorization point,
the dense 2^L Hamiltonian as a sum of Kronecker products and its absolute
ground state (the package diagonalizes only the symmetric states of one
parity sector), the spin-parity diagonal, and a feasibility and
optimality audit of an E_kappa solution on full 8x8 matrices, built on
`linalg.partial_transpose` (the solver gathers through index tables), and
the pseudo-critical cascade that sweeps every point of each fine window,
the old fixed wide windows by default, and the thermodynamic-limit
quadrature rule graded at each lambda, which the package replaced by one
rule per t0 cell.
"""

from dataclasses import dataclass

import numpy as np

from xymqc import xychain
from xymqc.analysis import SDP_COLUMNS, grid, pseudo_critical, sweep
from xymqc.linalg import partial_transpose


class OracleError(RuntimeError):
    pass


def factorized_pair(length, gamma):
    """Even/odd-parity eigenstates at the factorization point of a finite chain.

    Both are built from the product states phi_± with single-site tilt angles
    theta_± = ±arccos(sqrt((1-gamma)/(1+gamma))).
    """
    if length % 2 == 0 or length > 14:
        raise ValueError(f"length must be odd and <= 14, got {length}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    cos_theta = np.sqrt((1.0 - gamma) / (1.0 + gamma))
    theta = np.arccos(cos_theta)
    # tilt away from |1>, the field-aligned state of the +sum(Z) Hamiltonian
    up = np.array([np.sin(theta / 2.0), np.cos(theta / 2.0)])
    dn = np.array([-np.sin(theta / 2.0), np.cos(theta / 2.0)])
    phi_p = np.array([1.0])
    phi_m = np.array([1.0])
    for _ in range(length):
        phi_p = np.kron(phi_p, up)
        phi_m = np.kron(phi_m, dn)
    overlap = cos_theta ** length
    even = (phi_p + phi_m) / np.sqrt(2.0 * (1.0 + overlap))
    odd = (phi_p - phi_m) / np.sqrt(2.0 * (1.0 - overlap))
    return even.astype(complex), odd.astype(complex)


def spin_parity_diagonal(length):
    """Diagonal of prod_i sigma_z in the computational basis, bit by bit."""
    bits = (np.arange(1 << length)[:, None] >> np.arange(length)) & 1
    return 1.0 - 2.0 * (bits.sum(axis=1) & 1)


def lowest_levels(ham):
    """(energies, vectors) of the two lowest levels of a dense Hamiltonian,
    ascending."""
    w, v = np.linalg.eigh(ham)
    return w[:2], v[:, :2]


def ground_state(ham, degeneracy_tol=1e-9):
    """(energy, state) for the absolute ground state.

    If the two lowest levels coincide within `degeneracy_tol`, the returned
    state is the even spin-parity combination (parity expectation > 0).
    """
    w, v = lowest_levels(ham)
    energy = float(w[0])
    state = v[:, 0].astype(complex)
    if w[1] - w[0] < degeneracy_tol:
        pz = spin_parity_diagonal(ham.shape[0].bit_length() - 1)
        # diagonalize parity within the degenerate 2d space
        block = np.array(
            [[(v[:, a].conj() * pz) @ v[:, b] for b in (0, 1)] for a in (0, 1)]
        )
        pw, pv = np.linalg.eigh(0.5 * (block + block.conj().T))
        pick = int(np.argmax(pw))
        state = (v[:, :2] @ pv[:, pick]).astype(complex)
    state /= np.linalg.norm(state)
    residual = np.linalg.norm(ham @ state - energy * state)
    if residual > 1e-8:
        raise OracleError(f"eigenpair residual {residual:.3e}")
    return energy, state


_PAULI = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
          "Z": np.diag([1, -1])}


def kron_hamiltonian(length, lam, gamma):
    """Dense H = -lam sum[(1+gamma)/2 XX + (1-gamma)/2 YY] + sum Z with
    periodic bonds, term by term as Kronecker products (site 0 leftmost)."""

    def term(ops):
        m = np.eye(1)
        for site in range(length):
            m = np.kron(m, _PAULI[ops[site]] if site in ops else np.eye(2))
        return m

    h = sum(term({i: "Z"}) for i in range(length))
    for i in range(length):
        j = (i + 1) % length
        h = h - lam * (1 + gamma) / 2 * term({i: "X", j: "X"})
        h = h - lam * (1 - gamma) / 2 * term({i: "Y", j: "Y"})
    return h


DIMS3 = (2, 2, 2)


@dataclass
class VerificationReport:
    min_eigs: tuple        # (S, S^T - rho^T, S^T + rho^T)
    dual_min_eigs: tuple
    dual_residual: float   # || X1 + PT(X2) + PT(X3) - I ||
    duality_gap: float
    feasible: bool
    optimal: bool


def center_first(rho, center):
    """rho with qubit `center` moved in front of the other two (kept in order)."""
    order = [center] + [q for q in range(3) if q != center]
    t = np.asarray(rho).reshape((2,) * 6).transpose(order + [q + 3 for q in order])
    return t.reshape(8, 8)


def verify_solution(rho, center, solution):
    """Feasibility and optimality audit of an `sdp.SdpSolution` of the cut
    center | rest, on the full matrices the solution reports (center first)."""
    rho_pt = partial_transpose(center_first(rho, center), DIMS3, 0)
    s = solution.s_matrix
    s_pt = partial_transpose(s, DIMS3, 0)
    min_eigs = tuple(
        float(np.linalg.eigvalsh(z)[0]) for z in (s, s_pt - rho_pt, s_pt + rho_pt)
    )
    x1, x2, x3 = solution.dual_blocks
    dual_min = tuple(float(np.linalg.eigvalsh(x)[0]) for x in (x1, x2, x3))
    resid = x1 + partial_transpose(x2 + x3, DIMS3, 0) - np.eye(8)
    dual_resid = float(np.linalg.norm(resid))
    dual_objective = np.real(np.trace(rho_pt @ x2) - np.trace(rho_pt @ x3))
    gap = float(np.real(np.trace(s)) - dual_objective)
    feasible = all(e >= -1e-8 for e in min_eigs)
    optimal = (
        feasible
        and all(e >= -1e-8 for e in dual_min)
        and dual_resid < 1e-7
        and abs(gap) < 1e-6
    )
    return VerificationReport(
        min_eigs=min_eigs,
        dual_min_eigs=dual_min,
        dual_residual=dual_resid,
        duality_gap=gap,
        feasible=feasible,
        optimal=optimal,
    )


def wide_window_scan(gamma, alpha, beta, length, column,
                     coarse=(0.90, 1.05, 1e-3), workers=1,
                     halfwidths=(6e-3, 8e-4, 8e-5)):
    """Cascaded scans for the derivative minimum of one measure at finite L.

    Each stage sweeps the whole window previous minimum ± its halfwidth
    with a finer grid.  The dip narrows like 1/L, so longer chains earn
    extra stages; SDP-backed columns stop at 1e-5 where solver noise on the
    numerical derivative starts to matter.  The default halfwidths are the
    old fixed windows; (2e-3, 2e-4, 2e-5) sweeps every point of the
    lattices that `analysis.scan_pseudo_critical` grows its runs on from a
    coarse step of 1e-3.
    """
    with_sdp = column in SDP_COLUMNS
    tbl = sweep(gamma, alpha, beta, grid(*coarse), length=length,
                with_sdp=with_sdp, workers=workers)
    scan = pseudo_critical(tbl, column)
    stages = [(1e-4, halfwidths[0])]
    if length >= 300:
        stages.append((1e-5, halfwidths[1]))
    if length >= 1000 and not with_sdp:
        stages.append((1e-6, halfwidths[2]))
    for fine_step, halfwidth in stages:
        center = scan.lambda_m
        tbl = sweep(gamma, alpha, beta,
                    grid(center - halfwidth, center + halfwidth, fine_step),
                    length=length, with_sdp=with_sdp, workers=workers)
        scan = pseudo_critical(tbl, column)
    return scan


def linspace_panels(edges, rmax):
    """Nodes t and weights of the 20-point Gauss-Legendre rule on the panels
    between the sorted distinct edges, each panel split by its own
    np.linspace into pieces of width at most _MAX_PHASE / rmax."""
    pieces = np.ceil(np.diff(edges) * max(rmax, 1) / xychain._MAX_PHASE).astype(int)
    edges = np.concatenate([np.linspace(a, b, n, endpoint=False)
                            for a, b, n in zip(edges[:-1], edges[1:], pieces)] + [edges[-1:]])
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    x, w = xychain._gauss_legendre()
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def graded_rule(lam, gamma, rmax):
    """Nodes t = pi - phi and weights of the Gauss-Legendre rule on [0, pi]
    graded at lambda itself.

    Panels halve in width toward t = 0 down to min(|1 - lambda|, gamma)/4,
    and for lambda > 1 also toward t0 = arccos(1/lambda) down to gamma/4.
    """
    depth = max(min(abs(1.0 - lam), gamma) / 4.0, xychain._MIN_DEPTH)
    levels = np.arange(int(np.ceil(np.log2(np.pi / depth))) + 1)
    edges = [np.array([0.0]), np.pi * 0.5 ** levels]
    if lam > 1.0:
        t0 = np.arctan(np.sqrt((lam - 1.0) * (lam + 1.0)))
        steps = 0.25 * gamma * 2.0 ** np.arange(int(np.ceil(np.log2(4.0 * np.pi / gamma))) + 1)
        edges += [np.array([t0]), t0 - steps, t0 + steps]
    return linspace_panels(np.unique(np.clip(np.concatenate(edges), 0.0, np.pi)), rmax)


def g_graded(lam, gamma, rmax):
    """g(-rmax..rmax) in the thermodynamic limit from `graded_rule`."""
    t, weights = graded_rule(lam, gamma, rmax)
    return xychain._lagged(*xychain._moments(xychain._nodes(t, weights / np.pi, rmax),
                                             lam, gamma))
