"""Reference constructions that only the tests use.

Each one is computed independently of the package code it checks: the
exact factorized eigenstates of a finite chain at the factorization point,
and the absolute ground state of an exact-diagonalization Hamiltonian from
its own eigensolver call (the package solves within one parity sector).
"""

import numpy as np
from scipy.sparse.linalg import eigsh

from xymqc.edsim import ConvergenceError, spin_parity_diagonal

_LANCZOS_SEED = 20240901


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


def lowest_levels(ham):
    """(energies, vectors) of the two lowest levels of a sparse Hamiltonian,
    ascending: dense `eigh` up to 512 rows, seeded Lanczos above."""
    dim = ham.shape[0]
    if dim <= 512:
        w, v = np.linalg.eigh(ham.toarray())
        return w[:2], v[:, :2]
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(dim)
    w, v = eigsh(ham, k=2, which="SA", v0=v0)
    order = np.argsort(w)
    return w[order], v[:, order]


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
        raise ConvergenceError(f"eigenpair residual {residual:.3e}")
    return energy, state
