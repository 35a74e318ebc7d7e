"""Brute-force exact-diagonalization oracle for small odd chains.

Builds the full 2^L Hamiltonian with periodic boundary conditions and finds
ground states, both unrestricted and within a fixed spin-parity (prod sigma_z)
sector.  The analytic correlator construction always reproduces the lowest
eigenstate of the parity = (-1)^L sector, which for some couplings in the
ordered phase is the first excited state overall; the sector-resolved solve
is what the cross-validation suite compares against.

Site 0 is the most significant bit of the basis index; |0> is sigma_z = +1.
"""

import numpy as np

from .linalg import DensityMatrix, validate_density

_LANCZOS_SEED = 20240901


class ConvergenceError(RuntimeError):
    pass


def _popcount(length):
    """Number of one bits of every basis index 0 .. 2^length - 1."""
    n = np.arange(1 << length, dtype=np.int64)
    return sum((n >> s) & 1 for s in range(length))


def _length(ham):
    """Chain length of a 2^L x 2^L Hamiltonian."""
    return ham.shape[0].bit_length() - 1


def build_hamiltonian(length, params):
    """H = -lambda sum[(1+g)/2 XX + (1-g)/2 YY] + sum Z, site L+1 = 1, as CSR."""
    # scipy is imported here and in _lowest_eigenpairs only, so that the
    # package without exact diagonalization needs numpy alone
    from scipy import sparse

    if not (5 <= length <= 14) or length % 2 == 0:
        raise ValueError(f"length must be odd in [5, 14], got {length}")
    lam, gamma = params.lam, params.gamma
    dim = 1 << length
    n = np.arange(dim, dtype=np.int64)

    # field term: sum_i sigma_z, diagonal = (# zero bits) - (# one bits)
    rows, cols, vals = [n], [n], [(length - 2 * _popcount(length)).astype(float)]

    for i in range(length):
        j = (i + 1) % length
        mask = (1 << (length - 1 - i)) | (1 << (length - 1 - j))
        bi = (n >> (length - 1 - i)) & 1
        bj = (n >> (length - 1 - j)) & 1
        # XX flips both bits with +1; YY flips with -1 if bits equal else +1
        equal = bi == bj
        coeff = np.where(
            equal,
            -lam * ((1 + gamma) / 2 - (1 - gamma) / 2),
            -lam * ((1 + gamma) / 2 + (1 - gamma) / 2),
        )
        rows.append(n)
        cols.append(n ^ mask)
        vals.append(coeff)

    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()


def spin_parity_diagonal(length):
    """Diagonal of prod_i sigma_z in the computational basis."""
    return (-1.0) ** _popcount(length)


def _lowest_eigenpairs(matrix, k):
    dim = matrix.shape[0]
    rng = np.random.default_rng(_LANCZOS_SEED)
    v0 = rng.standard_normal(dim)
    if dim <= 512:
        w, v = np.linalg.eigh(matrix.toarray())
        return w[:k], v[:, :k]
    from scipy.sparse.linalg import eigsh

    try:
        w, v = eigsh(matrix, k=k, which="SA", v0=v0)
    except Exception as exc:  # pragma: no cover - diagnostic path
        raise ConvergenceError(f"Lanczos failed: {exc}") from exc
    order = np.argsort(w)
    return w[order], v[:, order]


def ground_state(ham, degeneracy_tol=1e-9):
    """(energy, state) for the absolute ground state.

    If the two lowest levels coincide within `degeneracy_tol`, the returned
    state is the even spin-parity combination (parity expectation > 0).
    """
    w, v = _lowest_eigenpairs(ham, k=2)
    energy = float(w[0])
    state = v[:, 0].astype(complex)
    if w[1] - w[0] < degeneracy_tol:
        pz = spin_parity_diagonal(_length(ham))
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


def ground_state_in_parity(ham, parity):
    """(energy, state) of the lowest eigenstate with prod sigma_z = parity."""
    if parity not in (-1, 1):
        raise ValueError(f"parity must be +-1, got {parity}")
    keep = np.nonzero(spin_parity_diagonal(_length(ham)) == parity)[0]
    w, v = _lowest_eigenpairs(ham[keep][:, keep], k=1)
    state = np.zeros(ham.shape[0], dtype=complex)
    state[keep] = v[:, 0]
    state /= np.linalg.norm(state)
    return float(w[0]), state


def reference_state(ham):
    """Lowest eigenstate of the sector the analytic correlators describe."""
    return ground_state_in_parity(ham, parity=(-1) ** _length(ham))


def reduced_states(state, site_lists, length=None):
    """Partial traces of |state><state|, one per list of kept sites, as a
    validated (n, 2^m, 2^m) stack; every list holds m sites, kept in the
    listed order (the first listed site is the most significant).
    """
    state = np.asarray(state)
    if length is None:
        length = int(round(np.log2(state.size)))
    m = len(site_lists[0])
    for sites in site_lists:
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate sites in {sites}")
        if any(not 0 <= s < length for s in sites):
            raise IndexError(f"sites {sites} out of range for L={length}")
        if len(sites) != m:
            raise ValueError(f"site lists hold {m} and {len(sites)} sites")
    t = state.reshape([2] * length)
    rho = np.empty((len(site_lists), 1 << m, 1 << m), dtype=complex)
    for k, sites in enumerate(site_lists):
        p = np.moveaxis(t, sites, range(m)).reshape(1 << m, -1)
        rho[k] = p @ p.conj().T
    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    validate_density(rho)
    return rho


def reduced_state(state, sites, length=None):
    """Partial trace of |state><state| keeping the listed sites, in order."""
    rho = reduced_states(state, [sites], length)[0]
    return DensityMatrix(rho, (2,) * len(sites), validate=False)


def dispersion_ground_energy(length, params):
    """Free-fermion energy -sum_q Lambda_q over integer momenta 2 pi q / L."""
    q = np.arange(-(length - 1) // 2, (length - 1) // 2 + 1)
    phi = 2.0 * np.pi * q / length
    lam, gamma = params.lam, params.gamma
    return float(-np.sum(np.hypot(1.0 + lam * np.cos(phi), lam * gamma * np.sin(phi))))
