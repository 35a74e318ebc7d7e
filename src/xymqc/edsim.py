"""Brute-force exact-diagonalization oracle for small odd chains.

Builds the full 2^L Hamiltonian with periodic boundary conditions straight
into CSR form (every row holds the field term and one hopping entry per
bond) and finds the lowest eigenstate within a fixed spin-parity
(prod sigma_z) sector.  That state is real, and so are its reduced states.  The
analytic correlator construction always reproduces the lowest eigenstate of
the parity = (-1)^L sector, which for some couplings in the ordered phase is
the first excited state overall; that sector's state is what the
cross-validation suite compares against.

Site 0 is the most significant bit of the basis index; |0> is sigma_z = +1.
"""

import numpy as np

from .linalg import DensityMatrix, validate_density

_LANCZOS_SEED = 20240901


class ConvergenceError(RuntimeError):
    pass


def _popcount(length):
    """Number of one bits of every basis index 0 .. 2^length - 1."""
    count = np.zeros(1 << length, dtype=np.int64)
    for k in range(length):  # indices 2^k .. 2^(k+1) - 1 add bit k to 0 .. 2^k - 1
        count[1 << k: 2 << k] = count[: 1 << k] + 1
    return count


def _length(ham):
    """Chain length of a 2^L x 2^L Hamiltonian."""
    return ham.shape[0].bit_length() - 1


def build_hamiltonian(length, params):
    """H = -lambda sum[(1+g)/2 XX + (1-g)/2 YY] + sum Z, site L+1 = 1, as CSR.

    Row n holds L + 1 entries: the field term at column n, then each bond's
    hopping at column n XOR its bond mask, so the arrays are filled directly
    (columns unsorted within a row; every stored entry is distinct).
    """
    # scipy is imported here and in _lowest_eigenpair only, so that the
    # package without exact diagonalization needs numpy alone
    from scipy import sparse

    if not (5 <= length <= 14) or length % 2 == 0:
        raise ValueError(f"length must be odd in [5, 14], got {length}")
    lam, gamma = params.lam, params.gamma
    dim = 1 << length
    n = np.arange(dim, dtype=np.int32)
    shift = length - 1 - np.arange(length, dtype=np.int32)   # bit of site i
    # bit i of `differ` is set where sites i and i+1 differ
    differ = n ^ (((n << 1) | (n >> (length - 1))) & (dim - 1))
    # rows are short (L + 1), so the entries are computed bond by bond, with
    # the long axis innermost, and stored transposed
    cols = np.empty((dim, length + 1), dtype=np.int32)
    vals = np.empty((dim, length + 1))
    # field term: sum_i sigma_z, diagonal = (# zero bits) - (# one bits)
    cols[:, 0] = n
    vals[:, 0] = length - 2 * _popcount(length)
    # bond (i, i+1): XX flips both bits with +1, YY with -1 if the bits are
    # equal, else +1
    cols[:, 1:] = (n ^ ((1 << shift) | (1 << np.roll(shift, -1)))[:, None]).T
    vals[:, 1:] = np.where(differ & (1 << shift)[:, None], -lam, -lam * gamma).T
    indptr = np.arange(0, cols.size + 1, length + 1, dtype=np.int32)
    return sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(dim, dim))


def spin_parity_diagonal(length):
    """Diagonal of prod_i sigma_z in the computational basis."""
    return 1.0 - 2.0 * (_popcount(length) & 1)


def _lowest_eigenpair(matrix):
    """(energy, vector) of the lowest level: dense up to 512 rows, seeded
    Lanczos above."""
    dim = matrix.shape[0]
    if dim <= 512:
        w, v = np.linalg.eigh(matrix.toarray())
        return float(w[0]), v[:, 0]
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(dim)
    try:
        w, v = eigsh(matrix, k=1, which="SA", v0=v0)
    except Exception as exc:
        raise ConvergenceError(f"Lanczos failed: {exc}") from exc
    return float(w[0]), v[:, 0]


def ground_state_in_parity(ham, parity):
    """(energy, state) of the lowest eigenstate with prod sigma_z = parity,
    in the eigenvector's dtype (real for the real-symmetric H)."""
    if parity not in (-1, 1):
        raise ValueError(f"parity must be +-1, got {parity}")
    keep = np.nonzero(spin_parity_diagonal(_length(ham)) == parity)[0]
    energy, vec = _lowest_eigenpair(ham[keep][:, keep])
    state = np.zeros(ham.shape[0], dtype=vec.dtype)
    state[keep] = vec
    state /= np.linalg.norm(state)
    return energy, state


def reference_state(ham):
    """Lowest eigenstate of the sector the analytic correlators describe."""
    return ground_state_in_parity(ham, parity=(-1) ** _length(ham))


def reduced_states(state, site_lists, length=None):
    """Partial traces of |state><state|, one per list of kept sites, as a
    validated (n, 2^m, 2^m) stack; every list holds m sites, kept in the
    listed order (the first listed site is the most significant).  A real
    state gives a real stack, a complex one a complex stack.
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
    real = not np.iscomplexobj(state)
    rho = np.empty((len(site_lists), 1 << m, 1 << m), dtype=float if real else complex)
    for k, sites in enumerate(site_lists):
        p = t.transpose(*sites, *(s for s in range(length) if s not in sites))
        p = p.reshape(1 << m, -1)
        rho[k] = p @ (p.T if real else p.conj().T)
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
