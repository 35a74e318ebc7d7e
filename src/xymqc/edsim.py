"""Exact diagonalization of short odd chains in their symmetric sector.

The analytic correlators describe the lowest eigenstate of the
prod sigma_z = (-1)^L sector of the periodic chain, which for some couplings
in the ordered phase is the first excited state overall.  That state is even
under the chain's dihedral group (the L translations and their reflections),
so H is diagonalized only on the dihedral-even states of the sector, one per
orbit a of basis states, |a> = N_a^(-1/2) sum_{s in a} |s>, where N_a is the
orbit size: 63 states at L = 11 and 190 at L = 13, against 1024 and 4096 in
the whole sector (momentum and reflection states, A. W. Sandvik, AIP Conf.
Proc. 1297, 135 (2010)).

Why the state lies there: in the sigma_z basis every off-diagonal entry of H
is -lambda (hopping) or -lambda gamma (pairing), both <= 0 for lambda >= 0
and gamma in [0, 1].  For lambda gamma > 0 the sector is connected, so by
Perron-Frobenius its lowest level is nondegenerate with a positive vector,
which the symmetries, permuting basis states and commuting with H, must fix.
For gamma = 0 each fixed-magnetization block is connected and mapped to
itself by the symmetries, so the same holds block by block, and for
lambda = 0 the lowest sector state is the single basis state |1...1>.  So the
sector's lowest level always has an eigenvector in the subspace, and a
degeneracy of that level between blocks shows up inside it too.

Site 0 is the most significant bit of the basis index; |0> is sigma_z = +1.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, validate_density

LENGTHS = (5, 7, 9, 11, 13)
DEGENERACY_TOL = 1e-9


def _popcount(length):
    """Number of one bits of every basis index 0 .. 2^length - 1."""
    count = np.zeros(1 << length, dtype=np.int64)
    for k in range(length):  # indices 2^k .. 2^(k+1) - 1 add bit k to 0 .. 2^k - 1
        count[1 << k: 2 << k] = count[: 1 << k] + 1
    return count


@functools.lru_cache(maxsize=len(LENGTHS))
def _sector(length):
    """Tables of the dihedral-even basis of one length: the basis indices of
    the (-1)^L parity sector, the orbit of each, N^(-1/2) of that orbit, and
    the lambda-independent blocks Z, A, B of H = Z - lambda A - lambda gamma B
    (A from bond flips of unequal bits, B of equal bits).

    Block entry <b|H|a> = sqrt(N_a / N_b) sum_{t in b} H[t, r_a], where r_a
    represents orbit a, filled from the L bond flips of each r_a.  The flips
    from orbit a into b number N_b / N_a times those back, so each entry is
    an integer count times N_a over sqrt(N_a N_b), exactly symmetric.
    """
    dim = 1 << length
    count = _popcount(length)
    states = np.nonzero((count & 1) == (length & 1))[0]
    # the representative of an orbit is its smallest index over the 2L images
    mirrored = sum(((states >> i) & 1) << (length - 1 - i) for i in range(length))
    rep = states.copy()
    for image in (states, mirrored):
        for k in range(length):
            np.minimum(rep, ((image << k) | (image >> (length - k))) & (dim - 1), out=rep)
    reps, orbit, sizes = np.unique(rep, return_inverse=True, return_counts=True)
    orbit_of = np.empty(dim, dtype=np.int64)
    orbit_of[states] = orbit
    n = len(reps)
    # bond (i, i+1) holds bits `length - 1 - i` and `length - 2 - i` (mod L)
    bit = length - 1 - np.arange(length)
    flipped = reps[:, None] ^ ((1 << bit) | (1 << np.roll(bit, -1)))
    unequal = (((reps[:, None] >> bit) ^ (reps[:, None] >> np.roll(bit, -1))) & 1).astype(bool)
    target = orbit_of[flipped] * n + np.arange(n)[:, None]   # row b, column a
    scale = sizes[None, :] / np.sqrt(np.outer(sizes, sizes))

    def block(flips):
        return np.bincount(target[flips], minlength=n * n).reshape(n, n) * scale

    tables = (states, orbit, 1.0 / np.sqrt(sizes[orbit]),
              np.diag((length - 2 * count[reps]).astype(float)), block(unequal), block(~unequal))
    for table in tables:  # one copy serves every caller
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class SectorHamiltonian:
    """H of an L-site chain on the dihedral-even states of its (-1)^L
    parity sector, one row per orbit of basis states."""

    length: int
    matrix: np.ndarray


def build_hamiltonian(length, params):
    """H = -lambda sum[(1+g)/2 XX + (1-g)/2 YY] + sum Z, site L+1 = 1, on
    the dihedral-even states of the (-1)^L parity sector."""
    if length not in LENGTHS:
        raise ValueError(f"length must be one of {LENGTHS}, got {length}")
    *_, field, hopping, pairing = _sector(length)
    lam = params.lam
    return SectorHamiltonian(length, field - lam * hopping - (lam * params.gamma) * pairing)


def reference_state(ham):
    """(energy, state) of the lowest eigenstate of the prod sigma_z = (-1)^L
    sector, the one the analytic correlators describe, as a real normalised
    2^L vector.

    One dense `eigh` of the block on the translation- and reflection-even
    states (Sandvik, AIP Conf. Proc. 1297, 135 (2010)), whose lowest vector
    is spread evenly over each orbit.  H has no positive off-diagonal entry,
    so by Perron-Frobenius the sector's lowest level has an eigenvector in
    that subspace (module docstring).  Two lowest block levels within
    DEGENERACY_TOL leave the state undetermined and raise ValueError.
    """
    w, v = np.linalg.eigh(ham.matrix)
    if w[1] - w[0] < DEGENERACY_TOL:
        raise ValueError(f"the lowest level of the L={ham.length} sector is degenerate: "
                         f"gap {w[1] - w[0]:.3e} < {DEGENERACY_TOL:g}, so its state is not unique")
    states, orbit, amplitude, *_ = _sector(ham.length)
    state = np.zeros(1 << ham.length)
    state[states] = v[orbit, 0] * amplitude
    state /= np.linalg.norm(state)
    return float(w[0]), state


def reduced_states(state, site_lists, length):
    """Partial traces of |state><state|, one per list of kept sites, as a
    validated (n, 2^m, 2^m) stack; every list holds m sites, kept in the
    listed order (the first listed site is the most significant).  A real
    state gives a real stack, a complex one a complex stack.
    """
    state = np.asarray(state)
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


def reduced_state(state, sites, length):
    """Partial trace of |state><state| keeping the listed sites, in order."""
    rho = reduced_states(state, [sites], length)[0]
    return DensityMatrix(rho, (2,) * len(sites))


def dispersion_ground_energy(length, params):
    """Free-fermion energy -sum_q Lambda_q over integer momenta 2 pi q / L."""
    q = np.arange(-(length - 1) // 2, (length - 1) // 2 + 1)
    phi = 2.0 * np.pi * q / length
    lam, gamma = params.lam, params.gamma
    return float(-np.sum(np.hypot(1.0 + lam * np.cos(phi), lam * gamma * np.sin(phi))))
