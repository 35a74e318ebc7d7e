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
sector's lowest level always has an eigenvector in the subspace, nonnegative
in the orbit basis, and a degeneracy of that level between blocks shows up
inside it too.

How the level is found: the free-fermion energy (`dispersion_ground_energy`)
is the sector's lowest level, so it seeds a Rayleigh-quotient iteration
started from the uniform positive vector, which converges in one solve on
most inputs.  What comes out is not trusted: one Cholesky factorization proves
that no other level lies within DEGENERACY_TOL of it or below it
(`_certified_lowest`).  Where the proof fails (a degenerate level, or a seed
that led elsewhere) one dense `eigh` of the block decides, so the seed sets
only the speed, never the result.

Site 0 is the most significant bit of the basis index; |0> is sigma_z = +1.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, validate_density

LENGTHS = (5, 7, 9, 11, 13)
DEGENERACY_TOL = 1e-9
_MAX_SOLVES = 5


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
    the lambda-independent terms of H = Z - lambda A - lambda gamma B: the
    diagonal of Z as a vector, and the blocks A (from bond flips of unequal
    bits) and B (of equal bits).

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
              (length - 2 * count[reps]).astype(float), block(unequal), block(~unequal))
    for table in tables:  # one copy serves every caller
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class SectorHamiltonian:
    """H of an L-site chain at `params` on the dihedral-even states of its
    (-1)^L parity sector, one row per orbit of basis states."""

    length: int
    params: object  # the xychain.ModelParams of the matrix
    matrix: np.ndarray


def build_hamiltonian(length, params):
    """H = -lambda sum[(1+g)/2 XX + (1-g)/2 YY] + sum Z, site L+1 = 1, on
    the dihedral-even states of the (-1)^L parity sector."""
    if length not in LENGTHS:
        raise ValueError(f"length must be one of {LENGTHS}, got {length}")
    *_, field, hopping, pairing = _sector(length)
    lam = params.lam
    # 0.0 - x, not -x, leaves +0.0 where no bond flip lands, and x + (-y) is
    # x - y exactly on the diagonal: h is (Z - lambda A) - lambda gamma B bit for bit
    h = np.subtract(0.0, lam * hopping)
    h.flat[:: len(h) + 1] += field
    h -= (lam * params.gamma) * pairing
    return SectorHamiltonian(length, params, h)


def _certified_lowest(h, sigma):
    """(level, unit vector) of the lowest level of the symmetric h, proven
    nondegenerate, or None when no proof comes out.

    Rayleigh-quotient iteration from the shift sigma and the uniform vector
    stops once the residual eps = |h x - theta x| of theta = x^T h x is at
    rounding level.  Some level then lies within eps of theta.  A Cholesky
    factorization of h - mu I + c x x^T, mu = theta + eps + DEGENERACY_TOL
    plus rounding slack, c = 2 |h|_inf, proves that matrix positive definite,
    and a positive rank-one term lifts no level past the next one
    (Courant-Fischer), so the second level of h lies above mu: the level
    within eps of theta is the lowest, and the gap exceeds DEGENERACY_TOL
    (B. N. Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4, 10).
    """
    n = len(h)
    scale = float(np.max(np.sum(np.abs(h), axis=1)))  # |h|_inf bounds every level
    slack = n * np.finfo(float).eps * scale
    x = np.full(n, n ** -0.5)
    for _ in range(_MAX_SOLVES):
        # a shift goes on the diagonal (stride n + 1) of one copy: at L = 13,
        # h - sigma * np.eye(n) costs about ten times as much
        shifted = h.copy()
        shifted.flat[:: n + 1] -= sigma
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:  # sigma is exactly a level (diagonal h)
            sigma -= slack
            continue
        x = y / np.linalg.norm(y)
        hx = h @ x
        theta = float(x @ hx)
        eps = float(np.linalg.norm(hx - theta * x))
        if eps <= slack:
            break
        sigma = theta
    else:
        return None
    lifted = np.outer(x, 2.0 * scale * x)
    lifted += h
    lifted.flat[:: n + 1] -= theta + eps + DEGENERACY_TOL + slack
    try:
        np.linalg.cholesky(lifted)
    except np.linalg.LinAlgError:
        return None
    return theta, x


def reference_state(ham):
    """(energy, state) of the lowest eigenstate of the prod sigma_z = (-1)^L
    sector, the one the analytic correlators describe, as a real normalised
    2^L vector signed to a positive sum.

    The pair is the lowest of the block on the translation- and
    reflection-even states (Sandvik, AIP Conf. Proc. 1297, 135 (2010)),
    whose lowest vector is spread evenly over each orbit (module docstring).
    Rayleigh-quotient solves seeded by the free-fermion energy find it, and
    one Cholesky factorization proves it lowest and nondegenerate
    (`_certified_lowest`).  Without that proof (a degenerate level, a seed
    that led to another level, no convergence) one dense `eigh` of the block
    decides, so the seed changes only the speed, never the result.  Two
    lowest block levels within DEGENERACY_TOL leave the state undetermined
    and raise ValueError.
    """
    pair = _certified_lowest(ham.matrix, dispersion_ground_energy(ham.length, ham.params))
    if pair is None:
        w, v = np.linalg.eigh(ham.matrix)
        if w[1] - w[0] < DEGENERACY_TOL:
            raise ValueError(
                f"the lowest level of the L={ham.length} sector is degenerate: "
                f"gap {w[1] - w[0]:.3e} < {DEGENERACY_TOL:g}, so its state is not unique")
        pair = w[0], v[:, 0]
    energy, vector = pair
    states, orbit, amplitude, *_ = _sector(ham.length)
    state = np.zeros(1 << ham.length)
    state[states] = vector[orbit] * amplitude
    state /= math.copysign(np.linalg.norm(state), state.sum())
    return float(energy), state


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
