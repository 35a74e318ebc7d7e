"""Ground-state correlators and reduced density matrices of the XY chain.

The chain is H = -lambda * sum[(1+gamma)/2 XX + (1-gamma)/2 YY] + sum Z with
periodic boundary conditions.  Two-point fermionic correlators g(r) are
evaluated by quadrature (thermodynamic limit) or by a momentum sum (finite
odd L), and every element of the three-spin reduced state is assembled from
them through Wick-theorem determinants.

Basis conventions: |0> is the sigma_z = +1 eigenstate, the basis index of a
spin triple is 4*s1 + 2*s2 + s3 (leftmost site most significant).  At
lambda=0 the ground state is |111>.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .linalg import DensityMatrix, partial_trace


@dataclass(frozen=True)
class ModelParams:
    """One XY ground state: coupling ratio, anisotropy, chain length.

    length is None for the thermodynamic limit, otherwise an odd int >= 5.
    """

    lam: float
    gamma: float
    length: int | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.length is not None:
            if self.length < 5 or self.length % 2 == 0:
                raise ValueError(f"finite chain length must be odd and >= 5, got {self.length}")

    @property
    def infinite(self):
        return self.length is None


@dataclass(frozen=True)
class SpinGeometry:
    """Spatial arrangement (alpha, beta) of sites (i-alpha, i, i+beta)."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError(f"alpha and beta must be >= 1, got {(self.alpha, self.beta)}")

    def validate_for(self, params):
        if params.length is not None and self.alpha + self.beta > params.length - 1:
            raise ValueError(
                f"geometry {(self.alpha, self.beta)} needs alpha+beta <= L-1 = {params.length - 1}"
            )

    @property
    def span(self):
        return self.alpha + self.beta


def _integrand(phi, r, lam, gamma):
    alpha = 1.0 + lam * np.cos(phi)
    beta = lam * gamma * np.sin(phi)
    denom = np.hypot(alpha, beta)
    if denom == 0.0:
        return 0.0  # removable 0/0 exactly at the gap-closing momentum
    return (np.cos(phi * r) * alpha - beta * np.sin(phi * r)) / denom


def g_infinite(r, params):
    """Fermionic correlator g(r) in the thermodynamic limit (quadrature)."""
    lam, gamma = params.lam, params.gamma
    # Interior points where the dispersion can vanish (integrand kink/jump).
    pts = []
    if gamma == 0.0 and lam > 1.0:
        pts.append(np.arccos(-1.0 / lam))
    if abs(lam - 1.0) < 1e-13:
        pts.append(np.pi * (1 - 1e-9))
    val, err = integrate.quad(
        _integrand, 0.0, np.pi, args=(r, lam, gamma),
        epsabs=1e-12, epsrel=1e-12, limit=400, points=pts or None,
    )
    return val / np.pi


def g_finite(r, params):
    """Fermionic correlator g(r) for a finite odd chain (momentum sum).

    Momenta are phi_q = 2*pi*q/L with integer q in [-(L-1)/2, (L-1)/2];
    this set reproduces the lowest eigenstate of the odd spin-parity sector.
    """
    if params.infinite:
        raise ValueError("g_finite requires a finite chain")
    L, lam, gamma = params.length, params.lam, params.gamma
    q = np.arange(-(L - 1) // 2, (L - 1) // 2 + 1)
    phi = 2.0 * np.pi * q / L
    alpha = 1.0 + lam * np.cos(phi)
    beta = lam * gamma * np.sin(phi)
    terms = (np.cos(phi * r) * alpha - beta * np.sin(phi * r)) / np.hypot(alpha, beta)
    return float(np.sum(terms)) / L


class CorrelationTable:
    """Memoized g(r) values for one parameter point.

    Lookups integrate/sum lazily; correctness never depends on cache hits.
    """

    def __init__(self, params):
        self.params = params
        self._values = {}

    def g(self, r):
        r = int(r)
        if r not in self._values:
            if self.params.infinite:
                self._values[r] = g_infinite(r, self.params)
            else:
                self._values[r] = g_finite(r, self.params)
        return self._values[r]

    def ensure_range(self, rmax):
        for r in range(-rmax, rmax + 1):
            self.g(r)
        return self


@lru_cache(maxsize=64)
def correlation_table(params):
    """CorrelationTable shared per parameter point; the 64 most recent are kept."""
    return CorrelationTable(params)


def _wick_det(g, a_sites, b_sites, sign):
    """sign * det[ g(b_j - a_i) ] over ascending A/B site lists."""
    n = len(a_sites)
    m = np.empty((n, n))
    for i, a in enumerate(a_sites):
        for j, b in enumerate(b_sites):
            m[i, j] = g(b - a)
    return sign * float(np.linalg.det(m))


def corr_xx(g, dist):
    """<X_0 X_d> pair correlator."""
    a = list(range(1, dist + 1))
    b = list(range(0, dist))
    return _wick_det(g, a, b, 1.0)


def corr_yy(g, dist):
    """<Y_0 Y_d> pair correlator."""
    a = list(range(0, dist))
    b = list(range(1, dist + 1))
    return _wick_det(g, a, b, 1.0)


def corr_zz(g, dist):
    """<Z_0 Z_d> pair correlator."""
    return g(0) ** 2 - g(dist) * g(-dist)


def corr_zzz(g, alpha, beta):
    """<Z_{-a} Z_0 Z_b> triple correlator."""
    sites = [-alpha, 0, beta]
    return _wick_det(g, sites, sites, -1.0)


def corr_xxz(g, alpha, beta):
    """<X_{-a} X_0 Z_b> triple correlator."""
    a = list(range(-alpha + 1, 1)) + [beta]
    b = list(range(-alpha, 0)) + [beta]
    return _wick_det(g, a, b, -1.0)


def corr_yyz(g, alpha, beta):
    """<Y_{-a} Y_0 Z_b> triple correlator."""
    a = list(range(-alpha, 0)) + [beta]
    b = list(range(-alpha + 1, 1)) + [beta]
    return _wick_det(g, a, b, -1.0)


def corr_zxx(g, alpha, beta):
    """<Z_{-a} X_0 X_b>; mirror image of <X X Z> with the roles swapped."""
    return corr_xxz(g, beta, alpha)


def corr_zyy(g, alpha, beta):
    """<Z_{-a} Y_0 Y_b>; mirror image of <Y Y Z>."""
    return corr_yyz(g, beta, alpha)


def corr_xzx(g, alpha, beta):
    """<X_{-a} Z_0 X_b> triple correlator."""
    a = [s for s in range(-alpha + 1, beta + 1) if s != 0]
    b = [s for s in range(-alpha, beta) if s != 0]
    return _wick_det(g, a, b, 1.0)


def corr_yzy(g, alpha, beta):
    """<Y_{-a} Z_0 Y_b> triple correlator."""
    a = [s for s in range(-alpha, beta) if s != 0]
    b = [s for s in range(-alpha + 1, beta + 1) if s != 0]
    return _wick_det(g, a, b, 1.0)


def rdm3(geom, params):
    """Three-spin reduced density matrix for sites (i-alpha, i, i+beta)."""
    geom.validate_for(params)
    al, be = geom.alpha, geom.beta
    table = correlation_table(params)
    table.ensure_range(al + be + 1)
    g = table.g

    z1 = z2 = z3 = -g(0)                      # single-site <Z>
    z12 = corr_zz(g, al)                      # sites (i-alpha, i)
    z13 = corr_zz(g, al + be)                 # sites (i-alpha, i+beta)
    z23 = corr_zz(g, be)                      # sites (i, i+beta)
    zzz = corr_zzz(g, al, be)

    xx23, yy23 = corr_xx(g, be), corr_yy(g, be)
    xx13, yy13 = corr_xx(g, al + be), corr_yy(g, al + be)
    xx12, yy12 = corr_xx(g, al), corr_yy(g, al)

    zxx = corr_zxx(g, al, be)                 # Z on site 1, XX on (2,3)
    zyy = corr_zyy(g, al, be)
    xzx = corr_xzx(g, al, be)                 # X..Z..X across the triple
    yzy = corr_yzy(g, al, be)
    xxz = corr_xxz(g, al, be)                 # XX on (1,2), Z on site 3
    yyz = corr_yyz(g, al, be)

    m = np.zeros((8, 8))
    # Diagonal: (1/8)[1 + sum z_i <Z_i> + sum z_i z_j <Z_i Z_j> + z1 z2 z3 <ZZZ>]
    for idx in range(8):
        s = [1.0 - 2.0 * ((idx >> k) & 1) for k in (2, 1, 0)]
        m[idx, idx] = (
            1.0
            + s[0] * z1 + s[1] * z2 + s[2] * z3
            + s[0] * s[1] * z12 + s[0] * s[2] * z13 + s[1] * s[2] * z23
            + s[0] * s[1] * s[2] * zzz
        )
    # Off-diagonal entries (all real); indices are 0-based positions in the
    # 8x8 matrix, pattern fixed by parity and reality of the Hamiltonian.
    m[0, 3] = xx23 + zxx - yy23 - zyy
    m[1, 2] = xx23 + zxx + yy23 + zyy
    m[4, 7] = xx23 - zxx - yy23 + zyy
    m[5, 6] = xx23 - zxx + yy23 - zyy
    m[0, 5] = xx13 + xzx - yy13 - yzy
    m[1, 4] = xx13 + xzx + yy13 + yzy
    m[2, 7] = xx13 - xzx - yy13 + yzy
    m[3, 6] = xx13 - xzx + yy13 - yzy
    m[0, 6] = xx12 + xxz - yy12 - yyz
    m[1, 7] = xx12 - xxz - yy12 + yyz
    m[2, 4] = xx12 + xxz + yy12 + yyz
    m[3, 5] = xx12 - xxz + yy12 - yyz
    m = m + np.triu(m, 1).T
    return DensityMatrix.from_matrix(m / 8.0, (2, 2, 2))


def rdm2(distance, params):
    """Two-spin reduced density matrix at the given site separation."""
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    rho3 = rdm3(SpinGeometry(distance, 1), params)
    mat, dims = partial_trace(rho3.matrix, rho3.dims, keep=[0, 1])
    return DensityMatrix.from_matrix(mat, dims)


def factorization_lambda(gamma):
    """Coupling where the thermodynamic-limit ground state factorizes."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"factorization point requires gamma in (0, 1), got {gamma}")
    return 1.0 / np.sqrt(1.0 - gamma * gamma)


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
