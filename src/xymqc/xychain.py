"""Ground-state correlators and reduced density matrices of the XY chain.

The chain is H = -lambda * sum[(1+gamma)/2 XX + (1-gamma)/2 YY] + sum Z with
periodic boundary conditions.  The two-point fermionic correlators

    g(r) = (1/pi) int_0^pi [cos(r phi) alpha - sin(r phi) beta] / omega dphi,
    alpha = 1 + lambda cos(phi), beta = lambda gamma sin(phi),
    omega = sqrt(alpha^2 + beta^2),

are evaluated in the thermodynamic limit by a fixed 20-point Gauss-Legendre
rule on panels graded toward the gap-closing momenta, with the closed form
at gamma = 0, and for finite odd L by the momentum sum.  Either way all
g(-rmax..rmax) of a parameter point come from one vectorised call
(`correlators`), and both rules share one integrand (`_moments`) over the
lambda-independent node data of `_nodes`.  The momentum sum reads that data
from a bounded per-(L, rmax) cache (`_momentum_table`), and the
Gauss-Legendre rule from a bounded cache of one rule per (gamma, rmax, t0
cell) (`_cell_nodes`), so either call does only the lambda, gamma work.  The
cached rule is graded toward the cell, not toward lambda's own t0, so
thermodynamic-limit outputs move by ulps against a rule graded at each
lambda.  The Gauss-Legendre rule, and with it numpy.polynomial, is loaded on
the first thermodynamic-limit call.

The three-spin reduced state on sites (i-alpha, i, i+beta) is the Pauli
expansion rho = (1/8) (I + sum_P <P> P).  P runs over the 19 strings whose
expectation can be nonzero: Z on any sites, plus at most one XX or YY pair.
Each <P> is a Wick determinant (Lieb, Schultz & Mattis 1961; Barouch &
McCoy 1971) built by one sign rule:

- an XX pair on sites p < q gives A = p+1..q and B = p..q-1; YY swaps A, B;
- a Z strictly inside the pair's span removes its site from both lists;
- any other Z adds its site to both lists and multiplies the sign by -1;
- <P> = sign * det[g(b_j - a_i)] over the sorted lists.

The 19 determinants of a state come from one stacked `np.linalg.det` call;
the many more of every geometry at one parameter point (`rdm3_many`) from
one call per group of matrix sizes (`_wick_table`).

Basis conventions: |0> is the sigma_z = +1 eigenstate, the basis index of a
spin triple is 4*s1 + 2*s2 + s3 (leftmost site most significant).  At
lambda=0 the ground state is |111>.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, validate_density


@dataclass(frozen=True)
class ModelParams:
    """One XY ground state: coupling ratio, anisotropy, chain length.

    length is None for the thermodynamic limit, otherwise an odd int >= 5.
    """

    lam: float
    gamma: float
    length: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
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


# Panel width times the largest |r| stays below this, so that every panel
# holds at most ~1.3 periods of cos(r phi) (20-point rule exact to ~1e-15).
_MAX_PHASE = 8.0
# Depth of the grading toward t = 0, whatever |1 - lambda|; |integrand| <= 1,
# so the unresolved remainder is below 1e-17.
_MIN_DEPTH = 1e-17


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1].

    numpy.polynomial is imported here, on first use, so that finite-chain
    work never loads it.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(20)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _nodes(t, weights, rmax):
    """The lambda-independent data of a rule with nodes t = pi - phi.

    Returns (sin^2(t/2), sin t, w cos(r phi), w sin(r phi)), the last two as
    (rmax + 1, nodes) rows for r = 0..rmax, built by the row recurrence
    w e^{i (r+1) phi} = (w e^{i r phi}) e^{i phi}.
    """
    sin_t = np.sin(t)
    unit = -np.cos(t) + 1j * sin_t                    # e^{i phi}
    rows = np.empty((rmax + 1, t.size), dtype=complex)
    rows[0] = weights
    for r in range(rmax):
        np.multiply(rows[r], unit, out=rows[r + 1])
    half = np.sin(0.5 * t)                            # cos(phi/2)
    return half * half, sin_t, rows.real.copy(), rows.imag.copy()


def _moments(nodes, lam, gamma):
    """C_r = sum w cos(r phi) alpha/omega, S_r = sum w sin(r phi) beta/omega over `_nodes`.

    alpha = 1 + lam cos(phi) is taken as (1 - lam) + 2 lam cos^2(phi/2), which
    keeps full relative precision where the gap closes (phi -> pi).
    """
    half2, sin_t, cos_rows, sin_rows = nodes
    alpha = (1.0 - lam) + 2.0 * lam * half2
    beta = lam * gamma * sin_t
    omega = np.hypot(alpha, beta)
    return cos_rows @ (alpha / omega), sin_rows @ (beta / omega)


def _lagged(cos_moments, sin_moments):
    """g(-rmax), ..., g(rmax) from the moments for r = 0..rmax: g(±r) = C_r ∓ S_r."""
    return np.concatenate([(cos_moments + sin_moments)[:0:-1], cos_moments - sin_moments])


def _cell(lam, gamma):
    """The t0 cell of lambda: round(t0 / gamma) for lambda > 1, where
    t0 = arccos(1/lambda) = pi - phi0 and alpha vanishes; -1 for lambda <= 1."""
    if lam <= 1.0:
        return -1
    return round(math.atan(math.sqrt((lam - 1.0) * (lam + 1.0))) / gamma)


def _cell_rule(gamma, rmax, cell):
    """Nodes t = pi - phi and weights of the graded Gauss-Legendre rule on
    [0, pi] shared by every lambda of a t0 cell (`_cell`).

    Panels halve in width toward t = 0 (phi = pi, where the gap closes at
    lambda = 1) down to _MIN_DEPTH, which resolves any |1 - lambda|, and for
    cell >= 0 also toward t_c = cell * gamma down to gamma/4.  There alpha
    vanishes at t0, within gamma/2 of t_c, and the integrand steps over a
    width ~gamma, so its nearest singularity lies ~gamma off the real axis,
    eight times the half width of the panels that hold t0.  The edges are
    sorted and deduplicated by hand: np.unique would import numpy.ma.
    """
    levels = np.arange(int(np.ceil(np.log2(np.pi / _MIN_DEPTH))) + 1)
    edges = [np.array([0.0]), np.pi * 0.5 ** levels]
    if cell >= 0:
        t_c = cell * gamma
        steps = 0.25 * gamma * 2.0 ** np.arange(int(np.ceil(np.log2(4.0 * np.pi / gamma))) + 1)
        edges += [np.array([t_c]), t_c - steps, t_c + steps]
    edges = np.sort(np.clip(np.concatenate(edges), 0.0, np.pi))
    edges = edges[np.append(True, edges[1:] > edges[:-1])]
    pieces = np.ceil(np.diff(edges) * max(rmax, 1) / _MAX_PHASE).astype(int)
    if pieces.max() > 1:
        # each panel [a, b) in n pieces at a + k (b - a)/n, k < n: the
        # formula of np.linspace(a, b, n, endpoint=False), for all at once
        first = np.cumsum(pieces) - pieces
        k = np.arange(first[-1] + pieces[-1]) - np.repeat(first, pieces)
        step = np.repeat(np.diff(edges) / pieces, pieces)
        edges = np.append(k * step + np.repeat(edges[:-1], pieces), edges[-1])
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    x, w = _gauss_legendre()
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


@functools.lru_cache(maxsize=8)
def _cell_nodes(gamma, rmax, cell):
    """Read-only `_nodes` of `_cell_rule`, weights over pi.

    An entry holds (rmax + 3) x 1,200-1,800 float64 values: about 0.12 MB at
    rmax = 8, and 8 entries at most.  A sweep over lambda > 1 at small gamma
    crosses one cell per gamma of t0, so it rebuilds a rule that often.
    """
    t, weights = _cell_rule(gamma, rmax, cell)
    nodes = _nodes(t, weights / np.pi, rmax)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def g_infinite(params, rmax):
    """Fermionic correlators g(-rmax), ..., g(rmax) in the thermodynamic
    limit; g(r) sits at index r + rmax.

    The integral is a graded 20-point Gauss-Legendre rule, one cached rule
    per (gamma, rmax, t0 cell) (`_cell_nodes`), so a call does only the
    lambda work.  The rule a lambda reads depends on its cell, not on lambda
    itself, so g moves by a few ulps against a rule graded at lambda.  At
    lambda = 0 and at gamma = 0 the closed forms are used:
    g(r) = delta_{r0} for lambda <= 1, and g(r) = 2 sin(r phi0)/(pi r),
    g(0) = 2 phi0/pi - 1 with phi0 = arccos(-1/lambda) for lambda > 1.
    """
    lam, gamma = params.lam, params.gamma
    if gamma > 0.0 and lam > 0.0:
        nodes = _cell_nodes(gamma, rmax, _cell(lam, gamma))
        return _lagged(*_moments(nodes, lam, gamma))
    cos_moments = (np.arange(rmax + 1) == 0).astype(float)
    if lam > 1.0:
        phi0 = np.pi - np.arctan(np.sqrt((lam - 1.0) * (lam + 1.0)))  # arccos(-1/lam)
        k = np.arange(1, rmax + 1)
        cos_moments[0] = 2.0 * phi0 / np.pi - 1.0
        cos_moments[1:] = 2.0 * np.sin(k * phi0) / (np.pi * k)
    return _lagged(cos_moments, np.zeros(rmax + 1))


@functools.lru_cache(maxsize=16)
def _momentum_table(length, rmax):
    """Read-only `_nodes` of the momentum sum of an odd chain, for lags up to rmax.

    The momenta phi_q = 2 pi q / L, q = 0..(L-1)/2, stand for the pairs
    +-q, so every q > 0 has weight 2 / L and q = 0 has 1 / L.

    The cache holds at most 16 (L, rmax) entries of (rmax + 2) (L + 1)
    float64 values each: 108 KB for the lags of geometry (2, 1) at L = 2701,
    0.48 MB for span 20 there.  An `rdm3` state needs rmax <= L - 1, where an
    entry takes at most 8 (L + 1)^2 bytes (1.3 MB at L = 401, 58 MB at
    L = 2701), so the worst case is 16 such entries.
    """
    q = np.arange((length + 1) // 2)
    t = np.pi * (length - 2 * q) / length
    nodes = _nodes(t, np.where(q == 0, 1.0, 2.0) / length, rmax)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def g_finite(params, rmax):
    """Fermionic correlators g(-rmax), ..., g(rmax) for a finite odd chain
    (momentum sum); g(r) sits at index r + rmax.

    Momenta are phi_q = 2*pi*q/L with integer q in [-(L-1)/2, (L-1)/2];
    this set reproduces the lowest eigenstate of the odd spin-parity sector.
    The +q and -q terms are summed together, over nodes read from the
    per-length `_momentum_table`; a call does only the lambda, gamma work.
    """
    if params.infinite:
        raise ValueError("g_finite requires a finite chain")
    return _lagged(*_moments(_momentum_table(params.length, rmax), params.lam, params.gamma))


def correlators(params, rmax):
    """g(-rmax), ..., g(rmax) from one correlator call; g(r) sits at index r + rmax."""
    return (g_infinite if params.infinite else g_finite)(params, rmax)


# The 19 strings of the Pauli expansion, one letter per site.
_STRINGS = ("ZII", "IZI", "IIZ", "ZZI", "ZIZ", "IZZ", "ZZZ", "XXI", "YYI", "XXZ",
            "YYZ", "XIX", "YIY", "XZX", "YZY", "IXX", "IYY", "ZXX", "ZYY")
_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
# Every string holds an even number of Y, so its 8x8 matrix is real.  The
# rows hold each string matrix, and the identity, over 8 and flattened; the
# power-of-two scale keeps rho = (I + sum <P> P) / 8 exact.
_STRING_ROWS = np.array(
    [np.kron(np.kron(_PAULI[a], _PAULI[b]), _PAULI[c]).real.ravel() for a, b, c in _STRINGS]
) / 8.0
_IDENTITY_ROW = np.eye(8).ravel() / 8.0


def _wick_lists(string, sites):
    """(A, B, sign) with <string> = sign * det[g(b_j - a_i)], by the module's sign rule."""
    pair = [s for s, op in zip(sites, string) if op in "XY"]
    a, b, sign = set(), set(), 1.0
    if pair:
        p, q = pair
        a, b = set(range(p + 1, q + 1)), set(range(p, q))
        if "Y" in string:
            a, b = b, a
    for s, op in zip(sites, string):
        if op == "Z":  # removes s inside the pair's span, adds it anywhere else
            a, b = a ^ {s}, b ^ {s}
            if not (pair and pair[0] < s < pair[1]):
                sign = -sign
    return sorted(a), sorted(b), sign


def _wick_index(a_sites, b_sites, size, rmax):
    """Indices of g(b_j - a_i) into [g(-rmax..rmax), 0, 1], padded to size x size.

    The padding is an identity block, which leaves the determinant unchanged.
    """
    index = np.full((size, size), 2 * rmax + 1)
    np.fill_diagonal(index, 2 * rmax + 2)
    k = len(a_sites)
    index[:k, :k] = np.asarray(b_sites)[None, :] - np.asarray(a_sites)[:, None] + rmax
    return index


def _wick_dets(gv, stacks):
    """Determinants of every matrix of a sequence of `_wick_index` stacks over
    gv = g(-rmax..rmax), concatenated in order; one `np.linalg.det` per stack."""
    values = np.concatenate([gv, [0.0, 1.0]])
    return np.concatenate([np.linalg.det(values[index]) for index in stacks])


# Holds the two geometry tuples of `verify` at L = 11 and 13 beside the
# single geometries that sweeps and tests ask for.
@functools.lru_cache(maxsize=128)
def _wick_table(geoms):
    """Read-only (index stacks, order, signs, rmax) of the `_STRINGS`
    determinants at every (alpha, beta) of the tuple `geoms`.

    Every matrix reads one lag vector g(-rmax..rmax), rmax being the largest
    span.  A matrix depends only on the lags b_j - a_i, so the (A, B) lists
    shifted to start at 0 key it, and each distinct key is one matrix (499
    for the 1254 strings of the L = 13 `verify` stack).  The matrices are
    grouped by size: taking sizes from the largest down, all matrices of a
    size join the open group, and a group closes once it holds more than 19
    matrices.  One geometry is thus one group, and a `verify` stack one group
    per size, whose padded LU work equals the matrices' own.  Each group is a
    (k, size, size) index stack padded to its largest size, for one
    `np.linalg.det` call; `order` takes the concatenated determinants to
    string order, and the signs have shape (n, 19).  Indices are held in
    numpy's default integer, which a gather takes without a conversion.
    """
    rmax = max(alpha + beta for alpha, beta in geoms)
    lists = [_wick_lists(string, (-alpha, 0, beta))
             for alpha, beta in geoms for string in _STRINGS]
    keys = {}  # shifted (A, B) -> index of its distinct matrix
    matrix_of = []
    for a, b, _ in lists:
        shift = min(a[:1] + b[:1], default=0)
        key = (tuple(s - shift for s in a), tuple(s - shift for s in b))
        matrix_of.append(keys.setdefault(key, len(keys)))
    distinct = list(keys)
    sizes = [len(a) for a, _ in distinct]
    groups, members = [], []
    for size in sorted(set(sizes), reverse=True):
        members += [k for k, s in enumerate(sizes) if s == size]
        if len(members) > len(_STRINGS):
            groups.append(members)
            members = []
    if members:
        groups.append(members)
    stacks = tuple(
        np.array([_wick_index(*distinct[k], sizes[group[0]], rmax) for k in group])
        for group in groups
    )
    order = np.argsort(np.concatenate(groups))[matrix_of]
    signs = np.array([sign for _, _, sign in lists]).reshape(len(geoms), len(_STRINGS))
    for a in (*stacks, order, signs):
        a.flags.writeable = False
    return stacks, order, signs, rmax


def _rdm3_stack(geoms, params):
    """Unvalidated real (n, 8, 8) stack of the `rdm3_many` states."""
    for geom in geoms:
        geom.validate_for(params)
    stacks, order, signs, rmax = _wick_table(tuple((geom.alpha, geom.beta) for geom in geoms))
    dets = _wick_dets(correlators(params, rmax), stacks)
    values = signs * dets[order].reshape(signs.shape)
    # exactly symmetric, since every string matrix is
    return (_IDENTITY_ROW + values @ _STRING_ROWS).reshape(-1, 8, 8)


def rdm3_many(geoms, params):
    """Validated (n, 8, 8) stack of the three-spin reduced density matrices
    of every geometry in `geoms` at one parameter point.

    One `correlators` call serves the whole stack, and one `np.linalg.det`
    call each group of Wick-matrix sizes (`_wick_table`).
    """
    m = _rdm3_stack(geoms, params)
    validate_density(m)
    return m


def rdm3(geom, params):
    """Three-spin reduced density matrix for sites (i-alpha, i, i+beta)."""
    return DensityMatrix(_rdm3_stack((geom,), params)[0], (2, 2, 2))


def factorization_lambda(gamma):
    """Coupling where the thermodynamic-limit ground state factorizes."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"factorization point requires gamma in (0, 1), got {gamma}")
    return 1.0 / np.sqrt(1.0 - gamma * gamma)
