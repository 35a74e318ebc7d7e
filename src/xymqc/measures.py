"""Bipartite and tripartite correlation measures for three-qubit states.

The four tripartite measures are the geometric mean of one-vs-two
negativities (n3), the negativity monogamy residual (t3), and upper/lower
bounds on the residual of squared entanglement of formation (tau_ub via the
PPT exact entanglement cost, tau_lb via the trace-norm/realignment lower
bound on entanglement of formation).

`evaluate` computes all four in one pass over a three-qubit state, each
spectrum once, stacked over the three cuts or the three pairs.  Every
matrix it takes a spectrum of is a fancy-index gather of the 64 entries of
rho through a table built at import, by applying `_permute_to_front`,
`linalg.partial_transpose` and `linalg.realignment` to a matrix of entry
indices, so the tables follow the kernels' conventions by construction:

- the three one-vs-two partial transposes, `_CUT_PT` (3, 8, 8); the
  absolute sum of their eigenvalues (one `eigvalsh`) is the trace norm,
  which gives the cut negativity (n3, t3) and the partial-transpose half of
  the E_f bound;
- the three realignments, `_CUT_RE` (3, 4, 16), whose singular values (one
  `svd`) give the other half of the E_f bound (tau_lb);
- the three pair states rho_01, rho_02, rho_12, `_PAIR` (3, 2, 4, 4): the
  sum of two gathers, the diagonal blocks with the traced qubit first;
  negativity and concurrence are symmetric under swapping the two qubits, so
  both centers that share a pair read the same values;
- the pair partial transpose, `_PAIR_PT` (4, 4), whose eigenvalues (one
  `eigvalsh` over the three pairs) give the pair negativities (t3);
- the three pair concurrences (one `concurrence` call) give the pair
  entanglements of formation (tau_ub, tau_lb).

A state is evaluated in its own dtype: a real one, as every `rdm3` state
is, in real arithmetic.  One more table, `_MIRROR` (64,), gathers
rho's image under swapping qubits 0 and 2; a state equal to it has equal
E_kappa on the cuts 0 | 12 and 2 | 01, so the solver runs on two cuts.

`evaluate` returns one flat `MqcRecord`: the four measures; the per-cut
tuples of the cuts c | rest for centers c = 0, 1, 2 (negativities, E_f
lower bounds, E_kappa); and the per-pair tuples in `PAIRS` order
(negativities, concurrences).  t3, tau_ub and tau_lb are each the mean over
the centers of x(c|rest)^2 - x(a)^2 - x(b)^2 over the two pairs a, b that
contain c (`CENTER_PAIRS`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import partial_transpose, realignment, trace_norm

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y).real  # sigma_y x sigma_y is real

NEG_ZERO_TOL = 1e-9  # negativities below this are treated as exactly zero
# largest entry deviation of rho from its qubit 0 <-> 2 mirror image that
# still counts as mirror-symmetric
MIRROR_TOL = 1e-14

DIMS3 = (2, 2, 2)
PAIRS = ((0, 1), (0, 2), (1, 2))
# for each center, the indices into PAIRS of its two pairs, other qubit ascending
CENTER_PAIRS = tuple(
    tuple(k for k, pair in enumerate(PAIRS) if center in pair) for center in range(3)
)


@dataclass
class MqcRecord:
    """The four measures of one three-qubit state and what they are built from.

    Per-cut tuples hold the cut center | rest for centers 0, 1, 2; per-pair
    tuples follow PAIRS.
    """

    n3: float
    t3: float
    tau_ub: float | None
    tau_lb: float
    negativities: tuple[float, float, float]      # N(c|rest)
    ef_lbs: tuple[float, float, float]            # lower bound on E_f(c|rest)
    e_ppts: tuple[float, float, float] | None     # E_kappa(c|rest), None without a solver
    pair_negativities: tuple[float, float, float]
    pair_concurrences: tuple[float, float, float]
    sdp_status: str


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def _hermitian_trace_norm(m):
    """Trace norm of Hermitian matrices stacked on leading axes: sum |eig|."""
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)


def negativity(rho, dims, part):
    """||rho^{T_part}||_1 - 1, clamped at zero for float dust."""
    val = float(_hermitian_trace_norm(partial_transpose(rho, dims, part))) - 1.0
    return max(val, 0.0)


def concurrence(rho):
    """Wootters concurrence of a two-qubit state.

    The square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy) are
    the singular values of A^T (sy x sy) A for rho = A A^dagger; taking them
    as singular values keeps the small ones accurate to machine precision
    rather than to its square root.  A float for one 4x4 matrix; an array
    over the leading axes of a stack.
    """
    w, v = np.linalg.eigh(np.asarray(rho))
    a = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    s = np.linalg.svd(np.swapaxes(a, -1, -2) @ SPIN_FLIP @ a, compute_uv=False)
    c = np.maximum(s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3], 0.0)
    return float(c) if c.ndim == 0 else c


def eof_from_concurrence(c):
    """Entanglement of formation of a two-qubit state of concurrence c (Wootters)."""
    return binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c))))


def _ef_bound(lam):
    """Chen-Albeverio-Fei E_f bound from the larger trace norm `lam`: the
    Wootters E_f of concurrence lam - 1, 0 for lam <= 1."""
    if lam > 2.0 + 1e-9:
        raise ValueError(f"trace-norm bound {lam:.6f} outside [1, 2]")
    lam = min(lam, 2.0)
    if lam <= 1.0:
        return 0.0
    return eof_from_concurrence(lam - 1.0)


def _permute_to_front(rho, dims, part):
    """Reorder subsystems so `part` comes first; returns the permuted matrix."""
    n = len(dims)
    order = [part] + [i for i in range(n) if i != part]
    t = np.asarray(rho).reshape(tuple(dims) + tuple(dims))
    t = np.transpose(t, order + [o + n for o in order])
    d = math.prod(dims)
    return t.reshape(d, d)


def _gather_tables():
    """(_CUT_PT, _CUT_RE, _PAIR, _PAIR_PT, _MIRROR): indices into the
    flattened rho (the pair partial transpose: into a flattened pair state)
    of the matrices `evaluate` takes spectra of, and of rho's mirror image."""
    index = np.arange(64).reshape(8, 8)
    fronts = np.stack([_permute_to_front(index, DIMS3, c) for c in range(3)])
    # with the traced qubit in front, a pair state is the sum of the two
    # diagonal 4x4 blocks, its qubits in ascending order as in PAIRS
    traced = [_permute_to_front(index, DIMS3, 3 - sum(pair)) for pair in PAIRS]
    tables = (
        partial_transpose(fronts, (2, 4), 0),
        realignment(fronts, (2, 4)),
        np.array([[m[:4, :4], m[4:, 4:]] for m in traced]),
        partial_transpose(np.arange(16).reshape(4, 4), (2, 2), 0),
        index.reshape((2,) * 6).transpose(2, 1, 0, 5, 4, 3).reshape(64),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


_CUT_PT, _CUT_RE, _PAIR, _PAIR_PT, _MIRROR = _gather_tables()


def _mean_residual(cut_values, pair_values):
    """Mean over the centers c of x(c|rest)^2 - x(a)^2 - x(b)^2, where a
    and b are the two pairs that contain c."""
    return sum(
        cut_values[c] ** 2 - pair_values[a] ** 2 - pair_values[b] ** 2
        for c, (a, b) in enumerate(CENTER_PAIRS)
    ) / 3.0


def evaluate(rho, solve_ppt=None):
    """The flat MqcRecord of a three-qubit state, an 8x8 matrix: the four
    measures, the per-cut tuples for centers 0, 1, 2 and the per-pair tuples
    in PAIRS order.

    `solve_ppt` is a callable (rho, dims, center) -> (e_ppt, status) that
    returns the E_kappa of the cut center | rest, a quantity that does not
    change when the qubits are relabelled; if None the SDP-backed tau_ub and
    the e_ppts are skipped and reported as None.  When rho equals its qubit
    0 <-> 2 mirror image to within MIRROR_TOL per entry (one gather through
    `_MIRROR`), as every alpha = beta `rdm3` state does, the cut 2 | 01 is
    the mirror image of 0 | 12: center 2 reuses center 0's (e_ppt, status)
    and `solve_ppt` is called for centers 0 and 1 only.
    """
    rho = np.asarray(rho)
    if rho.shape != (8, 8):
        raise ValueError(f"evaluate takes a three-qubit state, shape (8, 8); got {rho.shape}")
    flat = rho.reshape(64)
    pt_norms = _hermitian_trace_norm(flat[_CUT_PT])
    re_norms = trace_norm(flat[_CUT_RE])
    ef_lbs = tuple(_ef_bound(lam) for lam in np.maximum(pt_norms, re_norms).tolist())
    negs = tuple(np.maximum(pt_norms - 1.0, 0.0).tolist())

    pairs = flat[_PAIR].sum(axis=1)
    pair_negs = tuple(np.maximum(
        _hermitian_trace_norm(pairs.reshape(3, 16)[:, _PAIR_PT]) - 1.0, 0.0
    ).tolist())
    pair_cs = tuple(concurrence(pairs).tolist())
    pair_efs = [eof_from_concurrence(c) for c in pair_cs]

    e_ppts, statuses = None, ()
    if solve_ppt is not None:
        mirrored = np.max(np.abs(flat - flat[_MIRROR])) <= MIRROR_TOL
        solved = [solve_ppt(rho, DIMS3, center) for center in range(2 if mirrored else 3)]
        if mirrored:
            solved.append(solved[0])
        e_ppts, statuses = zip(*solved)
    clamped = [0.0 if v < NEG_ZERO_TOL else v for v in negs]
    return MqcRecord(
        n3=float(np.cbrt(clamped[0] * clamped[1] * clamped[2])),
        t3=max(_mean_residual(negs, pair_negs), 0.0),
        tau_ub=_mean_residual(e_ppts, pair_efs) if e_ppts is not None else None,
        tau_lb=max(_mean_residual(ef_lbs, pair_efs), 0.0),
        negativities=negs,
        ef_lbs=ef_lbs,
        e_ppts=e_ppts,
        pair_negativities=pair_negs,
        pair_concurrences=pair_cs,
        sdp_status="ok" if all(s == "converged" for s in statuses) else ";".join(statuses),
    )
