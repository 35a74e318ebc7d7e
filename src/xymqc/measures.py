"""Bipartite and tripartite correlation measures for three-qubit states.

The four tripartite measures are the geometric mean of one-vs-two
negativities (n3), the negativity monogamy residual (t3), and upper/lower
bounds on the residual of squared entanglement of formation (tau_ub via the
PPT exact entanglement cost, tau_lb via the trace-norm/realignment lower
bound on entanglement of formation).

`evaluate` computes all four in one pass over a three-qubit state, each
spectrum once, stacked over the three cuts or the three pairs:

- the three pair states rho_01, rho_02, rho_12 (one partial trace each);
  negativity and concurrence are symmetric under swapping the two qubits, so
  both centers that share a pair read the same values;
- the eigenvalues of the three one-vs-two partial transposes (one
  `eigvalsh`); their absolute sum is the trace norm, which gives the cut
  negativity (n3, t3) and the partial-transpose half of the E_f bound;
- the singular values of the three realignments (one `svd`), the other
  half of the E_f bound (tau_lb);
- the eigenvalues of the three pair partial transposes (one `eigvalsh`),
  giving the pair negativities (t3);
- the three pair concurrences (one `concurrence` call), giving the pair
  entanglements of formation (tau_ub, tau_lb).

`n3`, `t3`, `tau_ub` and `tau_lb` are views of that record.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace, partial_transpose, realignment, trace_norm

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)

NEG_ZERO_TOL = 1e-9  # negativities below this are treated as exactly zero

DIMS3 = (2, 2, 2)
PAIRS = ((0, 1), (0, 2), (1, 2))
# for each center, the indices into PAIRS of its two pairs, other qubit ascending
CENTER_PAIRS = tuple(
    tuple(k for k, pair in enumerate(PAIRS) if center in pair) for center in range(3)
)


@dataclass
class CenterReport:
    """Per-center ingredients of the residual measures."""

    center: int
    negativity: float          # N(x|yz)
    e_ppt: float | None        # E_PPT(x|yz), None if the SDP was not run
    ef_lb: float               # Chen lower bound on E_f(x|yz)
    ef_pair: tuple[float, float]   # E_f(xy), E_f(xz)
    neg_pair: tuple[float, float]  # N(xy), N(xz)
    tau_ub: float | None
    tau_lb: float
    t3: float


@dataclass
class MqcRecord:
    n3: float
    t3: float
    tau_ub: float | None
    tau_lb: float
    centers: list[CenterReport]
    concurrence_01: float      # C(rho_01), the pair of the first two qubits
    sdp_status: str = "ok"

    @property
    def bipartite_negativities(self):
        return tuple(c.negativity for c in self.centers)


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
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    a = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    s = np.linalg.svd(np.swapaxes(a, -1, -2) @ SPIN_FLIP @ a, compute_uv=False)
    c = np.maximum(s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3], 0.0)
    return float(c) if c.ndim == 0 else c


def eof_from_concurrence(c):
    """Entanglement of formation of a two-qubit state of concurrence c (Wootters)."""
    return binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c))))


def ef_lower_bound(rho, dims, part):
    """Analytic lower bound on E_f across the cut part | rest.

    Uses the larger of the partial-transpose and realignment trace norms.
    """
    dims = tuple(dims)
    front = _permute_to_front(rho, dims, part)
    pt_norm, re_norm = _cut_norms(front, (dims[part], front.shape[-1] // dims[part]))
    return _ef_bound(max(float(pt_norm), float(re_norm)))


def _cut_norms(front, cut):
    """(partial-transpose, realignment) trace norms across cut[0] | cut[1].

    `front` holds matrices (stacked on leading axes) whose cut subsystem is
    the first factor.
    """
    pt_norm = _hermitian_trace_norm(partial_transpose(front, cut, 0))
    return pt_norm, trace_norm(realignment(front, cut))


def _ef_bound(lam):
    """Chen-Albeverio-Fei E_f bound from the larger trace norm `lam`."""
    if lam > 2.0 + 1e-9:
        raise ValueError(f"trace-norm bound {lam:.6f} outside [1, 2]")
    lam = min(lam, 2.0)
    if lam <= 1.0:
        return 0.0
    gamma = 1.0 - (lam - 1.0) ** 2
    return binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, gamma))))


def _permute_to_front(rho, dims, part):
    """Reorder subsystems so `part` comes first; returns the permuted matrix."""
    n = len(dims)
    order = [part] + [i for i in range(n) if i != part]
    t = np.asarray(rho).reshape(tuple(dims) + tuple(dims))
    t = np.transpose(t, order + [o + n for o in order])
    d = math.prod(dims)
    return t.reshape(d, d)


def n3(rho, dims=DIMS3):
    """Geometric mean of the three one-vs-two negativities."""
    return evaluate(rho, dims).n3


def t3(rho, dims=DIMS3):
    """Negativity monogamy residual averaged over centers, clamped at 0."""
    return evaluate(rho, dims).t3


def tau_ub(rho, e_ppt_values, dims=DIMS3):
    """Mean residual of squared PPT entanglement cost; not clamped at zero."""
    def given(_rho, _dims, center):
        return e_ppt_values[center], "converged"

    return evaluate(rho, dims, solve_ppt=given).tau_ub


def tau_lb(rho, dims=DIMS3):
    """Mean residual of the squared E_f lower bound, clamped at zero."""
    return evaluate(rho, dims).tau_lb


def evaluate(rho, dims=DIMS3, solve_ppt=None):
    """Full MqcRecord for a three-qubit state.

    `solve_ppt` is a callable (rho, dims, center) -> (e_ppt, status);
    if None the SDP-backed tau_ub is skipped and reported as None.
    """
    dims = tuple(dims)
    if dims != DIMS3:
        raise ValueError(f"evaluate takes three qubits, dims {DIMS3}; got {dims}")
    rho = np.asarray(rho)
    fronts = np.stack([_permute_to_front(rho, dims, c) for c in range(3)])
    pt_norms, re_norms = _cut_norms(fronts, (2, 4))
    ef_lbs = [_ef_bound(lam) for lam in np.maximum(pt_norms, re_norms).tolist()]
    negs = np.maximum(pt_norms - 1.0, 0.0).tolist()

    pairs = np.stack([partial_trace(rho, dims, keep=p)[0] for p in PAIRS])
    pair_negs = np.maximum(
        _hermitian_trace_norm(partial_transpose(pairs, (2, 2), 0)) - 1.0, 0.0
    ).tolist()
    pair_cs = concurrence(pairs).tolist()
    pair_efs = [eof_from_concurrence(c) for c in pair_cs]

    centers = []
    statuses = []
    for center, (a, b) in enumerate(CENTER_PAIRS):
        ef = (pair_efs[a], pair_efs[b])
        npair = (pair_negs[a], pair_negs[b])
        if solve_ppt is not None:
            e_ppt, status = solve_ppt(rho, dims, center)
            statuses.append(status)
            tau_ub_c = e_ppt**2 - ef[0] ** 2 - ef[1] ** 2
        else:
            e_ppt, tau_ub_c = None, None
        centers.append(
            CenterReport(
                center=center,
                negativity=negs[center],
                e_ppt=e_ppt,
                ef_lb=ef_lbs[center],
                ef_pair=ef,
                neg_pair=npair,
                tau_ub=tau_ub_c,
                tau_lb=ef_lbs[center] ** 2 - ef[0] ** 2 - ef[1] ** 2,
                t3=negs[center] ** 2 - npair[0] ** 2 - npair[1] ** 2,
            )
        )
    clamped = [0.0 if v < NEG_ZERO_TOL else v for v in negs]
    return MqcRecord(
        n3=float(np.cbrt(clamped[0] * clamped[1] * clamped[2])),
        t3=max(sum(c.t3 for c in centers) / 3.0, 0.0),
        tau_ub=(
            sum(c.tau_ub for c in centers) / 3.0 if solve_ppt is not None else None
        ),
        tau_lb=max(sum(c.tau_lb for c in centers) / 3.0, 0.0),
        centers=centers,
        concurrence_01=pair_cs[0],
        sdp_status=(
            "ok"
            if not statuses or all(s == "converged" for s in statuses)
            else ";".join(statuses)
        ),
    )
