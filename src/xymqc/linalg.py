"""Dense kernels for small Hermitian matrices.

Everything here operates on plain real or complex numpy arrays.  Composite
indices follow the convention that the leftmost subsystem is the most
significant digit of the basis index.
"""

import math

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9


class NotHermitianError(ValueError):
    pass


class NotPSDError(ValueError):
    pass


def validate_density(m):
    """Raise unless every matrix of a (d, d) array or (..., d, d) stack is a
    density matrix: finite, Hermitian, unit trace and PSD.

    The checks run over the whole stack, with one batched `eigvalsh`; each
    message quotes the worst matrix.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    herm_dev = np.abs(m - np.swapaxes(m, -1, -2).conj()).max()
    if herm_dev > HERMITICITY_TOL:
        raise NotHermitianError(f"deviation from Hermiticity {herm_dev:.3e}")
    tr_dev = np.abs(m.trace(axis1=-2, axis2=-1) - 1.0).max()
    if tr_dev > HERMITICITY_TOL:
        raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
    min_eig = np.linalg.eigvalsh(m)[..., 0].min()
    if min_eig < -PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {min_eig:.3e}")


class DensityMatrix:
    """A Hermitian, unit-trace, PSD matrix over a list of subsystem dims, in
    the dtype it is built with (real for a real state)."""

    def __init__(self, matrix, dims):
        matrix = np.asarray(matrix)
        dims = tuple(int(d) for d in dims)
        if matrix.shape != (math.prod(dims), math.prod(dims)):
            raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
        self.matrix = matrix
        self.dims = dims
        self.validate()

    def validate(self):
        validate_density(self.matrix)


def _to_tensor(matrix, dims):
    n = len(dims)
    return np.asarray(matrix).reshape(dims + dims), n


def partial_transpose(matrix, dims, subsystem):
    """Transpose one tensor factor of a composite-system matrix.

    Leading axes of `matrix` beyond the last two are a batch.
    """
    dims = tuple(dims)
    if not 0 <= subsystem < len(dims):
        raise IndexError(f"subsystem {subsystem} out of range for dims {dims}")
    matrix = np.asarray(matrix)
    batch = matrix.shape[:-2]
    n, b = len(dims), len(batch)
    t = matrix.reshape(batch + dims + dims)
    t = np.swapaxes(t, b + subsystem, b + subsystem + n)
    d = math.prod(dims)
    return t.reshape(batch + (d, d)).copy()


def partial_trace(matrix, dims, keep):
    """Trace out all subsystems not in `keep`; returns (matrix, kept dims).

    `keep` preserves the order in which indices are listed.
    """
    dims = tuple(dims)
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be non-empty")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate subsystem in keep set")
    if any(not 0 <= k < len(dims) for k in keep):
        raise IndexError(f"keep {keep} out of range for dims {dims}")
    t, n = _to_tensor(matrix, dims)
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(sorted(traced, reverse=True)):
        t = np.trace(t, axis1=i, axis2=i + n - count)
    # axes now ordered by ascending original index; reorder to `keep`
    kept_sorted = sorted(keep)
    perm = [kept_sorted.index(k) for k in keep]
    m = len(keep)
    t = np.transpose(t, perm + [p + m for p in perm])
    kept_dims = tuple(dims[k] for k in keep)
    d = math.prod(kept_dims)
    return t.reshape(d, d).copy(), kept_dims


def realignment(matrix, dims):
    """Realign a bipartite matrix: R[(i,i'),(j,j')] = M[(i,j),(i',j')].

    Leading axes of `matrix` beyond the last two are a batch.
    """
    dims = tuple(dims)
    if len(dims) != 2:
        raise ValueError(f"realignment needs exactly two subsystem dims, got {dims}")
    da, db = dims
    matrix = np.asarray(matrix)
    batch = matrix.shape[:-2]
    t = matrix.reshape(batch + (da, db, da, db))  # (..., i, j, i', j')
    return np.swapaxes(t, -3, -2).reshape(batch + (da * da, db * db)).copy()


def trace_norm(m):
    """Sum of singular values.

    A float for one matrix; an array over the leading axes of a stack.  Real
    input takes a real SVD.
    """
    norms = np.linalg.svd(np.asarray(m), compute_uv=False).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def matrix_sqrt_psd(m):
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in (-1e-9, 0) are clamped to zero; anything lower is an error.
    """
    m = np.asarray(m)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > HERMITICITY_TOL:
        raise NotHermitianError(f"deviation from Hermiticity {dev:.3e}")
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)
