import functools
import re

import numpy as np
import pytest

from oracles import (factorized_pair, ground_state, kron_hamiltonian, lowest_levels,
                     spin_parity_diagonal)
from xymqc import edsim
from xymqc.linalg import partial_trace
from xymqc.xychain import ModelParams, SpinGeometry, factorization_lambda, rdm3


def test_length_validation():
    params = ModelParams(1.0, 0.5, 9)
    for bad in (3, 4, 8, 15, 16):
        with pytest.raises(ValueError, match=re.escape(str(edsim.LENGTHS))):
            edsim.build_hamiltonian(bad, params)


def test_free_field_diagonal():
    h = kron_hamiltonian(5, 0.0, 1.0)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    energy, state = ground_state(h)
    assert abs(energy + 5.0) < 1e-12
    assert abs(abs(state[-1]) - 1.0) < 1e-9  # |11111>
    # the sector block is diagonal too, and its state is the same |11111>
    ham = edsim.build_hamiltonian(5, ModelParams(0.0, 1.0, 5))
    assert np.max(np.abs(ham.matrix - np.diag(np.diag(ham.matrix)))) == 0.0
    energy, state = edsim.reference_state(ham)
    assert abs(energy + 5.0) < 1e-12
    assert abs(abs(state[-1]) - 1.0) < 1e-9


def test_hamiltonian_is_real_symmetric():
    h = kron_hamiltonian(7, 0.9, 0.3)
    assert np.max(np.abs(h.imag)) == 0.0
    assert np.max(np.abs(h - h.T)) == 0.0
    block = edsim.build_hamiltonian(7, ModelParams(0.9, 0.3, 7)).matrix
    assert np.max(np.abs(block - block.T)) == 0.0
    assert np.isrealobj(block)


def site_permutation(length, image):
    """Permutation matrix moving the spin of site i to site image[i]."""
    perm = np.zeros((1 << length, 1 << length))
    for n in range(1 << length):
        bits = [(n >> (length - 1 - i)) & 1 for i in range(length)]
        m = sum(b << (length - 1 - image[i]) for i, b in enumerate(bits))
        perm[m, n] = 1.0
    return perm


def symmetric_sector_basis(length):
    """Orthonormal columns spanning the (-1)^L parity states that every
    translation and reflection of the ring leaves unchanged."""
    shift = site_permutation(length, [(i + 1) % length for i in range(length)])
    mirror = site_permutation(length, [length - 1 - i for i in range(length)])
    group, power = [], np.eye(1 << length)
    for _ in range(length):
        group += [power, mirror @ power]
        power = shift @ power
    parity = np.diag(spin_parity_diagonal(length))
    projector = sum(group) / len(group) @ (np.eye(1 << length) + (-1) ** length * parity) / 2
    w, v = np.linalg.eigh(projector)
    assert np.all((np.abs(w) < 1e-12) | (np.abs(w - 1.0) < 1e-12))
    return v[:, w > 0.5]


@pytest.mark.parametrize("length", [5, 7])
def test_hamiltonian_matches_kronecker_sum(length):
    # the sector block and the Kronecker sum projected onto the symmetric
    # parity states share one spectrum
    basis = symmetric_sector_basis(length)
    for lam in (0.0, 0.9, 2.0):
        for gamma in (0.0, 0.4, 1.0):
            ham = edsim.build_hamiltonian(length, ModelParams(lam, gamma, length))
            expect = kron_hamiltonian(length, lam, gamma)
            assert np.max(np.abs(expect.imag)) == 0.0
            assert ham.matrix.shape == (basis.shape[1],) * 2
            projected = basis.T @ expect.real @ basis
            assert np.max(np.abs(np.linalg.eigvalsh(ham.matrix)
                                 - np.linalg.eigvalsh(projected))) <= 1e-12


@pytest.mark.parametrize("length,rows", [(5, 4), (7, 9), (9, 23), (11, 63), (13, 190)])
def test_sector_sizes(length, rows):
    ham = edsim.build_hamiltonian(length, ModelParams(0.7, 0.5, length))
    assert ham.matrix.shape == (rows, rows)
    states, orbit, amplitude, *_ = edsim._sector(length)
    sizes = np.bincount(orbit)
    assert len(sizes) == rows and sizes.sum() == len(states) == 1 << (length - 1)
    assert np.array_equal(amplitude, 1.0 / np.sqrt(sizes[orbit]))


@functools.cache
def full_sector_parts(length):
    """Z, A and B of H = Z - lam A - lam gamma B on the whole (-1)^L parity
    sector, from three Kronecker sums."""
    keep = np.nonzero(spin_parity_diagonal(length) == (-1) ** length)[0]
    z, h10, h11 = (kron_hamiltonian(length, lam, gamma).real[np.ix_(keep, keep)]
                   for lam, gamma in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    return keep, z, z - h10, h10 - h11


@pytest.mark.parametrize("length", [5, 7, 9])
def test_reference_state_is_lowest_of_full_sector(length):
    keep, z, hopping, pairing = full_sector_parts(length)
    for lam in (0.0, 0.5, 1.0, factorization_lambda(0.5), 2.0):
        for gamma in (0.05, 0.2, 0.5, 1.0):
            w, v = np.linalg.eigh(z - lam * hopping - lam * gamma * pairing)
            params = ModelParams(lam, gamma, length)
            energy, state = edsim.reference_state(edsim.build_hamiltonian(length, params))
            assert abs(energy - w[0]) <= 1e-12, (lam, gamma)
            assert 1.0 - abs(state[keep] @ v[:, 0]) <= 1e-12, (lam, gamma)
            assert not np.any(np.delete(state, keep))


@pytest.mark.parametrize("length", [11, 13])
def test_reference_energy_matches_dispersion(length):
    for lam in (0.0, 0.5, 1.0, factorization_lambda(0.5), 2.0):
        for gamma in (0.05, 0.2, 0.5, 1.0):
            params = ModelParams(lam, gamma, length)
            energy, _ = edsim.reference_state(edsim.build_hamiltonian(length, params))
            assert abs(energy - edsim.dispersion_ground_energy(length, params)) < 1e-9


@pytest.mark.parametrize("length", [5, 7])
def test_parity_diagonal_matches_kronecker_product(length):
    expect = np.diag(functools.reduce(np.kron, [np.diag([1.0, -1.0])] * length))
    assert np.array_equal(spin_parity_diagonal(length), expect)


def test_reference_state_and_its_reduced_states_are_real():
    params = ModelParams(1.3, 0.4, 9)
    _, state = edsim.reference_state(edsim.build_hamiltonian(9, params))
    assert state.dtype == float
    lists = [[0, 2, 5], [3, 1, 8], [4, 6, 7]]
    real = edsim.reduced_states(state, lists, 9)
    assert real.dtype == float
    assert edsim.reduced_state(state, lists[0], 9).matrix.dtype == float
    cplx = edsim.reduced_states(state.astype(complex), lists, 9)
    assert cplx.dtype == complex
    assert np.max(np.abs(real - cplx)) <= 1e-15


def test_commutes_with_parity():
    h = kron_hamiltonian(7, 1.2, 0.7)
    p = spin_parity_diagonal(7)
    hp = h * p[None, :]  # H P
    ph = h * p[:, None]  # P H
    assert np.abs(hp - ph).max() < 1e-12


@pytest.mark.parametrize("length,lam,gamma", [(5, 0.5, 1.0), (11, 1.0, 1.0)])
def test_ground_energy_matches_dispersion(length, lam, gamma):
    params = ModelParams(lam, gamma, length)
    if length <= 9:
        energy, _ = ground_state(kron_hamiltonian(length, lam, gamma))
    else:  # past the dense oracle's size: the package's sector state
        energy, _ = edsim.reference_state(edsim.build_hamiltonian(length, params))
    assert abs(energy - edsim.dispersion_ground_energy(length, params)) < 1e-9


def test_ground_state_residual():
    h = kron_hamiltonian(9, 1.3, 0.4)
    energy, state = ground_state(h)
    assert np.linalg.norm(h @ state - energy * state) < 1e-9


def test_degeneracy_at_factorization_point():
    gamma = 0.5
    h = kron_hamiltonian(9, factorization_lambda(gamma), gamma)
    w, _ = lowest_levels(h)
    assert w[1] - w[0] < 1e-9
    # degeneracy resolution picks the even-parity state
    _, state = ground_state(h)
    p = spin_parity_diagonal(9)
    assert np.real(state.conj() @ (p * state)) > 0.999


def test_factorized_pair_are_eigenstates():
    for gamma in (0.3, 0.5, 0.8):
        ham = kron_hamiltonian(9, factorization_lambda(gamma), gamma)
        for vec in factorized_pair(9, gamma):
            hv = ham @ vec
            energy = np.real(vec.conj() @ hv)
            assert np.linalg.norm(hv - energy * vec) < 1e-8


def test_reduced_state_product():
    up = np.array([1.0, 0.0])
    dn = np.array([0.0, 1.0])
    state = np.kron(np.kron(up, dn), np.kron(up, np.kron(up, dn)))
    rho = edsim.reduced_state(state.astype(complex), [1, 4], 5)
    expect = np.zeros((4, 4))
    expect[3, 3] = 1.0
    assert np.max(np.abs(rho.matrix - expect)) < 1e-12


def test_reduced_state_ghz_marginal():
    state = np.zeros(2**5, dtype=complex)
    state[0] = state[-1] = 1.0 / np.sqrt(2.0)
    rho = edsim.reduced_state(state, [0, 1], 5)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(rho.matrix - expect)) < 1e-12


def test_reduced_state_rejects_duplicates():
    state = np.zeros(2**5, dtype=complex)
    state[0] = 1.0
    with pytest.raises(ValueError):
        edsim.reduced_state(state, [1, 1], 5)


def test_reduced_state_site_order():
    up = np.array([1.0, 0.0])
    dn = np.array([0.0, 1.0])
    state = np.kron(dn, np.kron(up, np.kron(up, np.kron(up, up))))
    rho01 = edsim.reduced_state(state.astype(complex), [0, 1], 5).matrix
    rho10 = edsim.reduced_state(state.astype(complex), [1, 0], 5).matrix
    assert rho01[2, 2] == 1.0  # |10>
    assert rho10[1, 1] == 1.0  # |01>


def tensordot_reduced_state(state, sites, length):
    """|state><state| traced by one tensordot over the other sites, then
    permuted into the listed order (the former `reduced_state`)."""
    t = state.reshape([2] * length)
    others = [i for i in range(length) if i not in sites]
    rho = np.tensordot(t, t.conj(), axes=(others, others))
    kept_sorted = sorted(sites)
    perm = [kept_sorted.index(s) for s in sites]
    m = len(sites)
    rho = np.transpose(rho, perm + [p + m for p in perm])
    return rho.reshape(1 << m, 1 << m)


@pytest.mark.parametrize("length", [9, 13])
def test_reduced_states_match_tensordot(length):
    params = ModelParams(0.8, 0.6, length)
    _, state = edsim.reference_state(edsim.build_hamiltonian(length, params))
    rng = np.random.default_rng(5)
    state = state * np.exp(1j * rng.uniform(0, 2 * np.pi, state.size))  # complex amplitudes
    state /= np.linalg.norm(state)
    for m in (2, 3):
        lists = [[0, a, a + b][:m] for a in range(1, length) for b in range(1, length - a)]
        lists += [sites[::-1] for sites in lists[::5]] + [[length - 1, 2, 5][:m]]
        stack = edsim.reduced_states(state, lists, length)
        assert stack.shape == (len(lists), 1 << m, 1 << m)
        for sites, rho in zip(lists, stack):
            expect = tensordot_reduced_state(state, sites, length)
            assert np.max(np.abs(rho - expect)) <= 1e-15, sites
            assert np.array_equal(edsim.reduced_state(state, sites, length).matrix, rho)


def test_reduced_states_check_every_list():
    state = np.zeros(2**5, dtype=complex)
    state[0] = 1.0
    with pytest.raises(ValueError):
        edsim.reduced_states(state, [[0, 1], [2, 2]], 5)
    with pytest.raises(IndexError):
        edsim.reduced_states(state, [[0, 1], [2, 5]], 5)
    with pytest.raises(ValueError):
        edsim.reduced_states(state, [[0, 1], [2, 3, 4]], 5)


def test_reference_sector_matches_analytic_rdm():
    params = ModelParams(1.2, 0.4, 9)
    ham = edsim.build_hamiltonian(9, params)
    _, state = edsim.reference_state(ham)
    rho_ed = edsim.reduced_state(state, [0, 1, 2], 9)
    rho_an = rdm3(SpinGeometry(1, 1), params)
    assert np.max(np.abs(rho_ed.matrix - rho_an.matrix)) < 1e-8


def test_reference_state_is_first_excited_after_parity_crossing():
    # in the ordered phase of the anisotropic chain the global ground state
    # can sit in the other parity sector; the analytic construction then
    # reproduces the lowest state of the (-1)^L sector exactly
    params = ModelParams(2.0, 0.5, 9)
    e_abs, state_abs = ground_state(kron_hamiltonian(9, 2.0, 0.5))
    e_ref, _ = edsim.reference_state(edsim.build_hamiltonian(9, params))
    p = spin_parity_diagonal(9)
    parity_abs = np.real(state_abs.conj() @ (p * state_abs))
    assert parity_abs > 0.999           # absolute GS has flipped parity here
    assert e_ref > e_abs + 1e-6         # reference is strictly above
    assert abs(e_ref - edsim.dispersion_ground_energy(9, params)) < 1e-9


def test_translation_invariance():
    params = ModelParams(0.8, 0.6, 9)
    ham = edsim.build_hamiltonian(9, params)
    _, state = edsim.reference_state(ham)
    base = edsim.reduced_state(state, [0, 2, 3], 9).matrix
    for shift in (1, 3, 6):
        sites = [(s + shift) % 9 for s in (0, 2, 3)]
        rho = edsim.reduced_state(state, sites, 9).matrix
        assert np.max(np.abs(rho - base)) < 1e-9


def test_energy_monotone_in_lambda():
    gamma = 0.7
    energies = []
    for lam in (0.0, 0.4, 0.8, 1.2, 1.6, 2.0):
        energies.append(ground_state(kron_hamiltonian(7, lam, gamma))[0])
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_rdm2_matches_two_site_marginal():
    params = ModelParams(1.1, 0.6, 9)
    ham = edsim.build_hamiltonian(9, params)
    _, state = edsim.reference_state(ham)
    rho_ed = edsim.reduced_state(state, [0, 2], 9)
    rho3 = rdm3(SpinGeometry(2, 1), params)
    rho_an, _ = partial_trace(rho3.matrix, rho3.dims, keep=[0, 1])
    assert np.max(np.abs(rho_ed.matrix - rho_an)) < 1e-8


@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_rdm3_matches_ed_every_geometry(gamma):
    # gamma = 0 and lambda > 2 lie outside the acceptance oracle's grid
    for lam in (0.3, 1.3, 2.5):
        params = ModelParams(lam, gamma, 9)
        _, state = edsim.reference_state(edsim.build_hamiltonian(9, params))
        for alpha in range(1, 8):
            for beta in range(1, 9 - alpha):
                rho_ed = edsim.reduced_state(state, [0, alpha, alpha + beta], 9)
                rho_an = rdm3(SpinGeometry(alpha, beta), params)
                assert np.max(np.abs(rho_ed.matrix - rho_an.matrix)) <= 1e-12, (lam, alpha, beta)


def dense_reference(ham):
    """(energy, state, gap) from one dense `eigh` of the sector block, the
    state built over the orbits and signed to a positive sum."""
    w, v = np.linalg.eigh(ham.matrix)
    states, orbit, amplitude, *_ = edsim._sector(ham.length)
    state = np.zeros(1 << ham.length)
    state[states] = v[orbit, 0] * amplitude
    state /= np.linalg.norm(state) * np.sign(state.sum())
    return w[0], state, w[1] - w[0]


CERTIFICATE_GRID = [(length, lam, gamma) for length in edsim.LENGTHS
                    for lam in np.round(np.arange(26) * 0.1, 10)
                    for gamma in (0.0, 0.05, 0.2, 0.5, 1.0)]


def count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestCertifiedReference:
    def test_matches_dense_eigh_on_grid(self, monkeypatch):
        # 650 cases, each certified without a dense `eigh` but the one
        # degenerate level (L=9, lambda=2, gamma=0, a zero mode of
        # 1 + lambda cos(2 pi 3/9)), which falls back to it and raises
        calls = count_eigh(monkeypatch)
        degenerate = []
        for length, lam, gamma in CERTIFICATE_GRID:
            ham = edsim.build_hamiltonian(length, ModelParams(lam, gamma, length))
            energy, state, gap = dense_reference(ham)
            calls.clear()
            if gap < edsim.DEGENERACY_TOL:
                degenerate.append((length, lam, gamma))
                with pytest.raises(ValueError, match="degenerate"):
                    edsim.reference_state(ham)
                assert calls == [len(ham.matrix)]
                continue
            got_energy, got_state = edsim.reference_state(ham)
            assert calls == [], (length, lam, gamma)
            assert abs(got_energy - energy) <= 1e-12, (length, lam, gamma)
            assert np.max(np.abs(got_state - state)) <= 1e-12, (length, lam, gamma)
        assert degenerate == [(9, 2.0, 0.0)]

    @pytest.mark.parametrize("length,lam,gamma,seed", [
        (11, 0.7, 0.5, "first excited"), (13, 1.5, 0.2, "first excited"),
        (13, 2.0, 1.0, "top"), (11, 0.5, 0.5, "w0 - 5"), (9, 1.0, 0.2, "w0 - 5"),
    ])
    def test_wrong_seed_falls_back_to_dense(self, monkeypatch, length, lam, gamma, seed):
        # a shift that leads the iteration to another level, or leaves it short
        # of convergence, changes the path, never the result
        ham = edsim.build_hamiltonian(length, ModelParams(lam, gamma, length))
        energy, state, _ = dense_reference(ham)
        w = np.linalg.eigvalsh(ham.matrix)
        shift = {"first excited": w[1], "top": w[-1], "w0 - 5": w[0] - 5.0}[seed]
        monkeypatch.setattr(edsim, "dispersion_ground_energy", lambda *_: shift)
        calls = count_eigh(monkeypatch)
        got_energy, got_state = edsim.reference_state(ham)
        assert calls == [len(ham.matrix)]
        assert abs(got_energy - energy) <= 1e-12
        assert np.max(np.abs(got_state - state)) <= 1e-12

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-10, 9e-10])
    def test_degenerate_level_is_never_certified(self, gap):
        # a random rotation of known levels, the lowest two within
        # DEGENERACY_TOL, from shifts below, at and between them
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        levels = np.concatenate([[-3.0, -3.0 + gap], rng.uniform(-2.0, 4.0, 58)])
        h = q @ np.diag(levels) @ q.T
        h = 0.5 * (h + h.T)
        for sigma in (-3.5, -3.0, -3.0 + gap / 2, -2.9):
            assert edsim._certified_lowest(h, sigma) is None
        levels[1] = -3.0 + 1e-6
        h = q @ np.diag(levels) @ q.T
        energy, x = edsim._certified_lowest(0.5 * (h + h.T), -3.0)
        assert abs(energy + 3.0) <= 1e-12 and 1.0 - abs(x @ q[:, 0]) <= 1e-12
