import functools

import numpy as np
import pytest

from oracles import factorized_pair, ground_state, kron_hamiltonian, lowest_levels
from xymqc import edsim
from xymqc.linalg import partial_trace
from xymqc.xychain import ModelParams, SpinGeometry, factorization_lambda, rdm3


def test_length_validation():
    params = ModelParams(1.0, 0.5, 9)
    for bad in (4, 8, 15, 16):
        with pytest.raises(ValueError):
            edsim.build_hamiltonian(bad, params)


def test_free_field_diagonal():
    params = ModelParams(0.0, 1.0, 5)
    ham = edsim.build_hamiltonian(5, params)
    h = ham.toarray()
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    energy, state = ground_state(ham)
    assert abs(energy + 5.0) < 1e-12
    assert abs(abs(state[-1]) - 1.0) < 1e-9  # |11111>


def test_hamiltonian_is_real_symmetric():
    params = ModelParams(0.9, 0.3, 7)
    h = edsim.build_hamiltonian(7, params).toarray()
    assert np.max(np.abs(h - h.T)) == 0.0
    assert np.isrealobj(h)


@pytest.mark.parametrize("length", [5, 7])
def test_hamiltonian_matches_kronecker_sum(length):
    for lam in (0.0, 0.9, 2.0):
        for gamma in (0.0, 0.4, 1.0):
            ham = edsim.build_hamiltonian(length, ModelParams(lam, gamma, length))
            expect = kron_hamiltonian(length, lam, gamma)
            assert np.max(np.abs(expect.imag)) == 0.0
            assert np.max(np.abs(ham.toarray() - expect.real)) <= 1e-15
            # every row stores its diagonal and one entry per bond, none twice
            assert np.all(np.diff(ham.indptr) == length + 1)
            cols = np.sort(ham.indices.reshape(-1, length + 1), axis=1)
            assert np.all(np.diff(cols, axis=1) > 0)


@pytest.mark.parametrize("length", [5, 7])
def test_parity_diagonal_matches_kronecker_product(length):
    expect = np.diag(functools.reduce(np.kron, [np.diag([1.0, -1.0])] * length))
    assert np.array_equal(edsim.spin_parity_diagonal(length), expect)


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
    params = ModelParams(1.2, 0.7, 7)
    h = edsim.build_hamiltonian(7, params)
    p = edsim.spin_parity_diagonal(7)
    hp = h.multiply(p[None, :])  # H P
    ph = h.multiply(p[:, None])  # P H
    assert abs(hp - ph).max() < 1e-12


@pytest.mark.parametrize("length,lam,gamma", [(5, 0.5, 1.0), (11, 1.0, 1.0)])
def test_ground_energy_matches_dispersion(length, lam, gamma):
    params = ModelParams(lam, gamma, length)
    ham = edsim.build_hamiltonian(length, params)
    energy, _ = ground_state(ham)
    assert abs(energy - edsim.dispersion_ground_energy(length, params)) < 1e-9


def test_ground_state_residual():
    params = ModelParams(1.3, 0.4, 9)
    ham = edsim.build_hamiltonian(9, params)
    energy, state = ground_state(ham)
    assert np.linalg.norm(ham @ state - energy * state) < 1e-9


def test_degeneracy_at_factorization_point():
    gamma = 0.5
    params = ModelParams(factorization_lambda(gamma), gamma, 9)
    ham = edsim.build_hamiltonian(9, params)
    w, _ = lowest_levels(ham)
    assert w[1] - w[0] < 1e-9
    # degeneracy resolution picks the even-parity state
    _, state = ground_state(ham)
    p = edsim.spin_parity_diagonal(9)
    assert np.real(state.conj() @ (p * state)) > 0.999


def test_factorized_pair_are_eigenstates():
    for gamma in (0.3, 0.5, 0.8):
        params = ModelParams(factorization_lambda(gamma), gamma, 9)
        ham = edsim.build_hamiltonian(9, params)
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
    ham = edsim.build_hamiltonian(9, params)
    e_abs, state_abs = ground_state(ham)
    e_ref, _ = edsim.reference_state(ham)
    p = edsim.spin_parity_diagonal(9)
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
        ham = edsim.build_hamiltonian(7, ModelParams(lam, gamma, 7))
        energies.append(ground_state(ham)[0])
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_matrix_free_sizes():
    # the 4096-row parity sector at L = 13 exercises the sparse Lanczos path
    params = ModelParams(0.5, 1.0, 13)
    ham = edsim.build_hamiltonian(13, params)
    energy, state = edsim.reference_state(ham)
    assert abs(energy - edsim.dispersion_ground_energy(13, params)) < 1e-8
    assert np.linalg.norm(ham @ state - energy * state) < 1e-8


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
