import numpy as np
import pytest

from xymqc import analysis, linalg, measures, sdp, xychain
from xymqc.linalg import partial_trace, partial_transpose, realignment, trace_norm
from xymqc.measures import (
    binary_entropy,
    concurrence,
    eof_from_concurrence,
    evaluate,
    n3,
    negativity,
)
from xymqc.xychain import ModelParams, SpinGeometry, rdm3

DIMS3 = (2, 2, 2)


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def w_state():
    v = np.zeros(8, dtype=complex)
    for idx in (1, 2, 4):
        v[idx] = 1.0 / np.sqrt(3.0)
    return np.outer(v, v.conj())


def random_pure3(rng):
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_qubit(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_product3(rng):
    rho = np.kron(random_qubit(rng), np.kron(random_qubit(rng), random_qubit(rng)))
    return rho


def fixed_cost(e_ppt_values):
    """A `solve_ppt` that returns the given E_kappa of each cut, by center."""
    def given(_rho, _dims, center):
        return e_ppt_values[center], "converged"

    return given


class TestNegativity:
    def test_bell(self):
        assert abs(negativity(bell(), (2, 2), 0) - 1.0) < 1e-12

    def test_product_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = np.kron(random_qubit(rng), random_qubit(rng))
            assert negativity(rho, (2, 2), 0) < 1e-12

    def test_w_state_closed_form(self):
        # partial transpose eigenvalues give N(1|23) = 2*sqrt(2)/3
        assert abs(negativity(w_state(), DIMS3, 0) - 2.0 * np.sqrt(2.0) / 3.0) < 1e-12

    def test_log_negativity(self):
        def log_negativity(rho, dims, part):
            return np.log2(negativity(rho, dims, part) + 1.0)

        assert abs(log_negativity(bell(), (2, 2), 0) - 1.0) < 1e-12
        rng = np.random.default_rng(2)
        rho = np.kron(random_qubit(rng), random_qubit(rng))
        assert log_negativity(rho, (2, 2), 1) < 1e-12
        expect = np.log2(1.0 + 2.0 * np.sqrt(2.0) / 3.0)
        assert abs(log_negativity(w_state(), DIMS3, 0) - expect) < 1e-12


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence(bell()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4.0) == 0.0

    def test_werner_closed_form(self):
        psi_minus = np.zeros(4, dtype=complex)
        psi_minus[1] = 1.0 / np.sqrt(2.0)
        psi_minus[2] = -1.0 / np.sqrt(2.0)
        proj = np.outer(psi_minus, psi_minus.conj())
        for p in (0.5, 0.8, 1.0):
            rho = p * proj + (1.0 - p) * np.eye(4) / 4.0
            expect = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert abs(concurrence(rho) - expect) < 1e-10

    def test_separable_werner(self):
        psi_minus = np.zeros(4, dtype=complex)
        psi_minus[1] = 1.0 / np.sqrt(2.0)
        psi_minus[2] = -1.0 / np.sqrt(2.0)
        rho = (1.0 / 3.0) * np.outer(psi_minus, psi_minus.conj()) + (2.0 / 3.0) * np.eye(4) / 4.0
        assert concurrence(rho) < 1e-10

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(4)
        stack = np.array([partial_trace(random_pure3(rng), DIMS3, keep=[0, 1])[0]
                          for _ in range(6)]).reshape(2, 3, 4, 4)
        values = concurrence(stack)
        assert isinstance(concurrence(stack[0, 0]), float)
        assert values.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert abs(values[idx] - concurrence(stack[idx])) < 1e-14


class TestEof:
    def test_endpoints(self):
        assert eof_from_concurrence(1.0) == 1.0
        assert eof_from_concurrence(0.0) == 0.0

    def test_intermediate_value(self):
        c = 0.7
        expect = binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - c * c)))
        assert abs(eof_from_concurrence(c) - expect) < 1e-12

    def test_werner_state_eof(self):
        psi_minus = np.zeros(4, dtype=complex)
        psi_minus[1] = 1.0 / np.sqrt(2.0)
        psi_minus[2] = -1.0 / np.sqrt(2.0)
        rho = 0.8 * np.outer(psi_minus, psi_minus.conj()) + 0.2 * np.eye(4) / 4.0
        assert abs(eof_from_concurrence(concurrence(rho)) - eof_from_concurrence(0.7)) < 1e-10

    def test_monotone_in_concurrence(self):
        vals = [eof_from_concurrence(c) for c in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestEfLowerBound:
    def test_product_zero(self):
        rng = np.random.default_rng(3)
        rho = random_product3(rng)
        assert evaluate(rho).centers[0].ef_lb == 0.0

    def test_ghz_saturates(self):
        assert abs(evaluate(ghz()).centers[0].ef_lb - 1.0) < 1e-12

    def test_bell_embedding_tight(self):
        rho = np.kron(bell(), np.diag([1.0, 0.0]).astype(complex))
        assert abs(evaluate(rho).centers[0].ef_lb - 1.0) < 1e-12


class TestTripartite:
    def test_ghz_all_measures_one(self):
        rec = evaluate(ghz(), solve_ppt=fixed_cost((1.0, 1.0, 1.0)))
        assert abs(rec.n3 - 1.0) < 1e-12
        assert abs(rec.t3 - 1.0) < 1e-12
        assert abs(rec.tau_lb - 1.0) < 1e-12
        assert abs(rec.tau_ub - 1.0) < 1e-12

    def test_biseparable_n3_vanishes(self):
        rng = np.random.default_rng(5)
        rho = np.kron(bell(), random_qubit(rng))
        assert n3(rho, DIMS3) == 0.0

    def test_product_states_vanish(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            rec = evaluate(random_product3(rng))
            assert rec.n3 < 1e-9
            assert rec.t3 < 1e-9
            assert rec.tau_lb < 1e-9

    def test_w_state_t3_regression(self):
        # frozen from the eigenvalue evaluation of the W-state marginals:
        # N(1|23) = 2 sqrt(2)/3, pairwise N = (sqrt(5) - 1)/3 each
        rho = w_state()
        n_cut = 2.0 * np.sqrt(2.0) / 3.0
        pair, pdims = partial_trace(rho, DIMS3, keep=[0, 1])
        n_pair = negativity(pair, pdims, 0)
        assert abs(n_pair - (np.sqrt(5.0) - 1.0) / 3.0) < 1e-12
        expect = n_cut**2 - 2.0 * n_pair**2
        assert abs(evaluate(rho).t3 - expect) < 1e-12

    def test_monogamy_on_random_pure_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = random_pure3(rng)
            for center in range(3):
                n_cut = negativity(rho, DIMS3, center)
                others = [i for i in range(3) if i != center]
                total = 0.0
                for other in others:
                    pair, pdims = partial_trace(rho, DIMS3, keep=[center, other])
                    total += negativity(pair, pdims, 0) ** 2
                assert n_cut**2 >= total - 1e-9

    def test_tau_ub_unclamped(self):
        # zero cost with entangled marginals drives the mean negative
        rng = np.random.default_rng(8)
        rho = np.kron(bell(), random_qubit(rng))
        val = evaluate(rho, solve_ppt=fixed_cost((0.0, 0.0, 1.0))).tau_ub
        assert val < 0.0


class TestEvaluate:
    def test_record_consistency(self):
        rng = np.random.default_rng(9)
        rho = random_pure3(rng)
        rec = evaluate(rho)
        assert rec.tau_ub is None
        negs = rec.bipartite_negativities
        expect_n3 = np.cbrt(np.prod([0.0 if v < 1e-9 else v for v in negs]))
        assert abs(rec.n3 - expect_n3) < 1e-12
        assert abs(rec.t3 - max(np.mean([c.t3 for c in rec.centers]), 0.0)) < 1e-12

    def test_solver_callback(self):
        calls = []

        def fake_solver(rho, dims, center):
            calls.append(center)
            return log_negativity_cost(rho, dims, center)

        rec = evaluate(ghz(), solve_ppt=fake_solver)
        # GHZ equals its qubit 0 <-> 2 mirror image: center 2 reuses center 0
        assert calls == [0, 1]
        assert rec.sdp_status == "ok"
        # tau_ub from the stubbed cost: every cut has log-negativity 1 and
        # every pair is separable
        assert np.allclose([c.e_ppt for c in rec.centers], 1.0, rtol=0.0, atol=1e-12)
        assert abs(rec.tau_ub - 1.0) < 1e-12
        calls.clear()
        evaluate(random_pure3(np.random.default_rng(10)), solve_ppt=fake_solver)
        assert calls == [0, 1, 2]

    def test_status_propagates(self):
        def flaky(rho, dims, center):
            return 0.5, "max-iterations" if center == 1 else "converged"

        rec = evaluate(ghz(), solve_ppt=flaky)
        assert "max-iterations" in rec.sdp_status


class TestBoundOrdering:
    def test_tau_lb_below_tau_ub_on_chain_states(self):
        from xymqc import sdp
        from xymqc.xychain import ModelParams, SpinGeometry, rdm3

        for (lam, gamma, geom) in (
            (0.9, 1.0, (1, 1)), (1.05, 0.5, (2, 1)),
            (1.3, 0.2, (2, 2)), (0.999, 0.8, (1, 1)),
        ):
            rho = rdm3(SpinGeometry(*geom), ModelParams(lam, gamma))
            rec = evaluate(rho.matrix, rho.dims, solve_ppt=sdp.e_ppt)
            assert rec.tau_lb <= rec.tau_ub + 1e-6


def factorized_mixture(gamma):
    """(P+^{x3} + P-^{x3}) / 2 with P± = |u±><u±|, u± = (±sin(θ/2), cos(θ/2))
    and cos θ = sqrt((1-γ)/(1+γ)): the exact three-spin state of the infinite
    chain at its factorization point, for every geometry."""
    theta = np.arccos(np.sqrt((1.0 - gamma) / (1.0 + gamma)))
    rho = np.zeros((8, 8))
    for sign in (1.0, -1.0):
        u = np.array([sign * np.sin(theta / 2.0), np.cos(theta / 2.0)])
        p = np.outer(u, u)
        rho += 0.5 * np.kron(p, np.kron(p, p))
    return rho


def factorization_point_states(gamma):
    """(geometry, rdm3 matrix) pairs of the infinite chain at lambda_f."""
    params = ModelParams(xychain.factorization_lambda(gamma), gamma)
    for geom in ((1, 1), (2, 1), (3, 4), (7, 7)):
        yield geom, rdm3(SpinGeometry(*geom), params).matrix


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
class TestThermodynamicFactorizationPoint:
    def test_rdm3_is_the_product_mixture(self, gamma):
        expect = factorized_mixture(gamma)
        for geom, rho in factorization_point_states(gamma):
            assert np.max(np.abs(rho - expect)) <= 1e-12, geom

    def test_measures_vanish(self, gamma):
        for geom, rho in factorization_point_states(gamma):
            rec = evaluate(rho, solve_ppt=sdp.e_ppt)
            assert rec.n3 == 0.0 and rec.tau_lb == 0.0, geom
            assert abs(rec.t3) <= 1e-12 and abs(rec.tau_ub) <= 1e-12, geom


def random_mixed3(rng):
    rank = rng.integers(2, 9)
    a = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def log_negativity_cost(rho, dims, center):
    """A stand-in for E_kappa that, like it, does not change when the qubits
    are relabelled: the cut's log-negativity, from the linalg kernels."""
    return float(np.log2(trace_norm(partial_transpose(rho, dims, center)))), "converged"


def reference_centers(rho):
    """Per-cut formulas: a partial trace per pair and center, SVD trace
    norms, one scalar concurrence per pair state."""
    centers = []
    for center in range(3):
        others = [i for i in range(3) if i != center]
        neg = max(trace_norm(partial_transpose(rho, DIMS3, center)) - 1.0, 0.0)
        order = [center] + others
        front = rho.reshape(2, 2, 2, 2, 2, 2).transpose(order + [o + 3 for o in order])
        front = front.reshape(8, 8)
        lam = max(trace_norm(partial_transpose(rho, DIMS3, center)),
                  trace_norm(realignment(front, (2, 4))))
        lam = min(lam, 2.0)
        ef_lb = 0.0 if lam <= 1.0 else binary_entropy(
            0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - (lam - 1.0) ** 2))))
        ef_pair, neg_pair = [], []
        for other in others:
            pair, pdims = partial_trace(rho, DIMS3, keep=[center, other])
            ef_pair.append(eof_from_concurrence(concurrence(pair)))
            neg_pair.append(max(trace_norm(partial_transpose(pair, pdims, 0)) - 1.0, 0.0))
        e_ppt = log_negativity_cost(rho, DIMS3, center)[0]
        centers.append(measures.CenterReport(
            center=center,
            negativity=neg,
            e_ppt=e_ppt,
            ef_lb=ef_lb,
            ef_pair=tuple(ef_pair),
            neg_pair=tuple(neg_pair),
            tau_ub=e_ppt**2 - ef_pair[0] ** 2 - ef_pair[1] ** 2,
            tau_lb=ef_lb**2 - ef_pair[0] ** 2 - ef_pair[1] ** 2,
            t3=neg**2 - neg_pair[0] ** 2 - neg_pair[1] ** 2,
        ))
    return centers


def kernel_states():
    rng = np.random.default_rng(31)
    for _ in range(50):
        yield random_mixed3(rng)
    for _ in range(20):
        yield random_pure3(rng)
    for lam in (0.3, 0.99, 1.0, 1.2, 1.6):
        for gamma in (0.3, 0.5, 1.0):
            for geometry in ((1, 1), (2, 1), (4, 4)):
                for length in (None, 41, 2701):
                    params = ModelParams(lam, gamma, length)
                    yield rdm3(SpinGeometry(*geometry), params).matrix


def record_values(rec):
    """Every number of an MqcRecord, as one array."""
    values = [rec.n3, rec.t3, rec.tau_ub, rec.tau_lb, rec.concurrence_01]
    for c in rec.centers:
        values += [c.negativity, c.e_ppt, c.ef_lb, *c.ef_pair, *c.neg_pair,
                   c.tau_ub, c.tau_lb, c.t3]
    return np.array(values)


class TestSinglePassKernel:
    def test_matches_per_cut_formulas(self):
        worst = 0.0
        for rho in kernel_states():
            rec = evaluate(rho, DIMS3, solve_ppt=log_negativity_cost)
            for got, want in zip(rec.centers, reference_centers(rho)):
                assert got.center == want.center
                for field in ("negativity", "e_ppt", "ef_lb", "tau_ub", "tau_lb", "t3"):
                    worst = max(worst, abs(getattr(got, field) - getattr(want, field)))
                for field in ("ef_pair", "neg_pair"):
                    assert len(getattr(got, field)) == 2
                    worst = max(worst, np.max(np.abs(
                        np.subtract(getattr(got, field), getattr(want, field)))))
            pair, _ = partial_trace(rho, DIMS3, keep=[0, 1])
            worst = max(worst, abs(rec.concurrence_01 - concurrence(pair)))
        assert worst <= 1e-12

    def test_real_and_complex_inputs_agree(self):
        # a zero imaginary part takes the complex path; local Z phases make
        # the state complex and leave every measure invariant
        rng = np.random.default_rng(5)
        worst = 0.0
        for rho in kernel_states():
            real = rho.real
            rec = record_values(evaluate(real, DIMS3, solve_ppt=log_negativity_cost))
            zero_imag = record_values(evaluate(real.astype(complex), DIMS3, solve_ppt=log_negativity_cost))
            a, b, c = (np.diag([1.0, p]) for p in np.exp(2j * np.pi * rng.random(3)))
            u = np.kron(np.kron(a, b), c)
            rotated = record_values(evaluate(u @ real @ u.conj().T, DIMS3, solve_ppt=log_negativity_cost))
            worst = max(worst, np.max(np.abs(rec - zero_imag)), np.max(np.abs(rec - rotated)))
        assert worst <= 1e-14

    def test_bound_check_still_raises(self):
        # Hermitian, unit trace, not PSD: the partial-transpose norm is 3
        rho = np.diag([2.0, -1.0, 0, 0, 0, 0, 0, 0]).astype(complex)
        assert trace_norm(partial_transpose(rho, DIMS3, 0)) > 2.0
        with pytest.raises(ValueError, match="trace-norm bound"):
            evaluate(rho)

    def test_rejects_non_three_qubit_dims(self):
        for dims in ((2, 4), (4, 2), (2, 2, 2, 1)):
            with pytest.raises(ValueError, match="three qubits"):
                evaluate(np.eye(8, dtype=complex) / 8.0, dims)


def count_calls(monkeypatch, module, name):
    """Wrap every binding of module.name in the package with a call counter."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in (analysis, linalg, measures, sdp, xychain):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestRepeatedWorkGuard:
    def test_one_concurrence_and_no_partial_trace_per_point(self, monkeypatch):
        # evaluate gathers its matrices through index tables
        rho = rdm3(SpinGeometry(2, 1), ModelParams(0.9, 0.5, 41)).matrix
        conc = count_calls(monkeypatch, measures, "concurrence")
        traces = count_calls(monkeypatch, linalg, "partial_trace")
        transposes = count_calls(monkeypatch, linalg, "partial_transpose")
        evaluate(rho, DIMS3)
        assert (len(conc), len(traces), len(transposes)) == (1, 0, 0)
        conc.clear()
        analysis.measure_point(0.9, 0.5, 2, 1, 41, with_sdp=False)
        assert (len(conc), len(traces), len(transposes)) == (1, 0, 0)

    def test_kappa_point_solves_only_uncertified_cuts(self, monkeypatch):
        # the certificate and the warm start gather rho^{T_A} and its
        # |rho^{T_A}|^{T_A}; the (4, 4) state is its own qubit 0 <-> 2 mirror
        # image, so only centers 0 and 1 can reach the solver
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.16, 0.5)).matrix
        uncertified = [c for c in (0, 1) if not sdp.binegativity_is_psd(rho, DIMS3, c)]
        assert uncertified
        transposes = count_calls(monkeypatch, linalg, "partial_transpose")
        solved = []
        solve_kappa = sdp.solve_kappa

        def counting(rho, dims, center, **kwargs):
            solved.append(center)
            return solve_kappa(rho, dims, center, **kwargs)

        monkeypatch.setattr(sdp, "solve_kappa", counting)
        row = analysis.measure_point(1.16, 0.5, 4, 4)
        assert row["status"] == "ok"
        assert transposes == []
        assert solved == uncertified
