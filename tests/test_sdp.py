import numpy as np
import pytest

from oracles import verify_solution
from test_measures import kernel_states
from xymqc import analysis, measures, sdp
from xymqc.linalg import partial_transpose, trace_norm
from xymqc.xychain import ModelParams, SpinGeometry, factorization_lambda, rdm3

DIMS3 = (2, 2, 2)


def bell_embedded():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.kron(np.outer(v, v.conj()), np.diag([1.0, 0.0]).astype(complex))


def random_mixed(rng, rank=None):
    r = rank or rng.integers(1, 9)
    a = rng.standard_normal((8, r)) + 1j * rng.standard_normal((8, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def log_neg(rho, center):
    return np.log2(trace_norm(partial_transpose(rho, DIMS3, center)))


def uncertified_cuts(geometry, lambdas, gamma):
    """(rho, center) of every cut of an rdm3 scan that needs the SDP."""
    cuts = []
    for lam in lambdas:
        rho = rdm3(SpinGeometry(*geometry), ModelParams(lam, gamma)).matrix
        cuts += [
            (rho, center) for center in range(3)
            if not sdp.binegativity_is_psd(rho, DIMS3, center)
        ]
    return cuts


EDGE_GRIDS = [(4, 4, 1.14, 1.18), (2, 1, 1.09, 1.13)]


@pytest.fixture(scope="module")
def uncertified_edge_cuts():
    """(rho, center) of every cut of the certificate-edge grids that needs the SDP."""
    cuts = []
    for alpha, beta, lam_lo, lam_hi in EDGE_GRIDS:
        cuts += uncertified_cuts((alpha, beta), np.linspace(lam_lo, lam_hi, 41), 0.5)
    return cuts


class TestSolveKappa:
    def test_maximally_mixed_costs_nothing(self):
        sol = sdp.solve_kappa(np.eye(8, dtype=complex) / 8.0)
        assert sol.status == "converged"
        assert abs(sol.optimum - 1.0) < 1e-7
        assert abs(sol.e_kappa) < 1e-7

    def test_ppt_states_cost_nothing(self):
        rng = np.random.default_rng(17)
        found = 0
        while found < 5:
            rho = random_mixed(rng)
            if trace_norm(partial_transpose(rho, DIMS3, 0)) - 1.0 > 1e-10:
                continue
            found += 1
            sol = sdp.solve_kappa(rho, DIMS3, 0)
            assert abs(sol.e_kappa) < 1e-6

    def test_bell_state(self):
        sol = sdp.solve_kappa(bell_embedded(), DIMS3, 0)
        assert sol.status == "converged"
        assert abs(sol.optimum - 2.0) < 1e-7
        assert abs(sol.e_kappa - 1.0) < 1e-7

    def test_ghz_every_center(self):
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1.0 / np.sqrt(2.0)
        rho = np.outer(v, v.conj())
        for center in range(3):
            sol = sdp.solve_kappa(rho, DIMS3, center)
            assert abs(sol.e_kappa - 1.0) < 1e-7

    def test_lower_bound_law(self):
        rng = np.random.default_rng(23)
        for k in range(40):
            rho = random_mixed(rng)
            center = k % 3
            sol = sdp.solve_kappa(rho, DIMS3, center)
            assert sol.e_kappa >= log_neg(rho, center) - 1e-6

    def test_binegativity_equality(self):
        rng = np.random.default_rng(29)
        checked = 0
        for k in range(40):
            rho = random_mixed(rng)
            center = k % 3
            if not sdp.binegativity_is_psd(rho, DIMS3, center):
                continue
            checked += 1
            sol = sdp.solve_kappa(rho, DIMS3, center)
            assert abs(sol.e_kappa - log_neg(rho, center)) < 1e-5
        assert checked >= 10

    def test_sign_flip_symmetry(self):
        # the sandwich constraints are symmetric under rho^T -> -rho^T
        rng = np.random.default_rng(31)
        rho = random_mixed(rng)
        sol = sdp.solve_kappa(rho, DIMS3, 0)
        flipped = sdp.KappaProgram(rho, DIMS3, 0)
        # the constant blocks [0, -rho^T, rho^T] become [0, rho^T, -rho^T]
        flipped.offset = -flipped.offset
        sol2 = sdp._solve_program(flipped)
        assert abs(sol.optimum - sol2.optimum) < 1e-7

    def test_step_length_stall_reported(self, monkeypatch):
        monkeypatch.setattr(sdp, "_step_lengths", lambda scaled, d: (0.0, 0.0))
        sol = sdp.solve_kappa(bell_embedded(), DIMS3, 0)
        assert sol.status == "stalled"
        assert sol.iterations == 1

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        rho = random_mixed(rng)
        a = sdp.solve_kappa(rho, DIMS3, 1)
        b = sdp.solve_kappa(rho, DIMS3, 1)
        assert a.optimum == b.optimum
        assert a.iterations == b.iterations
        assert np.array_equal(a.s_matrix, b.s_matrix)


class TestVerifySolution:
    def test_converged_bell(self):
        rho = bell_embedded()
        sol = sdp.solve_kappa(rho, DIMS3, 0)
        rep = verify_solution(rho, 0, sol)
        assert all(e >= -1e-8 for e in rep.min_eigs)
        assert rep.duality_gap < 1e-6
        assert rep.feasible and rep.optimal

    def test_corrupted_solution_flagged(self):
        rho = bell_embedded()
        sol = sdp.solve_kappa(rho, DIMS3, 0)
        sol.s_matrix = sol.s_matrix - 0.1 * np.eye(8)
        rep = verify_solution(rho, 0, sol)
        assert not rep.feasible

    def test_random_states_primal_dual(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            rho = random_mixed(rng)
            sol = sdp.solve_kappa(rho, DIMS3, 0)
            rep = verify_solution(rho, 0, sol)
            assert rep.feasible and rep.optimal

    def test_ppt_window_state(self):
        # the bound-entanglement regime of the anisotropic chain
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.0, 0.5)).matrix
        sol = sdp.solve_kappa(rho, DIMS3, 0)
        rep = verify_solution(rho, 0, sol)
        assert sol.status == "converged"
        assert rep.feasible
        assert rep.duality_gap < 1e-6


class TestEppt:
    def test_wrapper(self):
        e, status = sdp.e_ppt(np.eye(8, dtype=complex) / 8.0)
        assert status == "converged"
        assert abs(e) < 1e-7

    @pytest.mark.parametrize("alpha, beta, lam_lo, lam_hi", EDGE_GRIDS)
    def test_matches_sdp_across_certificate_edge(self, alpha, beta, lam_lo, lam_hi):
        certified = uncertified = 0
        for lam in np.linspace(lam_lo, lam_hi, 41):
            rho = rdm3(SpinGeometry(alpha, beta), ModelParams(lam, 0.5)).matrix
            for center in range(3):
                if sdp.binegativity_is_psd(rho, DIMS3, center):
                    certified += 1
                else:
                    uncertified += 1
                e, status = sdp.e_ppt(rho, DIMS3, center)
                assert status == "converged"
                assert abs(e - sdp.solve_kappa(rho, DIMS3, center).e_kappa) < 1e-8
        assert certified and uncertified

    def test_sdp_runs_only_without_certificate(self, monkeypatch):
        calls = []
        solve_kappa = sdp.solve_kappa

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_kappa(*args, **kwargs)

        monkeypatch.setattr(sdp, "solve_kappa", counting)
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.14, 0.5)).matrix
        assert sdp.binegativity_is_psd(rho, DIMS3, 1)
        sdp.e_ppt(rho, DIMS3, 1)
        assert not calls
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.16, 0.5)).matrix
        assert not sdp.binegativity_is_psd(rho, DIMS3, 1)
        sdp.e_ppt(rho, DIMS3, 1)
        assert len(calls) == 1

    def test_stalled_cut_flags_the_point(self, monkeypatch):
        monkeypatch.setattr(sdp, "_step_lengths", lambda scaled, d: (0.0, 0.0))
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.16, 0.5)).matrix
        assert sdp.e_ppt(rho, DIMS3, 1)[1] == "stalled"
        rec = measures.evaluate(rho, solve_ppt=sdp.e_ppt)
        assert rec.sdp_status != "ok"
        assert "stalled" in rec.sdp_status

    def test_floor_against_trace_norm(self):
        rho = rdm3(SpinGeometry(1, 1), ModelParams(1.0, 1.0)).matrix
        for center in range(3):
            sol = sdp.solve_kappa(rho, DIMS3, center)
            pt_norm = trace_norm(partial_transpose(rho, DIMS3, center))
            assert sol.optimum >= pt_norm - 1e-6


class TestParityReduction:
    def test_rdm3_cut_takes_parity_path(self):
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.16, 0.5)).matrix
        prog = sdp.KappaProgram(rho, DIMS3, 1)
        assert prog.ops.shape == (20, 6, 4, 4)

    def test_real_and_complex_forms_agree_on_edge_cuts(self, uncertified_edge_cuts):
        # a complex input with zero imaginary part keeps the complex path
        for rho, center in uncertified_edge_cuts:
            cplx = rho.astype(complex)
            assert sdp.KappaProgram(cplx, DIMS3, center).flat.dtype == complex
            real, real_status = sdp.e_ppt(rho, DIMS3, center)
            full, full_status = sdp.e_ppt(cplx, DIMS3, center)
            assert real_status == full_status == "converged"
            assert abs(real - full) <= 1e-10

    def test_complex_state_takes_full_path(self):
        rho = random_mixed(np.random.default_rng(43))
        prog = sdp.KappaProgram(rho, DIMS3, 0)
        assert prog.ops.shape == (64, 3, 8, 8)

    def test_matches_full_path_on_edge_cuts(self, uncertified_edge_cuts, monkeypatch):
        assert len(uncertified_edge_cuts) == 71
        reduced = [sdp.solve_kappa(rho, DIMS3, c) for rho, c in uncertified_edge_cuts]
        monkeypatch.setattr(sdp, "_has_parity", lambda rho_pt: False)
        for (rho, center), red in zip(uncertified_edge_cuts, reduced):
            full = sdp.solve_kappa(rho, DIMS3, center)
            assert sdp.KappaProgram(rho, DIMS3, center).ops.shape[1:] == (3, 8, 8)
            assert abs(red.e_kappa - full.e_kappa) < 1e-10
            assert red.iterations == full.iterations
            assert red.status == full.status == "converged"

    def test_parity_solutions_pass_full_space_audit(self, uncertified_edge_cuts):
        for rho, center in uncertified_edge_cuts[::5]:
            sol = sdp.solve_kappa(rho, DIMS3, center)
            assert sol.s_matrix.shape == (8, 8)
            assert [x.shape for x in sol.dual_blocks] == [(8, 8)] * 3
            rep = verify_solution(rho, center, sol)
            assert rep.feasible and rep.optimal


class TestSchurFailure:
    def test_no_cholesky_ends_as_infeasible_numerics(self, monkeypatch):
        def no_cholesky(matrix):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(sdp.np.linalg, "cholesky", no_cholesky)
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.16, 0.5)).matrix
        assert not sdp.binegativity_is_psd(rho, DIMS3, 1)
        sol = sdp.solve_kappa(rho, DIMS3, 1)
        assert sol.status == "infeasible-numerics"
        assert sol.iterations == 1
        row = analysis.measure_point(1.16, 0.5, 4, 4)
        assert row["status"] != "ok"
        assert "infeasible-numerics" in row["status"]


def reference_binegativity(rho, center):
    """(min eigenvalue of |rho^T|^T, ||rho^T||_1) by linalg.partial_transpose
    on the unpermuted state, in complex arithmetic."""
    rho_pt = partial_transpose(np.asarray(rho, dtype=complex), DIMS3, center)
    w, v = np.linalg.eigh(rho_pt)
    abs_pt = (v * np.abs(w)) @ v.conj().T
    min_eig = np.linalg.eigvalsh(partial_transpose(abs_pt, DIMS3, center))[0]
    return min_eig, np.sum(np.abs(w))


class TestGatheredCertificate:
    def test_matches_partial_transpose_construction(self):
        rng = np.random.default_rng(47)
        states = list(kernel_states()) + [random_mixed(rng) for _ in range(30)]
        worst = 0.0
        for rho in states:
            for center in range(3):
                _, pt_norm, _, min_eig = sdp._cut(rho, DIMS3, center)
                got = (min_eig, pt_norm)
                want = reference_binegativity(rho, center)
                worst = max(worst, *np.abs(np.subtract(got, want)))
        assert worst <= 1e-14

    def test_real_state_takes_real_arithmetic(self):
        rho = rdm3(SpinGeometry(4, 4), ModelParams(1.16, 0.5)).matrix
        assert rho.dtype == np.float64
        prog = sdp.KappaProgram(rho, DIMS3, 1)
        assert prog.offset.dtype == prog.flat.dtype == float
        assert prog.flat_conj is prog.flat

    @pytest.mark.parametrize("dims", [(2, 4), (4, 2), (2, 2, 2, 1)])
    def test_rejects_non_three_qubit_dims(self, dims):
        rho = np.eye(8) / 8.0
        for fn in (sdp.e_ppt, sdp.solve_kappa, sdp.binegativity_is_psd):
            with pytest.raises(ValueError, match="three qubits"):
                fn(rho, dims, 0)


class TestWarmStart:
    def test_matches_cold_start_in_fewer_iterations(self, uncertified_edge_cuts):
        # the criterion-2 detection windows lambda_f +- 0.04, as in
        # analysis.detect_factorization_measure
        cuts = list(uncertified_edge_cuts)
        for gamma in (0.2, 0.8):
            lam_f = factorization_lambda(gamma)
            for geometry in ((1, 1), (2, 1), (2, 2)):
                cuts += uncertified_cuts(
                    geometry, np.linspace(lam_f - 0.04, lam_f + 0.04, 9), gamma
                )
        assert len(cuts) > len(uncertified_edge_cuts)
        warm_iters, cold_iters = [], []
        for rho, center in cuts:
            prog = sdp.KappaProgram(rho, DIMS3, center)
            warm = sdp._solve_program(prog)
            pt_norm = sdp._cut(rho, DIMS3, center)[1]
            prog.start = (pt_norm + 1.0) * prog.unit
            cold = sdp._solve_program(prog)
            assert warm.status == cold.status == "converged"
            assert abs(warm.e_kappa - cold.e_kappa) <= 1e-8
            warm_iters.append(warm.iterations)
            cold_iters.append(cold.iterations)
        assert np.mean(warm_iters) < np.mean(cold_iters)

    def test_start_is_strictly_feasible(self, uncertified_edge_cuts):
        for rho, center in uncertified_edge_cuts[::7]:
            prog = sdp.KappaProgram(rho, DIMS3, center)
            min_eig = np.linalg.eigvalsh(prog.blocks(prog.start))[:, 0].min()
            assert min_eig >= sdp.WARM_START_MARGIN * (1.0 - 1e-6)


class TestMirrorReuse:
    @pytest.mark.parametrize("geometry, lam, gamma", [
        ((1, 1), factorization_lambda(0.2) + 0.01, 0.2),
        ((2, 2), factorization_lambda(0.8) - 0.01, 0.8),
        ((4, 4), 1.16, 0.5),
    ])
    def test_center_two_matches_direct_solve(self, geometry, lam, gamma):
        rho = rdm3(SpinGeometry(*geometry), ModelParams(lam, gamma)).matrix
        rec = measures.evaluate(rho, solve_ppt=sdp.e_ppt)
        assert rec.sdp_status == "ok"
        direct, status = sdp.e_ppt(rho, DIMS3, 2)
        assert status == "converged"
        assert abs(rec.e_ppts[2] - direct) <= 1e-8

    def test_solver_sees_two_centers_on_symmetric_states(self):
        calls = []

        def counting(rho, dims, center):
            calls.append(center)
            return sdp.e_ppt(rho, dims, center)

        v = np.zeros(8)
        v[0] = v[7] = 1.0 / np.sqrt(2.0)
        symmetric = [np.outer(v, v)] + [
            rdm3(SpinGeometry(a, a), ModelParams(lam, 0.5)).matrix
            for a in (1, 2, 4) for lam in (0.8, 1.16)
        ]
        for rho in symmetric:
            calls.clear()
            measures.evaluate(rho, solve_ppt=counting)
            assert calls == [0, 1]
        calls.clear()
        measures.evaluate(random_mixed(np.random.default_rng(53)), solve_ppt=counting)
        assert calls == [0, 1, 2]
