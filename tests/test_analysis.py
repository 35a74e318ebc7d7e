import numpy as np
import pytest

from xymqc import analysis, cli, sdp
from xymqc.analysis import (
    CriticalScan,
    FactorizationNotFound,
    NonConvergedPoint,
    SweepTable,
    WindowError,
    bound_entanglement_scan,
    derivative,
    detect_factorization,
    detect_factorization_measure,
    fidelity,
    fit_finite_size,
    fit_log_divergence,
    measure_point,
    pseudo_critical,
    scaling_collapse,
    sweep,
)
from xymqc.xychain import ModelParams, SpinGeometry, factorization_lambda, rdm3


def synthetic_table(lambdas, values, **kw):
    defaults = dict(gamma=1.0, alpha=1, beta=1)
    defaults.update(kw)
    return SweepTable(lambdas=np.asarray(lambdas),
                      columns={"y": np.asarray(values)}, **defaults)


class TestSweep:
    def test_lambda_zero_column_vanishes(self):
        tbl = sweep(0.7, 1, 1, [0.0], with_sdp=True)
        for col in ("n3", "t3", "tau_ub", "tau_lb"):
            assert abs(tbl.columns[col][0]) < 1e-9

    def test_row_consistency(self):
        tbl = sweep(1.0, 1, 1, [0.9, 1.0, 1.1], with_sdp=False)
        assert np.isnan(tbl.columns["tau_ub"]).all()
        assert all(s == "ok" for s in tbl.columns["status"])
        assert len(tbl.lambdas) == 3

    def test_deterministic(self):
        a = sweep(0.8, 2, 1, [0.5, 1.0], with_sdp=True)
        b = sweep(0.8, 2, 1, [0.5, 1.0], with_sdp=True)
        for col in ("n3", "tau_ub", "neg_i", "c_alpha"):
            assert np.array_equal(a.columns[col], b.columns[col])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(0.6, 1, 1, [], with_sdp=False)

    def test_parallel_matches_serial(self):
        grid = [0.5, 0.8, 1.1, 1.4]
        serial = sweep(0.6, 1, 1, grid, with_sdp=False, workers=1)
        parallel = sweep(0.6, 1, 1, grid, with_sdp=False, workers=2)
        for col in ("n3", "t3", "tau_lb", "neg_i"):
            assert np.array_equal(serial.columns[col], parallel.columns[col])


class TestGrid:
    @staticmethod
    def inclusive_arange(lo, hi, step):
        return np.arange(lo, hi + step / 2, step)

    def benchmark_grids(self):
        # the boundscan_sdp and fss_n3 reference ranges with seeded sub-step
        # offsets, and the cascade stages of scan_pseudo_critical
        rng = np.random.default_rng(5)
        for lo, hi, step in ((0.93, 1.25, 0.004), (0.90, 1.05, 0.001)):
            yield lo, hi, step
            for offset in rng.uniform(0.0, step, size=5):
                yield lo + offset, hi + offset, step
        center = 1.000002688109504
        for step, half in ((1e-4, 6e-3), (1e-5, 8e-4), (1e-6, 8e-5)):
            yield center - half, center + half, step

    def test_matches_inclusive_arange(self):
        for lo, hi, step in self.benchmark_grids():
            assert np.array_equal(analysis.grid(lo, hi, step),
                                  self.inclusive_arange(lo, hi, step))

    @pytest.mark.parametrize("lo, hi, step", [
        (np.nan, 1.0, 0.1), (0.0, np.inf, 0.1), (0.0, 1.0, np.nan),
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (1.0, 0.5, 0.1),
    ])
    def test_rejects(self, lo, hi, step):
        with pytest.raises(ValueError):
            analysis.grid(lo, hi, step)


class TestDerivative:
    def test_constant(self):
        tbl = synthetic_table(np.linspace(0, 1, 11), np.full(11, 2.5))
        derivative(tbl, "y")
        assert np.max(np.abs(tbl.columns["d_y"])) < 1e-12

    def test_quadratic_exact(self):
        lam = np.linspace(0.0, 2.0, 21)
        tbl = synthetic_table(lam, lam**2)
        derivative(tbl, "y")
        assert np.max(np.abs(tbl.columns["d_y"] - 2.0 * lam)) < 1e-10

    def test_needs_three_rows(self):
        tbl = synthetic_table([0.0, 0.1], [1.0, 2.0])
        with pytest.raises(WindowError):
            derivative(tbl, "y")

    def test_nonuniform_grid_rejected(self):
        tbl = synthetic_table([0.0, 0.1, 0.3], [1.0, 2.0, 3.0])
        with pytest.raises(WindowError):
            derivative(tbl, "y")


class TestPseudoCritical:
    def test_parabola_refinement(self):
        lam = np.linspace(0.8, 1.2, 81)
        vals = (lam - 1.0333) ** 2  # derivative minimum off-grid
        tbl = synthetic_table(lam, np.cumsum(vals) * (lam[1] - lam[0]))
        tbl.columns["d_y"] = vals
        scan = pseudo_critical(tbl, "y")
        assert abs(scan.lambda_m - 1.0333) < 1e-4

    def test_edge_minimum_rejected(self):
        lam = np.linspace(0.8, 1.0, 21)
        tbl = synthetic_table(lam, np.zeros(21))
        tbl.columns["d_y"] = -lam  # minimum at the right edge
        with pytest.raises(WindowError):
            pseudo_critical(tbl, "y")


class TestFits:
    def test_log_divergence_recovers_synthetic(self):
        lam = np.arange(0.9600, 0.99995, 1e-4)
        measure = np.zeros_like(lam)  # only the derivative column matters
        tbl = synthetic_table(lam, measure)
        tbl.columns["d_y"] = 0.5 * np.log(np.abs(lam - 1.0)) + 0.1
        fit = fit_log_divergence(tbl, "y", window=(3e-4, 3e-2))
        assert abs(fit.slope - 0.5) < 1e-6
        assert abs(fit.intercept - 0.1) < 1e-6
        assert fit.rms_residual < 1e-9
        assert fit.n_points >= 5

    def test_side_selection(self):
        lam = np.arange(0.9705, 1.0301, 1e-3)  # grid avoids lambda_c itself
        tbl = synthetic_table(lam, np.zeros_like(lam))
        tbl.columns["d_y"] = np.where(
            lam < 1.0,
            0.3 * np.log(np.abs(lam - 1.0)),
            0.7 * np.log(np.abs(lam - 1.0)),
        )
        below = fit_log_divergence(tbl, "y", window=(1e-3, 2e-2), side="below")
        above = fit_log_divergence(tbl, "y", window=(1e-3, 2e-2), side="above")
        assert abs(below.slope - 0.3) < 1e-9
        assert abs(above.slope - 0.7) < 1e-9

    def test_finite_size_fit(self):
        scans = [
            CriticalScan(length=L, lambda_m=1.0, min_derivative=-0.25 * np.log(L) + 0.2)
            for L in (41, 101, 201, 401, 1001)
        ]
        fit = fit_finite_size(scans)
        assert abs(fit.slope + 0.25) < 1e-9
        assert abs(fit.intercept - 0.2) < 1e-9

    def test_finite_size_needs_five_lengths(self):
        scans = [CriticalScan(41, 1.0, -1.0), CriticalScan(101, 1.0, -1.2)]
        with pytest.raises(WindowError):
            fit_finite_size(scans)

    def test_drift_exponent(self):
        scans = [
            CriticalScan(length=L, lambda_m=1.0 - 2.0 * L**-1.4, min_derivative=0.0)
            for L in (41, 101, 201, 401, 1001)
        ]
        fit = analysis.fit_drift_exponent(scans)
        assert abs(fit.slope + 1.4) < 1e-9


class TestCollapse:
    def test_single_length_trivial(self):
        lam = np.linspace(0.9, 1.1, 41)
        tbl = synthetic_table(lam, np.zeros_like(lam), length=101)
        tbl.columns["d_y"] = (lam - 1.0) ** 2 - 1.0
        res = scaling_collapse({101: tbl}, "y")
        assert res.spread == 0.0

    def test_perfect_collapse_detected(self):
        # curves generated from an exact homogeneous function collapse to 0
        def make(L):
            lam_m = 1.0 - L**-1.4
            lam = np.linspace(lam_m - 10.0 / L, lam_m + 10.0 / L, 101)
            y = -1.0 / (1.0 + (L * (lam - lam_m)) ** 2) + 0.1
            tbl = synthetic_table(lam, np.zeros_like(lam), length=L)
            tbl.columns["d_y"] = y
            return tbl

        tables = {L: make(L) for L in (101, 201, 401)}
        res = scaling_collapse(tables, "y")
        assert res.spread < 1e-3

    def test_mismatched_curves_flagged(self):
        def make(L, amp):
            lam_m = 1.0
            lam = np.linspace(lam_m - 10.0 / L, lam_m + 10.0 / L, 101)
            y = -amp / (1.0 + (L * (lam - lam_m)) ** 2)
            tbl = synthetic_table(lam, np.zeros_like(lam), length=L)
            tbl.columns["d_y"] = y
            tbl.columns["y"] = np.cumsum(y)
            return tbl

        tables = {101: make(101, 1.0), 201: make(201, 2.0)}
        res = scaling_collapse(tables, "y")
        assert res.spread > 0.2


class TestDetectFactorization:
    def test_synthetic_v_dip(self):
        lam_f = 1.234
        det = detect_factorization(lambda lam: abs(lam - lam_f), (1.15, 1.32))
        assert abs(det.lambda_detected - lam_f) < 1e-6

    def test_no_dip(self):
        with pytest.raises(FactorizationNotFound):
            detect_factorization(lambda lam: 1.0 + (lam - 1.0) ** 2, (0.9, 1.1))

    def test_one_sided_death_rejected(self):
        # collapses and stays dead: no revival, not a sudden change
        def evaluator(lam):
            return max(0.0, 1.2 - lam)

        with pytest.raises(FactorizationNotFound):
            detect_factorization(evaluator, (1.0, 1.4))

    def test_n3_pinpoints_lambda_f(self):
        gamma = 0.4
        det = detect_factorization_measure("n3", gamma, 1, 1)
        assert abs(det.lambda_detected - factorization_lambda(gamma)) < 1e-4

    def test_grid_halving_invariance(self):
        gamma = 0.3
        a = detect_factorization_measure("n3", gamma, 1, 1, grid_step=2e-3)
        b = detect_factorization_measure("n3", gamma, 1, 1, grid_step=1e-3)
        assert abs(a.lambda_detected - b.lambda_detected) < 1e-3

    def test_smooth_measures_rejected(self):
        for column in ("t3", "tau_lb"):
            with pytest.raises(FactorizationNotFound):
                detect_factorization_measure(column, 0.2, 1, 1)


class TestIsingConcurrenceRange:
    def test_next_nearest_versus_third_neighbor(self):
        # gamma=1, nonordered phase: C(2) > 0 somewhere, C(3) always ~ 0
        lams = np.arange(0.6, 1.0, 0.02)
        c2 = [measure_point(l, 1.0, 2, 1, with_sdp=False)["c_alpha"] for l in lams]
        c3 = [measure_point(l, 1.0, 3, 1, with_sdp=False)["c_alpha"] for l in lams]
        assert max(c2) > 1e-3
        assert max(c3) < 1e-9


class TestN3SpatialReach:
    def test_long_range_at_small_gamma(self):
        # gamma=0.2 below the transition: N3(7,7) alive while C_max(7) dead;
        # the outer cuts only turn NPT very close to the critical point
        lams = np.concatenate([np.arange(0.90, 0.99, 0.01),
                               np.arange(0.99, 0.9996, 0.001)])
        n3_vals = [measure_point(l, 0.2, 7, 7, with_sdp=False)["n3"] for l in lams]
        c7_vals = [measure_point(l, 0.2, 7, 1, with_sdp=False)["c_alpha"] for l in lams]
        assert max(n3_vals) > 1e-9
        assert max(c7_vals) < 1e-9


class TestBoundScan:
    def test_ising_has_no_windows(self):
        grid = np.arange(0.2, 2.0, 0.1)
        windows = bound_entanglement_scan(1.0, 1, 1, grid, refine=False)
        assert windows == []

    def test_window_detection_coarse(self):
        # the known PPT window of the gamma=0.5, m=(4,4) state
        grid = np.arange(0.94, 1.10, 0.01)
        windows = bound_entanglement_scan(0.5, 4, 4, grid, refine=False)
        assert len(windows) == 1
        w = windows[0]
        assert w.lo < 1.0 < w.hi
        assert w.max_neg_outer < 1e-9
        assert w.max_tau_ub > 1e-6


class TestFidelity:
    def test_self_fidelity(self):
        rho = rdm3(SpinGeometry(1, 1), ModelParams(0.9, 0.5)).matrix
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure_states(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((4, 4), dtype=complex)
        b[3, 3] = 1.0
        assert fidelity(a, b) < 1e-10

    def test_symmetric(self):
        rho_a = rdm3(SpinGeometry(1, 1), ModelParams(0.9, 0.5, 21)).matrix
        rho_b = rdm3(SpinGeometry(1, 1), ModelParams(0.9, 0.5)).matrix
        assert abs(fidelity(rho_a, rho_b) - fidelity(rho_b, rho_a)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(4) / 4.0, np.eye(8) / 8.0)

    def test_finite_vs_infinite_high(self):
        rho_a = rdm3(SpinGeometry(1, 1), ModelParams(0.5, 0.5, 21)).matrix
        rho_b = rdm3(SpinGeometry(1, 1), ModelParams(0.5, 0.5)).matrix
        assert fidelity(rho_a, rho_b) > 0.99


class TestCollapsePhysicalData:
    LENGTHS = (41, 201, 401, 2701)

    def _tables(self, column):
        with_sdp = column in analysis.SDP_COLUMNS
        tables, scans = {}, {}
        for L in self.LENGTHS:
            coarse = sweep(1.0, 1, 1, np.arange(0.95, 1.011, 1e-3),
                           length=L, with_sdp=with_sdp)
            rough = pseudo_critical(coarse, column)
            half = 10.0 / L
            step = half / 40.0
            grid = np.arange(rough.lambda_m - half,
                             rough.lambda_m + half + step / 2, step)
            tbl = sweep(1.0, 1, 1, grid, length=L, with_sdp=with_sdp)
            derivative(tbl, column)
            tables[L] = tbl
            scans[L] = pseudo_critical(tbl, column)
        return tables, scans

    def test_t3_homogeneous_collapse(self):
        tables, scans = self._tables("t3")
        res = scaling_collapse(tables, "t3", scans=scans, x_window=(-2.0, 2.0))
        assert res.spread < 0.10

    def test_tau_ub_homogeneous_collapse(self):
        tables, scans = self._tables("tau_ub")
        res = scaling_collapse(tables, "tau_ub", scans=scans, x_window=(-2.0, 2.0))
        assert res.spread < 0.10


class TestIsingPeakOrdering:
    def test_n3_dominates_nearest_neighbor_measures(self):
        # at gamma=1, m=(1,1), the n3 peak tops the other three measures
        grid = np.arange(0.0, 2.0001, 0.05)
        tbl = sweep(1.0, 1, 1, grid, with_sdp=True)
        peaks = {c: float(np.max(tbl.columns[c]))
                 for c in ("n3", "t3", "tau_ub", "tau_lb")}
        assert peaks["n3"] == max(peaks.values())
        # near the critical point the lower bound is live but below the upper
        k = int(np.argmin(np.abs(grid - 0.95)))
        assert 0.0 < tbl.columns["tau_lb"][k] < tbl.columns["tau_ub"][k]


class TestNonConvergedPoint:
    """A solve cut short at two iterations must not enter a result silently."""

    @pytest.fixture
    def two_iterations(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERS", 2)

    def test_bound_scan_raises(self, two_iterations):
        with pytest.raises(NonConvergedPoint) as err:
            bound_entanglement_scan(0.5, 4, 4, [1.15, 1.16, 1.17])
        assert err.value.lam in (1.15, 1.16, 1.17)
        assert "max-iterations" in err.value.status
        assert "lambda=" in str(err.value)

    def test_tau_ub_evaluator_raises(self, two_iterations):
        with pytest.raises(NonConvergedPoint) as err:
            analysis.measure_evaluator("tau_ub", 0.5, 4, 4)(1.16)
        assert err.value.lam == 1.16
        assert "max-iterations" in err.value.status

    def test_n3_evaluator_needs_no_solve(self, two_iterations):
        assert analysis.measure_evaluator("n3", 0.5, 4, 4)(1.16) >= 0.0

    def test_cli_exits_nonzero(self, two_iterations, capsys):
        code = cli.main([
            "boundscan", "--gamma", "0.5", "--alpha", "4", "--beta", "4",
            "--infinite", "--lambda-min", "1.15", "--lambda-max", "1.17",
            "--step", "0.01",
        ])
        assert code == cli.EXIT_COMPUTE
        assert "did not converge" in capsys.readouterr().err

    def test_pseudo_critical_scan_raises(self, two_iterations):
        # the coarse grid crosses the (4,4) certificate edge, where the SDP runs
        with pytest.raises(NonConvergedPoint) as err:
            analysis.scan_pseudo_critical(0.5, 4, 4, 41, "tau_ub",
                                          coarse=(1.14, 1.18, 0.01))
        assert 1.14 <= err.value.lam <= 1.18
        assert "max-iterations" in err.value.status

    def test_fit_cli_exits_nonzero(self, two_iterations, capsys):
        # the fit grid 1.05..1.22 crosses the same edge
        code = cli.main([
            "fit", "--measure", "tau_ub", "--gamma", "0.5", "--alpha", "4",
            "--beta", "4", "--infinite", "--step", "0.01", "--window-min", "0.15",
            "--window-max", "0.2", "--side", "above",
        ])
        assert code == cli.EXIT_COMPUTE
        assert "did not converge" in capsys.readouterr().err

    @staticmethod
    def table_with_failed_row(d_of_lambda):
        # a hand-built table whose eighth row stands for a cut-short solve
        lam = np.arange(0.9705, 0.9995, 1e-3)
        tbl = synthetic_table(lam, np.zeros_like(lam))
        tbl.columns["d_y"] = d_of_lambda(lam)
        tbl.columns["status"] = ["ok"] * len(lam)
        tbl.columns["status"][7] = "max-iterations"
        return tbl

    def test_log_divergence_fit_raises(self):
        tbl = self.table_with_failed_row(lambda lam: 0.3 * np.log(1.0 - lam))
        with pytest.raises(NonConvergedPoint) as err:
            fit_log_divergence(tbl, "y", window=(1e-3, 3e-2))
        assert err.value.lam == tbl.lambdas[7]
        assert err.value.status == "max-iterations"

    def test_pseudo_critical_raises(self):
        tbl = self.table_with_failed_row(lambda lam: (lam - 0.985) ** 2)
        with pytest.raises(NonConvergedPoint):
            pseudo_critical(tbl, "y")

    def test_scaling_collapse_raises_with_a_given_scan(self):
        # a supplied scan spares pseudo_critical, not the convergence check
        tbl = self.table_with_failed_row(lambda lam: (lam - 0.985) ** 2)
        tbl.length = 101
        scan = CriticalScan(length=101, lambda_m=0.985, min_derivative=0.0)
        with pytest.raises(NonConvergedPoint) as err:
            scaling_collapse({101: tbl}, "y", scans={101: scan})
        assert err.value.lam == tbl.lambdas[7]

    def test_factorization_scaling_raises(self, two_iterations, monkeypatch):
        # the certificate holds at lambda_f on every finite chain, so it is
        # switched off here to make the SDP run there
        monkeypatch.setattr(sdp, "CERTIFICATE_TOL", -np.inf)
        with pytest.raises(NonConvergedPoint) as err:
            analysis.factorization_scaling(0.5, 1, 1, "tau_ub", [9, 11])
        assert err.value.lam == factorization_lambda(0.5)
        assert "max-iterations" in err.value.status
