import dataclasses
import math

import numpy as np
import pytest

from oracles import wide_window_scan
from xymqc import analysis, cli, measures, sdp
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
from xymqc.linalg import partial_trace
from xymqc.xychain import ModelParams, SpinGeometry, factorization_lambda, rdm3


def synthetic_table(lambdas, values, **kw):
    return SweepTable(lambdas=np.asarray(lambdas), columns={"y": np.asarray(values)}, **kw)


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


class TestMeasurePoint:
    @pytest.mark.parametrize("length", [41, None])
    @pytest.mark.parametrize("lam", [0.9, 1.1])
    def test_columns_read_the_right_cut_and_pair(self, lam, length):
        # the (2, 1) state is not its own mirror image, so the three cut
        # negativities differ and a swapped index moves a column
        rho = rdm3(SpinGeometry(2, 1), ModelParams(lam, 0.5, length)).matrix
        row = measure_point(lam, 0.5, 2, 1, length, with_sdp=False)
        assert set(row) == {*analysis.POINT_COLUMNS, "status"}
        for center, column in enumerate(("neg_i", "neg_j", "neg_k")):
            assert abs(row[column] - measures.negativity(rho, (2, 2, 2), center)) <= 1e-12
        assert abs(row["neg_i"] - row["neg_k"]) > 1e-3
        pair = partial_trace(rho, (2, 2, 2), keep=[0, 1])[0]
        assert abs(row["c_alpha"] - measures.concurrence(pair)) <= 1e-12
        assert np.isnan(row["tau_ub"])
        with_sdp = measure_point(lam, 0.5, 2, 1, length, with_sdp=True)
        assert with_sdp["status"] == "ok"
        assert np.isfinite(with_sdp["tau_ub"])
        for column in analysis.POINT_COLUMNS:
            if column != "tau_ub":
                assert with_sdp[column] == row[column]


class TestGrid:
    @staticmethod
    def inclusive_arange(lo, hi, step):
        return np.arange(lo, hi + step / 2, step)

    def benchmark_grids(self):
        # the boundscan_sdp and fss_n3 reference ranges with seeded sub-step
        # offsets, and the fine stages of scan_pseudo_critical, each spanning
        # FINE_HALFWIDTH_STEPS steps of the stage before
        rng = np.random.default_rng(5)
        for lo, hi, step in ((0.93, 1.25, 0.004), (0.90, 1.05, 0.001)):
            yield lo, hi, step
            for offset in rng.uniform(0.0, step, size=5):
                yield lo + offset, hi + offset, step
        center = 1.000002688109504
        for previous, step in ((1e-3, 1e-4), (1e-4, 1e-5), (1e-5, 1e-6)):
            half = analysis.FINE_HALFWIDTH_STEPS * previous
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


class TestScanPseudoCritical:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The number of measure_point calls, counted as they happen."""
        count = [0]
        real = analysis.measure_point

        def counting(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "measure_point", counting)
        return count

    @pytest.fixture
    def no_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("measure_point called")

        monkeypatch.setattr(analysis, "measure_point", refuse)

    def test_infinite_chain_rejected_before_any_sweep(self, no_points):
        with pytest.raises(ValueError, match="infinite chain"):
            analysis.scan_pseudo_critical(1.0, 2, 1, None, "n3")

    def test_unknown_column_rejected_before_any_sweep(self, no_points):
        with pytest.raises(ValueError, match="bogus"):
            analysis.scan_pseudo_critical(1.0, 2, 1, 41, "bogus")

    @pytest.mark.parametrize("gamma, alpha, beta, length, column", [
        (1.0, 2, 1, 1001, "n3"),
        (1.0, 1, 1, 401, "t3"),
        (1.0, 1, 1, 1001, "tau_lb"),
        (0.1, 2, 2, 1001, "t3"),
        (0.1, 1, 1, 1001, "tau_lb"),
        (0.2, 2, 1, 2701, "tau_lb"),
    ])
    def test_matches_wide_windows(self, gamma, alpha, beta, length, column):
        args = (gamma, alpha, beta, length, column)
        scan = analysis.scan_pseudo_critical(*args)
        wide = wide_window_scan(*args)
        assert abs(scan.lambda_m - wide.lambda_m) <= 1e-8
        assert abs(scan.min_derivative - wide.min_derivative) <= 1e-8

    @pytest.mark.parametrize("gamma, alpha, beta, length, column, coarse", [
        (1.0, 2, 1, 1001, "n3", (0.90, 1.05, 1e-3)),
        (1.0, 1, 1, 401, "t3", (0.90, 1.05, 1e-3)),
        (1.0, 1, 1, 1001, "tau_lb", (0.90, 1.05, 1e-3)),
        (0.1, 2, 2, 1001, "t3", (0.90, 1.05, 1e-3)),
        (0.1, 1, 1, 1001, "tau_lb", (0.90, 1.05, 1e-3)),
        (0.2, 2, 1, 2701, "tau_lb", (0.90, 1.05, 1e-3)),
        # the fss_n3 benchmark scan at three sub-step coarse offsets
        (1.0, 2, 1, 2701, "n3", (0.90017, 1.05017, 1e-3)),
        (1.0, 2, 1, 2701, "n3", (0.90043, 1.05043, 1e-3)),
        (1.0, 2, 1, 2701, "n3", (0.90089, 1.05089, 1e-3)),
        (0.5, 1, 1, 1001, "n3", (0.90031, 1.05031, 1e-3)),
        (0.5, 2, 2, 401, "t3", (0.90067, 1.05067, 1e-3)),
    ])
    def test_matches_full_lattice_sweeps(self, gamma, alpha, beta, length, column,
                                         coarse):
        # halfwidths of FINE_HALFWIDTH_STEPS steps of the stage before sweep
        # each fine stage's whole lattice, where the scan measures a run of it;
        # only the spacing of the run's first two points may differ by an ulp
        args = (gamma, alpha, beta, length, column, coarse)
        scan = analysis.scan_pseudo_critical(*args)
        full = wide_window_scan(*args, halfwidths=(2e-3, 2e-4, 2e-5))
        assert scan.lambda_m == full.lambda_m
        assert abs(scan.min_derivative - full.min_derivative) <= 1e-9

    @pytest.mark.parametrize("length, expected", [(2701, 43), (401, 36), (41, 32)])
    def test_point_count(self, calls, length, expected):
        # 16 of the 151 coarse points, the 6 others of the coarse run around
        # their minimum, then the 7 around each fine stage's centre; at L = 41
        # the coarse run grows by 3 points towards the lattice minimum
        analysis.scan_pseudo_critical(1.0, 2, 1, length, "n3")
        assert calls[0] == expected

    @pytest.mark.parametrize("gamma, alpha, beta, column", [
        (1.0, 2, 1, "n3"),
        # its first fine run grows: the minimum moves by a coarse step
        (0.1, 2, 2, "t3"),
    ])
    def test_fine_points_lie_on_their_lattice_once(self, monkeypatch, gamma, alpha,
                                                    beta, column):
        measured, scans, marks = [], [], []
        real_point, real_scan = analysis.measure_point, analysis.pseudo_critical

        def recording_point(lam, *args, **kwargs):
            measured.append(lam)
            return real_point(lam, *args, **kwargs)

        def recording_scan(table, column):
            marks.append(len(measured))
            scans.append(real_scan(table, column))
            return scans[-1]

        monkeypatch.setattr(analysis, "measure_point", recording_point)
        monkeypatch.setattr(analysis, "pseudo_critical", recording_scan)
        analysis.scan_pseudo_critical(gamma, alpha, beta, 1001, column)
        assert len(marks) == 4
        assert np.all(np.isin(measured[:marks[0]], analysis.grid(0.90, 1.05, 1e-3)))
        assert len(set(measured)) == len(measured)
        previous = 1e-3
        for stage, step in enumerate((1e-4, 1e-5, 1e-6)):
            center = scans[stage].lambda_m
            half = analysis.FINE_HALFWIDTH_STEPS * previous
            lattice = analysis.grid(center - half, center + half, step)
            points = measured[marks[stage]:marks[stage + 1]]
            assert len(points) >= 2 * analysis.FINE_RUN_STEPS + 1
            assert len(set(points)) == len(points)
            assert np.all(np.isin(points, lattice))
            previous = step

    def test_kinked_t3_raises_at_the_fine_lattice_edge(self):
        # gamma = 0.05: the clamp of t3 engages just below lambda_c, and its
        # kink draws the derivative minimum out of the 1e-6 lattice
        with pytest.raises(WindowError, match="fine stage at step 1e-06") as err:
            analysis.scan_pseudo_critical(0.05, 2, 2, 1001, "t3")
        assert "window lambda=0.998662882" in str(err.value)
        assert isinstance(err.value.__cause__, WindowError)
        assert "window edge" in str(err.value.__cause__)

    def test_two_workers_give_the_serial_scan(self):
        serial = analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3")
        assert analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3", workers=2) == serial

    def test_fine_coarse_grid_runs_no_fine_stage(self, calls):
        coarse = (1.003, 1.009, 1e-5)
        scan = analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3", coarse=coarse)
        # 61 of the 601 lattice points, then the 9 others of a run grown
        # towards the lattice minimum
        assert calls[0] == 70
        table = sweep(1.0, 2, 1, analysis.grid(*coarse), length=41, with_sdp=False)
        assert scan == pseudo_critical(table, "n3")

    def test_short_lattice_runs_from_its_middle(self, monkeypatch):
        # 20 lattice points leave 2 in the subsample, too few for a derivative
        coarse = (1.0052, 1.0071, 1e-4)
        lattice = analysis.grid(*coarse)
        measured = []
        real = analysis.measure_point

        def recording(lam, *args, **kwargs):
            measured.append(lam)
            return real(lam, *args, **kwargs)

        monkeypatch.setattr(analysis, "measure_point", recording)
        scan = analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3", coarse=coarse)
        assert len(lattice) == 20 and measured[:2] == [lattice[0], lattice[10]]
        # the run of the 7 points around index 9, less index 10 measured before
        assert sorted(measured[2:8]) == [lattice[k] for k in (6, 7, 8, 9, 11, 12)]
        monkeypatch.undo()
        table = sweep(1.0, 2, 1, lattice, length=41, with_sdp=False)
        assert scan == pseudo_critical(table, "n3")

    def test_dip_outside_the_window_raises_at_its_edge(self):
        with pytest.raises(WindowError) as err:
            analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3", coarse=(0.90, 0.95, 1e-3))
        assert str(err.value) == (
            "derivative minimum of n3 sits at the window edge (lambda=0.950000); "
            "widen the scan window")

    def test_subsample_picks_the_nearest_lattice_minimum(self, monkeypatch):
        # d(n3)/d(lambda) holds a broad dip at 0.95 and a deeper one at 1.005,
        # narrower than the subsample's spacing of 1e-2 and between two of its
        # points; the scan follows the broad dip that the subsample sees
        def column(lam):
            broad = 0.02 * math.erf((lam - 0.95) / 0.02)
            narrow = 2.0 * 1.5e-3 * math.erf((lam - 1.005) / 1.5e-3)
            return -0.5 * math.sqrt(math.pi) * (broad + narrow)

        def synthetic(lam, *args, **kwargs):
            row = dict.fromkeys(analysis.POINT_COLUMNS, 0.0)
            row.update(n3=column(lam), status="ok")
            return row

        monkeypatch.setattr(analysis, "measure_point", synthetic)
        scan = analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3")
        assert abs(scan.lambda_m - 0.95) < 1e-6
        assert abs(scan.min_derivative + 1.0) < 1e-3
        lowest = pseudo_critical(sweep(1.0, 2, 1, analysis.grid(0.90, 1.05, 1e-3),
                                       length=41), "n3")
        assert abs(lowest.lambda_m - 1.005) < 1e-4

    def test_fine_stage_edge_names_the_stage(self, monkeypatch):
        # the coarse stage's minimum, moved by 5 of its steps
        real = analysis.pseudo_critical
        stages = []

        def displaced(table, column):
            scan = real(table, column)
            stages.append(scan)
            if len(stages) == 1:
                return dataclasses.replace(scan, lambda_m=scan.lambda_m + 5e-3)
            return scan

        monkeypatch.setattr(analysis, "pseudo_critical", displaced)
        with pytest.raises(WindowError, match="fine stage at step 0.0001") as err:
            analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3")
        assert "previous step 0.001" in str(err.value)
        assert isinstance(err.value.__cause__, WindowError)
        assert "window edge" in str(err.value.__cause__)


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

    def test_drift_exponent_needs_five_points(self):
        scans = [CriticalScan(L, 1.0 - L**-1.4, 0.0) for L in (41, 101, 201, 401)]
        with pytest.raises(WindowError, match="at least 5 points"):
            analysis.fit_drift_exponent(scans)

    def test_log_divergence_needs_five_points_in_window(self):
        lam = np.arange(0.9705, 0.99995, 1e-3)
        tbl = synthetic_table(lam, np.zeros_like(lam))
        tbl.columns["d_y"] = np.log(np.abs(lam - 1.0))
        # |lambda - 1| in [1e-3, 3e-3] below 1 holds 0.9975 and 0.9985 only
        with pytest.raises(WindowError, match="fewer than 5 points"):
            fit_log_divergence(tbl, "y", window=(1e-3, 3e-3))


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

    def test_monotone_measure_has_its_minimum_at_the_edge(self):
        with pytest.raises(FactorizationNotFound, match="window edge"):
            detect_factorization(lambda lam: lam, (0.9, 1.1))

    def test_measure_zero_over_the_window_rejected(self):
        # an interior dip, but the whole window sits below ZERO_THRESHOLD
        def evaluator(lam):
            return 1e-10 * abs(lam - 1.0)

        with pytest.raises(FactorizationNotFound, match="zero over the whole window"):
            detect_factorization(evaluator, (0.9, 1.1))

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
        windows = bound_entanglement_scan(1.0, 1, 1, grid)
        assert windows == []

    def test_window_detection_coarse(self):
        # the known PPT window of the gamma=0.5, m=(4,4) state
        grid = np.arange(0.94, 1.10, 0.01)
        windows = bound_entanglement_scan(0.5, 4, 4, grid)
        assert len(windows) == 1
        w = windows[0]
        assert w.lo < 1.0 < w.hi
        assert w.max_neg_outer < 1e-9
        assert w.max_tau_ub > 1e-6

    def test_windows_follow_the_flagged_runs(self, monkeypatch):
        # flagged below 0.13, in (0.27, 0.34) and above 0.52, so the grid
        # points 0.0, 0.1, ..., 0.6 read T, T, F, T, F, F, T
        def synthetic(lam, *args, **kwargs):
            flagged = lam < 0.13 or 0.27 < lam < 0.34 or lam > 0.52
            row = dict.fromkeys(analysis.POINT_COLUMNS, 0.0)
            row.update(tau_ub=1.0 + lam, neg_i=0.0 if flagged else 1.0, status="ok")
            return row

        monkeypatch.setattr(analysis, "measure_point", synthetic)
        grid = np.linspace(0.0, 0.6, 7)
        first, middle, last = bound_entanglement_scan(0.5, 4, 4, grid)
        # the grid ends close the outer windows; every other edge is bisected
        assert first.lo == grid[0] and last.hi == grid[-1]
        assert abs(first.hi - 0.13) <= analysis.EDGE_TOL
        assert abs(middle.lo - 0.27) <= analysis.EDGE_TOL
        assert abs(middle.hi - 0.34) <= analysis.EDGE_TOL
        assert abs(last.lo - 0.52) <= analysis.EDGE_TOL
        assert (first.min_tau_ub, first.max_tau_ub) == (1.0 + grid[0], 1.0 + grid[1])
        assert middle.min_tau_ub == middle.max_tau_ub == 1.0 + grid[3]
        assert last.min_tau_ub == last.max_tau_ub == 1.0 + grid[6]
        assert all(w.max_neg_outer == 0.0 for w in (first, middle, last))


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

    @staticmethod
    def fail_at(monkeypatch, bad_lam):
        """measure_point, with a cut-short solve at bad_lam alone."""
        real = analysis.measure_point

        def failing(lam, *args, **kwargs):
            row = real(lam, *args, **kwargs)
            if lam == bad_lam:
                row["status"] = "max-iterations"
            return row

        monkeypatch.setattr(analysis, "measure_point", failing)

    def test_scan_raises_at_a_subsample_point_no_run_reaches(self, monkeypatch):
        # 20 lattice points leave 2 in the subsample, too few for a
        # derivative, and the run around index 9 stops short of index 0
        coarse = (1.0052, 1.0071, 1e-4)
        bad = analysis.grid(*coarse)[0]
        self.fail_at(monkeypatch, bad)
        with pytest.raises(NonConvergedPoint) as err:
            analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3", coarse=coarse)
        assert err.value.lam == bad
        assert err.value.status == "max-iterations"

    def test_scan_raises_at_a_point_only_a_fine_stage_measures(self, monkeypatch):
        measured, marks = [], []
        real_point, real_scan = analysis.measure_point, analysis.pseudo_critical

        def recording_point(lam, *args, **kwargs):
            measured.append(lam)
            return real_point(lam, *args, **kwargs)

        def recording_scan(table, column):
            marks.append(len(measured))
            return real_scan(table, column)

        monkeypatch.setattr(analysis, "measure_point", recording_point)
        monkeypatch.setattr(analysis, "pseudo_critical", recording_scan)
        analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3")
        monkeypatch.undo()
        # at L = 41 the coarse stage is followed by the 1e-4 stage alone
        assert len(marks) == 2 and marks[0] < marks[1] == len(measured)
        bad = measured[-1]
        assert bad not in measured[:marks[0]]
        self.fail_at(monkeypatch, bad)
        with pytest.raises(NonConvergedPoint) as err:
            analysis.scan_pseudo_critical(1.0, 2, 1, 41, "n3")
        assert err.value.lam == bad
        assert err.value.status == "max-iterations"

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
