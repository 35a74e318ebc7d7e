import math
import subprocess
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy import integrate

from oracles import factorized_pair
from xymqc import xychain
from xymqc.linalg import partial_trace
from xymqc.xychain import (
    ModelParams,
    SpinGeometry,
    _wick_dets,
    _wick_index,
    correlators,
    factorization_lambda,
    g_finite,
    g_infinite,
    rdm3,
    rdm3_many,
)

# structurally nonzero positions of the three-spin reduced matrix (0-based)
NONZERO_PAIRS = {
    (0, 3), (0, 5), (0, 6), (1, 2), (1, 4), (1, 7),
    (2, 4), (2, 7), (3, 5), (3, 6), (4, 7), (5, 6),
}


def _simpson(fn, lo, hi, n):
    if n % 2:
        n += 1
    x = np.linspace(lo, hi, n + 1)
    f = fn(x)
    h = (hi - lo) / n
    return (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2])) * h / 3.0


def simpson_reference(r, lam, gamma, n=1_000_000):
    def integrand(phi):
        alpha = 1.0 + lam * np.cos(phi)
        beta = lam * gamma * np.sin(phi)
        with np.errstate(invalid="ignore"):
            f = (np.cos(phi * r) * alpha - beta * np.sin(phi * r)) / np.hypot(alpha, beta)
        return np.nan_to_num(f)  # removable 0/0 at the zone boundary

    # split at the sign jump of the gamma=0 dispersion, if present; keep the
    # panel endpoints off the jump itself where the integrand is 0/0
    if gamma == 0.0 and lam > 1.0:
        cut = np.arccos(-1.0 / lam)
        return (_simpson(integrand, 0.0, cut - 1e-12, n // 2)
                + _simpson(integrand, cut + 1e-12, np.pi, n // 2)) / np.pi
    return _simpson(integrand, 0.0, np.pi, n) / np.pi


def quad_reference(r, lam, gamma, points=None):
    """g(r) by scalar adaptive quadrature, independent of the graded rule."""

    def integrand(phi):
        alpha = (1.0 - lam) + 2.0 * lam * math.cos(0.5 * phi) ** 2
        beta = lam * gamma * math.sin(phi)
        return (math.cos(r * phi) * alpha - math.sin(r * phi) * beta) / math.hypot(alpha, beta)

    val, _ = integrate.quad(integrand, 0.0, math.pi, points=points,
                            epsabs=1e-13, epsrel=1e-13, limit=2000)
    return val / math.pi


def critical_breakpoints(lam):
    """pi - pi 2^-k, k = 1..40, plus arccos(-1/lam) where gamma = 0 would jump."""
    points = [math.pi - math.pi * 2.0 ** -k for k in range(1, 41)]
    if lam > 1.0:
        points.append(math.acos(-1.0 / lam))
    return points


def momentum_sum_reference(r, L, lam, gamma):
    """g(r) on a finite chain as the plain sum over all L momenta, one r at a time."""
    q = np.arange(-(L - 1) // 2, (L - 1) // 2 + 1)
    phi = 2.0 * np.pi * q / L
    alpha = 1.0 + lam * np.cos(phi)
    beta = lam * gamma * np.sin(phi)
    terms = (np.cos(phi * r) * alpha - beta * np.sin(phi * r)) / np.hypot(alpha, beta)
    return float(np.sum(terms)) / L


@lru_cache(maxsize=None)
def mp_momentum_terms(L, lam, gamma):
    """Per momentum q = -(L-1)/2..(L-1)/2: (phi_q, alpha/omega, beta/omega) at 30 digits."""
    with mpmath.workdps(30):
        lam, gamma = mpmath.mpf(lam), mpmath.mpf(gamma)
        terms = []
        for q in range(-(L - 1) // 2, (L - 1) // 2 + 1):
            phi = 2 * mpmath.pi * q / L
            alpha = 1 + lam * mpmath.cos(phi)
            beta = lam * gamma * mpmath.sin(phi)
            omega = mpmath.sqrt(alpha * alpha + beta * beta)
            terms.append((phi, alpha / omega, beta / omega))
        return terms


def mp_momentum_sum(r, L, lam, gamma):
    """g(r) on a finite chain as the plain sum over all L momenta, at 30 digits."""
    with mpmath.workdps(30):
        total = mpmath.fsum(mpmath.cos(r * phi) * ca - mpmath.sin(r * phi) * sb
                            for phi, ca, sb in mp_momentum_terms(L, lam, gamma))
        return float(total / L)


def cofactor_det(m):
    """Laplace expansion with memoization over column subsets."""
    n = len(m)

    @lru_cache(maxsize=None)
    def minor(row, cols):
        if row == n:
            return 1.0
        total = 0.0
        for k, c in enumerate(cols):
            sub = cols[:k] + cols[k + 1:]
            total += (-1.0) ** k * m[row][c] * minor(row + 1, sub)
        return total

    return minor(0, tuple(range(n)))


LAGS = np.arange(-9, 10)


def g_at(fn, params, r):
    """g(r) for an int or an int array r, from one call fn(params, max |r|)."""
    r = np.asarray(r)
    rmax = int(np.max(np.abs(r)))
    return fn(params, rmax)[r + rmax]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.5)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.5, 8)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.5, 3)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ModelParams(lam, 0.5)

    def test_geometry_bounds(self):
        with pytest.raises(ValueError):
            SpinGeometry(0, 1)
        geom = SpinGeometry(4, 5)
        with pytest.raises(ValueError):
            geom.validate_for(ModelParams(1.0, 0.5, 9))
        geom.validate_for(ModelParams(1.0, 0.5, 11))


class TestGInfinite:
    def test_r0_free_field(self):
        assert abs(g_at(g_infinite, ModelParams(0.0, 0.7), 0) - 1.0) < 1e-12

    def test_r3_free_field(self):
        assert abs(g_at(g_infinite, ModelParams(0.0, 0.3), 3)) < 1e-12

    def test_simpson_oracle_critical_ising(self):
        params = ModelParams(1.0, 1.0)
        for r in (-2, -1, 0, 1, 2):
            assert abs(g_at(g_infinite, params, r) - simpson_reference(r, 1.0, 1.0)) < 1e-9

    def test_simpson_oracle_generic(self):
        for (lam, gamma) in ((0.8, 0.5), (1.3, 0.2), (2.0, 1.0)):
            params = ModelParams(lam, gamma)
            for r in (-3, 0, 2):
                ref = simpson_reference(r, lam, gamma)
                assert abs(g_at(g_infinite, params, r) - ref) < 1e-9

    def test_isotropic_above_critical(self):
        # gamma=0, lam>1 has a sign discontinuity inside the integrand
        params = ModelParams(1.5, 0.0)
        for r in (0, 1, 4):
            ref = simpson_reference(r, 1.5, 0.0)
            assert abs(g_at(g_infinite, params, r) - ref) < 1e-9


class TestGFinite:
    def test_r0_free_field(self):
        assert abs(g_at(g_finite, ModelParams(0.0, 0.4, 11), 0) - 1.0) < 1e-12

    def test_converges_to_infinite(self):
        fin = ModelParams(0.8, 0.5, 2701)
        inf = ModelParams(0.8, 0.5)
        for r in (-5, -1, 0, 1, 2, 7):
            assert abs(g_at(g_finite, fin, r) - g_at(g_infinite, inf, r)) < 1e-5

    def test_convergence_across_params(self):
        for gamma in (0.2, 0.5, 1.0):
            for lam in (0.0, 0.5, 1.0, 1.7, 2.0):
                fin = ModelParams(lam, gamma, 2701)
                inf = ModelParams(lam, gamma)
                for r in (-14, -3, 0, 3, 14):
                    assert abs(g_at(g_finite, fin, r) - g_at(g_infinite, inf, r)) < 1e-5

    def test_requires_finite_chain(self):
        with pytest.raises(ValueError):
            g_finite(ModelParams(1.0, 0.5), 0)


def linspace_graded_rule(lam, gamma, rmax):
    """`_graded_rule` with each panel split by its own np.linspace."""
    depth = max(min(abs(1.0 - lam), gamma) / 4.0, xychain._MIN_DEPTH)
    levels = np.arange(int(np.ceil(np.log2(np.pi / depth))) + 1)
    edges = [np.array([0.0]), np.pi * 0.5 ** levels]
    if lam > 1.0:
        t0 = np.arctan(np.sqrt((lam - 1.0) * (lam + 1.0)))
        steps = 0.25 * gamma * 2.0 ** np.arange(int(np.ceil(np.log2(4.0 * np.pi / gamma))) + 1)
        edges += [np.array([t0]), t0 - steps, t0 + steps]
    edges = np.unique(np.clip(np.concatenate(edges), 0.0, np.pi))
    pieces = np.ceil(np.diff(edges) * max(rmax, 1) / xychain._MAX_PHASE).astype(int)
    edges = np.concatenate([np.linspace(a, b, n, endpoint=False)
                            for a, b, n in zip(edges[:-1], edges[1:], pieces)] + [edges[-1:]])
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    x, w = xychain._gauss_legendre()
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


class TestGradedRule:
    def test_panel_split_matches_per_panel_linspace(self):
        # bit for bit, across the grading's regimes and the phase splits
        for lam in np.linspace(0.01, 3.0, 61):
            for gamma in (1e-3, 0.05, 0.2, 0.5, 1.0):
                for rmax in (0, 1, 3, 8, 20, 40):
                    got = xychain._graded_rule(lam, gamma, rmax)
                    want = linspace_graded_rule(lam, gamma, rmax)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b), (lam, gamma, rmax)


class TestMomentumTable:
    def test_matches_30_digit_momentum_sum(self):
        # at and next to the gap closing, and away from it
        cases = [(L, np.arange(-3, 4)) for L in (11, 2701)] + [(101, np.array([-24, 24]))]
        worst = 0.0
        for L, lags in cases:
            for lam in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.7):
                for gamma in (0.01, 1.0):
                    g = g_at(g_finite, ModelParams(lam, gamma, L), lags)
                    ref = [mp_momentum_sum(int(r), L, lam, gamma) for r in lags]
                    worst = max(worst, np.max(np.abs(g - ref)))
        assert worst <= 1e-15

    def test_table_is_read_only(self):
        g_finite(ModelParams(0.9, 0.5, 41), 3)
        for rows in xychain._momentum_table(41, 3):
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0] = 0.0

    def test_cache_is_bounded(self):
        maxsize = xychain._momentum_table.cache_info().maxsize
        assert maxsize is not None
        for L in range(5, 5 + 2 * (maxsize + 3), 2):
            g_finite(ModelParams(0.9, 0.5, L), 1)
        assert xychain._momentum_table.cache_info().currsize == maxsize
        # an evicted length is rebuilt
        assert abs(g_at(g_finite, ModelParams(0.9, 0.5, 5), 1)
                   - momentum_sum_reference(1, 5, 0.9, 0.5)) <= 1e-15


class TestClosedForms:
    def test_gamma_zero_below_and_at_critical(self):
        for lam in (0.0, 0.5, 1.0):
            g = g_infinite(ModelParams(lam, 0.0), 9)
            assert np.max(np.abs(g - (LAGS == 0))) <= 1e-15

    def test_gamma_zero_above_critical(self):
        phi0 = np.arccos(-1.0 / 1.5)
        g = g_infinite(ModelParams(1.5, 0.0), 9)
        nonzero = LAGS != 0
        expect = 2.0 * np.sin(LAGS[nonzero] * phi0) / (np.pi * LAGS[nonzero])
        assert np.max(np.abs(g[nonzero] - expect)) <= 1e-15
        assert abs(g[~nonzero][0] - (2.0 * phi0 / np.pi - 1.0)) <= 1e-15


class TestCorrelators:
    def test_matches_scalar_quad(self):
        lams = (0.1, 0.5, 0.8, 0.95, 0.99, 1 - 1e-5, 1.0, 1 + 1e-5, 1.01,
                1.05, 1.2, 1.5, 2.0, 3.0)
        worst = 0.0
        for lam in lams:
            points = critical_breakpoints(lam)
            for gamma in (0.01, 0.2, 0.5, 0.8, 1.0):
                g = g_infinite(ModelParams(lam, gamma), 9)
                ref = [quad_reference(int(r), lam, gamma, points) for r in LAGS]
                worst = max(worst, np.max(np.abs(g - ref)))
        assert worst <= 1e-11

    def test_near_critical(self):
        # adaptive quadrature without breakpoints misses the feature of width
        # |1 - lambda|/gamma at phi = pi by up to ~1e-8 here
        for lam in (1.0 - 1e-9, 1.0 + 1e-9):
            points = [math.pi - math.pi * 2.0 ** -k for k in range(1, 41)]
            g = g_infinite(ModelParams(lam, 0.5), 9)
            ref = [quad_reference(int(r), lam, 0.5, points) for r in LAGS]
            assert np.max(np.abs(g - ref)) <= 1e-12

    def test_finite_matches_per_r_momentum_sum(self):
        for L in (11, 2701):
            for lam in (0.0, 0.4, 0.9, 1.0, 1.02, 1.7):
                for gamma in (0.01, 0.5, 1.0):
                    g = g_finite(ModelParams(lam, gamma, L), 9)
                    ref = [momentum_sum_reference(int(r), L, lam, gamma) for r in LAGS]
                    assert np.max(np.abs(g - ref)) <= 1e-13

    def test_equal_chain_function_at_index_r_plus_rmax(self):
        for params in (ModelParams(1.1, 0.6), ModelParams(0.7, 0.3, 21)):
            g = correlators(params, 9)
            if params.infinite:
                assert np.array_equal(g, g_infinite(params, 9))
                t, weights = xychain._graded_rule(params.lam, params.gamma, 9)
                nodes = xychain._nodes(t, weights / np.pi, 9)
            else:
                assert np.array_equal(g, g_finite(params, 9))
                nodes = xychain._momentum_table(params.length, 9)
            cos_moments, sin_moments = xychain._moments(nodes, params.lam, params.gamma)
            # g(r) = C_r - S_r at index r + 9, g(-r) = C_r + S_r at 9 - r
            assert np.array_equal(g[9:], cos_moments - sin_moments)
            assert np.array_equal(g[9::-1], cos_moments + sin_moments)

    def test_free_field_is_delta(self):
        expect = np.eye(9)[4]
        for params in (ModelParams(0.0, 0.9), ModelParams(0.0, 0.9, 11)):
            assert np.max(np.abs(correlators(params, 4) - expect)) <= 1e-15


class TestWickDet:
    def test_toeplitz_cofactor_oracle(self):
        # 10x10 Toeplitz of correlator-like values vs Laplace expansion
        rng = np.random.default_rng(31)
        g = rng.uniform(-0.5, 0.5, size=21)
        m = np.array([[g[j - i + 10] for j in range(10)] for i in range(10)])
        expect = cofactor_det(m.tolist())
        index = _wick_index(range(10), range(10), 10, 10)
        got = _wick_dets(g, [index[None]])[0]
        assert abs(got - expect) / abs(expect) < 1e-9

    def test_site_lists_index_lags(self):
        gv = np.arange(-5.0, 6.0) ** 3 + 0.5   # distinct g(r), r = -5..5
        a_sites, b_sites = [-2, 0, 3], [-1, 0, 2]
        m = np.array([[gv[b - a + 5] for b in b_sites] for a in a_sites])
        index = _wick_index(a_sites, b_sites, 3, 5)
        assert np.array_equal(gv[index], m)
        assert _wick_dets(gv, [index[None]])[0] == float(np.linalg.det(m))

    def test_identity_padding_keeps_det(self):
        # a 3x3 matrix padded to 6x6 and stacked with a full 6x6 one
        gv = np.arange(-5.0, 6.0) ** 3 + 0.5
        a_sites, b_sites = [-2, 0, 3], [-1, 0, 2]
        small = np.array([[gv[b - a + 5] for b in b_sites] for a in a_sites])
        full = np.array([[gv[j - i + 5] for j in range(6)] for i in range(6)])
        padded = _wick_index(a_sites, b_sites, 6, 5)
        expect = np.eye(6)
        expect[:3, :3] = small
        assert np.array_equal(np.concatenate([gv, [0.0, 1.0]])[padded], expect)
        dets = _wick_dets(gv, [np.array([padded, _wick_index(range(6), range(6), 6, 5)])])
        for got, m in zip(dets, (small, full)):
            assert abs(got - np.linalg.det(m)) <= 1e-12 * abs(np.linalg.det(m))


class TestImport:
    def test_package_does_not_load_scipy_integrate(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import xymqc, sys; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_cli_does_not_load_scipy(self):
        # scipy is a test dependency only: even exact diagonalization needs
        # numpy alone
        script = (
            "import sys, xymqc.cli\n"
            "code = xymqc.cli.main(['verify', '--L', '13', '--lambda', '0.7', '--gamma', '0.5'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True, timeout=60)
        assert "verify: PASS" in out.stdout
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_cli_does_not_load_process_pools_or_numpy_polynomial(self):
        # the pool is imported by a parallel sweep and the Gauss-Legendre rule
        # by the first thermodynamic-limit call, each where it runs
        script = (
            "import sys, xymqc.cli\n"
            "names = ('multiprocessing', 'concurrent.futures.process', 'numpy.polynomial')\n"
            "print(sorted(n for n in names if n in sys.modules))\n"
            "from xymqc import analysis\n"
            "t = analysis.sweep(0.6, 1, 1, [0.5, 0.7, 0.9], with_sdp=False, workers=2)\n"
            "print(len(t.columns['n3']), 'concurrent.futures.process' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.splitlines() == ["[]", "3 True"]


class TestRdm3:
    def test_free_field_is_all_down(self):
        rho = rdm3(SpinGeometry(1, 1), ModelParams(0.0, 0.7))
        expect = np.zeros((8, 8))
        expect[7, 7] = 1.0
        assert np.max(np.abs(rho.matrix - expect)) < 1e-12

    def test_density_axioms(self):
        for (lam, gamma, geom) in (
            (0.5, 1.0, (1, 1)), (1.0, 1.0, (2, 1)), (1.7, 0.4, (3, 2)),
            (1.02, 0.2, (1, 1)), (0.9, 0.0, (2, 2)),
        ):
            rho = rdm3(SpinGeometry(*geom), ModelParams(lam, gamma))
            m = rho.matrix
            assert abs(np.trace(m) - 1.0) < 1e-10
            assert np.max(np.abs(m - m.conj().T)) == 0.0
            assert np.linalg.eigvalsh(m)[0] > -1e-9

    def test_sparsity_pattern(self):
        for (lam, gamma) in ((0.6, 0.8), (1.2, 0.3), (1.0, 1.0)):
            rho = rdm3(SpinGeometry(2, 1), ModelParams(lam, gamma)).matrix
            for i in range(8):
                for j in range(i + 1, 8):
                    if (i, j) not in NONZERO_PAIRS:
                        assert abs(rho[i, j]) < 1e-12, (i, j)

    def test_mirror_symmetry(self):
        # swapping the outer qubits maps geometry (a,b) to (b,a)
        perm = [0, 4, 2, 6, 1, 5, 3, 7]  # reverse the three-bit index
        for (lam, gamma) in ((0.8, 0.6), (1.3, 1.0)):
            r_ab = rdm3(SpinGeometry(3, 1), ModelParams(lam, gamma)).matrix
            r_ba = rdm3(SpinGeometry(1, 3), ModelParams(lam, gamma)).matrix
            assert np.max(np.abs(r_ab[np.ix_(perm, perm)] - r_ba)) < 1e-12

    def test_strong_field_ising_limit(self):
        # deep in the ordered phase the state approaches the symmetry-broken
        # x ferromagnet; its cat structure shows on the x-basis diagonal
        rho = rdm3(SpinGeometry(1, 1), ModelParams(50.0, 1.0))
        had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        u = np.kron(np.kron(had, had), had)
        diag = np.real(np.diag(u @ rho.matrix @ u))
        expect = np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])
        assert np.max(np.abs(diag - expect)) < 0.05

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            rdm3(SpinGeometry(5, 4), ModelParams(1.0, 0.5, 9))

    @pytest.mark.parametrize("length", [41, None])
    def test_states_are_real(self, length):
        params = ModelParams(1.16, 0.5, length)
        assert rdm3(SpinGeometry(4, 4), params).matrix.dtype == np.float64
        stack = rdm3_many([SpinGeometry(1, 1), SpinGeometry(4, 4)], params)
        assert stack.dtype == np.float64

    def test_verify_geometries_stay_cached(self):
        # one table per geometry tuple: `verify` at L = 11 and 13 builds two,
        # and the single geometries that rdm3 keys as 1-tuples evict neither
        geoms = {L: verify_geometries(L) for L in (11, 13)}
        xychain._wick_table.cache_clear()
        for _ in range(2):
            for L, stack in geoms.items():
                params = ModelParams(0.7, 0.5, L)
                rdm3_many(stack, params)
                for geom in stack:
                    rdm3(geom, params)
        singles = {(g.alpha, g.beta) for stack in geoms.values() for g in stack}
        assert xychain._wick_table.cache_info().misses == 2 + len(singles)

    def test_one_det_and_one_correlators_call(self, monkeypatch):
        calls = {"det": 0, "correlators": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
        monkeypatch.setattr(xychain, "correlators", counting("correlators", correlators))
        rdm3(SpinGeometry(4, 3), ModelParams(1.1, 0.5, 41))
        assert calls == {"det": 1, "correlators": 1}


def verify_geometries(length):
    """Every geometry of `xymqc verify` at one chain length, in its order."""
    return [SpinGeometry(a, b) for a in range(1, length) for b in range(1, length - a)]


class TestRdm3Many:
    @pytest.mark.parametrize("length", [11, 13, 41, None])
    def test_matches_per_geometry_rdm3(self, length):
        # mixed order and repeated geometries, every span <= 12 the chain allows
        top = 12 if length is None else min(12, length - 1)
        geoms = [SpinGeometry(a, s - a) for s in range(2, top + 1) for a in range(1, s)]
        rng = np.random.default_rng(17)
        geoms = [geoms[k] for k in rng.permutation(len(geoms))] + geoms[::7]
        for lam, gamma in ((0.7, 0.5), (1.3, 0.2)):
            params = ModelParams(lam, gamma, length)
            stack = rdm3_many(geoms, params)
            assert stack.shape == (len(geoms), 8, 8)
            for geom, rho in zip(geoms, stack):
                assert np.max(np.abs(rho - rdm3(geom, params).matrix)) <= 1e-14

    def test_validates_every_geometry(self):
        with pytest.raises(ValueError):
            rdm3_many([SpinGeometry(1, 1), SpinGeometry(5, 5)], ModelParams(0.7, 0.5, 9))


def verify_table(length):
    """(Wick site lists, cached table) of the `verify` stack at one chain length."""
    geoms = tuple((g.alpha, g.beta) for g in verify_geometries(length))
    lists = [xychain._wick_lists(string, (-a, 0, b))
             for a, b in geoms for string in xychain._STRINGS]
    return lists, xychain._wick_table(geoms)


class TestWickGroups:
    @pytest.mark.parametrize("length", [11, 13])
    def test_match_one_padded_call(self, length):
        lists, (stacks, order, _, rmax) = verify_table(length)
        size = max(len(a) for a, _, _ in lists)
        padded = np.array([_wick_index(a, b, size, rmax) for a, b, _ in lists])
        for lam, gamma in ((0.7, 0.5), (1.3, 0.2), (1.0, 1.0)):
            gv = correlators(ModelParams(lam, gamma, length), rmax)
            expect = _wick_dets(gv, [padded])
            assert np.max(np.abs(_wick_dets(gv, stacks)[order] - expect)) <= 1e-15

    @pytest.mark.parametrize("length", [11, 13])
    def test_padded_work_near_own_work(self, length):
        # one matrix per distinct lag pattern b_j - a_i (of 855 and 1254
        # strings); sum of size^3 over the LU factorizations, as padded and
        # as needed
        lists, (stacks, _, _, _) = verify_table(length)
        lags = {(len(a), tuple(np.subtract.outer(b, a).ravel())) for a, b, _ in lists}
        distinct = {11: 346, 13: 499}[length]
        assert len(lags) == distinct
        padded = sum(len(index) * index.shape[-1] ** 3 for index in stacks)
        own = sum(size ** 3 for size, _ in lags)
        assert padded <= 1.5 * own
        assert sum(len(index) for index in stacks) == distinct

    @pytest.mark.parametrize("length", [11, 13])
    def test_verify_stack_matches_single_geometries(self, length):
        geoms = verify_geometries(length)
        for lam, gamma in ((0.7, 0.5), (1.3, 0.2), (1.0, 1.0)):
            params = ModelParams(lam, gamma, length)
            single = np.stack([rdm3(geom, params).matrix for geom in geoms])
            assert np.max(np.abs(rdm3_many(geoms, params) - single)) <= 1e-15

    @pytest.mark.parametrize("geom", [(1, 1), (4, 3), (2, 9)])
    def test_one_geometry_is_one_group_of_its_own_dets(self, geom):
        # repeated lag patterns (ZII, IZI and IIZ share one) leave a single
        # geometry one padded stack, whose determinants are those of all 19
        # matrices padded to the largest size
        (index,), order, _, rmax = xychain._wick_table((geom,))
        lists = [xychain._wick_lists(string, (-geom[0], 0, geom[1]))
                 for string in xychain._STRINGS]
        size = max(len(a) for a, _, _ in lists)
        assert index.shape[-1] == size and len(index) < len(lists)
        padded = np.array([_wick_index(a, b, size, rmax) for a, b, _ in lists])
        gv = correlators(ModelParams(1.1, 0.5, 41), rmax)
        assert np.array_equal(_wick_dets(gv, [index])[order], _wick_dets(gv, [padded]))

    def test_groups_close_past_19_matrices(self):
        # sizes run from the largest down; every group but the last closes
        # once it holds more than 19 matrices, so one geometry is one group
        _, (stacks, _, _, _) = verify_table(13)
        sizes = [index.shape[-1] for index in stacks]
        assert sizes == sorted(sizes, reverse=True)
        assert all(len(index) > 19 for index in stacks[:-1])
        assert len(xychain._wick_table(((4, 3),))[0]) == 1


def pair_state(distance, params):
    """Two-spin reduced matrix at the given separation, as a marginal of rdm3."""
    rho3 = rdm3(SpinGeometry(distance, 1), params)
    return partial_trace(rho3.matrix, rho3.dims, keep=[0, 1])[0]


class TestRdm2:
    def test_free_field(self):
        rho = pair_state(1, ModelParams(0.0, 0.5))
        expect = np.zeros((4, 4))
        expect[3, 3] = 1.0
        assert np.max(np.abs(rho - expect)) < 1e-12

    def test_marginal_independent_of_third_site(self):
        params = ModelParams(1.1, 0.7)
        base = pair_state(2, params)
        for beta in (1, 2, 3, 4):
            rho3 = rdm3(SpinGeometry(2, beta), params)
            marg, _ = partial_trace(rho3.matrix, rho3.dims, keep=[0, 1])
            assert np.max(np.abs(marg - base)) < 1e-12


class TestFactorization:
    def test_point_values(self):
        assert abs(factorization_lambda(0.2) - 1.0206) < 1e-4
        assert abs(factorization_lambda(0.8) - 5.0 / 3.0) < 1e-12
        assert abs(factorization_lambda(1e-6) - 1.0) < 1e-9

    def test_boundaries_rejected(self):
        for gamma in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                factorization_lambda(gamma)

    def test_pair_overlap(self):
        L, gamma = 9, 0.5
        even, odd = factorized_pair(L, gamma)
        assert abs(np.linalg.norm(even) - 1.0) < 1e-12
        assert abs(np.linalg.norm(odd) - 1.0) < 1e-12
        # overlap of the two product components is cos(theta)^L
        cos_theta = np.sqrt((1 - gamma) / (1 + gamma))
        n_p = np.sqrt(2 * (1 + cos_theta**L))
        n_m = np.sqrt(2 * (1 - cos_theta**L))
        phi_p = (n_p * even + n_m * odd) / 2.0
        phi_m = (n_p * even - n_m * odd) / 2.0
        overlap = np.real(phi_p.conj() @ phi_m)
        assert abs(overlap - cos_theta**L) < 1e-10

    def test_orthogonal_at_large_gamma(self):
        even, odd = factorized_pair(9, 0.999999)
        cos_theta = np.sqrt((1 - 0.999999) / (1 + 0.999999))
        assert cos_theta**9 < 1e-25  # phi_+ and phi_- essentially orthogonal

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            factorized_pair(8, 0.5)
        with pytest.raises(ValueError):
            factorized_pair(17, 0.5)
