import json
import os
import subprocess
import sys

import numpy as np
import pytest

from xymqc import cli, edsim, measures, xychain

ENV = dict(os.environ, SOURCE_DATE_EPOCH="1700000000")
GEOM = ["--alpha", "1", "--beta", "1", "--gamma", "0.5", "--infinite"]


def run_cli(args, env=ENV, **kw):
    return subprocess.run(
        [sys.executable, "-m", "xymqc.cli", *args],
        capture_output=True, text=True, env=env, **kw,
    )


class TestUsage:
    def test_missing_required_flag_exits_2(self):
        res = run_cli(["rdm", "--alpha", "1", "--beta", "1", "--gamma", "1"])
        assert res.returncode == 2

    def test_even_length_rejected(self):
        res = run_cli(["rdm", "--alpha", "1", "--beta", "1", "--lambda", "1",
                       "--gamma", "1", "--L", "10"])
        assert res.returncode == 2
        assert "odd" in res.stderr

    def test_chain_must_be_explicit(self):
        res = run_cli(["rdm", "--alpha", "1", "--beta", "1", "--lambda", "1",
                       "--gamma", "1"])
        assert res.returncode == 2
        assert "--infinite" in res.stderr

    def test_infinite_and_length_conflict(self):
        res = run_cli(["rdm", "--alpha", "1", "--beta", "1", "--lambda", "1",
                       "--gamma", "1", "--L", "9", "--infinite"])
        assert res.returncode == 2

    def test_invalid_geometry(self):
        res = run_cli(["rdm", "--alpha", "5", "--beta", "4", "--lambda", "1",
                       "--gamma", "1", "--L", "9"])
        assert res.returncode == 2
        assert "alpha+beta" in res.stderr

    def test_non_finite_lambda_rejected(self):
        for lam in ("nan", "inf"):
            assert cli.main(["rdm", "--alpha", "1", "--beta", "1", "--lambda", lam,
                             "--gamma", "0.5", "--infinite"]) == cli.EXIT_USAGE

    def test_fit_requires_explicit_chain(self):
        res = run_cli(["fit", "--measure", "n3", "--alpha", "1", "--beta", "1",
                       "--gamma", "0.5"])
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", *GEOM, "--step", "0"],
        ["sweep", *GEOM, "--lambda-min", "1.2", "--lambda-max", "0.8"],
        ["boundscan", *GEOM, "--lambda-min", "1.2", "--lambda-max", "0.8"],
        ["fit", "--measure", "n3", *GEOM, "--step", "0"],
        ["factorize", *GEOM, "--step", "0"],
        ["sweep", *GEOM, "--lambda-min", "0.5", "--lambda-max", "0.5",
         "--no-sdp", "--workers", "0"],
        ["verify", "--L", "9", "--lambda", "-1", "--gamma", "0.5"],
        ["verify", "--L", "9", "--lambda", "0.5", "--gamma", "2"],
        ["verify", "--L", "9", "--lambda", "0.5", "--gamma", "0.5", "--tolerance", "nan"],
        ["verify", "--L", "9", "--lambda", "0.5", "--gamma", "0.5", "--tolerance", "-1"],
        ["boundscan", *GEOM, "--tau-threshold", "nan"],
        ["fit", "--measure", "n3", *GEOM, "--window-min", "-0.01"],
        ["factorize", "--alpha", "1", "--beta", "1", "--gamma", "1", "--infinite"],
        ["factorize", "--alpha", "1", "--beta", "1", "--gamma", "0", "--infinite"],
        ["verify", "--L", "15", "--lambda", "0.5", "--gamma", "0.5"],
    ], ids=["sweep-step-0", "sweep-reversed", "boundscan-reversed", "fit-step-0",
            "factorize-step-0", "workers-0", "verify-negative-lambda",
            "verify-gamma-2", "verify-tolerance-nan", "verify-tolerance-negative",
            "boundscan-tau-threshold-nan", "fit-window-min-negative",
            "factorize-gamma-1", "factorize-gamma-0", "verify-L-15"])
    def test_bad_value_is_one_usage_error(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")

    def test_verify_length_error_names_the_ed_lengths(self, capsys):
        assert cli.main(["verify", "--L", "15", "--lambda", "0.5",
                         "--gamma", "0.5"]) == cli.EXIT_USAGE
        assert str(edsim.LENGTHS) in capsys.readouterr().err


class TestRdm:
    def test_free_field_projector(self):
        res = run_cli(["rdm", "--alpha", "1", "--beta", "1", "--lambda", "0",
                       "--gamma", "1", "--infinite"])
        assert res.returncode == 0
        rows = [l for l in res.stdout.splitlines() if l and not l.startswith("#")
                and not l.startswith("eigenvalues")]
        matrix = np.array([[float(x) for x in row.split()] for row in rows])
        expect = np.zeros((8, 8))
        expect[7, 7] = 1.0
        assert np.max(np.abs(matrix - expect)) < 1e-9

    def test_provenance_header(self):
        res = run_cli(["rdm", "--alpha", "2", "--beta", "1", "--lambda", "0.5",
                       "--gamma", "0.7", "--L", "11"])
        assert res.returncode == 0
        assert "# xymqc" in res.stdout
        assert "# config" in res.stdout
        assert "g_r:" in res.stdout
        assert "lambda=0.5" in res.stdout


class TestSweep:
    def test_csv_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--alpha", "1", "--beta", "1", "--gamma", "1",
                "--infinite", "--lambda-min", "0.4", "--lambda-max", "0.6",
                "--step", "0.1"]
        assert run_cli(args + ["--output", str(out1)]).returncode == 0
        assert run_cli(args + ["--output", str(out2)]).returncode == 0
        text1, text2 = out1.read_text(), out2.read_text()
        assert text1 == text2  # bit-identical reruns
        lines = [l for l in text1.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["lambda", "gamma", "alpha", "beta", "L", "n3", "t3",
                          "tau_ub", "tau_lb", "neg_i", "neg_j", "neg_k",
                          "c_alpha", "status"]
        assert len(lines) == 4  # header + 3 grid rows
        row = lines[1].split(",")
        assert row[4] == "inf"
        assert row[-1] == "ok"

    def test_no_sdp_leaves_tau_ub_empty(self, tmp_path):
        out = tmp_path / "c.csv"
        res = run_cli(["sweep", "--alpha", "1", "--beta", "1", "--gamma", "0.5",
                       "--L", "9", "--lambda-min", "0.5", "--lambda-max", "0.5",
                       "--step", "0.1", "--no-sdp", "--output", str(out)])
        assert res.returncode == 0
        row = [l for l in out.read_text().splitlines()
               if not l.startswith("#")][1].split(",")
        assert row[7] == ""  # tau_ub column empty without the SDP

    def test_unwritable_path_exits_3(self):
        res = run_cli(["sweep", "--alpha", "1", "--beta", "1", "--gamma", "1",
                       "--infinite", "--lambda-min", "0.5", "--lambda-max", "0.5",
                       "--step", "0.1", "--output", "/nonexistent-dir/x.csv"])
        assert res.returncode == 3


RDM = ["rdm", "--alpha", "1", "--beta", "1", "--lambda", "0.8", "--gamma", "0.5",
       "--infinite"]


class TestOutputFile:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        # the mode a plain open(path, "w") gives, not the temp file's 0600
        out = tmp_path / "rho.txt"
        assert run_cli([*RDM, "--output", str(out)], umask=umask).returncode == 0
        assert out.stat().st_mode & 0o777 == mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        assert cli.main([*RDM, "--output", str(target)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("io error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list(target.iterdir()) == []


class TestFactorize:
    def test_detects_lambda_f(self):
        res = run_cli(["factorize", "--gamma", "0.2", "--measure", "n3",
                       "--alpha", "1", "--beta", "1", "--infinite"])
        assert res.returncode == 0
        assert "1.0206" in res.stdout

    def test_non_indicator_measure_rejected_by_parser(self):
        res = run_cli(["factorize", "--gamma", "0.2", "--measure", "t3",
                       "--alpha", "1", "--beta", "1", "--infinite"])
        assert res.returncode == 2  # not in the allowed choices


class TestVerify:
    def test_pass(self):
        res = run_cli(["verify", "--L", "9", "--lambda", "0.7", "--gamma", "1"])
        assert res.returncode == 0
        assert "PASS" in res.stdout
        assert "worst rdm3 deviation" in res.stdout

    def test_ordered_phase_anisotropic(self):
        res = run_cli(["verify", "--L", "9", "--lambda", "2.0", "--gamma", "0.5"])
        assert res.returncode == 0
        assert "PASS" in res.stdout

    def test_impossible_tolerance_fails(self):
        res = run_cli(["verify", "--L", "5", "--lambda", "0.7", "--gamma", "1",
                       "--tolerance", "1e-30"])
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_zero_deviation_names_a_geometry(self, monkeypatch, capsys):
        # ED states equal to the analytic ones: every deviation is exactly 0.
        # verify takes the ED states of alpha > beta as mirror images, so the
        # analytic stack holds mirror images there too
        analytic = {}

        def mirror_even(geoms, params):
            stack = xychain.rdm3_many(geoms, params).copy()
            index = {(g.alpha, g.beta): k for k, g in enumerate(geoms)}
            for (a, b), k in index.items():
                if a > b:
                    stack[k] = stack[index[b, a]].reshape(64)[measures._MIRROR].reshape(8, 8)
            analytic.update(zip(index, stack))
            return stack

        def traced(state, site_lists, length):
            traced.geoms = [(a, span - a) for _, a, span in site_lists]
            return np.stack([analytic[geom] for geom in traced.geoms])

        monkeypatch.setattr(cli, "rdm3_many", mirror_even)
        monkeypatch.setattr(edsim, "reduced_states", traced)
        assert cli.main(["verify", "--L", "7", "--lambda", "0.7", "--gamma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "worst rdm3 deviation  0.000e+00 at m=(1, 1)" in out
        assert "verify: PASS" in out
        # 9 of the 15 geometries at L = 7 have alpha <= beta
        assert len(traced.geoms) == 9 and all(a <= b for a, b in traced.geoms)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_degenerate_reference_level_is_a_compute_error(self, threads):
        # at gamma = 0, 1 + lambda cos(2 pi 3/9) = 0 is a zero mode, so the
        # sector's two lowest levels coincide and its state is not unique;
        # before, the verdict followed whichever vector `eigh` returned
        env = dict(ENV, OPENBLAS_NUM_THREADS=threads)
        res = run_cli(["verify", "--L", "9", "--lambda", "2.0", "--gamma", "0.0"], env=env)
        assert res.returncode == cli.EXIT_COMPUTE
        assert res.stderr.startswith("error: ") and "degenerate" in res.stderr
        assert "verify:" not in res.stdout
        res = run_cli(["verify", "--L", "9", "--lambda", "2.5", "--gamma", "0.0"], env=env)
        assert res.returncode == 0
        assert "verify: PASS" in res.stdout

    def test_one_correlators_and_one_det_call_per_size_group(self, monkeypatch, capsys):
        # one `det` per group of Wick-matrix sizes in the cached L = 11 table
        geoms = tuple((a, b) for a in range(1, 11) for b in range(1, 11 - a))
        groups = len(xychain._wick_table(geoms)[0])
        calls = {"det": 0, "correlators": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
        monkeypatch.setattr(xychain, "correlators",
                            counting("correlators", xychain.correlators))
        assert cli.main(["verify", "--L", "11", "--lambda", "0.7", "--gamma", "0.5"]) == 0
        assert "verify: PASS" in capsys.readouterr().out
        assert calls == {"det": groups, "correlators": 1}


class TestFidelityCmd:
    def test_reports_value(self):
        res = run_cli(["fidelity", "--alpha", "1", "--beta", "1",
                       "--lambda", "0.5", "--gamma", "0.5", "--L", "21"])
        assert res.returncode == 0
        val = float(res.stdout.split(") = ")[1].split(" at ")[0])
        assert 0.99 < val <= 1.0


class TestBoundscan:
    def test_json_output(self, tmp_path):
        out = tmp_path / "w.json"
        res = run_cli(["boundscan", "--gamma", "0.5", "--alpha", "4", "--beta", "4",
                       "--infinite", "--lambda-min", "0.95", "--lambda-max", "1.05",
                       "--step", "0.01", "--output", str(out)])
        assert res.returncode == 0
        body = "\n".join(l for l in out.read_text().splitlines()
                         if not l.startswith("#"))
        windows = json.loads(body)
        assert len(windows) == 1
        assert windows[0]["max_tau_ub"] > 1e-6


class TestConfigRoundTrip:
    def test_canonical_config_is_stable(self):
        parser = cli.build_parser()
        args = parser.parse_args(["sweep", "--alpha", "1", "--beta", "2",
                                  "--gamma", "0.3", "--infinite"])
        c1 = cli._canonical_config(args)
        args2 = parser.parse_args(["sweep", "--gamma", "0.3", "--beta", "2",
                                   "--alpha", "1", "--infinite"])
        assert c1 == cli._canonical_config(args2)
        assert json.loads(c1)["alpha"] == 1

    def test_shared_parser_keeps_no_state_between_calls(self, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        setup = cli._setup

        def record(args, *grid):
            seen.append(vars(args).copy())
            return setup(args, *grid)

        monkeypatch.setattr(cli, "_setup", record)
        sweep = ["sweep", "--alpha", "1", "--beta", "1", "--gamma", "0.5", "--infinite",
                 "--lambda-min", "0.5", "--lambda-max", "0.5"]
        verify = ["verify", "--L", "5", "--lambda", "0.7", "--gamma", "0.5"]
        for argv in (sweep + ["--no-sdp"], sweep, verify + ["--tolerance", "1e-3"], verify):
            assert cli.main(argv) == 0
        assert [args["no_sdp"] for args in seen[:2]] == [True, False]
        assert [args["tolerance"] for args in seen[2:]] == [1e-3, 1e-8]
        assert all("tolerance" not in args for args in seen[:2])
        assert all("no_sdp" not in args for args in seen[2:])


def json_keys(capsys):
    """Key order of the JSON document a command just printed; for a list,
    that of each of its objects."""
    body = "\n".join(l for l in capsys.readouterr().out.splitlines()
                     if not l.startswith("#"))
    payload, _ = json.JSONDecoder().raw_decode(body)
    return [list(p) for p in payload] if isinstance(payload, list) else list(payload)


class TestJsonSchema:
    # each document is the command's identity fields followed by the fields
    # of its analysis record: FitResult, FactorizationDetection, BoundWindow
    IDENTITY = ["measure", "gamma", "alpha", "beta"]

    def test_fit_keys(self, capsys):
        assert cli.main(["fit", "--measure", "n3", "--alpha", "2", "--beta", "1",
                         "--gamma", "1", "--L", "41", "--step", "1e-3"]) == 0
        assert json_keys(capsys) == [
            *self.IDENTITY, "L", "slope", "intercept", "rms_residual", "window",
            "n_points", "r_squared",
        ]

    def test_factorize_keys(self, capsys):
        assert cli.main(["factorize", "--measure", "n3", "--alpha", "1", "--beta", "1",
                         "--gamma", "0.5", "--infinite"]) == 0
        assert json_keys(capsys) == [
            *self.IDENTITY, "lambda_detected", "dip_value", "lambda_f_analytic",
            "deviation",
        ]

    def test_boundscan_keys(self, capsys):
        assert cli.main(["boundscan", "--gamma", "0.5", "--alpha", "4", "--beta", "4",
                         "--infinite", "--lambda-min", "0.95", "--lambda-max", "1.05",
                         "--step", "0.01"]) == 0
        assert json_keys(capsys) == [
            ["lo", "hi", "max_tau_ub", "min_tau_ub", "max_neg_outer"],
        ]


class TestFit:
    def test_log_divergence_fit_end_to_end(self, tmp_path):
        out = tmp_path / "fit.json"
        res = run_cli(["fit", "--measure", "n3", "--alpha", "2", "--beta", "1",
                       "--gamma", "1", "--infinite", "--output", str(out)])
        assert res.returncode == 0
        body = "\n".join(l for l in out.read_text().splitlines()
                         if not l.startswith("#"))
        payload = json.loads(body)
        assert 0.15 < payload["slope"] < 0.25
        assert payload["n_points"] >= 5
