import math
import struct
import warnings

import numpy as np
import pytest

from gevrey_evp import combinatorics
from gevrey_evp.cli import main
from gevrey_evp.harness import (
    _EXPERIMENTS,
    ConfigError,
    emit_csv,
    emit_svg,
    fit_rate,
    parse_config,
)
from support import read_csv


class TestParseConfig:
    def test_minimal_gl_study_defaults(self):
        cfg = parse_config("[gl-study]\nmodel = gl-analytic\n")
        assert cfg.experiment == "gl-study"
        assert cfg["m"] == 64
        assert cfg["n_star"] == 40
        assert cfg["out"] == "gl_study.csv"

    def test_range_violation_names_precondition(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[gl-study]\nmodel = gl-analytic\nm = 0\n")
        assert any("m must be >= 2" in v for v in err.value.violations)

    def test_duplicate_key_reports_both_lines(self):
        text = "[gl-study]\nmodel = gl-analytic\nm = 8\nm = 16\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = "; ".join(err.value.violations)
        assert "line 4" in msg and "line 3" in msg and "duplicate" in msg

    def test_all_violations_reported(self):
        text = "[gl-study]\nmodel = mystery\nm = zero\nwhat = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.violations) >= 3

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[warp-study]\nmodel = gl-analytic\n")
        assert any("unknown experiment" in v for v in err.value.violations)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[gl-study]\nm = 8\n")
        assert any("missing required key 'model'" in v for v in err.value.violations)

    def test_cross_check_n_star(self):
        text = "[gl-study]\nmodel = gl-analytic\nn_max = 50\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("n_star" in v for v in err.value.violations)

    def test_flags_override_lines_and_are_checked_alike(self):
        text = "[gl-study]\nmodel = gl-analytic\nm = 8\n"
        flags = {"command": "gl-study", "config": "run.cfg", "m": "16",
                 "tol": None, "svg": "e.svg"}
        cfg = parse_config(text, flags)
        assert (cfg["m"], cfg["tol"], cfg["svg"]) == (16, 1e-14, "e.svg")
        with pytest.raises(ConfigError) as err:
            parse_config(text, {"command": "gl-study", "m": "1", "n_star": "x"})
        assert err.value.violations == [
            "flag --m: m must be >= 2",
            "flag --n-star: invalid literal for int() with base 10: 'x'",
        ]

    def test_flags_name_the_experiment(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[cbc]\ns = 4\n", {"command": "gl-study"})
        assert err.value.violations == ["config is for [cbc], command is gl-study"]

    def test_each_field_type(self):
        cfg = parse_config("[qmc-study]\nmodel = qmc-analytic\nlevels = 3..6\n"
                           "theta = 0.8\nwith_mc = no\nvectors = 'z_{n}.txt'\n")
        assert cfg["levels"] == (3, 6) and cfg["theta"] == 0.8
        assert cfg["with_mc"] is False and cfg["vectors"] == "z_{n}.txt"
        cfg = parse_config("[trunc-study]\nmodel = qmc-analytic\ns_list = 1, 3,5\n")
        assert cfg["s_list"] == (1, 3, 5)
        cfg = parse_config("[solve-evp]\nmodel = gl-analytic\ny = 0.25,-0.5\n"
                           "second = TRUE\n")
        assert cfg["y"] == (0.25, -0.5) and cfg["second"] is True
        with pytest.raises(ConfigError) as err:
            parse_config("[qmc-study]\nmodel = qmc-analytic\nlevels = 3\n"
                         "with_mc = maybe\ns_list = 1\n")
        assert err.value.violations == [
            "line 3: expected 'lo..hi', got '3'",
            "line 4: expected true/false, got 'maybe'",
            "line 5: unknown key 's_list' for [qmc-study]",
        ]

    def test_minimal_config_of_every_experiment(self):
        minimal = {
            "gl-study": "model = gl-analytic",
            "qmc-study": "model = qmc-analytic",
            "mc-study": "model = qmc-gevrey2",
            "trunc-study": "model = qmc-analytic",
            "checks": "which = combinatorics",
            "solve-evp": "model = gl-analytic",
            "cbc": "s = 4",
        }
        assert set(minimal) == set(_EXPERIMENTS)
        for section, body in minimal.items():
            cfg = parse_config(f"[{section}]\n{body}\n")
            assert cfg.experiment == section
            assert set(cfg.fields) == set(_EXPERIMENTS[section])

    def test_single_key_rules_are_tagged(self):
        text = "[trunc-study]\nmodel = qmc-analytic\ns_list = 4,2\ntheta = 0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text, {"command": "trunc-study", "theta": "1.5"})
        assert err.value.violations == [
            "line 3: s_list must be nonempty ascending",
            "line 4: theta must lie in (1/2, 1]",
            "flag --theta: theta must lie in (1/2, 1]",
        ]
        with pytest.raises(ConfigError) as err:
            parse_config("[mc-study]\nmodel = constant\nlevels = 0..3\n")
        assert err.value.violations == ["line 3: levels 0..3 must satisfy 1 <= lo <= hi"]
        with pytest.raises(ConfigError) as err:
            parse_config("[trunc-study]\nmodel = qmc-analytic\ns_list = 1,16\n")
        assert err.value.violations == ["ref_s = 16 must exceed max(s_list) = 16"]
        with pytest.raises(ConfigError) as err:
            parse_config("[trunc-study]\nmodel = qmc-analytic\ns_list = -1,2\n")
        assert err.value.violations == ["line 3: s_list entries must be >= 0, got -1"]
        with pytest.raises(ConfigError) as err:
            parse_config("[checks]\nwhich = nonsense\n")
        assert err.value.violations == [
            "line 2: which must be combinatorics or gevrey, got 'nonsense'"]
        assert parse_config("[trunc-study]\nmodel = qmc-analytic\ns_list = 0,2\n")[
            "s_list"] == (0, 2)


class TestFitRate:
    def test_exact_semilog(self):
        records = [(n, math.exp(-2.0 * n)) for n in range(1, 9)]
        fit = fit_rate(records, "log-vs-n")
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_cuberoot(self):
        records = [(n, math.exp(-1.5 * n ** (1 / 3))) for n in (1, 8, 27, 64, 125)]
        fit = fit_rate(records, "log-vs-cuberoot-n")
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_loglog(self):
        records = [(n, 3.0 / n) for n in (2, 4, 8, 16, 32)]
        fit = fit_rate(records, "loglog")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        records = [(n, float(np.exp(-0.7 * n) * rng.uniform(0.5, 2.0)))
                   for n in range(2, 12)]
        base = fit_rate(records, "log-vs-n")
        scaled = fit_rate([(n, 10.0 * e) for n, e in records], "log-vs-n")
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
        assert scaled.intercept == pytest.approx(base.intercept + math.log(10.0),
                                                 abs=1e-12)

    def test_needs_four_positive(self):
        with pytest.raises(ValueError):
            fit_rate([(1, 0.1), (2, 0.0), (3, 0.01), (4, -1.0)], "log-vs-n")

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            fit_rate([(1, 1.0)] * 5, "sqrt")


class TestCsvSvg:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, ["n", "error"])
        assert path.read_text() == "n,error\n"

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        records = [(3, 0.1 + 0.2), (4, 1e-17), (5, math.pi)]
        emit_csv(records, path, ["n", "error"], metadata={"model": "gl-analytic"})
        meta, cols, rows = read_csv(path)
        assert meta == {"model": "gl-analytic"}
        assert cols == ["n", "error"]
        assert rows == records

    def test_svg_requires_records(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], None, tmp_path / "x.svg", "log-vs-n")

    def test_svg_of_zero_errors_is_a_note(self, tmp_path):
        path = tmp_path / "zero.svg"
        emit_svg([(2, 0.0), (4, 0.0)], None, path, "loglog", title="flat")
        text = path.read_text()
        assert "<rect" in text and "flat [loglog]" in text
        assert "no positive error to plot" in text and "polyline" not in text

    def test_svg_without_fit(self, tmp_path):
        path = tmp_path / "two.svg"
        emit_svg([(1, 0.5), (2, 0.1)], None, path, "log-vs-n")
        text = path.read_text()
        assert "<svg" in text and "polyline" in text
        assert "slope" not in text

    def test_svg_with_fit(self, tmp_path):
        records = [(n, math.exp(-n)) for n in range(1, 8)]
        fit = fit_rate(records, "log-vs-n")
        path = tmp_path / "fit.svg"
        emit_svg(records, fit, path, "log-vs-n")
        assert "slope" in path.read_text()


class TestCli:
    def test_checks_combinatorics_passes(self, capsys):
        code = main(["checks", "combinatorics", "--n-max", "25", "--nu-max", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_checks_combinatorics_reports_a_broken_identity(self, monkeypatch, capsys):
        true_sum = combinatorics.binomial_ff_sum
        monkeypatch.setattr(combinatorics, "binomial_ff_sum",
                            lambda n, variant="inner": true_sum(n, variant) + 1)
        code = main(["checks", "combinatorics", "--n-max", "10", "--nu-max", "3"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(rows) == 6
        assert [r for r in rows if not r.startswith("PASS")] == [
            "FAIL  binomial ff sums equal {2,3,4} ff_half, n = 2..10"
        ]

    def test_solve_evp_prints_lambda(self, capsys):
        code = main(["solve-evp", "--model", "constant", "--m", "8",
                     "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda1 = " in out

    def test_solve_evp_second_and_dump(self, tmp_path, capsys):
        vec = tmp_path / "u.bin"
        code = main([
            "solve-evp", "--model", "constant", "--m", "6", "--tol", "1e-10",
            "--second", "--dump", str(vec), "--dump-matrix", str(tmp_path / "mat"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda2 = " in out
        blob = vec.read_bytes()
        assert blob[:8] == b"GEVREVP\x00"
        (n_dof,) = struct.unpack("<Q", blob[8:16])
        assert n_dof == 25
        values = np.frombuffer(blob[16:], dtype="<f8")
        assert values.size == 25
        assert (tmp_path / "mat.A.mtx").exists()
        assert (tmp_path / "mat.M.mtx").exists()

    def test_solve_evp_second_below_rounding_floor(self, capsys):
        # no tol reaches 10 * tol * lambda at 1e-20; both solves still return
        code = main(["solve-evp", "--model", "gl-analytic", "--m", "8",
                     "--y", "0.25", "--tol", "1e-20", "--second"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda2 = " in out

    def test_validation_exit_code(self, tmp_path, capsys):
        assert main(["gl-study", "--model", "not-a-model"]) == 1
        assert main(["solve-evp", "--model", "gl-analytic", "--m", "1"]) == 1
        # a NaN parameter is bad input, not a numerical failure (exit 2)
        assert main(["solve-evp", "--model", "qmc-analytic", "--m", "8", "--y", "nan"]) == 1
        assert "must be finite" in capsys.readouterr().err
        # a value that does not parse is a validation error too, not exit 2
        assert main(["solve-evp", "--model", "gl-analytic", "--m", "abc"]) == 1
        assert "config error: flag --m: " in capsys.readouterr().err
        assert main(["gl-study", "--model", "gl-analytic", "--tol", "x"]) == 1
        assert "config error: flag --tol: " in capsys.readouterr().err
        # a tol outside (0, 1) is refused before any solve
        assert main(["solve-evp", "--model", "gl-analytic", "--m", "4", "--tol", "inf"]) == 1
        assert capsys.readouterr().err == (
            "config error: flag --tol: tol must be positive and below 1\n")
        # a negative truncation dimension would zero only the last parameters
        assert main(["trunc-study", "--model", "qmc-analytic", "--m", "4",
                     "--s-list=-1,2", "--ref-s", "4", "--level", "3",
                     "--shifts", "2", "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "config error: flag --s-list: s_list entries must be >= 0, got -1\n")
        assert not (tmp_path / "t.csv").exists()
        # delta is 0 (the model's Gevrey order) or a finite value >= 1
        for argv in (["trunc-study", "--model", "qmc-analytic", "--delta=-1"],
                     ["qmc-study", "--model", "qmc-analytic", "--delta", "nan"],
                     ["qmc-study", "--model", "qmc-analytic", "--delta", "0.5"],
                     ["trunc-study", "--model", "qmc-analytic", "--delta", "inf"]):
            assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 1
            assert capsys.readouterr().err == (
                "config error: flag --delta: delta must be 0 (the model's Gevrey order)"
                " or a finite value >= 1\n")
        assert not (tmp_path / "d.csv").exists()
        # cbc has no model order to fall back on: a finite delta >= 1
        assert main(["cbc", "--s", "4", "--n", "16", "--delta", "inf",
                     "--out", str(tmp_path / "z.txt")]) == 1
        assert capsys.readouterr().err == (
            "config error: flag --delta: delta must be a finite value >= 1\n")
        assert not (tmp_path / "z.txt").exists()
        # usage errors are validation errors too: usage, message, exit 1
        for argv in (["cbc", "--no-such"], ["checks", "nonsense"],
                     ["gl-study", "--model", "gl-analytic", "--m"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: gevrey-evp")
            assert "config error: gevrey-evp" in err
        # one theta rule, (1/2, 1], for every experiment with POD weights
        assert main(["cbc", "--s", "4", "--n", "16", "--theta", "1.0",
                     "--out", str(tmp_path / "z.txt")]) == 0
        capsys.readouterr()
        for argv in (["cbc"], ["qmc-study", "--model", "qmc-analytic"],
                     ["trunc-study", "--model", "qmc-analytic"]):
            assert main(argv + ["--theta", "0.3"]) == 1
            assert capsys.readouterr().err == (
                "config error: flag --theta: theta must lie in (1/2, 1]\n")
        # the config refuses theta below the weights' floor, so no run fails later
        assert main(["cbc", "--s", "4", "--n", "16", "--theta", "0.5000001"]) == 1
        assert capsys.readouterr().err == (
            "config error: flag --theta: theta must be at least 0.500001 "
            "(zeta pole at 1/2)\n")

    def test_bad_required_line_reported_once(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[gl-study]\nmodel = mystery\nm = 8\n")
        assert main(["gl-study", "--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == (
            "config error: line 2: unknown model 'mystery'\n")

    def test_config_file_with_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[gl-study]\nmodel = constant\nm = 4\nn_min = 1\nn_max = 3\n"
            f"n_star = 5\nout = {tmp_path}/a.csv\n"
        )
        code = main(["gl-study", "--config", str(cfgfile),
                     "--out", str(tmp_path / "b.csv")])
        assert code == 0
        assert (tmp_path / "b.csv").exists()
        assert not (tmp_path / "a.csv").exists()

    def test_cbc_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "vec.txt"
        code = main(["cbc", "--s", "3", "--n", "16", "--delta", "1",
                     "--theta", "0.8", "--beta", "j^-2", "--out", str(out)])
        assert code == 0
        from gevrey_evp.qmc import load_vector

        z, s, n = load_vector(out)
        assert (s, n) == (3, 16)
        assert len(z) == 3

    def test_weights_past_float_range_are_bad_input(self, tmp_path, capsys):
        # an order weight that overflows, or products of finite factors that do:
        # exit 1 with one message line, and no output file
        out = str(tmp_path / "out.txt")
        for argv, msg in (
            (["cbc", "--s", "40", "--n", "16", "--delta", "50"],
             "POD order weight (9!)^62.5 overflows a float (delta = 50.0, theta = 0.6)"),
            (["qmc-study", "--model", "qmc-analytic", "--m", "4", "--s", "4",
              "--levels", "1..2", "--shifts", "2", "--mc-shifts", "2", "--delta", "1e308"],
             "POD order weight (2!)^1.25e+308 overflows a float (delta = 1e+308, theta = 0.6)"),
            (["cbc", "--s", "4", "--n", "16", "--theta", "1", "--beta", "1e300*j^-1"],
             "worst-case error is not finite from dimension 2 on: "
             "the POD weights overflow a float"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's overflow warnings are not output
                assert main(argv + ["--out", out]) == 1
            assert capsys.readouterr().err == f"invalid input: {msg}\n"
            assert not (tmp_path / "out.txt").exists()

    def test_gl_study_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            code = main(["gl-study", "--model", "constant", "--m", "4",
                         "--n-min", "1", "--n-max", "4", "--n-star", "6",
                         "--out", str(path), "--svg", str(path) + ".svg"])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_qmc_study_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("q1.csv", "q2.csv"):
            path = tmp_path / name
            code = main(["qmc-study", "--model", "constant", "--m", "4",
                         "--s", "2", "--levels", "2..4", "--shifts", "2",
                         "--mc-shifts", "2", "--seed", "31", "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_qmc_study_names_its_vectors(self, tmp_path, capsys):
        from gevrey_evp.qmc import save_vector

        run = ["qmc-study", "--model", "qmc-analytic", "--m", "4", "--s", "3",
               "--levels", "1..2", "--shifts", "2", "--mc-shifts", "2"]
        rule = ["--beta", "0.5*j^-2", "--delta", "2.5", "--theta", "0.9"]
        for n in (2, 4):
            save_vector(tmp_path / f"z{n}.txt", np.ones(3, dtype=np.int64), 3, n)
        for extra, line in (
            ([], "cbc(delta=1.0,theta=0.6,beta=j^-5)"),  # the model's delta 1
            (rule, "cbc(delta=2.5,theta=0.9,beta=0.5*j^-2)"),
            (["--vectors", str(tmp_path / "z{n}.txt")], "supplied"),
        ):
            out = tmp_path / "q.csv"
            assert main(run + extra + ["--out", str(out)]) == 0
            assert f"# vectors = {line}\n" in out.read_text()

    def test_study_metadata_blocks(self, tmp_path, capsys):
        # the '# key = value' block and the header row, in order, per study
        runs = (
            (["gl-study", "--model", "constant", "--m", "4", "--n-min", "1",
              "--n-max", "4", "--n-star", "6"],
             ["experiment = gl-study", "model = constant", "m = 4", "n_star = 6",
              "tol = 1e-14"], "n,error"),
            (["qmc-study", "--model", "qmc-analytic", "--m", "4", "--s", "3",
              "--levels", "1..2", "--shifts", "2", "--mc-shifts", "2"],
             ["experiment = qmc-study", "model = qmc-analytic", "m = 4", "s = 3",
              "shifts = 2", "mc_shifts = 2", "seed = 7193",
              "vectors = cbc(delta=1.0,theta=0.6,beta=j^-5)"], "n,rmse_qmc,rmse_mc"),
            (["mc-study", "--model", "constant", "--m", "4", "--s", "2",
              "--levels", "1..2", "--shifts", "2", "--seed", "3"],
             ["experiment = mc-study", "model = constant", "m = 4", "s = 2",
              "shifts = 2", "seed = 3"], "n,rmse_mc"),
            (["trunc-study", "--model", "qmc-analytic", "--m", "4", "--s-list",
              "0,1,2", "--ref-s", "4", "--level", "3", "--shifts", "2"],
             ["experiment = trunc-study", "model = qmc-analytic", "m = 4",
              "ref_s = 4", "n = 8", "seed = 7193"], "s,error"),
        )
        for argv, meta, header in runs:
            out = tmp_path / "study.csv"
            assert main(argv + ["--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[: len(meta) + 1] == [f"# {kv}" for kv in meta] + [header]

    def test_checks_gevrey_runs_reduced(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        code = main(["checks", "gevrey", "--model", "gl-analytic", "--m", "6",
                     "--K", "8", "--quad-n", "20", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "best delta" in text
        assert out.exists()

    def test_trunc_study_reduced(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["trunc-study", "--model", "qmc-analytic", "--m", "4",
                     "--s-list", "1,2", "--ref-s", "4", "--level", "3",
                     "--shifts", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        meta, cols, rows = read_csv(out)
        assert cols == ["s", "error"]
        assert len(rows) == 2

    def test_custom_model_from_table_file(self, tmp_path, capsys):
        table = tmp_path / "series.txt"
        table.write_text("1 0.4\n2 0.1\n")
        out = tmp_path / "c.csv"
        code = main(["gl-study", "--model", f"custom:{table}", "--m", "4",
                     "--n-min", "1", "--n-max", "3", "--n-star", "5",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_bad_custom_table_line_exits_1(self, tmp_path, capsys):
        table = tmp_path / "series.txt"
        table.write_text("1 0.4\n2 nan\n")
        code = main(["solve-evp", "--model", f"custom:{table}", "--m", "4", "--y", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {table}:2: expected 'index amplitude'")

    def test_bad_vector_line_exits_1(self, tmp_path, capsys):
        (tmp_path / "v4.txt").write_text("# 2 4\n1\nx\n")
        code = main(["qmc-study", "--model", "qmc-analytic", "--m", "4", "--s", "2",
                     "--levels", "2..2", "--shifts", "2", "--mc-shifts", "2",
                     "--vectors", str(tmp_path / "v{n}.txt"), "--out", str(tmp_path / "q.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"invalid input: {tmp_path / 'v4.txt'}:3: expected one integer component, got 'x'\n")
        assert not (tmp_path / "q.csv").exists()

    def test_custom_table_without_terms_exits_1(self, tmp_path, capsys):
        table = tmp_path / "series.txt"
        table.write_text("# nothing\n")
        code = main(["solve-evp", "--model", f"custom:{table}", "--m", "4", "--y", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {table}: no 'index amplitude' lines")

    def test_study_with_zero_errors_plots_a_note(self, tmp_path, capsys):
        # the constant model's lambda1 is the same at every point, so every
        # RMSE is exactly 0
        out, svg = tmp_path / "q.csv", tmp_path / "q.svg"
        code = main(["qmc-study", "--model", "constant", "--m", "4", "--s", "1",
                     "--levels", "1..2", "--shifts", "2", "--mc-shifts", "2",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(out)
        assert [row[1:] for row in rows] == [(0.0, 0.0), (0.0, 0.0)]
        text = svg.read_text()
        assert "constant QMC error [loglog]" in text
        assert "no positive error to plot" in text

    def test_mc_study_reduced(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = main(["mc-study", "--model", "constant", "--m", "4", "--s", "2",
                     "--levels", "2..3", "--shifts", "2", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
