"""End-to-end CLI runs: configs in, records out, exit codes as documented."""

import argparse
import json
from dataclasses import fields

import pytest

from latgas import cli, ensemble, functional, solver, transition

CONFIG = """\
[potential]
kind = power_plateau
r = 0.5
M = 10
periodic = true
d = 1

[solver]
grid = 64

[window]
xi = 0.3703
rho = 0.23
delta = 0.01
"""


@pytest.fixture()
def cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def run(args):
    return cli.main(args)


class TestLambda:
    def test_prints_and_writes(self, cfg, tmp_path, capsys):
        rc = run(["lambda", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "7"
        assert (tmp_path / "o" / "lambda.csv").read_text() == "lambda\n7\n"


class TestSolve:
    def test_on_curve(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert "branch=constant" in capsys.readouterr().out
        record = json.loads((out / "solve_result.json").read_text())
        assert record["schema_version"] == 1
        assert record["converged"] is True
        assert "created_unix" in record["meta"]
        csv = (out / "profile.csv").read_text()
        assert csv.splitlines()[0] == "cell_center,value"

    def test_infeasible_exit_code(self, cfg, tmp_path):
        rc = run(["solve", "--config", cfg, "--xi", "3.0", "--grid", "48",
                  "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_flag_overrides_config(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["solve", "--config", cfg, "--xi", "0.3503", "--out", str(out)])
        assert rc == 0
        assert "branch=unimodal" in capsys.readouterr().out


class TestScan:
    def test_constant_potential_refused(self, tmp_path, capsys):
        path = tmp_path / "const.cfg"
        path.write_text("[potential]\nkind = constant\nJ = 3.0\n")
        rc = run(["scan", "--config", str(path), "--rho", "0.23", "--deltas", "0.01"])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_no_negative_mode_refused(self, tmp_path, capsys):
        # r = 0.9: every lambda_k, k >= 1, is positive, so the curve point is not interior
        path = tmp_path / "steep.cfg"
        path.write_text("[potential]\nkind = power_plateau\nr = 0.9\nM = 10\n")
        rc = run(["scan", "--config", str(path), "--rho", "0.23", "--deltas", "0.01",
                  "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "infeasible: curve point not interior" in capsys.readouterr().err

    def test_tabulated_potential(self, tmp_path, capsys):
        path = tmp_path / "table.cfg"
        path.write_text("[potential]\nkind = tabulated\nsamples = 0:2;0.15:-1;0.3:1.5;0.5:0.2\n")
        rc = run(["scan", "--config", str(path), "--rho", "0.23", "--deltas", "0.002,0.005",
                  "--grid", "64", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "kink_ok=true" in capsys.readouterr().out

    def test_empty_deltas_is_usage_error(self, cfg):
        assert run(["scan", "--config", cfg, "--rho", "0.23", "--deltas", ""]) == 3

    def test_scan_outputs(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["scan", "--config", cfg, "--rho", "0.23", "--deltas", "0.01",
                  "--grid", "64", "--out", str(out)])
        assert rc == 0
        lines = (out / "scan.csv").read_text().strip().splitlines()
        assert lines[0] == "xi,S,branch,beta,mu,converged"
        assert len(lines) == 4
        summary = json.loads((out / "scan_summary.json").read_text())
        assert summary["kink_ok"] is True
        assert summary["schema_version"] == 1
        # the closed-form slopes of the kernel spectrum ride along in the record
        assert (summary["k_below"], summary["k_above"]) == (1, 3)
        assert summary["spectral_left"] > 0.0 > summary["spectral_right"]
        assert isinstance(summary["supercritical"], bool)


class TestSampleAndEnumerate:
    def test_sample_writes_stats(self, cfg, tmp_path):
        out = tmp_path / "o"
        rc = run(["sample", "--config", cfg, "--n", "32", "--steps", "2000",
                  "--chains", "1", "--seed", "5", "--delta", "0.05",
                  "--out", str(out)])
        assert rc == 0
        stats = json.loads((out / "mcmc_stats.json").read_text())
        assert stats["rng_name"] == "philox"
        assert stats["seed"] == 5
        assert stats["chain_acceptance"] == [stats["acceptance_rate"]]  # one chain
        assert (out / "mean_profile.csv").exists()

    def test_sample_empty_window_is_infeasible(self, cfg, tmp_path, capsys):
        # no configuration of 5 particles on 20 sites reaches this energy
        rc = run(["sample", "--config", cfg, "--n", "20", "--rho", "0.25", "--xi", "100",
                  "--delta", "1e-6", "--steps", "10", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "anneal" in capsys.readouterr().err

    def test_enumerate_record(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["enumerate", "--config", cfg, "--n", "12", "--xi", "0.4375",
                  "--rho", "0.25", "--delta", "0.05", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert (out / "enumeration.csv").read_text() == \
            "n,count,total,empirical_S\n" + printed + "\n"
        # criterion 9's window: the exact record
        assert printed == "12,40,4096,-0.385740559384"

    def test_enumerate_and_sample_share_the_slice(self, cfg, tmp_path, capsys):
        # (0.47 - 0.02) * 20 is 9.0 in floating point, so p = 9 is not in the
        # slice: the count leaves it out and the sampler refuses k = round(0.47 * 20)
        window = ["--config", cfg, "--n", "20", "--xi", "1.274", "--rho", "0.47",
                  "--delta", "0.02"]
        assert run(["enumerate", *window, "--out", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().out == "20,0,1048576,-inf\n"
        assert run(["sample", *window, "--steps", "10", "--out", str(tmp_path / "s")]) == 3
        assert "round(rho n) = 9" in capsys.readouterr().err


class TestFeasibilityAndEval:
    def test_feasibility(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run(["feasibility", "--config", cfg, "--rho", "0.25", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "xi1=0.333333333333" in text
        assert "interior" in text
        assert (out / "feasibility.csv").read_text() == \
            "xi1,xi2,xi3,interior\n0.333333333333,0.4375,0.548202260396,true\n"

    def test_feasibility_grid_check_failure_is_infeasible(self, tmp_path, capsys):
        # at r = 0.9 the closed forms miss the m = 2048 quadrature by 2.1e-3 > 2e-3
        path = tmp_path / "steep.cfg"
        path.write_text("[potential]\nkind = power_plateau\nr = 0.9\nM = 10\n")
        rc = run(["feasibility", "--config", str(path), "--rho", "0.23",
                  "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "infeasible: closed forms disagree" in capsys.readouterr().err

    def test_eval_record(self, cfg, tmp_path):
        profile = tmp_path / "four.csv"
        profile.write_text("cell_center,value\n0.125,0.1\n0.375,0.9\n0.625,0.5\n0.875,0.25\n")
        out = tmp_path / "o"
        assert run(["eval", "--config", cfg, "--profile", str(profile), "--out", str(out)]) == 0
        assert (out / "eval.csv").read_text() == "H,xi,N\n0.21673511257,1.2675,0.4375\n"

    def test_eval_roundtrip(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        rc = run(["eval", "--config", cfg, "--profile", str(out / "profile.csv"),
                  "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "xi=0.3703" in text
        assert "N=0.23" in text


class TestConfigErrors:
    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[potential]\nkind = power_plateau\nr = 0.5\nM\n")
        rc = run(["lambda", "--config", str(bad)])
        assert rc == 3
        assert "line 4" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(["lambda", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_missing_potential_section(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[solver]\ngrid = 64\n")
        assert run(["lambda", "--config", str(path)]) == 3

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "loose.cfg"
        path.write_text("kind = constant\n")
        assert run(["lambda", "--config", str(path)]) == 3

    def test_d2_potential_refused(self, tmp_path, capsys):
        path = tmp_path / "d2.cfg"
        path.write_text(CONFIG.replace("d = 1", "d = 2"))
        assert run(["lambda", "--config", str(path)]) == 3
        assert "one dimensional" in capsys.readouterr().err

    def test_misspelt_potential_key_refused(self, tmp_path, capsys):
        # a typo must not fall back to the default, here the periodic lambda = 7
        path = tmp_path / "typo.cfg"
        path.write_text(CONFIG.replace("periodic = true", "perodic = false"))
        assert run(["lambda", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "[potential]" in err and "perodic" in err

    @pytest.mark.parametrize("command", [
        ["lambda"],
        ["eval"],
        ["enumerate", "--n", "12"],
        ["sample", "--n", "32", "--steps", "200", "--seed", "1"],
    ], ids=["lambda", "eval", "enumerate", "sample"])
    def test_free_boundaries_refused(self, tmp_path, capsys, command):
        # boundaries are periodic only, so a config asking for free ones must not run
        path = tmp_path / "free.cfg"
        path.write_text(CONFIG.replace("periodic = true", "periodic = false"))
        if command == ["eval"]:
            profile = tmp_path / "profile.csv"
            profile.write_text(functional.profile_to_csv(functional.constant_profile(64, 0.23)))
            command = ["eval", "--profile", str(profile)]
        out = tmp_path / "o"
        assert run(command + ["--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "periodic" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("line, accepted", [
        ("periodic = true", True), ("periodic = 1", True), ("periodic = yes", True),
        ("", True), ("periodic = 0", False), ("periodic = no", False),
        ("periodic = False", False),
    ], ids=["true", "1", "yes", "omitted", "0", "no", "False"])
    def test_periodic_spellings(self, tmp_path, capsys, line, accepted):
        path = tmp_path / "periodic.cfg"
        path.write_text(CONFIG.replace("periodic = true", line))
        rc = run(["lambda", "--config", str(path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        if accepted:
            assert rc == 0 and captured.out.strip() == "7"
        else:
            assert rc == 3 and "periodic" in captured.err

    def test_removed_solver_key_refused(self, tmp_path, capsys):
        # the solver tolerances are constants, no longer [solver] keys
        path = tmp_path / "tol.cfg"
        path.write_text(CONFIG.replace("grid = 64", "grid = 64\nel_tol = 1e-10"))
        assert run(["solve", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "[solver]" in err and "el_tol" in err

    @pytest.mark.parametrize("old, new, name", [
        ("[solver]", "[solvr]", "[solvr]"),
        ("delta = 0.01", "delta = 0.01\nwidth = 3", "width"),
        ("[window]", "[run]\nsteps = 10\nseeds = 2\n\n[window]", "seeds"),
    ])
    def test_unknown_section_or_key_refused(self, tmp_path, capsys, old, new, name):
        path = tmp_path / "unknown.cfg"
        path.write_text(CONFIG.replace(old, new))
        assert run(["lambda", "--config", str(path)]) == 3
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, line", [
        ("M = 10", "M = 10\nM = 0.1", 5),
        ("delta = 0.01", "delta = 0.01\n\n[potential]\nM = 0.1", 17),
    ], ids=["same-section", "repeated-header"])
    def test_repeated_key_refused(self, tmp_path, capsys, old, new, line):
        # the last M would silently win: lambda 2.05 instead of 7
        path = tmp_path / "repeated.cfg"
        path.write_text(CONFIG.replace(old, new))
        assert run(["lambda", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and f"line {line}" in err and "[potential] M" in err

    @pytest.mark.parametrize("block", [
        "kind = power_plateau\nr = 0.5\nM = inf\n",
        "kind = tabulated\nsamples = 0:nan;1:1\n",
    ])
    def test_non_finite_potential_refused(self, tmp_path, capsys, block):
        path = tmp_path / "nonfinite.cfg"
        path.write_text("[potential]\n" + block)
        assert run(["lambda", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "bad [potential] section" in err and "finite" in err

    def test_unreadable_profile_is_config_error(self, cfg, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        header = tmp_path / "header.csv"
        header.write_text("not,a,profile\n1,2,3\n")
        row = tmp_path / "row.csv"
        row.write_text("cell_center,value\n0.25\n0.75,0.5\n")
        nan = tmp_path / "nan.csv"
        nan.write_text("cell_center,value\n0.25,nan\n0.75,0.5\n")
        # the cells of a 3-cell grid are centred at 1/6, 1/2 and 5/6
        centres = tmp_path / "centres.csv"
        centres.write_text("cell_center,value\n0.9,0.1\n0.2,0.5\n0.2,0.3\n")
        for path in (missing, header, row, nan, centres):
            for args in (["eval", "--profile", str(path)],
                         ["sample", "--n", "32", "--init-profile", str(path)]):
                assert run(args + ["--config", cfg, "--out", str(tmp_path / "o")]) == 3
                assert "config error: unreadable profile CSV" in capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize("args", [
        ["enumerate", "--n", "30"],
        ["enumerate", "--n", "12", "--delta", "-1"],
        ["feasibility", "--rho", "0.4"],
        ["solve", "--grid", "1"],
        ["solve", "--rho", "1.5"],
        ["scan", "--deltas=-0.01"],
        ["scan", "--rho", "1.5", "--deltas", "0.01"],
        ["scan", "--grid", "1", "--deltas", "0.01"],
        ["sample", "--n", "64", "--steps", "0"],
        ["sample", "--n", "64", "--chains", "0"],
        ["sample", "--n", "1"],
        ["sample", "--n", "0"],
        ["solve", "--xi", "nan"],
        ["solve", "--xi", "inf"],
        ["scan", "--deltas", "nan,0.01"],
        ["scan", "--deltas", "inf"],
        ["enumerate", "--n", "12", "--xi", "nan"],
        ["sample", "--n", "32", "--steps", "10", "--xi", "nan"],
        ["scan", "--rho", "0.23", "--deltas", "0.01,0.01", "--grid", "64"],
        # xi0 -/+ 1e-300 rounds to xi0: no secant gap
        ["scan", "--rho", "0.23", "--deltas", "1e-300", "--grid", "64"],
        ["enumerate", "--n", "10", "--xi", "0.3", "--rho", "0.3", "--delta", "inf"],
        ["sample", "--n", "32", "--steps", "10", "--delta", "inf"],
        # the delta list is checked before the potential: a constant one is not reached
        ["scan", "--rho", "0.23", "--deltas", "", "--config", "{constant}"],
    ])
    def test_rejected_input_is_config_error(self, cfg, tmp_path, capsys, args):
        constant = tmp_path / "const.cfg"
        constant.write_text("[potential]\nkind = constant\nJ = 3.0\n")
        # a --config in args comes later, so it wins over the reference config
        args = [args[0], "--config", cfg, *(a.format(constant=constant) for a in args[1:])]
        assert run(args + ["--out", str(tmp_path / "o")]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory(self, cfg, tmp_path, capsys, sub):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / sub
        assert run(["lambda", "--config", cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot create the output directory {out}" in captured.err

    @pytest.mark.parametrize("args", [
        pytest.param(["solve", "--seed", "1"], id="--seed"),
        pytest.param(["solve", "--workers", "1"], id="--workers"),
        # only solve and scan read --grid
        *(pytest.param([command, "--grid", "64"], id=f"{command}--grid")
          for command in ("lambda", "feasibility", "eval", "enumerate", "sample")),
    ])
    def test_unused_flags_refused(self, cfg, args):
        with pytest.raises(SystemExit):
            run(args + ["--config", cfg])


class TestParser:
    def test_option_strings(self):
        common = {"--config", "--out"}
        expected = {
            "lambda": common,
            "solve": common | {"--grid", "--xi", "--rho"},
            "scan": common | {"--grid", "--rho", "--deltas"},
            "sample": common | {"--xi", "--rho", "--delta", "--n", "--steps", "--chains",
                                "--init-profile", "--seed"},
            "enumerate": common | {"--xi", "--rho", "--delta", "--n"},
            "feasibility": common | {"--rho"},
            "eval": common | {"--profile"},
        }
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == expected

    @pytest.mark.parametrize("argv, values", [
        (["sample", "--xi", "0.3", "--rho", "0.2", "--n", "8"],
         {"xi": 0.3, "rho": 0.2, "delta": 0.01, "n": 8, "steps": 20000, "chains": 4, "seed": 1}),
        (["solve", "--xi", "0.3", "--rho", "0.2"], {"grid": 256, "xi": 0.3, "rho": 0.2}),
        (["scan", "--rho", "0.2"], {"grid": 256, "rho": 0.2, "deltas": ""}),
    ], ids=["sample", "solve", "scan"])
    def test_defaults(self, argv, values):
        assert cli._settings(cli.build_parser().parse_args(argv), {}) == values


class TestJsonRecords:
    def test_records_are_strict_json_of_the_result_fields(self, cfg, tmp_path):
        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        runs = (
            (["solve"], "solve_result.json", solver.SolveResult),
            (["sample", "--n", "32", "--steps", "2000", "--chains", "1", "--delta", "0.05"],
             "mcmc_stats.json", ensemble.McmcStats),
            # the two outer points do not converge, so their S is NaN
            (["scan", "--rho", "0.23", "--deltas", "0.01,3", "--grid", "64"],
             "scan_summary.json", transition.TransitionScan),
        )
        records = {}
        for args, name, result_type in runs:
            out = tmp_path / name
            assert run(args + ["--config", cfg, "--out", str(out)]) == 0
            record = json.loads((out / name).read_text(), parse_constant=refuse)
            assert set(record) == ({f.name for f in fields(result_type)}
                                   | {"schema_version", "meta"})
            records[name] = record
        solve = records["solve_result.json"]
        assert set(solve["profile"]) == {"m", "values"} and len(solve["profile"]["values"]) == 64
        assert set(solve["multipliers"]) == {"beta", "mu"}
        # each candidate names its seed: the family index k of the default seeds
        assert all(c["seed"] in range(7) for c in solve["candidates"])
        stats = records["mcmc_stats.json"]
        assert stats["state_counts"] is None and len(stats["mean_profile"]["values"]) == 32
        scan = records["scan_summary.json"]
        assert scan["lam"] == 7.0 and scan["kink_ok"] is True
        assert [p["S"] == "nan" for p in scan["points"]] == [True, False, False, False, True]
        assert [p["converged"] for p in scan["points"]] == [False, True, True, True, False]
        # scan.csv writes the same points: nan S cells and false flags
        rows = [ln.split(",") for ln in
                (tmp_path / "scan_summary.json" / "scan.csv").read_text().splitlines()[1:]]
        assert [row[1] == "nan" for row in rows] == [True, False, False, False, True]
        assert [row[5] for row in rows] == ["false", "true", "true", "true", "false"]


class TestDeterminism:
    def test_csv_outputs_byte_identical(self, cfg, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
            assert run(["lambda", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for name in ("profile.csv", "lambda.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
