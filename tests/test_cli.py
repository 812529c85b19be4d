"""Configuration parsing, command dispatch, determinism, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracsobolev
from fracsobolev import ConfigError, SolverConfig
from fracsobolev.cli import COMMANDS, main, parse_config


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(["sweep", "--N", "1", "--s", "0.25", "--M", "512"])
        assert cfg.command == "sweep"
        assert cfg.grid.points_per_dim == 512
        assert cfg.grid.half_width == 8.0
        assert cfg.pack.s == 0.25
        assert cfg.solver.eps_schedule == (0.8, 0.4, 0.2, 0.1)

    def test_solver_defaults_are_solver_config(self):
        cfg = parse_config(["solve"]).solver
        for f in dataclasses.fields(SolverConfig):
            assert getattr(cfg, f.name) == getattr(SolverConfig(), f.name), f.name

    def test_s_out_of_range_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["sweep", "--N", "1", "--s", "0.5"])
        assert err.value.key == "s"
        assert "(0, N/2)" in str(err.value)

    def test_cli_overrides_file(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("M=256\ns=0.25\n", encoding="utf-8")
        cfg = parse_config(["sweep", "--config", str(f), "--M", "512"])
        assert cfg.grid.points_per_dim == 512

    def test_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("# comment line\nM=256\n", encoding="utf-8")
        cfg = parse_config(["sweep", "--config", str(f)])
        assert cfg.grid.points_per_dim == 256

    def test_unknown_command(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["frobnicate"])
        assert err.value.key == "command"

    def test_unknown_flag(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["sweep", "--bogus", "1"])
        assert err.value.key == "bogus"

    def test_bad_mask_spec(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["sweep", "--omega", json.dumps(
                {"kind": "interval", "bounds": [-9.0, 9.0]})])
        assert err.value.key == "omega"

    def test_bad_eps_schedule(self):
        with pytest.raises(ConfigError) as err:
            parse_config(["sweep", "--eps-schedule", "0.4,0.8"])
        assert err.value.key == "eps-schedule"

    @pytest.mark.parametrize("flag,value,key", [
        ("N", "0", "N"),
        ("M", "3", "M"),
        # over the grid cap, refused before anything is allocated
        ("M", "33554432", "M"),
        ("L", "-1", "L"),
        ("L", "inf", "L"),
        ("L", "1e308", "L"),
        ("s", "0.5", "s"),
        ("eps-schedule", "0.4,0.8", "eps-schedule"),
        ("tol", "0", "tol"),
        ("tol", "inf", "tol"),
        ("lam", "inf", "lam"),
        ("max-iters", "0", "max-iters"),
        ("max-iters", "-3", "max-iters"),
        ("seed", "-1", "seed"),
    ])
    def test_bad_value_names_its_key(self, flag, value, key):
        with pytest.raises(ConfigError) as err:
            parse_config(["solve", f"--{flag}", value])
        assert err.value.key == key

    @pytest.mark.parametrize("N", ["1", "2", "3"])
    def test_negative_L_names_its_key_in_every_dim(self, N):
        with pytest.raises(ConfigError) as err:
            parse_config(["solve", "--N", N, "--M", "16", "--L", "-1"])
        assert err.value.key == "L"

    @pytest.mark.parametrize("omega", [
        [1.0],
        {"kind": "interval", "bounds": 3},
        {"kind": "interval", "bounds": [1.0]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "box", "lower": [-1, -5], "upper": [1, 5]},
        {"kind": "interval", "bounds": [-1, 1], "extra": 1},
    ])
    def test_malformed_omega_names_key(self, omega):
        with pytest.raises(ConfigError) as err:
            parse_config(["solve", "--omega", json.dumps(omega)])
        assert err.value.key == "omega"

    def test_omega_json_parses(self):
        cfg = parse_config(["solve", "--omega",
                            json.dumps({"kind": "interval", "bounds": [-0.5, 0.5]})])
        assert cfg.mask.measure == pytest.approx(1.0, rel=0.05)


class TestExitCodes:
    def test_config_error_exit_2(self, capsys):
        assert main(["sweep", "--s", "0.9"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_boundary_mask_exit_2(self):
        code = main(["sweep", "--omega",
                     json.dumps({"kind": "interval", "bounds": [-9.0, 9.0]})])
        assert code == 2

    def test_zero_max_iters_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--max-iters", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "max-iters" in capsys.readouterr().err
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_exit_2(self, command, tmp_path, capsys):
        assert main([command, "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "config error: seed:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_flags_succeed_or_name_M(self, command, tmp_path, capsys):
        code = main([command, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert "config error: M:" in err

    def test_recovery_demo_names_the_m_every_step_needs(self, tmp_path, capsys):
        # the steps' cores shrink, so the named M must resolve the finest one,
        # measured on the named grid: the atom's clearance moves with M
        for extra in ([], ["--eps-schedule", "0.8,0.4,0.15"]):
            assert main(["recovery-demo", "--out", str(tmp_path)] + extra) == 2
            named = re.search(r"config error: M: .* M = (\d+) points per axis",
                              capsys.readouterr().err)
            assert named is not None
            assert main(["recovery-demo", "--M", named.group(1), "--out", str(tmp_path)]
                        + extra) == 0
            capsys.readouterr()

    def test_config_file_damping_line_exits_2(self, tmp_path, capsys):
        # the damped outer step and its key are gone; an old config file
        # that still sets it is refused by name
        conf = tmp_path / "old.conf"
        conf.write_text("M=128\ndamping=0.8\n")
        assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "damping" in capsys.readouterr().err
        assert not (tmp_path / "solve.csv").exists()

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        undecodable = tmp_path / "bad.conf"
        undecodable.write_bytes(b"\xff\xfe")
        for conf in (tmp_path / "missing.conf", undecodable):
            assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 2
            assert "config error: config: " in capsys.readouterr().err
        assert not (tmp_path / "solve.csv").exists()

    def test_sweep_records_failed_probes_exit_1(self, tmp_path, capsys):
        # one cell: the solve succeeds, the sweep's radius-0 probes fail
        omega = json.dumps({"kind": "interval", "bounds": [-0.01, 0.01]})
        assert main(["solve", "--omega", omega, "--out", str(tmp_path / "solve")]) == 0
        assert main(["sweep", "--omega", omega, "--out", str(tmp_path / "sweep")]) == 1
        assert "radius must be positive" in capsys.readouterr().err
        rows = [ln.split(",") for ln in (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
                if not ln.startswith("#")]
        header, body = rows[0], rows[1:]
        assert len(body) == len(SolverConfig().eps_schedule)
        for row in body:
            cells = dict(zip(header, row))
            assert cells["converged"] == "false" and cells["argmax_coords"] == ""
            assert all(cells[k] == "nan" for k in ("value", "multiplier", "mass_r1",
                                                  "mass_r2", "tail_energy"))

    def test_not_converged_exit_1(self, tmp_path, capsys):
        code = main(["solve", "--M", "128", "--max-iters", "2", "--tol", "1e-14",
                     "--out", str(tmp_path)])
        assert code == 1
        capsys.readouterr()


def test_import_leaves_scipy_out():
    # a fresh interpreter, so nothing the test suite imported counts
    src = str(Path(fracsobolev.__file__).parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import sys, fracsobolev.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# The CSVs of the default commands with --seed 0 --reproducible.  A change
# that moves these numbers on purpose updates them and lists the moved
# digits in CHANGES.md.
DEFAULT_CSVS = {
    "bubble-verify": ("bubble_verify.csv",
        "N,s,M,L,eps,lam,sobolev_constant,quotient,rel_err\n"
        "1,0.25,512,8.0,0.0,1.0,1.3932039296856769,19.581844661486343,13.055260858978656\n"),
    "norms-check": ("norms_check.csv",
        "quantity,N,M,L,s,value\n"
        "plancherel_max_rel_err,1,512,8.0,0.25,2.143242379283949e-16\n"
        "gagliardo_ratio_mean,1,512,8.0,0.25,0.0996570409641766\n"
        "gagliardo_ratio_cv,1,512,8.0,0.25,0.0009131029602325802\n"
        "gagliardo_ratio_closed_form,1,512,8.0,0.25,0.09973557010035819\n"
        "gagliardo_ratio_rel_gap,1,512,8.0,0.25,-0.0007873734125404633\n"),
    "solve": ("solve.csv",
        "N,s,M,L,eps,value,envelope,multiplier,iters,converged,residual\n"
        "1,0.25,512,8.0,0.8,0.8869810383274493,1.4929658260103178,1.1274198170974057,18,true,3.1697586964859905e-06\n"),
    "sweep": ("sweep.csv",
        "N,s,M,L,eps,value,envelope,multiplier,iters,converged,argmax_coords,mass_r1,mass_r2,tail_energy\n"
        "1,0.25,512,8.0,0.8,0.8869810383274493,1.4929658260103178,1.1274198170974057,18,true,0.0,0.8536967645395764,0.9111729857541402,0.04409855759887518\n"
        "1,0.25,512,8.0,0.4,0.9604337104122096,1.4422225402773308,1.0411962732657614,18,true,0.0,0.9439987612670213,0.9558241063998312,0.022816399427594294\n"
        "1,0.25,512,8.0,0.2,1.0882295930923926,1.4175013617614753,0.9189237329581591,11,true,0.0,0.9710183134862167,0.9759184505763894,0.012537131486652375\n"
        "1,0.25,512,8.0,0.1,1.1738118774242252,1.4053001343274985,0.8519252694855735,8,true,0.0,0.9744602317101341,0.9786058608426677,0.011152262524637423\n"),
}


def _same_cell(got, want):
    """Integer, boolean and text cells match exactly, float cells within
    1e-12 relative."""
    if want in ("true", "false") or re.fullmatch(r"-?\d+", want):
        return got == want
    try:
        return float(got) == pytest.approx(float(want), rel=1e-12, abs=0.0)
    except ValueError:
        return got == want


@pytest.mark.parametrize("command", sorted(DEFAULT_CSVS))
def test_default_numbers_stay(command, tmp_path, capsys):
    name, recorded = DEFAULT_CSVS[command]
    assert main([command, "--seed", "0", "--reproducible", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = [ln.split(",") for ln in (tmp_path / name).read_text().splitlines()]
    want = [ln.split(",") for ln in recorded.splitlines()]
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        assert len(row) == len(ref)
        bad = [(col, g, w) for col, g, w in zip(want[0], row, ref) if not _same_cell(g, w)]
        assert bad == []


def _read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_solve_and_sweep_rows_agree(tmp_path, capsys):
    # the default solve is the default sweep's first entry, and both write
    # the solve's own multiplier 1 / F_eps
    for command in ("solve", "sweep"):
        assert main([command, "--seed", "0", "--reproducible", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, (solved,) = _read_rows(tmp_path / "solve.csv")
    _, swept = _read_rows(tmp_path / "sweep.csv")
    assert swept[0]["eps"] == solved["eps"] == "0.8"
    for key in ("value", "multiplier"):
        assert swept[0][key] == solved[key]


class TestCommands:
    def test_bubble_verify_writes_table(self, tmp_path, capsys):
        code = main(["bubble-verify", "--M", "512", "--L", "8", "--out", str(tmp_path),
                     "--reproducible"])
        assert code == 0
        header, rows = _read_rows(tmp_path / "bubble_verify.csv")
        assert header[:5] == ["N", "s", "M", "L", "eps"]
        assert len(rows) == 1
        assert float(rows[0]["sobolev_constant"]) == pytest.approx(1.3932039296856768)
        capsys.readouterr()

    def test_norms_check_rows(self, tmp_path, capsys):
        code = main(["norms-check", "--M", "256", "--L", "4", "--s", "0.3",
                     "--out", str(tmp_path), "--reproducible"])
        assert code == 0
        header, rows = _read_rows(tmp_path / "norms_check.csv")
        assert header == ["quantity", "N", "M", "L", "s", "value"]
        quantities = {r["quantity"] for r in rows}
        assert "plancherel_max_rel_err" in quantities
        assert "gagliardo_ratio_cv" in quantities
        plancherel = [r for r in rows if r["quantity"] == "plancherel_max_rel_err"][0]
        assert float(plancherel["value"]) < 1e-12
        cv = [r for r in rows if r["quantity"] == "gagliardo_ratio_cv"][0]
        assert float(cv["value"]) < 0.01
        closed = [r for r in rows if r["quantity"] == "gagliardo_ratio_closed_form"][0]
        assert float(closed["value"]) == pytest.approx(0.11504819084081601, rel=1e-14)
        capsys.readouterr()

    def test_norms_check_gagliardo_rows_on_large_grid(self, tmp_path, capsys):
        code = main(["norms-check", "--M", "8192", "--out", str(tmp_path), "--reproducible"])
        assert code == 0
        _, rows = _read_rows(tmp_path / "norms_check.csv")
        values = {r["quantity"]: float(r["value"]) for r in rows}
        assert {"gagliardo_ratio_mean", "gagliardo_ratio_cv", "gagliardo_ratio_closed_form",
                "gagliardo_ratio_rel_gap"} <= set(values)
        assert values["gagliardo_ratio_cv"] < 0.01
        capsys.readouterr()

    def test_sweep_csv_schema_and_determinism(self, tmp_path, capsys):
        args = ["sweep", "--M", "256", "--eps-schedule", "0.8,0.4",
                "--seed", "3", "--reproducible"]
        code1 = main(args + ["--out", str(tmp_path / "a")])
        code2 = main(args + ["--out", str(tmp_path / "b")])
        assert code1 == 0 and code2 == 0
        blob_a = (tmp_path / "a" / "sweep.csv").read_bytes()
        blob_b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert blob_a == blob_b
        header, rows = _read_rows(tmp_path / "a" / "sweep.csv")
        assert header == ["N", "s", "M", "L", "eps", "value", "envelope", "multiplier",
                          "iters", "converged", "argmax_coords", "mass_r1", "mass_r2",
                          "tail_energy"]
        assert len(rows) == 2
        for row in rows:
            assert float(row["value"]) <= float(row["envelope"]) * 1.02
        capsys.readouterr()

    def test_default_sweep_outer_iterations(self, tmp_path, capsys):
        # 202 with the plain outer step, 47 with the Anderson step; counts repeat exactly
        assert main(["sweep", "--out", str(tmp_path), "--reproducible"]) == 0
        _, rows = _read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 4
        assert sum(int(row["iters"]) for row in rows) <= 80
        capsys.readouterr()

    def test_timestamp_suppressed_only_when_reproducible(self, tmp_path, capsys):
        main(["bubble-verify", "--M", "256", "--out", str(tmp_path / "stamped")])
        main(["bubble-verify", "--M", "256", "--out", str(tmp_path / "plain"),
              "--reproducible"])
        stamped = (tmp_path / "stamped" / "bubble_verify.csv").read_text()
        plain = (tmp_path / "plain" / "bubble_verify.csv").read_text()
        assert stamped.startswith("# generated ")
        assert not plain.startswith("#")
        capsys.readouterr()

    def test_emit_fields_dump_round_trips(self, tmp_path, capsys):
        from fracsobolev import field_from_bytes
        code = main(["solve", "--M", "256", "--eps-schedule", "0.8",
                     "--out", str(tmp_path), "--emit-fields", "--reproducible"])
        assert code == 0
        blob = (tmp_path / "maximizer_eps0.8.field").read_bytes()
        u = field_from_bytes(blob)
        assert u.grid.points_per_dim == 256
        capsys.readouterr()

    def test_recovery_demo_rows(self, tmp_path, capsys):
        code = main(["recovery-demo", "--M", "65536", "--s", "0.05",
                     "--eps-schedule", "0.2,0.1,0.08",
                     "--out", str(tmp_path), "--reproducible"])
        assert code == 0
        header, rows = _read_rows(tmp_path / "recovery_demo.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row["budget"]) <= 1.0
        capsys.readouterr()

    def test_gamma_check_audits_pass(self, tmp_path, capsys):
        code = main(["gamma-check", "--M", "16384", "--eps-schedule", "0.8,0.1",
                     "--out", str(tmp_path), "--reproducible"])
        assert code == 0
        header, rows = _read_rows(tmp_path / "gamma_check.csv")
        assert all(r["ok"] == "true" for r in rows)
        cases = {r["case"] for r in rows}
        assert "single_unit_atom" in cases and "empty_pair" in cases
        capsys.readouterr()

    def test_gamma_check_skipped_audit_exits_1(self, tmp_path, capsys, monkeypatch):
        import fracsobolev.extremals as extremals_mod
        from fracsobolev import OverlappingAtoms

        def overlapping(*args, **kwargs):
            raise OverlappingAtoms("synthetic overlap")

        monkeypatch.setattr(extremals_mod, "glued_bubbles", overlapping)
        code = main(["gamma-check", "--M", "16384", "--eps-schedule", "0.8,0.1",
                     "--out", str(tmp_path), "--reproducible"])
        assert code == 1
        assert "skipped" in capsys.readouterr().err
        header, rows = _read_rows(tmp_path / "gamma_check.csv")
        assert all(r["ok"] == "true" for r in rows)

    def test_gamma_check_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        import fracsobolev.diagnostics as diagnostics_mod
        real = diagnostics_mod.gamma_limit_value

        def inflated(u, atoms, pack, mask):
            return 10.0 * real(u, atoms, pack, mask)

        monkeypatch.setattr(diagnostics_mod, "gamma_limit_value", inflated)
        code = main(["gamma-check", "--M", "16384", "--eps-schedule", "0.8,0.1",
                     "--out", str(tmp_path), "--reproducible"])
        assert code == 1
        err = capsys.readouterr().err
        assert "skipped" not in err and "2 violations" in err
        header, rows = _read_rows(tmp_path / "gamma_check.csv")
        bad = [r["case"] for r in rows if r["ok"] == "false"]
        assert bad == ["single_unit_atom", "mixed_pair"]
