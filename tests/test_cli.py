"""Configuration parsing, command dispatch, determinism, exit codes."""

import json

import pytest

from fracsobolev import ConfigError
from fracsobolev.cli import main, parse_config


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(["sweep", "--N", "1", "--s", "0.25", "--M", "512"])
        assert cfg.command == "sweep"
        assert cfg.grid.points_per_dim == 512
        assert cfg.grid.half_width == 8.0
        assert cfg.pack.s == 0.25
        assert cfg.solver.eps_schedule == (0.8, 0.4, 0.2, 0.1)

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
        ("L", "-1", "L"),
        ("s", "0.5", "s"),
        ("eps-schedule", "0.4,0.8", "eps-schedule"),
        ("tol", "0", "tol"),
        ("damping", "0", "damping"),
        ("max-iters", "0", "max-iters"),
        ("max-iters", "-3", "max-iters"),
    ])
    def test_bad_value_names_its_key(self, flag, value, key):
        with pytest.raises(ConfigError) as err:
            parse_config(["solve", f"--{flag}", value])
        assert err.value.key == key

    @pytest.mark.parametrize("omega", [
        [1.0],
        {"kind": "interval", "bounds": 3},
        {"kind": "interval", "bounds": [1.0]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
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

    def test_not_converged_exit_1(self, tmp_path, capsys):
        code = main(["solve", "--M", "128", "--max-iters", "2", "--tol", "1e-14",
                     "--out", str(tmp_path)])
        assert code == 1
        capsys.readouterr()


def _read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


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
