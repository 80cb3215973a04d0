"""Command-line interface: subcommands, config handling, exit codes, CSV shape."""

import hashlib
import importlib.util
import math
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest

from boundstates import box_characteristic_analytic, find_eigenvalues
from boundstates import cli
from boundstates.cli import compile_expr, main

PT10 = ["--potential", "poschl-teller", "--v0", "10", "--h", "0.005", "--nr", "2400"]
PT25_SMALL = ["--potential", "poschl-teller", "--v0", "2.5", "--h", "0.01", "--nr", "500"]


def run_cli(argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return 0 if code is None else code


def parse_csv(text):
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    table = [l.split(",") for l in lines if not l.startswith("#")]
    return meta, table[0], table[1:]


@pytest.fixture(scope="module")
def pt10_solve():
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(["solve"] + PT10)
    return code, buf.getvalue()


def test_solve_reports_every_level_with_tight_exact_errors(pt10_solve):
    code, text = pt10_solve
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert header == ["index", "parity", "energy", "residual", "nodes", "exact_error"]
    assert len(rows) == 4
    assert [r[1] for r in rows] == ["even", "odd", "even", "odd"]
    assert [r[4] for r in rows] == ["0", "1", "2", "3"]
    for row in rows:
        assert float(row[5]) < 1e-6
        assert float(row[3]) < 1e-8
    assert any(l.startswith("# method = wm") for l in meta)


def test_solve_methods_agree(pt10_solve, capsys):
    _, text = pt10_solve
    _, _, wm_rows = parse_csv(text)
    assert run_cli(["solve"] + PT10 + ["--method", "cfm"]) == 0
    _, _, cfm_rows = parse_csv(capsys.readouterr().out)
    assert len(cfm_rows) == len(wm_rows) == 4
    for a, b in zip(wm_rows, cfm_rows):
        assert abs(float(a[2]) - float(b[2])) <= 1e-8


def test_solve_box_defaults_to_the_wall_determinant(capsys):
    assert run_cli(["solve", "--potential", "box", "--range", "0:60",
                    "--probes", "200"]) == 0
    meta, header, rows = parse_csv(capsys.readouterr().out)
    assert any(l.startswith("# method = dirichlet") for l in meta)
    assert len(rows) == 3
    for row in rows:
        assert float(row[5]) < 1e-6


def test_solve_empty_window_is_a_solver_failure(capsys):
    code = run_cli(["solve"] + PT25_SMALL + ["--range", "-2.4:-2.0"])
    assert code == 2
    assert "no bound states" in capsys.readouterr().err


def test_solve_past_the_double_range_is_a_solver_failure(capsys):
    # every march overflows; the quartic boundary members used to be read
    # inside x_right, where math.exp raised OverflowError
    code = run_cli(["solve", "--potential", "anharmonic", "--v2", "0", "--v4", "1",
                    "--h", "0.01", "--nr", "1819", "--range", "0:20"])
    assert code == 2
    assert "no bound states found" in capsys.readouterr().err


def test_solve_dump_writes_one_column_per_state(tmp_path, capsys):
    dump = tmp_path / "wf.csv"
    assert run_cli(["solve"] + PT25_SMALL + ["--dump", str(dump)]) == 0
    capsys.readouterr()
    lines = dump.read_text().strip().splitlines()
    assert lines[1] == "x,psi_0,psi_1"
    # reflected half grid of 500 steps spans 1001 samples
    assert len(lines) == 2 + 1001


def test_solve_dump_cells_are_the_result_samples(tmp_path, capsys, monkeypatch):
    # every cell is "%.17g" of the solved x or psi sample in its row
    solved = []

    def recorded(*args, **kwargs):
        solved.extend(find_eigenvalues(*args, **kwargs))
        return solved

    monkeypatch.setattr(cli, "find_eigenvalues", recorded)
    dump = tmp_path / "wf.csv"
    assert run_cli(["solve"] + PT25_SMALL + ["--dump", str(dump)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in dump.read_text().splitlines()[2:]]
    assert len(solved) == 2
    assert rows == [["%.17g" % a[j] for a in [solved[0].x] + [r.psi for r in solved]]
                    for j in range(len(solved[0].x))]


def test_scan_symmetric_layout_and_zero_energy_flags(capsys):
    assert run_cli(["scan", "--potential", "poschl-teller", "--v0", "2.5",
                    "--h", "0.01", "--nr", "500", "--range", "-2.5:0",
                    "--probes", "6"]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["epsilon", "F_wm_even", "F_wm_odd", "F_cfm",
                      "ratio_c_over_s", "ratio_s_over_c", "flags"]
    assert len(rows) == 6
    # the interior rows are clean
    for row in rows[:-1]:
        assert row[-1] == ""
        assert all(cell for cell in row[:-1])
    # eps = 0 degenerates the decay pair; only the Wronskian columns care
    last = rows[-1]
    assert float(last[0]) == 0.0
    assert last[1] == "" and last[2] == ""
    assert last[3] != ""
    assert "F_wm_even:degenerate" in last[-1]
    assert "F_wm_odd:degenerate" in last[-1]


def test_scan_box_includes_the_analytic_column(capsys):
    assert run_cli(["scan", "--potential", "box", "--h", "0.005",
                    "--range", "1:10", "--probes", "5"]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["epsilon", "F_wm", "F_cfm", "F_box_analytic", "flags"]
    assert len(rows) == 5
    expected = box_characteristic_analytic(np.array([float(row[0]) for row in rows]), 0.5)
    for row, value in zip(rows, expected.value.tolist()):
        assert float(row[3]) == pytest.approx(value, rel=1e-12)


def test_scan_flags_energies_outside_the_analytic_domain(capsys):
    assert run_cli(["scan", "--potential", "box", "--h", "0.005",
                    "--range", "-1:9", "--probes", "3"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0][3] == ""
    assert "F_box_analytic:domain" in rows[0][-1]
    assert rows[-1][3] != ""


def test_scan_empty_range_emits_header_only(capsys):
    assert run_cli(["scan", "--potential", "box", "--h", "0.01",
                    "--range", "5:5"]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header[0] == "epsilon"
    assert rows == []


@pytest.mark.parametrize("flags", [
    ["--potential", "box", "--h", "0.01"],
    ["--potential", "poschl-teller", "--v0", "2.5", "--h", "0.02", "--nr", "250"],
    ["--potential", "anharmonic", "--v2", "1", "--v4", "1", "--h", "0.02", "--nr", "250"],
    ["--potential", "radial", "--expr", "-10*exp(-r)", "--h", "0.02"],
    ["--potential", "inline", "--expr", "-2*exp(-x*x)", "--parity", "--h", "0.02",
     "--nr", "250"],
], ids=lambda flags: flags[1])
def test_an_empty_window_holds_no_level_on_every_potential(flags, capsys):
    # --range a:a is a window, not a configuration error, wherever a lies
    # against the Problem's own default window
    assert run_cli(["scan"] + flags + ["--range", "-1:-1"]) == 0
    meta, header, rows = parse_csv(capsys.readouterr().out)
    assert "# range = -1:-1" in meta and header[0] == "epsilon" and rows == []
    assert run_cli(["solve"] + flags + ["--range", "-1:-1"]) == 2
    assert "no bound states found" in capsys.readouterr().err
    assert run_cli(["oracle"] + flags + ["--range", "-1:-1"]) == 2
    assert "engine found 0 levels, reference found 0" in capsys.readouterr().err


def test_saturate_profile_table_and_footer(capsys):
    assert run_cli(["saturate", "--potential", "poschl-teller", "--v0", "2.5",
                    "--energy", "-1"]) == 0
    text = capsys.readouterr().out
    meta, header, rows = parse_csv(text)
    assert header == ["x", "C", "S", "W_Rc_C", "W_Rc_S", "ratio_cfm", "ratio_wm"]
    assert len(rows) == 501
    # S(0) = 0 leaves the first value-ratio cell empty
    assert rows[0][5] == ""
    footer = [l for l in meta if "=" in l]
    keys = [l.split("=")[0].strip("# ") for l in footer[-5:]]
    assert keys == ["limit_ratio_wm", "limit_ratio_cfm",
                    "saturation_x_wm", "saturation_x_cfm", "tolerance"]
    sat_wm = float(footer[-3].split("=")[1])
    sat_cfm = float(footer[-2].split("=")[1])
    assert sat_wm < sat_cfm


def test_saturate_free_space_control_is_flat(capsys):
    assert run_cli(["saturate", "--potential", "inline", "--expr", "0*x",
                    "--parity", "--energy", "-1"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    ratios = [float(r[6]) for r in rows if r[6]]
    assert len(ratios) == len(rows)
    assert max(ratios) - min(ratios) < 1e-10


def test_saturate_past_the_double_range_is_a_one_line_solver_failure(capsys):
    # R_c is anchored at x_R = 200 and grows toward the origin past the
    # double range; the profile names where, instead of printing inf cells
    argv = ["saturate", "--potential", "poschl-teller", "--v0", "10", "--h", "0.01",
            "--energy", "-9", "--nr"]
    assert run_cli(argv + ["20000"]) == 2
    assert capsys.readouterr().err == (
        "boundstates saturate: R_c leaves the double range at x = 33.04 for energy -9.0\n")
    # inside the range the same profile runs to the end
    assert run_cli(argv + ["4000"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 4001 and all(r[6] for r in rows)


def test_saturate_requires_an_energy(capsys):
    code = run_cli(["saturate", "--potential", "poschl-teller", "--v0", "2.5"])
    assert code == 1
    assert "--energy" in capsys.readouterr().err


def test_saturate_rejects_nonnegative_energy_for_decaying_tails(capsys):
    code = run_cli(["saturate", "--potential", "poschl-teller", "--v0", "2.5",
                    "--energy", "1.0"])
    assert code == 1


@pytest.mark.parametrize("energy", ["nan", "-inf"])
def test_saturate_rejects_a_non_finite_energy_by_name(energy, capsys):
    # a configuration error, not a solver failure at the first x
    code = run_cli(["saturate", "--potential", "poschl-teller", "--v0", "2.5",
                    "--energy", energy])
    assert code == 1
    assert capsys.readouterr().err == (
        f"boundstates saturate: --energy must be finite, got {float(energy)!r}\n")


def test_oracle_box_compares_routes_and_reports_orders(capsys):
    assert run_cli(["oracle", "--potential", "box", "--range", "0:60",
                    "--probes", "150"]) == 0
    text = capsys.readouterr().out
    meta, header, rows = parse_csv(text)
    assert header == ["index", "engine", "reference", "delta", "exact", "exact_delta"]
    assert len(rows) == 3
    for row in rows:
        assert float(row[5]) < 1e-4
        # reference is a second-order route at N = 100, so deltas sit at its
        # discretization scale (0.13 on the third level) rather than at rounding
        assert float(row[3]) < 0.2
    orders = {l.split("=")[0].strip("# "): float(l.split("=")[1]) for l in meta
              if "order" in l}
    assert 1.7 < orders["fd_order"] < 2.3
    assert 3.5 < orders["rk4_order"] < 4.5


def test_oracle_off_the_box_shoots_for_its_reference(capsys):
    assert run_cli(["oracle", "--potential", "poschl-teller", "--v0", "2.5",
                    "--h", "0.02", "--nr", "250"]) == 0
    meta, header, rows = parse_csv(capsys.readouterr().out)
    assert "# reference = shooting" in meta
    assert len(rows) == 2
    for row in rows:
        assert row[1] and row[2]
        assert abs(float(row[1]) - float(row[2])) <= 2e-8


@pytest.mark.parametrize("argv, columns, orders", [
    # the README box: the dirichlet engine against the fd recurrence, and
    # the measured convergence orders
    (["oracle", "--potential", "box", "--range", "0:60", "--probes", "150"],
     [["0x1.3bd3ccf1e2a8fp+2", "0x1.3bb9341db00f4p+2"],
      ["0x1.3bd3d1fa54d01p+4", "0x1.3b697562dc5fap+4"],
      ["0x1.634e64b575469p+5", "0x1.624146b9929a3p+5"]],
     ["0x1.ffe8abe89fcb2p+0", "0x1.ffe0c32aee1dfp+1"]),
    # the README PT 2.5 problem: the wm engine against shooting_reference
    (["oracle"] + PT25_SMALL,
     [["-0x1.9ab7146d0eb4ap+0", "-0x1.9ab7146e937bfp+0"],
      ["-0x1.4094e05749679p-2", "-0x1.4094e0668c958p-2"]],
     []),
], ids=["box", "poschl-teller"])
def test_the_readme_oracle_outputs_keep_their_bits(argv, columns, orders, capsys):
    # the engine and reference columns and the order lines, as float.hex
    # recorded before the oracle's march and short-side blocks were recast;
    # work that moves no result must leave every bit of them
    assert run_cli(argv) == 0
    meta, _, rows = parse_csv(capsys.readouterr().out)
    assert [[float(r[1]).hex(), float(r[2]).hex()] for r in rows] == columns
    assert [float(l.split("=")[1]).hex() for l in meta if "_order" in l] == orders


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["solve"] + PT10, "d922ae7b9432e6d0b1f3fc1a98a26f075ce64714a6370750f53850573a219823"),
    (["scan"] + PT25_SMALL + ["--range", "-2.5:0", "--probes", "200"],
     "eb7be5b3bf9971b7a05d817b35acf910f18f8414aeebf98fd0048a755d5241ac"),
    (["saturate"] + PT25_SMALL + ["--energy", "-1"],
     "ad2ca7a2a6fbe95527202fdd90f9c065bf7752b460bff0f2c959433645b9d273"),
    # not a README command: the box layout, with its analytic column's domain flag
    (["scan", "--potential", "box", "--h", "0.01", "--range", "0:60", "--probes", "50"],
     "e1232b95630696d7973ed32d2f8db459ebc3af27f5c2cab39e6e9f64253596f7"),
], ids=["solve", "scan", "saturate", "scan-box"])
def test_the_readme_tables_keep_their_bytes(argv, digest, capsys):
    # sha256 of stdout, recorded before the parser and the scan table were
    # recast; work outside the solver must leave every byte of it
    assert run_cli(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_the_readme_dump_keeps_its_bytes(tmp_path, capsys):
    dump = tmp_path / "psi.csv"
    assert run_cli(["solve"] + PT10 + ["--dump", str(dump)]) == 0
    capsys.readouterr()
    assert _sha256(dump.read_text()) == (
        "3dcb5382604915cfe1e90098d1fe4f791263fd154fd0b609b884368979ebd8cf")


@pytest.mark.parametrize("argv, digest", [
    (["--help"], "b3ad89520e4096596651d5b86948d2c3b6ff7e2bc1fdd5fdc1ba66041feddf6a"),
    (["solve", "--help"], "7f4eece3e5609a56b70dcd649fa02681fa18537923dff5caeffcf3069b8b2fc2"),
    (["scan", "--help"], "3ab7db3c59f88af1f06e0b1e8af70bcd99f0bcf809a02fd1c28aa27db62f4a54"),
    (["saturate", "--help"], "7c7c08e7075661d3167d260079696ac344fb9ac84a6f8bacb150b98ec29f1831"),
    (["oracle", "--help"], "5a3ffd7f5a98f81f41a5f70e96060fec29d763fdbcb5fcd8cb3c0806cd87a121"),
], ids=["top", "solve", "scan", "saturate", "oracle"])
def test_the_help_texts_keep_their_bytes(argv, digest, monkeypatch, capsys):
    # argparse wraps help to $COLUMNS; the digests are Python 3.11's layout
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_solve_radial_takes_an_inner_expression(capsys):
    assert run_cli(["solve", "--potential", "radial", "--expr", "-10*exp(-r)",
                    "--h", "0.01"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert [round(float(r[2]), 5) for r in rows] == [-3.29379, -0.70259]


def test_solve_radial_without_an_expression_is_a_config_error(capsys):
    assert run_cli(["solve", "--potential", "radial", "--h", "0.01"]) == 1
    assert "radial needs --expr" in capsys.readouterr().err


def test_config_file_fills_gaps_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "v0 = 2.5\n"
        "method = cfm\n"
        "h = 0.01\n"
        "nr = 500\n"
        "range = -2:-1\n")
    assert run_cli(["solve", "--potential", "poschl-teller",
                    "--config", str(cfg), "--method", "wm"]) == 0
    meta, _, rows = parse_csv(capsys.readouterr().out)
    assert any(l.startswith("# method = wm") for l in meta)
    assert len(rows) == 1


def test_config_file_unknown_key_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("v0 = 2.5\nbanana = 7\n")
    code = run_cli(["solve", "--potential", "poschl-teller", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "banana" in err


def test_config_file_bad_value_and_missing_equals(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("v0 = abc\n")
    assert run_cli(["solve", "--potential", "poschl-teller",
                    "--config", str(cfg)]) == 1
    assert ":1:" in capsys.readouterr().err
    cfg.write_text("just words\n")
    assert run_cli(["solve", "--potential", "poschl-teller",
                    "--config", str(cfg)]) == 1
    assert "key = value" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, line", [
    # an unknown potential used to fall through to the inline one
    pytest.param("solve", "potential = boxx\nexpr = -2*exp(-x*x)\n", 1,
                 id="solve-potential"),
    # scan reads no method, so a bad one went unnoticed
    pytest.param("scan", "potential = box\nmethod = bogus\n", 2, id="scan-method"),
])
def test_config_file_values_meet_the_flags_choices(command, text, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run_cli([command, "--config", str(cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert ":%d: bad value for" % line in out.err


@pytest.mark.parametrize("command", ["scan", "saturate", "oracle"])
def test_config_file_dump_key_is_unknown_outside_solve(command, tmp_path, capsys):
    # --dump exists on solve alone, and the key used to be ignored silently
    dump = tmp_path / "wf.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v0 = 2.5\nh = 0.01\nnr = 500\nenergy = -1\nprobes = 40\n"
                   "dump = %s\n" % dump)
    assert run_cli([command, "--potential", "poschl-teller", "--config", str(cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert ":6: unknown key 'dump'" in out.err
    assert not dump.exists()


@pytest.mark.parametrize("exponent_form, plain_form", [
    pytest.param(["saturate"] + PT25_SMALL + ["--energy", "-1e0"],
                 ["saturate"] + PT25_SMALL + ["--energy=-1"], id="energy"),
    pytest.param(["solve", "--potential", "anharmonic", "--v2", "-5e0", "--v4", "1"],
                 ["solve", "--potential", "anharmonic", "--v2", "-5", "--v4", "1"], id="v2"),
])
def test_negative_values_in_exponent_form_are_values(exponent_form, plain_form, capsys):
    # argparse reads only "-12" and "-1.5" as negative numbers; "-1e0" after
    # a flag that takes a value is that flag's value all the same
    runs = []
    for argv in (exponent_form, plain_form):
        code = run_cli(argv)
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize("prefix_form, full_form", [
    pytest.param(["saturate"] + PT25_SMALL + ["--ener", "-1e-1"],
                 ["saturate"] + PT25_SMALL + ["--energy=-1e-1"], id="energy"),
    pytest.param(["solve"] + PT25_SMALL + ["--ran", "-2:-1"],
                 ["solve"] + PT25_SMALL + ["--range=-2:-1"], id="range"),
])
def test_a_unique_flag_prefix_takes_a_negative_value(prefix_form, full_form, capsys):
    # argparse reads a unique prefix of a long flag as that flag, so the
    # negative value after it is the flag's value too
    runs = []
    for argv in (prefix_form, full_form):
        code = run_cli(argv)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_an_ambiguous_flag_prefix_is_a_config_error(capsys):
    assert run_cli(["saturate"] + PT25_SMALL + ["--e", "-1e-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "ambiguous option: --e" in out.err


def test_a_flag_prefix_is_never_the_value_of_the_flag_before_it(capsys):
    # "--v0 --ener -1" leaves --v0 without a value, as "--v0 --energy -1" does
    runs = []
    for flag in ("--ener", "--energy"):
        code = run_cli(["saturate", "--potential", "poschl-teller", "--v0", flag, "-1"])
        runs.append((code, capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][0] != 0
    assert "argument --v0: expected one argument" in runs[0][1]


@pytest.mark.parametrize("command", ["solve", "scan", "saturate", "oracle"])
def test_config_keys_are_the_commands_long_flags(command, tmp_path, monkeypatch, capsys):
    # every long flag but --help and --config is a key, with no second table;
    # without a potential each run stops before it writes anything
    monkeypatch.chdir(tmp_path)
    parser = cli._commands(cli.build_parser())[command]
    flags = [s[2:] for s in parser._option_string_actions if s.startswith("--")]
    cfg = tmp_path / "run.cfg"
    for key in flags + ["energy_range", "banana"]:
        cfg.write_text("%s = 1\n" % key)
        assert run_cli([command, "--config", str(cfg)]) == 1
        is_key = key in flags and key not in ("help", "config")
        assert ("unknown key" in capsys.readouterr().err) != is_key, key


@pytest.mark.parametrize("command", ["solve", "scan", "saturate", "oracle"])
@pytest.mark.parametrize("probes", ["0", "-3"])
def test_non_positive_probes_are_config_errors(command, probes, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("probes = %s\n" % probes)
    for source in (["--probes", probes], ["--config", str(cfg)]):
        assert run_cli([command, "--potential", "box", "--h", "0.01"] + source) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "probes" in out.err


@pytest.mark.parametrize("command", ["solve", "scan", "saturate", "oracle"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tolerances_are_config_errors(command, tol, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = %s\n" % tol)
    for source in (["--tol", tol], ["--config", str(cfg)]):
        assert run_cli([command, "--potential", "box", "--h", "0.01"] + source) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "tol" in out.err


def test_missing_config_file_is_an_io_error(capsys):
    code = run_cli(["solve", "--potential", "poschl-teller", "--v0", "2.5",
                    "--config", "/nonexistent/run.cfg"])
    assert code == 3


@pytest.mark.parametrize("rng", ["abc", "5:1", "3", "1:inf"])
def test_bad_energy_ranges_are_config_errors(rng, capsys):
    code = run_cli(["scan", "--potential", "box", "--h", "0.01", "--range", rng])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "scan", "saturate", "oracle"])
def test_config_file_bad_range_names_the_line(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential = box\nh = 0.01\nrange = 5:1\n")
    assert run_cli([command, "--config", str(cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert ":3: bad value for range: '5:1'" in out.err


def test_negative_range_values_survive_argument_parsing(capsys):
    assert run_cli(["solve"] + PT25_SMALL + ["--range", "-2:-1"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1


def test_expr_rejects_unknown_names(capsys):
    for expr in ("x + evil(x)", "__import__('os').system('true')"):
        code = run_cli(["solve", "--potential", "inline", "--expr", expr])
        assert code == 1
        assert "--expr" in capsys.readouterr().err


def test_expr_assignments_do_not_outlive_a_call():
    fn = compile_expr("(exp := 0.0) if x > 2 else exp(x)", "x")
    assert fn(3.0) == 0.0
    assert fn(1.0) == math.exp(1.0)


def test_inline_expression_solves_a_gaussian_well(capsys):
    assert run_cli(["solve", "--potential", "inline",
                    "--expr", "-2*exp(-x*x)", "--parity",
                    "--range", "-2:-0.01"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) >= 1
    assert float(rows[0][2]) < 0


@pytest.mark.parametrize("command", ["solve", "oracle", "scan"])
def test_parity_on_a_lopsided_grid_is_a_config_error(command, capsys):
    # the parity factors would solve the mirrored domain [-5, 5], not [-0.6, 5]
    inline = ["--potential", "inline", "--expr", "-3*exp(-x*x)", "--parity", "--h", "0.01"]
    assert run_cli([command] + inline + ["--nl", "60", "--nr", "500"]) == 1
    assert "--parity needs --nl 0 or --nl equal to --nr (500), got 60" in capsys.readouterr().err
    assert run_cli(["solve"] + inline + ["--nl", "500", "--nr", "500"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert [r[1] for r in rows] == ["even", "odd"]


def test_unwritable_output_is_an_io_error(capsys):
    code = run_cli(["scan", "--potential", "box", "--h", "0.01",
                    "--range", "1:2", "--probes", "2",
                    "--out", "/nonexistent-dir/scan.csv"])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_identical_configs_give_byte_identical_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["saturate", "--potential", "poschl-teller", "--v0", "2.5",
            "--energy", "-1"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_no_command_is_a_config_error(capsys):
    assert run_cli([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_unknown_command_is_a_config_error(capsys):
    assert run_cli(["frobnicate"]) == 1
    capsys.readouterr()


def test_console_script_is_installed_and_runs(tmp_path):
    """Install a copy of the checkout into a throwaway venv, offline, and run
    that install's `boundstates` through its `[project.scripts]` entry point."""
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    copy = tmp_path / "copy"
    shutil.copytree(root / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(root / "pyproject.toml", copy / "pyproject.toml")
    env_dir = tmp_path / "venv"
    # numpy comes from the interpreter running the tests; nothing is downloaded
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bindir = env_dir / ("Scripts" if os.name == "nt" else "bin")
    python = bindir / "python"
    # without PYTHONPATH, and run outside the checkout, the venv sees only
    # what the install put there
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    # setuptools vendors bdist_wheel from 70.1; older ones need `wheel`
    if (importlib.util.find_spec("setuptools.command.bdist_wheel")
            or importlib.util.find_spec("wheel")):
        install = [python, "-m", "pip", "install", "--no-build-isolation",
                   "--no-deps", "--no-index", copy]
        installed_under = env_dir
    else:
        # no wheel can be built offline; setuptools' own develop command
        # links the copy into the venv instead
        install = [python, "-c", "from setuptools import setup; setup()",
                   "develop", "--no-deps"]
        installed_under = copy
    proc = subprocess.run(install, cwd=copy, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"install failed:\n{proc.stderr}"

    proc = subprocess.run(
        [python, "-c", "import boundstates; print(boundstates.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    module = Path(proc.stdout.strip()).resolve()
    assert module.is_relative_to(installed_under.resolve()), module

    proc = subprocess.run(
        [bindir / "boundstates", "solve", "--potential", "box", "--h", "0.01",
         "--range", "1:10", "--probes", "40"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("0,")
