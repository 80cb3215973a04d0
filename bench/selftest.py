"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

Kept out of the package's test suite (the file name does not match test_*),
since it runs a few solver ops and checks the harness, not the package.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import census as cs  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

bs = harness.import_package(ROOT)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --- census matcher ----------------------------------------------------------

def test_doublet_closer_than_tol_needs_two_levels():
    ref = [1.0, 1.0005, 3.0]
    one = cs.match_levels(ref, [1.0002, 3.0], tol=1e-3)
    assert (one.matched, one.missing, one.spurious) == (2, 1, 0)
    both = cs.match_levels(ref, [1.0001, 1.0004, 3.0], tol=1e-3)
    assert (both.matched, both.missing, both.spurious) == (3, 0, 0)


def test_levels_off_by_more_than_tol_are_missing_and_spurious():
    m = cs.match_levels([1.0, 2.0], [1.01, 2.0, 5.0], tol=1e-3)
    assert (m.matched, m.missing, m.spurious) == (1, 1, 2)
    assert m.max_err == 0.0


def test_a_disputed_level_is_neither_required_nor_spurious():
    m = cs.match_levels([-3.3, -0.71], [-3.3, -0.71, -0.0043], tol=1e-2, disputed=[-0.0043])
    assert (m.missing, m.spurious) == (0, 0)
    m = cs.match_levels([-3.3, -0.71], [-3.3, -0.71], tol=1e-2, disputed=[-0.0043])
    assert (m.missing, m.spurious) == (0, 0)


def test_empty_lists():
    m = cs.match_levels([], [], tol=1e-6)
    assert (m.matched, m.missing, m.spurious) == (0, 0, 0)
    m = cs.match_levels([1.0], [], tol=1e-6)
    assert (m.missing, m.spurious) == (1, 0)


# --- metric names and the contract ----------------------------------------

def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_metric_names_and_units():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25


def test_spec_matches_what_the_benchmark_reports():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# --- generated inputs --------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for seed in (0, 1, 7, 123456):
        assert wl.generate(workload, seed) == wl.generate(workload, seed)
    assert len({tuple(wl.generate(workload, s)) for s in range(20)}) > 1


def test_seed_zero_reproduces_the_defining_values():
    deep = wl.generate("deep-grid", 0)
    assert [op.param("method") for op in deep] == ["wm", "wm-even", "wm-odd", "cfm"]
    assert all((op.param("v0"), op.param("h"), op.param("x_right"), op.param("n_probe"))
               == (10.0, 0.001, 10.0, 40) for op in deep)
    argv = [" ".join(op.param("argv")) for op in wl.generate("cli-readme", 0)]
    assert argv[:4] == [
        "solve --potential poschl-teller --v0 10 --h 0.005 --nr 2400",
        "scan --potential poschl-teller --v0 2.5 --h 0.01 --nr 500 --range -2.5:0 --probes 200",
        "saturate --potential poschl-teller --v0 2.5 --h 0.01 --nr 500 --energy -1",
        "oracle --potential box --range 0:60 --probes 150",
    ]
    wide = {op.name: op for op in wl.generate("wide-window", 0)}
    assert wide["quartic-wm"].param("window") == (0.0, 100.0)
    assert wide["dw-cfm"].param("window") == (-6.25, 3.75)
    assert wide["radial-wm"].param("window") == (-10.0, 0.0)


def test_census_and_seed_outcomes_cover_every_variant():
    census = cs.load()
    seed_outputs = harness.load_seed_outputs()
    for workload in wl.WORKLOADS:
        for op in wl.all_ops(workload):
            assert op.key in census
            if op.name in wl.KNOWN_DEFECTS:
                assert op.key in seed_outputs["expected"]
            if op.kind == "cli":
                assert op.key in seed_outputs["golden"]


def test_a_failed_cli_op_is_not_as_expected():
    op = wl.generate("cli-readme", 0)[0]
    chk = harness.check(op, harness.Output(code=2, stdout=""), cs.load()[op.key])
    assert not chk.ok and not chk.as_expected(None)
    assert chk.missing == chk.ref == 4


# --- tracer ----------------------------------------------------------------

def _traced(preps, tracer):
    problems = [None if p.problem is None else tracer.wrap_problem(p.problem) for p in preps]
    tracer.reset()
    outs = harness.run_pass(preps, tracer, problems)[3]
    return outs


@pytest.fixture(scope="module")
def deep_grid_traced(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("bench"))
    ops = [op for op in wl.generate("deep-grid", 0) if op.param("method") in ("wm", "cfm")]
    plain = harness.run_pass(harness.prepare(ops, tmp))[3]
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = _traced(harness.prepare(ops, tmp), tracer)
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    return plain, traced, metrics


def test_traced_deep_grid_reproduces_the_pinned_sweep_counts(deep_grid_traced):
    _, _, metrics = deep_grid_traced
    assert metrics["integrate.pairs.wm"] == 51
    assert metrics["integrate.pairs.cfm"] == 53
    assert metrics["integrate.pairs"] == 51 + 53


def test_traced_results_are_bit_identical(deep_grid_traced, tmp_path):
    plain, traced, _ = deep_grid_traced
    assert traced == plain
    ops = [op for op in wl.generate("cli-readme", 0)
           if op.name in ("saturate-pt2.5", "oracle-box", "solve-inline")]
    plain = harness.run_pass(harness.prepare(ops, str(tmp_path)))[3]
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = _traced(harness.prepare(ops, str(tmp_path)), tracer)
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert metrics["cli.wall_s"] > 0 and metrics["oracle.fd_s"] > 0


def test_uninstall_restores_every_name():
    from boundstates import cli, integrate, roots

    before = (integrate._march, roots.scan_brackets, cli.canonical_pair, cli.build_problem)
    tracer = tr.Tracer()
    tracer.install()
    assert roots.scan_brackets is not before[1]
    tracer.uninstall()
    assert (integrate._march, roots.scan_brackets, cli.canonical_pair,
            cli.build_problem) == before


def test_a_missing_name_is_a_missing_layer(monkeypatch, tmp_path):
    from boundstates import cli

    monkeypatch.delattr(cli, "fd_box_recurrence_eigenvalues")
    ops = [wl.generate("wide-window", 0)[0]]  # the box, which needs no CLI
    plain = harness.run_pass(harness.prepare(ops, str(tmp_path)))[3]
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = _traced(harness.prepare(ops, str(tmp_path)), tracer)
        passes = [tracer.pass_metrics()]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.missing == [("oracle", "boundstates.cli.fd_box_recurrence_eigenvalues")]
    summary = tr.summarize(passes, 0.1, tracer.missing)
    assert not any(name.startswith("oracle.") for name in summary)
    assert summary["trace.missing_layers"]["value"] == 1
    assert summary["roots.brackets"]["value"] == 3


def test_a_renamed_problem_field_is_a_missing_layer():
    problem = wl.build_problem(wl.generate("deep-grid", 0)[0])
    tracer = tr.Tracer()
    assert tracer.wrap_problem(object()) is not None
    assert tracer.missing == [("potentials", "Problem fields")]
    wrapped = tracer.wrap_problem(problem)
    assert wrapped.potential.evaluate is not problem.potential.evaluate
    summary = tr.summarize([tracer.pass_metrics()], 0.1, tracer.missing)
    assert not any(name.startswith("potentials.") for name in summary)


# --- running without the package ----------------------------------------

def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
