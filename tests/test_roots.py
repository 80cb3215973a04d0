"""Scanning, pole rejection, refinement, and the end-to-end eigenvalue driver."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from boundstates import (
    Bracket,
    anharmonic,
    box_characteristic_analytic,
    box_exact_energy,
    find_eigenvalues,
    infinite_well,
    poschl_teller,
    poschl_teller_exact_energies,
    radial,
    refine_root,
    scan_brackets,
)
from boundstates.core import CharacteristicFunction, Evaluation, RefinementError
from boundstates.integrate import sample_potential
from boundstates.roots import RefinementWarning, _default_probes, characteristic_for


def _plain(f):
    def fn(e):
        return Evaluation(f(e))
    return CharacteristicFunction(fn, label="synthetic")


def test_scan_and_refine_cubic():
    fn = _plain(lambda e: (e - 2.0) * (e + 1.0) * (e - 7.0))
    brackets = scan_brackets(fn, (-3.05, 7.95), 110)
    assert len(brackets) == 3
    assert not any(b.pole_suspect for b in brackets)
    roots = sorted(refine_root(fn, b, tol_e=1e-12) for b in brackets)
    assert roots == pytest.approx([-1.0, 2.0, 7.0], abs=1e-10)


def test_scan_handles_an_exact_probe_zero():
    fn = _plain(lambda e: e)
    brackets = scan_brackets(fn, (-1.0, 1.0), 4)
    assert brackets
    for b in brackets:
        assert abs(refine_root(fn, b)) <= 1e-10


@pytest.mark.parametrize("f, edge", [
    pytest.param(lambda e: e - 1.0, 1.0, id="rising-at-lo"),
    pytest.param(lambda e: 1.0 - e, 1.0, id="falling-at-lo"),
    pytest.param(lambda e: 2.0 - e, 2.0, id="falling-at-hi"),
    pytest.param(lambda e: e - 2.0, 2.0, id="rising-at-hi"),
])
def test_scan_keeps_an_exact_zero_on_a_window_edge(f, edge):
    # a zero on the first probe has no left neighbour, and one on the last
    # probe has no right neighbour: each comes back as a zero-width bracket
    fn = _plain(f)
    brackets = scan_brackets(fn, (1.0, 2.0), 10)
    assert brackets == [Bracket(edge, edge, 0.0, 0.0)]
    assert refine_root(fn, brackets[0]) == edge


def test_scan_bridges_flagged_probes():
    def fn(e):
        if abs(e) < 1e-9:
            return Evaluation(math.nan, "pole")
        return Evaluation(e - 0.05)

    char = CharacteristicFunction(fn, label="gapped")
    brackets = scan_brackets(char, (-1.0, 1.0), 10)
    assert len(brackets) == 1
    assert not brackets[0].pole_suspect
    assert refine_root(char, brackets[0]) == pytest.approx(0.05, abs=1e-9)


def test_scan_marks_a_pole_sign_change_as_suspect():
    def fn(e):
        if e == 3.0:
            return Evaluation(math.nan, "pole")
        return Evaluation(1.0 / (e - 3.0))

    char = CharacteristicFunction(fn, label="pole")
    brackets = scan_brackets(char, (2.0, 4.0), 37)
    assert len(brackets) == 1
    assert brackets[0].pole_suspect
    with pytest.raises(RefinementError):
        refine_root(char, brackets[0])


def test_scan_warns_when_everything_is_flagged():
    fn = CharacteristicFunction(lambda e: Evaluation(math.nan, "overflow"),
                                label="dead")
    with pytest.warns(RefinementWarning):
        assert scan_brackets(fn, (0.0, 1.0), 10) == []


@pytest.mark.parametrize("flagged, spans", [
    pytest.param({3}, [], id="lone-probe"),
    pytest.param({0}, [], id="lone-edge-probe"),
    pytest.param({0, 1}, [(0.0, 0.1)], id="run-at-lo"),
    pytest.param({4, 5, 6}, [(0.4, 0.6)], id="inner-run"),
    pytest.param({9, 10}, [(0.9, 1.0)], id="run-at-hi"),
    pytest.param({0, 1, 5, 9, 10}, [(0.0, 0.1), (0.9, 1.0)], id="two-runs"),
])
def test_scan_warns_about_each_run_of_flagged_probes_covering_a_cell(flagged, spans):
    # a cell with both ends flagged is blind; a lone flagged probe is not
    def fn(e):
        return Evaluation(math.nan, "overflow") if round(10 * e) in flagged else Evaluation(e - 0.55)

    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        scan_brackets(CharacteristicFunction(fn, label="runs"), (0.0, 1.0), 10)
    messages = [str(w.message) for w in record if w.category is RefinementWarning]
    assert len(messages) == len(spans)
    for message, (a, b) in zip(messages, spans):
        assert f"every probe from {a:.9g} to {b:.9g} was flagged" in message


def test_a_level_inside_a_flagged_run_is_not_lost_quietly():
    # wm-even overflows at every probe from -10 to -6.35 on this grid, and the
    # even level -8 lies there
    problem = poschl_teller(10.0, h=0.01, x_right=200.0)
    with pytest.warns(RefinementWarning, match=r"every probe from -10 to -6\.35 was flagged"):
        results = find_eigenvalues(problem, method="wm-even")
    assert [r.energy for r in results] == pytest.approx([-2.0], abs=1e-6)


def test_scan_range_validation():
    fn = _plain(lambda e: e)
    with pytest.raises(ValueError):
        scan_brackets(fn, (1.0, 0.0))
    assert scan_brackets(fn, (1.0, 1.0)) == []


def test_scan_probes_as_many_cells_as_asked():
    energies = []

    def fn(e):
        energies.append(e)
        return Evaluation(e - 0.3)

    char = CharacteristicFunction(fn, label="counted")
    # one cell is its two edges, lo and hi
    assert len(scan_brackets(char, (0.0, 1.0), 1)) == 1
    assert energies == [0.0, 1.0]
    for n_probe in (0, -2):
        with pytest.raises(ValueError):
            scan_brackets(char, (0.0, 1.0), n_probe)


def test_refine_degenerate_bracket_returns_its_point():
    fn = _plain(lambda e: e - 2.0)
    assert refine_root(fn, Bracket(2.0, 2.0, 0.0, 0.0)) == 2.0


@pytest.mark.parametrize("x0", [0.125, 0.4])
def test_analytic_box_census_rejects_poles(x0):
    fn = CharacteristicFunction(lambda e: box_characteristic_analytic(e, x0),
                                label="box-analytic")
    brackets = scan_brackets(fn, (0.5, 60.0), 300)
    clean = [b for b in brackets if not b.pole_suspect]
    suspects = [b for b in brackets if b.pole_suspect]
    assert len(clean) == 3
    assert len(suspects) == 3
    roots = sorted(refine_root(fn, b, tol_e=1e-12) for b in clean)
    for n, root in enumerate(roots, start=1):
        assert abs(root - box_exact_energy(n)) <= 1e-10
    for b in suspects:
        with pytest.raises(RefinementError):
            refine_root(fn, b)


@pytest.mark.parametrize("method", ["wm", "cfm"])
def test_find_eigenvalues_full_census(method):
    prob = poschl_teller(2.5, h=0.01, x_right=10.0)
    results = find_eigenvalues(prob, method=method)
    exact = poschl_teller_exact_energies(2.5)
    assert len(results) == len(exact) == 2
    for res, ref in zip(results, exact):
        assert abs(res.energy - ref) < 1e-5
    assert [r.index for r in results] == [0, 1]
    assert [r.parity for r in results] == ["even", "odd"]
    assert [r.node_count for r in results] == [0, 1]
    assert all(r.residual < 1e-6 for r in results)


def test_find_eigenvalues_parity_split_matches_full():
    prob = poschl_teller(2.5, h=0.01, x_right=10.0)
    even = find_eigenvalues(prob, method="wm-even")
    odd = find_eigenvalues(prob, method="wm-odd")
    assert [len(even), len(odd)] == [1, 1]
    full = find_eigenvalues(prob, method="wm")
    assert even[0].energy == pytest.approx(full[0].energy, abs=1e-9)
    assert odd[0].energy == pytest.approx(full[1].energy, abs=1e-9)


def test_double_well_doublet_resolved_by_parity():
    prob = anharmonic(-4.0, 0.5, h=0.01)
    even = find_eigenvalues(prob, method="wm-even", energy_range=(-7.5, -4.0))
    odd = find_eigenvalues(prob, method="wm-odd", energy_range=(-7.5, -4.0))
    assert len(even) == 1 and len(odd) == 1
    # a near-degenerate tunneling pair around the harmonic estimate -6
    assert -6.5 < even[0].energy < -5.5
    assert 0.0 < odd[0].energy - even[0].energy < 0.01


def test_parity_methods_reject_asymmetric_problems():
    box = infinite_well(x0=0.25, h=0.005)
    for method in ("wm-even", "wm-odd"):
        with pytest.raises(ValueError):
            find_eigenvalues(box, method=method)


def test_unknown_method_is_rejected():
    prob = poschl_teller(2.5)
    with pytest.raises(ValueError):
        find_eigenvalues(prob, method="secret")


# the levels these runs return; quartic overflow loses the rest (wm finds 3
# of the 25 levels below 100, cfm 8)
QUARTIC_LEVELS = {
    "wm": [87.44199421223368, 92.6612440197743, 97.9550918995659],
    "cfm": [62.5479872695082, 67.3575683251413, 72.2546604252815, 77.23624163344077,
            82.29953835697926, 87.44199421223391, 92.6612440197743, 97.9550918995659],
}


@pytest.mark.parametrize("method", ["wm", "cfm"])
def test_overflowing_probes_emit_no_numpy_warning(method):
    problem = anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = find_eigenvalues(problem, method=method, n_probe=200)
    assert [r.energy for r in results] == pytest.approx(QUARTIC_LEVELS[method], abs=1e-9)


@pytest.mark.parametrize("method", ["wm", "wm-even", "wm-odd", "cfm"])
def test_probes_past_the_double_range_are_flagged_not_raised(method):
    # the quartic's boundary members are anchored at x_right; every march
    # reaches it, so none is read where math.exp would overflow
    problem = anharmonic(0.0, 1.0, h=0.01, energy_max=1000.0)
    fn = characteristic_for(problem, method)
    evals = fn.evaluate_many(np.linspace(0.0, 20.0, _default_probes(0.0, 20.0) + 1))
    assert len(evals) == 401
    assert all(ev.ok or ev.flag == "overflow" for ev in evals)


def _counting(problem):
    # the same problem with its v(x) calls counted in calls[0]
    calls = [0]
    v = problem.potential.evaluate

    def counted(x):
        calls[0] += 1
        return v(x)

    pot = dataclasses.replace(problem.potential, evaluate=counted)
    return dataclasses.replace(problem, potential=pot), calls


@pytest.mark.parametrize("method", ["wm", "wm-odd", "cfm"])
def test_a_solve_samples_the_potential_once(method):
    problem, calls = _counting(poschl_teller(2.5, h=0.01, x_right=5.0))
    sample_potential(problem.potential, problem.grid)
    once = calls[0]
    calls[0] = 0
    results = find_eigenvalues(problem, method=method)
    assert results
    assert calls[0] == once


@pytest.mark.parametrize("method, dropped", [
    pytest.param("wm-even", ["108.758121"], id="wm-even"),
    pytest.param("wm-odd", ["103.321137", "114.263952"], id="wm-odd"),
])
def test_a_level_that_fails_to_assemble_is_dropped_not_fatal(method, dropped):
    # the pair outgrows the double range at these roots; every other level of
    # the solve still comes back, without a numpy warning
    problem = anharmonic(0.0, 1.0, h=0.005, energy_max=200.0)
    with pytest.warns(RefinementWarning) as record:
        results = find_eigenvalues(problem, method=method)
    messages = [str(w.message) for w in record if w.category is RefinementWarning]
    for energy in dropped:
        assert any(m.startswith(f"level at {energy} dropped") for m in messages)
    assert len(results) == 7
    assert [r.index for r in results] == list(range(7))
    assert all(abs(r.energy - float(e)) > 1.0 for r in results for e in dropped)


# --- node counts against spectral position ----------------------------------

NODE_PROBLEMS = {
    "poschl-teller": poschl_teller(10.0, h=0.01, x_right=12.0),
    "box": infinite_well(x0=0.4, h=0.01, energy_max=60.0),
    "anharmonic": anharmonic(2.0, 0.5),
    "radial": radial(lambda r: -10.0 * math.exp(-r)),
    "quartic": anharmonic(0.0, 1.0, h=0.01, energy_max=100.0),
    "double-well": anharmonic(-5.0, 1.0, h=0.005),
}


def _defect(problem, method, reason):
    return pytest.param(problem, method, id=f"{problem}-{method}",
                        marks=pytest.mark.xfail(strict=True, reason=reason))


OVERFLOW = "levels lost to overflow: the lowest level found is not the ground state"
DOUBLET = "the ground doublet lies inside one probe cell and is missed"


@pytest.mark.parametrize("problem, method", [
    *(pytest.param(p, m, id=f"{p}-{m}")
      for p in ("poschl-teller", "box", "anharmonic", "radial") for m in ("wm", "cfm")),
    pytest.param("box", "dirichlet", id="box-dirichlet"),
    _defect("quartic", "wm", OVERFLOW),
    _defect("quartic", "cfm", OVERFLOW),
    _defect("double-well", "wm", DOUBLET),
    _defect("double-well", "cfm", DOUBLET),
])
def test_node_count_matches_spectral_position(problem, method):
    # position only: an energy off the true level but in the right order passes
    results = find_eigenvalues(NODE_PROBLEMS[problem], method=method)
    assert len(results) >= 2
    assert [r.node_count for r in results] == [r.index for r in results]


@pytest.mark.parametrize("problem", ["poschl-teller", "anharmonic", "quartic", "double-well"])
@pytest.mark.parametrize("parity, offset", [("even", 0), ("odd", 1)])
def test_parity_node_counts_interleave(problem, parity, offset):
    results = find_eigenvalues(NODE_PROBLEMS[problem], method=f"wm-{parity}")
    assert len(results) >= 2
    assert [r.node_count for r in results] == [2 * r.index + offset for r in results]
