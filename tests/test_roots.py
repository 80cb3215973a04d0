"""Scanning, pole rejection, refinement, and the end-to-end eigenvalue driver."""

import dataclasses
import math
import warnings

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
    refine_root,
    scan_brackets,
)
from boundstates.core import CharacteristicFunction, Evaluation, RefinementError
from boundstates.integrate import sample_potential
from boundstates.roots import RefinementWarning


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


def test_scan_range_validation():
    fn = _plain(lambda e: e)
    with pytest.raises(ValueError):
        scan_brackets(fn, (1.0, 0.0))
    assert scan_brackets(fn, (1.0, 1.0)) == []


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
