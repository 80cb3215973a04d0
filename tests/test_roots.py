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
from boundstates import roots
from boundstates.core import (
    REGULAR_ORIGIN,
    CharacteristicFunction,
    DegenerateRootError,
    Evaluation,
    RefinementError,
)
from boundstates.integrate import sample_potential
from boundstates.roots import (
    METHODS,
    RefinementWarning,
    _default_probes,
    _refine_lockstep,
    _subdivide,
    characteristic_for,
)


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


def _flagged_at(f, flagged):
    # f, with the probes in `flagged` flagged as overflow
    def fn(e):
        return Evaluation(math.nan, "overflow") if e in flagged else Evaluation(f(e))
    return CharacteristicFunction(fn, label="flagged")


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
@pytest.mark.parametrize("flagged", [(), (-0.5,)], ids=["clean", "left-flagged"])
def test_an_exact_probe_zero_is_one_bracket_whichever_way_f_crosses(sign, flagged):
    # the zero's nearest unflagged neighbours bracket it; a zero has no sign,
    # so neither pair that holds it is a sign change of its own
    fn = _flagged_at(lambda e: sign * e, flagged)
    brackets = scan_brackets(fn, (-1.0, 1.0), 4)
    assert len(brackets) == 1
    assert brackets[0].lo < 0.0 < brackets[0].hi
    assert abs(refine_root(fn, brackets[0])) <= 1e-10


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
def test_an_exact_zero_with_no_unflagged_neighbour_is_its_own_bracket(sign):
    # every probe left of the zero is flagged, as on a window edge
    fn = _flagged_at(lambda e: sign * e, (-1.0, -0.5))
    with pytest.warns(RefinementWarning, match="every probe from -1 to -0.5"):
        brackets = scan_brackets(fn, (-1.0, 1.0), 4)
    assert brackets == [Bracket(0.0, 0.0, 0.0, 0.0)]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
def test_subdivide_brackets_an_exact_zero_whichever_way_f_crosses(sign):
    # the tenfold zoom of (-1, 1) probes 0 exactly
    fn = _plain(lambda e: sign * e)
    brackets = _subdivide(fn, -1.0, 1.0, -sign, sign)
    assert len(brackets) == 1
    assert brackets[0].lo < 0.0 < brackets[0].hi
    assert not brackets[0].pole_suspect


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


@pytest.mark.parametrize("window", [(-2.5, math.inf), (-math.inf, 0.0), (math.nan, 0.0)],
                         ids=["inf-hi", "inf-lo", "nan"])
@pytest.mark.parametrize("n_probe", [None, 10])
def test_a_non_finite_window_is_rejected_by_name(window, n_probe):
    fn = _plain(lambda e: e)
    with pytest.raises(ValueError, match="energy window must be finite"):
        scan_brackets(fn, window, n_probe)
    with pytest.raises(ValueError, match="energy window must be finite"):
        find_eigenvalues(poschl_teller(2.5, h=0.02, x_right=5.0), energy_range=window,
                         n_probe=n_probe)


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


@pytest.mark.parametrize("power", [3, 5])
def test_refinement_reaches_a_root_where_f_is_flat(power):
    # |F| falls below 1e-12 of its entry scale up to 1e-4 (cube) or 4e-3
    # (fifth power) from the root, where the bracket is still wide
    def f(e):
        return (e - 0.1) ** power

    fn, bracket = _plain(f), Bracket(0.0, 1.0, f(0.0), f(1.0))
    root = refine_root(fn, bracket, tol_e=1e-14)
    assert abs(root - 0.1) <= 1e-10
    assert _outcome(root) == _outcome(_scalar_refine(fn, bracket, tol_e=1e-14))


def _one_by_one(char_fn, brackets, **kwargs):
    # refine_root on each bracket alone: its root or the error that dropped it
    out = []
    for br in brackets:
        try:
            out.append(refine_root(char_fn, br, **kwargs))
        except RefinementError as exc:
            out.append(exc)
    return out


def _scalar_refine(char_fn, bracket, tol_e=1e-10, max_iter=200):
    # the reference: one bracket's Anderson-Bjorck false position, evaluating
    # one energy at a time through char_fn(e). flo and fhi are the stored
    # values the false position reads; the true F decides every test. Where
    # |F| falls below the stop at an end, the next iteration checks the
    # point tol_e past it: the same sign there moves that end to it and
    # makes the iteration after a bisection
    lo, hi, flo, fhi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if hi == lo:
        return lo
    fscale = max(abs(flo), abs(fhi))
    kept = None
    settled = None
    bisect = False
    for _ in range(max_iter):
        if hi - lo < tol_e:
            return 0.5 * (lo + hi)
        if settled is not None:
            at_lo = settled == lo
            x = settled + tol_e if at_lo else settled - tol_e
            f = char_fn(x)
            f_end = flo if at_lo else fhi
            if math.isnan(f) or f == 0.0 or (f < 0) != (f_end < 0):
                return settled
            if at_lo:
                lo, flo = x, f
            else:
                hi, fhi = x, f
            settled, kept, bisect = None, None, True
            continue
        mid = cand = 0.5 * (lo + hi)
        if fhi != flo and not bisect:
            x = hi - fhi * (hi - lo) / (fhi - flo)
            if lo < x < hi:
                cand = x
        f = char_fn(cand)
        if math.isnan(f) and cand != mid:
            cand = mid
            f = char_fn(cand)
        bisect = False
        if math.isnan(f):
            return RefinementError(f"flagged evaluation at {cand!r} inside bracket", lo, hi)
        if abs(f) > 1e3 * fscale:
            return RefinementError(
                f"|F| ran away at {cand!r}; bracket straddles a pole", lo, hi)
        if f == 0.0:
            return cand
        if (f < 0) == (flo < 0):
            if kept == "hi":
                m = 1.0 - f / flo
                fhi *= m if m > 0.0 else 0.5
            lo, flo, kept = cand, f, "hi"
        else:
            if kept == "lo":
                m = 1.0 - f / fhi
                flo *= m if m > 0.0 else 0.5
            hi, fhi, kept = cand, f, "lo"
        if abs(f) < 1e-12 * fscale:
            if hi - lo < tol_e:
                return cand
            settled = cand
    return RefinementError(f"no convergence in {max_iter} iterations", lo, hi)


def _outcome(out):
    # a root's bits, or an error's text and best bracket
    if isinstance(out, RefinementError):
        return ("error", str(out), out.lo, out.hi)
    return ("root", float(out).hex())


def _mixed(e):
    # a converging cubic, a pole at 3, a flagged region holding both the
    # false position and the midpoint of [5, 6], and one holding only the
    # first false position of [6.5, 8]
    if 5.2 < e < 5.6 or 7.02 < e < 7.05:
        return Evaluation(math.nan, "overflow")
    if e < 2.0:
        return Evaluation((e - 1.1) ** 3 + 0.001 * (e - 1.1))
    if e < 4.0:
        return Evaluation(1.0 / (e - 3.0)) if e != 3.0 else Evaluation(math.nan, "pole")
    if e < 6.2:
        return Evaluation(e - 5.4)
    return Evaluation(e * e - 50.0)


MIXED_BRACKETS = [
    Bracket(0.4, 1.7, _mixed(0.4).value, _mixed(1.7).value),
    Bracket(2.6, 3.7, _mixed(2.6).value, _mixed(3.7).value),
    Bracket(4.0, 4.0, 0.0, 0.0),
    Bracket(5.0, 6.0, _mixed(5.0).value, _mixed(6.0).value),
    Bracket(6.5, 8.0, _mixed(6.5).value, _mixed(8.0).value),
]


@pytest.mark.parametrize("max_iter, kinds", [
    pytest.param(200, ["root", "ran away", "root", "flagged evaluation", "root"], id="converging"),
    pytest.param(6, ["no convergence", "no convergence", "root", "flagged evaluation",
                     "root"], id="runs-out"),
])
def test_lockstep_refinement_equals_one_bracket_at_a_time_on_failures(max_iter, kinds):
    # brackets that fail leave the batch early; the rest go on unchanged
    fn = CharacteristicFunction(_mixed, label="mixed")
    together = [_outcome(o) for o in _refine_lockstep(fn, MIXED_BRACKETS, 1e-10, max_iter)]
    assert together == [_outcome(o) for o in _one_by_one(fn, MIXED_BRACKETS, max_iter=max_iter)]
    assert together == [_outcome(_scalar_refine(fn, b, max_iter=max_iter)) for b in MIXED_BRACKETS]
    for (status, text, *_), kind in zip(together, kinds):
        assert status == "root" if kind == "root" else kind in text


LOCKSTEP_SOLVES = {
    "quartic-cfm": (anharmonic(0.0, 1.0, h=0.01, energy_max=100.0), "cfm", (0.0, 100.0), 200),
    "box-dirichlet": (infinite_well(x0=0.5, h=0.002, energy_max=60.0), "dirichlet",
                      (0.0, 60.0), None),
}


@pytest.mark.parametrize("name", LOCKSTEP_SOLVES)
def test_lockstep_refinement_equals_one_bracket_at_a_time(name):
    problem, method, window, n_probe = LOCKSTEP_SOLVES[name]
    fn = characteristic_for(problem, method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RefinementWarning)
        brackets = scan_brackets(fn, window, n_probe)
    assert len(brackets) == {"quartic-cfm": 25, "box-dirichlet": 3}[name]
    together = _refine_lockstep(fn, brackets, 1e-10, 200)
    assert [_outcome(o) for o in together] == [_outcome(o) for o in _one_by_one(fn, brackets)]
    assert [_outcome(o) for o in together] == [_outcome(_scalar_refine(fn, b)) for b in brackets]
    assert not any(isinstance(o, RefinementError) for o in together)


def test_find_eigenvalues_warns_about_dropped_brackets_in_bracket_order():
    # over 300 probes, four iterations refine 8 of the 25 quartic brackets
    # and drop the other 17; the warnings name them as one-at-a-time
    # refinement would
    problem, method, window, _ = LOCKSTEP_SOLVES["quartic-cfm"]
    fn = characteristic_for(problem, method)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        brackets = scan_brackets(fn, window, 300)
        alone = _one_by_one(fn, brackets, max_iter=4)
    dropped = [k for k, o in enumerate(alone) if isinstance(o, RefinementError)]
    assert len(alone) == 25
    assert dropped == [1, 2, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 16, 18, 20, 22, 24]
    expected = [str(w.message) for w in record] + [
        f"bracket [{b.lo:.9g}, {b.hi:.9g}] dropped: {o}"
        for b, o in zip(brackets, alone) if isinstance(o, RefinementError)]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        results = find_eigenvalues(problem, method, window, 300, max_iter=4)
    assert [str(w.message) for w in record if w.category is RefinementWarning] == expected
    assert len(expected) == 17
    assert [r.energy for r in results] == [a for a in alone if not isinstance(a, RefinementError)]


def _counted_marches(monkeypatch):
    # calls[0] counts the batched endpoint marches the characteristics make
    calls = [0]
    march = roots.canonical_endpoints

    def counted(*args, **kwargs):
        calls[0] += 1
        return march(*args, **kwargs)

    monkeypatch.setattr(roots, "canonical_endpoints", counted)
    return calls


def test_quartic_refinement_marches_once_per_iteration(monkeypatch):
    # the scan, then one batched march per lockstep iteration over all 25
    # brackets, the last checking the stops: 8 marches
    calls = _counted_marches(monkeypatch)
    problem = anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)
    results = find_eigenvalues(problem, "cfm", (0.0, 100.0), 200)
    assert len(results) == 25
    assert calls[0] <= 8


@pytest.mark.parametrize("problem, method, window, n_probe, levels, most", [
    # the scan and 3 lockstep iterations: 4 marches
    pytest.param(infinite_well(x0=0.5, h=0.002, energy_max=60.0), "dirichlet", (0.0, 60.0),
                 None, 3, 5, id="box-dirichlet"),
    # 7 marches
    pytest.param(radial(lambda r: -10.0 * math.exp(-r), h=0.005), "wm", (-10.0, 0.0),
                 200, 2, 8, id="radial-wm"),
])
def test_false_position_refinement_takes_few_marches(monkeypatch, problem, method, window,
                                                     n_probe, levels, most):
    calls = _counted_marches(monkeypatch)
    results = find_eigenvalues(problem, method, window, n_probe)
    assert len(results) == levels
    assert calls[0] <= most


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


# the methods each catalog problem admits: parity splitting needs a symmetric
# problem, the two-wall determinant hard walls on both sides
ADMITTED = {
    "poschl-teller": (poschl_teller(2.5, h=0.01, x_right=5.0), {"wm", "wm-even", "wm-odd", "cfm"}),
    "anharmonic": (anharmonic(0.0, 1.0, h=0.01, energy_max=10.0),
                   {"wm", "wm-even", "wm-odd", "cfm"}),
    "box-x0-0.25": (infinite_well(x0=0.25, h=0.005), {"wm", "cfm", "dirichlet"}),
    "radial": (radial(lambda r: -1.0 / r, l=0, h=0.01, r_max=10.0), {"wm", "cfm"}),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ADMITTED)
def test_each_method_builds_on_the_catalog_problems_it_admits(name, method):
    problem, admitted = ADMITTED[name]
    if method not in admitted:
        with pytest.raises(ValueError):
            characteristic_for(problem, method)
        return
    fn = characteristic_for(problem, method)
    assert fn.label == method
    energy = 0.5 * sum(problem.energy_range)
    ev = fn.evaluate(energy)
    assert ev.ok and ev == fn.evaluate_many([energy])[0]


def _fd_levels(problem, window):
    # the levels of -psi''/2 + v psi between walls at the ends of the
    # reflected grid, by the second-difference tridiagonal,
    # Richardson-extrapolated over two steps
    from scipy.linalg import eigh_tridiagonal

    x_hi = problem.grid.x_right
    fd = []
    for step in (0.01, 0.005):
        n = int(round(2.0 * x_hi / step))
        x = -x_hi + step * np.arange(1, n)
        diag = 1.0 / step ** 2 + np.array([problem.potential.evaluate(xi) for xi in x])
        off = np.full(n - 2, -0.5 / step ** 2)
        fd.append(eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                   select_range=(window[0] - 1.0, window[1] + 1.0)))
    coarse, fine = fd
    assert len(coarse) == len(fine)
    return [float(e) for e in (4.0 * fine - coarse) / 3.0 if window[0] <= e <= window[1]]


@pytest.mark.parametrize("method", ["wm", "cfm"])
def test_overflowing_probes_emit_no_numpy_warning(method):
    # the pairs grow to 1e166 on this grid while their products overflow;
    # the scale-free rows keep every level, each within the 5e-3 that RK4 at
    # h = 0.01 allows near E = 100
    problem = anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = find_eigenvalues(problem, method=method, n_probe=200)
    levels = _fd_levels(problem, (0.0, 100.0))
    assert len(levels) == 25
    assert [r.energy for r in results] == pytest.approx(levels, abs=5e-3)
    assert [r.node_count for r in results] == list(range(25))


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


@pytest.mark.parametrize("method, levels", [
    pytest.param("wm-even", 13, id="wm-even"),
    pytest.param("wm-odd", 12, id="wm-odd"),
])
def test_a_level_that_fails_to_assemble_is_dropped_not_fatal(method, levels, monkeypatch):
    # assembly fails at the third root; every other level of the solve still
    # comes back, re-indexed, with a warning that names the dropped energy
    problem = anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)
    energies = [r.energy for r in find_eigenvalues(problem, method=method)]
    assert len(energies) == levels
    assemble = roots.wm_eigenfunction

    def failing(problem, root, pair=None):
        if root == energies[2]:
            raise DegenerateRootError(f"no direction at {root!r}")
        return assemble(problem, root, pair)

    monkeypatch.setattr(roots, "wm_eigenfunction", failing)
    with pytest.warns(RefinementWarning) as record:
        results = find_eigenvalues(problem, method=method)
    messages = [str(w.message) for w in record if w.category is RefinementWarning]
    assert messages == [f"level at {energies[2]:.9g} dropped: no direction at {energies[2]!r}"]
    assert [r.energy for r in results] == energies[:2] + energies[3:]
    assert [r.index for r in results] == list(range(levels - 1))


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


DOUBLET = "the ground doublet lies inside one probe cell and is missed"


@pytest.mark.parametrize("problem, method", [
    *(pytest.param(p, m, id=f"{p}-{m}")
      for p in ("poschl-teller", "box", "anharmonic", "radial") for m in ("wm", "cfm")),
    pytest.param("box", "dirichlet", id="box-dirichlet"),
    pytest.param("quartic", "wm", id="quartic-wm"),
    pytest.param("quartic", "cfm", id="quartic-cfm"),
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


def test_cfm_returns_every_box_level_with_a_centred_origin():
    # with x0 = 0.5 the odd level is ∝ S, where both ratios C/S have a pole
    problem = infinite_well(h=0.01, energy_max=60.0)
    wm = [r.energy for r in find_eigenvalues(problem, method="wm")]
    cfm = [r.energy for r in find_eigenvalues(problem, method="cfm")]
    assert len(wm) == 3
    assert cfm == pytest.approx(wm, abs=1e-8)


def test_radial_cfm_takes_its_left_row_from_the_origin_reference():
    # psi goes as r^(l+1) at the origin instead of vanishing at r_min = 10 h;
    # a wall there moves the ground level to -3.074 and loses the other
    problem = radial(lambda r: -10.0 * math.exp(-r), h=0.005)
    assert problem.asymptotics.left_kind == REGULAR_ORIGIN
    wm = [r.energy for r in find_eigenvalues(problem, "wm", (-10.0, 0.0), 200)]
    cfm = find_eigenvalues(problem, "cfm", (-10.0, 0.0), 200)
    assert wm == pytest.approx([-3.30951, -0.71138], abs=1e-5)
    assert [r.energy for r in cfm] == pytest.approx(wm, abs=1e-7)
    assert [r.node_count for r in cfm] == [0, 1]
