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
    make_grid,
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
    # f, an expression that takes the batch's energy array, unflagged
    return CharacteristicFunction(lambda energies: Evaluation(f(energies)), label="synthetic")


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


def _flagged(f, hit, flag, label):
    # f on the batch, NaN flagged `flag` wherever hit(energies) holds
    def many(energies):
        at = hit(energies)
        return Evaluation(np.where(at, math.nan, f(energies)), np.where(at, flag, None))
    return CharacteristicFunction(many, label=label)


def _flagged_at(f, flagged):
    # f, with the probes in `flagged` flagged as overflow
    return _flagged(f, lambda energies: np.isin(energies, flagged), "overflow", "flagged")


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
    brackets = _subdivide(fn, -1.0, 1.0, -sign, sign, 0)
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
    char = _flagged(lambda e: e - 0.05, lambda e: np.abs(e) < 1e-9, "pole", "gapped")
    brackets = scan_brackets(char, (-1.0, 1.0), 10)
    assert len(brackets) == 1
    assert not brackets[0].pole_suspect
    assert refine_root(char, brackets[0]) == pytest.approx(0.05, abs=1e-9)


def test_scan_marks_a_pole_sign_change_as_suspect():
    def f(e):
        with np.errstate(divide="ignore"):
            return 1.0 / (e - 3.0)

    char = _flagged(f, lambda e: e == 3.0, "pole", "pole")
    brackets = scan_brackets(char, (2.0, 4.0), 37)
    assert len(brackets) == 1
    assert brackets[0].pole_suspect
    with pytest.raises(RefinementError):
        refine_root(char, brackets[0])


def test_scan_warns_when_everything_is_flagged():
    fn = _flagged(lambda e: e, lambda e: np.full(e.shape, True), "overflow", "dead")
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
    fn = _flagged(lambda e: e - 0.55, lambda e: np.isin(np.round(10 * e), list(flagged)),
                  "overflow", "runs")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        scan_brackets(fn, (0.0, 1.0), 10)
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
    batches = []

    def many(energies):
        batches.append(energies.tolist())
        return Evaluation(energies - 0.3)

    char = CharacteristicFunction(many, label="counted")
    # one cell is its two edges, lo and hi, in one batch
    assert len(scan_brackets(char, (0.0, 1.0), 1)) == 1
    assert batches == [[0.0, 1.0]]
    for n_probe in (0, -2):
        with pytest.raises(ValueError):
            scan_brackets(char, (0.0, 1.0), n_probe)
    # a whole float is that many cells
    assert len(scan_brackets(char, (0.0, 1.0), 2.0)) == 1
    assert batches[-1] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("n_probe", [2.7, math.inf, math.nan])
def test_a_probe_count_that_is_not_a_whole_number_is_rejected(n_probe):
    # 2.7 was truncated to 2 cells, one of the PT 2.5 levels lost without a
    # word; inf overflowed in the conversion
    problem = poschl_teller(2.5, h=0.01, x_right=5.0)
    with pytest.raises(ValueError, match="n_probe must be a whole number"):
        find_eigenvalues(problem, n_probe=n_probe)
    with pytest.raises(ValueError, match="n_probe must be a whole number"):
        scan_brackets(_plain(lambda e: e), (-1.0, 1.0), n_probe)


@pytest.mark.parametrize("tol_e", [math.nan, math.inf])
def test_a_tolerance_that_is_not_finite_is_rejected(tol_e):
    # no root passed roots()' dedupe check abs(root - last) > 10 tol_e, so
    # every level was lost without a warning
    problem = poschl_teller(2.5, h=0.01, x_right=5.0)
    with pytest.raises(ValueError, match="tol_e must be finite"):
        find_eigenvalues(problem, tol_e=tol_e)
    fn = _plain(lambda e: e - 0.25)
    brackets = scan_brackets(fn, (-1.0, 1.0), 8)
    for refine in (lambda: roots.roots(fn, brackets, tol_e=tol_e),
                   lambda: refine_root(fn, brackets[0], tol_e=tol_e)):
        with pytest.raises(ValueError, match="tol_e must be finite"):
            refine()


@pytest.mark.parametrize("max_iter", [0, 2.5, math.inf])
def test_an_iteration_cap_that_is_not_a_whole_number_of_at_least_one_is_rejected(max_iter):
    fn = _plain(lambda e: e - 0.25)
    with pytest.raises(ValueError, match="max_iter must be"):
        roots.roots(fn, scan_brackets(fn, (-1.0, 1.0), 8), max_iter=max_iter)


def test_refine_root_rejects_a_bracket_of_another_factor():
    # PT 2.5's odd level is a sign change of wm's odd factor; a bracket that
    # names the even factor, Bracket's default, would refine the wrong values
    fn = characteristic_for(poschl_teller(2.5, h=0.01, x_right=10.0), "wm")
    even, odd = scan_brackets(fn, (-2.5, -0.01), 60)
    assert (even.factor, odd.factor) == (0, 1)
    with pytest.raises(ValueError, match="does not hold the signs of factor 0 of 'wm'"):
        refine_root(fn, dataclasses.replace(odd, factor=0))
    for factor in (2, 5, -1):
        with pytest.raises(ValueError, match=f"factor {factor} "):
            refine_root(fn, dataclasses.replace(odd, factor=factor))
    assert [refine_root(fn, b) for b in (even, odd)] == roots.roots(fn, [even, odd])


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
    # one energy at a time, of the bracket's factor. flo and fhi are the stored
    # values the false position reads; the true F decides every test. Where
    # |F| falls below the stop at an end, the next iteration checks the
    # point tol_e past it: the same sign there moves that end to it and
    # makes the iteration after a bisection
    def value(e):
        return char_fn.evaluate(e).factors[bracket.factor]

    def tol():
        # tol_e, floored at 2 eps |x| over the bracket
        return max(tol_e, 2.0 * float(np.finfo(float).eps) * max(abs(lo), abs(hi)))

    lo, hi, flo, fhi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if hi == lo:
        return lo
    fscale = max(abs(flo), abs(fhi))
    kept = None
    settled = None
    bisect = False
    for _ in range(max_iter):
        if hi - lo < tol():
            return 0.5 * (lo + hi)
        if settled is not None:
            at_lo = settled == lo
            x = settled + tol() if at_lo else settled - tol()
            f = value(x)
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
        f = value(cand)
        if math.isnan(f) and cand != mid:
            cand = mid
            f = value(cand)
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
            if hi - lo < tol():
                return cand
            settled = cand
    return RefinementError(f"no convergence in {max_iter} iterations", lo, hi)


def _outcome(out):
    # a root's bits, or an error's text and best bracket
    if isinstance(out, RefinementError):
        return ("error", str(out), out.lo, out.hi)
    return ("root", float(out).hex())


def _mixed(energies):
    # a converging cubic, a pole at 3, a flagged region holding both the
    # false position and the midpoint of [5, 6], and one holding only the
    # first false position of [6.5, 8]
    e = np.asarray(energies, dtype=float)
    overflow = ((5.2 < e) & (e < 5.6)) | ((7.02 < e) & (e < 7.05))
    pole = e == 3.0
    with np.errstate(divide="ignore"):
        value = np.where(e < 2.0, (e - 1.1) ** 3 + 0.001 * (e - 1.1),
                         np.where(e < 4.0, 1.0 / (e - 3.0),
                                  np.where(e < 6.2, e - 5.4, e * e - 50.0)))
    return Evaluation(np.where(overflow | pole, math.nan, value),
                      np.where(overflow, "overflow", np.where(pole, "pole", None)))


MIXED_BRACKETS = [
    Bracket(0.4, 1.7, *_mixed([0.4, 1.7]).value.tolist()),
    Bracket(2.6, 3.7, *_mixed([2.6, 3.7]).value.tolist()),
    Bracket(4.0, 4.0, 0.0, 0.0),
    Bracket(5.0, 6.0, *_mixed([5.0, 6.0]).value.tolist()),
    Bracket(6.5, 8.0, *_mixed([6.5, 8.0]).value.tolist()),
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
    # the quartic's even and odd factors alternate
    assert [b.factor for b in brackets] == [k % 2 if problem.symmetric else 0
                                            for k in range(len(brackets))]
    together = _refine_lockstep(fn, brackets, 1e-10, 200)
    assert [_outcome(o) for o in together] == [_outcome(o) for o in _one_by_one(fn, brackets)]
    assert [_outcome(o) for o in together] == [_outcome(_scalar_refine(fn, b)) for b in brackets]
    assert not any(isinstance(o, RefinementError) for o in together)


def test_find_eigenvalues_warns_about_dropped_brackets_in_bracket_order():
    # over 300 probes, four iterations refine 9 of the 25 quartic brackets
    # and drop the other 16; the warnings name them as one-at-a-time
    # refinement would
    problem, method, window, _ = LOCKSTEP_SOLVES["quartic-cfm"]
    fn = characteristic_for(problem, method)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        brackets = scan_brackets(fn, window, 300)
        alone = _one_by_one(fn, brackets, max_iter=4)
    dropped = [k for k, o in enumerate(alone) if isinstance(o, RefinementError)]
    assert len(alone) == 25
    assert dropped == [0, 1, 2, 4, 6, 7, 8, 10, 12, 14, 15, 16, 18, 20, 22, 24]
    expected = [str(w.message) for w in record] + [
        f"bracket [{b.lo:.9g}, {b.hi:.9g}] dropped: {o}"
        for b, o in zip(brackets, alone) if isinstance(o, RefinementError)]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        results = find_eigenvalues(problem, method, window, 300, max_iter=4)
    assert [str(w.message) for w in record if w.category is RefinementWarning] == expected
    assert len(expected) == 16
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
    # symmetric problems: both parity factors' brackets share each batch
    pytest.param(poschl_teller(10.0, h=0.001, x_right=10.0), "wm", None, 40, 4, 4,
                 id="pt10-wm"),
    pytest.param(poschl_teller(10.0, h=0.001, x_right=10.0), "cfm", None, 40, 4, 5,
                 id="pt10-cfm"),
    pytest.param(anharmonic(0.0, 1.0, h=0.01, energy_max=100.0), "wm", (0.0, 100.0),
                 200, 25, 8, id="quartic-wm"),
    pytest.param(anharmonic(-5.0, 1.0, h=0.005), "wm", (-6.25, 3.75), 200, 5, 8,
                 id="double-well-wm"),
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
    # wm scans and refines the two factors wm-even and wm-odd scan alone, so
    # its levels are theirs, bit for bit: on PT 2.5 and on the deep PT10 grid
    for prob, n_probe, counts in ((poschl_teller(2.5, h=0.01, x_right=10.0), None, [1, 1]),
                                  (poschl_teller(10.0, h=0.001, x_right=10.0), 40, [2, 2])):
        even, odd, full = ([r.energy.hex() for r in find_eigenvalues(prob, m, n_probe=n_probe)]
                           for m in ("wm-even", "wm-odd", "wm"))
        assert [len(even), len(odd)] == counts
        assert full == [e.hex() for e in sorted(map(float.fromhex, even + odd))]


# an even and an odd level inside one probe cell: the determinant, their
# product, changes sign twice there, so a scan of it sees neither
DOUBLETS = {
    "double-well": (anharmonic(-5.0, 1.0, h=0.005), (-6.25, 3.75), 200,
                    [-4.13576, -4.11911, -0.75676, -0.21068, 1.92129]),
    "deep-double-well": (anharmonic(-10.0, 1.0, h=0.005), (-25.0, -19.0), None,
                         [-21.8896582827, -21.8896582294]),
}


@pytest.mark.parametrize("method", ["wm", "cfm"])
@pytest.mark.parametrize("name", DOUBLETS)
def test_a_doublet_inside_one_probe_cell_is_found(name, method):
    problem, (lo, hi), n_probe, levels = DOUBLETS[name]
    cell = (hi - lo) / (n_probe or _default_probes(lo, hi))
    # the ground doublet shares a probe cell
    assert math.floor((levels[0] - lo) / cell) == math.floor((levels[1] - lo) / cell)
    results = find_eigenvalues(problem, method, (lo, hi), n_probe)
    assert [r.energy for r in results] == pytest.approx(levels, abs=1e-5)
    assert [r.node_count for r in results] == list(range(len(levels)))
    assert [r.parity for r in results] == [("even", "odd")[i % 2] for i in range(len(levels))]
    if method == "wm":
        split = [r.energy for m in ("wm-even", "wm-odd")
                 for r in find_eigenvalues(problem, m, (lo, hi), n_probe)]
        assert [r.energy for r in results] == sorted(split)


@pytest.mark.parametrize("method", ["wm", "cfm"])
def test_a_doublet_split_below_the_dedupe_distance_keeps_both_levels(method):
    # the even and the odd level of v2 = -14 lie 1.1e-11 apart, closer than
    # the 10 tol_e that drops a level bracketed twice; each factor holds one
    problem, window = anharmonic(-14.0, 1.0, h=0.005), (-49.0, -40.6)
    fn = characteristic_for(problem, method)
    brackets = scan_brackets(fn, window)
    assert sorted(b.factor for b in brackets) == [0, 1]
    energies = [r.energy for r in find_eigenvalues(problem, method, window)]
    assert len(energies) == 2
    assert 0.0 < energies[1] - energies[0] < 10 * 1e-10
    if method == "wm":
        split = [r.energy for m in ("wm-even", "wm-odd")
                 for r in find_eigenvalues(problem, m, window)]
        assert energies == sorted(split)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 4 and 7: C and S grow so far that psi(0) "
                   "is 1e-92 of the spike at the wall, and r_R reads neither factor as zero")
@pytest.mark.parametrize("method", ["wm", "cfm"])
def test_a_doublet_split_below_the_dedupe_distance_comes_back_even_and_odd(method):
    results = find_eigenvalues(anharmonic(-14.0, 1.0, h=0.005), method, (-49.0, -40.6))
    assert sorted(r.parity for r in results) == ["even", "odd"]
    assert sorted(r.node_count for r in results) == [0, 1]


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


@pytest.mark.parametrize("method", ["wm-even", "wm-odd"])
def test_parity_methods_reject_a_lopsided_grid_by_name(method):
    # a parity invariant v about x0 = 0, but 60 steps left against 500 right:
    # the factors would give the levels of the mirrored domain [-5, 5]
    problem = dataclasses.replace(poschl_teller(2.5, h=0.01, x_right=5.0),
                                  grid=make_grid(0.0, 0.01, 60, 500))
    with pytest.raises(ValueError, match="n_left=60, n_right=500"):
        find_eigenvalues(problem, method=method)


def test_unknown_method_is_rejected():
    prob = poschl_teller(2.5)
    with pytest.raises(ValueError):
        find_eigenvalues(prob, method="secret")


# the methods each catalog problem admits: parity splitting needs a symmetric
@pytest.mark.parametrize("tol", [1e-16, 1e-17, 1e-300])
def test_a_tolerance_below_the_float_spacing_still_closes_every_level(tol):
    # tol_e is floored at 2 eps |E|: the width test holds between adjacent
    # floats, and the check past a settled end reads another float
    problem = poschl_teller(2.5, h=0.01, x_right=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RefinementWarning)
        results = find_eigenvalues(problem, tol_e=tol)
        at_spacing = find_eigenvalues(problem, tol_e=2e-16)
    assert [r.energy for r in results] == [r.energy for r in at_spacing]
    assert [r.energy for r in results] == pytest.approx(poschl_teller_exact_energies(2.5),
                                                        abs=1e-5)


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
    # a batch of one is one row of the same factors
    assert ev.ok and fn.evaluate_many([energy]).tolist() == [list(ev.factors)]
    # the even and the odd factor where the problem is symmetric
    assert len(ev.factors) == (2 if problem.symmetric and method in ("wm", "cfm") else 1)


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
    energies = np.linspace(0.0, 20.0, _default_probes(0.0, 20.0) + 1)
    evals = fn.evaluate_many(energies)
    assert len(evals) == 401
    # a row is NaN only where the energy's evaluation is flagged overflow
    assert all(fn.evaluate(e).flag == "overflow"
               for e, row in zip(energies, evals) if np.isnan(row).any())


def _counting(problem):
    # the same problem with its v(x) calls counted in calls[0]
    calls = [0]
    v = problem.potential.evaluate

    def counted(x):
        calls[0] += 1
        return v(x)

    pot = dataclasses.replace(problem.potential, evaluate=counted)
    return dataclasses.replace(problem, potential=pot), calls


@pytest.mark.parametrize("problem", [
    pytest.param(poschl_teller(10.0, h=0.001, x_right=10.0), id="poschl-teller-deep-grid"),
    pytest.param(anharmonic(-5.0, 1.0, h=0.005), id="double-well"),
    pytest.param(infinite_well(x0=0.49, h=0.002, energy_max=60.0), id="box"),
    pytest.param(radial(lambda r: -10.0 * np.exp(-r), h=0.005), id="radial"),
])
def test_a_catalog_solve_calls_the_potential_at_most_four_times(problem):
    # one array call on each side's points and one on its midpoints
    problem, calls = _counting(problem)
    assert find_eigenvalues(problem, n_probe=200)
    assert calls[0] <= 4


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


@pytest.mark.parametrize("problem, method", [
    *(pytest.param(p, m, id=f"{p}-{m}")
      for p in ("poschl-teller", "box", "anharmonic", "radial", "quartic", "double-well")
      for m in ("wm", "cfm")),
    pytest.param("box", "dirichlet", id="box-dirichlet"),
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


# C and S reach about 1e148 on these grids, so the physical part of a2 C + b2 S
# is about 1e-148 of the spike it leaves at a wall
_TAIL_SPIKES = pytest.mark.xfail(strict=True, reason="ROADMAP items 4 and 7: a forward "
                                 "a2 C + b2 S cannot hold the decaying tail")


@pytest.mark.parametrize("problem, method", [
    pytest.param(p, m, id=f"{p}-{m}",
                 marks=_TAIL_SPIKES if p in ("anharmonic", "quartic") else ())
    for p in NODE_PROBLEMS for m in ("wm", "cfm")])
def test_each_level_peaks_where_it_is_classically_allowed(problem, method):
    # each side of x0 is the null direction of its own row, so neither tail
    # carries the divergent member up into a spike at its wall
    prob = NODE_PROBLEMS[problem]
    results = find_eigenvalues(prob, method=method)
    assert len(results) >= 2
    for r in results:
        assert prob.potential.evaluate(float(r.x[np.argmax(np.abs(r.psi))])) <= r.energy


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
