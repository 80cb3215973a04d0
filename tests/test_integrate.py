"""Integrator tests: canonical-pair structure, accuracy, overflow handling."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from boundstates import anharmonic, find_eigenvalues, infinite_well, poschl_teller, radial
from boundstates import integrate, roots, wm
from boundstates.core import PotentialSpec, Problem, is_symmetric, make_grid, on_array, wronskian
from boundstates.cfm import cfm_rows, cfm_value
from boundstates.cli import compile_expr
from boundstates.integrate import canonical_endpoints, canonical_pair, sample_potential
from boundstates.potentials import decay_model, hard_wall_model
from boundstates.roots import _default_probes, characteristic_for
from boundstates.wm import boundary_value, wm_rows, wm_value, wm_value_symmetric

FREE = PotentialSpec(evaluate=lambda x: 0.0, parity_invariant=True)
PT25 = poschl_teller(2.5, h=0.01, x_right=5.0)
# the same v not declared even: a mirrored grid marches it leftward as well
PT25_V_TWO_SIDED = dataclasses.replace(PT25.potential, parity_invariant=False)


def test_canonical_pair_initial_data():
    grid = make_grid(0.5, 0.01, 30, 40)
    pair = canonical_pair(FREE, 1.0, grid)
    i = grid.n_left
    assert pair.x[i] == 0.5
    assert (pair.c[i], pair.dc[i]) == (1.0, 0.0)
    assert (pair.s[i], pair.ds[i]) == (0.0, 1.0)


@pytest.mark.parametrize("n_left, n_right", [(30, 0), (0, 40)], ids=["no-right-side", "no-left-side"])
def test_a_side_of_no_steps_still_holds_the_origin(n_left, n_right):
    pair = canonical_pair(FREE, 1.0, make_grid(0.5, 0.01, n_left, n_right))
    assert (pair.x[n_left], pair.c[n_left], pair.dc[n_left], pair.s[n_left], pair.ds[n_left]) == (
        0.5, 1.0, 0.0, 0.0, 1.0)


def test_free_particle_matches_trig_solutions():
    # eps = 2 means phi'' = -4 phi: C = cos 2x, S = sin(2x)/2
    grid = make_grid(0.0, 0.01, 0, 300)
    pair = canonical_pair(FREE, 2.0, grid)
    assert np.max(np.abs(pair.c - np.cos(2 * pair.x))) < 1e-7
    assert np.max(np.abs(pair.s - np.sin(2 * pair.x) / 2)) < 1e-7


def test_free_particle_matches_hyperbolic_solutions():
    grid = make_grid(0.0, 0.01, 0, 300)
    pair = canonical_pair(FREE, -0.5, grid)
    assert np.max(np.abs(pair.c - np.cosh(pair.x))) < 1e-8
    assert np.max(np.abs(pair.s - np.sinh(pair.x))) < 1e-8


@pytest.mark.parametrize("energy", [-2.0, -1.0, -0.3])
def test_wronskian_stays_at_one(energy):
    pair = canonical_pair(PT25.potential, energy, PT25.grid)
    w = wronskian(pair.c, pair.dc, pair.s, pair.ds)
    # the bound tracks the cancellation scale of the grown members, not h^4
    assert np.max(np.abs(w - 1.0)) < 2e-9


def test_halving_the_step_changes_little():
    # frozen fourth-order self-consistency numbers for the deep cosh well:
    # C(5) at eps=-1 for h=0.01 against h=0.005
    results = {}
    for h in (0.01, 0.005):
        grid = make_grid(0.0, h, 0, int(round(5.0 / h)))
        pair = canonical_pair(PT25.potential, -1.0, grid)
        assert np.isfinite(pair.ends.left[1:] + pair.ends.right[1:]).all()
        results[h] = pair.c[-1]
    assert results[0.01] == pytest.approx(-108.51900692869377, rel=1e-12)
    rel = abs(results[0.01] - results[0.005]) / abs(results[0.005])
    assert rel < 5e-9


def test_leftward_sweep_mirrors_rightward_for_even_potential():
    # C from the origin outward on each side of a two-sided pair; off a
    # symmetric problem a grid with a left side is marched leftward
    grid = make_grid(0.0, 0.01, 400, 400)
    assert grid.n_left == 400
    pair = canonical_pair(PT25_V_TWO_SIDED, -1.0, grid)
    left, right = slice(400, None, -1), slice(400, None)
    assert np.allclose(pair.c[left], pair.c[right], rtol=1e-13, atol=1e-13)
    assert np.allclose(pair.dc[left], -pair.dc[right], rtol=1e-13, atol=1e-13)


def test_reflected_pair_agrees_with_two_sided_integration():
    half = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 0, 300))
    full = canonical_pair(PT25_V_TWO_SIDED, -1.0, make_grid(0.0, 0.01, 300, 300))
    # the half grid's pair is mirrored onto the full line
    assert len(half.x) == len(full.x) == 601
    hx, hc, hdc, hs, hds = half[:5]
    fx, fc, fdc, fs, fds = full[:5]
    assert np.allclose(hx, fx, atol=1e-12)
    assert np.allclose(hc, fc, rtol=1e-12, atol=1e-12)
    assert np.allclose(hdc, fdc, rtol=1e-12, atol=1e-12)
    assert np.allclose(hs, fs, rtol=1e-12, atol=1e-12)
    assert np.allclose(hds, fds, rtol=1e-12, atol=1e-12)


def test_left_values_flip_signs_under_reflection():
    half = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 0, 300))
    xr, c, dc, s, ds = half.ends.right
    xl, cl, dcl, sl, dsl = half.ends.left
    assert (xl, cl, dcl, sl, dsl) == (-xr, c, -dc, -s, ds)


def test_overflow_truncates_and_flags():
    barrier = PotentialSpec(evaluate=lambda x: 25.0)
    grid = make_grid(0.0, 0.01, 0, 10000)
    pair = canonical_pair(barrier, -1.0, grid)
    assert pair.x[-1] == pair.ends.right[0] == grid.x_right
    assert len(pair.x) == len(pair.c) == grid.n_right + 1
    # growth past the double range runs on as inf or NaN, never raises
    assert not np.isfinite(pair.ends.right[1:]).all()
    problem = Problem(barrier, grid, decay_model(grid.x_left, grid.x_right),
                      energy_range=(-2.0, 0.0))
    for value in (wm_value, cfm_value):
        assert value(problem, pair.ends).at(0).flag == "overflow"


# --- batched endpoint march -------------------------------------------------

def _bits(value):
    return struct.pack("<d", value)


def _end_bits(ends, i=0):
    # the bits of energy i's entry of a batch's Endpoints: its energy, then
    # (x, C, C', S, S') at the left end and at the right
    entries = np.broadcast_arrays(ends.energy, *ends.left, *ends.right)
    return [_bits(a[i]) for a in entries]


PT25_TWO_SIDED = dataclasses.replace(PT25, potential=PT25_V_TWO_SIDED,
                                     grid=make_grid(0.0, 0.01, 500, 500))
# an odd step count, reflected; and two short odd sides about an off-centre origin
PT25_ODD = dataclasses.replace(PT25, grid=make_grid(0.0, 0.01, 0, 505))
PT25_SHORT = dataclasses.replace(PT25, grid=make_grid(0.3, 0.01, 37, 91))
QUARTIC = anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)
# the pairs themselves leave the double range below E = 119 on this grid
QUARTIC_FINE = anharmonic(0.0, 1.0, h=0.005, energy_max=200.0)
BOX = infinite_well(x0=0.49, h=0.01, energy_max=60.0)
RADIAL = radial(lambda r: -10.0 * math.exp(-r), h=0.01)
# solutions pass the cap mid-sweep, at different steps for different energies
SLAB = PotentialSpec(evaluate=lambda x: 25.0 + math.cos(x), parity_invariant=True)
# a tilted well on a grid with no left side, neither reflected nor two-sided
TILTED = dataclasses.replace(
    PT25, potential=PotentialSpec(evaluate=lambda x: -2.5 / math.cosh(x) ** 2 + 0.1 * x),
    grid=make_grid(0.3, 0.01, 0, 300))
# each id reads problem-n_left-method
BATCH_CASES = [
    pytest.param(PT25, "wm", id="poschl-teller-0-wm"),
    pytest.param(PT25, "wm-even", id="poschl-teller-0-wm-even"),
    pytest.param(PT25, "wm-odd", id="poschl-teller-0-wm-odd"),
    pytest.param(PT25, "cfm", id="poschl-teller-0-cfm"),
    pytest.param(PT25_TWO_SIDED, "wm", id="poschl-teller-500-wm"),
    pytest.param(PT25_TWO_SIDED, "cfm", id="poschl-teller-500-cfm"),
    pytest.param(PT25_ODD, "wm", id="poschl-teller-0-505-wm"),
    pytest.param(PT25_SHORT, "wm", id="poschl-teller-37-91-wm"),
    pytest.param(PT25_SHORT, "cfm", id="poschl-teller-37-91-cfm"),
    pytest.param(BOX, "dirichlet", id="box-49-dirichlet"),
    pytest.param(QUARTIC, "wm", id="anharmonic-0-wm"),
    pytest.param(QUARTIC, "cfm", id="anharmonic-0-cfm"),
    pytest.param(QUARTIC_FINE, "wm", id="anharmonic-0-fine-wm"),
    pytest.param(RADIAL, "wm", id="radial-90-wm"),
    pytest.param(RADIAL, "cfm", id="radial-90-cfm"),
]


@pytest.mark.parametrize("problem, method", BATCH_CASES)
def test_batched_evaluations_match_the_scalar_march_bit_for_bit(problem, method):
    fn = characteristic_for(problem, method)
    lo, hi = problem.energy_range
    eps = np.linspace(lo, hi, _default_probes(lo, hi) + 1)
    batch = fn.evaluate_many(eps)
    scalar = [fn.evaluate(e) for e in eps]
    # on a symmetric problem wm's and cfm's value is the even and the odd factor
    k = 2 if problem.symmetric and method in ("wm", "cfm") else 1
    assert {len(ev.factors) for ev in scalar} == {k}
    # one row of factors per energy, NaN where the single evaluation is flagged
    assert batch.shape == (len(eps), k)
    assert [_bits(f) for row in batch.tolist() for f in row] == [
        _bits(f) for ev in scalar for f in ev.factors]
    if problem is QUARTIC:
        # the pairs stay finite, and so does every scale-free value
        assert all(ev.ok for ev in scalar)
    if problem is QUARTIC_FINE:
        assert any(ev.flag == "overflow" for ev in scalar)
    assert fn.evaluate_many([]).shape == (0, k)
    assert [_bits(f) for f in fn.evaluate_many(eps[7:8])[0].tolist()] == [
        _bits(f) for f in fn.evaluate(eps[7]).factors]


@pytest.mark.parametrize("slab, grid", [
    pytest.param(SLAB, make_grid(0.0, 0.01, 0, 10000), id="grid0"),
    pytest.param(dataclasses.replace(SLAB, parity_invariant=False),
                 make_grid(0.0, 0.01, 10000, 10000), id="grid1"),
    pytest.param(SLAB, make_grid(0.5, 0.01, 0, 10000), id="grid2"),
    pytest.param(SLAB, make_grid(0.0, 0.01, 100, 0), id="grid3"),
])
def test_batched_endpoints_match_the_pair_when_sweeps_truncate(slab, grid):
    # the slab on a reflected grid, a two-sided one (the slab not declared
    # even, so its left side is marched), an unreflected one with no left
    # sweep, and one with no right sweep
    energies = [-40.0, -1.0, 0.5, 24.0, 30.0]
    samples = sample_potential(slab, grid)
    batch = canonical_endpoints(slab, energies, grid, samples)
    for i, e in enumerate(energies):
        pair = canonical_pair(slab, e, grid)
        # the batch and a batch of one
        assert _end_bits(batch, i) == _end_bits(pair.ends)
        assert _end_bits(canonical_endpoints(slab, [e], grid, samples)) == _end_bits(pair.ends)
    if grid.n_left == grid.n_right:
        # the left sweep outgrew the double range and still reached x_left
        ends = canonical_pair(slab, -40.0, grid).ends
        assert ends.left[0] == grid.x_left
        assert not np.isfinite(ends.left[1:]).all()
    if grid.n_right:
        # the right sweep outgrew the double range and still reached x_right
        ends = canonical_pair(slab, -40.0, grid).ends
        assert ends.right[0] == grid.x_right
        assert not np.isfinite(ends.right[1:]).all()


def _pair_value(problem, method, energy):
    ends = canonical_pair(problem.potential, energy, problem.grid).ends
    if method in ("wm-even", "wm-odd"):
        return wm_value_symmetric(problem, ends, method[3:]).at(0)
    if problem.symmetric:
        # the even and the odd factor, read from r_R
        rows = {"wm": wm_rows, "cfm": cfm_rows}[method]
        return boundary_value(rows, problem, ends, (0, 1)).at(0)
    # dirichlet is cfm's rows with a hard-wall check
    value = {"wm": wm_value, "cfm": cfm_value, "dirichlet": cfm_value}[method]
    return value(problem, ends).at(0)


@pytest.mark.parametrize("problem, method", [
    pytest.param(PT25, "wm", id="poschl-teller-wm"),
    pytest.param(PT25, "wm-even", id="poschl-teller-wm-even"),
    pytest.param(PT25, "wm-odd", id="poschl-teller-wm-odd"),
    pytest.param(PT25_TWO_SIDED, "cfm", id="poschl-teller-two-sided-cfm"),
    pytest.param(BOX, "dirichlet", id="box-dirichlet"),
    pytest.param(QUARTIC, "wm", id="anharmonic-wm"),
    pytest.param(QUARTIC, "cfm", id="anharmonic-cfm"),
    pytest.param(QUARTIC_FINE, "wm", id="anharmonic-fine-wm"),
    pytest.param(QUARTIC_FINE, "cfm", id="anharmonic-fine-cfm"),
    pytest.param(RADIAL, "cfm", id="radial-cfm"),
    pytest.param(TILTED, "wm", id="tilted-no-left-side-wm"),
    pytest.param(TILTED, "cfm", id="tilted-no-left-side-cfm"),
])
def test_single_energy_evaluations_match_the_full_pair_bit_for_bit(problem, method):
    # evaluate() marches endpoint-only; it must read what the stored pair reads
    fn = characteristic_for(problem, method)
    lo, hi = problem.energy_range
    eps = np.linspace(lo, hi, _default_probes(lo, hi) + 1)[::37]
    ends = [fn.evaluate(e) for e in eps]
    pairs = [_pair_value(problem, method, e) for e in eps]
    assert [ev.flag for ev in ends] == [ev.flag for ev in pairs]
    assert [_bits(f) for ev in ends for f in ev.factors] == [
        _bits(f) for ev in pairs for f in ev.factors]
    if problem is QUARTIC:
        assert all(ev.ok for ev in ends)
    if problem is QUARTIC_FINE:
        assert any(ev.flag == "overflow" for ev in ends)
        assert any(ev.flag is None for ev in ends)


@pytest.mark.parametrize("problem", [PT25, QUARTIC, anharmonic(-5.0, 1.0, h=0.005)])
def test_reflected_pair_reads_the_potential_it_would_evaluate(problem):
    # node counting reads the mirrored samples; they must be v at -x, as the
    # array call that samples v reads it
    pair = canonical_pair(problem.potential, problem.energy_range[0], problem.grid)
    # a half grid whose pair reaches -x_right: the left half is mirrored
    assert problem.grid.n_left == 0 and pair.x[0] == -problem.grid.x_right
    assert np.array_equal(pair.v, on_array(problem.potential.evaluate, pair.x))


def _marched(potential, grid):
    # (h, n) of each side sample_potential samples, right side first: the
    # right alone on a symmetric problem, whose left side mirrors it
    sides = ((grid.h, grid.n_right), (-grid.h, grid.n_left))
    return sides[:1] if is_symmetric(potential, grid) else sides


def _looped_samples(potential, grid):
    # sample_potential as a per-point loop: v at x0 + j*h and at the step
    # midpoints (x0 + j*h) + h*0.5, one call at a time, right side first
    v, x0 = potential.evaluate, grid.x0

    def side(h, n):
        nodes = [float(v(x0))] + [float(v(x0 + j * h)) for j in range(1, n + 1)]
        halves = [float(v((x0 + j * h) + h * 0.5)) for j in range(n)]
        return np.array(nodes), np.array(halves)

    return [side(h, n) for h, n in _marched(potential, grid)]


def _sides(potential, grid):
    # each sampled side's points and step midpoints, right side first, as
    # the per-point loop forms them
    out = []
    for h, n in _marched(potential, grid):
        points = grid.x0 + np.arange(n + 1) * h
        out += [points, points[:-1] + h * 0.5]
    return out


def _recorded(potential, log):
    # the potential with every argument it is called on appended to log
    def v(x):
        log.append(x)
        return potential.evaluate(x)
    return dataclasses.replace(potential, evaluate=v)


def _assert_tables(samples, sides, grid):
    # the half-step samples are kept only in the step tables, one per
    # sampled side; the line is the left side's nodes from x_left in, the
    # right side's mirrored where it is the only one, then the right's
    assert len(samples.tables) == len(sides)
    for table, (nodes, halves), h in zip(samples.tables, sides, (grid.h, -grid.h)):
        want = integrate._table(nodes, halves, h)
        assert table.pairs.tobytes() == want.pairs.tobytes()
        assert table.firsts.tobytes() == want.firsts.tobytes()
    left, right = sides[-1][0], sides[0][0]
    assert samples.line.tobytes() == np.concatenate([left[:0:-1], right]).tobytes()


@pytest.mark.parametrize("potential, grid", [
    pytest.param(PT25.potential, PT25.grid, id="poschl-teller-reflected"),
    pytest.param(BOX.potential, BOX.grid, id="box-two-sided"),
    pytest.param(QUARTIC.potential, make_grid(0.3, 0.01, 37, 91), id="anharmonic-off-centre"),
    pytest.param(PotentialSpec(evaluate=compile_expr("-2*exp(-x*x)", "x")),
                 make_grid(0.3, 0.01, 250, 300), id="inline-expr"),
])
def test_an_array_potential_is_sampled_in_one_call_per_array(potential, grid):
    # one call on each sampled side's points and one on its midpoints, right
    # side first: two on a symmetric problem, else four; and the samples are
    # v of those arrays bit for bit
    calls = []
    samples = sample_potential(_recorded(potential, calls), grid)
    arrays = _sides(potential, grid)
    assert len(calls) == (2 if is_symmetric(potential, grid) else 4)
    assert [x.tobytes() for x in calls] == [x.tobytes() for x in arrays]
    v = [potential.evaluate(x) for x in arrays]
    _assert_tables(samples, list(zip(v[::2], v[1::2])), grid)


@pytest.mark.parametrize("potential, grid", [
    pytest.param(PotentialSpec(evaluate=lambda x: -2.5 / math.cosh(x) ** 2, parity_invariant=True),
                 PT25.grid, id="poschl-teller-reflected"),
    pytest.param(PotentialSpec(evaluate=lambda x: 0.0), BOX.grid, id="box-two-sided"),
    pytest.param(RADIAL.potential, RADIAL.grid, id="radial-left-side"),
    pytest.param(PotentialSpec(evaluate=compile_expr("max(-2*exp(-x*x), -1.5)", "x")),
                 make_grid(0.3, 0.01, 250, 300), id="inline-expr"),
])
def test_potential_samples_equal_a_per_point_loop_bit_for_bit(potential, grid):
    # v takes floats alone: math.cosh, math.exp (the radial catalog problem
    # here) and max raise on an array, and a constant returns a scalar for
    # it. After that one try per array, v is called on each point as a
    # Python float, in a per-point loop's order, and the samples are that
    # loop's bit for bit
    calls, looped_calls = [], []
    samples = sample_potential(_recorded(potential, calls), grid)
    _assert_tables(samples, _looped_samples(_recorded(potential, looped_calls), grid), grid)
    tried = [x for x in calls if type(x) is not float]
    assert [x.tobytes() for x in tried] == [x.tobytes() for x in _sides(potential, grid)]
    floats = [x for x in calls if type(x) is float]
    assert [_bits(x) for x in floats] == [_bits(x) for x in looped_calls]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_potential_that_is_not_finite_on_the_grid_is_named(bad):
    # an array v returns inf or NaN where math would have raised; sampling
    # names the first such point instead of marching through it
    spec = PotentialSpec(evaluate=lambda x: np.where(x > 0.25, bad, 0.0))
    with pytest.raises(ValueError, match=r"potential is not finite at x = 0\.26"):
        sample_potential(spec, make_grid(0.0, 0.01, 10, 40))
    with pytest.raises(ValueError, match="potential is not finite"):
        find_eigenvalues(Problem(spec, make_grid(0.0, 0.01, 10, 40), hard_wall_model(-0.1, 0.4),
                                 energy_range=(0.0, 10.0)))


@pytest.mark.parametrize("potential, grid, energies", [
    pytest.param(PT25.potential, PT25.grid, (-2.0, -0.5, 0.0), id="poschl-teller"),
    pytest.param(PT25.potential, PT25_ODD.grid, (-2.0, -0.5, 0.0), id="poschl-teller-505-steps"),
    pytest.param(QUARTIC.potential, QUARTIC.grid, (0.5, 50.0), id="anharmonic"),
    # sweeps that stop short of x_right, at different steps
    pytest.param(SLAB, make_grid(0.0, 0.01, 0, 10000), (-40.0, -1.0), id="truncating-slab"),
])
def test_reflected_pair_is_mirrored_bit_for_bit(potential, grid, energies):
    samples = sample_potential(potential, grid)
    for energy in energies:
        pair = canonical_pair(potential, energy, grid, samples)
        n = len(pair.x) // 2
        assert len(pair.x) == 2 * n + 1 and pair.x[n] == 0.0 and n > 0
        # a[:n:-1] is the right half read from the outside in
        for a in (pair.x, pair.dc, pair.s):
            assert (-a[:n]).tobytes() == a[:n:-1].tobytes()
        for a in (pair.c, pair.ds, pair.v):
            assert a[:n].tobytes() == a[:n:-1].tobytes()
        assert _end_bits(pair.ends) == _end_bits(
            canonical_endpoints(potential, [energy], grid, samples))


def _mirrored(problem):
    # the problem on a grid whose left side mirrors its right
    n = problem.grid.n_right
    return dataclasses.replace(problem, grid=make_grid(0.0, problem.grid.h, n, n))


@pytest.mark.parametrize("method", ["wm", "cfm"])
@pytest.mark.parametrize("problem", [
    pytest.param(_mirrored(PT25), id="poschl-teller-2.5"),
    pytest.param(_mirrored(poschl_teller(10.0, h=0.01, x_right=8.0)), id="poschl-teller-10"),
    pytest.param(_mirrored(anharmonic(-5.0, 1.0, h=0.01)), id="double-well"),
])
def test_a_mirrored_symmetric_grid_is_reflected_as_the_two_sided_march_bit_for_bit(
        problem, method, monkeypatch):
    # declared even, v is sampled and marched on the right side alone and the
    # left side is its mirror image; not declared even, the same v is marched
    # leftward too. The two agree bit for bit: v(-x) is v(x), and a leftward
    # step's matrix is the rightward one with its off-diagonal entries negated
    grid = problem.grid
    assert problem.symmetric and grid.n_left == grid.n_right > 0
    two_sided = dataclasses.replace(problem.potential, parity_invariant=False)
    calls = []
    samples = sample_potential(_recorded(problem.potential, calls), grid)
    assert len(calls) == 2 and len(samples.tables) == 1
    marched = sample_potential(two_sided, grid)
    assert len(marched.tables) == 2
    assert samples.line.tobytes() == marched.line.tobytes()
    energies = np.linspace(*problem.energy_range, 9)
    ends = canonical_endpoints(problem.potential, energies, grid, samples)
    want = canonical_endpoints(two_sided, energies, grid, marched)
    assert [_end_bits(ends, i) for i in range(len(energies))] == [
        _end_bits(want, i) for i in range(len(energies))]
    for energy in energies:
        pair = canonical_pair(problem.potential, energy, grid, samples)
        two = canonical_pair(two_sided, energy, grid, marched)
        assert [a.tobytes() for a in pair[:6]] == [a.tobytes() for a in two[:6]]
        assert _end_bits(pair.ends) == _end_bits(two.ends)
    levels = find_eigenvalues(problem, method)
    # the same solve with every march two-sided: the scan's, and the
    # assembly's, which marches each level's psi leftward from the left
    # side's own (a, b) where the symmetric one mirrors the right half
    for name in ("sample_potential", "canonical_endpoints"):
        monkeypatch.setattr(roots, name, lambda potential, *args, f=getattr(integrate, name):
                            f(two_sided, *args))
    want = find_eigenvalues(problem, method)
    assert len(levels) > 1
    assert [(_bits(r.energy), r.psi.tobytes(), r.node_count, r.parity) for r in levels] == [
        (_bits(r.energy), r.psi.tobytes(), r.node_count, r.parity) for r in want]


# --- the step-matrix kernel: independent of batch size and step count -------

def test_the_box_scan_matches_single_energy_marches_bit_for_bit():
    # the default probes of the box are more energies than one chunk holds,
    # and both of its sides are shorter than one block
    lo, hi = BOX.energy_range
    energies = np.linspace(lo, hi, _default_probes(lo, hi) + 1)
    assert len(energies) == 1201 > integrate._CHUNK // integrate._BLOCK
    assert max(BOX.grid.n_left, BOX.grid.n_right) < integrate._BLOCK
    samples = sample_potential(BOX.potential, BOX.grid)
    batch = canonical_endpoints(BOX.potential, energies, BOX.grid, samples)
    single = [canonical_endpoints(BOX.potential, [e], BOX.grid, samples) for e in energies]
    assert [_end_bits(batch, i) for i in range(len(energies))] == [
        _end_bits(ends) for ends in single]


@pytest.mark.parametrize("grid", [
    pytest.param(PT25.grid, id="500-steps"),
    pytest.param(make_grid(0.3, 0.01, 37, 90), id="both-sides-short"),
    pytest.param(PT25_ODD.grid, id="505-steps"),
    pytest.param(PT25_SHORT.grid, id="both-sides-short-and-odd"),
    pytest.param(make_grid(0.0, 0.01, 0, 10000), id="several-step-chunks"),
    # a step either side of two whole blocks of pairs
    pytest.param(make_grid(0.0, 0.01, 0, 255), id="255-steps"),
    pytest.param(make_grid(0.0, 0.01, 0, 257), id="257-steps"),
])
def test_marches_agree_bit_for_bit_whatever_the_step_count(grid):
    # batches of 1, 2 and 3 energies cross numpy's switch from gemv to gemm
    # in the kernel's products, and 129 or more energies split into groups
    block = integrate._BLOCK
    assert grid.n_right % block or grid.n_left % block
    energies = np.linspace(-2.4, 1.0, integrate._CHUNK // block + 3)
    samples = sample_potential(PT25.potential, grid)
    alone = []
    for e in energies:
        pair = canonical_pair(PT25.potential, e, grid, samples)
        alone.append(_end_bits(canonical_endpoints(PT25.potential, [e], grid, samples)))
        assert alone[-1] == _end_bits(pair.ends)
    for size in (2, 3, 5, 129, len(energies)):
        for i0 in range(0, len(energies), size):
            batch = canonical_endpoints(PT25.potential, energies[i0:i0 + size], grid, samples)
            assert [_end_bits(batch, i) for i in range(len(batch.energy))] == alone[i0:i0 + size]


def _level_bits(res):
    # a level's every field, bit for bit, or the error that stopped it
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return [a.tobytes() if isinstance(a, np.ndarray) else _bits(float(a)) if isinstance(a, float)
            else a for a in dataclasses.astuple(res)]


@pytest.mark.parametrize("grid", [
    pytest.param(PT25.grid, id="reflected"),
    pytest.param(PT25_SHORT.grid, id="both-sides-short-and-odd"),
    pytest.param(make_grid(0.3, 0.01, 0, 257), id="no-left-side"),
])
def test_assembled_levels_of_a_batch_equal_those_of_each_energy_bit_for_bit(grid):
    # more energies than one chunk holds, every sample of psi kept, and
    # batches of 2, 3, 5 and 129 of them, each energy against its batch of one
    problem = dataclasses.replace(PT25, grid=grid)
    energies = np.linspace(-2.4, 1.0, integrate._CHUNK // integrate._BLOCK + 3)
    samples = sample_potential(PT25.potential, grid)
    alone = [_level_bits(res) for e in energies
             for res in wm.wm_eigenfunction(problem, [e], samples)]
    assert len(alone) == len(energies)
    assert sum(isinstance(res, list) for res in alone) > len(energies) // 2
    assert wm.wm_eigenfunction(problem, [], samples) == []
    for size in (2, 3, 5, 129, len(energies)):
        kept = [_level_bits(res) for i0 in range(0, len(energies), size)
                for res in wm.wm_eigenfunction(problem, energies[i0:i0 + size], samples)]
        assert kept == alone


def _sequential_rk4(v, x0, h, n, energy):
    # the classical RK4 march of (phi, phi') on phi'' = 2(v - eps) phi from
    # (1, 0) and from (0, 1), one step after another in plain floats
    cols = []
    for y, p in ((1.0, 0.0), (0.0, 1.0)):
        ys, ps = [y], [p]
        for j in range(n):
            x = x0 + j * h
            g0, g1, g2 = (2.0 * (v(t) - energy) for t in (x, x + 0.5 * h, x + h))
            k1y, k1p = p, g0 * y
            k2y, k2p = p + 0.5 * h * k1p, g1 * (y + 0.5 * h * k1y)
            k3y, k3p = p + 0.5 * h * k2p, g1 * (y + 0.5 * h * k2y)
            k4y, k4p = p + h * k3p, g2 * (y + h * k3y)
            y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            p += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            ys.append(y)
            ps.append(p)
        cols.append((np.array(ys), np.array(ps)))
    return cols


@pytest.mark.parametrize("problem, energies", [
    pytest.param(PT25, (-2.0, -0.75, 0.5), id="poschl-teller"),
    pytest.param(QUARTIC, (0.5, 11.0, 60.0), id="anharmonic"),
    pytest.param(RADIAL, (-5.0, -1.0, -0.1), id="radial"),
    pytest.param(PT25_ODD, (-2.0, -0.75, 0.5), id="poschl-teller-505-steps"),
    pytest.param(PT25_SHORT, (-2.0, -0.75, 0.5), id="poschl-teller-37-91"),
    pytest.param(TILTED, (-2.0, -0.75, 0.5), id="tilted-no-left-side"),
])
def test_the_pair_agrees_with_a_sequential_march(problem, energies):
    # the kernel multiplies the step matrices in another order than a march
    # that steps one point after the next; the two differ by roundoff only
    grid, v = problem.grid, problem.potential.evaluate
    for energy in energies:
        pair = canonical_pair(problem.potential, energy, grid)
        origin = len(pair.x) - 1 - grid.n_right
        right = _sequential_rk4(v, grid.x0, grid.h, grid.n_right, energy)
        left = _sequential_rk4(v, grid.x0, -grid.h, grid.n_left, energy)
        for k, (c, dc) in enumerate(((pair.c, pair.dc), (pair.s, pair.ds))):
            (ry, rp), (ly, lp) = right[k], left[k]
            got = np.concatenate([c[origin:], dc[origin:], c[origin::-1][:len(ly)],
                                  dc[origin::-1][:len(lp)]])
            want = np.concatenate([ry, rp, ly, lp])
            scale = np.max(np.abs(np.concatenate([c, dc])))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _step_matrix(g0, g1, g2, h):
    # one RK4 step of (y, y') on y'' = g y, g = g0, g1, g2 at the step's start,
    # midpoint and end: the stages applied to the columns (1, 0) and (0, 1),
    # multiplied out
    r = h * h / 6.0
    t = 0.25 * h * h * g1
    return np.array([[1.0 + r * (g0 + 2.0 * g1 + g0 * t), h + h * r * g1],
                     [h / 6.0 * (g0 + g2 + 4.0 * g1 + 2.0 * t * (g0 + g2)),
                      1.0 + r * (g2 + 2.0 * g1 + g2 * t)]])


@pytest.mark.parametrize("problem, energies", [
    pytest.param(PT25, (-2.4, -0.3, 1.5), id="grid0"),
    pytest.param(PT25_ODD, (-2.4, -0.3, 1.5), id="grid1"),
    pytest.param(PT25_SHORT, (-2.4, -0.3, 1.5), id="grid2"),
    # a side that fills two blocks of pairs, and a step either side of it
    *(pytest.param(dataclasses.replace(PT25, grid=make_grid(0.0, 0.01, 0, n)), (-2.4, -0.3, 1.5),
                   id=f"{n}-steps") for n in (255, 256, 257)),
    # the top of the quartic's window, |s| = 200
    pytest.param(QUARTIC, (0.5, 100.0), id="anharmonic"),
])
def test_the_step_tables_are_products_of_rk4_step_matrices(problem, energies):
    grid = problem.grid
    samples = sample_potential(problem.potential, grid)
    looped = _looped_samples(problem.potential, grid)
    assert len(samples.tables) == len(looped)
    for (nodes, halves), table, h in zip(looped, samples.tables, (grid.h, -grid.h)):
        n = len(halves)
        assert table.n_steps == n and (n or table.pairs.size == table.firsts.size == 0)
        assert table.pairs.shape[-1] % integrate._BLOCK == 0
        # the kernel's matrices at every energy, indexed [row, column, energy, pair]
        batch = 2.0 * np.array(energies)
        kernel = [integrate._evaluate(coefs, batch).reshape(2, 2, len(batch), -1)
                  for coefs in (table.pairs, table.firsts)]
        for i, energy in enumerate(energies):
            g = 2.0 * (nodes - energy), 2.0 * (halves - energy)
            # the steps in march order, after an identity step when n is odd
            steps = [np.eye(2)] * (n % 2) + [
                _step_matrix(g[0][j], g[1][j], g[0][j + 1], h) for j in range(n)]
            firsts, seconds = (np.array(a).reshape(-1, 2, 2) for a in (steps[0::2], steps[1::2]))
            s = 2.0 * energy
            for coefs, evaluated, want in ((table.pairs, kernel[0], seconds @ firsts),
                                           (table.firsts, kernel[1], firsts)):
                # coefs are indexed [row, column, degree, pair], highest degree first
                terms = [c * s ** d for d, c in enumerate(np.moveaxis(coefs, 2, 0)[::-1])]
                got = sum(terms)
                pad = got.shape[-1] - len(want)
                # identity pairs fill the first block
                assert (got[:, :, :pad] == np.eye(2)[:, :, None]).all()
                # an entry's scale is the size of the terms its polynomial
                # sums, which an entry smaller than them (g near 0) cancels
                scale = sum(np.abs(term) for term in terms)
                err = np.abs(got[:, :, pad:] - want.transpose(1, 2, 0))
                assert (err <= 1e-14 * scale[:, :, pad:]).all()
                assert (np.abs(evaluated[:, :, i] - got) <= 1e-14 * scale).all()
