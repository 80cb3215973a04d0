"""Integrator tests: canonical-pair structure, accuracy, overflow handling."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from boundstates import anharmonic, infinite_well, poschl_teller, radial
from boundstates import integrate
from boundstates.core import PotentialSpec, Problem, make_grid, wronskian
from boundstates.cfm import cfm_value
from boundstates.cli import compile_expr
from boundstates.integrate import (
    canonical_endpoints,
    canonical_pair,
    canonical_pairs,
    sample_potential,
)
from boundstates.potentials import decay_model
from boundstates.roots import _default_probes, characteristic_for
from boundstates.wm import wm_value, wm_value_symmetric

FREE = PotentialSpec(evaluate=lambda x: 0.0, parity_invariant=True)
PT25 = poschl_teller(2.5, h=0.01, x_right=5.0)


def test_canonical_pair_initial_data():
    grid = make_grid(0.5, 0.01, 30, 40)
    pair = canonical_pair(FREE, 1.0, grid)
    i = grid.n_left
    assert pair.x[i] == 0.5
    assert (pair.c[i], pair.dc[i]) == (1.0, 0.0)
    assert (pair.s[i], pair.ds[i]) == (0.0, 1.0)


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
        assert all(map(math.isfinite, pair.ends.left + pair.ends.right))
        results[h] = pair.c[-1]
    assert results[0.01] == pytest.approx(-108.51900692869377, rel=1e-12)
    rel = abs(results[0.01] - results[0.005]) / abs(results[0.005])
    assert rel < 5e-9


def test_leftward_sweep_mirrors_rightward_for_even_potential():
    # C from the origin outward on each side of a two-sided pair; a grid with
    # a left side is marched leftward, never reflected
    grid = make_grid(0.0, 0.01, 400, 400)
    assert grid.n_left == 400
    pair = canonical_pair(PT25.potential, -1.0, grid)
    left, right = slice(400, None, -1), slice(400, None)
    assert np.allclose(pair.c[left], pair.c[right], rtol=1e-13, atol=1e-13)
    assert np.allclose(pair.dc[left], -pair.dc[right], rtol=1e-13, atol=1e-13)


def test_reflected_pair_agrees_with_two_sided_integration():
    half = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 0, 300))
    full = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 300, 300))
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
    assert not all(map(math.isfinite, pair.ends.right[1:]))
    problem = Problem(barrier, grid, decay_model(grid.x_left, grid.x_right),
                      energy_range=(-2.0, 0.0))
    for value in (wm_value, cfm_value):
        assert value(problem, pair.ends).flag == "overflow"


# --- batched endpoint march -------------------------------------------------

def _bits(value):
    return struct.pack("<d", value)


PT25_TWO_SIDED = dataclasses.replace(PT25, grid=make_grid(0.0, 0.01, 500, 500))
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
    assert [ev.flag for ev in batch] == [ev.flag for ev in scalar]
    assert [_bits(ev.value) for ev in batch] == [_bits(ev.value) for ev in scalar]
    if problem is QUARTIC:
        # the pairs stay finite, and so does every scale-free value
        assert all(ev.ok for ev in scalar)
    if problem is QUARTIC_FINE:
        assert any(ev.flag == "overflow" for ev in scalar)
    assert fn.evaluate_many([]) == []
    assert fn.evaluate_many(eps[7:8]) == [fn.evaluate(eps[7])]


@pytest.mark.parametrize("grid", [make_grid(0.0, 0.01, 0, 10000),
                                  make_grid(0.0, 0.01, 10000, 10000),
                                  make_grid(0.5, 0.01, 0, 10000),
                                  make_grid(0.0, 0.01, 100, 0)])
def test_batched_endpoints_match_the_pair_when_sweeps_truncate(grid):
    # the slab on a reflected grid, a two-sided one, an unreflected one with
    # no left sweep, and one with no right sweep
    energies = [-40.0, -1.0, 0.5, 24.0, 30.0]
    samples = sample_potential(SLAB, grid)
    batch = canonical_endpoints(SLAB, energies, grid, samples)
    for ends, e in zip(batch, energies):
        pair = canonical_pair(SLAB, e, grid)
        # the batch and a batch of one
        for got in (ends, canonical_endpoints(SLAB, [e], grid, samples)[0]):
            assert got == pair.ends
            assert [_bits(v) for v in got.left + got.right] == [
                _bits(v) for v in pair.ends.left + pair.ends.right]
    if grid.n_right:
        # the right sweep outgrew the double range and still reached x_right
        ends = canonical_pair(SLAB, -40.0, grid).ends
        assert ends.right[0] == grid.x_right
        assert not all(map(math.isfinite, ends.right[1:]))


def _pair_value(problem, method, energy):
    ends = canonical_pair(problem.potential, energy, problem.grid).ends
    if method in ("wm-even", "wm-odd"):
        return wm_value_symmetric(problem, ends, method[3:])
    # dirichlet is cfm's rows with a hard-wall check
    value = {"wm": wm_value, "cfm": cfm_value, "dirichlet": cfm_value}[method]
    return value(problem, ends)


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
    assert [_bits(ev.value) for ev in ends] == [_bits(ev.value) for ev in pairs]
    if problem is QUARTIC:
        assert all(ev.ok for ev in ends)
    if problem is QUARTIC_FINE:
        assert any(ev.flag == "overflow" for ev in ends)
        assert any(ev.flag is None for ev in ends)


@pytest.mark.parametrize("problem", [PT25, QUARTIC, anharmonic(-5.0, 1.0, h=0.005)])
def test_reflected_pair_reads_the_potential_it_would_evaluate(problem):
    # node counting reads the mirrored samples; they must be v at -x
    pair = canonical_pair(problem.potential, problem.energy_range[0], problem.grid)
    # a half grid whose pair reaches -x_right: the left half is mirrored
    assert problem.grid.n_left == 0 and pair.x[0] == -problem.grid.x_right
    direct = np.array([problem.potential.evaluate(xi) for xi in pair.x])
    assert np.array_equal(pair.v, direct)


def _looped_samples(v, grid):
    # sample_potential as a per-point loop: v at x0 + j*h and at the step
    # midpoints (x0 + j*h) + h*0.5, one call at a time, right side first
    x0 = grid.x0

    def side(h, n):
        nodes = [float(v(x0))] + [float(v(x0 + j * h)) for j in range(1, n + 1)]
        halves = [float(v((x0 + j * h) + h * 0.5)) for j in range(n)]
        return np.array(nodes), np.array(halves)

    return side(grid.h, grid.n_right), side(-grid.h, grid.n_left)


@pytest.mark.parametrize("potential, grid", [
    pytest.param(PT25.potential, PT25.grid, id="poschl-teller-reflected"),
    pytest.param(BOX.potential, BOX.grid, id="box-two-sided"),
    pytest.param(RADIAL.potential, RADIAL.grid, id="radial-left-side"),
    pytest.param(PotentialSpec(evaluate=compile_expr("-2*exp(-x*x)", "x")),
                 make_grid(0.3, 0.01, 250, 300), id="inline-expr"),
])
def test_potential_samples_equal_a_per_point_loop_bit_for_bit(potential, grid):
    # the same points, the same calls in the same order, each with a Python float
    calls, looped_calls = [], []

    def recorded(log):
        def v(x):
            log.append(x)
            return potential.evaluate(x)
        return v

    samples = sample_potential(dataclasses.replace(potential, evaluate=recorded(calls)), grid)
    right, left = _looped_samples(recorded(looped_calls), grid)
    # the half-step samples are kept only in the step tables
    for table, (nodes, halves), h in zip(samples.tables, (right, left), (grid.h, -grid.h)):
        want = integrate._table(nodes, halves, h)
        assert table.pairs.tobytes() == want.pairs.tobytes()
        assert table.firsts.tobytes() == want.firsts.tobytes()
    assert samples.line.tobytes() == np.concatenate([left[0][:0:-1], right[0]]).tobytes()
    assert all(type(x) is float for x in calls)
    assert [_bits(x) for x in calls] == [_bits(x) for x in looped_calls]


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
        assert pair.ends == canonical_endpoints(potential, [energy], grid, samples)[0]


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
    single = [canonical_endpoints(BOX.potential, [e], BOX.grid, samples)[0] for e in energies]
    assert batch == single
    assert [_bits(v) for ends in batch for v in ends.left + ends.right] == [
        _bits(v) for ends in single for v in ends.left + ends.right]


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
    block = integrate._BLOCK
    assert grid.n_right % block or grid.n_left % block
    energies = np.linspace(-2.4, 1.0, integrate._CHUNK // block + 3)
    samples = sample_potential(PT25.potential, grid)
    batch = canonical_endpoints(PT25.potential, energies, grid, samples)
    for ends, e in zip(batch, energies):
        pair = canonical_pair(PT25.potential, e, grid, samples)
        for got in (ends, canonical_endpoints(PT25.potential, [e], grid, samples)[0]):
            assert [_bits(v) for v in got.left + got.right] == [
                _bits(v) for v in pair.ends.left + pair.ends.right]


@pytest.mark.parametrize("grid", [
    pytest.param(PT25.grid, id="reflected"),
    pytest.param(PT25_SHORT.grid, id="both-sides-short-and-odd"),
    pytest.param(make_grid(0.3, 0.01, 0, 257), id="no-left-side"),
])
def test_kept_pairs_of_a_batch_equal_the_pair_of_each_energy_bit_for_bit(grid):
    # more energies than one chunk holds, every sample kept
    energies = np.linspace(-2.4, 1.0, integrate._CHUNK // integrate._BLOCK + 3)
    samples = sample_potential(PT25.potential, grid)
    kept = list(canonical_pairs(PT25.potential, energies, grid, samples))
    assert len(kept) == len(energies)
    for many, e in zip(kept, energies):
        pair = canonical_pair(PT25.potential, e, grid, samples)
        assert [a.tobytes() for a in many[:6]] == [a.tobytes() for a in pair[:6]]
        assert many.ends == pair.ends


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


@pytest.mark.parametrize("grid", [
    PT25.grid, PT25_ODD.grid, PT25_SHORT.grid,
    # a side that fills two blocks of pairs, and a step either side of it
    *(pytest.param(make_grid(0.0, 0.01, 0, n), id=f"{n}-steps") for n in (255, 256, 257)),
])
def test_the_step_tables_are_products_of_rk4_step_matrices(grid):
    samples = sample_potential(PT25.potential, grid)
    looped = _looped_samples(PT25.potential.evaluate, grid)
    for (nodes, halves), table, h in zip(looped, samples.tables, (grid.h, -grid.h)):
        n = len(halves)
        assert table.n_steps == n and (n or table.pairs.size == table.firsts.size == 0)
        assert table.pairs.shape[-1] % integrate._BLOCK == 0
        for energy in (-2.4, -0.3, 1.5):
            g = 2.0 * (nodes - energy), 2.0 * (halves - energy)
            # the steps in march order, after an identity step when n is odd
            steps = [np.eye(2)] * (n % 2) + [
                _step_matrix(g[0][j], g[1][j], g[0][j + 1], h) for j in range(n)]
            firsts, seconds = (np.array(a).reshape(-1, 2, 2) for a in (steps[0::2], steps[1::2]))
            s = 2.0 * energy
            for coefs, want in ((table.pairs, seconds @ firsts), (table.firsts, firsts)):
                got = sum(c * s ** d for d, c in enumerate(coefs))
                pad = got.shape[-1] - len(want)
                # identity pairs fill the first block
                assert (got[:, :, :pad] == np.eye(2)[:, :, None]).all()
                # an entry's scale is the size of the terms its polynomial
                # sums, which an entry smaller than them (g near 0) cancels
                scale = sum(np.abs(c * s ** d) for d, c in enumerate(coefs))
                err = np.abs(got[:, :, pad:] - want.transpose(1, 2, 0))
                assert (err <= 1e-14 * scale[:, :, pad:]).all()
