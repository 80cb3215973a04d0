"""Integrator tests: canonical-pair structure, accuracy, overflow handling."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from boundstates import anharmonic, infinite_well, poschl_teller, radial
from boundstates.core import PotentialSpec, make_grid, wronskian
from boundstates.cfm import cfm_value, dirichlet_value
from boundstates.integrate import (
    canonical_endpoints,
    canonical_ends,
    canonical_pair,
    sample_potential,
)
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
        assert not pair.truncated_right
        results[h] = pair.c[-1]
    assert results[0.01] == pytest.approx(-108.51900692869377, rel=1e-12)
    rel = abs(results[0.01] - results[0.005]) / abs(results[0.005])
    assert rel < 5e-9


def test_leftward_sweep_mirrors_rightward_for_even_potential():
    # C from the origin outward on each side of a two-sided pair
    pair = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 400, 400))
    assert not pair.reflected
    left, right = slice(400, None, -1), slice(400, None)
    assert np.allclose(pair.c[left], pair.c[right], rtol=1e-13, atol=1e-13)
    assert np.allclose(pair.dc[left], -pair.dc[right], rtol=1e-13, atol=1e-13)


def test_reflected_pair_agrees_with_two_sided_integration():
    half = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 0, 300))
    full = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 300, 300))
    assert half.reflected and not full.reflected
    hx, hc, hdc, hs, hds = half.full_line()
    fx, fc, fdc, fs, fds = full.full_line()
    assert np.allclose(hx, fx, atol=1e-12)
    assert np.allclose(hc, fc, rtol=1e-12, atol=1e-12)
    assert np.allclose(hdc, fdc, rtol=1e-12, atol=1e-12)
    assert np.allclose(hs, fs, rtol=1e-12, atol=1e-12)
    assert np.allclose(hds, fds, rtol=1e-12, atol=1e-12)


def test_left_values_flip_signs_under_reflection():
    half = canonical_pair(PT25.potential, -1.0, make_grid(0.0, 0.01, 0, 300))
    xr, c, dc, s, ds = half.right_values()
    xl, cl, dcl, sl, dsl = half.left_values()
    assert (xl, cl, dcl, sl, dsl) == (-xr, c, -dc, -s, ds)


def test_overflow_truncates_and_flags():
    barrier = PotentialSpec(evaluate=lambda x: 25.0)
    grid = make_grid(0.0, 0.01, 0, 10000)
    pair = canonical_pair(barrier, -1.0, grid)
    assert pair.truncated_right
    assert len(pair.c) < grid.n_right + 1
    for a in (pair.x, pair.c, pair.dc, pair.s, pair.ds):
        assert np.all(np.isfinite(a))


# --- batched endpoint march -------------------------------------------------

def _bits(value):
    return struct.pack("<d", value)


PT25_TWO_SIDED = dataclasses.replace(PT25, grid=make_grid(0.0, 0.01, 500, 500))
QUARTIC = anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)
BOX = infinite_well(x0=0.49, h=0.01, energy_max=60.0)
RADIAL = radial(lambda r: -10.0 * math.exp(-r), h=0.01)
# each id reads problem-n_left-method
BATCH_CASES = [
    pytest.param(PT25, "wm", id="poschl-teller-0-wm"),
    pytest.param(PT25, "wm-even", id="poschl-teller-0-wm-even"),
    pytest.param(PT25, "wm-odd", id="poschl-teller-0-wm-odd"),
    pytest.param(PT25, "cfm", id="poschl-teller-0-cfm"),
    pytest.param(PT25_TWO_SIDED, "wm", id="poschl-teller-500-wm"),
    pytest.param(PT25_TWO_SIDED, "cfm", id="poschl-teller-500-cfm"),
    pytest.param(BOX, "dirichlet", id="box-49-dirichlet"),
    pytest.param(QUARTIC, "wm", id="anharmonic-0-wm"),
    pytest.param(QUARTIC, "cfm", id="anharmonic-0-cfm"),
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
        assert any(ev.flag == "overflow" for ev in scalar)
    assert fn.evaluate_many([]) == []
    assert fn.evaluate_many(eps[7:8]) == [fn.evaluate(eps[7])]


@pytest.mark.parametrize("grid", [make_grid(0.0, 0.01, 0, 10000),
                                  make_grid(0.0, 0.01, 10000, 10000),
                                  make_grid(0.5, 0.01, 0, 10000),
                                  make_grid(0.0, 0.01, 100, 0)])
def test_batched_endpoints_match_the_pair_when_sweeps_truncate(grid):
    # a slab whose solutions pass the cap mid-sweep, at different steps for
    # different energies: reflected, two-sided, unreflected with no left
    # sweep, and with no right sweep
    slab = PotentialSpec(evaluate=lambda x: 25.0 + math.cos(x), parity_invariant=True)
    energies = [-40.0, -1.0, 0.5, 24.0, 30.0]
    samples = sample_potential(slab, grid)
    batch = canonical_endpoints(slab, energies, grid, samples)
    for ends, e in zip(batch, energies):
        pair = canonical_pair(slab, e, grid)
        # the lockstep batch and the single-energy endpoint march
        for got in (ends, canonical_ends(slab, e, grid, samples)):
            assert got.energy == pair.energy
            assert got.left_values() == pair.left_values()
            assert got.right_values() == pair.right_values()
            assert [_bits(v) for v in got.left_values() + got.right_values()] == [
                _bits(v) for v in pair.left_values() + pair.right_values()]
            assert (got.truncated_left, got.truncated_right) == (
                pair.truncated_left, pair.truncated_right)
    if grid.n_right:
        assert canonical_pair(slab, -40.0, grid).truncated_right


def _pair_value(problem, method, energy):
    pair = canonical_pair(problem.potential, energy, problem.grid)
    if method in ("wm-even", "wm-odd"):
        return wm_value_symmetric(problem, pair, method[3:])
    value = {"wm": wm_value, "cfm": cfm_value, "dirichlet": dirichlet_value}[method]
    return value(problem, pair)


@pytest.mark.parametrize("problem, method", [
    pytest.param(PT25, "wm", id="poschl-teller-wm"),
    pytest.param(PT25, "wm-even", id="poschl-teller-wm-even"),
    pytest.param(PT25, "wm-odd", id="poschl-teller-wm-odd"),
    pytest.param(PT25_TWO_SIDED, "cfm", id="poschl-teller-two-sided-cfm"),
    pytest.param(BOX, "dirichlet", id="box-dirichlet"),
    pytest.param(QUARTIC, "wm", id="anharmonic-wm"),
    pytest.param(QUARTIC, "cfm", id="anharmonic-cfm"),
    pytest.param(RADIAL, "cfm", id="radial-cfm"),
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
        assert any(ev.flag == "overflow" for ev in ends)
        assert any(ev.flag is None for ev in ends)


@pytest.mark.parametrize("problem", [PT25, QUARTIC, anharmonic(-5.0, 1.0, h=0.005)])
def test_reflected_pair_reads_the_potential_it_would_evaluate(problem):
    # node counting reads the mirrored samples; they must be v at -x
    pair = canonical_pair(problem.potential, problem.energy_range[0], problem.grid)
    assert pair.reflected
    x, *_ = pair.full_line()
    direct = np.array([problem.potential.evaluate(xi) for xi in x])
    assert np.array_equal(pair.full_line_potential(), direct)
