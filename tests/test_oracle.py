"""Finite-difference and shooting cross-checks."""

import ast
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from boundstates import (
    Bracket,
    anharmonic,
    box_exact_energy,
    fd_box_dispersion,
    fd_box_recurrence_eigenvalues,
    infinite_well,
    oracle,
    poschl_teller,
    poschl_teller_exact_energies,
    radial,
    refine_root,
    shooting_reference,
)
from boundstates.core import (
    CharacteristicFunction,
    Evaluation,
    PotentialSpec,
    Problem,
    RefinementError,
    make_grid,
    wronskian,
)
from boundstates.potentials import decay_model
from boundstates.roots import RefinementWarning, find_eigenvalues

CONTINUUM_GROUND = 0.5 * math.pi ** 2


def test_dispersion_reference_value():
    # frozen: (1 - cos(0.02 pi)) / 0.0004
    assert fd_box_dispersion(1, 0.01) == pytest.approx(4.933178929321103, rel=1e-14)


def test_dispersion_approaches_the_continuum_from_below():
    for h in (0.02, 0.01, 0.005):
        assert fd_box_dispersion(1, h) < CONTINUUM_GROUND
    assert fd_box_dispersion(1, 0.001) == pytest.approx(CONTINUUM_GROUND, abs=2e-4)


def test_dispersion_error_is_second_order():
    coarse = CONTINUUM_GROUND - fd_box_dispersion(1, 0.02)
    fine = CONTINUUM_GROUND - fd_box_dispersion(1, 0.01)
    assert coarse / fine == pytest.approx(4.0, abs=0.05)


def test_dispersion_validation():
    with pytest.raises(ValueError):
        fd_box_dispersion(0, 0.01)
    with pytest.raises(ValueError):
        fd_box_dispersion(1.5, 0.01)
    with pytest.raises(ValueError):
        fd_box_dispersion(1, 0.0)
    with pytest.raises(ValueError):
        fd_box_dispersion(1, -0.1)
    with pytest.raises(ValueError):
        fd_box_dispersion(150, 0.01)


def test_recurrence_vector_closes_at_a_dispersion_eigenvalue():
    N = 50
    energy = fd_box_dispersion(3, 1.0 / N)
    # even-sublattice samples (j = 0, 2, ..., N) of the recurrence
    # phi_{j+2} = (2 - 8 h^2 eps) phi_j - phi_{j-2}
    a = 2.0 - 8.0 * energy / N ** 2
    vec = [0.0, 1.0]
    for _ in range(N // 2 - 1):
        vec.append(a * vec[-1] - vec[-2])
    vec = np.array(vec)
    assert abs(vec[-1]) <= 1e-9 * np.max(np.abs(vec))
    assert oracle._recurrence_ends(N, np.array([energy]))[0] == vec[-1]


def test_recurrence_shooting_matches_the_dispersion_formula():
    N = 12
    roots = fd_box_recurrence_eigenvalues(N, 5)
    for n, root in enumerate(roots, start=1):
        assert abs(root - fd_box_dispersion(n, 1.0 / N)) <= 1e-10


def test_recurrence_counts_are_whole_numbers():
    # a whole float is that count; 6.0 raised TypeError, and inf OverflowError
    assert fd_box_recurrence_eigenvalues(6.0, 1.0) == fd_box_recurrence_eigenvalues(6, 1)
    for N, n_max in ((6.5, 1), (math.inf, 1), (6, 1.5), (6, math.inf), (6, math.nan)):
        with pytest.raises(ValueError, match="must be a whole number"):
            fd_box_recurrence_eigenvalues(N, n_max)
    with pytest.raises(ValueError, match="mode index n must be a whole number"):
        fd_box_dispersion(math.inf, 0.01)


def test_shooting_reference_rejects_a_probe_count_that_is_not_a_whole_number():
    problem = poschl_teller(2.5, h=0.02, x_right=5.0)
    for n_probe in (math.inf, 12.5):
        with pytest.raises(ValueError, match="n_probe must be a whole number"):
            shooting_reference(problem, (-2.5, 0.0), n_probe=n_probe)


def test_recurrence_shooting_matches_the_dispersion_formula_on_a_fine_lattice():
    N = 100
    roots = fd_box_recurrence_eigenvalues(N, 25)
    assert len(roots) == 25
    for n, root in enumerate(roots, start=1):
        exact = fd_box_dispersion(n, 1.0 / N)
        assert abs(root - exact) <= 1e-9 * exact


@pytest.mark.parametrize("N", [100, 400])
def test_the_recurrence_scan_equals_per_energy_sweeps_bit_for_bit(N, monkeypatch):
    # the scan's probes, as fd_box_recurrence_eigenvalues lays them out
    probes = np.linspace(0.0, 0.5 * N * N, max(400, math.ceil(N * N / 25)) + 1)
    n_max = min(N // 2 - 1, 60)
    batch = oracle._recurrence_ends(N, probes).tolist()
    roots = fd_box_recurrence_eigenvalues(N, n_max)
    # the same solve with every energy swept in a batch of one
    ends = oracle._recurrence_ends
    single = []

    def one_at_a_time(n, energies):
        out = np.array([ends(n, np.array([e]))[0] for e in energies])
        single.extend(out.tolist())
        return out

    monkeypatch.setattr(oracle, "_recurrence_ends", one_at_a_time)
    alone = fd_box_recurrence_eigenvalues(N, n_max)
    assert [float(v).hex() for v in batch] == [float(v).hex() for v in single[:len(probes)]]
    assert [float(r).hex() for r in roots] == [float(r).hex() for r in alone]


def test_recurrence_eigenvalue_validation():
    with pytest.raises(ValueError):
        fd_box_recurrence_eigenvalues(13, 3)
    with pytest.raises(ValueError):
        fd_box_recurrence_eigenvalues(2, 1)
    with pytest.raises(ValueError):
        fd_box_recurrence_eigenvalues(12, 6)
    with pytest.raises(ValueError):
        fd_box_recurrence_eigenvalues(12, 0)


def test_shooting_reference_box_levels():
    prob = infinite_well(x0=0.5, h=0.005, energy_max=50.0)
    roots = shooting_reference(prob, (1.0, 50.0), n_probe=100)
    assert len(roots) == 3
    for n, root in enumerate(roots, start=1):
        assert abs(root - box_exact_energy(n)) <= 1e-7


def test_shooting_reference_decaying_well():
    prob = poschl_teller(2.5, h=0.01, x_right=10.0)
    roots = shooting_reference(prob, (-2.4, -0.01), n_probe=60)
    exact = poschl_teller_exact_energies(2.5)
    assert len(roots) == 2
    for root, ref in zip(roots, exact):
        assert abs(root - ref) < 1e-5


def _per_energy_shooting(problem, energy_range, n_probe, closing=wronskian,
                         dense_factor=4, tol=1e-10):
    # reference for shooting_reference: every energy is marched on its own
    # and calls v at each step; closing computes the mismatch W(R_c, phi) at
    # the right end
    grid = problem.grid
    h = grid.h / dense_factor
    if problem.symmetric:
        x_start = -grid.x_right
        n = 2 * dense_factor * grid.n_right
    else:
        x_start = grid.x_left
        n = dense_factor * (grid.n_left + grid.n_right)
    x_end = x_start + n * h
    v = problem.potential.evaluate
    asym = problem.asymptotics

    def mismatch(energy):
        y, p = asym.left_convergent(energy, x_start)
        e2 = 2.0 * energy
        h2 = h * 0.5
        h6 = h / 6.0
        g2 = 2.0 * v(x_start) - e2
        for j in range(n):
            g0 = g2
            xj = x_start + j * h
            g1 = 2.0 * v(xj + h2) - e2
            g2 = 2.0 * v(x_start + (j + 1) * h) - e2
            k1p = g0 * y
            k2y = p + h2 * k1p
            k2p = g1 * (y + h2 * p)
            k3y = p + h2 * k2p
            k3p = g1 * (y + h2 * k2y)
            k4y = p + h * k3p
            k4p = g2 * (y + h * k3y)
            y = y + h6 * (p + 2.0 * (k2y + k3y) + k4y)
            p = p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        rcv, rcd = asym.right_convergent(energy, x_end)
        return closing(rcv, rcd, y, p)

    lo, hi = energy_range
    probes = np.linspace(lo, hi, n_probe + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = [mismatch(e) for e in probes]
    roots = []
    for i in range(len(probes) - 1):
        fa, fb = vals[i], vals[i + 1]
        if not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        if fa == 0.0:
            roots.append(float(probes[i]))
            continue
        if (fa < 0) == (fb < 0):
            continue
        # Illinois regula falsi: false position, the midpoint where that is
        # not strictly inside, and the kept end's value halved on its second
        # keep in a row
        blo, bhi, flo, fhi = float(probes[i]), float(probes[i + 1]), fa, fb
        kept = None
        for _ in range(200):
            if bhi - blo < tol:
                break
            x = bhi - fhi * (bhi - blo) / (fhi - flo)
            if not blo < x < bhi:
                x = 0.5 * (blo + bhi)
            fx = mismatch(x)
            if fx == 0.0:
                blo = bhi = x
                break
            if (fx < 0) == (flo < 0):
                blo, flo = x, fx
                if kept == "hi":
                    fhi *= 0.5
                kept = "hi"
            else:
                bhi, fhi = x, fx
                if kept == "lo":
                    flo *= 0.5
                kept = "lo"
        roots.append(0.5 * (blo + bhi))
    return roots


def _rk4_step(y, p, g0, g1, g2, h):
    # one classical RK4 step of phi'' = g phi from (y, p), where g0, g1 and
    # g2 hold g at the step's start, midpoint and end: the general stages
    # that oracle._unit_steps specialises to the unit states
    h2 = h * 0.5
    h6 = h / 6.0
    k1p = g0 * y
    k2y = p + h2 * k1p
    k2p = g1 * (y + h2 * p)
    k3y = p + h2 * k2p
    k3p = g1 * (y + h2 * k2y)
    k4y = p + h * k3p
    k4p = g2 * (y + h * k3y)
    return (y + h6 * (p + 2.0 * (k2y + k3y) + k4y),
            p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


# g of both signs up to 1e6, both zeros, and the sizes between
G_VALUES = (-1e6, -31415.9, -250.0, -2.5, -1.0, -1e-3, -1e-300, -0.0,
            0.0, 1e-300, 1e-3, 0.7, 12.5, 4321.0, 1e6)


@pytest.mark.parametrize("h", [0.01, 0.0025, 1.0 / 1023])
def test_the_unit_state_step_matrices_are_the_general_rk4_stages_bit_for_bit(h):
    # one step for each (g0, g1, g2) drawn from G_VALUES
    g0, g1, g2 = np.array(list(itertools.product(G_VALUES, repeat=3))).T[:, None]
    m = np.empty((2, 2, *g0.shape))
    oracle._unit_steps(m, g0, g1, g2, h)
    (a, c), (b, d) = (_rk4_step(y, p, g0, g1, g2, h) for y, p in ((1.0, 0.0), (0.0, 1.0)))
    assert _hex(m) == _hex([[a, b], [c, d]])


def _general_march(y, p, e2, nodes, halves, h):
    # oracle._rk4 restated on the general stages, one energy at a time: each
    # block of 1024 steps' matrices, the last block's tail identity steps,
    # multiplied out neighbour by neighbour, entry by entry, the later step
    # on the left, and applied to (y, p)
    n = len(halves)
    out = []
    for yk, pk, ek in zip(y, p, e2):
        for start in range(0, n, 1024):
            stop = min(start + 1024, n)
            g = nodes[start:stop] - ek, halves[start:stop] - ek, nodes[start + 1:stop + 1] - ek
            m = np.zeros((2, 2, 1024))
            m[0, 0] = m[1, 1] = 1.0
            m[:, 0, :stop - start] = _rk4_step(1.0, 0.0, *g, h)
            m[:, 1, :stop - start] = _rk4_step(0.0, 1.0, *g, h)
            (a, b), (c, d) = m
            while len(a) > 1:
                a, b, c, d = (a[1::2] * a[::2] + b[1::2] * c[::2],
                              a[1::2] * b[::2] + b[1::2] * d[::2],
                              c[1::2] * a[::2] + d[1::2] * c[::2],
                              c[1::2] * b[::2] + d[1::2] * d[::2])
            yk, pk = a[0] * yk + b[0] * pk, c[0] * yk + d[0] * pk
        out.append((yk, pk))
    return np.array(out).T


@pytest.mark.parametrize("n", [1023, 1024, 1025])
def test_the_oracle_march_is_the_general_rk4_stages_multiplied_out_bit_for_bit(n):
    # v returns -0.0 on the first quarter of the span, so at eps = 0 g is
    # -0.0 there; spikes put |g| near 1e6 on a few steps of either sign
    h = 1.0 / n

    def v(x):
        out = np.where(x < 0.25, -0.0, 2.5 * np.sin(7.0 * x))
        out[::97] = 4e5
        out[50::131] = -4e5
        return out

    points = np.arange(n + 1) * h
    nodes, halves = 2.0 * v(points), 2.0 * v(points[:-1] + h * 0.5)
    assert np.signbit(nodes[1]) and nodes[1] == 0.0
    e2 = np.array([0.0, -6.0, 3.5, 40.0, -0.5])
    y, p = np.array([1.0, 0.0, 0.3, -2.0, 1e-3]), np.array([0.0, 1.0, -0.7, 0.5, 2.0])
    got = oracle._rk4(y, p, e2, nodes, halves, h)
    assert np.isfinite(got).all()
    assert _hex(got) == _hex(_general_march(y, p, e2, nodes, halves, h))


def _quartic():
    return anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)


def _box(n_steps):
    # a unit box marched in exactly n_steps steps at dense_factor=1
    return infinite_well(x0=(n_steps // 2) / n_steps, h=1.0 / n_steps, energy_max=50.0)


# (problem, window, probe cells, levels, dense_factor). The marches take 3200,
# 400 (shorter than one block), 4000 and 1023-1025 steps, against the
# oracle's blocks of 1024; the last three probe 7, 8 and 9 energies, against
# its chunks of 8
SHOOTING_CASES = {
    "poschl-teller": (lambda: poschl_teller(2.5, h=0.02, x_right=8.0), (-2.4, -0.01), 30, 2, 4),
    "box": (lambda: infinite_well(x0=0.4, h=0.01, energy_max=50.0), (1.0, 50.0), 60, 3, 4),
    "hydrogen": (lambda: radial(lambda r: -1.0 / r, l=0, h=0.02, r_max=20.0),
                 (-0.6, -0.1), 20, 2, 4),
    "box-1023": (lambda: _box(1023), (1.0, 50.0), 6, 3, 1),
    "box-1024": (lambda: _box(1024), (1.0, 50.0), 7, 3, 1),
    "box-1025": (lambda: _box(1025), (1.0, 50.0), 8, 3, 1),
}


@pytest.mark.parametrize("case", sorted(SHOOTING_CASES))
def test_every_oracle_march_ends_on_the_bits_of_a_batch_of_one(case, monkeypatch):
    # the probe lattice is marched as one batch and the iterates of the open
    # brackets as one batch per refinement iteration; an energy must end on
    # the same bits in any of them as alone
    make, window, n_probe, n_levels, dense = SHOOTING_CASES[case]
    march = oracle._rk4
    calls = []

    def recording(y, p, e2, *grid):
        ends = march(y, p, e2, *grid)
        calls.append((y, p, e2, grid, ends))
        return ends

    monkeypatch.setattr(oracle, "_rk4", recording)
    roots = shooting_reference(make(), window, n_probe=n_probe, dense_factor=dense)
    assert len(roots) == n_levels
    assert [len(e2) for *_, e2, _, _ in calls[:2]] == [n_probe + 1, n_levels]
    assert all(len(e2) <= n_levels for *_, e2, _, _ in calls[1:])
    for y, p, e2, grid, ends in calls:
        for i in range(len(e2)):
            alone = march([y[i]], [p[i]], [e2[i]], *grid)
            assert [float(a[0]).hex() for a in alone] == [float(b[i]).hex() for b in ends]


@pytest.mark.parametrize("case", sorted(SHOOTING_CASES))
def test_each_refinement_iteration_marches_every_open_bracket_together(case, monkeypatch):
    # after the probe batch, each march holds one iterate of every bracket
    # still open, in bracket order, and a closed bracket is not marched again
    make, window, n_probe, n_levels, dense = SHOOTING_CASES[case]
    march = oracle._rk4
    batches = []

    def recording(y, p, e2, *grid):
        batches.append([0.5 * e for e in e2])
        return march(y, p, e2, *grid)

    monkeypatch.setattr(oracle, "_rk4", recording)
    roots = shooting_reference(make(), window, n_probe=n_probe, dense_factor=dense)
    assert len(roots) == n_levels
    assert len(batches[0]) == n_probe + 1
    # each iterate lies in its bracket, a probe cell holding one root
    held = [[min(range(n_levels), key=lambda k: abs(roots[k] - e)) for e in batch]
            for batch in batches[1:]]
    assert held[0] == list(range(n_levels))
    for now, then in zip(held, held[1:]):
        assert now == sorted(set(now))
        assert set(then) <= set(now)


def _rebind_closings(monkeypatch, edit=None):
    # rebinds oracle.wronskian, which closes each march batch as one array:
    # every entry of every closing array is recorded, in order, in the list
    # returned. edit(first, out), when given, may change a batch's entries
    # in place first, first being the index its first entry is recorded at
    entries = []

    def closing(*args):
        out = np.array(wronskian(*args), dtype=float)
        if edit is not None:
            edit(len(entries), out)
        entries.extend(out.tolist())
        return out

    monkeypatch.setattr(oracle, "wronskian", closing)
    return entries


@pytest.mark.parametrize("case", sorted(SHOOTING_CASES))
def test_shooting_reference_agrees_with_the_stepwise_loop(case, monkeypatch):
    # The block product associates the RK4 arithmetic by blocks, the loop
    # step by step, so they agree to rounding, not bit for bit. Roots are
    # compared, and so are the probe closings, since roots see the mismatch
    # only through its sign. Both close to 1e-13: at the default 1e-10 the
    # two root finders can stop at different steps, 3.6e-11 apart on box-1023.
    make, window, n_probe, n_levels, dense = SHOOTING_CASES[case]
    problem = make()
    closings = _rebind_closings(monkeypatch)
    roots = shooting_reference(problem, window, n_probe=n_probe, dense_factor=dense, tol=1e-13)
    expected_closings = []

    def recording(*args):
        expected_closings.append(wronskian(*args))
        return expected_closings[-1]

    expected = _per_energy_shooting(problem, window, n_probe, closing=recording,
                                    dense_factor=dense, tol=1e-13)
    assert len(roots) == len(expected) == n_levels
    assert max(abs(r - e) for r, e in zip(roots, expected)) <= 1e-12
    probes, expected_probes = closings[:n_probe + 1], expected_closings[:n_probe + 1]
    scale = max(abs(c) for c in expected_probes)
    assert max(abs(a - b) for a, b in zip(probes, expected_probes)) <= 1e-12 * scale


@pytest.mark.parametrize("k", [0, 4, 9, 10, 18, 26, 27, 29, 30])
def test_an_exact_zero_on_a_probe_is_one_root_where_it_brackets_a_level(k, monkeypatch):
    # Probes 0-9 and 27-30 of this lattice are positive, 10-26 negative. A
    # zero on probe k has no sign: it is one root, as scan_brackets counts
    # it, where its neighbours straddle it (k = 9, 10, 26, 27) or on a
    # window edge (k = 0, 30), and no root between probes of one sign.
    def zero_on_probe_k(first, out):
        if first <= k < first + len(out):
            out[k - first] = 0.0

    _rebind_closings(monkeypatch, zero_on_probe_k)
    make, window, n_probe, n_levels, _ = SHOOTING_CASES["poschl-teller"]
    roots = shooting_reference(make(), window, n_probe=n_probe)
    cell = (window[1] - window[0]) / n_probe
    assert len(roots) == n_levels + (k in (0, n_probe))
    for level in poschl_teller_exact_energies(2.5):
        assert sum(abs(r - level) < cell for r in roots) == 1


@pytest.mark.parametrize("f, tol, max_iter", [
    (lambda x: np.where((0.4 < x) & (x < 0.6), math.nan, x - 0.5), 1e-10, 200),
    # a step with no zero takes 17 steps to close to adjacent floats
    (lambda x: np.where(x < 0.5, -1.0, 1.0), 0.0, 8),
], ids=["non-finite-iterate", "steps-run-out"])
def test_the_root_finder_returns_no_root_it_did_not_close(f, tol, max_iter):
    fn = CharacteristicFunction(lambda e: Evaluation(f(e)), label="synthetic")
    f_lo, f_hi = f(np.array([0.0, 1.0])).tolist()
    with pytest.raises(RefinementError):
        refine_root(fn, Bracket(0.0, 1.0, f_lo, f_hi), tol_e=tol, max_iter=max_iter)


def test_shooting_reference_warns_when_a_bracket_is_dropped(monkeypatch):
    # every root-finder march past the probe lattice ends non-finite, so both
    # brackets are dropped and each is said to be, not closed on a midpoint
    make, window, n_probe, n_levels, _ = SHOOTING_CASES["poschl-teller"]

    def nan_past_the_probes(first, out):
        out[max(0, n_probe + 1 - first):] = math.nan

    _rebind_closings(monkeypatch, nan_past_the_probes)
    with pytest.warns(RefinementWarning) as record:
        assert shooting_reference(make(), window, n_probe=n_probe) == []
    messages = [str(w.message) for w in record]
    assert len(messages) == n_levels
    assert all("dropped: flagged evaluation" in m for m in messages)


def test_shooting_reference_needs_few_marches_per_root(monkeypatch):
    # every closing past the probe lattice is one root-finder iterate; plain
    # bisection from a 1/16-wide cell to the 1e-10 width takes 30 per root
    closings = _rebind_closings(monkeypatch)
    n_probe = 40
    roots = shooting_reference(poschl_teller(2.5, h=0.01, x_right=5.0), (-2.5, 0.0),
                               n_probe=n_probe)
    assert len(roots) == 2
    assert len(closings) - (n_probe + 1) <= 10 * len(roots)


@pytest.mark.parametrize("dense_factor", [-1, 0, 2.5, math.inf])
def test_shooting_reference_rejects_a_dense_factor_that_is_not_a_positive_integer(dense_factor):
    problem = poschl_teller(2.5, h=0.02, x_right=5.0)
    with pytest.raises(ValueError, match="dense_factor must be (a whole number|at least 1)"):
        shooting_reference(problem, (-2.5, 0.0), n_probe=10, dense_factor=dense_factor)


@pytest.mark.parametrize("window, n_probe, match", [
    ((-2.5, math.inf), None, "energy window must be finite"),
    ((-2.5, math.inf), 10, "energy window must be finite"),
    ((math.nan, 0.0), 10, "energy window must be finite"),
    ((0.0, -2.5), 10, "energy range is reversed"),
    ((-2.5, 0.0), 0, "n_probe must be at least 1"),
    ((-2.5, 0.0), -3, "n_probe must be at least 1"),
], ids=["infinite", "infinite-10-cells", "nan", "reversed", "no-cell", "negative-cells"])
def test_shooting_reference_rejects_a_reversed_range_or_no_probe_cell(window, n_probe, match):
    problem = poschl_teller(2.5, h=0.02, x_right=5.0)
    with pytest.raises(ValueError, match=match):
        shooting_reference(problem, window, n_probe=n_probe)


@pytest.fixture(scope="module")
def quartic_shooting():
    # the quartic E <= 100 at h = 0.01: most probe marches overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = shooting_reference(_quartic(), (0.0, 100.0))
    return roots, caught


def _fd_levels(problem, window):
    # the levels of -psi''/2 + v psi between walls at the grid ends, by the
    # second-difference tridiagonal, Richardson-extrapolated over two steps
    from scipy.linalg import eigh_tridiagonal

    x_lo, x_hi = problem.grid.x_left, problem.grid.x_right
    if problem.symmetric:
        x_lo = -x_hi
    fd = []
    for step in (0.01, 0.005):
        n = int(round((x_hi - x_lo) / step))
        x = x_lo + step * np.arange(1, n)
        diag = 1.0 / step ** 2 + np.array([problem.potential.evaluate(xi) for xi in x])
        off = np.full(n - 2, -0.5 / step ** 2)
        fd.append(eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                   select_range=(window[0] - 1.0, window[1] + 1.0)))
    coarse, fine = fd
    assert len(coarse) == len(fine)
    return [float(e) for e in (4.0 * fine - coarse) / 3.0 if window[0] <= e <= window[1]]


def test_overflowing_shooting_probes_emit_no_numpy_warning(quartic_shooting):
    _, caught = quartic_shooting
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_quartic_shooting_roots_are_distinct_fd_levels(quartic_shooting):
    # within the census tolerance of 5e-3, each root is its own FD level
    roots, _ = quartic_shooting
    levels = _fd_levels(_quartic(), (0.0, 100.0))
    nearest = [min(range(len(levels)), key=lambda j: abs(levels[j] - r)) for r in roots]
    assert roots
    assert len(set(nearest)) == len(roots)
    assert all(abs(levels[j] - r) <= 5e-3 for j, r in zip(nearest, roots))


def test_shooting_reference_warns_when_probes_end_non_finite(quartic_shooting):
    # a run of non-finite probes leaves its cells unbracketed, so levels
    # there are lost; each run must be reported, and a clean lattice stays
    # silent
    _, caught = quartic_shooting
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == [
        f"every probe from {a} to {b} was flagged; levels in that span are not bracketed"
        for a, b in (("0", "87.25"), ("87.75", "91.375"))]
    make, window, n_probe, n_levels, _ = SHOOTING_CASES["poschl-teller"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(shooting_reference(make(), window, n_probe=n_probe)) == n_levels


def _counting(problem):
    # calls[0] counts the calls of v, calls[1] the points they read
    calls = [0, 0]
    v = problem.potential.evaluate

    def counted(x):
        calls[0] += 1
        calls[1] += np.size(x)
        return v(x)

    pot = dataclasses.replace(problem.potential, evaluate=counted)
    return dataclasses.replace(problem, potential=pot), calls


@pytest.mark.parametrize("make, steps", [
    # symmetric: shot across the reflected span, 2 * 4 * n_right steps
    (lambda: poschl_teller(2.5, h=0.02, x_right=8.0), 2 * 4 * 400),
    (lambda: infinite_well(x0=0.4, h=0.01, energy_max=50.0), 4 * 100),
], ids=["poschl-teller", "box"])
@pytest.mark.parametrize("n_probe", [10, 45])
def test_shooting_reference_samples_the_potential_once(make, steps, n_probe):
    problem, calls = _counting(make())
    lo, hi = problem.energy_range
    shooting_reference(problem, (lo + 0.01 * (hi - lo), hi), n_probe=n_probe)
    # by the solver's rule: one call on the march's points, one on its midpoints
    assert calls == [2, 2 * steps + 1]


def test_a_lopsided_parity_invariant_problem_is_shot_over_its_own_span():
    # n_left = 60 is no mirror of n_right = 500: the solver marches [-0.6, 5],
    # and so must the reference, not the reflected [-5, 5]
    spec = PotentialSpec(evaluate=lambda x: -3.0 * math.exp(-x * x), parity_invariant=True)
    grid = make_grid(0.0, 0.01, 60, 500)
    problem = Problem(spec, grid, decay_model(grid.x_left, grid.x_right), (-3.0, 0.0))
    assert not problem.symmetric
    engine = [r.energy for r in find_eigenvalues(problem)]
    assert engine == pytest.approx([-1.82900, -0.10591], abs=1e-5)
    assert shooting_reference(problem) == pytest.approx(engine, abs=1e-8)


def test_the_oracle_imports_nothing_from_the_production_integrator():
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        assert "integrate" not in parts, ast.dump(node)
