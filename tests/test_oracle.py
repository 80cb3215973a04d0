"""Finite-difference and shooting cross-checks."""

import ast
import dataclasses
import math
import warnings

import numpy as np
import pytest

from boundstates import (
    anharmonic,
    box_exact_energy,
    fd_box_dispersion,
    fd_box_recurrence_eigenvalues,
    infinite_well,
    oracle,
    poschl_teller,
    poschl_teller_exact_energies,
    radial,
    shooting_reference,
)
from boundstates.core import wronskian
from boundstates.oracle import fd_box_recurrence_vector

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
    vec = fd_box_recurrence_vector(N, fd_box_dispersion(3, 1.0 / N))
    assert vec[0] == 0.0
    assert abs(vec[-1]) <= 1e-9 * np.max(np.abs(vec))


def test_recurrence_shooting_matches_the_dispersion_formula():
    N = 12
    roots = fd_box_recurrence_eigenvalues(N, 5)
    for n, root in enumerate(roots, start=1):
        assert abs(root - fd_box_dispersion(n, 1.0 / N)) <= 1e-10


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
        blo, bhi, flo = float(probes[i]), float(probes[i + 1]), fa
        for _ in range(200):
            if bhi - blo < tol:
                break
            mid = 0.5 * (blo + bhi)
            fm = mismatch(mid)
            if fm == 0.0:
                blo = bhi = mid
                break
            if (fm < 0) == (flo < 0):
                blo, flo = mid, fm
            else:
                bhi = mid
        roots.append(0.5 * (blo + bhi))
    return roots


def _quartic():
    return anharmonic(0.0, 1.0, h=0.01, energy_max=100.0)


SHOOTING_CASES = {
    "poschl-teller": (lambda: poschl_teller(2.5, h=0.02, x_right=8.0), (-2.4, -0.01), 30, 2),
    "box": (lambda: infinite_well(x0=0.4, h=0.01, energy_max=50.0), (1.0, 50.0), 60, 3),
    "hydrogen": (lambda: radial(lambda r: -1.0 / r, l=0, h=0.02, r_max=20.0),
                 (-0.6, -0.1), 20, 2),
    # every probe overflows, so no bracket survives
    "quartic": (_quartic, (0.0, 100.0), 40, 0),
}


@pytest.mark.parametrize("case", sorted(SHOOTING_CASES))
def test_shooting_reference_matches_the_per_energy_loop_bit_for_bit(case, monkeypatch):
    # Roots depend on the mismatch only through its sign, so the closing
    # Wronskians are recorded as well: every probe and bisection midpoint
    # must end its march on the same bits as the per-energy loop.
    make, window, n_probe, n_levels = SHOOTING_CASES[case]
    problem = make()
    closings = []

    def recording(*args):
        closings.append(tuple(float(a).hex() for a in args))
        return wronskian(*args)

    monkeypatch.setattr(oracle, "wronskian", recording)
    roots = shooting_reference(problem, window, n_probe=n_probe)
    batched, closings[:] = closings[:], []
    expected = _per_energy_shooting(problem, window, n_probe, closing=recording)
    assert len(roots) == n_levels
    assert [r.hex() for r in roots] == [r.hex() for r in expected]
    assert len(batched) > n_probe
    assert batched == closings


def test_overflowing_shooting_probes_emit_no_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert shooting_reference(_quartic(), (0.0, 100.0)) == []


def _counting(problem):
    calls = [0]
    v = problem.potential.evaluate

    def counted(x):
        calls[0] += 1
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
    assert calls[0] == 2 * steps + 1


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
