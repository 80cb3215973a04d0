"""Catalog constructors: closed-form spectra, boundary models, validation."""

import math

import pytest
from hypothesis import given, strategies as st

from boundstates import (
    box_exact_energy,
    infinite_well,
    poschl_teller,
    poschl_teller_critical_strengths,
    poschl_teller_exact_energies,
    radial,
    wronskian,
)
from boundstates.core import ASYMPTOTIC_LIMIT, HARD_DIRICHLET
from boundstates.potentials import (
    anharmonic,
    decay_model,
    hard_wall_model,
    poschl_teller_lambda,
    quartic_decay_model,
    radial_model,
)


def test_depth_parameter_reference_value():
    # v0 = 10 sits exactly at the fifth critical strength, lam = 5
    assert poschl_teller_lambda(10.0) == 5.0


def test_exact_spectrum_at_the_critical_depth():
    # at integer lam the threshold state is not bound, so four levels only
    assert poschl_teller_exact_energies(10.0) == [-8.0, -4.5, -2.0, -0.5]


def test_critical_strengths():
    assert poschl_teller_critical_strengths(4) == [0.0, 1.0, 3.0, 6.0]
    # a count by the count rule: 4.0 is 4, and 2.5 raised TypeError
    assert poschl_teller_critical_strengths(4.0) == [0.0, 1.0, 3.0, 6.0]
    with pytest.raises(ValueError, match="count must be a whole number"):
        poschl_teller_critical_strengths(2.5)


@pytest.mark.parametrize("v0,count", [(0.4, 1), (2.5, 2), (10.0, 4)])
def test_level_counts(v0, count):
    assert len(poschl_teller_exact_energies(v0)) == count


@given(st.floats(min_value=0.05, max_value=50.0))
def test_spectrum_shape(v0):
    lam = poschl_teller_lambda(v0)
    # stay away from critical depths where the count formula is ambiguous
    if abs(lam - round(lam)) < 1e-6:
        return
    energies = poschl_teller_exact_energies(v0)
    assert len(energies) == math.floor(lam - 1.0) + 1
    assert all(-v0 < e < 0.0 for e in energies)
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_box_exact_energy_and_spectrum_window():
    assert box_exact_energy(1) == pytest.approx(0.5 * math.pi ** 2)
    with pytest.raises(ValueError):
        box_exact_energy(0)
    # the levels are whole n; 2.5 gave an energy that is no level
    for n in (2.5, math.inf):
        with pytest.raises(ValueError, match="box level n must be a whole number"):
            box_exact_energy(n)
    prob = infinite_well(x0=0.5, h=0.01, energy_max=60.0)
    window = prob.exact_spectrum(0.0, 60.0)
    assert window == [box_exact_energy(n) for n in (1, 2, 3)]


@pytest.mark.parametrize("x0", [0.0, 1.0, -0.25, 2.0])
def test_box_rejects_origin_outside_walls(x0):
    with pytest.raises(ValueError):
        infinite_well(x0=x0)


def test_box_requires_commensurate_origin():
    with pytest.raises(ValueError):
        infinite_well(x0=1.0 / 3.0, h=0.001)


def test_box_walls_and_grid():
    prob = infinite_well(x0=0.25, h=0.005)
    assert prob.grid.x_left == pytest.approx(0.0, abs=1e-12)
    assert prob.grid.x_right == pytest.approx(1.0, abs=1e-12)
    assert prob.asymptotics.left_kind == HARD_DIRICHLET
    assert prob.asymptotics.right_kind == HARD_DIRICHLET


def test_poschl_teller_rejects_nonpositive_depth():
    for v0 in (0.0, -1.0):
        with pytest.raises(ValueError):
            poschl_teller(v0)


def test_anharmonic_auto_width_buries_the_boundary_error():
    prob = anharmonic(2.0, 0.5, h=0.01)
    x_r = prob.grid.x_right
    v = prob.potential.evaluate
    emax = prob.energy_range[1]
    assert v(x_r) >= 50.0 * abs(emax)
    assert abs(round(x_r / 0.01) * 0.01 - x_r) < 1e-9


def test_anharmonic_double_well_floor():
    prob = anharmonic(-4.0, 0.5)
    assert prob.energy_range[0] == -8.0
    assert prob.potential.evaluate(2.0) == pytest.approx(-8.0)


def test_anharmonic_rejects_nonpositive_quartic():
    with pytest.raises(ValueError):
        anharmonic(1.0, 0.0)


def test_radial_effective_potential_adds_the_centrifugal_term():
    prob = radial(lambda r: -1.0 / r, l=1, h=0.01, r_max=10.0)
    assert prob.potential.evaluate(2.0) == pytest.approx(1.0 / 4.0 - 0.5)


def test_radial_rejects_too_singular_inner_potentials():
    with pytest.raises(ValueError):
        radial(lambda r: -1.0 / (r * r), l=0)


def test_radial_rejects_bad_geometry_and_angular_momentum():
    ok = lambda r: -1.0 / r
    with pytest.raises(ValueError):
        radial(ok, l=-1)
    with pytest.raises(ValueError):
        radial(ok, l=0.5)
    # inf overflowed in the conversion; a whole float is that l
    with pytest.raises(ValueError, match="angular momentum l must be a whole number"):
        radial(ok, l=math.inf)
    assert radial(ok, l=1.0).potential.evaluate(2.0) == radial(ok, l=1).potential.evaluate(2.0)
    with pytest.raises(ValueError):
        radial(ok, r_origin=1.0, r_min=2.0)
    with pytest.raises(ValueError):
        radial(ok, r_origin=20.0, r_max=10.0)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_radial_origin_members_have_constant_wronskian(l):
    model = radial_model(l, 10.0)
    for r in (0.1, 0.37, 1.0):
        cv, cd = model.left_convergent(-1.0, r)
        dv, dd = model.left_divergent(-1.0, r)
        assert wronskian(cv, cd, dv, dd) == pytest.approx(-(2 * l + 1), rel=1e-12)
    assert model.requires_negative_energy


def test_decay_model_members_anchor_at_their_endpoints():
    model = decay_model(-5.0, 5.0)
    k = math.sqrt(2.0)
    assert model.right_convergent(-1.0, 5.0) == (1.0, -k)
    assert model.right_divergent(-1.0, 5.0) == (1.0, k)
    assert model.left_convergent(-1.0, -5.0) == (1.0, k)
    assert model.requires_negative_energy
    assert model.right_kind == ASYMPTOTIC_LIMIT


def test_hard_wall_members():
    model = hard_wall_model(0.0, 1.0)
    assert model.left_convergent(3.0, 0.0) == (0.0, -1.0)
    assert model.right_convergent(3.0, 1.0) == (0.0, -1.0)
    assert model.left_divergent(3.0, 0.3) == (1.0, 0.0)
    assert not model.requires_negative_energy


def test_quartic_decay_members_anchor_and_log_derivative():
    model = quartic_decay_model(0.5, -4.0, 4.0)
    value, slope = model.right_convergent(-1.0, 4.0)
    assert (value, slope) == (1.0, -16.0)
    value, slope = model.right_convergent(-1.0, 3.0)
    assert slope / value == pytest.approx(-9.0, rel=1e-12)
    value, slope = model.left_convergent(-1.0, -3.0)
    assert slope / value == pytest.approx(9.0, rel=1e-12)
