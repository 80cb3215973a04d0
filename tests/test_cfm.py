"""Canonical-function route: ratios, analytic box form, saturation profiles."""

import math

import numpy as np
import pytest

from boundstates import (
    CharacteristicFunction,
    Evaluation,
    PotentialSpec,
    Problem,
    box_characteristic_analytic,
    box_exact_energy,
    cfm_l_ratios,
    dirichlet_determinant,
    find_eigenvalues,
    infinite_well,
    make_grid,
    poschl_teller,
    radial,
    refine_root,
    saturation_profile,
    scan_brackets,
)
from boundstates.cfm import cfm_value, endpoint_ratio
from boundstates.integrate import canonical_endpoints, canonical_pair, sample_potential
from boundstates.potentials import anharmonic, decay_model

PT = poschl_teller(2.5, h=0.01, x_right=5.0)
PT_WIDE = poschl_teller(2.5, h=0.01, x_right=10.0)


def _free_problem(x_right=5.0):
    spec = PotentialSpec(evaluate=lambda x: 0.0, parity_invariant=True)
    grid = make_grid(0.0, 0.01, 0, int(round(x_right / 0.01)))
    return Problem(spec, grid, decay_model(),
                   energy_range=(-2.0, 0.0))


@pytest.mark.parametrize("energy", [0.0, -1.0])
def test_analytic_box_rejects_nonpositive_energy(energy):
    # no level is at or below 0: the value there is NaN, flagged "domain"
    ev = box_characteristic_analytic(np.array([energy, 5.0]), 0.25)
    assert math.isnan(ev.value[0]) and ev.at(0).flag == "domain"
    assert ev.at(1).ok


@pytest.mark.parametrize("x0", [0.0, 1.0, -0.2, 1.5])
def test_analytic_box_rejects_origin_outside_interval(x0):
    with pytest.raises(ValueError):
        box_characteristic_analytic(np.array([5.0]), x0)


def _entries(ev):
    # each energy's value bits and flag
    return [(float(v).hex(), f) for v, f in zip(ev.value.tolist(), ev.flag)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_analytic_box_changes_sign_at_each_level(n):
    e = box_exact_energy(n)
    batch = box_characteristic_analytic(np.array([e - 1e-3, e + 1e-3, e]), 0.125)
    lo, hi, at = (batch.at(i) for i in range(3))
    assert lo.ok and hi.ok
    assert (lo.value < 0) != (hi.value < 0)
    assert abs(at.value) < 1e-8
    # each energy's bits in a batch of 1, 2 and 301, through the poles at
    # 6.4 n^2 and below 0, are its own
    energies = np.concatenate([[e], np.linspace(-5.0, 125.0, 300)])
    alone = [_entries(box_characteristic_analytic(energies[i:i + 1], 0.125))[0]
             for i in range(301)]
    for size in (1, 2, 301):
        assert _entries(box_characteristic_analytic(energies[:size], 0.125)) == alone[:size]


def test_symmetric_cfm_has_the_sign_and_zeros_of_the_endpoint_product():
    # the reflected rows are (C_R, -S_R) and (C_R, S_R): F = 2 C_R S_R / |r_R|^2
    samples = sample_potential(PT.potential, PT.grid)

    def product(energies):
        _, cr, _, sr, _ = canonical_endpoints(energies, PT.grid, samples).right
        return cr * sr, cr * cr + sr * sr

    energies = np.linspace(-2.45, -0.05, 25)
    evs = cfm_value(PT, canonical_endpoints(energies, PT.grid, samples))
    for i, (p, norm) in enumerate(zip(*(a.tolist() for a in product(energies)))):
        ev = evs.at(i)
        assert ev.ok
        assert (ev.value < 0) == (p < 0)
        assert ev.value == pytest.approx(2.0 * p / norm, rel=1e-14)
    raw = CharacteristicFunction(lambda e: Evaluation(product(e)[0]), label="C_R S_R")
    zeros = [refine_root(raw, b) for b in scan_brackets(raw, PT.energy_range, 50)]
    levels = [r.energy for r in find_eigenvalues(PT, method="cfm", n_probe=50)]
    assert len(zeros) == 2
    assert levels == pytest.approx(zeros, abs=1e-9)


def test_endpoint_ratio_flags_a_zero_denominator():
    # a degenerate grid whose right end is the origin itself, where S = 0
    spec = PotentialSpec(evaluate=lambda x: 0.0)
    ends = canonical_pair(spec, -1.0, make_grid(0.0, 0.01, 100, 0)).ends
    l_minus, l_plus = (ev.at(0) for ev in cfm_l_ratios(ends))
    assert l_minus.ok
    assert not l_plus.ok
    assert l_plus.flag == "pole"


def test_truncated_pair_flags_overflow():
    slab = PotentialSpec(evaluate=lambda x: 25.0)
    prob = Problem(slab, make_grid(0.0, 0.01, 0, 10000),
                   decay_model(), energy_range=(-2.0, 0.0))
    ends = canonical_pair(slab, -1.0, prob.grid).ends
    # the right sweep outgrew the double range and still reached x_right
    assert ends.right[0] == prob.grid.x_right
    assert not np.isfinite(ends.right[1:]).all()
    ev = cfm_value(prob, ends).at(0)
    assert not ev.ok
    assert ev.flag == "overflow"


def test_value_and_derivative_ratios_share_the_limit():
    ends = canonical_pair(PT_WIDE.potential, -1.0, PT_WIDE.grid).ends
    lv_minus, lv_plus = cfm_l_ratios(ends)
    # C'/S' converges to the same limit as C/S for a decaying boundary
    (_, _, dcl, _, dsl), (_, _, dcr, _, dsr) = ends.left, ends.right
    ld_minus, ld_plus = endpoint_ratio(dcl, dsl), endpoint_ratio(dcr, dsr)
    assert abs(lv_plus.value - ld_plus.value) < 1e-8
    assert abs(lv_minus.value - ld_minus.value) < 1e-8


def test_saturation_profile_orders_the_two_representations():
    prof = saturation_profile(PT, -1.0, tol=1e-6)
    assert prof.saturation_x_wm == pytest.approx(3.77, abs=0.05)
    assert prof.saturation_x_cfm > 4.5
    assert prof.saturation_x_wm < prof.saturation_x_cfm
    assert prof.tol == 1e-6
    # rows start at the origin where C/S has its structural pole
    assert prof.x[0] == 0.0
    assert math.isnan(prof.cfm_ratio[0])
    assert math.isfinite(prof.wm_ratio[0])


def test_saturation_profile_carries_its_columns():
    prof = saturation_profile(PT, -1.0, tol=1e-6)
    pair = canonical_pair(PT.potential, -1.0, PT.grid)
    keep = pair.x >= 0.0
    c, dc, s, ds = pair.c[keep], pair.dc[keep], pair.s[keep], pair.ds[keep]
    assert np.array_equal(prof.x, pair.x[keep])
    assert np.array_equal(prof.c, c) and np.array_equal(prof.s, s)
    rcv, rcd = np.array([PT.asymptotics.right_convergent(-1.0, x)
                         for x in prof.x.tolist()]).T
    assert np.array_equal(prof.w_rc_c, rcv * dc - rcd * c)
    assert np.array_equal(prof.w_rc_s, rcv * ds - rcd * s)
    for ratio, num, den in ((prof.wm_ratio, prof.w_rc_c, prof.w_rc_s),
                            (prof.cfm_ratio, prof.c, prof.s)):
        expected = [endpoint_ratio(a, b).value for a, b in zip(num.tolist(), den.tolist())]
        assert np.array_equal(ratio, expected, equal_nan=True)


def test_saturation_limits_agree_once_converged():
    prof = saturation_profile(PT_WIDE, -1.0, tol=1e-6)
    assert abs(prof.limit_wm - prof.limit_cfm) < 1e-6


def test_free_space_wronskian_ratio_is_flat():
    prof = saturation_profile(_free_problem(), -1.0, tol=1e-6)
    k = math.sqrt(2.0)
    assert prof.saturation_x_wm == 0.0
    assert np.nanmax(np.abs(prof.wm_ratio - k)) < 1e-12
    # the value ratio k coth(k x) still needs most of the window
    assert prof.saturation_x_cfm > 4.0


def test_saturation_profile_needs_a_decaying_right_side():
    box = infinite_well(x0=0.5, h=0.01, energy_max=60.0)
    with pytest.raises(ValueError):
        saturation_profile(box, 5.0)


@pytest.mark.parametrize("energy", [0.5, 0.0])
def test_saturation_profile_on_decaying_tails_needs_an_energy_below_0(energy):
    # k clamped to 0 gave a limit_wm of -0.842 at 0.5 from a flat "decaying" member
    with pytest.raises(ValueError, match=f"energy below 0, got {energy!r}"):
        saturation_profile(poschl_teller(2.5), energy)
    # a quartic well's members do not depend on the energy, and take any
    assert math.isfinite(saturation_profile(anharmonic(1.0, 1.0), 2.0).limit_wm)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
def test_saturation_profile_rejects_a_band_that_is_not_finite_and_nonnegative(tol):
    # a NaN band put every sample inside it: saturation_x read 0.0
    with pytest.raises(ValueError, match="saturation band tol"):
        saturation_profile(PT, -1.0, tol=tol)


def test_dirichlet_determinant_needs_hard_walls():
    hydrogen = radial(lambda r: -1.0 / r, l=0, h=0.01, r_max=10.0)
    with pytest.raises(ValueError):
        dirichlet_determinant(hydrogen)
    with pytest.raises(ValueError):
        dirichlet_determinant(PT)
