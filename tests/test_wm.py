"""Boundary-Wronskian quantization: identities, flags, eigenfunction assembly."""

import dataclasses
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boundstates import (
    anharmonic,
    characteristic_for,
    find_eigenvalues,
    infinite_well,
    make_grid,
    poschl_teller,
    radial,
    refine_root,
    scan_brackets,
    wm_eigenfunction,
    wm_rows,
)
from boundstates.cfm import cfm_value
from boundstates.core import DegenerateRootError
from boundstates.integrate import canonical_endpoints, canonical_pair, sample_potential
from boundstates import roots
from boundstates.roots import _METHODS
from boundstates.wm import (
    _count_nodes,
    boundary_value,
    wm_value,
    wm_value_symmetric,
)

PT = poschl_teller(2.5, h=0.01, x_right=5.0)
PT_WIDE = poschl_teller(2.5, h=0.01, x_right=10.0)
# same potential integrated across the whole line instead of reflecting: not
# declared even, so the mirrored grid's left side is marched leftward
PT_TWO_SIDED = dataclasses.replace(
    PT, potential=dataclasses.replace(PT.potential, parity_invariant=False),
    grid=make_grid(0.0, 0.01, 500, 500))


@pytest.mark.parametrize("energy", [3.0, 10.0, 30.0, 55.0])
def test_hard_wall_determinant_reduces_to_dirichlet(energy):
    # W(wall, C) = C at a wall of slope -1, so WM's rows are the wall rows
    prob = infinite_well(x0=0.25, h=0.005, energy_max=60.0)
    ends = canonical_pair(prob.potential, energy, prob.grid).ends
    wm = wm_value(prob, ends).at(0)
    di = characteristic_for(prob, "dirichlet").evaluate(energy)
    assert wm.ok and di.ok
    assert wm == di == cfm_value(prob, ends).at(0)


@pytest.mark.parametrize("energy", [-2.0, -1.0, -0.45])
def test_reflection_ties_left_wronskians_to_right_ones(energy):
    # a potential not declared even is marched leftward, never reflected
    assert PT_TWO_SIDED.grid.n_left == 500 and not PT_TWO_SIDED.symmetric
    pair = canonical_pair(PT_TWO_SIDED.potential, energy, PT_TWO_SIDED.grid)
    (lc_c, lc_s), (rc_c, rc_s) = wm_rows(PT_TWO_SIDED, pair.ends)
    assert lc_c == pytest.approx(-rc_c, rel=1e-9, abs=1e-12)
    assert lc_s == pytest.approx(rc_s, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("energy", [-2.0, -1.0, -0.45])
def test_full_determinant_factors_into_parity_pieces(energy):
    pair = canonical_pair(PT.potential, energy, PT.grid)
    # the half grid's pair is reflected onto the full line
    assert PT.grid.n_left == 0 and len(pair.x) == 2 * PT.grid.n_right + 1
    ends = pair.ends
    full = wm_value(PT, ends).value
    even = wm_value_symmetric(PT, ends, "even").value
    odd = wm_value_symmetric(PT, ends, "odd").value
    assert full == pytest.approx(-2.0 * even * odd, rel=1e-14)
    # the same factorization holds for honest two-sided integration, up to
    # the accumulated difference between the two sweeps
    ends2 = canonical_pair(PT_TWO_SIDED.potential, energy, PT_TWO_SIDED.grid).ends
    full2 = wm_value(PT_TWO_SIDED, ends2).value
    even2 = wm_value_symmetric(PT_TWO_SIDED, ends2, "even").value
    odd2 = wm_value_symmetric(PT_TWO_SIDED, ends2, "odd").value
    assert full2 == pytest.approx(-2.0 * even2 * odd2, rel=1e-9)


@pytest.mark.parametrize("problem", [PT, PT_TWO_SIDED], ids=["reflected", "two-sided"])
@pytest.mark.parametrize("energy", [-2.0, -1.0, -0.45])
def test_each_parity_factor_is_f_against_its_origin_row(problem, energy):
    # the even levels meet psi'(0) = 0, whose origin row is (0, -1), and the
    # odd ones psi(0) = 0, row (1, 0): F of that row against r_R is the factor
    ends = canonical_pair(problem.potential, energy, problem.grid).ends
    factors = boundary_value(wm_rows, problem, ends, (0, 1)).at(0)
    assert factors.ok and factors.value == (wm_value_symmetric(problem, ends, "even").at(0).value,
                                            wm_value_symmetric(problem, ends, "odd").at(0).value)
    for origin, factor in zip(((0.0, -1.0), (1.0, 0.0)), factors.value):
        def rows(problem, ends):
            return origin, wm_rows(problem, ends)[1]
        ev = boundary_value(rows, problem, ends).at(0)
        assert struct.pack("<d", ev.value) == struct.pack("<d", factor)


SCALE_PROBLEMS = {
    "poschl-teller": PT,
    "box": infinite_well(x0=0.25, h=0.005, energy_max=60.0),
    "radial": radial(lambda r: -10.0 * math.exp(-r), h=0.01),
}
# every method, each on a catalog problem it admits
SCALE_CASES = ([("poschl-teller", m) for m in ("wm", "wm-even", "wm-odd", "cfm")]
               + [("box", m) for m in ("wm", "cfm", "dirichlet")]
               + [("radial", m) for m in ("wm", "cfm")])


@functools.cache
def _scale_ends(name):
    # end points at seven energies inside the problem's window
    problem = SCALE_PROBLEMS[name]
    energies = np.linspace(*problem.energy_range, 9)[1:-1]
    return canonical_endpoints(problem.potential, energies, problem.grid,
                               sample_potential(problem.potential, problem.grid))


@given(st.sampled_from(SCALE_CASES), st.integers(0, 6), st.integers(-500, 500),
       st.sampled_from(["left", "right"]))
def test_scaling_one_side_by_a_power_of_two_keeps_every_value_bit_for_bit(case, i, k, side):
    name, method = case
    problem = SCALE_PROBLEMS[name]
    rows, factors, _ = _METHODS[method]
    # a symmetric problem's value is the tuple of its parity factors
    factors = factors if problem.symmetric else None
    ends = _scale_ends(name)
    x, *phi = getattr(ends, side)
    scaled = ends._replace(**{side: (x, *(np.ldexp(v, k) for v in phi))})
    want = boundary_value(rows, problem, ends, factors).at(i)
    got = boundary_value(rows, problem, scaled, factors).at(i)
    assert want.ok and got.ok
    assert len(got.factors) == (1 if factors is None else len(factors))
    assert [struct.pack("<d", f) for f in got.factors] == [
        struct.pack("<d", f) for f in want.factors]


def test_zero_energy_flags_degenerate_asymptotics():
    ends = canonical_pair(PT.potential, 0.0, PT.grid).ends
    ev = wm_value(PT, ends).at(0)
    assert not ev.ok
    assert ev.flag == "degenerate"
    # a plain call gives NaN for both factors of the symmetric wm
    fn = characteristic_for(PT, "wm")
    assert fn.evaluate(0.0).flag == "degenerate"
    assert len(fn(0.0)) == 2 and all(map(math.isnan, fn(0.0)))


@pytest.mark.parametrize("method", ["cfm", "dirichlet"])
def test_a_zero_wall_row_is_flagged_degenerate_left_first(method):
    box = SCALE_PROBLEMS["box"]
    rows, _, _ = _METHODS[method]
    # the box is not symmetric: its value is the determinant of the wall rows
    assert not box.symmetric
    ends = canonical_pair(box.potential, 10.0, box.grid).ends
    assert boundary_value(rows, box, ends).at(0).ok

    def zero(end):
        x, c, dc, s, ds = end
        return (x, np.zeros_like(c), dc, np.zeros_like(s), ds)

    def blown(end):
        x, c, dc, s, ds = end
        return (x, np.full_like(c, math.inf), dc, np.ones_like(s), ds)

    for left, right, flag in ((ends.left, zero(ends.right), "degenerate"),
                              (zero(ends.left), ends.right, "degenerate"),
                              (zero(ends.left), blown(ends.right), "degenerate"),
                              (blown(ends.left), zero(ends.right), "overflow")):
        ev = boundary_value(rows, box, ends._replace(left=left, right=right)).at(0)
        assert math.isnan(ev.value) and ev.flag == flag


def test_assembly_names_the_energy_whose_rows_are_flagged():
    # the quartic's pairs at h = 0.005 out to E = 200 overflow at every level
    # below 119.84, so the rows at its ground state are not finite
    problem = anharmonic(0.0, 1.0, h=0.005, energy_max=200.0)
    with pytest.raises(DegenerateRootError, match=r"rows overflow at energy 0\.667986"):
        wm_eigenfunction(problem, 0.667986)


def test_symmetric_characteristic_rejects_bad_parity():
    with pytest.raises(ValueError):
        characteristic_for(PT, "wm-both")


def test_symmetric_characteristic_needs_symmetry():
    box = infinite_well(x0=0.25, h=0.005)
    with pytest.raises(ValueError):
        characteristic_for(box, "wm-even")


def _pt_root(parity):
    fn = characteristic_for(PT_WIDE, f"wm-{parity}")
    brackets = [b for b in scan_brackets(fn, (-2.5, -0.01), 60) if not b.pole_suspect]
    assert len(brackets) == 1
    return refine_root(fn, brackets[0])


MEMBERS = ("left_convergent", "left_divergent", "right_convergent", "right_divergent")


@pytest.mark.parametrize("assemble", [wm_eigenfunction, roots._assemble_cfm], ids=["wm", "cfm"])
def test_an_assembly_reads_each_boundary_member_once(assemble):
    # the references are read once per level and shared with the method's rows
    calls = []

    def counted(name):
        member = getattr(PT_WIDE.asymptotics, name)

        def fn(e, x):
            calls.append(name)
            return member(e, x)
        return fn

    asym = dataclasses.replace(PT_WIDE.asymptotics, **{m: counted(m) for m in MEMBERS})
    problem = dataclasses.replace(PT_WIDE, asymptotics=asym)
    root = _pt_root("even")
    res = assemble(problem, root, canonical_pair(problem.potential, root, problem.grid))
    assert res.parity == "even" and res.node_count == 0
    assert sorted(calls) == sorted(MEMBERS)


def test_boundary_members_that_take_floats_alone_still_solve():
    # math.exp raises TypeError on an array, so each member is called per
    # energy on Python floats; at the grid ends they read what the catalog's
    # numpy members read, exp(0) = 1, so the levels are the same bits
    pt10 = poschl_teller(10.0, h=0.01, x_right=10.0)

    def member(anchor, sign):
        def fn(e, x):
            k = sign * math.sqrt(max(0.0, -2.0 * e))
            w = math.exp(k * (x - anchor))
            return w, k * w
        return fn

    model = dataclasses.replace(pt10.asymptotics, left_convergent=member(-10.0, 1.0),
                                left_divergent=member(-10.0, -1.0),
                                right_convergent=member(10.0, -1.0),
                                right_divergent=member(10.0, 1.0))
    floats = find_eigenvalues(dataclasses.replace(pt10, asymptotics=model))
    assert [r.energy for r in floats] == [r.energy for r in find_eigenvalues(pt10)]
    assert [r.energy for r in floats] == pytest.approx([-8.0, -4.5, -2.0, -0.5], abs=1e-4)


def test_eigenfunction_assembly_ground_state():
    res = wm_eigenfunction(PT_WIDE, _pt_root("even"))
    assert res.parity == "even"
    assert res.node_count == 0
    assert res.residual < 1e-8
    trapz = getattr(np, "trapezoid", None) or np.trapz
    assert trapz(res.psi ** 2, res.x) == pytest.approx(1.0, rel=1e-10)
    # odd contamination is bounded by the root residual, not just the tag
    assert np.allclose(res.psi, res.psi[::-1], atol=1e-7)
    assert res.psi[len(res.x) // 2] > 0
    # each side is the null direction of its own convergent member's row, so
    # both divergent admixtures are roundoff: 1.2e-25 here, mirror images
    assert abs(res.b1) < 1e-20
    assert abs(res.b3) < 1e-20


def test_eigenfunction_assembly_first_excited():
    res = wm_eigenfunction(PT_WIDE, _pt_root("odd"))
    assert res.parity == "odd"
    assert res.node_count == 1
    assert np.allclose(res.psi, -res.psi[::-1], atol=1e-7)


def _pt10_states(x):
    # the closed-form levels of v0 = 10 (lambda = 4), up to normalization
    t, s = np.tanh(x), 1.0 / np.cosh(x)
    return [s ** 4, t * s ** 3, (7.0 * t * t - 1.0) * s ** 2, (7.0 * t * t - 3.0) * t * s]


@pytest.mark.parametrize("problem", [
    pytest.param(poschl_teller(10.0, h=0.005, x_right=12.0), id="cli-h0.005"),
    pytest.param(poschl_teller(10.0, h=0.001, x_right=10.0), id="library-h0.001"),
])
def test_every_readme_pt10_level_is_its_closed_form(problem):
    # the right tail used to carry the left row's divergent admixture: the
    # ground state peaked at the right wall, 2.8 away from sech^4
    results = find_eigenvalues(problem, method="wm")
    assert len(results) == 4
    h = problem.grid.h
    for res, phi in zip(results, _pt10_states(results[0].x)):
        phi /= math.sqrt(h * (np.sum(phi * phi) - 0.5 * (phi[0] ** 2 + phi[-1] ** 2)))
        assert min(np.max(np.abs(res.psi - phi)), np.max(np.abs(res.psi + phi))) < 1e-8


@pytest.mark.parametrize("method, levels, raised_at", [
    pytest.param("wm-even", (-8.0, -2.0), -2.0, id="wm-even"),
    pytest.param("wm-odd", (-4.5, -0.5), -4.5, id="wm-odd"),
])
def test_a_member_grown_past_the_norm_range_still_assembles(method, levels, raised_at):
    # on x_right = 200 the even member C reaches 5e156 at the level -2, so
    # psi squared overflows unless psi is scaled down first; which levels
    # the scan loses to overflowing probes is another matter
    results = find_eigenvalues(poschl_teller(10.0, h=0.01, x_right=200.0), method=method)
    energies = [r.energy for r in results]
    assert min(abs(e - raised_at) for e in energies) < 1e-6
    assert all(min(abs(e - level) for level in levels) < 1e-6 for e in energies)
    trapz = getattr(np, "trapezoid", None) or np.trapz
    for r in results:
        assert trapz(r.psi ** 2, r.x) == pytest.approx(1.0, rel=1e-12)
        # psi(x0) = a2 > 0 for an even level, psi'(x0) = b2 > 0 for an odd one
        assert (r.b2 if method == "wm-odd" else r.a2) > 0


def test_the_sign_of_an_odd_level_does_not_follow_roundoff():
    # the two mirror antinodes of an odd level tie up to a2 * C, a roundoff
    # admixture, so the larger of them picks no sign
    problem = poschl_teller(10.0, h=0.001, x_right=9.9)
    root = min((r.energy for r in find_eigenvalues(problem, method="wm", n_probe=40)),
               key=lambda e: abs(e + 0.5))
    ref = wm_eigenfunction(problem, root)
    assert ref.parity == "odd" and ref.b2 > 0
    for direction in (-math.inf, math.inf):
        energy = root
        for _ in range(3):
            energy = math.nextafter(energy, direction)
            res = wm_eigenfunction(problem, energy)
            assert res.b2 > 0
            assert np.max(np.abs(res.psi - ref.psi)) < 1e-9


def test_node_count_interior_crossings_only():
    x = np.linspace(0.0, math.pi, 301)
    psi = np.sin(3.0 * x)
    # wall zeros at both ends must not register; the allowed span is everything
    assert _count_nodes(psi, np.zeros_like(x), 4.5) == 2


def test_node_count_ignores_crossings_outside_turning_points():
    x = np.linspace(-3.0, 3.0, 601)
    psi = np.where(np.abs(x) < 2.5, np.exp(-x * x), -1e-4)
    # a nodeless state whose far tail flips sign: v = x^2, eps = 1 puts the
    # turning points at +-1, so the flips at |x| = 2.5 are out of scope
    assert _count_nodes(psi, x * x, 1.0) == 0
    # counting blindly over the whole span would have seen two crossings
    live = psi[np.abs(psi) > 1e-7 * np.max(np.abs(psi))]
    assert np.count_nonzero(np.sign(live)[1:] != np.sign(live)[:-1]) == 2
