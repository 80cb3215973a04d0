"""Container and primitive tests: grids, wronskians, problem validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boundstates.core import (
    ASYMPTOTIC_LIMIT,
    AsymptoticModel,
    CharacteristicFunction,
    Evaluation,
    PotentialSpec,
    Problem,
    is_symmetric,
    make_grid,
    wronskian,
)
from boundstates.integrate import sample_potential

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)


@given(finite, finite, finite, finite)
def test_wronskian_antisymmetric(y1, dy1, y2, dy2):
    assert wronskian(y1, dy1, y2, dy2) == -wronskian(y2, dy2, y1, dy1)


@given(finite, finite, nonzero)
def test_wronskian_vanishes_for_proportional_pairs(y, dy, scale):
    w = wronskian(y, dy, scale * y, scale * dy)
    assert abs(w) <= 1e-9 * max(1.0, abs(scale) * (y * y + dy * dy))


@given(finite, finite, finite, finite, nonzero)
def test_wronskian_scales_linearly(y1, dy1, y2, dy2, scale):
    w = wronskian(y1, dy1, y2, dy2)
    ws = wronskian(scale * y1, scale * dy1, y2, dy2)
    # roundoff lives at the scale of the cross products, not of the
    # (possibly cancelled) result
    floor = 1e-12 * abs(scale) * (abs(y1 * dy2) + abs(dy1 * y2))
    assert ws == pytest.approx(scale * w, abs=max(floor, 1e-9))


def test_wronskian_elementwise_on_arrays():
    x = np.linspace(0.0, 1.0, 11)
    w = wronskian(np.cos(x), -np.sin(x), np.sin(x), np.cos(x))
    assert np.allclose(w, 1.0, atol=1e-15)


@given(st.integers(0, 300), st.integers(0, 300),
       st.floats(1e-4, 1.0), st.floats(-5.0, 5.0))
def test_grid_points_are_uniform(n_left, n_right, h, x0):
    if n_left + n_right < 2:
        n_right = 2
    g = make_grid(x0, h, n_left, n_right)
    pts = g.points()
    assert pts.size == n_left + n_right + 1
    assert pts[n_left] == x0
    assert g.x_left == pytest.approx(pts[0], rel=1e-12, abs=1e-12)
    assert g.x_right == pytest.approx(pts[-1], rel=1e-12, abs=1e-12)
    assert np.max(np.abs(np.diff(pts) - h)) < 1e-12 * max(1.0, abs(x0))


@pytest.mark.parametrize("h", [0.0, -0.01, math.inf, math.nan])
def test_make_grid_rejects_bad_step(h):
    with pytest.raises(ValueError):
        make_grid(0.0, h, 0, 10)


def test_make_grid_rejects_bad_counts_and_origin():
    with pytest.raises(ValueError):
        make_grid(0.0, 0.1, -1, 10)
    with pytest.raises(ValueError):
        make_grid(0.0, 0.1, 0, 1)
    with pytest.raises(ValueError):
        make_grid(math.nan, 0.1, 0, 10)
    # a count that is not a whole number is named, not truncated
    with pytest.raises(ValueError, match="n_left must be a whole number, got 2.7"):
        make_grid(0.0, 0.1, 2.7, 3.9)
    with pytest.raises(ValueError, match="n_right must be a whole number, got 3.9"):
        make_grid(0.0, 0.1, 2, 3.9)
    assert make_grid(0.0, 0.1, 500.0, 3.0) == make_grid(0.0, 0.1, 500, 3)


def _flat_model(requires_negative_energy=False):
    member = lambda e, x: (1.0, 0.0)
    return AsymptoticModel(member, member, member, member,
                           requires_negative_energy=requires_negative_energy)


def test_problem_validates_energy_range():
    spec = PotentialSpec(evaluate=lambda x: 0.0)
    grid = make_grid(0.0, 0.1, 10, 10)
    with pytest.raises(ValueError):
        Problem(spec, grid, _flat_model(), energy_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        Problem(spec, grid, _flat_model(), energy_range=(0.0, math.inf))
    # decaying boundary members make sense only below threshold
    with pytest.raises(ValueError):
        Problem(spec, grid, _flat_model(True), energy_range=(-1.0, 0.5))
    Problem(spec, grid, _flat_model(True), energy_range=(-1.0, 0.0))


def test_problem_symmetric_needs_parity_and_centered_origin():
    spec = PotentialSpec(evaluate=lambda x: x * x, parity_invariant=True)
    model = _flat_model()
    assert Problem(spec, make_grid(0.0, 0.1, 0, 10), model, (0.0, 1.0)).symmetric
    assert not Problem(spec, make_grid(0.5, 0.1, 0, 10), model, (0.0, 1.0)).symmetric
    plain = PotentialSpec(evaluate=lambda x: x * x)
    assert not Problem(plain, make_grid(0.0, 0.1, 0, 10), model, (0.0, 1.0)).symmetric


@pytest.mark.parametrize("x0, n_left, n_right, symmetric", [
    (0.0, 0, 10, True), (0.0, 10, 10, True), (0.0, 6, 50, False), (0.0, 10, 0, False),
    (0.5, 0, 10, False), (0.5, 10, 10, False),
])
def test_problem_symmetric_needs_a_half_or_mirrored_grid(x0, n_left, n_right, symmetric):
    # a lopsided grid about x0 = 0 is not the mirrored domain the parity
    # factors solve; a half or mirrored one is, and is sampled and marched on
    # its right side alone, one PairTable, its left side reflected
    spec = PotentialSpec(evaluate=lambda x: x * x, parity_invariant=True)
    problem = Problem(spec, make_grid(x0, 0.1, n_left, n_right), _flat_model(), (0.0, 1.0))
    assert problem.symmetric is is_symmetric(spec, problem.grid) is symmetric
    assert len(sample_potential(spec, problem.grid).tables) == (1 if symmetric else 2)


def test_evaluation_ok_flags():
    assert Evaluation(1.5).ok
    assert not Evaluation(1.5, "pole").ok
    assert not Evaluation(math.nan).ok
    assert not Evaluation(math.inf).ok


def test_characteristic_function_call_collapses_flags_to_nan():
    fn = CharacteristicFunction(
        lambda e: Evaluation(e, np.where(e > 0, "pole", None)), label="toy")
    assert fn(-2.0) == -2.0
    assert math.isnan(fn(3.0))
    assert fn.evaluate(3.0).flag == "pole"
    assert "toy" in repr(fn)
