"""Shared types and primitives for the bound-state solvers.

Everything downstream (the integrator, the two characteristic methods, root
finding) speaks in terms of the containers defined here: a uniform grid with
a distinguished origin, a potential with its parity, reference solutions at
the boundaries, and the assembled problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ASYMPTOTIC_LIMIT = "asymptotic-limit"
HARD_DIRICHLET = "hard-dirichlet"
# a half line's origin side, where the regular solution goes as r^(l+1)
REGULAR_ORIGIN = "regular-origin"

# (energy, x) -> (value, derivative) of one boundary reference solution
BoundaryFunc = Callable[[float, float], tuple[float, float]]


class SolverError(Exception):
    """Base class for solver failures."""


class DegenerateAsymptoticsError(SolverError):
    """The boundary reference pair lost linear independence at an endpoint."""


class DegenerateRootError(SolverError):
    """No usable nullspace direction exists at a claimed root."""


class RefinementError(SolverError):
    """Bracket refinement did not converge; carries the best bracket."""

    def __init__(self, message, lo=None, hi=None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


def wronskian(y1, dy1, y2, dy2):
    """W(y1, y2) = y1*y2' - y2*y1'. Works elementwise on arrays."""
    return y1 * dy2 - y2 * dy1


def on_array(fn, points, *lead):
    """fn(points) as a float array of shape lead + points.shape, points 1-D.

    fn is called once on the array, never on numpy scalars, so an entry's
    bits do not depend on the batch; inf or NaN come back without a numpy
    warning. A callable that raises TypeError or ValueError on the array, or
    returns another shape (a math-only or a constant function), is called on
    each point as a Python float instead, in order: the one per-point path.
    """
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn(points), dtype=float)
        if out.shape == (*lead, *points.shape):
            return out
    except (TypeError, ValueError):
        pass
    out = np.array([fn(p) for p in points.tolist()], dtype=float)
    return np.moveaxis(out.reshape(len(points), *lead), 0, -1)


def sampled(v, points):
    """v at points (on_array), which must all be finite.

    Raises:
        ValueError: naming the first point where v is not finite.
    """
    out = on_array(v, points)
    if not np.isfinite(out).all():
        i = int(np.isfinite(out).argmin())
        raise ValueError(f"potential is not finite at x = {float(points[i])!r}: {out[i]!r}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid around the integration origin.

    Points are x0 + j*h for j in [-n_left, n_right]. The origin is always a
    grid point; the canonical solutions carry their initial data there.
    """

    x0: float
    h: float
    n_left: int
    n_right: int

    @property
    def x_left(self):
        return self.x0 - self.n_left * self.h

    @property
    def x_right(self):
        return self.x0 + self.n_right * self.h

    def points(self):
        j = np.arange(-self.n_left, self.n_right + 1)
        return self.x0 + j * self.h


def whole(name, n, least):
    """The count n as an int; ValueError naming it unless n is a whole number >= least."""
    if not (math.isfinite(n) and n == int(n)):
        raise ValueError(f"{name} must be a whole number, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n!r}")
    return int(n)


def make_grid(x0, h, n_left, n_right):
    """Validated Grid constructor.

    Args:
        x0: origin, must be finite.
        h: step, positive and finite.
        n_left: steps taken leftward from the origin (>= 0).
        n_right: steps taken rightward from the origin (>= 0).

    Raises:
        ValueError: on a nonpositive step, counts that are negative or not
            whole numbers, or a grid with fewer than two steps of total extent.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"grid step must be positive and finite, got {h!r}")
    if not math.isfinite(x0):
        raise ValueError(f"grid origin must be finite, got {x0!r}")
    n_left, n_right = whole("n_left", n_left, 0), whole("n_right", n_right, 0)
    if n_left + n_right < 2:
        raise ValueError("grid needs at least two steps of total extent")
    return Grid(float(x0), float(h), n_left, n_right)


@dataclass(frozen=True)
class PotentialSpec:
    """A potential plus the facts the solvers need about it.

    Attributes:
        evaluate: v(x), finite on the solver grid. It is called on arrays of
            x (on_array): once on each marched side's grid points and once
            on its step midpoints per solve. One that cannot take an array
            is called on each point as a Python float instead.
        parity_invariant: True when v(-x) == v(x). Enables the symmetric
            shortcuts (is_symmetric).
    """

    evaluate: Callable[[float], float]
    parity_invariant: bool = False


def is_symmetric(potential, grid):
    """True for v even, x0 = 0 and a half or mirrored grid: the right side alone is marched."""
    return potential.parity_invariant and grid.x0 == 0.0 and grid.n_left in (0, grid.n_right)


@dataclass(frozen=True)
class AsymptoticModel:
    """Reference solutions at the two boundaries.

    Each member maps (energy, x) to (value, derivative). The convergent member
    decays toward its boundary (vanishes on a hard wall); the divergent one
    grows there (stays finite on a wall). The pair on each side must remain
    linearly independent over the problem's energy range. A method calls each
    member once per batch, on the batch's energy array at a float x, and reads
    two arrays of that shape; a member that cannot is called per energy on
    Python floats instead (on_array).
    """

    left_convergent: BoundaryFunc
    left_divergent: BoundaryFunc
    right_convergent: BoundaryFunc
    right_divergent: BoundaryFunc
    left_kind: str = ASYMPTOTIC_LIMIT
    right_kind: str = ASYMPTOTIC_LIMIT
    requires_negative_energy: bool = False


@dataclass(frozen=True)
class Problem:
    """A fully specified eigenproblem.

    energy_range is the default scan window; exact_spectrum, when present,
    maps (lo, hi) to the closed-form levels inside that window.
    """

    potential: PotentialSpec
    grid: Grid
    asymptotics: AsymptoticModel
    energy_range: tuple[float, float]
    exact_spectrum: Callable[[float, float], list] | None = None

    def __post_init__(self):
        lo, hi = self.energy_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"energy range must be a finite ordered pair, got {self.energy_range!r}")
        if self.asymptotics.requires_negative_energy and hi > 0.0:
            raise ValueError("decaying boundary models only hold for energies below 0; cap the range there")

    @property
    def symmetric(self):
        """True when the even/odd machinery applies (is_symmetric)."""
        return is_symmetric(self.potential, self.grid)


@dataclass(frozen=True)
class Evaluation:
    """A characteristic-function value with an optional trouble flag.

    value is a float, or on a symmetric problem the tuple of the parity
    factors a method reads (roots.characteristic_for), which share the flag.
    flag is None for a clean value, else one of "pole", "overflow",
    "degenerate", "domain". Flagged evaluations are skipped by the scanner.
    Over a batch of energies (wm.boundary_value) value is an array, one entry
    or row of factors per energy, and flag an array of flags or None; at(i)
    is energy i's Evaluation.
    """

    value: float | tuple[float, ...]
    flag: str | None = None

    @property
    def factors(self):
        """value as a tuple, one float per factor; every one NaN unless ok."""
        values = self.value if isinstance(self.value, tuple) else (self.value,)
        ok = self.flag is None and all(map(math.isfinite, values))
        return values if ok else (math.nan,) * len(values)

    @property
    def ok(self):
        return all(map(math.isfinite, self.factors))

    def at(self, i):
        """Energy i of an Evaluation over a batch, as that energy's Evaluation."""
        value = self.value[i]
        return Evaluation(tuple(value.tolist()) if np.ndim(value) else float(value),
                          None if self.flag is None else self.flag[i])


class CharacteristicFunction:
    """Callable whose zeros are the eigenvalues.

    many evaluates a numpy vector of energies in one batch as an Evaluation
    over it, the only input. evaluate_many() gives the factors of each of
    many energies as an array, one row per energy, NaN where flagged; scans
    and refinement call it, refinement with one candidate per open bracket in
    each batch. evaluate() is a batch of one, an Evaluation, and a plain call
    its value with NaN for a flagged one, a tuple where the value is a tuple
    of factors. samples are the potential samples the evaluations march
    through, if any, so that eigenfunction assembly can reuse them.
    """

    def __init__(self, many, label="", samples=None):
        self._many = many
        self.label = label
        self.samples = samples

    def evaluate(self, energy):
        return self._many(np.array([float(energy)])).at(0)

    def evaluate_many(self, energies):
        ev = self._many(np.asarray(energies, dtype=float))
        out = np.array(ev.value, dtype=float)
        out[np.not_equal(ev.flag, None)] = math.nan
        out = out[:, None] if out.ndim == 1 else out
        out[~np.isfinite(out).all(axis=1)] = math.nan
        return out

    def __call__(self, energy):
        ev = self.evaluate(energy)
        return ev.factors if isinstance(ev.value, tuple) else ev.factors[0]

    def __repr__(self):
        return f"CharacteristicFunction({self.label!r})"


@dataclass(frozen=True)
class EigenResult:
    """One bound state.

    psi is a C + b S on the sampled points at unit L2 norm, each side of x0
    the null direction of its own boundary row, the left scaled to meet the
    right at x0: in psi' for a level odd about x0, else in psi. a2 = psi(x0)
    and b2 = psi'(x0). On a symmetric problem parity is "even" or "odd" and
    the sign makes a2 or b2 positive; elsewhere it is "none" and the sign
    makes a2 positive, or b2 where |a2| is at most wm.PARITY_RATIO |b2|.
    b1 and b3 are the divergent-member admixtures of each side's own (a, b)
    at its boundary, roundoff under WM's rows, whose null directions they
    are. residual is |F| of the method's two boundary rows at the accepted
    energy, the sine of the angle between them (see wm.py).
    """

    energy: float
    index: int
    parity: str
    residual: float
    node_count: int
    x: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    a2: float
    b2: float
    b1: float
    b3: float
