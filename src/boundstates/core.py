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

    @property
    def size(self):
        return self.n_left + self.n_right + 1

    def points(self):
        j = np.arange(-self.n_left, self.n_right + 1)
        return self.x0 + j * self.h


def make_grid(x0, h, n_left, n_right):
    """Validated Grid constructor.

    Args:
        x0: origin, must be finite.
        h: step, positive and finite.
        n_left: steps taken leftward from the origin (>= 0).
        n_right: steps taken rightward from the origin (>= 0).

    Raises:
        ValueError: on a nonpositive step, negative counts, or a grid with
            fewer than two steps of total extent.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"grid step must be positive and finite, got {h!r}")
    if not math.isfinite(x0):
        raise ValueError(f"grid origin must be finite, got {x0!r}")
    n_left = int(n_left)
    n_right = int(n_right)
    if n_left < 0 or n_right < 0:
        raise ValueError("grid point counts must be nonnegative")
    if n_left + n_right < 2:
        raise ValueError("grid needs at least two steps of total extent")
    return Grid(float(x0), float(h), n_left, n_right)


@dataclass(frozen=True)
class PotentialSpec:
    """A potential plus the facts the solvers need about it.

    Attributes:
        evaluate: v(x), finite on the solver grid.
        parity_invariant: True when v(-x) == v(x). Enables the symmetric
            shortcuts (rightward-only integration, even/odd splitting).
    """

    evaluate: Callable[[float], float]
    parity_invariant: bool = False


@dataclass(frozen=True)
class AsymptoticModel:
    """Reference solutions at the two boundaries.

    Each member maps (energy, x) to (value, derivative). The convergent member
    decays toward its boundary (vanishes on a hard wall); the divergent one
    grows there (stays finite on a wall). The pair on each side must remain
    linearly independent over the problem's energy range.
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
        """True when the even/odd machinery applies."""
        return self.potential.parity_invariant and self.grid.x0 == 0.0


@dataclass(frozen=True)
class Evaluation:
    """A characteristic-function value with an optional trouble flag.

    flag is None for a clean value, else one of "pole", "overflow",
    "degenerate". Flagged evaluations are skipped by the bracket scanner.
    """

    value: float
    flag: str | None = None

    @property
    def ok(self):
        return self.flag is None and math.isfinite(self.value)


class CharacteristicFunction:
    """Callable whose zeros are the eigenvalues.

    evaluate() returns the flagged form; plain calls collapse flagged
    evaluations to NaN. evaluate_many() gives evaluate() at each of many
    energies; `many`, when given, computes that list for a numpy vector of
    energies in one batch, and must match evaluate() at each energy. Scans
    and refinement call evaluate_many(): refinement evaluates one candidate
    per open bracket in each batch. samples are the potential samples the
    evaluations march through, if any, so that eigenfunction assembly can
    reuse them.
    """

    def __init__(self, fn, label="", many=None, samples=None):
        self._fn = fn
        self._many = many
        self.label = label
        self.samples = samples

    def evaluate(self, energy):
        return self._fn(float(energy))

    def evaluate_many(self, energies):
        if self._many is None:
            return [self.evaluate(e) for e in energies]
        return self._many(np.asarray(energies, dtype=float))

    def __call__(self, energy):
        ev = self.evaluate(energy)
        return ev.value if ev.ok else math.nan

    def __repr__(self):
        return f"CharacteristicFunction({self.label!r})"


@dataclass(frozen=True)
class EigenResult:
    """One bound state.

    psi = a2*C + b2*S on the sampled points, normalized to unit L2 norm, with
    the sign that makes a2 = psi(x0) positive; where |a2| is at most
    wm.PARITY_RATIO times |b2|, the parity tag's test for an odd state, the
    sign makes b2 = psi'(x0) positive instead.
    b1 and b3 are the divergent-member admixtures extracted at the left and
    right boundary; at a well-converged root both sit near zero. residual is
    |F| of the method's two boundary rows at the accepted energy, the sine of
    the angle between them (see wm.py).
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
