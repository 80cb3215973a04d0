"""Problem catalog: the built-in potentials with their boundary models.

Each constructor returns a ready-to-solve Problem: potential, grid,
asymptotic reference solutions, default energy window, and (when one exists)
the closed-form spectrum for error reporting.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    HARD_DIRICHLET,
    REGULAR_ORIGIN,
    AsymptoticModel,
    PotentialSpec,
    Problem,
    make_grid,
    whole,
)


def _steps(extent, h, what):
    n = round(extent / h)
    if n < 1 or abs(n * h - extent) > 1e-9 * max(1.0, abs(extent)):
        raise ValueError(f"{what} ({extent}) must be a positive multiple of the step {h}")
    return n


def _spread(e, *values):
    # values that do not depend on the energy, one per entry of the energies e
    zero = np.zeros(np.shape(e))
    return tuple(value + zero for value in values)


def decay_model(x_left, x_right):
    """Exponential boundary pairs for potentials that die off on both sides.

    Members are anchored at their own endpoint (value 1 there) so nothing
    overflows at the grid ends: R_c = exp(-k (x - x_right)), R_d its growing
    mirror, and the left side reversed, with k = sqrt(-2 eps). Valid for
    energies below 0; k clamps to 0 above, which the Wronskian checks then
    report as a degenerate pair. Members take arrays of e or of x.
    """

    def member(anchor, sign):
        # sign +1: grows with x; -1: decays
        def fn(e, x):
            k = sign * np.sqrt(np.maximum(0.0, -2.0 * e))
            w = np.exp(k * (x - anchor))
            return w, k * w
        return fn

    return AsymptoticModel(member(x_left, +1.0), member(x_left, -1.0),
                           member(x_right, -1.0), member(x_right, +1.0),
                           requires_negative_energy=True)


def hard_wall_model(x_left, x_right):
    """Linearized wall solutions.

    The convergent member vanishes at its wall with slope -1, the divergent
    one is the constant 1. With this choice the general quantization
    determinant reduces exactly to C(xL) S(xR) - C(xR) S(xL).
    """

    def left_conv(e, x):
        return _spread(e, x_left - x, -1.0)

    def right_conv(e, x):
        return _spread(e, x_right - x, -1.0)

    def flat(e, x):
        return _spread(e, 1.0, 0.0)

    return AsymptoticModel(left_conv, flat, right_conv, flat,
                           left_kind=HARD_DIRICHLET, right_kind=HARD_DIRICHLET)


def quartic_decay_model(v4, x_left, x_right):
    """Leading-order boundary pairs for quartic growth.

    Solutions behave like exp(-+ sqrt(2 v4) x^3 / 3) up to slower factors;
    the quadratic term's contribution is deliberately dropped, which the
    outward placement of x_right absorbs. Energy independent at this order.
    """
    coef = math.sqrt(2.0 * v4)

    def member(anchor, sign):
        # sign +1: grows with x^3; -1: decays
        def fn(e, x):
            (w,) = _spread(e, np.exp(sign * coef * (x ** 3 - anchor ** 3) / 3.0))
            return w, sign * coef * x * x * w
        return fn

    return AsymptoticModel(
        left_convergent=member(x_left, +1.0),
        left_divergent=member(x_left, -1.0),
        right_convergent=member(x_right, -1.0),
        right_divergent=member(x_right, +1.0))


def radial_model(l, r_right):
    """Origin power laws r^(l+1), r^-l (a REGULAR_ORIGIN side) and an exponential far side."""
    decay = decay_model(0.0, r_right)

    def origin_conv(e, r):
        return _spread(e, r ** (l + 1), (l + 1) * r ** l)

    def origin_div(e, r):
        if l == 0:
            return _spread(e, 1.0, 0.0)
        return _spread(e, r ** (-l), -l * r ** (-l - 1))

    return AsymptoticModel(origin_conv, origin_div,
                           decay.right_convergent, decay.right_divergent,
                           left_kind=REGULAR_ORIGIN, requires_negative_energy=True)


def box_exact_energy(n):
    """n-th level of the unit box, n = 1, 2, ..."""
    return 0.5 * (whole("box level n", n, 1) * math.pi) ** 2


def infinite_well(x0=0.5, h=0.001, energy_max=125.0):
    """Unit box with hard walls at 0 and 1.

    Args:
        x0: canonical origin, strictly inside and commensurate with h. The
            spectrum cannot depend on it; that independence is a test target.
        h: grid step.
        energy_max: top of the default scan window (default covers n <= 5).
    """
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"origin must lie strictly inside (0, 1), got {x0!r}")
    n_left = _steps(x0, h, "origin offset")
    n_right = _steps(1.0 - x0, h, "origin-to-wall distance")
    spec = PotentialSpec(evaluate=np.zeros_like)

    def spectrum(lo, hi):
        levels = map(box_exact_energy, itertools.count(1))
        return [e for e in itertools.takewhile(lambda e: e <= hi, levels) if e >= lo]

    return Problem(spec, make_grid(x0, h, n_left, n_right),
                   hard_wall_model(0.0, 1.0), energy_range=(0.0, float(energy_max)),
                   exact_spectrum=spectrum)


def poschl_teller_lambda(v0):
    """Depth parameter lam = (1 + sqrt(1 + 8 v0)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * v0))


def poschl_teller_exact_energies(v0):
    """All strictly negative levels -(lam - 1 - n)^2 / 2, n = 0, 1, ..."""
    lam = poschl_teller_lambda(v0)
    depths = itertools.takewhile(lambda d: d > 1e-12, (lam - 1.0 - n for n in itertools.count()))
    return [-0.5 * d ** 2 for d in depths]


def poschl_teller_critical_strengths(count):
    """Strengths v0 = n (n + 1) / 2 at which the n-th level detaches from 0."""
    return [0.5 * n * (n + 1) for n in range(whole("count", count, 0))]


def poschl_teller(v0, h=0.01, x_right=5.0, energy_range=None):
    """The well v(x) = -v0 / cosh(x)^2 on the full line.

    Parity invariance puts the origin at 0 with a right-half grid; the left
    half is recovered by reflection. Defaults match a 500-point half grid.
    """
    if not v0 > 0.0:
        raise ValueError(f"well strength must be positive, got {v0!r}")
    n_right = _steps(x_right, h, "half-width")
    spec = PotentialSpec(evaluate=lambda x: -v0 / np.cosh(x) ** 2,
                         parity_invariant=True)
    if energy_range is None:
        energy_range = (-float(v0), 0.0)

    def spectrum(lo, hi):
        return [e for e in poschl_teller_exact_energies(v0) if lo <= e <= hi]

    return Problem(spec, make_grid(0.0, h, 0, n_right),
                   decay_model(-x_right, x_right), energy_range=energy_range,
                   exact_spectrum=spectrum)


def anharmonic(v2, v4, h=0.01, energy_max=None, x_right=None):
    """The oscillator v(x) = v2 x^2 + v4 x^4 (v4 > 0; v2 < 0 is a double well).

    The default half-width follows the rule v(x_right) >= 50 |energy_max|, so
    the dropped quadratic term in the boundary exponent is buried far outside
    the classically allowed region.
    """
    if not v4 > 0.0:
        raise ValueError(f"quartic coefficient must be positive, got {v4!r}")

    def v(x):
        # x^4 as a square of products, on the same bits for x and -x and for
        # a float and an array, which numpy's x**4 is not
        return v2 * x * x + v4 * (x * x) ** 2

    v_min = 0.0 if v2 >= 0.0 else -v2 * v2 / (4.0 * v4)
    if energy_max is None:
        energy_max = v_min + 10.0
    if x_right is None:
        target = 50.0 * max(1.0, abs(energy_max))
        x = 1.0 + math.sqrt(max(0.0, -v2 / (2.0 * v4)))
        while v(x) < target:
            x *= 1.25
        x_right = math.ceil(x / h) * h
    n_right = _steps(x_right, h, "half-width")
    spec = PotentialSpec(evaluate=v, parity_invariant=True)
    return Problem(spec, make_grid(0.0, h, 0, n_right),
                   quartic_decay_model(v4, -x_right, x_right),
                   energy_range=(v_min, float(energy_max)))


def radial(inner, l=0, h=0.01, r_origin=1.0, r_min=None, r_max=10.0,
           energy_range=(-10.0, 0.0)):
    """Half-line problem for the radial equation with angular momentum l.

    The solved potential is the effective one, l (l + 1) / (2 r^2) + inner(r).
    The inner potential must be regular enough at the origin that r^2 v(r)
    vanishes; that is checked numerically at r = 1e-6 and 1e-8.

    Args:
        inner: v(r) for r > 0.
        l: nonnegative integer angular momentum.
        r_origin: canonical origin (initial-data point), default 1.
        r_min: innermost grid point, default 10 h.
        r_max: outermost grid point, where the decaying model anchors.
    """
    l = whole("angular momentum l", l, 0)
    if r_min is None:
        r_min = 10.0 * h
    if not 0.0 < r_min < r_origin < r_max:
        raise ValueError("need 0 < r_min < r_origin < r_max")
    near, nearer = 1e-6, 1e-8
    a = near ** 2 * abs(inner(near))
    b = nearer ** 2 * abs(inner(nearer))
    # r^2 v must clearly decay between the two radii; a plain b < a would let
    # an exact 1/r^2 slip through on the rounding of two equal magnitudes
    if not b <= 0.5 * a:
        raise ValueError(
            f"inner potential too singular at the origin: r^2 v(r) is {a!r} at r={near} "
            f"and {b!r} at r={nearer}, not vanishing")

    def v_eff(r):
        return 0.5 * l * (l + 1) / (r * r) + inner(r)

    spec = PotentialSpec(evaluate=v_eff)
    n_left = _steps(r_origin - r_min, h, "origin-to-r_min distance")
    n_right = _steps(r_max - r_origin, h, "origin-to-r_max distance")
    return Problem(spec, make_grid(r_origin, h, n_left, n_right),
                   radial_model(l, r_max), energy_range=energy_range)
