"""Canonical-function quantization.

CFM's condition l+ = l-, where l = C/S at each grid end, is C_L S_R - C_R S_L
= 0: the determinant of the rows (C_L, S_L) and (C_R, S_R), the Wronskians of
C and S with a wall solution (value 0, slope -1) at each end. So CFM is WM's
determinant (wm.py) with wall references, with no ratio poles; on a symmetric
problem its factors are C_R and S_R over |(C_R, S_R)|. The wall rows are (C, S)
as read, not wm.row's 0 * C' + C, NaN once C' has overflowed and C has not.
A half line's regular origin (REGULAR_ORIGIN), where psi goes as r^(l+1),
takes the wm.row of its origin reference instead.

The saturation profile quantifies how fast each representation reaches its
large-x limit; the Wronskian ratio W(C, R_c)/W(S, R_c) (wm.row along x) and
the value ratio C/S share the limit but approach it at different rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ASYMPTOTIC_LIMIT, REGULAR_ORIGIN, Evaluation, SolverError, on_array
from .integrate import canonical_pair
from .wm import boundary_value, references, row

# denominators at or below this magnitude are reported as poles
POLE_FLOOR = 1e-300


def cfm_l_ratios(ends):
    """Endpoint ratios (l-, l+) = C/S at the two ends of a batch's Endpoints.

    Returns:
        Two endpoint_ratio Evaluations over the batch.
    """
    _, cl, _, sl, _ = ends.left
    _, cr, _, sr, _ = ends.right
    return endpoint_ratio(cl, sl), endpoint_ratio(cr, sr)


def endpoint_ratio(num, den):
    """num / den elementwise, as an Evaluation of arrays.

    A denominator at or below POLE_FLOOR in magnitude yields a pole-flagged
    NaN, a value that is not finite an overflow-flagged NaN.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(all="ignore"):
        value = np.array(num / den)
    flag = np.full(value.shape, None, dtype=object)
    flag[~(np.isfinite(num) & np.isfinite(den))] = "overflow"
    flag[np.abs(den) <= POLE_FLOOR] = "pole"
    value[np.not_equal(flag, None)] = math.nan
    return Evaluation(value, flag)


def cfm_rows(problem, ends, refs=None):
    """CFM's rows (C_L, S_L) and (C_R, S_R) over a batch.

    A REGULAR_ORIGIN left side takes WM's row of its L_c (refs, else wm.references).
    """
    if problem.asymptotics.left_kind == REGULAR_ORIGIN:
        (lc, _), _ = references(problem, ends) if refs is None else refs
        return row(lc, ends.left), ends.right[1::2]
    return ends.left[1::2], ends.right[1::2]


def cfm_value(problem, ends):
    """CFM characteristic value over a batch's Endpoints."""
    return boundary_value(cfm_rows, problem, ends)


def box_characteristic_analytic(energies, x0):
    """Closed-form endpoint-ratio characteristic for the unit box, over a batch.

    F(eps) = k sin(k) / (sin(k x0) sin(k (1 - x0))) with k = sqrt(2 eps).
    Zeros sit at k = n pi regardless of x0; the poles move with x0. Returns an
    Evaluation over the energies: NaN flagged "domain" at eps <= 0, where F is
    undefined, and "pole" where a sine is at most POLE_FLOOR in magnitude.

    Raises:
        ValueError: for an origin outside (0, 1).
    """
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"box origin must lie strictly inside (0, 1), got {x0!r}")
    energies = np.asarray(energies, dtype=float)
    with np.errstate(all="ignore"):
        k = np.sqrt(2.0 * energies)
        s_left, s_right = np.sin(k * x0), np.sin(k * (1.0 - x0))
        value = k * np.sin(k) / (s_left * s_right)
    flag = np.full(value.shape, None, dtype=object)
    flag[(np.abs(s_left) <= POLE_FLOOR) | (np.abs(s_right) <= POLE_FLOOR)] = "pole"
    flag[~(energies > 0.0)] = "domain"
    value[np.not_equal(flag, None)] = math.nan
    return Evaluation(value, flag)


@dataclass(frozen=True)
class SaturationProfile:
    """How the two endpoint-ratio representations approach their limit.

    x runs from the origin to x_right, with the canonical pair's C and S and
    the boundary Wronskians w_rc_c = W(R_c, C) and w_rc_s = W(R_c, S) at each
    x. wm_ratio is w_rc_c / w_rc_s and cfm_ratio is C/S, NaN where
    cfm.endpoint_ratio flags a row. Each saturation_x is the smallest grid
    point beyond which the ratio stays inside tol * max(1, |limit|) of its
    x_right value; pole rows are ignored.
    """

    x: np.ndarray
    c: np.ndarray
    s: np.ndarray
    w_rc_c: np.ndarray
    w_rc_s: np.ndarray
    wm_ratio: np.ndarray
    cfm_ratio: np.ndarray
    limit_wm: float
    limit_cfm: float
    saturation_x_wm: float
    saturation_x_cfm: float
    tol: float


def _saturation_x(x, ratio, limit, tol):
    # the sample after the last finite one outside the band, else the first
    out = np.flatnonzero(np.isfinite(ratio) & (np.abs(ratio - limit) > tol * max(1.0, abs(limit))))
    return float(x[min(out[-1] + 1, len(x) - 1)]) if len(out) else float(x[0])


def saturation_profile(problem, energy, tol=1e-6):
    """Profile both ratio representations along the right half of the grid.

    Args:
        problem: needs a decaying (asymptotic-limit) right boundary.
        energy: evaluation energy, typically away from an eigenvalue.
        tol: relative band defining saturation (default 1e-6).

    Raises:
        ValueError: for a tol that is not finite or is negative.
        SolverError: if R_c leaves the double range inside the profile,
            naming the outermost x where it does, or if either ratio is
            undefined at x_right itself.
    """
    asym = problem.asymptotics
    if asym.right_kind != ASYMPTOTIC_LIMIT:
        raise ValueError("saturation profiling needs a decaying right boundary model")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"saturation band tol must be finite and nonnegative, got {tol!r}")
    pair = canonical_pair(problem.potential, energy, problem.grid)
    keep = pair.x >= problem.grid.x0
    # (x, C, C', S, S') from the origin out
    end = tuple(a[keep] for a in pair[:5])
    x, c, _, s, _ = end

    rc = on_array(lambda x: asym.right_convergent(energy, x), x, 2)
    lost = np.flatnonzero(~np.isfinite(rc).all(axis=0))
    if len(lost):
        raise SolverError(f"R_c leaves the double range at x = {float(x[lost[-1]])!r} "
                          f"for energy {energy!r}")
    with np.errstate(all="ignore"):
        w_rc_c, w_rc_s = row(rc, end)
    wm_ratio = endpoint_ratio(w_rc_c, w_rc_s).value
    cfm_ratio = endpoint_ratio(c, s).value

    if not (math.isfinite(wm_ratio[-1]) and math.isfinite(cfm_ratio[-1])):
        raise SolverError(f"endpoint ratio undefined at x_right for energy {energy!r}")
    limit_wm = float(wm_ratio[-1])
    limit_cfm = float(cfm_ratio[-1])
    return SaturationProfile(
        x=x, c=c, s=s, w_rc_c=w_rc_c, w_rc_s=w_rc_s,
        wm_ratio=wm_ratio, cfm_ratio=cfm_ratio,
        limit_wm=limit_wm, limit_cfm=limit_cfm,
        saturation_x_wm=_saturation_x(x, wm_ratio, limit_wm, tol),
        saturation_x_cfm=_saturation_x(x, cfm_ratio, limit_cfm, tol),
        tol=float(tol))
