"""Canonical-function quantization.

CFM's condition l+ = l-, where l = C/S at each grid end, is C_L S_R - C_R S_L
= 0: the determinant of the rows (C_L, S_L) and (C_R, S_R), the Wronskians of
C and S with a wall solution (value 0, slope -1) at each end. So CFM is WM's
determinant (wm.py) with wall references, with no ratio poles; on a reflected
grid its F has the sign and the zeros of C_R S_R. The wall rows are (C, S)
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

from .core import ASYMPTOTIC_LIMIT, REGULAR_ORIGIN, Evaluation, SolverError
from .integrate import canonical_pair
from .wm import boundary_value, row

# denominators at or below this magnitude are reported as poles
POLE_FLOOR = 1e-300


def cfm_l_ratios(ends):
    """Endpoint ratios (l-, l+) = C/S at the two ends of one energy's Endpoints.

    Returns:
        Two endpoint_ratio Evaluations.
    """
    _, cl, _, sl, _ = ends.left
    _, cr, _, sr, _ = ends.right
    return endpoint_ratio(cl, sl), endpoint_ratio(cr, sr)


def endpoint_ratio(num, den):
    """num / den as an Evaluation.

    A denominator at or below POLE_FLOOR in magnitude yields a pole-flagged
    NaN, a value that is not finite an overflow-flagged NaN.
    """
    if abs(den) <= POLE_FLOOR:
        return Evaluation(math.nan, "pole")
    if not (math.isfinite(num) and math.isfinite(den)):
        return Evaluation(math.nan, "overflow")
    return Evaluation(num / den)


def cfm_rows(problem, ends):
    """CFM's rows (C_L, S_L) and (C_R, S_R); a REGULAR_ORIGIN left side takes WM's row."""
    asym = problem.asymptotics
    if asym.left_kind == REGULAR_ORIGIN:
        return row(asym.left_convergent(ends.energy, ends.left[0]), ends.left), ends.right[1::2]
    return ends.left[1::2], ends.right[1::2]


def cfm_value(problem, ends):
    """CFM characteristic value from one energy's Endpoints."""
    return boundary_value(cfm_rows, problem, ends)


def box_characteristic_analytic(energy, x0):
    """Closed-form endpoint-ratio characteristic for the unit box.

    F(eps) = k sin(k) / (sin(k x0) sin(k (1 - x0))) with k = sqrt(2 eps).
    Zeros sit at k = n pi regardless of x0; the poles move with x0.

    Raises:
        ValueError: for energy <= 0 or an origin outside (0, 1).
    """
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"box origin must lie strictly inside (0, 1), got {x0!r}")
    if not energy > 0.0:
        raise ValueError(f"box levels are positive; got energy {energy!r}")
    k = math.sqrt(2.0 * energy)
    s_left = math.sin(k * x0)
    s_right = math.sin(k * (1.0 - x0))
    den = s_left * s_right
    if abs(s_left) <= POLE_FLOOR or abs(s_right) <= POLE_FLOOR:
        return Evaluation(math.nan, "pole")
    return Evaluation(k * math.sin(k) / den)


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


def _ratio_rows(num_a, den_a):
    # flagged rows are NaN
    return np.array([endpoint_ratio(num, den).value
                     for num, den in zip(num_a.tolist(), den_a.tolist())])


def _saturation_x(x, ratio, limit, tol):
    band = tol * max(1.0, abs(limit))
    for i in range(len(ratio) - 1, -1, -1):
        if math.isfinite(ratio[i]) and abs(ratio[i] - limit) > band:
            return float(x[i + 1]) if i + 1 < len(x) else float(x[i])
    return float(x[0])


def saturation_profile(problem, energy, tol=1e-6):
    """Profile both ratio representations along the right half of the grid.

    Args:
        problem: needs a decaying (asymptotic-limit) right boundary.
        energy: evaluation energy, typically away from an eigenvalue.
        tol: relative band defining saturation (default 1e-6).

    Raises:
        SolverError: if either ratio is undefined at x_right itself.
    """
    asym = problem.asymptotics
    if asym.right_kind != ASYMPTOTIC_LIMIT:
        raise ValueError("saturation profiling needs a decaying right boundary model")
    pair = canonical_pair(problem.potential, energy, problem.grid)
    keep = pair.x >= problem.grid.x0
    # (x, C, C', S, S') from the origin out
    end = tuple(a[keep] for a in pair[:5])
    x, c, _, s, _ = end

    rc = np.array([asym.right_convergent(energy, xi) for xi in x.tolist()]).T
    w_rc_c, w_rc_s = row(rc, end)
    wm_ratio = _ratio_rows(w_rc_c, w_rc_s)
    cfm_ratio = _ratio_rows(c, s)

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
