"""Canonical-function quantization.

Instead of boundary Wronskians, this route watches the endpoint ratios of the
canonical pair: l- = C/S at the left end and l+ = C/S at the right end. Bound
states sit where F = l+ - l- vanishes. For parity invariant potentials with
x0 = 0 the two endpoint ratios collapse into one and the eigenvalues are the
roots of the plain product C(x_right) * S(x_right): the C factor carries the
even levels, the S factor the odd ones, and no ratio poles get in the way.
The value functions read one energy's integrate.Endpoints, as WM's do, and
roots.characteristic_for turns them into characteristic functions.

The saturation profile quantifies how fast each representation reaches its
large-x limit; the Wronskian ratio W(C, R_c)/W(S, R_c) and the value ratio
C/S share the limit but approach it at different rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ASYMPTOTIC_LIMIT, Evaluation, SolverError, wronskian
from .integrate import canonical_pair

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


def cfm_value(problem, ends):
    """CFM characteristic value from one energy's Endpoints."""
    if problem.symmetric:
        _, cr, _, sr, _ = ends.right
        return Evaluation.of(cr * sr)
    l_minus, l_plus = cfm_l_ratios(ends)
    if not l_minus.ok or not l_plus.ok:
        # an end that outgrew the double range outranks a pole at the other
        overflow = "overflow" in (l_minus.flag, l_plus.flag)
        return Evaluation(math.nan, "overflow" if overflow else l_minus.flag or l_plus.flag)
    return Evaluation(l_plus.value - l_minus.value)


def dirichlet_value(problem, ends):
    """Two-wall determinant from one energy's Endpoints."""
    _, cl, _, sl, _ = ends.left
    _, cr, _, sr, _ = ends.right
    return Evaluation.of(cl * sr - cr * sl)


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
    x = pair.x[keep]
    c, dc = pair.c[keep], pair.dc[keep]
    s, ds = pair.s[keep], pair.ds[keep]

    rcv, rcd = np.array([asym.right_convergent(energy, xi) for xi in x.tolist()]).T
    w_rc_c = wronskian(rcv, rcd, c, dc)
    w_rc_s = wronskian(rcv, rcd, s, ds)
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
