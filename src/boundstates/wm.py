"""Wronskian-method quantization, and the boundary-row rule every method shares.

A bound state psi = a2 C + b2 S meets each boundary condition through a row,
the Wronskians of a reference solution with C and S at that grid end, so the
levels are the energies where the two rows are parallel. WM's references are
the asymptotic convergent members: r_L = (W(L_c, C), W(L_c, S)) at x_left
and r_R = (W(R_c, C), W(R_c, S)) at x_right. CFM's (cfm.py) are wall
solutions, whose rows WM's equal on hard walls.

F divides each row by its larger entry and takes det(r_L, r_R) / (|r_L| |r_R|),
the sine of the angle between them: no poles, no overflow while the rows are
finite, and every bit kept when one side's pair is scaled by a power of two.
On a reflected grid F factors into the entries of r_R, W(R_c, C) for the even
levels and W(R_c, S) for the odd ones; wm-even and wm-odd read one entry of
r_R / |r_R|. Every level is assembled from the null direction of its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateAsymptoticsError,
    DegenerateRootError,
    EigenResult,
    Evaluation,
    wronskian,
)
from .integrate import canonical_pair

# parity tagging: the smaller canonical coefficient must be this far below
# the larger one before a state is called pure even or pure odd
PARITY_RATIO = 1e-6

NODE_FLOOR = 1e-7


@dataclass(frozen=True)
class WmEndpointData:
    """Boundary Wronskians of the canonical pair at one energy.

    w_lc_ld and w_rc_rd are the asymptotic pairs' own Wronskians, kept for
    linear-independence checks and for coefficient extraction.
    """

    w_lc_c: float
    w_lc_s: float
    w_lc_ld: float
    w_rc_c: float
    w_rc_s: float
    w_rc_rd: float


def wm_endpoint_data(ends, asymptotics):
    """Evaluate the six boundary Wronskians from one energy's Endpoints.

    Raises:
        DegenerateAsymptoticsError: when a boundary pair's own Wronskian
            vanishes or is not finite, naming the side.
    """
    xl, cl, dcl, sl, dsl = ends.left
    xr, cr, dcr, sr, dsr = ends.right
    e = ends.energy
    lcv, lcd = asymptotics.left_convergent(e, xl)
    ldv, ldd = asymptotics.left_divergent(e, xl)
    rcv, rcd = asymptotics.right_convergent(e, xr)
    rdv, rdd = asymptotics.right_divergent(e, xr)
    w_lc_ld = wronskian(lcv, lcd, ldv, ldd)
    w_rc_rd = wronskian(rcv, rcd, rdv, rdd)
    for side, w in (("left", w_lc_ld), ("right", w_rc_rd)):
        if not math.isfinite(w) or w == 0.0:
            raise DegenerateAsymptoticsError(
                f"asymptotic pair degenerate at the {side} endpoint "
                f"(pair Wronskian {w!r} at energy {e!r})")
    return WmEndpointData(
        w_lc_c=wronskian(lcv, lcd, cl, dcl),
        w_lc_s=wronskian(lcv, lcd, sl, dsl),
        w_lc_ld=w_lc_ld,
        w_rc_c=wronskian(rcv, rcd, cr, dcr),
        w_rc_s=wronskian(rcv, rcd, sr, dsr),
        w_rc_rd=w_rc_rd)


def wm_rows(problem, ends):
    """WM's rows (W(L_c,C), W(L_c,S)) and (W(R_c,C), W(R_c,S)); raises as wm_endpoint_data."""
    d = wm_endpoint_data(ends, problem.asymptotics)
    return (d.w_lc_c, d.w_lc_s), (d.w_rc_c, d.w_rc_s)


def _scaled(a, b):
    # (a, b) over its larger entry, and the squared length of that
    m = max(abs(a), abs(b))
    a, b = a / m, b / m
    return a, b, a * a + b * b


def boundary_value(rows, problem, ends, entry=None):
    """F of one energy's Endpoints from a method's rows(problem, ends), as an Evaluation.

    With entry, the parity factor: that entry of r_R / |r_R|. Flagged "overflow"
    where a row is not finite, "degenerate" where it or an asymptotic pair is.
    """
    try:
        row_l, row_r = rows(problem, ends)
    except DegenerateAsymptoticsError:
        return Evaluation(math.nan, "degenerate")
    for a, b in (row_l, row_r) if entry is None else (row_r,):
        if not (math.isfinite(a) and math.isfinite(b)):
            return Evaluation(math.nan, "overflow")
        if a == 0.0 and b == 0.0:
            return Evaluation(math.nan, "degenerate")
    ar, br, nr = _scaled(*row_r)
    if entry is not None:
        return Evaluation((ar, br)[entry] / math.sqrt(nr))
    al, bl, nl = _scaled(*row_l)
    return Evaluation((al * br - ar * bl) / math.sqrt(nl * nr))


def wm_value(problem, ends):
    """WM characteristic value from one energy's Endpoints."""
    return boundary_value(wm_rows, problem, ends)


def wm_value_symmetric(problem, ends, parity):
    """WM parity factor, W(R_c, C) or W(R_c, S) over |r_R|, from one energy's Endpoints."""
    return boundary_value(wm_rows, problem, ends, ("even", "odd").index(parity))


def wm_eigenfunction(problem, root, pair=None):
    """Assemble the normalized eigenfunction at an accepted root from WM's rows.

    pair is the canonical pair at root, else one is marched. The index is the
    node count; callers re-index by spectral position.
    """
    if pair is None:
        pair = canonical_pair(problem.potential, root, problem.grid)
    return assemble_eigenresult(problem, wm_rows, pair)


def assemble_eigenresult(problem, rows, pair):
    """Build a normalized EigenResult from a method's boundary rows.

    The coefficient direction (a2, b2) is the null direction of the better
    conditioned row, the one with the larger entry. Samples are L2
    normalized by the trapezoid rule, the overall sign is fixed by the
    coefficients (see EigenResult), and the divergent admixtures b1, b3 are
    read off the boundary Wronskians of wm_endpoint_data.
    """
    x, c, dc, s, ds, v, ends = pair
    d = wm_endpoint_data(ends, problem.asymptotics)
    f = boundary_value(rows, problem, ends)
    if not f.ok:
        raise DegenerateRootError(f"boundary rows {f.flag} at energy {ends.energy!r}")
    a, b, n = _scaled(*max(rows(problem, ends), key=lambda r: max(abs(r[0]), abs(r[1]))))
    a2, b2 = b / math.sqrt(n), -a / math.sqrt(n)
    # a pair grown past the double range turns psi into inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        psi = a2 * c + b2 * s
        dpsi = a2 * dc + b2 * ds
    if not (np.isfinite(psi).all() and np.isfinite(dpsi).all()):
        raise DegenerateRootError(
            f"canonical pair or coefficients not finite at energy {ends.energy!r}")
    # divided by the largest antinode first, which keeps a member grown far
    # out on the grid from overflowing the norm, and signed so that
    # a2 = psi(x0) > 0, or b2 = psi'(x0) > 0 where a2 is below the parity
    # threshold: the two mirror antinodes of an odd level tie up to roundoff
    top = float(psi[np.argmax(np.abs(psi))])
    if top == 0.0:
        raise DegenerateRootError(f"eigenfunction norm degenerate at energy {ends.energy!r}")
    top = math.copysign(top, b2 if abs(a2) <= PARITY_RATIO * abs(b2) else a2)
    psi /= top
    # L2 norm by the trapezoid rule on the uniform grid
    norm = math.sqrt(problem.grid.h * (np.sum(psi * psi) - 0.5 * (psi[0] ** 2 + psi[-1] ** 2)))
    psi /= norm
    dpsi /= top * norm
    a2, b2 = a2 / (top * norm), b2 / (top * norm)

    b1 = (a2 * d.w_lc_c + b2 * d.w_lc_s) / d.w_lc_ld
    b3 = (a2 * d.w_rc_c + b2 * d.w_rc_s) / d.w_rc_rd

    node_count = _count_nodes(psi, v, ends.energy)
    parity = _parity_tag(problem, a2, b2)
    return EigenResult(
        energy=ends.energy, index=node_count, parity=parity,
        residual=abs(f.value), node_count=node_count,
        x=x, psi=psi, dpsi=dpsi, a2=a2, b2=b2, b1=b1, b3=b3)


def _count_nodes(psi, v, energy):
    # Nodes of a bound state sit between the outermost classical turning
    # points; past them the true solution is monotone, but the residual
    # divergent admixture grows there and can fake a crossing, so restrict
    # the count to the allowed span. v holds the potential at psi's samples.
    allowed = v <= energy
    if allowed.any():
        i0 = int(allowed.argmax())
        i1 = len(psi) - 1 - int(allowed[::-1].argmax())
        psi = psi[i0:i1 + 1]
    # drop samples that are numerically zero so wall values and the exact
    # S(0) = 0 sample cannot fake or hide a crossing
    amp = np.max(np.abs(psi))
    live = psi[np.abs(psi) > NODE_FLOOR * amp]
    if live.size < 2:
        return 0
    signs = np.sign(live)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _parity_tag(problem, a2, b2):
    if not problem.symmetric:
        return "none"
    big = max(abs(a2), abs(b2))
    if abs(b2) <= PARITY_RATIO * big:
        return "even"
    if abs(a2) <= PARITY_RATIO * big:
        return "odd"
    return "none"
