"""Wronskian-method quantization, and the boundary-row rule every method shares.

A bound state psi = a2 C + b2 S meets each boundary condition through a row,
row(ref, end) = (W(ref, C), W(ref, S)) of a reference solution at that grid
end, so the levels are the energies where the two rows are parallel. WM's
references are the asymptotic convergent members L_c at x_left and R_c at
x_right, read by references; their rows r_L and r_R are wm_rows. CFM's
(cfm.py) are wall solutions, whose rows WM's equal on hard walls.

F divides each row by its larger entry and takes det(r_L, r_R) / (|r_L| |r_R|),
the sine of the angle between them: no poles, no overflow while the rows are
finite, and every bit kept when one side's pair is scaled by a power of two.
On a reflected grid F factors into the entries of r_R, W(R_c, C) for the even
levels and W(R_c, S) for the odd ones; wm-even and wm-odd read one entry of
r_R / |r_R|. Every level is assembled from its method's rows, read once.
"""

from __future__ import annotations

import math

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


def row(ref, end):
    """(W(ref, C), W(ref, S)) of a reference (value, slope) at a pair end (x, C, C', S, S').

    Elementwise: end is an Endpoints side of floats or a CanonicalPair's first five arrays.
    """
    v, d = ref
    _, c, dc, s, ds = end
    return wronskian(v, d, c, dc), wronskian(v, d, s, ds)


def references(problem, ends):
    """(L_c, W(L_c, L_d)) and (R_c, W(R_c, R_d)): each convergent member at its grid end.

    Raises:
        DegenerateAsymptoticsError: when a boundary pair's own Wronskian
            vanishes or is not finite, naming the side.
    """
    asym, e = problem.asymptotics, ends.energy
    xl, xr = ends.left[0], ends.right[0]
    lc = asym.left_convergent(e, xl)
    w_l = wronskian(*lc, *asym.left_divergent(e, xl))
    rc = asym.right_convergent(e, xr)
    w_r = wronskian(*rc, *asym.right_divergent(e, xr))
    for side, w in (("left", w_l), ("right", w_r)):
        if not math.isfinite(w) or w == 0.0:
            raise DegenerateAsymptoticsError(
                f"asymptotic pair degenerate at the {side} endpoint "
                f"(pair Wronskian {w!r} at energy {e!r})")
    return (lc, w_l), (rc, w_r)


def wm_rows(problem, ends):
    """WM's rows, the rows of the references L_c and R_c; raises as references."""
    (lc, _), (rc, _) = references(problem, ends)
    return row(lc, ends.left), row(rc, ends.right)


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
    return _sine(row_l, row_r, entry)


def _sine(row_l, row_r, entry=None):
    # boundary_value of rows in hand: each row is checked, left first
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
    """Build a normalized EigenResult from a method's boundary rows, evaluated once.

    F and the coefficient direction (a2, b2) come from the method's rows: the
    null direction of the better conditioned row, the one with the larger
    entry. Samples are L2 normalized by the trapezoid rule, and the overall
    sign is fixed by the coefficients (see EigenResult). The divergent
    admixtures are b1 = (a2 W(L_c, C) + b2 W(L_c, S)) / W(L_c, L_d) and b3
    likewise on the right, from the rows of the references.
    """
    x, c, dc, s, ds, v, ends = pair
    (lc, w_l), (rc, w_r) = references(problem, ends)
    row_l, row_r = rows(problem, ends)
    f = _sine(row_l, row_r)
    if not f.ok:
        raise DegenerateRootError(f"boundary rows {f.flag} at energy {ends.energy!r}")
    a, b, n = _scaled(*max((row_l, row_r), key=lambda r: max(abs(r[0]), abs(r[1]))))
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

    (lc_c, lc_s), (rc_c, rc_s) = row(lc, ends.left), row(rc, ends.right)
    b1 = (a2 * lc_c + b2 * lc_s) / w_l
    b3 = (a2 * rc_c + b2 * rc_s) / w_r

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
