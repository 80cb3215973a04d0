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
On a symmetric problem F against the origin row of psi'(0) = 0, (0, -1), or
of psi(0) = 0, (1, 0), is W(R_c, C) or W(R_c, S) over |r_R|, the even or the
odd factor. A level is assembled from its method's rows, each side of x0
from its own, with the parity of the factor that vanishes.
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

# off a symmetric problem, a level is signed by psi'(x0) where psi(x0) is at
# most this fraction of it, else by psi(x0)
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


def boundary_value(rows, problem, ends, factors=None):
    """F of one energy's Endpoints from a method's rows(problem, ends), as an Evaluation.

    With factors, a tuple of 0 (even) and 1 (odd), the value is instead the
    tuple of those parity factors: F against the origin row of each in place
    of r_L, which is that entry of r_R / |r_R|. Flagged "overflow" where a
    row is not finite, "degenerate" where it or an asymptotic pair is.
    """
    try:
        row_l, row_r = rows(problem, ends)
    except DegenerateAsymptoticsError:
        row_l = row_r = (0.0, 0.0)  # flagged as a zero row is
    return _sine(row_l, row_r, factors)


def _sine(row_l, row_r, factors=None):
    # boundary_value of rows in hand: each row is checked, left first, but
    # with factors r_R alone, whose entries they read
    nan = math.nan if factors is None else (math.nan,) * len(factors)
    for a, b in (row_l, row_r) if factors is None else (row_r,):
        if not (math.isfinite(a) and math.isfinite(b)):
            return Evaluation(nan, "overflow")
        if a == 0.0 and b == 0.0:
            return Evaluation(nan, "degenerate")
    ar, br, nr = _scaled(*row_r)
    if factors is not None:
        return Evaluation(tuple((ar, br)[f] / math.sqrt(nr) for f in factors))
    al, bl, nl = _scaled(*row_l)
    return Evaluation((al * br - ar * bl) / math.sqrt(nl * nr))


def wm_value(problem, ends):
    """WM characteristic value from one energy's Endpoints."""
    return boundary_value(wm_rows, problem, ends)


def wm_value_symmetric(problem, ends, parity):
    """WM parity factor, W(R_c, C) or W(R_c, S) over |r_R|, from one energy's Endpoints."""
    ev = boundary_value(wm_rows, problem, ends, (("even", "odd").index(parity),))
    return Evaluation(ev.value[0], ev.flag)


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

    Each side of x0 is the null direction of its own row, the left one scaled
    to meet the right at x0 (see EigenResult). On a symmetric problem the
    level's parity is the factor that vanishes, the smaller entry of r_R / |r_R|.
    Samples are L2 normalized by the trapezoid rule.
    """
    x, c, dc, s, ds, v, ends = pair
    (lc, w_l), (rc, w_r) = references(problem, ends)
    row_l, row_r = rows(problem, ends)
    f = _sine(row_l, row_r)
    if not f.ok:
        raise DegenerateRootError(f"boundary rows {f.flag} at energy {ends.energy!r}")
    # each row's null direction (b, -a), the left one scaled to meet the right
    # at x0, and both signed so that psi(x0) > 0, or psi'(x0) > 0 for an odd level
    (al, bl, _), (ar, br, _) = _scaled(*row_l), _scaled(*row_r)
    odd = abs(br) < abs(ar)
    if (bl, al)[odd] == 0.0:
        raise DegenerateRootError(f"the two sides cannot meet at x0 at energy {ends.energy!r}")
    k = odd if problem.symmetric else abs(br) <= PARITY_RATIO * abs(ar)
    sign = math.copysign(1.0, (br, -ar)[k])
    t = sign * (br, ar)[odd] / (bl, al)[odd]
    left, right = (t * bl, -t * al), (sign * br, -sign * ar)
    # each side in place on its own slice of the pair, x0 the sample n_right
    # from the end; a pair grown past the double range turns psi into inf or NaN
    i0 = len(x) - 1 - problem.grid.n_right
    psi, dpsi, part = np.empty_like(c), np.empty_like(c), np.empty_like(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for side, (a, b) in ((slice(None, i0), left), (slice(i0, None), right)):
            for out, y, dy in ((psi, c, s), (dpsi, dc, ds)):
                np.multiply(y[side], a, out=out[side])
                out[side] += np.multiply(dy[side], b, out=part[side])
    if not (np.isfinite(psi).all() and np.isfinite(dpsi).all()):
        raise DegenerateRootError(
            f"canonical pair or coefficients not finite at energy {ends.energy!r}")
    # divided by the largest antinode first, which keeps a member grown far
    # out on the grid from overflowing the norm
    top = float(np.abs(psi).max())
    if top == 0.0:
        raise DegenerateRootError(f"eigenfunction norm degenerate at energy {ends.energy!r}")
    psi /= top
    # L2 norm by the trapezoid rule on the uniform grid
    norm = math.sqrt(problem.grid.h * (np.sum(psi * psi) - 0.5 * (psi[0] ** 2 + psi[-1] ** 2)))
    psi /= norm
    dpsi /= top * norm
    (la, lb), (a2, b2) = ((a / (top * norm), b / (top * norm)) for a, b in (left, right))

    (lc_c, lc_s), (rc_c, rc_s) = row(lc, ends.left), row(rc, ends.right)
    node_count = _count_nodes(psi, v, ends.energy)
    return EigenResult(
        energy=ends.energy, index=node_count,
        parity=("even", "odd")[odd] if problem.symmetric else "none",
        residual=abs(f.value), node_count=node_count,
        x=x, psi=psi, dpsi=dpsi, a2=a2, b2=b2,
        b1=(la * lc_c + lb * lc_s) / w_l, b3=(a2 * rc_c + b2 * rc_s) / w_r)


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
