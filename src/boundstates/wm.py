"""Wronskian-method quantization.

The characteristic function is built from boundary Wronskians of the canonical
pair against the asymptotic reference solutions:

    F(eps) = W(L_c, C)- * W(R_c, S)+  -  W(R_c, C)+ * W(L_c, S)-

Its zeros are the bound-state energies. For parity invariant potentials with
x0 = 0 the condition splits: W(R_c, C)+ = 0 picks the even levels and
W(R_c, S)+ = 0 the odd ones. With hard walls the same determinant reduces
exactly to C(x_left) S(x_right) - C(x_right) S(x_left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CharacteristicFunction,
    DegenerateAsymptoticsError,
    DegenerateRootError,
    EigenResult,
    Evaluation,
    wronskian,
)
from .integrate import canonical_endpoints, canonical_pair, sample_potential

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

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


def wm_value(problem, ends):
    """General WM determinant from one energy's Endpoints."""
    try:
        d = wm_endpoint_data(ends, problem.asymptotics)
    except DegenerateAsymptoticsError:
        return Evaluation(math.nan, "degenerate")
    return Evaluation.of(d.w_lc_c * d.w_rc_s - d.w_rc_c * d.w_lc_s)


def wm_value_symmetric(problem, ends, parity):
    """Single-Wronskian form for parity invariant problems, from Endpoints."""
    try:
        d = wm_endpoint_data(ends, problem.asymptotics)
    except DegenerateAsymptoticsError:
        return Evaluation(math.nan, "degenerate")
    value = d.w_rc_c if parity == "even" else d.w_rc_s
    return Evaluation.of(value)


def characteristic(problem, value, label):
    """CharacteristicFunction of a per-endpoint value function.

    Shared by every method. value(problem, ends) maps one energy's Endpoints
    to an Evaluation. v is sampled here, once, and kept as .samples;
    evaluate_many() marches its batch endpoint-only with canonical_endpoints
    through these samples, and evaluate() is a batch of one.
    """
    pot, grid = problem.potential, problem.grid
    samples = sample_potential(pot, grid)

    def many(energies):
        return [value(problem, ends)
                for ends in canonical_endpoints(pot, energies, grid, samples)]

    return CharacteristicFunction(lambda e: many(np.array([e]))[0], label=label,
                                  many=many, samples=samples)


def wm_characteristic(problem):
    """Characteristic function for the general two-sided determinant.

    Each evaluation costs one canonical-pair integration over the grid.
    """
    return characteristic(problem, wm_value, "wm")


def wm_characteristic_symmetric(problem, parity):
    """Even or odd characteristic function; symmetric problems only."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if not problem.symmetric:
        raise ValueError("even/odd splitting needs a parity invariant potential with x0 = 0")

    def value(problem, ends):
        return wm_value_symmetric(problem, ends, parity)

    return characteristic(problem, value, f"wm-{parity}")


def wm_eigenfunction(problem, root, samples=None):
    """Assemble the normalized eigenfunction at an accepted root.

    The coefficient direction (a2, b2) is the nullspace of the boundary rows
    (W(L_c,C), W(L_c,S)) and (W(R_c,C), W(R_c,S)), taken from whichever row
    is better conditioned.

    samples are the solve's PotentialSamples (its characteristic function's
    .samples); without them canonical_pair samples v.

    Returns:
        EigenResult whose index is set to the node count (they agree for a
        true n-th level; callers re-index by spectral position).
    """
    pair = canonical_pair(problem.potential, root, problem.grid, samples=samples)
    d = wm_endpoint_data(pair.ends, problem.asymptotics)
    row_l = (d.w_lc_c, d.w_lc_s)
    row_r = (d.w_rc_c, d.w_rc_s)
    norm_l = math.hypot(*row_l)
    norm_r = math.hypot(*row_r)
    if max(norm_l, norm_r) < 1e-14:
        raise DegenerateRootError(
            f"all boundary Wronskians vanish at energy {root!r}; no direction to pick")
    row = row_l if norm_l >= norm_r else row_r
    nrm = math.hypot(*row)
    a2, b2 = row[1] / nrm, -row[0] / nrm
    # normalized by the row norms the determinant is the sine of the angle
    # between the boundary rows, a scale-free closeness-to-singular measure
    det = d.w_lc_c * d.w_rc_s - d.w_rc_c * d.w_lc_s
    residual = abs(det) / max(norm_l * norm_r, 1e-300)
    return assemble_eigenresult(problem, pair, d, a2, b2, residual)


def assemble_eigenresult(problem, pair, d, a2, b2, residual):
    """Build a normalized EigenResult from a coefficient direction.

    Shared by the WM nullspace path and the endpoint-ratio path. Samples are
    L2 normalized by the trapezoid rule, the overall sign is fixed by the
    largest antinode, and the divergent admixtures b1, b3 are read off the
    boundary Wronskians d, the wm_endpoint_data of pair.ends.
    """
    x, c, dc, s, ds, v, ends = pair
    # a pair grown past the double range would turn psi into NaN, with numpy
    # warnings on the way
    if not (math.isfinite(a2) and math.isfinite(b2)
            and all(np.isfinite(a).all() for a in (c, dc, s, ds))):
        raise DegenerateRootError(
            f"canonical pair or coefficients not finite at energy {ends.energy!r}")
    psi = a2 * c + b2 * s
    dpsi = a2 * dc + b2 * ds
    # divided by the largest antinode first, which fixes the overall sign and
    # keeps a member grown far out on the grid from overflowing the norm
    top = float(psi[np.argmax(np.abs(psi))])
    if top == 0.0 or not math.isfinite(top):
        raise DegenerateRootError(f"eigenfunction norm degenerate at energy {ends.energy!r}")
    psi, dpsi, a2, b2 = (a / top for a in (psi, dpsi, a2, b2))
    l2 = math.sqrt(_trapezoid(psi * psi, x))
    psi, dpsi, a2, b2 = (a / l2 for a in (psi, dpsi, a2, b2))

    b1 = (a2 * d.w_lc_c + b2 * d.w_lc_s) / d.w_lc_ld
    b3 = (a2 * d.w_rc_c + b2 * d.w_rc_s) / d.w_rc_rd

    node_count = _count_nodes(psi, v, ends.energy)
    parity = _parity_tag(problem, a2, b2)
    return EigenResult(
        energy=ends.energy, index=node_count, parity=parity,
        residual=abs(residual), node_count=node_count,
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
