"""Bracket scanning and root refinement for characteristic functions.

Endpoint-ratio characteristics change sign at poles as well as at roots, so
the scanner has to tell the two apart. A simple zero shrinks |F| as the
probes close in; a pole grows it. Sign changes whose flanks grow toward the
crossing are subdivided tenfold and judged by that zoom trend. Refinement
adds a second guard: |F| running away past 1e3 times its bracket-entry scale
aborts the bracket as a pole.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cfm import cfm_characteristic, cfm_l_ratios, dirichlet_determinant
from .core import RefinementError, SolverError
from .integrate import canonical_pair
from .wm import (
    assemble_eigenresult,
    wm_characteristic,
    wm_characteristic_symmetric,
    wm_eigenfunction,
    wm_endpoint_data,
)

METHODS = ("wm", "wm-even", "wm-odd", "cfm", "dirichlet")

# flank growth that makes a sign change worth a closer look
SUSPECT_GROWTH = 2.0
# |F| exceeding this multiple of its bracket-entry scale means the bracket
# straddles a pole, not a root
RUNAWAY_FACTOR = 1e3


class RefinementWarning(UserWarning):
    """A bracket was dropped after refinement failed."""


@dataclass(frozen=True)
class Bracket:
    """A sign change of the characteristic function.

    pole_suspect marks sign changes the zoom test attributed to a pole;
    they are kept for reporting but skipped by find_eigenvalues.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    pole_suspect: bool = False


def _default_probes(lo, hi):
    # 200 probes per 10 units of energy, clamped to something usable
    return int(min(20000, max(40, math.ceil(20.0 * (hi - lo)))))


def scan_brackets(char_fn, energy_range, n_probe=None):
    """Probe uniformly and collect sign-change brackets.

    n_probe cells of equal width are probed at their n_probe + 1 edges.
    Flagged probes (poles, overflow, degenerate asymptotics) are skipped; a
    sign change spanning skipped probes is subdivided before acceptance, and
    a run of two or more flagged probes, which covers a whole cell, gives a
    RefinementWarning naming its span. An exact zero on a window edge is a
    zero-width bracket.
    Returns brackets in energy order, pole-suspect ones included but marked.
    A reversed range or fewer than one probe cell raises ValueError.
    """
    lo, hi = float(energy_range[0]), float(energy_range[1])
    if lo > hi:
        raise ValueError(f"energy range is reversed: {energy_range!r}")
    if n_probe is None:
        n_probe = _default_probes(lo, hi)
    elif n_probe < 1:
        raise ValueError(f"need at least one probe cell, got n_probe={n_probe!r}")
    if lo == hi:
        return []
    eps = np.linspace(lo, hi, int(n_probe) + 1)
    evals = char_fn.evaluate_many(eps)
    # a run of flagged probes that spans a whole cell hides any level in it
    start = 0
    for good, run in itertools.groupby(ev.ok for ev in evals):
        n = len(list(run))
        if not good and n > 1:
            warnings.warn(f"every probe from {eps[start]:.9g} to {eps[start + n - 1]:.9g} "
                          "was flagged; levels in that span are not bracketed",
                          RefinementWarning)
        start += n
    ok = [i for i, ev in enumerate(evals) if ev.ok]
    if not ok:
        return []

    # an exact hit on a window edge lacks a neighbour on one side, so it is
    # its own zero-width bracket
    last = len(eps) - 1
    edges = {i: Bracket(float(eps[i]), float(eps[i]), 0.0, 0.0) for i in (0, last)
             if evals[i].ok and evals[i].value == 0.0}
    brackets = [edges[0]] if 0 in edges else []
    for p in range(len(ok) - 1):
        a, b = ok[p], ok[p + 1]
        fa, fb = evals[a].value, evals[b].value
        if fa == 0.0:
            # exact hit: the neighbors straddle the root
            if 0 < a and evals[a - 1].ok and (evals[a - 1].value < 0) != (fb < 0):
                brackets.append(Bracket(float(eps[a - 1]), float(eps[b]),
                                        evals[a - 1].value, fb))
            continue
        if (fa < 0) == (fb < 0) or b in edges:
            continue
        gap = b - a > 1
        f_prev = evals[ok[p - 1]].value if p > 0 else None
        f_next = evals[ok[p + 2]].value if p + 2 < len(ok) else None
        growing = (f_prev is not None and abs(fa) > SUSPECT_GROWTH * abs(f_prev)
                   and f_next is not None and abs(fb) > SUSPECT_GROWTH * abs(f_next))
        if gap or growing:
            brackets.extend(_subdivide(char_fn, float(eps[a]), float(eps[b]), fa, fb))
        else:
            brackets.append(Bracket(float(eps[a]), float(eps[b]), fa, fb))
    if last in edges:
        brackets.append(edges[last])
    return brackets


def _subdivide(char_fn, e_lo, e_hi, f_lo, f_hi):
    # zoom in tenfold and judge each inner sign change by whether the
    # crossing-adjacent magnitudes grew (pole) or shrank (root)
    sub = np.linspace(e_lo, e_hi, 11)
    inner = char_fn.evaluate_many(sub[1:-1])
    vals = [f_lo] + [ev.value if ev.ok else math.nan for ev in inner] + [f_hi]
    outer_floor = min(abs(f_lo), abs(f_hi))
    out = []
    idx = [i for i, v in enumerate(vals) if not math.isnan(v)]
    for q in range(len(idx) - 1):
        i, j = idx[q], idx[q + 1]
        fi, fj = vals[i], vals[j]
        if fi == 0.0 or (fi < 0) == (fj < 0):
            continue
        suspect = min(abs(fi), abs(fj)) > outer_floor
        out.append(Bracket(float(sub[i]), float(sub[j]), fi, fj, pole_suspect=suspect))
    return out


def refine_root(char_fn, bracket, tol_e=1e-10, max_iter=200):
    """Shrink a bracket to a root by secant steps inside a bisection cage.

    A secant candidate is used when it lands strictly inside the current
    bracket; otherwise the midpoint is. Converges when the bracket is
    narrower than tol_e or |F| falls below 1e-12 of its entry scale.

    Raises:
        RefinementError: on iteration runoff, on flagged evaluations at the
            midpoint, or when |F| runs away (bracketed pole).
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = bracket.f_lo, bracket.f_hi
    if hi == lo:
        return lo
    fscale = max(abs(flo), abs(fhi))
    for it in range(max_iter):
        if hi - lo < tol_e:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        cand = mid
        if it % 2 == 0 and fhi != flo:
            sec = (lo * fhi - hi * flo) / (fhi - flo)
            if lo < sec < hi:
                cand = sec
        f = char_fn(cand)
        if math.isnan(f) and cand != mid:
            cand = mid
            f = char_fn(cand)
        if math.isnan(f):
            raise RefinementError(
                f"flagged evaluation at {cand!r} inside bracket", lo, hi)
        if abs(f) > RUNAWAY_FACTOR * fscale:
            raise RefinementError(
                f"|F| ran away at {cand!r}; bracket straddles a pole", lo, hi)
        if f == 0.0:
            return cand
        if (f < 0) == (flo < 0):
            lo, flo = cand, f
        else:
            hi, fhi = cand, f
        if abs(f) < 1e-12 * fscale:
            return cand
    raise RefinementError(f"no convergence in {max_iter} iterations", lo, hi)


def characteristic_for(problem, method):
    """Dispatch a method name to its characteristic function."""
    if method == "wm":
        return wm_characteristic(problem)
    if method == "wm-even":
        return wm_characteristic_symmetric(problem, "even")
    if method == "wm-odd":
        return wm_characteristic_symmetric(problem, "odd")
    if method == "cfm":
        return cfm_characteristic(problem)
    if method == "dirichlet":
        return dirichlet_determinant(problem)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _assemble_cfm(problem, root, samples):
    # coefficient choice straight from the endpoint data: phi = C - l S for
    # the ratio form, the vanishing factor alone for the symmetric product
    pair = canonical_pair(problem.potential, root, problem.grid, samples=samples)
    if problem.symmetric:
        _, cr, _, sr, _ = pair.ends.right
        a2, b2 = (1.0, 0.0) if abs(cr) <= abs(sr) else (0.0, 1.0)
        residual = abs(cr * sr) / max(cr * cr + sr * sr, 1e-300)
    else:
        l_minus, l_plus = cfm_l_ratios(pair.ends)
        ls = [r.value for r in (l_minus, l_plus) if r.ok]
        if not ls:
            raise RefinementError(f"endpoint ratios undefined at root {root!r}")
        l = sum(ls) / len(ls)
        nrm = math.hypot(1.0, l)
        a2, b2 = 1.0 / nrm, -l / nrm
        residual = (abs(ls[-1] - ls[0]) / max(1.0, *map(abs, ls))
                    if len(ls) == 2 else math.nan)
    return assemble_eigenresult(problem, pair, wm_endpoint_data(pair.ends, problem.asymptotics),
                                a2, b2, residual)


def find_eigenvalues(problem, method="wm", energy_range=None, n_probe=None,
                     tol_e=1e-10, max_iter=200):
    """Scan, refine, and assemble the bound states in a window.

    Args:
        problem: the assembled Problem.
        method: one of wm, wm-even, wm-odd, cfm, dirichlet.
        energy_range: scan window; defaults to problem.energy_range.
        n_probe: probe count; defaults to 200 per 10 units of energy.
        tol_e: refinement width tolerance.

    Returns:
        EigenResults sorted by energy and indexed by position. Brackets that
        fail to refine and levels that fail to assemble are reported as
        RefinementWarnings, not errors.
    """
    char_fn = characteristic_for(problem, method)
    # v does not depend on the energy: assembly marches through the samples
    # every evaluation of char_fn read
    samples = char_fn.samples
    window = energy_range if energy_range is not None else problem.energy_range
    roots = []
    for br in scan_brackets(char_fn, window, n_probe):
        if br.pole_suspect:
            continue
        try:
            root = refine_root(char_fn, br, tol_e=tol_e, max_iter=max_iter)
        except RefinementError as exc:
            warnings.warn(
                f"bracket [{br.lo:.9g}, {br.hi:.9g}] dropped: {exc}", RefinementWarning)
            continue
        if roots and abs(root - roots[-1]) <= 10.0 * tol_e:
            continue
        roots.append(root)
    roots.sort()
    results = []
    for root in roots:
        try:
            if method == "cfm":
                res = _assemble_cfm(problem, root, samples)
            else:
                res = wm_eigenfunction(problem, root, samples)
        except SolverError as exc:
            warnings.warn(f"level at {root:.9g} dropped: {exc}", RefinementWarning)
            continue
        results.append(replace(res, index=len(results)))
    return results
