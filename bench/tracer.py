"""Per-layer tracing from outside the package.

The tracer rebinds the names that ``find_eigenvalues`` and the CLI commands
resolve at call time in the package's module namespaces, and wraps each
Problem's potential and boundary callables through ``dataclasses.replace``.
Nothing under ``src/`` changes. Spans (name, start, end, parent) and counts
are kept in memory; a layer's self time is its span time minus the time of
its child spans and of the leaf calls (v(x), boundary members) made inside it.

A name that no longer exists is recorded as missing. The metrics of its
layer are then left out of the traced result instead of reading as 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PHASES = ("roots.scan", "roots.subdivide", "roots.refine")

# per-layer metric name -> unit; the layer is the part before the first dot
METRICS = {
    "potentials.v_calls": "count",
    "potentials.v_s": "s",
    "potentials.asym_calls": "count",
    "integrate.pairs": "count",
    "integrate.pairs.wm": "count",
    "integrate.pairs.cfm": "count",
    "integrate.column_steps": "count",
    "integrate.self_s": "s",
    "integrate.ns_per_column_step": "ns",
    "wm.evals": "count",
    "wm.self_s": "s",
    "wm.flagged.overflow": "count",
    "wm.flagged.degenerate": "count",
    "cfm.evals": "count",
    "cfm.self_s": "s",
    "cfm.flagged.pole": "count",
    "cfm.flagged.overflow": "count",
    "dirichlet.evals": "count",
    "roots.scan.evals": "count",
    "roots.subdivide.evals": "count",
    "roots.refine.evals": "count",
    "roots.refine.iters_per_root": "count",
    "roots.scan_s": "s",
    "roots.refine_s": "s",
    "roots.assemble_s": "s",
    "roots.brackets": "count",
    "roots.pole_suspect": "count",
    "roots.dropped": "count",
    "roots.useful_ratio": "ratio",
    "roots.evals_per_level": "count",
    "oracle.shoot_s": "s",
    "oracle.shoot.mismatch_evals": "count",
    "oracle.fd_s": "s",
    "cli.wall_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.outputs_changed": "count",
    "trace.overhead_frac": "ratio",
    "trace.missing_layers": "count",
}

# the characteristic-function layers share one wrapper, keyed by label
METHOD_LAYERS = ("wm", "cfm", "dirichlet")


def _layer(metric):
    head = metric.split(".", 1)[0]
    return "methods" if head in METHOD_LAYERS else head


class Tracer:
    """Spans and counts for one traced pass at a time."""

    def __init__(self):
        self._patches = []
        self.missing = []  # (layer, dotted name)
        # wrappers hold these containers, so reset() empties them in place
        self.counts = defaultdict(float)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self._stack = []
        self._leaf_cost = 0.0
        self._leaf_cost = self._calibrate()

    def _calibrate(self, calls=200_000):
        """Per-call cost of a leaf wrapper around a trivial function."""
        def bare(x):
            return x
        wrapped = self._leaf(bare, "calibrate.calls", "calibrate.s")
        self._stack.append(["calibrate", 0.0, 0.0])
        t0 = perf_counter()
        for i in range(calls):
            bare(i)
        t_bare = perf_counter() - t0
        t0 = perf_counter()
        for i in range(calls):
            wrapped(i)
        t_wrapped = perf_counter() - t0
        self._stack.clear()
        self.counts.clear()
        return max(0.0, (t_wrapped - t_bare) / calls)

    # --- recording -------------------------------------------------------

    def reset(self):
        """Forget the recorded pass; installed wrappers stay."""
        for container in (self.counts, self.total, self.self_time, self.spans, self._stack):
            container.clear()

    @contextmanager
    def span(self, name):
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            parent = None
            if self._stack:
                self._stack[-1][2] += dur
                parent = self._stack[-1][0]
            self.spans.append((name, frame[1], end, parent))

    def _leaf(self, fn, count_key, time_key, shoot_key=None):
        counts = self.counts
        stack = self._stack
        cost = self._leaf_cost

        def leaf(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            counts[count_key] += 1
            counts[time_key] += dt
            if stack:
                # the wrapper's own cost is tracing overhead, not the caller's
                stack[-1][2] += dt + cost
                if shoot_key is not None and stack[-1][0] == "oracle.shoot":
                    counts[shoot_key] += 1
            return out
        return leaf

    def _phase(self):
        for frame in reversed(self._stack):
            if frame[0] in PHASES:
                return frame[0]
        return None

    # --- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapper

    def _evaluator(self, layer, fn):
        counts = self.counts

        def evaluate(*args):
            with self.span(layer + ".eval"):
                ev = fn(*args)
            counts[layer + ".evals"] += 1
            if ev.flag is not None:
                counts[f"{layer}.flagged.{ev.flag}"] += 1
            phase = self._phase()
            if phase is not None:
                counts[phase + ".evals"] += 1
            return ev
        return evaluate

    def _char_factory(self, factory):
        def wrapper(*args, **kwargs):
            char_fn = factory(*args, **kwargs)
            layer = char_fn.label.split("-", 1)[0]
            # instance attribute shadows the method; __call__ goes through it
            char_fn.evaluate = self._evaluator(layer, char_fn.evaluate)
            return char_fn
        return wrapper

    def _refine(self, fn):
        counts = self.counts

        def refine(*args, **kwargs):
            try:
                with self.span("roots.refine"):
                    root = fn(*args, **kwargs)
            except Exception:  # counted, then re-raised unchanged
                counts["roots.dropped"] += 1
                raise
            counts["roots.refined"] += 1
            return root
        return refine

    def _count_brackets(self, brackets):
        self.counts["roots.brackets"] += len(brackets)
        self.counts["roots.pole_suspect"] += sum(1 for b in brackets if b.pole_suspect)

    def _march_steps(self, out):
        cols, stored, _ = out
        self.counts["integrate.column_steps"] += (stored - 1) * len(cols)

    def solve(self, fn, *args, **kwargs):
        """Run a find_eigenvalues-like call inside a roots.solve span."""
        method = kwargs.get("method", "wm")
        before = self.counts["integrate.pairs"]
        with self.span("roots.solve"):
            results = fn(*args, **kwargs)
        self.counts["roots.levels"] += len(results)
        self.counts[f"solves.{method}"] += 1
        self.counts[f"solve_pairs.{method}"] += self.counts["integrate.pairs"] - before
        return results

    def _solver(self, fn):
        def wrapper(*args, **kwargs):
            return self.solve(fn, *args, **kwargs)
        return wrapper

    def _pair(self, fn):
        counts = self.counts

        def pair(*args, **kwargs):
            counts["integrate.pairs"] += 1
            with self.span("integrate.pair"):
                return fn(*args, **kwargs)
        return pair

    def wrap_problem(self, problem):
        """The same Problem with its v(x) and boundary members counted.

        A Problem whose fields no longer have these names is returned as it
        is, and the potentials layer is recorded as missing.
        """
        members = ("left_convergent", "left_divergent", "right_convergent", "right_divergent")
        try:
            pot = problem.potential
            asym = problem.asymptotics
            return dataclasses.replace(
                problem,
                potential=dataclasses.replace(
                    pot, evaluate=self._leaf(pot.evaluate, "potentials.v_calls",
                                             "potentials.v_s")),
                asymptotics=dataclasses.replace(asym, **{
                    m: self._leaf(getattr(asym, m), "potentials.asym_calls",
                                  "potentials.asym_s", "oracle.shoot.boundary_calls")
                    for m in members}))
        except (AttributeError, TypeError):
            if ("potentials", "Problem fields") not in self.missing:
                self.missing.append(("potentials", "Problem fields"))
            return problem

    # --- installation ------------------------------------------------------

    def _patch(self, layer, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            if (layer, f"{module_name}.{attr}") not in self.missing:
                self.missing.append((layer, f"{module_name}.{attr}"))
            return
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def install(self):
        """Rebind the traced names; undo with uninstall()."""
        pkg = "boundstates"
        patch = self._patch
        patch("integrate", f"{pkg}.integrate", "_march",
              lambda f: self._spanned("integrate.march", f, self._march_steps))
        for mod in ("roots", "wm", "cfm", "cli"):
            patch("integrate", f"{pkg}.{mod}", "canonical_pair", self._pair)
        patch("methods", f"{pkg}.roots", "characteristic_for", self._char_factory)
        patch("methods", f"{pkg}.oracle", "dirichlet_determinant", self._char_factory)
        patch("methods", f"{pkg}.cli", "wm_value", lambda f: self._evaluator("wm", f))
        patch("methods", f"{pkg}.cli", "wm_value_symmetric", lambda f: self._evaluator("wm", f))
        patch("methods", f"{pkg}.cli", "cfm_value", lambda f: self._evaluator("cfm", f))
        patch("methods", f"{pkg}.cli", "saturation_profile",
              lambda f: self._spanned("cfm.saturation", f))
        # the oracle's own scans (convergence orders) stay inside oracle.orders
        patch("roots", f"{pkg}.roots", "scan_brackets",
              lambda f: self._spanned("roots.scan", f, self._count_brackets))
        patch("roots", f"{pkg}.roots", "refine_root", self._refine)
        patch("roots", f"{pkg}.roots", "_subdivide",
              lambda f: self._spanned("roots.subdivide", f))
        patch("roots", f"{pkg}.roots", "wm_eigenfunction",
              lambda f: self._spanned("roots.assemble", f))
        patch("roots", f"{pkg}.roots", "_assemble_cfm",
              lambda f: self._spanned("roots.assemble", f))
        patch("roots", f"{pkg}.cli", "find_eigenvalues", self._solver)
        patch("potentials", f"{pkg}.cli", "build_problem",
              lambda f: lambda *a, **k: self.wrap_problem(f(*a, **k)))
        patch("oracle", f"{pkg}.cli", "shooting_reference",
              lambda f: self._spanned("oracle.shoot", f))
        patch("oracle", f"{pkg}.cli", "fd_box_recurrence_eigenvalues",
              lambda f: self._spanned("oracle.fd", f))
        patch("oracle", f"{pkg}.cli", "convergence_orders",
              lambda f: self._spanned("oracle.orders", f))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- results -----------------------------------------------------------

    def pass_metrics(self, cli_bytes=0, outputs_changed=0):
        """Per-layer values of the pass recorded since the last reset()."""
        c, tot, own = self.counts, self.total, self.self_time

        def ratio(num, den):
            return num / den if den else 0.0

        steps = c["integrate.column_steps"]
        integrate_self = own["integrate.march"] + own["integrate.pair"]
        phase_evals = c["roots.scan.evals"] + c["roots.subdivide.evals"] + c["roots.refine.evals"]
        values = {
            "potentials.v_calls": c["potentials.v_calls"],
            "potentials.v_s": c["potentials.v_s"],
            "potentials.asym_calls": c["potentials.asym_calls"],
            "integrate.pairs": c["integrate.pairs"],
            "integrate.pairs.wm": ratio(c["solve_pairs.wm"], c["solves.wm"]),
            "integrate.pairs.cfm": ratio(c["solve_pairs.cfm"], c["solves.cfm"]),
            "integrate.column_steps": steps,
            "integrate.self_s": integrate_self,
            "integrate.ns_per_column_step": ratio(integrate_self * 1e9, steps),
            "wm.evals": c["wm.evals"],
            "wm.self_s": own["wm.eval"],
            "wm.flagged.overflow": c["wm.flagged.overflow"],
            "wm.flagged.degenerate": c["wm.flagged.degenerate"],
            "cfm.evals": c["cfm.evals"],
            "cfm.self_s": own["cfm.eval"] + own["cfm.saturation"],
            "cfm.flagged.pole": c["cfm.flagged.pole"],
            "cfm.flagged.overflow": c["cfm.flagged.overflow"],
            "dirichlet.evals": c["dirichlet.evals"],
            "roots.scan.evals": c["roots.scan.evals"],
            "roots.subdivide.evals": c["roots.subdivide.evals"],
            "roots.refine.evals": c["roots.refine.evals"],
            "roots.refine.iters_per_root": ratio(c["roots.refine.evals"], c["roots.refined"]),
            "roots.scan_s": tot["roots.scan"],
            "roots.refine_s": tot["roots.refine"],
            "roots.assemble_s": tot["roots.assemble"],
            "roots.brackets": c["roots.brackets"],
            "roots.pole_suspect": c["roots.pole_suspect"],
            "roots.dropped": c["roots.dropped"],
            "roots.useful_ratio": ratio(c["roots.levels"], c["roots.refined"] + c["roots.dropped"]),
            "roots.evals_per_level": ratio(phase_evals, c["roots.levels"]),
            "oracle.shoot_s": tot["oracle.shoot"],
            # shooting reads the left boundary member once per mismatch
            "oracle.shoot.mismatch_evals": c["oracle.shoot.boundary_calls"] / 2,
            "oracle.fd_s": tot["oracle.fd"],
            "cli.wall_s": tot["cli"],
            "cli.self_s": own["cli"],
            "cli.bytes_out": cli_bytes,
            "cli.outputs_changed": outputs_changed,
        }
        return values


def summarize(passes, overhead_frac, missing):
    """Median per-layer values over traced passes, minus missing layers."""
    dropped = {layer for layer, _ in missing}
    out = {}
    for name, unit in METRICS.items():
        if _layer(name) in dropped:
            continue
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name == "trace.missing_layers":
            value = len(missing)
        else:
            value = statistics.median(p[name] for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out
