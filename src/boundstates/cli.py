"""Command-line front end.

Four subcommands: ``solve`` (eigenvalue report), ``scan`` (characteristic
function tables), ``saturate`` (endpoint-ratio profiles at fixed energy) and
``oracle`` (cross-checks against the finite-difference and shooting routes).
All tabular output is CSV with a ``#`` comment preamble recording the
resolved configuration, every numeric cell printed with 17 significant
digits, so identical configs give byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 solver failure, 3 I/O error.
"""

import argparse
import math
import sys
import warnings

import numpy as np

from . import potentials
from .core import Evaluation, PotentialSpec, Problem, SolverError, make_grid
from .cfm import (box_characteristic_analytic, cfm_value, endpoint_ratio,
                  saturation_profile)
# canonical_pair is not called here, but bench/tracer.py counts pairs by
# rebinding it in this module, so the name stays
from .integrate import canonical_endpoints, canonical_pair, sample_potential
from .oracle import (convergence_orders, fd_box_recurrence_eigenvalues,
                     shooting_reference)
from .roots import METHODS, _default_probes, find_eigenvalues
from .wm import wm_value, wm_value_symmetric

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

POTENTIALS = ("box", "poschl-teller", "anharmonic", "radial", "inline")

# math names allowed inside --expr strings
_EXPR_NAMES = {name: getattr(math, name) for name in (
    "exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "asin", "acos", "atan", "fabs", "pi", "e")}
_EXPR_NAMES["abs"] = abs
_EXPR_NAMES["min"] = min
_EXPR_NAMES["max"] = max


def _fmt(value):
    return "%.17g" % value


def _fail(code, message):
    sys.stderr.write(message.rstrip() + "\n")
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for solver
    # failures and 1 for config problems
    def error(self, message):
        self.print_usage(sys.stderr)
        _fail(EXIT_CONFIG, "%s: error: %s" % (self.prog, message))


def _add_common(p):
    p.add_argument("--potential", choices=POTENTIALS)
    p.add_argument("--v0", type=float, help="well depth (poschl-teller)")
    p.add_argument("--v2", type=float, help="quadratic coefficient (anharmonic)")
    p.add_argument("--v4", type=float, help="quartic coefficient (anharmonic)")
    p.add_argument("--l", type=int, help="angular momentum (radial)")
    p.add_argument("--x0", type=float, help="matching point (box)")
    p.add_argument("--h", type=float, help="grid step")
    p.add_argument("--nl", type=int, help="steps left of the origin")
    p.add_argument("--nr", type=int, help="steps right of the origin")
    p.add_argument("--range", dest="energy_range", metavar="LO:HI")
    p.add_argument("--probes", type=_positive_int,
                   help="probe count: scan prints N rows, solve and oracle probe N cells")
    p.add_argument("--tol", type=_positive_float, help="energy tolerance / band width")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--expr", help="potential expression in x (inline) or r (radial)")
    p.add_argument("--parity", action="store_true", default=None,
                   help="declare the inline potential symmetric about 0")
    p.add_argument("--energy", type=float, help="fixed energy (saturate)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--config", help="key = value file; flags take precedence")


def build_parser():
    parser = _Parser(prog="boundstates",
                     description="Bound states by Wronskian and canonical-function methods.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, helptext in (
            ("solve", "find eigenvalues and report them"),
            ("scan", "tabulate characteristic functions over an energy range"),
            ("saturate", "tabulate endpoint ratios against x at fixed energy"),
            ("oracle", "compare the engines against independent references")):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "solve":
            p.add_argument("--dump", help="also write eigenfunctions to this CSV")
    return parser


# --- configuration -----------------------------------------------------

def _positive_int(text):
    # the --probes type; config files convert through it too
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return int(text)


def _positive_float(text):
    # the --tol type; config files convert through it too
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("expected a positive finite number, got %r" % text)
    return value


def _one_of(choices):
    # a config file's potential or method, held to the flag's choices
    def conv(text):
        if text not in choices:
            raise ValueError(text)
        return text
    return conv


_FILE_KEYS = {
    "potential": _one_of(POTENTIALS), "method": _one_of(METHODS), "expr": str,
    "out": str, "dump": str, "range": str, "v0": float, "v2": float,
    "v4": float, "x0": float, "h": float, "tol": _positive_float, "energy": float,
    "l": int, "nl": int, "nr": int, "probes": _positive_int, "parity": None,
}


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def read_config_file(path):
    """Parse a flat ``key = value`` file into typed option values."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        _fail(EXIT_IO, "cannot read config %s: %s" % (path, exc))
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(EXIT_CONFIG, "%s:%d: expected 'key = value'" % (path, lineno))
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _FILE_KEYS:
            _fail(EXIT_CONFIG, "%s:%d: unknown key %r" % (path, lineno, key))
        conv = _FILE_KEYS[key]
        try:
            values[key] = _parse_bool(text) if conv is None else conv(text)
        except (ValueError, argparse.ArgumentTypeError):
            _fail(EXIT_CONFIG, "%s:%d: bad value for %s: %r" % (path, lineno, key, text))
    return values


def _merge_config(args):
    # precedence: command line > config file > built-in defaults
    if args.config:
        for key, value in read_config_file(args.config).items():
            dest = "energy_range" if key == "range" else key
            if getattr(args, dest, None) is None:
                setattr(args, dest, value)
    return args


def _parse_range(text):
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ValueError("expected LO:HI, got %r" % text)
    lo = float(lo_text)
    hi = float(hi_text)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError("bad energy range %r" % text)
    return lo, hi


def compile_expr(expr, var):
    """Compile a restricted arithmetic expression of one variable."""
    code = compile(expr, "<expr>", "eval")
    for name in code.co_names:
        if name != var and name not in _EXPR_NAMES:
            raise ValueError("unknown name %r in --expr" % name)

    # the name table is built once; each call gets its own locals, so an
    # assignment inside the expression cannot leak into the next call
    names = dict(_EXPR_NAMES, __builtins__={})

    def fn(value):
        return float(eval(code, names, {var: value}))

    fn(1.0)  # smoke the expression once so errors surface as config errors
    return fn


# --- problem construction ----------------------------------------------

def _resolved_h(args, default):
    h = args.h if args.h is not None else default
    if h <= 0 or not math.isfinite(h):
        raise ValueError("step h must be positive and finite")
    return h


def build_problem(args, command):
    """Turn resolved options into a Problem. Raises ValueError on bad config."""
    pot = args.potential
    if pot is None:
        raise ValueError("--potential is required")
    rng = _parse_range(args.energy_range) if args.energy_range else None

    if pot == "box":
        # the oracle route sweeps the N = 1/h recurrence, so keep its
        # default grid at the reference size instead of the solver default
        h = _resolved_h(args, 0.01 if command == "oracle" else 0.001)
        x0 = args.x0 if args.x0 is not None else 0.5
        emax = rng[1] if rng else 125.0
        return potentials.infinite_well(x0=x0, h=h, energy_max=emax)

    if pot == "poschl-teller":
        if args.v0 is None:
            raise ValueError("poschl-teller needs --v0")
        # solve/scan/oracle default to converged settings (the shallowest
        # level's boundary error must sit below the method-agreement scale);
        # saturate keeps the shorter window the profile is about
        h = _resolved_h(args, 0.01 if command == "saturate" else 0.001)
        default_xr = 5.0 if command == "saturate" else 12.0
        x_right = args.nr * h if args.nr is not None else default_xr
        return potentials.poschl_teller(args.v0, h=h, x_right=x_right,
                                        energy_range=rng)

    if pot == "anharmonic":
        if args.v2 is None or args.v4 is None:
            raise ValueError("anharmonic needs --v2 and --v4")
        h = _resolved_h(args, 0.01)
        x_right = args.nr * h if args.nr is not None else None
        emax = rng[1] if rng else None
        return potentials.anharmonic(args.v2, args.v4, h=h, energy_max=emax,
                                     x_right=x_right)

    if pot == "radial":
        if not args.expr:
            raise ValueError("radial needs --expr for the inner potential")
        inner = compile_expr(args.expr, "r")
        h = _resolved_h(args, 0.01)
        r_max = args.nr * h if args.nr is not None else 10.0
        return potentials.radial(inner, l=args.l or 0, h=h, r_max=r_max,
                                 energy_range=rng or (-10.0, 0.0))

    # inline full-line potential with exponential tails
    if not args.expr:
        raise ValueError("inline needs --expr")
    v = compile_expr(args.expr, "x")
    h = _resolved_h(args, 0.01)
    symmetric = bool(args.parity)
    nr = args.nr if args.nr is not None else 500
    nl = args.nl if args.nl is not None else (0 if symmetric else nr)
    grid = make_grid(0.0, h, nl, nr)
    spec = PotentialSpec(evaluate=v, parity_invariant=symmetric)
    if rng is None:
        vmin = min(v(x) for x in grid.points())
        rng = (min(vmin, -1.0), 0.0)
    model = potentials.decay_model(grid.x_left, grid.x_right)
    return Problem(potential=spec, grid=grid, asymptotics=model, energy_range=rng)


def _solve_window(args, command):
    """Build the problem and solve the requested window.

    Returns (problem, method, rng, results, exact): rng is the --range
    window or None, and exact the closed-form levels in the solved window
    when the problem has them. Refinement warnings print and do not stop.
    """
    problem = build_problem(args, command)
    method = args.method or ("dirichlet" if args.potential == "box" else "wm")
    rng = _parse_range(args.energy_range) if args.energy_range else None
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        results = find_eigenvalues(problem, method=method, energy_range=rng,
                                   n_probe=args.probes,
                                   tol_e=1e-10 if args.tol is None else args.tol)
    exact = None
    if problem.exact_spectrum is not None:
        lo, hi = rng or problem.energy_range
        exact = problem.exact_spectrum(lo, hi)
    return problem, method, rng, results, exact


# --- output helpers -----------------------------------------------------

def _preamble(command, args, problem, extra=()):
    lines = ["# boundstates %s" % command]
    grid = problem.grid
    pairs = [("potential", args.potential)]
    for key in ("v0", "v2", "v4", "l", "x0", "expr", "parity"):
        value = getattr(args, key, None)
        if value is not None:
            pairs.append((key, value))
    pairs += [("h", _fmt(grid.h)), ("nl", grid.n_left), ("nr", grid.n_right),
              ("x_left", _fmt(grid.x_left)), ("x_right", _fmt(grid.x_right))]
    pairs += list(extra)
    for key, value in pairs:
        lines.append("# %s = %s" % (key, value))
    return lines


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, "cannot write %s: %s" % (path, exc))


def _cells(values):
    # flagged cells are left empty; the flag column names them col:flag
    row = []
    notes = []
    for name, ev in values:
        if ev.flag is None and math.isfinite(ev.value):
            row.append(_fmt(ev.value))
        else:
            row.append("")
            notes.append("%s:%s" % (name, ev.flag or "nan"))
    row.append(";".join(notes))
    return ",".join(row)


# --- subcommands ---------------------------------------------------------

def cmd_solve(args):
    problem, method, rng, results, exact = _solve_window(args, "solve")
    extra = [("method", method)]
    if rng:
        extra.append(("range", "%s:%s" % (_fmt(rng[0]), _fmt(rng[1]))))
    lines = _preamble("solve", args, problem, extra)
    lines.append("index,parity,energy,residual,nodes,exact_error")
    for i, res in enumerate(results):
        err = ""
        if exact is not None and i < len(exact):
            err = _fmt(abs(res.energy - exact[i]))
        lines.append("%d,%s,%s,%s,%d,%s" % (
            res.index, res.parity, _fmt(res.energy), _fmt(res.residual),
            res.node_count, err))
    _emit(lines, args.out)

    if args.dump:
        if not results:
            _fail(EXIT_SOLVER, "nothing to dump: no eigenstates found")
        dump = ["# boundstates solve eigenfunctions",
                "x," + ",".join("psi_%d" % r.index for r in results)]
        x = results[0].x
        for j in range(len(x)):
            dump.append(",".join([_fmt(x[j])] + [_fmt(r.psi[j]) for r in results]))
        _emit(dump, args.dump)

    if not results:
        _fail(EXIT_SOLVER, "no bound states found in the requested range")
    return EXIT_OK


def cmd_scan(args):
    problem = build_problem(args, "scan")
    lo, hi = (_parse_range(args.energy_range) if args.energy_range
              else problem.energy_range)
    n = args.probes if args.probes is not None else _default_probes(lo, hi)

    symmetric = problem.symmetric
    is_box = args.potential == "box"
    if symmetric:
        header = "epsilon,F_wm_even,F_wm_odd,F_cfm,ratio_c_over_s,ratio_s_over_c,flags"
    elif is_box:
        header = "epsilon,F_wm,F_cfm,F_box_analytic,flags"
    else:
        header = "epsilon,F_wm,F_cfm,flags"

    lines = _preamble("scan", args, problem,
                      [("range", "%s:%s" % (_fmt(lo), _fmt(hi))), ("probes", n)])
    lines.append(header)
    if hi > lo:
        # one batched march gives the endpoint data every column of a row reads
        pot, grid = problem.potential, problem.grid
        for ends in canonical_endpoints(pot, np.linspace(lo, hi, n), grid,
                                        sample_potential(pot, grid)):
            e = ends.energy
            if symmetric:
                values = [("F_wm_even", wm_value_symmetric(problem, ends, "even")),
                          ("F_wm_odd", wm_value_symmetric(problem, ends, "odd")),
                          ("F_cfm", cfm_value(problem, ends))]
                _, c, _, s, _ = ends.right
                values += [("ratio_c_over_s", endpoint_ratio(c, s)),
                           ("ratio_s_over_c", endpoint_ratio(s, c))]
            else:
                values = [("F_wm", wm_value(problem, ends)),
                          ("F_cfm", cfm_value(problem, ends))]
                if is_box:
                    values.append(("F_box_analytic", _box_analytic(e, grid.x0)))
            lines.append(_fmt(e) + "," + _cells(values))
    _emit(lines, args.out)
    return EXIT_OK


def _box_analytic(energy, x0):
    try:
        return box_characteristic_analytic(energy, x0)
    except ValueError:
        return Evaluation(math.nan, "domain")


def cmd_saturate(args):
    problem = build_problem(args, "saturate")
    if args.energy is None:
        raise ValueError("saturate needs --energy")
    energy = args.energy
    if problem.asymptotics.requires_negative_energy and energy >= 0:
        raise ValueError("saturate needs a negative --energy for decaying tails")
    tol = 1e-6 if args.tol is None else args.tol

    profile = saturation_profile(problem, energy, tol=tol)
    lines = _preamble("saturate", args, problem,
                      [("energy", _fmt(energy)), ("tol", _fmt(tol))])
    lines.append("x,C,S,W_Rc_C,W_Rc_S,ratio_cfm,ratio_wm")
    columns = zip(profile.x, profile.c, profile.s, profile.w_rc_c, profile.w_rc_s)
    for values, ratios in zip(columns, zip(profile.cfm_ratio, profile.wm_ratio)):
        # flagged ratios are NaN and print as empty cells
        cells = [_fmt(v) for v in values]
        cells += [_fmt(r) if math.isfinite(r) else "" for r in ratios]
        lines.append(",".join(cells))
    lines += ["# limit_ratio_wm = %s" % _fmt(profile.limit_wm),
              "# limit_ratio_cfm = %s" % _fmt(profile.limit_cfm),
              "# saturation_x_wm = %s" % _fmt(profile.saturation_x_wm),
              "# saturation_x_cfm = %s" % _fmt(profile.saturation_x_cfm),
              "# tolerance = %s" % _fmt(tol)]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_oracle(args):
    is_box = args.potential == "box"
    problem, method, rng, engine, exact = _solve_window(args, "oracle")
    energies = [r.energy for r in engine]

    if is_box:
        # the finite-difference recurrence is the independent route here
        h = problem.grid.h
        N = int(round(1.0 / h))
        n_max = min(len(energies), N // 2 - 1)
        reference = fd_box_recurrence_eigenvalues(N, n_max) if n_max >= 1 else []
    else:
        reference = shooting_reference(problem, energy_range=rng,
                                       n_probe=args.probes)

    extra = [("method", method),
             ("reference", "fd-recurrence" if is_box else "shooting")]
    lines = _preamble("oracle", args, problem, extra)
    lines.append("index,engine,reference,delta,exact,exact_delta")
    rows = max(len(energies), len(reference))
    for i in range(rows):
        eng = _fmt(energies[i]) if i < len(energies) else ""
        ref = _fmt(reference[i]) if i < len(reference) else ""
        delta = (_fmt(abs(energies[i] - reference[i]))
                 if i < len(energies) and i < len(reference) else "")
        ex = err = ""
        if exact is not None and i < len(exact):
            ex = _fmt(exact[i])
            if i < len(energies):
                err = _fmt(abs(energies[i] - exact[i]))
        lines.append("%d,%s,%s,%s,%s,%s" % (i, eng, ref, delta, ex, err))
    if is_box:
        orders = convergence_orders()
        lines.append("# fd_order = %s" % _fmt(orders["fd"]))
        lines.append("# rk4_order = %s" % _fmt(orders["rk4"]))
    _emit(lines, args.out)

    if not energies or len(energies) != len(reference):
        _fail(EXIT_SOLVER, "engine found %d levels, reference found %d"
              % (len(energies), len(reference)))
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "scan": cmd_scan,
             "saturate": cmd_saturate, "oracle": cmd_oracle}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--range -10:0" and "--expr -2*exp(-x*x)" confuse argparse (the value
    # looks like a flag but not like a plain negative number); fold such
    # pairs into --option=value form
    folded = []
    i = 0
    while i < len(argv):
        if (argv[i] in ("--range", "--expr") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            folded.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            folded.append(argv[i])
            i += 1
    parser = build_parser()
    args = parser.parse_args(folded)
    if args.command is None:
        parser.print_usage(sys.stderr)
        _fail(EXIT_CONFIG, "boundstates: error: a command is required")
    _merge_config(args)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        _fail(EXIT_CONFIG, "boundstates %s: %s" % (args.command, exc))
    except SolverError as exc:
        _fail(EXIT_SOLVER, "boundstates %s: %s" % (args.command, exc))


if __name__ == "__main__":
    sys.exit(main())
