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
from .core import PotentialSpec, Problem, SolverError, is_symmetric, make_grid, on_array
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

# names allowed inside --expr strings, bound to numpy's functions so that an
# expression takes an array of x; min and max take floats alone
_EXPR_NAMES = {name: getattr(np, name) for name in (
    "exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh", "fabs", "pi", "e")}
_EXPR_NAMES.update(asin=np.arcsin, acos=np.arccos, atan=np.arctan, abs=abs, min=min, max=max)


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


def build_parser():
    # the flags every subcommand shares are declared once, on a parent whose
    # actions each subparser copies: copying builds no help formatter
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--potential", choices=POTENTIALS)
    common.add_argument("--v0", type=float, help="well depth (poschl-teller)")
    common.add_argument("--v2", type=float, help="quadratic coefficient (anharmonic)")
    common.add_argument("--v4", type=float, help="quartic coefficient (anharmonic)")
    common.add_argument("--l", type=int, help="angular momentum (radial)")
    common.add_argument("--x0", type=float, help="matching point (box)")
    common.add_argument("--h", type=float, help="grid step")
    common.add_argument("--nl", type=int, help="steps left of the origin")
    common.add_argument("--nr", type=int, help="steps right of the origin")
    common.add_argument("--range", dest="energy_range", metavar="LO:HI", type=_parse_range)
    common.add_argument("--probes", type=_positive_int,
                        help="probe count: scan prints N rows, solve and oracle probe N cells")
    common.add_argument("--tol", type=_positive_float, help="energy tolerance / band width")
    common.add_argument("--method", choices=METHODS)
    common.add_argument("--expr", help="potential expression in x (inline) or r (radial)")
    common.add_argument("--parity", action="store_true", default=None,
                        help="declare the inline potential symmetric about 0")
    common.add_argument("--energy", type=float, help="fixed energy (saturate)")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--config", help="key = value file; flags take precedence")

    parser = _Parser(prog="boundstates",
                     description="Bound states by Wronskian and canonical-function methods.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, helptext in (
            ("solve", "find eigenvalues and report them"),
            ("scan", "tabulate characteristic functions over an energy range"),
            ("saturate", "tabulate endpoint ratios against x at fixed energy"),
            ("oracle", "compare the engines against independent references")):
        p = sub.add_parser(name, help=helptext, parents=[common])
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


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def read_config_file(path, parser):
    """Parse a flat ``key = value`` file; a key is a long flag of parser without ``--``."""
    actions = {s[2:]: a for s, a in parser._option_string_actions.items()
               if s.startswith("--") and s not in ("--help", "--config")}
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
        if key not in actions:
            _fail(EXIT_CONFIG, "%s:%d: unknown key %r" % (path, lineno, key))
        action = actions[key]
        try:
            if action.nargs == 0:
                value = _parse_bool(text)
            else:
                value = (action.type or str)(text)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(text)
        except (ValueError, argparse.ArgumentTypeError):
            _fail(EXIT_CONFIG, "%s:%d: bad value for %s: %r" % (path, lineno, key, text))
        values[action.dest] = value
    return values


def _parse_range(text):
    # the --range type, for config files too; an empty range leaves the window unset
    if not text:
        return None
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected LO:HI, got %r" % text)
    try:
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise argparse.ArgumentTypeError("bad energy range %r" % text)
    return lo, hi


def compile_expr(expr, var):
    """Compile a restricted arithmetic expression of one variable.

    The function takes a float or an array of them (core.on_array maps one
    that uses min or max per point).
    """
    code = compile(expr, "<expr>", "eval")
    for name in code.co_names:
        if name != var and name not in _EXPR_NAMES:
            raise ValueError("unknown name %r in --expr" % name)

    # the name table is built once; each call gets its own locals, so an
    # assignment inside the expression cannot leak into the next call
    names = dict(_EXPR_NAMES, __builtins__={})

    def fn(value):
        return eval(code, names, {var: value})

    with np.errstate(all="ignore"):
        float(fn(1.0))  # smoke the expression once so errors surface as config errors
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
    # a --range that holds no level, empty (lo = hi) or topped at or below a
    # box's or a well's floor, is scanned as given, and the Problem, whose
    # window must be ordered, keeps its factory default
    rng = args.energy_range
    if rng and rng[0] == rng[1]:
        rng = None

    if pot == "box":
        # the oracle route sweeps the N = 1/h recurrence, so keep its
        # default grid at the reference size instead of the solver default
        h = _resolved_h(args, 0.01 if command == "oracle" else 0.001)
        x0 = args.x0 if args.x0 is not None else 0.5
        return potentials.infinite_well(x0=x0, h=h)

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
        emax = rng[1] if rng and rng[1] > potentials.anharmonic_floor(args.v2, args.v4) else None
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
    if symmetric and not is_symmetric(spec, grid):
        raise ValueError(f"--parity needs --nl 0 or --nl equal to --nr ({nr}), got {nl}")
    if rng is None:
        rng = (min(float(on_array(v, grid.points()).min()), -1.0), 0.0)
    return Problem(potential=spec, grid=grid, asymptotics=potentials.decay_model(),
                   energy_range=rng)


def _solve_window(args, command):
    """Build the problem and solve the requested window.

    Returns (problem, method, results, exact), exact being the window's closed-form
    levels or None. Refinement warnings print and do not stop.
    """
    problem = build_problem(args, command)
    method = args.method or ("dirichlet" if args.potential == "box" else "wm")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        results = find_eigenvalues(problem, method=method, energy_range=args.energy_range,
                                   n_probe=args.probes,
                                   tol_e=1e-10 if args.tol is None else args.tol)
    exact = None
    if problem.exact_spectrum is not None:
        lo, hi = args.energy_range or problem.energy_range
        exact = problem.exact_spectrum(lo, hi)
    return problem, method, results, exact


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


def _column(name, ev):
    # a scan column's cells and flag notes, one each per energy: a flagged
    # cell is left empty, and its note, name:flag, goes to the flags column
    cells, notes = [], []
    for value, flag in zip(ev.value.tolist(), ev.flag.tolist()):
        ok = flag is None and math.isfinite(value)
        cells.append(_fmt(value) if ok else "")
        notes.append("" if ok else "%s:%s" % (name, flag or "nan"))
    return cells, notes


# --- subcommands ---------------------------------------------------------

def cmd_solve(args):
    problem, method, results, exact = _solve_window(args, "solve")
    extra = [("method", method)]
    if args.energy_range:
        extra.append(("range", ":".join(map(_fmt, args.energy_range))))
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
        row = ",".join(["%.17g"] * (1 + len(results)))
        dump += [row % tuple(cells) for cells in
                 np.column_stack([results[0].x] + [r.psi for r in results]).tolist()]
        _emit(dump, args.dump)

    if not results:
        _fail(EXIT_SOLVER, "no bound states found in the requested range")
    return EXIT_OK


def cmd_scan(args):
    problem = build_problem(args, "scan")
    lo, hi = args.energy_range or problem.energy_range
    n = args.probes if args.probes is not None else _default_probes(lo, hi)

    # each column looks its value function up when called, on the whole batch:
    # bench/tracer.py rebinds them
    symmetric = problem.symmetric
    if symmetric:
        columns = {"F_wm_even": lambda ends: wm_value_symmetric(problem, ends, "even"),
                   "F_wm_odd": lambda ends: wm_value_symmetric(problem, ends, "odd")}
    else:
        columns = {"F_wm": lambda ends: wm_value(problem, ends)}
    columns["F_cfm"] = lambda ends: cfm_value(problem, ends)
    if symmetric:
        columns["ratio_c_over_s"] = lambda ends: endpoint_ratio(ends.right[1], ends.right[3])
        columns["ratio_s_over_c"] = lambda ends: endpoint_ratio(ends.right[3], ends.right[1])
    elif args.potential == "box":
        columns["F_box_analytic"] = lambda ends: box_characteristic_analytic(
            ends.energy, problem.grid.x0)

    lines = _preamble("scan", args, problem,
                      [("range", "%s:%s" % (_fmt(lo), _fmt(hi))), ("probes", n)])
    lines.append(",".join(["epsilon", *columns, "flags"]))
    if hi > lo:
        # one batched march gives the endpoint data every column reads
        ends = canonical_endpoints(np.linspace(lo, hi, n), problem.grid,
                                   sample_potential(problem.potential, problem.grid))
        cells, notes = zip(*(_column(name, column(ends)) for name, column in columns.items()))
        lines += [",".join((_fmt(energy), *row, ";".join(filter(None, note))))
                  for energy, row, note in zip(ends.energy.tolist(), zip(*cells), zip(*notes))]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_saturate(args):
    problem = build_problem(args, "saturate")
    if args.energy is None:
        raise ValueError("saturate needs --energy")
    energy = args.energy
    if not math.isfinite(energy):
        raise ValueError(f"--energy must be finite, got {energy!r}")
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
    problem, method, engine, exact = _solve_window(args, "oracle")
    energies = [r.energy for r in engine]

    if is_box:
        # the finite-difference recurrence is the independent route here
        h = problem.grid.h
        N = int(round(1.0 / h))
        n_max = min(len(energies), N // 2 - 1)
        reference = fd_box_recurrence_eigenvalues(N, n_max) if n_max >= 1 else []
    else:
        reference = shooting_reference(problem, energy_range=args.energy_range,
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


def _commands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _fold_values(parser, argv):
    # argparse reads a value such as "-1e-1" or "-10:0" as a flag (only "-12"
    # and "-1.5" pass as negative numbers): fold it into --option=value form
    # after any flag that takes a value, unless it names a flag itself
    options = {s: a.nargs for p in _commands(parser).values()
               for s, a in p._option_string_actions.items()}

    def resolve(token):
        # a unique prefix of a long flag names that flag, as argparse reads it
        matches = [s for s in options if s.startswith(token)]
        return matches[0] if token.startswith("--") and len(matches) == 1 else token

    folded = []
    for token in argv:
        if (folded and options.get(resolve(folded[-1]), 0) != 0
                and token.startswith("-") and resolve(token) not in options):
            folded[-1] += "=" + token
        else:
            folded.append(token)
    return folded


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_fold_values(parser, argv))
    if args.command is None:
        parser.print_usage(sys.stderr)
        _fail(EXIT_CONFIG, "boundstates: error: a command is required")
    # precedence: command line > config file > built-in defaults
    if args.config:
        for dest, value in read_config_file(args.config, _commands(parser)[args.command]).items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        _fail(EXIT_CONFIG, "boundstates %s: %s" % (args.command, exc))
    except SolverError as exc:
        _fail(EXIT_SOLVER, "boundstates %s: %s" % (args.command, exc))


if __name__ == "__main__":
    sys.exit(main())
