"""Command-line front end.

Subcommands: ``state`` dumps coefficients, ``quadratures`` and
``number-squeezing`` run parameter sweeps, ``wigner`` evaluates a
phase-space grid, ``verify`` runs the cross-module check suite.

Exit codes: 0 success, 2 usage error (including an output path that
cannot be written), 3 domain failure (no convergence, annihilated state,
oracle window too small, not enough memory), 4 verification failure.  All outputs
are deterministic for fixed flags.  Every file is written by
:mod:`gpssvs.writers`, the same functions the library exports, so a CLI
file and a library file of the same result are byte-identical.
"""

import argparse
import math
import sys

import numpy as np

from .deform import Nonlinearity
from .errors import GpssvsError
from . import observables as obs
from . import states as st
from . import verify as vf
from . import wigner as wg
from . import writers

SWEEP_AXES = ("r", "theta", "m")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_nl_flags(p: argparse.ArgumentParser):
    p.add_argument("--f", choices=("harmonic", "poschl-teller", "custom"),
                   default="harmonic", help="deformation function family")
    p.add_argument("--pt-lambda", type=_finite_float, default=1.5,
                   help="Poschl-Teller lambda (>= 1/2)")
    p.add_argument("--pt-kappa", type=_finite_float, default=1.5,
                   help="Poschl-Teller kappa (>= 1/2)")
    p.add_argument("--custom-file", default=None,
                   help="text file with one positive f(n) value per line, n = 1, 2, ...")


def _add_state_flags(p: argparse.ArgumentParser):
    p.add_argument("--r", type=_finite_float, default=0.0, help="squeezing magnitude")
    p.add_argument("--theta", type=_finite_float, default=0.0,
                   help="squeezing phase, radians")
    p.add_argument("--m", type=int, default=0, help="pair-subtraction index")
    p.add_argument("--parity", choices=(st.EVEN, st.ODD), default=st.EVEN)


def _add_numeric_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=_finite_float, default=1e-12, help="relative tail tolerance")
    p.add_argument("--nmax", type=int, default=st.DEFAULT_N_MAX,
                   help="cap on retained series terms")
    p.add_argument("--oracle-dim", type=int, default=vf.DEFAULT_ORACLE_DIM,
                   help="Fock dimension of the dense verification oracle")


def _add_out_flags(p: argparse.ArgumentParser, kind: str):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=writers.FORMATS[kind], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpssvs",
        description="Generalized photon-subtracted squeezed vacuum states: "
                    "construction and nonclassicality diagnostics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_state = sub.add_parser("state", help="dump the Fock coefficients of one state")
    for add in (_add_nl_flags, _add_state_flags, _add_numeric_flags):
        add(p_state)
    _add_out_flags(p_state, "state")

    for name, default_q in (("quadratures", "var_x,var_p,robertson_rhs"),
                            ("number-squeezing", "n_squeeze,mandel_q")):
        p_cmd = sub.add_parser(name, help=f"sweep {default_q.split(',')[0]} and friends")
        for add in (_add_nl_flags, _add_state_flags, _add_numeric_flags):
            add(p_cmd)
        p_cmd.add_argument("--sweep", action="append", default=[],
                           metavar="axis=start:stop:count",
                           help="sweep an axis (r, theta or m); repeatable")
        p_cmd.add_argument("--quantities", default=default_q,
                           help="comma list from " + ",".join(obs.SWEEP_QUANTITIES))
        _add_out_flags(p_cmd, "sweep")

    p_wig = sub.add_parser("wigner", help="evaluate the Wigner function on a grid")
    for add in (_add_nl_flags, _add_state_flags, _add_numeric_flags):
        add(p_wig)
    p_wig.add_argument("--grid", default="-3:3:121",
                       metavar="xmin:xmax:n[,pmin:pmax:n]",
                       help="grid extent and node count (p axis defaults to x axis)")
    p_wig.add_argument("--out", required=True, help="output path")
    p_wig.add_argument("--format", choices=writers.FORMATS["wigner"], default="csv")

    p_ver = sub.add_parser("verify", help="run the cross-module verification suite")
    _add_numeric_flags(p_ver)
    p_ver.add_argument("--out", default=None, help="report path (default: stdout)")
    return parser


def _parse_sweep(parser, entries) -> dict:
    axes = {}
    for entry in entries:
        try:
            axis, rng = entry.split("=", 1)
            start, stop, count = rng.split(":")
            start, stop, count = _finite_float(start), _finite_float(stop), int(count)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"malformed --sweep {entry!r}; expected axis=start:stop:count "
                         "with finite start and stop")
        if axis not in SWEEP_AXES:
            parser.error(f"unknown sweep axis {axis!r}; pick from {SWEEP_AXES}")
        if count < 1:
            parser.error("sweep count must be at least 1")
        if axis in axes:
            parser.error(f"axis {axis!r} swept twice")
        values = np.linspace(start, stop, count)
        if axis == "m":
            rounded = np.rint(values)
            if np.max(np.abs(values - rounded)) > 1e-9:
                parser.error("m sweep must hit integers")
            values = rounded.astype(int)
        axes[axis] = values
    return axes


def _parse_grid(parser, text) -> tuple:
    def triple(part):
        try:
            lo, hi, n = part.split(":")
            lo, hi, n = _finite_float(lo), _finite_float(hi), int(n)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"malformed --grid component {part!r}; expected "
                         "min:max:count with finite min and max")
        if n < 2:
            parser.error("grid needs at least 2 nodes per axis")
        return lo, hi, n

    parts = text.split(",")
    if len(parts) == 1:
        x = triple(parts[0])
        return x, x
    if len(parts) == 2:
        return triple(parts[0]), triple(parts[1])
    parser.error(f"malformed --grid {text!r}")


def _parse_quantities(parser, text) -> tuple:
    quantities = tuple(q.strip() for q in text.split(",") if q.strip())
    for q in quantities:
        if q not in obs.SWEEP_QUANTITIES:
            parser.error(f"unknown quantity {q!r}")
    if not quantities:
        parser.error("--quantities must name at least one quantity")
    return quantities


def _nonlinearity(parser, args) -> Nonlinearity:
    if args.f == "harmonic":
        return Nonlinearity.harmonic()
    if args.f == "poschl-teller":
        try:
            return Nonlinearity.poschl_teller(args.pt_lambda, args.pt_kappa)
        except ValueError as exc:
            parser.error(str(exc))
    if args.custom_file is None:
        parser.error("--f custom requires --custom-file")
    try:
        with open(args.custom_file) as fh:
            values = [float(line.strip()) for line in fh
                      if line.strip() and not line.lstrip().startswith("#")]
        return Nonlinearity.custom(values)
    except OSError as exc:
        parser.error(f"cannot read {args.custom_file}: {exc}")
    except ValueError as exc:
        parser.error(f"bad custom table: {exc}")


def _state(args, nl: Nonlinearity) -> st.FockExpansion:
    spec = st.SqueezeSpec(args.r, args.theta, args.m, args.parity)
    return st.pssvs(nl, spec, tol=args.tol, n_max=args.nmax)


def _run_state(args, nl: Nonlinearity) -> int:
    writers.write_state(_state(args, nl), args.out, args.format)
    return 0


def _run_sweep(args, nl: Nonlinearity) -> int:
    r_values = args.sweep.get("r", np.array([args.r]))
    theta_values = args.sweep.get("theta", np.array([args.theta]))
    m_values = args.sweep.get("m", np.array([args.m], dtype=int))
    rows = obs.sweep(nl, r_values, theta_values, m_values, args.parity,
                     args.quantities, tol=args.tol, n_max=args.nmax)
    writers.write_sweep(rows, args.out, args.format)
    return 0


def _run_wigner(args, nl: Nonlinearity) -> int:
    (xmin, xmax, nx), (pmin, pmax, np_) = args.grid
    grid = wg.wigner_grid(_state(args, nl), (xmin, xmax), (pmin, pmax), (nx, np_))
    writers.write_wigner(grid, args.out, args.format)
    return 0


def _run_verify(args) -> int:
    report = vf.run_suite(oracle_dim=args.oracle_dim, tol=args.tol, n_max=args.nmax)
    writers.write_report(report, args.out)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"verification failed: {', '.join(sorted(set(failed)))}", file=sys.stderr)
        return 4
    return 0


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Dispatch parsed arguments; returns the process exit code."""
    try:
        if args.subcommand == "verify":
            return _run_verify(args)
        nl = _nonlinearity(parser, args)
        if args.subcommand == "state":
            return _run_state(args, nl)
        if args.subcommand in ("quadratures", "number-squeezing"):
            return _run_sweep(args, nl)
        if args.subcommand == "wigner":
            return _run_wigner(args, nl)
        parser.error(f"unknown subcommand {args.subcommand!r}")
    except GpssvsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _merge_dash_values(argv, flags=("--grid",)):
    # Grid extents are often negative ("--grid -3:3:121"); argparse would
    # read the value as an option, so fold it into "--grid=-3:3:121".
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok in flags and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and ":" in argv[i + 1]):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dash_values(list(argv)))
    if hasattr(args, "sweep"):
        args.sweep = _parse_sweep(parser, args.sweep)
    if hasattr(args, "quantities"):
        args.quantities = _parse_quantities(parser, args.quantities)
    if hasattr(args, "grid"):
        args.grid = _parse_grid(parser, args.grid)
    return run(args, parser)
