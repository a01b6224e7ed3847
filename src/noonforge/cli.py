"""Command-line front end.

    noonforge unitarize --matrix M.json --out U.json
    noonforge evolve    --matrix M.json --input 0,0,1,1 [--json]
    noonforge noon      --matrix M.json --input 1,1,1,1 [--select KETS] [--json]
    noonforge sweep     --matrix M.json --photons 4 [--json]
    noonforge reproduce [--matrix M.json] [--tol R] [--json]

Scattering files are projected to the nearest unitary before any evolution.
``--tol`` scales every reproduction tolerance band; it must be finite,
>= 0 and small enough that every band stays finite. Exit codes: 0 success,
1 reproduction-claim failure, 2 input error, 3 numeric failure. The
NOONFORGE_CAP environment variable overrides the basis-size cap.

Each subcommand's parser names its handler. ``main(argv)`` parses, opens the
``--matrix`` file once and passes the namespace and that file to the handler,
which computes and returns a Printout. ``main`` prints its ``--json`` payload
or its text, the one print of a command, and returns the exit code. ``main``
may be called any number of times in one process. It builds its argument
parser on the first call and reuses it after that.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import serialize
from .errors import InputError, NumericError
from .evolve import evolve_state, require_permanent_size
from .fock import QuantumState, format_occupations, parse_occupations, parse_spec, state_from_kets
from .noon import noon_report, post_select, sweep_inputs
from .reference import operator_from_file, reproduction_claims
from .unitary import MatrixFile, load_matrix, save_matrix, unitarity_defect, unitarize


class Printout(NamedTuple):
    """A command's --json payload and text, each built on demand, and whether its checks passed."""

    payload: Callable[[], object]
    text: Callable[[], str]
    passed: bool = True


def _input_state(spec: str) -> QuantumState:
    """The state `spec` names, refused before its basis is built when its
    photon number needs a permanent above the cap."""
    kets = parse_spec(spec)
    require_permanent_size(sum(next(iter(kets))))
    return state_from_kets(kets)[1]


def cmd_unitarize(args: argparse.Namespace, mf: MatrixFile) -> Printout:
    m = mf.to_array()
    before = unitarity_defect(m)
    u = unitarize(m)
    after = unitarity_defect(u)
    deviation = float(np.max(np.abs(u - m)))
    save_matrix(args.out, MatrixFile.from_array(u, f"{mf.label} (unitarized)", mf.meta))
    payload = {
        "label": mf.label,
        "defect_before": serialize.sci(before),
        "defect_after": serialize.sci(after),
        "max_entry_deviation": serialize.sci(deviation),
        "out": args.out,
    }
    text = (f"matrix: {mf.label} (dim {mf.dim})\n"
            f"unitarity defect before: {before:.6e}\n"
            f"unitarity defect after : {after:.6e}\n"
            f"max per-entry deviation: {deviation:.6e}\n"
            f"wrote {args.out}\n")
    return Printout(lambda: payload, lambda: text)


def cmd_evolve(args: argparse.Namespace, mf: MatrixFile) -> Printout:
    state = _input_state(args.input)
    table = evolve_state(operator_from_file(mf), state)
    text_head = (f"matrix: {mf.label}   input: {args.input.strip()}   "
                 f"({table.basis.modes} modes, {table.basis.photons} photons)\n")
    return Printout(table.to_payload, lambda: text_head + table.to_text())


def cmd_noon(args: argparse.Namespace, mf: MatrixFile) -> Printout:
    state = _input_state(args.input)
    u = operator_from_file(mf)
    input_spec = args.input.strip()
    payload_head = {"input": input_spec}
    if args.select is None:
        result = noon_report(u, state)
    else:
        kept = list(dict.fromkeys(
            parse_occupations(part) for part in args.select.split(";") if part.strip()))
        result = post_select(evolve_state(u, state), kept)
        payload_head["selection"] = [format_occupations(occ) for occ in kept]
    text_head = f"matrix: {mf.label}   input: {input_spec}\n"
    return Printout(lambda: {**payload_head, **result.to_payload()},
                    lambda: text_head + result.to_text())


def cmd_sweep(args: argparse.Namespace, mf: MatrixFile) -> Printout:
    rows = sweep_inputs(operator_from_file(mf), args.photons)
    columns = list(zip([format_occupations(occ) for occ, _ in rows],
                       serialize.fixed_column([r.success_probability for _, r in rows], 4),
                       serialize.fixed_column([r.fidelity for _, r in rows], 4)))
    payload = {
        "photons": args.photons,
        "modes": mf.dim,
        "rows": [{"input": i, "success_probability": s, "fidelity": f} for i, s, f in columns],
    }
    text_head = (f"matrix: {mf.label}   {args.photons} photons over {mf.dim} modes   "
                 f"({len(rows)} inputs)\n{'input':<16} {'success':>8} {'fidelity':>9}\n")
    return Printout(lambda: payload, lambda: text_head + "".join(
        f"{i:<16} {s:>8} {f:>9}\n" for i, s, f in columns))


def cmd_reproduce(args: argparse.Namespace, override: MatrixFile | None) -> Printout:
    claims = reproduction_claims(override, tol_scale=args.tol)
    passed = sum(c.passed for c in claims)
    payload = {"passed": passed == len(claims), "claims": [asdict(c) for c in claims]}
    lines = [f"reproduction of the bundled splitter results (tolerance scale {args.tol:g})\n"]
    lines += [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.computed} "
              f"(expected {c.expected})\n" for c in claims]
    lines.append(f"{passed}/{len(claims)} claims passed\n")
    return Printout(lambda: payload, lambda: "".join(lines), payload["passed"])


def _tolerance_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` uses, built on its first call.

    Sharing it is safe: parse_args builds a new Namespace on every call and
    leaves the parser unchanged, and help and usage text is formatted when
    it is printed. Callers outside `main` must not get it, since a change
    they made would reach every later call.
    """
    parser = argparse.ArgumentParser(
        prog="noonforge",
        description="Fock-state interference through four-port splitter matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unitarize", help="project a scattering file onto the "
                       "nearest unitary and write it out")
    p.add_argument("--matrix", required=True, help="input matrix file")
    p.add_argument("--out", required=True, help="output matrix file")
    p.set_defaults(run=cmd_unitarize)

    p = sub.add_parser("evolve", help="evolve a Fock state and print the "
                       "output superposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True, help='ket spec, e.g. "0,0,1,1"')
    p.set_defaults(run=cmd_evolve)

    p = sub.add_parser("noon", help="extract the bunched components "
                       "(or an arbitrary post-selection with --select)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--select", help='semicolon-separated kets, e.g. "1,1,0,0;0,0,1,1"')
    p.set_defaults(run=cmd_noon)

    p = sub.add_parser("sweep", help="rank every n-photon input by NOON "
                       "success probability")
    p.add_argument("--matrix", required=True)
    p.add_argument("--photons", required=True, type=int)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("reproduce", help="check every golden claim for the "
                       "bundled splitters")
    p.add_argument("--matrix", help="substitute this file for the bundled "
                   "subspace-II splitter")
    p.add_argument("--tol", type=_tolerance_scale, default=1.0,
                   help="scale factor applied to every tolerance band "
                   "(finite, >= 0)")
    p.set_defaults(run=cmd_reproduce)

    # every command takes --json, which its help lists after its own options
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        matrix_file = None if args.matrix is None else load_matrix(args.matrix)
        printout = args.run(args, matrix_file)
        print(serialize.dumps(printout.payload()) if args.json else printout.text(), end="")
        return 0 if printout.passed else 1
    except InputError as exc:
        print(f"noonforge: input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"noonforge: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
