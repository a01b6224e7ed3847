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
which computes and prints. ``main`` may be called any number of times in one
process. It builds its argument parser on the first call and reuses it after
that.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import serialize
from .errors import InputError, NumericError
from .evolve import evolve_state, require_permanent_size
from .fock import (NEGLIGIBLE_AMPLITUDE, QuantumState, amplitude_rows, format_occupations,
                   parse_occupations, parse_spec, printed_phases, state_from_kets)
from .noon import noon_components, noon_report, post_select, sweep_inputs
from .reference import operator_from_file, reproduction_claims
from .unitary import MatrixFile, load_matrix, save_matrix, unitarity_defect, unitarize


def _print_amplitude_rows(pairs):
    magnitudes = [abs(amp) for _, amp in pairs]
    degrees = printed_phases([amp for _, amp in pairs], magnitudes, 0)
    for (occ, _), mag, deg in zip(pairs, magnitudes, degrees):
        print(f"  {mag:.4f} @ {round(deg):+4d} deg  |{format_occupations(occ)}>")


def _input_state(spec: str) -> QuantumState:
    """The state `spec` names, refused before its basis is built when its
    photon number needs a permanent above the cap."""
    kets = parse_spec(spec)
    require_permanent_size(sum(next(iter(kets))))
    return state_from_kets(kets)[1]


def cmd_unitarize(args: argparse.Namespace, mf: MatrixFile) -> int:
    m = mf.to_array()
    before = unitarity_defect(m)
    u = unitarize(m)
    after = unitarity_defect(u)
    deviation = float(np.max(np.abs(u - m)))
    result = MatrixFile.from_array(u, f"{mf.label} (unitarized)", mf.meta)
    save_matrix(args.out, result)
    if args.json:
        payload = {
            "label": mf.label,
            "defect_before": serialize.sci(before),
            "defect_after": serialize.sci(after),
            "max_entry_deviation": serialize.sci(deviation),
            "out": args.out,
        }
        print(serialize.dumps(payload), end="")
    else:
        print(f"matrix: {mf.label} (dim {mf.dim})")
        print(f"unitarity defect before: {before:.6e}")
        print(f"unitarity defect after : {after:.6e}")
        print(f"max per-entry deviation: {deviation:.6e}")
        print(f"wrote {args.out}")
    return 0


def cmd_evolve(args: argparse.Namespace, mf: MatrixFile) -> int:
    state = _input_state(args.input)
    table = evolve_state(operator_from_file(mf), state)
    if args.json:
        print(serialize.dumps(table.to_payload()), end="")
    else:
        print(f"matrix: {mf.label}   input: {args.input.strip()}   "
              f"({table.basis.modes} modes, {table.basis.photons} photons)")
        print("output components (descending magnitude):")
        _print_amplitude_rows(table.sorted_components())
    return 0


def cmd_noon(args: argparse.Namespace, mf: MatrixFile) -> int:
    state = _input_state(args.input)
    u = operator_from_file(mf)
    input_spec = args.input.strip()

    if args.select is not None:
        kept = list(dict.fromkeys(
            parse_occupations(part) for part in args.select.split(";") if part.strip()))
        selected, probability = post_select(evolve_state(u, state), kept)
        components = selected.terms(NEGLIGIBLE_AMPLITUDE)
        if args.json:
            payload = {
                "input": input_spec,
                "selection": [format_occupations(occ) for occ in kept],
                "probability": serialize.fixed(probability, 4),
                "components": amplitude_rows([format_occupations(occ) for occ, _ in components],
                                             [a for _, a in components]),
            }
            print(serialize.dumps(payload), end="")
        else:
            print(f"matrix: {mf.label}   input: {input_spec}")
            print(f"post-selected probability: {probability:.4f}")
            print("renormalized components:")
            _print_amplitude_rows(components)
        return 0

    report = noon_report(u, state)
    if args.json:
        payload = {"input": input_spec}
        payload.update(report.to_payload())
        print(serialize.dumps(payload), end="")
    else:
        print(f"matrix: {mf.label}   input: {input_spec}")
        print(f"photons: {report.photons}   modes: {report.modes}")
        print(f"success probability: {report.success_probability:.4f}")
        print(f"fidelity           : {report.fidelity:.4f}")
        print("bunched components:")
        for occ, c, m, shifter in zip(
                noon_components(state.basis), report.raw_amplitudes,
                report.normalized_amplitudes, report.optimal_phases_deg):
            print(f"  |{format_occupations(occ)}>  mag {abs(c):.4f}  "
                  f"normalized {m:.4f}  shifter {round(shifter):+5d} deg")
    return 0


def cmd_sweep(args: argparse.Namespace, mf: MatrixFile) -> int:
    rows = sweep_inputs(operator_from_file(mf), args.photons)
    if args.json:
        payload = {
            "photons": args.photons,
            "modes": mf.dim,
            "rows": [
                {"input": format_occupations(occ), "success_probability": s, "fidelity": f}
                for (occ, _), s, f in zip(
                    rows,
                    serialize.fixed_column([r.success_probability for _, r in rows], 4),
                    serialize.fixed_column([r.fidelity for _, r in rows], 4))
            ],
        }
        print(serialize.dumps(payload), end="")
    else:
        print(f"matrix: {mf.label}   {args.photons} photons over {mf.dim} modes   "
              f"({len(rows)} inputs)")
        print(f"{'input':<16} {'success':>8} {'fidelity':>9}")
        for occ, r in rows:
            print(f"{format_occupations(occ):<16} {r.success_probability:8.4f} "
                  f"{r.fidelity:9.4f}")
    return 0


def cmd_reproduce(args: argparse.Namespace, override: MatrixFile | None) -> int:
    claims = reproduction_claims(override, tol_scale=args.tol)
    passed = sum(c.passed for c in claims)
    if args.json:
        payload = {
            "passed": passed == len(claims),
            "claims": [
                {"name": c.name, "passed": c.passed, "computed": c.computed,
                 "expected": c.expected}
                for c in claims
            ],
        }
        print(serialize.dumps(payload), end="")
    else:
        print("reproduction of the bundled splitter results "
              f"(tolerance scale {args.tol:g})")
        for c in claims:
            tag = "PASS" if c.passed else "FAIL"
            print(f"[{tag}] {c.name}: {c.computed} (expected {c.expected})")
        print(f"{passed}/{len(claims)} claims passed")
    return 0 if passed == len(claims) else 1


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_unitarize)

    p = sub.add_parser("evolve", help="evolve a Fock state and print the "
                       "output superposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True, help='ket spec, e.g. "0,0,1,1"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_evolve)

    p = sub.add_parser("noon", help="extract the bunched components "
                       "(or an arbitrary post-selection with --select)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--select", help='semicolon-separated kets, e.g. "1,1,0,0;0,0,1,1"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_noon)

    p = sub.add_parser("sweep", help="rank every n-photon input by NOON "
                       "success probability")
    p.add_argument("--matrix", required=True)
    p.add_argument("--photons", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("reproduce", help="check every golden claim for the "
                       "bundled splitters")
    p.add_argument("--matrix", help="substitute this file for the bundled "
                   "subspace-II splitter")
    p.add_argument("--tol", type=_tolerance_scale, default=1.0,
                   help="scale factor applied to every tolerance band "
                   "(finite, >= 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        matrix_file = None if args.matrix is None else load_matrix(args.matrix)
        return args.run(args, matrix_file)
    except InputError as exc:
        print(f"noonforge: input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"noonforge: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
