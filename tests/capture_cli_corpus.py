"""Capture the CLI output corpus from the package on the import path.

    PYTHONPATH=src python3 tests/capture_cli_corpus.py

Writes tests/goldens/cli_corpus.json, which maps each argv of `corpus()` to
its exit code and the first 16 hex digits of the sha256 of its stdout and of
its stderr, each argv run in process through `cli.main`. An argument
`@name` stands for a matrix file: the bundled splitters are read from the
package data; the identity, the 4-port Fourier matrix F and F (H + H) are
written from code into a scratch directory. Each file's path is written back
as its `@name` in the output before hashing.

`test_cli_corpus.py` replays the file. A change to the output contract
regenerates it and lists every changed argv in CHANGES.md; a change that
keeps the output must replay it unchanged, so do not re-run this to make a
failing replay pass. Running it on two commits and diffing the files names
every argv whose output changed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from noonforge import MatrixFile, reference, save_matrix
from noonforge.cli import main

from oracles import fourier_hadamard_unitary, fourier_unitary

GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_corpus.json"
BUNDLED = ("splitter_i", "splitter_ii")
# synthetic files: F (H + H) is stored transposed, as a file holds input port i in row i
SYNTHETIC = {
    "identity": (np.eye(4), "identity"),
    "fourier": (fourier_unitary(4), "4-port Fourier"),
    "fourier_hadamard": (fourier_hadamard_unitary().T, "F (H + H)"),
}
# (input, --select) pairs; nine of them are refused as input errors
SELECTIONS = [
    ("1,1,1,1", "4,0,0,0;0,4,0,0;0,0,4,0;0,0,0,4"),
    ("1,1,1,1", "2,2,0,0;0,0,2,2"),
    ("1,1,1,1", "1,1,1,1;4,0,0,0;1,1,1,1"),
    ("1,1,0,0", "1,1,0,0;0,0,1,1"),
    ("0,0,1,1", "2,0,0,0;0,0,2,0"),
    ("2,1,0,0", "3,0,0,0;0,3,0,0;0,0,3,0;0,0,0,3"),
    ("|1,1,0,0> + |0,0,1,1>", "2,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2"),
    ("0.6*|2,0,0,0> + 0.8@90*|0,0,1,1>", "1,1,0,0;0,0,1,1"),
    ("1,1,1,1", ""),
    ("1,1,1,1", ";"),
    ("1,1,1,1", "1,1,0,0"),
    ("1,1,1,1", "1,1,1,1,0"),
    ("1,1,1,1", "1,1,1"),
    ("1,1,1,1", "a,b,c,d"),
    ("1,1,1,1", "1,-1,2,2"),
    ("1,1,1,1", "4"),
    ("1,1,0,0", "0,0,1,1;1,1,0,0;0,0,1,1"),
    ("9,8,0,0", "17,0,0,0"),
    ("1,1,1,1", "0,0,0,4;4,0,0,0;"),
]
# inputs that evolve and noon refuse (evolve takes the vacuum 0,0,0,0); none
# starts with "-", which argparse would take for an option and answer with a
# usage line that wraps at the terminal width
BAD_INPUTS = ["1,1,1", "1,1,1,1,1", "0,0,0,0", "a,1,1,1", "1,-1,1,1", "17,0,0,0", "|1,1,1,1"]


def occupations(photons: int) -> list[str]:
    """Every way to put `photons` photons into 4 ports, as ket specs."""
    return [",".join(map(str, occ)) for occ in itertools.product(range(photons + 1), repeat=4)
            if sum(occ) == photons]


def corpus() -> list[list[str]]:
    """The argv of the corpus: text and --json runs of every command on every file.

    The bundled splitters take the full set: sweep at 1-10 photons, noon on
    every 4-mode input of 1-6 photons, evolve on every 4-photon input and on
    N e_j for N = 1-16. The synthetic files take sweep at 1-6 photons, noon on
    every input of 1-4 photons and the same evolve inputs.
    """
    argvs = []
    for fmt in ([], ["--json"]):
        argvs.append(["reproduce", *fmt])
        for name in (*BUNDLED, *SYNTHETIC):
            full = name in BUNDLED
            matrix = ["--matrix", f"@{name}"]
            argvs.append(["reproduce", *matrix, *fmt])
            for photons in range(1, (10 if full else 6) + 1):
                argvs.append(["sweep", *matrix, "--photons", str(photons), *fmt])
            for photons in range(1, (6 if full else 4) + 1):
                for spec in occupations(photons):
                    argvs.append(["noon", *matrix, "--input", spec, *fmt])
            bunched = [",".join(str(n) if j == k else "0" for j in range(4))
                       for n in range(1, 17) for k in range(4)]
            for spec in dict.fromkeys([*occupations(4), *bunched]):
                argvs.append(["evolve", *matrix, "--input", spec, *fmt])
            for spec, select in SELECTIONS:
                argvs.append(["noon", *matrix, "--input", spec, "--select", select, *fmt])
            for spec in BAD_INPUTS:
                argvs.append(["evolve", *matrix, "--input", spec, *fmt])
                argvs.append(["noon", *matrix, "--input", spec, *fmt])
    return argvs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def replay(scratch) -> dict[str, list]:
    """{argv as a shell line: [exit code, stdout digest, stderr digest]} of the corpus.

    The synthetic matrix files are written into the directory `scratch`.
    """
    paths = {name: str(reference.data_path(f"{name}.json")) for name in BUNDLED}
    for name, (matrix, label) in SYNTHETIC.items():
        paths[name] = str(Path(scratch) / f"{name}.json")
        save_matrix(paths[name], MatrixFile.from_array(matrix, label))
    results = {}
    for argv in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths[a[1:]] if a.startswith("@") else a for a in argv])
        texts = [out.getvalue(), err.getvalue()]
        for name, path in paths.items():
            texts = [t.replace(path, f"@{name}") for t in texts]
        results[shlex.join(argv)] = [code, *map(_digest, texts)]
    return results


def capture() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        results = replay(scratch)
    lines = [f"{json.dumps(argv)}: {json.dumps(entry)}" for argv, entry in results.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one argv a line
    print(f"wrote {len(results)} argv to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(capture())
