"""Seeded operation lists for the four benchmark workloads.

An operation is a plain dict, so the inputs a seed produces can be compared
byte for byte (``json.dumps``). CLI operations carry an argv template in
which ``@DATA/`` stands for the package's data directory and ``@TMP/`` for
the run's scratch directory; ``resolve_argv`` fills both in at run time.

Each workload is a sequence of *rounds*. A round holds every operation class
of the workload in fixed proportions and in seeded order, and a run only
stops at a round boundary, so every run measures the same mix. The
proportions put the median and the 90th percentile of the current per-op
cost inside one class rather than on the edge between two, which keeps both
percentiles steady from seed to seed.

This module uses only the standard library: it runs before the package under
test is imported.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("paper", "evolve", "sweep", "oracle")

SPLITTERS = ("splitter_i", "splitter_ii")

# paper: the commands behind the paper's results. Class sizes per round of
# 12: cheap commands (unitarize, select, evolve) 4, noon on 2 and 3 photons
# 5 (holds the median), noon on 4 photons 1, reproduce 2 (holds the p90).
_M2 = "@DATA/splitter_ii.json"
PAPER_COMMANDS = {
    "reproduce": ["reproduce", "--json"],
    "noon-0,0,1,1": ["noon", "--json", "--matrix", _M2, "--input", "0,0,1,1"],
    "noon-0,1,1,1": ["noon", "--json", "--matrix", _M2, "--input", "0,1,1,1"],
    "noon-1,1,1,1": ["noon", "--json", "--matrix", _M2, "--input", "1,1,1,1"],
    "noon-select": ["noon", "--matrix", _M2, "--input", "0,0,1,1",
                    "--select", "1,1,0,0;0,0,1,1"],
    "evolve-0,0,1,1": ["evolve", "--json", "--matrix", _M2, "--input", "0,0,1,1"],
    "unitarize-splitter_i": ["unitarize", "--json", "--matrix",
                             "@DATA/splitter_i.json", "--out", "@TMP/splitter_i.json"],
    "unitarize-splitter_ii": ["unitarize", "--json", "--matrix", _M2,
                              "--out", "@TMP/splitter_ii.json"],
}
PAPER_ROUND = (
    ["reproduce"] * 2 + ["noon-0,0,1,1"] * 3 + ["noon-0,1,1,1"] * 2
    + ["noon-1,1,1,1", "noon-select", "evolve-0,0,1,1",
       "unitarize-splitter_i", "unitarize-splitter_ii"])

# evolve: 7-9 photons on splitter II. Per-op cost grows with photon number
# (one permanent per output state); a superposition pays once per term.
# Round of 12: 7-photon singles 3, 7+7 superpositions 4 (holds the median),
# 8-photon singles 2, 9-photon singles 3 (holds the p90).
SPREAD = {7: (2, 2, 2, 1), 8: (2, 2, 2, 2), 9: (3, 2, 2, 2)}
CONCENTRATED = {7: ((7, 0, 0, 0), (5, 1, 1, 0)),
                8: ((8, 0, 0, 0), (6, 1, 1, 0)),
                9: ((5, 2, 1, 1), (9, 0, 0, 0))}
SUPERPOSITION_KETS = (2, 2, 2, 1), (3, 2, 1, 1)
EVOLVE_ROUND = (
    [("spread", 7)] * 2 + [("concentrated", 7)] + [("superposition", 7)] * 4
    + [("spread", 8), ("concentrated", 8)]
    + [("spread", 9)] + [("concentrated", 9)] * 2)

# sweep: photon numbers 5-8, each splitter in fixed proportion. Round of 9:
# N=5 2, N=6 4 (holds the median), N=7 1, N=8 2 (holds the p90); the
# splitters cost the same at equal N.
SWEEP_ROUND = (
    [(5, "splitter_i"), (5, "splitter_ii")]
    + [(6, "splitter_i"), (6, "splitter_ii")] * 2
    + [(7, "splitter_i"), (8, "splitter_i"), (8, "splitter_ii")])

# oracle: 10-14 photons, basis dimension 286-680. Round of 10: N=10 2,
# N=11 2, N=12 3 (holds the median), N=13 1, N=14 2 (holds the p90).
ORACLE_ROUND = (10, 10, 11, 11, 12, 12, 12, 13, 14, 14)

# The fixed smallest operation of each workload, run once during set-up.
WARMUP = {
    "paper": {"name": "evolve-0,0,1,1", "kind": "cli",
              "argv": PAPER_COMMANDS["evolve-0,0,1,1"]},
    "evolve": {"name": "evolve-spread-7", "kind": "cli",
               "argv": ["evolve", "--json", "--matrix", _M2, "--input", "2,2,2,1"],
               "matrix": "splitter_ii", "terms": [[1, 0, [2, 2, 2, 1]]]},
    "sweep": {"name": "sweep-5", "kind": "cli",
              "argv": ["sweep", "--json", "--matrix", "@DATA/splitter_i.json",
                       "--photons", "5"],
              "matrix": "splitter_i", "photons": 5},
    "oracle": {"name": "oracle-10", "kind": "api", "spec": "3,3,2,2",
               "matrix": "splitter_ii", "terms": [[1, 0, [3, 3, 2, 2]]]},
}


def _ket(occ) -> str:
    return ",".join(str(n) for n in occ)


def _permuted(rng: random.Random, occ) -> tuple[int, ...]:
    perms = sorted(set(itertools.permutations(occ)))
    return rng.choice(perms)


def _composition(rng: random.Random, photons: int, modes: int = 4) -> tuple[int, ...]:
    """A uniformly random way to write `photons` as `modes` ordered parts."""
    cuts = sorted(rng.sample(range(1, photons + modes), modes - 1))
    bounds = [0] + cuts + [photons + modes]
    return tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def _evolve_op(rng: random.Random, kind: str, photons: int) -> dict:
    if kind == "spread":
        terms = [[1, 0, list(_permuted(rng, SPREAD[photons]))]]
    elif kind == "concentrated":
        terms = [[1, 0, list(_permuted(rng, rng.choice(CONCENTRATED[photons])))]]
    else:
        first = _permuted(rng, rng.choice(SUPERPOSITION_KETS))
        second = first
        while second == first:
            second = _permuted(rng, rng.choice(SUPERPOSITION_KETS))
        terms = [[rng.randint(1, 9) / 10, 0, list(first)],
                 [rng.randint(1, 9) / 10, rng.randrange(0, 360, 15), list(second)]]
    if len(terms) == 1:
        spec = _ket(terms[0][2])
    else:
        spec = " + ".join(f"{amp}@{deg}*|{_ket(occ)}>" for amp, deg, occ in terms)
    return {"name": f"evolve-{kind}-{photons}", "kind": "cli",
            "argv": ["evolve", "--json", "--matrix", _M2, "--input", spec],
            "matrix": "splitter_ii", "terms": terms}


def make_round(workload: str, rng: random.Random) -> list[dict]:
    """One round of operations: fixed class proportions, seeded details and order."""
    if workload == "paper":
        ops = [{"name": name, "kind": "cli", "argv": PAPER_COMMANDS[name]}
               for name in PAPER_ROUND]
    elif workload == "evolve":
        ops = [_evolve_op(rng, kind, photons) for kind, photons in EVOLVE_ROUND]
    elif workload == "sweep":
        ops = []
        for photons, matrix in SWEEP_ROUND:
            ops.append({"name": f"sweep-{photons}", "kind": "cli",
                        "argv": ["sweep", "--json", "--matrix", f"@DATA/{matrix}.json",
                                 "--photons", str(photons)],
                        "matrix": matrix, "photons": photons})
    elif workload == "oracle":
        ops = []
        for photons in ORACLE_ROUND:
            occ = _composition(rng, photons)
            ops.append({"name": f"oracle-{photons}", "kind": "api", "spec": _ket(occ),
                        "matrix": "splitter_ii", "terms": [[1, 0, list(occ)]]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def rounds(workload: str, seed: int):
    """Endless seeded sequence of rounds for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make_round(workload, rng)


def resolve_argv(argv, data_dir: str, tmp_dir: str) -> list[str]:
    return [a.replace("@DATA", data_dir).replace("@TMP", tmp_dir) for a in argv]
