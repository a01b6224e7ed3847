"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks

They check the harness, not the package: seeded inputs repeat, the tracer
leaves the package as it found it, known work counts come out exactly, and a
corrupted output is counted as a failure.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

assert run.use_source_tree(), "the noonforge sources are missing"

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    return run.Executor("paper", str(tmp_path_factory.mktemp("bench")))


@pytest.fixture(scope="module")
def checker(executor):
    return checks.Checker(run.DATA, executor.tmp_dir)


def _first_rounds(workload, seed, count=3):
    gen = workloads.rounds(workload, seed)
    return json.dumps([next(gen) for _ in range(count)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    if workload != "paper":  # paper varies only the order
        assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_proportions(workload):
    gen = workloads.rounds(workload, 3)
    names = [sorted(op["name"] for op in next(gen)) for _ in range(4)]
    assert all(n == names[0] for n in names)


def _bindings():
    import noonforge

    modules = [m for k, m in sys.modules.items() if k.startswith("noonforge")]
    found = {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}
    for cls in (noonforge.FockBasis, noonforge.TransitionTable):
        found.update({(id(cls), k): v for k, v in vars(cls).items()})
    return found


def test_tracer_restores_every_original(executor):
    import noonforge

    before = _bindings()
    original = noonforge.noon.transition_amplitude
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert noonforge.noon.transition_amplitude is not original
        assert noonforge.evolve.permanent is not before[(id(noonforge.evolve), "permanent")]
    finally:
        tracer.uninstall()
    assert _bindings() == before


def _traced(executor, checker, ops):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, failures = run.run_ops(executor, checker, ops, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer.metrics()


def test_known_counts(executor, checker):
    evolve = {"name": "evolve-1,1,1,1", "kind": "cli",
              "argv": ["evolve", "--json", "--matrix", "@DATA/splitter_ii.json",
                       "--input", "1,1,1,1"],
              "matrix": "splitter_ii", "terms": [[1, 0, [1, 1, 1, 1]]]}
    m = _traced(executor, checker, [evolve])
    assert m["evolve.permanent.calls"] == 35
    assert m["evolve.permanent.gray_steps"] == 525
    assert m["evolve.permanent.max_n"] == 4

    reproduce = {"name": "reproduce", "kind": "cli",
                 "argv": workloads.PAPER_COMMANDS["reproduce"]}
    m = _traced(executor, checker, [reproduce])
    assert m["evolve.transition_amplitude.calls"] == 205


def test_counts_repeat_for_a_seed(executor, checker):
    ops = next(workloads.rounds("paper", 5))
    first, second = _traced(executor, checker, ops), _traced(executor, checker, ops)
    for name, unit in spans.PER_LAYER:
        if unit == "count":
            assert first[name] == second[name], name


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [["cli.main", 0.0, 10.0, -1, 0],
                       ["evolve.permanent", 1.0, 3.0, 0, 0],
                       ["evolve.permanent", 4.0, 5.0, 0, 0]]
    m = tracer.metrics()
    assert m["cli.main.self_s"] == 7.0
    assert m["evolve.permanent.s"] == 3.0
    assert m["evolve.permanent.calls"] == 2


def _corrupt_digit(text):
    i = next(k for k, ch in enumerate(text) if ch.isdigit() and k > text.find('"mag"'))
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_corrupted_outputs_fail(executor, checker):
    paper = {"name": "noon-1,1,1,1", "kind": "cli",
             "argv": workloads.PAPER_COMMANDS["noon-1,1,1,1"]}
    rc, stdout = executor.run(paper)
    assert checker.check(paper, (rc, stdout)) is None
    assert checker.check(paper, (rc, _corrupt_digit(stdout))) is not None
    assert checker.check(paper, (1, stdout)) is not None

    evolve = workloads.WARMUP["evolve"]
    rc, stdout = executor.run(evolve)
    assert checker.check(evolve, (rc, stdout)) is None
    doc = json.loads(stdout)
    bunched = next(r for r in doc["amplitudes"] if r["state"] == "7,0,0,0")
    bunched["phase_deg"] += 0.001
    assert checker.check(evolve, (rc, json.dumps(doc))) is not None

    sweep = workloads.WARMUP["sweep"]
    rc, stdout = executor.run(sweep)
    assert checker.check(sweep, (rc, stdout)) is None
    doc = json.loads(stdout)
    doc["rows"][0], doc["rows"][-1] = doc["rows"][-1], doc["rows"][0]
    assert checker.check(sweep, (rc, json.dumps(doc))) is not None

    class Corrupting:
        def run(self, op):
            rc, out = executor.run(op)
            return rc, _corrupt_digit(out)

    _, failures = run.run_ops(Corrupting(), checker, [paper, paper])
    assert len(failures) == 2


def test_corrupted_table_fails(checker):
    oracle = run.Executor("oracle", "unused")
    op = workloads.WARMUP["oracle"]
    table = oracle.run(op)
    assert checker.check(op, table) is None

    class Table:
        amplitudes = table.amplitudes * 1.000001

    assert checker.check(op, Table()) is not None


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
