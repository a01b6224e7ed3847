"""noonforge benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the package under test is the ``src/`` tree next to this
directory. Each workload runs in its own interpreter. One client issues
in-process operations back to back (closed loop, one thread). With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
replays the workload's first round alternately without and with the
per-layer wrappers of ``spans.py`` and reports the per-layer metrics. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment. ``--workload all`` runs every workload in turn and prints one
table. See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "noonforge" / "data"
SCRATCH = ROOT / ".bench_tmp"

# BLAS/OpenMP threads, pinned for every process the benchmark starts. One
# thread matches the load model (one client, one Python thread). On a shared
# 2-vCPU machine two OpenBLAS threads made a 455-state eigh 1.8x faster but
# added a ~1 s stall to the first call after the machine idled, and once an
# 11 s stall mid-run. Compare only runs made with the same value.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7

# Timings are rescaled to a reference machine speed. The shared machine this
# was written on changed speed from minute to minute, by up to a factor of
# two for the same operation. A fixed calibration kernel, made of the kinds
# of work the package does (see calibration_sample), slows by about the same
# factor. Between
# operations, at most once per CALIBRATION_EVERY_S, the kernel is timed. The
# run is cut into blocks of whole rounds holding at least BLOCK_S of
# operation time, and each latency is multiplied by CALIBRATION_REF_S over
# the median kernel time of its block. Set-up times are rescaled by the
# kernel time of their own interpreter. Raw timings are reported alongside.
CALIBRATION_REF_S = 3.5e-3
CALIBRATION_EVERY_S = 0.1
BLOCK_S = 1.0

# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

MATRICES = {"paper": workloads.SPLITTERS, "evolve": ("splitter_ii",),
            "sweep": workloads.SPLITTERS, "oracle": ("splitter_ii",)}


def use_source_tree() -> bool:
    """Pin BLAS threads and put ``src/`` first on the path; False if it is missing."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "noonforge" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


class Executor:
    """Runs operations in-process against the package under test.

    Constructing one is the workload's set-up: it imports the package and
    loads the workload's matrix files.
    """

    def __init__(self, workload: str, tmp_dir: str):
        import noonforge.cli

        self.cli = noonforge.cli
        self.fock, self.unitary, self.evolve = noonforge.fock, noonforge.unitary, noonforge.evolve
        self.tmp_dir = tmp_dir
        self.operators = {}
        for name in MATRICES[workload]:
            matrix = self.unitary.load_matrix(DATA / f"{name}.json")
            self.operators[name] = self.evolve.evolution_operator(
                self.unitary.unitarize(matrix.to_array()))

    def run(self, op: dict):
        """A TransitionTable for API operations, (exit code, stdout) for CLI ones."""
        if op["kind"] == "api":
            _, state = self.fock.state_from_spec(op["spec"])
            generator = self.unitary.effective_hamiltonian(self.operators[op["matrix"]])
            return self.evolve.evolve_state_hamiltonian(generator, state)
        argv = workloads.resolve_argv(op["argv"], str(DATA), self.tmp_dir)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()


def run_ops(executor, checker, ops, tracer=None, speed=None):
    """Run `ops` back to back; (latencies, failure messages).

    Only the call into the package is timed; each output is checked right
    after its operation and then dropped, so memory does not grow with the
    number of operations. A `SpeedProbe` passed as `speed` samples the
    calibration kernel between operations.
    """
    latencies, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if speed is not None:
            speed.between_ops()
        start = time.perf_counter()
        try:
            result = executor.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failures.append(f"{op['name']}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            problem = checker.check(op, result)
        except Exception as exc:  # malformed output
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{op['name']}: {problem}")
    return latencies, failures


_KERNEL = {}


def _kernel_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kernel")
    commands = parser.add_subparsers(dest="command")
    for name in ("reproduce", "noon", "evolve", "sweep", "unitarize"):
        command = commands.add_parser(name)
        command.add_argument("--json", action="store_true")
        command.add_argument("--matrix")
        command.add_argument("--input")
    return parser


def calibration_sample(tmp_dir: str) -> float:
    """Time of the fixed calibration kernel: the machine's current speed.

    One piece of each kind of work the package does: a pure-Python loop,
    small numpy vector updates (the shape of the Ryser loop), a small dense
    eigh, a JSON file written and read back, an argparse parse, and a pass
    over a 4 MiB array (memory traffic, as in the large eigh of ``oracle``).
    """
    import numpy as np

    if not _KERNEL:
        rng = np.random.default_rng(0)
        h = rng.standard_normal((64, 64))
        _KERNEL.update(columns=rng.standard_normal((4, 4)) + 1j, hermitian=h + h.T,
                       stream=rng.standard_normal(1 << 19),
                       doc={"rows": [{"input": [1, 2, 3, 4], "amp": [0.123456, -0.5]}] * 20})
        _KERNEL["out"] = np.empty_like(_KERNEL["stream"])
        np.linalg.eigh(_KERNEL["hermitian"])  # first-call set-up is not speed
    k = _KERNEL
    path = Path(tmp_dir) / "calibration.json"
    start = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    sums, total = np.zeros(4, dtype=complex), 0j
    for j in range(200):
        sums += k["columns"][j & 3]
        total += sums.prod()
    np.linalg.eigh(k["hermitian"])
    for _ in range(2):
        path.write_text(json.dumps(k["doc"]))
        json.loads(path.read_text())
        _kernel_parser().parse_args(["evolve", "--json", "--matrix", "m", "--input", "1,1"])
    np.multiply(k["stream"], 1.0001, out=k["out"])
    k["out"].sum()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the calibration kernel between operations.

    A sample is taken before an operation once CALIBRATION_EVERY_S has
    passed since the last one, so short operations are not slowed down by a
    sample each.
    """

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir
        self.samples: list[float] = []
        self._last = float("-inf")

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.samples.append(calibration_sample(self.tmp_dir))
            self._last = time.perf_counter()

    def take(self) -> list[float]:
        """The samples since the last call."""
        samples, self.samples = self.samples, []
        return samples


def probe_setup(workload: str, tmp_dir: str) -> str:
    """Set-up time of this fresh interpreter (import, load, one warm-up
    operation), then the median calibration kernel time right after it."""
    start = time.perf_counter()
    Executor(workload, tmp_dir).run(workloads.WARMUP[workload])
    setup = time.perf_counter() - start
    kernel = statistics.median(calibration_sample(tmp_dir) for _ in range(5))
    return f"{setup!r} {kernel!r}"


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_PROBES fresh interpreters, one after another, and
    the same times rescaled by the kernel time each interpreter measured."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, kernel = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup * CALIBRATION_REF_S / kernel)
    return raw, scaled


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "noonforge").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "machine": platform.machine(),
    }


def _timings(latencies: list[float]) -> dict[str, float]:
    return {"latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "throughput_ops_s": len(latencies) / sum(latencies)}


def end_to_end(executor, checker, rounds, seconds: float, workload: str):
    """Whole rounds for `seconds` of operation time; (metrics, info, attempted, failures)."""
    setup_raw, setup = setup_seconds(workload)
    raw: list[float] = []
    scaled: list[float] = []
    scales: list[float] = []
    failures: list[str] = []
    speed = SpeedProbe(executor.tmp_dir)
    while sum(raw) < seconds or (len(raw) < MIN_SAMPLES and sum(raw) < 3 * seconds):
        block: list[float] = []
        while sum(block) < BLOCK_S:
            lat, fail = run_ops(executor, checker, next(rounds), speed=speed)
            block += lat
            failures += fail
        scale = CALIBRATION_REF_S / statistics.median(speed.take())
        scales.append(scale)
        raw += block
        scaled += [x * scale for x in block]
    metrics = {**_timings(scaled),
               "setup_s": statistics.median(setup),
               "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    info = {"samples": len(raw), "blocks": len(scales),
            "speed_scale": {"min": min(scales), "median": statistics.median(scales),
                            "max": max(scales)},
            "setup_samples_s": setup_raw,
            "raw": {**_timings(raw), "setup_s": statistics.median(setup_raw)}}
    return metrics, info, len(raw), failures


def per_layer(executor, checker, rounds, seconds: float):
    """The first round, plain and traced in turn; (metrics, info, attempted, failures)."""
    import spans

    ops = next(rounds)
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    speed = SpeedProbe(executor.tmp_dir)
    passes: list[dict] = []
    failures: list[str] = []
    while not passes or sum(plain) + sum(traced) < seconds:
        lat, fail = run_ops(executor, checker, ops, speed=speed)
        plain += lat
        failures += fail
        tracer.install()
        try:
            lat, fail = run_ops(executor, checker, ops, tracer)
        finally:
            tracer.uninstall()
        traced += lat
        failures += fail
        passes.append(tracer.metrics())
    scale = CALIBRATION_REF_S / statistics.median(speed.take())
    # Counts repeat exactly from pass to pass; times take the median.
    metrics = {name: passes[0][name] if unit == "count"
               else statistics.median(p[name] for p in passes) * (scale if unit == "s" else 1)
               for name, unit in spans.PER_LAYER}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    info = {"passes": len(passes), "pass_ops": len(ops), "speed_scale": scale}
    return metrics, info, len(plain) + len(traced), failures


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp_dir: str):
    """One workload run; (info, result) as printed."""
    import checks
    import spans

    executor = Executor(workload, tmp_dir)
    checker = checks.Checker(DATA, tmp_dir)
    _, failures = run_ops(executor, checker, [workloads.WARMUP[workload]])
    rounds = workloads.rounds(workload, seed)
    if trace:
        metrics, extra, attempted, fail = per_layer(executor, checker, rounds, seconds)
        units = dict(spans.PER_LAYER)
    else:
        metrics, extra, attempted, fail = end_to_end(executor, checker, rounds, seconds,
                                                     workload)
        units = dict(END_TO_END)
    failures += fail
    attempted += 1  # the warm-up operation
    info = {"workload": workload, "seconds": seconds, "trace": int(trace),
            "error_rate": len(failures) / attempted, "failures": failures[:5],
            **extra, "env": environment(seed)}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return info, result


def run_all(args) -> int:
    """Every workload in its own interpreter, one table."""
    results, status = {}, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        results[workload] = result
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"error_rate {result['failed'] / result['attempted']:.6g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        status = status or (0 if result["correct"] else 1)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not use_source_tree():
        print(f"error: no noonforge sources under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        if args.setup_probe:
            print(probe_setup(args.workload, tmp_dir))
            return 0
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    print(json.dumps(info))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {info['error_rate']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
