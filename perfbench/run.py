"""lgkit benchmark: time to a certified verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload chain-n5-dense --seed 0 --seconds 20 --trace 0

Each iteration calls the public functions of lgkit in pipeline order:
build -> serialize round trip -> expand -> validate -> complexity ->
rebalance -> witness -> verify, and on ``mutants-n4`` also seeded linking
mutants, each built into a witness and verified.  Every verdict and cost is
checked against ``references.json`` and against a brute-force triangle truth
table computed here.

``--trace 0`` reports the end-to-end metrics of untraced iterations.
``--trace 1`` measures memory peaks in a separate ``tracemalloc`` pass, then
alternates untraced iterations with traced ones, which record a span around
every call into lgkit; it reports the per-layer metrics and how much slower
the traced iterations ran than the untraced ones.  Times are scaled to a
reference machine speed with a calibration kernel (see ``Calibrator``).
Readable ``name = value unit`` lines come first; the last line of standard
output is one JSON object.  The exit code is 0 when every check passed.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# numpy reads these when it loads.  One BLAS thread keeps the process within
# nproc threads even with LG_THREADS workers, and keeps a BLAS call from
# waiting on a second core that a neighbour is using.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import lgkit
    from lgkit.adversary import (
        build_witness,
        linking_mutants,
        rebalance_to_equal,
        verify_witness,
    )
    from lgkit.complexity import complexity
    from lgkit.expand import expand
    from lgkit.serialize import build_graph, dump_graph, dumps
    from lgkit.triangle import (
        TriangleParams,
        build_dense_lg,
        build_sparse_lg,
        build_sparsenew_lg,
    )
    from lgkit.validate import validate
except ImportError as exc:
    sys.exit(f"perfbench: cannot import lgkit from {SRC}: {exc}")
if SRC not in Path(lgkit.__file__).resolve().parents:
    sys.exit(f"perfbench: lgkit was imported from {lgkit.__file__}, not {SRC}")

REFERENCES = HERE / "references.json"
COST_RTOL = 1e-9  # known-answer tolerance on C0 and C1
SETUP_SAMPLES = 5
CAL_INTERVAL_S = 0.2
# Times are reported at the speed where calibration_kernel takes CAL_REF_S,
# about its fastest time on the 2-vCPU machine the benchmark was tuned on.
CAL_REF_S = 0.003
MB = 1e6

# name -> (graphs as (variant, n), linking mutants per graph)
WORKLOADS = {
    "chain-n5-dense": ([("dense", 5)], 0),
    "chain-n5-sparsenew": ([("sparsenew", 5)], 0),
    "mutants-n4": ([("dense", 4), ("sparse", 4), ("sparsenew", 4)], 24),
}
FAST_MUTANTS = 4

# (name, unit, note); the JSON line carries the ones BENCHMARK.json lists
END_TO_END = (
    ("setup_s", "s", "fresh process to first timed iteration at reference speed, median of {setup_n}"),
    ("verdict_s", "s", "one iteration at reference speed, median of {iterations}"),
    ("peak_rss_mb", "MB", "ru_maxrss of this process"),
)
PER_LAYER = (
    ("triangle.build_s", "s", ""),
    ("triangle.peak_mb", "MB", "tracemalloc peak of build_*_lg, separate pass"),
    ("triangle.edges", "count", ""),
    ("triangle.domain", "count", ""),
    ("serialize.dump_s", "s", ""),
    ("serialize.parse_s", "s", ""),
    ("serialize.bytes", "count", "graph JSON"),
    ("expand.expand_s", "s", ""),
    ("expand.edges", "count", ""),
    ("validate.validate_s", "s", ""),
    ("validate.linking_pairs", "count", ""),
    ("validate.violations", "count", ""),
    ("complexity.complexity_s", "s", ""),
    ("complexity.rule_evals", "count", "computed: expanded edges x inputs per pass"),
    ("complexity.inexact", "count", "C0/C1 values differing from the reference by any amount"),
    ("adversary.rebalance_s", "s", ""),
    ("adversary.witness_s", "s", "unmutated graphs"),
    ("adversary.blocks", "count", "rank-1 blocks, unmutated graphs"),
    ("adversary.verify_s", "s", "unmutated graphs"),
    ("adversary.pairs", "count", "crossing pairs checked, unmutated graphs"),
    ("adversary.matrix_bytes", "count", "computed: positions x m^2 x 8"),
    ("adversary.peak_mb", "MB", "tracemalloc peak of witness + verify, separate pass"),
    ("adversary.mutants_s", "s", "linking_mutants calls"),
    ("adversary.mutant_verify_s", "s", "witness + verify of each mutant"),
    ("adversary.caught_ratio", "ratio", "{caught} of {mutants} mutants; 1 when there are none"),
    ("bench.check_s", "s", "known-answer checks of this benchmark"),
    ("trace.covered_frac", "ratio", "span time / traced iteration time"),
    ("trace.overhead_frac", "ratio", "traced / untraced iteration time - 1"),
)
# every per-layer time is the sum of the spans of that name, without "_s"
SPANS = [name[: -len("_s")] for name, unit, _ in PER_LAYER if unit == "s"]


@dataclass(frozen=True)
class Instance:
    variant: str
    n: int
    mutants: int
    mutant_seed: int

    @property
    def params(self) -> dict[str, int]:
        if self.variant == "sparsenew":
            return {"b": 3 if self.n == 5 else 2}
        return {"x": 1, "a": 2, "b": 2}

    @property
    def key(self) -> str:
        return "-".join(
            [self.variant, f"n{self.n}", *(f"{k}{v}" for k, v in self.params.items())]
        )

    def build(self):
        if self.variant == "sparsenew":
            return build_sparsenew_lg(self.n, **self.params)
        build = build_dense_lg if self.variant == "dense" else build_sparse_lg
        return build(self.n, TriangleParams(variant=self.variant, **self.params))


@dataclass
class Workload:
    instances: list[Instance]
    references: dict[str, dict]
    truth: dict[int, dict[int, int]]  # n -> brute-force triangle truth table


def triangle_truth_table(n: int) -> dict[int, int]:
    """Triangle containment over all graphs on n vertices, bit i = i-th pair."""
    bit = {p: i for i, p in enumerate(combinations(range(n), 2))}
    table = {}
    for z in range(1 << len(bit)):
        table[z] = int(
            any(
                z >> bit[u, v] & z >> bit[u, w] & z >> bit[v, w] & 1
                for u, v, w in combinations(range(n), 3)
            )
        )
    return table


def prepare(name: str, seed: int, fast: bool) -> Workload:
    """Everything a run needs before its first timed iteration."""
    graphs, mutants = WORKLOADS[name]
    if fast:
        graphs = [(variant, 4) for variant, _ in graphs]
        mutants = min(mutants, FAST_MUTANTS)
    rng = random.Random(seed)
    instances = [Instance(v, n, mutants, rng.randrange(1 << 31)) for v, n in graphs]
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    missing = [i.key for i in instances if i.key not in refs]
    if missing:
        raise KeyError(f"no reference for {missing} in {REFERENCES}")
    return Workload(
        instances,
        {i.key: refs[i.key] for i in instances},
        {n: triangle_truth_table(n) for n in {i.n for i in instances}},
    )


@dataclass
class Outcome:
    """Checks and work counts of one iteration, summed over its graphs."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def check(self, what: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= COST_RTOL * max(1.0, abs(ref))


def run_instance(inst: Instance, ref: dict, truth: dict, span, out: Outcome) -> None:
    with span("triangle.build"):
        res = inst.build()
    f = res.function
    with span("serialize.dump"):
        text = dumps(dump_graph(res.graph))
    with span("serialize.parse"):
        g = build_graph(json.loads(text))
    with span("expand.expand"):
        ge = expand(g)
    with span("validate.validate"):
        val = validate(g, f)
    with span("complexity.complexity"):
        cost = complexity(g, f)
    with span("adversary.rebalance"):
        gb = rebalance_to_equal(g, f)
    with span("adversary.witness"):
        wit = build_witness(gb, f)
    with span("adversary.verify"):
        rep = verify_witness(wit, f)
    with span("bench.check"):
        where = inst.key
        out.check(f"{where}: truth table", f.values == truth)
        out.check(f"{where}: serialize round trip", dumps(dump_graph(g)) == text)
        out.check(f"{where}: validate ok={val.ok}", val.ok == ref["valid"])
        out.check(f"{where}: C0={cost.c0!r}", _close(cost.c0, ref["c0"]))
        out.check(f"{where}: C1={cost.c1!r}", _close(cost.c1, ref["c1"]))
        out.check(f"{where}: certified={rep.ok}", rep.ok == ref["certified"])
    m = len(wit.domain)
    out.counts.update(
        {
            "triangle.edges": len(res.graph.edges),
            "triangle.domain": len(f.domain),
            "serialize.bytes": len(text),
            "expand.edges": len(ge.edges),
            "validate.linking_pairs": val.checked.get("linking-pairs", 0),
            "validate.violations": len(val.entries),
            "complexity.rule_evals": len(ge.edges) * m * (1 + len(g.stages or ())),
            "complexity.inexact": (cost.c0 != ref["c0"]) + (cost.c1 != ref["c1"]),
            "adversary.blocks": wit.blocks,
            "adversary.pairs": rep.checked_pairs,
            "adversary.matrix_bytes": len(wit.matrices) * m * m * 8,
        }
    )
    if not inst.mutants:
        return
    with span("adversary.mutants"):
        mutants = linking_mutants(gb, f, inst.mutants, seed=inst.mutant_seed)
    for mut in mutants:
        with span("adversary.mutant_verify"):
            mrep = verify_witness(build_witness(mut.graph, f), f)
        caught = not mrep.crossing_ok
        out.check(f"{where}: mutant at edge {mut.edge} caught={caught}", caught)
        out.counts.update({"adversary.mutants": 1, "adversary.caught": int(caught)})


def run_iteration(work: Workload, span) -> Outcome:
    out = Outcome()
    for inst in work.instances:
        run_instance(inst, work.references[inst.key], work.truth[inst.n], span, out)
    return out


class Tracer:
    """Flat spans (name, start, end) around calls into lgkit, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        yield
        self.spans.append((name, t0, time.perf_counter()))


class _Probe:
    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos

    def bit(self, z: int) -> int:
        return z >> self.pos & 1


def calibration_kernel() -> float:
    """Seconds taken by fixed pure-Python work, in code lgkit cannot change.

    Method calls and bit tests, the stuff of rule evaluation, tracked the
    chains' iteration times best; dict stores and integer arithmetic
    tracked interpreter start-up best.
    """
    probes = [_Probe(i & 15) for i in range(64)]
    table = {}
    t0 = time.perf_counter()
    acc = 0
    for z in range(150):
        for p in probes:
            acc += p.bit(z)
    for i in range(20_000):
        table[i & 1023] = acc
        acc += i * i
    return time.perf_counter() - t0


class Calibrator:
    """Times ``calibration_kernel`` every CAL_INTERVAL_S of wall time.

    The machine this was tuned on ran the same code up to 1.6 times slower
    for stretches of seconds to minutes, whatever this process did.  Scaling
    wall time by CAL_REF_S over the kernel time sampled during the same
    stretch cancels most of that drift.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(calibration_kernel())

    @contextmanager
    def running(self):
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def scale(self) -> float:
        """Factor from wall seconds to seconds at reference speed."""
        return CAL_REF_S / statistics.fmean(self.samples)


@dataclass
class Iteration:
    wall_s: float
    ticks_s: float  # calibration ticks inside wall_s
    scale: float  # Calibrator.scale over the iteration
    outcome: Outcome
    spans: list[tuple[str, float, float]] | None

    @property
    def seconds(self) -> float:
        """Iteration time without the ticks, at reference speed."""
        return (self.wall_s - self.ticks_s) * self.scale


def timed_iteration(work: Workload, traced: bool) -> Iteration:
    gc.collect()
    tracer = Tracer() if traced else None
    calibrator = Calibrator()
    with calibrator.running():
        t0 = time.perf_counter()
        out = run_iteration(work, tracer.span if traced else lambda name: nullcontext())
        wall = time.perf_counter() - t0
        ticks = sum(calibrator.samples[1:])
    return Iteration(wall, ticks, calibrator.scale, out, tracer.spans if traced else None)


def _traced_peak(call) -> int:
    """Bytes ``call`` allocated at its high point, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_peaks(work: Workload) -> dict[str, float]:
    """Largest tracemalloc peak of the graph build, and of witness + verify.

    A pass of its own, because tracemalloc slows the graph build more than
    tenfold and would distort the span times.
    """
    build_peak = adversary_peak = 0
    for inst in work.instances:
        build_peak = max(build_peak, _traced_peak(inst.build))
        res = inst.build()
        gb = rebalance_to_equal(res.graph, res.function)
        adversary_peak = max(
            adversary_peak,
            _traced_peak(lambda: verify_witness(build_witness(gb, res.function), res.function)),
        )
    return {"triangle.peak_mb": build_peak / MB, "adversary.peak_mb": adversary_peak / MB}


def measure_setup(name: str, seed: int, fast: bool) -> list[tuple[float, float]]:
    """(wall seconds, Calibrator.scale) from starting a fresh interpreter
    until ``prepare`` returns; the child times the kernel right after."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.prepare(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1'); "
        "print('ready', flush=True); "
        "print(min(run.calibration_kernel() for _ in range(3)), flush=True)"
    )
    argv = [sys.executable, "-c", code, str(HERE), name, str(seed), str(int(fast))]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            wall = time.perf_counter() - t0
            kernel = proc.stdout.read()
            if proc.wait(timeout=120) != 0 or ready.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append((wall, CAL_REF_S / float(kernel)))
    return samples


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    lg_threads = os.environ.get("LG_THREADS")
    return (
        f"env nproc={NPROC} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas!r} OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
        f"LG_THREADS={lg_threads if lg_threads else 'unset (1 worker)'}"
    )


def layer_metrics(traced: list[Iteration], untraced_s: float, peaks: dict) -> dict:
    """Per-layer metrics: medians over traced iterations of per-iteration sums."""
    per_iter = []
    for it in traced:
        row = dict.fromkeys((f"{s}_s" for s in SPANS), 0.0)
        for name, t0, t1 in it.spans:
            row[f"{name}_s"] += (t1 - t0) * it.scale
        row["trace.covered_frac"] = sum(t1 - t0 for _, t0, t1 in it.spans) / it.wall_s
        per_iter.append(row)
    metrics = {k: statistics.median(r[k] for r in per_iter) for k in per_iter[0]}
    counts = traced[-1].outcome.counts
    metrics.update(counts)
    metrics.update(peaks)
    mutants = counts["adversary.mutants"]
    metrics["adversary.caught_ratio"] = counts["adversary.caught"] / mutants if mutants else 1.0
    metrics["trace.overhead_frac"] = statistics.median(it.seconds for it in traced) / untraced_s - 1
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fast", action="store_true", help="chains at n=4 and fewer mutants (tests of the benchmark)"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = []
        for name in WORKLOADS:
            print(f"workload {name}", flush=True)
            cmd = [sys.executable, __file__, "--workload", name, *rest, *(["--fast"] if args.fast else [])]
            codes.append(subprocess.run(cmd, check=False).returncode)
        return max(codes)

    work = prepare(args.workload, args.seed, args.fast)
    setup = measure_setup(args.workload, args.seed, args.fast)
    start = time.perf_counter()
    peaks = memory_peaks(work) if args.trace else {}
    untraced, traced = [], []
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(timed_iteration(work, traced=False))
        if args.trace:
            traced.append(timed_iteration(work, traced=True))
    outcomes = [it.outcome for it in untraced + traced]
    attempted = sum(o.checks for o in outcomes)
    failures = [what for o in outcomes for what in o.failures]
    verdict_s = statistics.median(it.seconds for it in untraced)
    walls = [it.wall_s - it.ticks_s for it in untraced]
    counts = untraced[-1].outcome.counts

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(environment())
    notes = {
        "setup_n": len(setup),
        "iterations": len(untraced),
        "caught": counts["adversary.caught"],
        "mutants": counts["adversary.mutants"],
    }
    if args.trace:
        table = PER_LAYER
        metrics = layer_metrics(traced, verdict_s, peaks)
    else:
        table = END_TO_END
        metrics = {
            "setup_s": statistics.median(wall * scale for wall, scale in setup),
            "verdict_s": verdict_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        }
    for name, unit, note in table:
        print(f"{name} = {metrics[name]!r} {unit}  # {note.format(**notes)}".rstrip(" #"))
    print(
        f"setup_wall_s = {statistics.median(w for w, _ in setup)!r} s  # unscaled, median of {len(setup)}"
    )
    print(
        f"verdict_wall_s = {statistics.median(walls)!r} s  # unscaled, median of {len(walls)} "
        f"(min {min(walls):.4f}, max {max(walls):.4f})"
    )
    if notes["mutants"]:
        print(f"mutants_per_s = {notes['mutants'] / verdict_s!r} 1/s  # mutant verdicts / verdict_s")
    print(
        f"failed_frac = {len(failures) / attempted!r} ratio  # {len(failures)} of {attempted} "
        "checks: per graph truth table, round trip, validate, C0, C1, certify; one per mutant"
    )
    for what in failures:
        print(f"FAILED {what}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
