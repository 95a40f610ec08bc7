"""The jthresh benchmark: seeded workloads driven through ``jthresh.cli.run``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload surface_path --seed 1 --seconds 30 --trace 0

One process, one client, closed loop, no threads: each query is one call of
``cli.run(argv, stdin_bytes)`` and the next is issued when it returns, so
every query pays parse -> validate -> compute -> render.  A run repeats the
workload's pass of queries until ``--seconds`` have elapsed and at least
MIN_SAMPLES queries have run, stopping at a pass boundary, and checks every
output.  A short fixed reference loop runs after every query, and each
query's time is scaled by REFERENCE_S over the median time of the four
loops nearest to it, which cancels the host's contention (see
``reference_loop``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
fixed passes with spans and counters installed and reports the per-layer
metrics.  The last line of stdout is one JSON object; the lines above it
print the same figures for people.
"""

import time

_STARTED = time.perf_counter()  # first statement: setup_s counts everything after it

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SAMPLES = 100        # so that at least ten latencies lie beyond p90
SETUP_REPEATS = 7
TRACE_PASSES = {"surface_path": 1, "toric_ladder": 1, "query_mix": 4}
CHILD_TIMEOUT_S = 60
REFERENCE_S = 2.3e-3     # reference_loop on an idle 2-vCPU x86-64 VM (Python 3.11)
SETUP_REFERENCE_LOOPS = 21


def reference_loop() -> None:
    """A fixed piece of pure-Python work like the engine's: Fractions, frozensets, json.

    On a shared host the same query can take 1.7 times longer for seconds
    at a time, in CPU time as much as in wall time.  This loop slows down
    with it: over five minutes in which the times of two repeated queries
    spread by 30% (quartile distance over median), the same times divided
    by the median of the two loops before and the two after each spread by
    5-6%, against 12% when divided by the median loop of the surrounding 3.5
    seconds.  Time scaled by REFERENCE_S / loop time therefore measures the
    program and not the host.  The loop uses nothing from jthresh.
    """
    acc, seen = Fraction(0), set()
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        seen.add(frozenset((i % 7, i % 11)))
        json.dumps({"a": [str(acc)]})


def _time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def _import_engine():
    if not (SRC / "jthresh" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jthresh sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    from jthresh import cli
    if Path(cli.__file__).resolve().parent != SRC / "jthresh":
        sys.exit(f"perfbench: imported jthresh from {cli.__file__}, not from {SRC}")
    return cli


def _setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Import jthresh and build the workload until its first query is ready.

    Returns the set-up time and the median time of the reference loop run
    right after it, in the same process.
    """
    cli = _import_engine()
    Workload(workload, seed, cli.run).pass_queries(0)
    setup = time.perf_counter() - _STARTED
    return setup, statistics.median(_time_reference() for _ in range(SETUP_REFERENCE_LOOPS))


def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, reference loop time) of SETUP_REPEATS fresh interpreters, in turn."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup child failed: {proc.stderr.strip()}")
        setup, loop = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(setup), float(loop)))
    return times


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]  # nearest rank: ceil(0.9 n)


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "jthresh").glob("*.py")))


class Tally:
    """Attempted and failed queries, latencies and wrong results of a run."""

    def __init__(self, checker):
        self.checker = checker
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def issue(self, run, query) -> None:
        start = time.perf_counter()
        code, out = run(list(query.argv), query.stdin)
        self.latencies.append(time.perf_counter() - start)
        verdict = self.checker.check(query, code, out)
        self.failed += verdict.failed
        self.errors.extend(verdict.errors)


def _timed(cli, wl, checker, seconds: float):
    """Whole passes until ``seconds`` and MIN_SAMPLES are reached.

    The reference loop runs once before the first query and once after each
    query, outside the query's time.  Returns the tally, the scaled
    latencies, the scaled throughput of each pass and the scale factors.
    """
    tally = Tally(checker)
    first = wl.pass_queries(0)[0]
    cli.run(list(first.argv), first.stdin)  # warm-up, not counted
    # the benchmark's own objects (documents, expected fields) should not make
    # the engine's garbage collections slower than in a one-shot CLI process
    gc.collect()
    gc.freeze()
    loops, ends = [_time_reference()], []  # query i runs between loops i and i+1
    began = time.perf_counter()
    while not ends or time.perf_counter() - began < seconds or len(tally.latencies) < MIN_SAMPLES:
        for query in wl.pass_queries(len(ends)):
            tally.issue(cli.run, query)
            loops.append(_time_reference())
        ends.append(len(tally.latencies))
    scales = [REFERENCE_S / statistics.median(loops[max(0, i - 1):i + 3])
              for i in range(len(tally.latencies))]
    scaled = [x * k for x, k in zip(tally.latencies, scales)]
    rates = [(end - start) / sum(scaled[start:end]) for start, end in zip([0] + ends, ends)]
    return tally, scaled, rates, scales


def _traced(cli, wl, checker, seconds: float, stem: Path):
    """Alternate untraced and traced runs of the fixed passes; spans of the first traced run."""
    from tracing import Tracer
    passes = [wl.pass_queries(i) for i in range(TRACE_PASSES[wl.name])]

    def issue_all(tracer) -> Tally:
        tally = Tally(checker)
        if tracer is not None:
            tracer.install()
        try:
            for qid, query in enumerate((q for queries in passes for q in queries), start=1):
                if tracer is not None:
                    tracer.query[0] = qid
                tally.issue(cli.run, query)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return tally

    untraced, traced, first = [], [], None
    began = time.perf_counter()
    while not traced or (time.perf_counter() - began < seconds / 2 and len(traced) < 5):
        untraced.append(sum(issue_all(None).latencies))
        tracer = Tracer()
        tally = issue_all(tracer)
        traced.append(sum(tally.latencies))
        if first is None:
            first = (tally, tracer)
    tally, tracer = first
    tracer.write(stem)
    return tally, tracer, statistics.median(traced), statistics.median(untraced)


def _layer_metrics(tracer, traced_s: float, untraced_s: float) -> dict:
    c, s = tracer.count, tracer.self_time
    orbits, gammas = c("toric.subvariety_score"), c("surface.surface_gamma")
    values = {
        "toric.is_face.calls": (c("toric.Fan.is_face"), "count"),
        "toric.rewrite_terms.calls": (c("toric.Fan.rewrite_terms"), "count"),
        "toric.subvariety_score.calls": (orbits, "count"),
        "toric.nodes_per_orbit": (c("toric.Fan.is_face") / orbits if orbits else 0, "nodes/orbit"),
        "toric.is_ample.calls": (c("toric.is_ample"), "count"),
        "lattice.pair.calls": (c("lattice.IntersectionLattice.pair"), "count"),
        "lattice.pair.self_s": (s("lattice.IntersectionLattice.pair"), "s"),
        "surface.surface_gamma.calls": (gammas, "count"),
        "surface.pairs_per_gamma": (c("lattice.IntersectionLattice.pair") / gammas if gammas else 0,
                                    "pairs/gamma"),
        "cones.seshadri_T.calls": (c("cones.seshadri_T"), "count"),
        "cones.sigma_inf.calls": (c("cones.sigma_inf"), "count"),
        "cones.is_kahler.calls": (c("cones.is_kahler"), "count"),
        "exactnum.quadnum_ops": (tracer.quadnum_ops(), "count"),
        "exactnum.decimal_str.calls": (c("exactnum.decimal_str"), "count"),
        "exactnum.decimal_str.self_s": (s("exactnum.decimal_str"), "s"),
        "documents.parse_document.calls": (c("documents.parse_document"), "count"),
        "documents.parse_document.self_s": (s("documents.parse_document"), "s"),
        "documents.document_to_json.self_s": (s("documents.document_to_json"), "s"),
        "lattice.signature.self_s": (s("lattice.IntersectionLattice.signature"), "s"),
        "toric.validate_fan.calls": (c("toric.validate_fan"), "count"),
        "toric.validate_fan.self_s": (s("toric.validate_fan"), "s"),
        "catalog.build.self_s": (s("catalog.build"), "s"),
    }
    from tracing import LAYERS
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (tracer.layer_self_time(layer), "s")
    values["trace.spans"] = (tracer.span_count, "count")
    values["trace.traced_s"] = (traced_s, "s")
    values["trace.untraced_s"] = (untraced_s, "s")
    values["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(*map(repr, _setup_once(args.workload, args.seed)))
        return 0

    cli = _import_engine()
    from checker import Checker
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    wl = Workload(args.workload, args.seed, cli.run)
    checker = Checker()

    print(f"workload {wl.name}  seed {wl.seed}  closed loop, 1 client, no threads  "
          f"src_lines {_src_lines()} (informational)")
    if args.trace:
        stem = ROOT / ".bench_out" / f"spans-{wl.name}-{wl.seed}"
        tally, tracer, traced_s, untraced_s = _traced(cli, wl, checker, args.seconds, stem)
        metrics = _layer_metrics(tracer, traced_s, untraced_s)
        print(f"traced {len(tally.latencies)} queries in {TRACE_PASSES[wl.name]} fixed pass(es); "
              f"{tracer.span_count} spans written to {stem.relative_to(ROOT)}.bin; "
              f"tracing overhead {traced_s - untraced_s:.3f} s "
              f"(median {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced, alternated)")
    else:
        tally, lat, rates, scales = _timed(cli, wl, checker, args.seconds)
        raw = tally.latencies
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "throughput_qps": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (_p90(lat) * 1e3, "ms"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
            "setup_s": (statistics.median(s * REFERENCE_S / loop for s, loop in setup), "s"),
        }
        print(f"{len(lat)} queries in {len(rates)} passes (throughput: median of per-pass "
              f"rates); latency samples {len(lat)}, {len(lat) - -(-9 * len(lat) // 10)} "
              f"beyond p90; setup runs {len(setup)}")
        print(f"times scaled to a {REFERENCE_S * 1e3:g} ms reference loop: scale median "
              f"{statistics.median(scales):.3f} (min {min(scales):.3f}, max {max(scales):.3f}); "
              f"unscaled: p50 {statistics.median(raw) * 1e3:.4g} ms, p90 {_p90(raw) * 1e3:.4g} ms, "
              f"mean rate {len(raw) / sum(raw):.4g}/s, setup {statistics.median(s for s, _ in setup):.4g} s")
        print(f"failed_ratio {tally.failed / len(lat):.6f} ratio  ({tally.failed} of {len(lat)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for error in tally.errors[:20]:
        print(f"WRONG {error}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
