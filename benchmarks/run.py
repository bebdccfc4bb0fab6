#!/usr/bin/env python3
"""qqdesign benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload search_small --seed 1 --seconds 15 --trace 0

The run imports qqdesign from ``src/``, sets the workload up five times
(import, generate and write the inputs from ``--seed``, one warm-up op),
then repeats the workload's fixed op list for ``--seconds`` seconds and
checks every op's output.  Times are scaled to a reference host speed,
measured by a calibration loop run between ops (see ``Calibration``).
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, with spans written under ``.bench_out/``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it
is a fuller report: environment, op counts, error rate and the metrics
that apply only to some workloads.  ``--size tiny`` shrinks every input
for a quick check.  See README.md in this directory for the definitions.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
MAX_FAILURES_SHOWN = 5

CAL_SHARE = 0.05  # calibration time after an op, as a share of the op's time
SETUP_CAL_S = 0.02  # calibration time before and after each setup, at least

END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


class SourceMissing(Exception):
    pass


def import_qqdesign():
    """Import qqdesign afresh from the checkout's src/ (never an installed copy)."""
    init = SRC / "qqdesign" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"{init} not found: run from a qqdesign checkout")
    for name in [n for n in sys.modules if n == "qqdesign" or n.startswith("qqdesign.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    qq = importlib.import_module("qqdesign")
    importlib.import_module("qqdesign.cli")
    if Path(qq.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported qqdesign from {qq.__file__}, not {init}")
    return qq


# -- host speed -------------------------------------------------------------


def _python_loop() -> None:
    total = 0
    for i in range(3000):
        total += i * i % 7


def _fraction_loop() -> None:
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(1, k)


_MATRIX = np.zeros((1024, 1024))  # 8 MiB, the size of search_large's pair matrix
_COLUMN = np.ones(1024)


def _memory_loop() -> None:
    _MATRIX[:, 3] = _COLUMN
    _MATRIX[:, 700] = _COLUMN
    float(_MATRIX.sum())


@dataclass(frozen=True)
class Calibration:
    """A fixed loop that slows down on the shared host as a workload's ops do.

    The host's speed swings by up to 1.7x within milliseconds, in a mix
    that changes over tens of seconds, so a whole run can fall in a slow
    stretch.  The loop's mean time over the same stretch measures how slow
    it was.  A time measured there is scaled by ``reference_s`` over that
    mean: it then reads as on a host where the loop takes ``reference_s``.
    """

    name: str
    loop: Callable[[], None]
    reference_s: float


PYTHON_LOOP = Calibration("python_loop", _python_loop, 200e-6)
FRACTION_LOOP = Calibration("fraction_loop", _fraction_loop, 150e-6)
MEMORY_LOOP = Calibration("memory_loop", _memory_loop, 500e-6)
# Each workload's loop is the one whose time tracked its ops' time best on
# the shared host (README.md, "Noise on a shared host").
CALIBRATIONS: dict[str, Calibration] = {
    "search_small": FRACTION_LOOP,
    "search_large": MEMORY_LOOP,
    "eval_large": PYTHON_LOOP,
    "verify_mixed": FRACTION_LOOP,
}


class HostSpeed:
    """Samples of a calibration loop, taken between the timed calls."""

    def __init__(self, calibration: Calibration | None) -> None:
        self.calibration = calibration
        self.samples: list[float] = []

    def sample(self, seconds: float) -> float:
        """Run the loop for about ``seconds``, at least once; return these samples' factor.

        Without a loop, take no samples and return 1.
        """
        if self.calibration is None:
            return 1.0
        first = len(self.samples)
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self.calibration.loop()
            now = time.perf_counter()
            self.samples.append(now - start)
            if now >= end:
                return self._factor(self.samples[first:])

    def factor(self) -> float:
        """The factor of all samples so far; 1 without any."""
        return self._factor(self.samples) if self.samples else 1.0

    def _factor(self, samples: list[float]) -> float:
        """What times measured while sampling are multiplied by."""
        return self.calibration.reference_s / statistics.fmean(samples)


# -- running ops ------------------------------------------------------------


@dataclass
class Round:
    times: list[float] = field(default_factory=list)  # seconds per op, in op order
    op_factors: list[float] = field(default_factory=list)  # of the samples right after each op
    facts: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0  # wall time including checks and calibration
    factor: float = 1.0  # HostSpeed.factor over the round


def run_op(op: workloads.Op, tracer: tracing.Tracer | None, rnd: Round) -> None:
    """Time one op, check its output, and record a failure instead of raising."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception:
        result, error = None, traceback.format_exc(limit=-4)
    rnd.times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            rnd.facts.append(op.check(result) or {})
        except Exception:
            error = traceback.format_exc(limit=-2)
    if error is not None:
        rnd.failures.append(f"{op.label}: {error.strip()}")


def run_round(ops, tracer: tracing.Tracer | None = None,
              calibration: Calibration | None = None) -> Round:
    """Run the ops once each, sampling the host speed after each with ``calibration``."""
    rnd = Round()
    speed = HostSpeed(calibration)
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.start_round()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            run_op(op, tracer, rnd)
            rnd.op_factors.append(speed.sample(CAL_SHARE * rnd.times[-1]))
    finally:
        if tracer is not None:
            tracer.remove()
    rnd.elapsed = time.perf_counter() - start
    rnd.factor = speed.factor()
    return rnd


def set_up(workload: str, seed: int, work: Path, tiny: bool):
    """Import, generate and write inputs, run one warm-up op.

    Returns (calibrated seconds, ops, warm-up round); the host speed is
    sampled before and after the timed part.
    """
    speed = HostSpeed(CALIBRATIONS[workload])
    speed.sample(SETUP_CAL_S)
    start = time.perf_counter()
    qq = import_qqdesign()
    if work.exists():
        shutil.rmtree(work)
    warmup, ops = workloads.build(workload, qq, work, seed, tiny)
    warm = run_round([warmup])
    elapsed = time.perf_counter() - start
    speed.sample(max(SETUP_CAL_S, CAL_SHARE * elapsed))
    return elapsed * speed.factor(), ops, warm


# -- metrics -----------------------------------------------------------------


def op_times(rounds: list[Round]) -> list[float]:
    """Per op of the list, the median over the rounds of its calibrated time.

    Each time is scaled by the samples taken right after the op: the host's
    speed changes within a round, and this tracked an op's time more
    closely than the round's factor did.
    """
    calibrated = ([t * f for t, f in zip(r.times, r.op_factors)] for r in rounds)
    return [statistics.median(ts) for ts in zip(*calibrated)]


def wall_time(rounds: list[Round]) -> float:
    """The median over the rounds of the op list's time, scaled by the round's factor."""
    return statistics.median(sum(r.times) * r.factor for r in rounds)


def end_to_end_metrics(workload: str, rounds: list[Round], setups: list[float]) -> dict:
    slots = op_times(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_time(rounds), "s"),
        "op_p50_ms": (statistics.median(slots) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if len(slots) >= 100:  # so that at least ten samples lie beyond p90
        metrics["op_p90_ms"] = (statistics.quantiles(slots, n=10)[8] * 1e3, "ms")
    facts = rounds[0].facts
    if workload.startswith("search") and facts and len(facts) == len(slots):
        metrics["search_best_value_mean"] = (
            statistics.fmean(f["best_value"] for f in facts), "qqd2"
        )
        if workload == "search_small":
            metrics["search_time_to_bound_s"] = (statistics.median(slots), "s")
            metrics["search_bound_hit_ratio"] = (
                sum(f["hit"] for f in facts) / len(facts), "ratio"
            )
    return metrics


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read_text(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qqdesign").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    cpu_model = None
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_text(index / "level")
        kind = _read_text(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read_text(index / "size")
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# -- the two kinds of run ----------------------------------------------------


def measure(ops, seconds: float, calibration: Calibration) -> list[Round]:
    """Repeat the op list while another round still fits in ``seconds`` (at least once)."""
    start = time.perf_counter()
    rounds = [run_round(ops, calibration=calibration)]
    while time.perf_counter() - start + max(r.elapsed for r in rounds) <= seconds:
        rounds.append(run_round(ops, calibration=calibration))
    return rounds


def measure_traced(ops, seconds: float, tracer: tracing.Tracer, calibration: Calibration):
    """Heap pass, then alternating untraced and traced rounds for ``seconds``."""
    tracer.heap_mode = True
    try:
        heap = run_round(ops, tracer)
    finally:
        tracer.heap_mode = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    plain: list[Round] = []
    traced: list[tuple[Round, tracing.RoundStats]] = []
    start = time.perf_counter()
    while True:
        plain.append(run_round(ops, calibration=calibration))
        tracer.record_spans = not traced
        rnd = run_round(ops, tracer, calibration)
        tracer.record_spans = False
        traced.append((rnd, tracer.stats))
        pair = max(a.elapsed + b.elapsed for a, (b, _) in zip(plain, traced))
        if time.perf_counter() - start + pair > seconds:
            return heap, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    all_rounds: list[Round] = []
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "calibration": CALIBRATIONS[args.workload].name,
    }
    try:
        if args.trace:
            _, ops, warm = set_up(args.workload, args.seed, work, tiny)
            tracer = tracing.Tracer()
            heap, plain, traced = measure_traced(
                ops, args.seconds, tracer, CALIBRATIONS[args.workload]
            )
            all_rounds = [warm, heap, *plain, *(r for r, _ in traced)]
            metrics = tracing.layer_metrics(
                [stats for _, stats in traced], [r.factor for r, _ in traced]
            )
            metrics["discrepancy.qqd_squared.peak_heap_mb"] = (
                tracer.peak_heap_bytes / 2**20, "MB"
            )
            metrics["trace.overhead_ratio"] = (
                wall_time([r for r, _ in traced]) / wall_time(plain), "ratio"
            )
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            report["rounds"] = {"untraced": len(plain), "traced": len(traced)}
            report["spans_file"] = str(spans.relative_to(ROOT))
            report["computed_counts"] = [
                "discrepancy.pair_entries", "balance.subsets",
                "search.proposals", "search.reverts",
            ]
            contract = dict(metrics)
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                seconds, ops, warm = set_up(args.workload, args.seed, work, tiny)
                setups.append(seconds)
                all_rounds.append(warm)
            rounds = measure(ops, args.seconds, CALIBRATIONS[args.workload])
            all_rounds += rounds
            metrics = end_to_end_metrics(args.workload, rounds, setups)
            report["rounds"] = len(rounds)
            report["setup_s_each"] = setups
            report["host_speed_factors"] = [r.factor for r in rounds]
            report["wall_uncalibrated_s"] = statistics.median(sum(r.times) for r in rounds)
            contract = {name: metrics[name] for name in END_TO_END}
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r.times) for r in all_rounds)
    failures = [f for r in all_rounds for f in r.failures]
    metrics["error_rate"] = (len(failures) / attempted, "ratio")
    report["ops_per_round"] = len(ops)
    report["attempted"] = attempted
    report["failed"] = len(failures)
    report["failures"] = list(dict.fromkeys(failures))[:MAX_FAILURES_SHOWN]  # distinct ones
    report["environment"] = environment()
    report["metrics"] = _metrics_json(metrics)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(spans, {k: v for k, v in report.items() if k != "metrics"})
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": _metrics_json(contract),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
