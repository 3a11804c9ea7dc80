"""Benchmark of the ektau package: seeded workloads, checked outputs.

    python3 benchmark/run.py --workload solve --seed 0 --seconds 25 --trace 0

Workloads: solve, sweep, stability (see benchmark/README.md).
Each run is one single-threaded process; BLAS and OpenMP thread counts are
set to 1 before numpy loads.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: set-up (imports, case
generation, set-up solves and one warm-up op, measured in this process and
in four fresh ones, median), then ops timed for --seconds, at least one
whole pass over the op list.  A fixed reference kernel that uses no ektau
code runs before every op; the op times are reported as multiples of the
median of the kernel runs nearest them (unit "ref"), which takes the
shared machine's drifting speed out of them, and in seconds on comment
lines.  Set-up is reported in seconds at the kernel's nominal speed: the
measured set-up time times NOMINAL_REFERENCE_S over the kernel's median
time right after that set-up.  --trace 1 runs each op of the first pass
twice in a row, once plain and once with every module boundary wrapped in
spans, and reports per-layer metrics; the difference between the plain and
the traced pass is the tracing overhead.  Its length is set by the op
list, not by --seconds, so its counts repeat exactly.

--write-references recomputes the workload's entry in
benchmark/references.json for the default seed.  The run fails (non-zero
exit, no result line) when the ektau sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check
from tracing import Hooks, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5               # this process plus four fresh ones
REF_WINDOW = 2                  # kernel runs on each side of an op
NOMINAL_REFERENCE_S = 0.05      # the kernel's median on a 2-vCPU Xeon
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class OpResult:
    kind: str
    key: str
    pass_index: int
    seconds: float
    breaches: list[str] = field(default_factory=list)
    outputs: dict | None = None
    ref_seconds: float | None = None    # the reference kernel, run just before
    slot: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.breaches)


def median(values) -> float:
    return float(statistics.median(values))


def fail_rate(results: list[OpResult]) -> float:
    return sum(r.failed for r in results) / len(results)


def relative_times(results: list[OpResult]) -> list[float]:
    """Each op's time over the median of the kernel runs nearest it."""
    refs = [r.ref_seconds for r in results]
    return [r.seconds / median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, r in enumerate(results)]


def iq_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    v = sorted(values)
    k = len(v) // 4
    return float(statistics.fmean(v[k:len(v) - k]))


def summarize(results: list[OpResult], primary: str) -> dict:
    """Op times by slot and by kind, in seconds and in reference units.

    A slot is an op's place in the pass (a space, a graph, a cylinder).  The
    time of a pass is the sum over slots of the slot's interquartile mean op
    time: a burst of load on the shared machine moves single ops, which the
    trimming drops, while the mean still averages over the cases a slot ran.
    """
    by_slot: dict[str, list[tuple[float, float]]] = {}
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for r, rel in zip(results, relative_times(results)):
        by_slot.setdefault(r.slot or r.key, []).append((r.seconds, rel))
        by_kind.setdefault(r.kind, []).append((r.seconds, rel))

    def med(pairs, i):
        return median([p[i] for p in pairs])

    def iqm(pairs, i):
        return iq_mean([p[i] for p in pairs])
    main = by_kind[primary]
    return {
        "wall_s": sum(iqm(v, 0) for v in by_slot.values()),
        "wall_rel": sum(iqm(v, 1) for v in by_slot.values()),
        "op_s.p50": med(main, 0),
        "op_rel.p50": med(main, 1),
        "kinds": {k: (med(v, 0), med(v, 1), len(v))
                  for k, v in by_kind.items()},
        "fail_rate": fail_rate(results),
    }


class Runner:
    """Runs ops, times them, checks their outputs against the gate.

    With a reference kernel, the kernel runs (and is timed) just before
    each op.
    """

    def __init__(self, refs: dict | None, reference=None):
        self.refs = refs or {}
        self.reference = reference
        self.previous: dict[str, dict] = {}

    def run(self, op, pass_index: int) -> OpResult:
        ref_seconds = self.reference() if self.reference else None
        t0 = time.perf_counter()
        try:
            raw = op.run()
            seconds = time.perf_counter() - t0
            out = op.outputs(raw)
        except Exception:
            seconds = time.perf_counter() - t0
            print("# FAIL %s %s: raised" % (op.kind, op.key))
            traceback.print_exc()
            return OpResult(op.kind, op.key, pass_index, seconds, ["raised"],
                            ref_seconds=ref_seconds, slot=op.slot)
        breaches = check(op.kind, out, self.refs.get(op.key),
                         self.previous.get(op.key))
        self.previous[op.key] = out
        for b in breaches:
            print("# FAIL %s %s: %s" % (op.kind, op.key, b))
        return OpResult(op.kind, op.key, pass_index, seconds, breaches, out,
                        ref_seconds, op.slot)


def _load_workloads():
    """Imports numpy, scipy and ektau from the checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ektau
    if not Path(ektau.__file__).resolve().is_relative_to(SRC):
        raise ImportError("ektau imported from %s, not %s"
                          % (ektau.__file__, SRC))
    import workloads
    return workloads


def _setup(workloads, name: str, seed: int, workdir: Path, t_start: float):
    """Case generation, set-up solves and the warm-up op.

    Returns the workload, the reference kernel and the set-up time in
    seconds at the kernel's nominal speed.
    """
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    op = wl.warmup()
    op.outputs(op.run())
    seconds = time.perf_counter() - t_start
    reference = workloads.ReferenceKernel()
    reference()                                        # warm-up
    speed = median([reference() for _ in range(5)])
    return wl, reference, seconds * NOMINAL_REFERENCE_S / speed


def _fresh_setup(name: str, seed: int) -> float:
    """Set-up time in a new interpreter, imports included, as _setup gives it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _references(seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCES.exists():
        return None
    with open(REFERENCES) as fh:
        return json.load(fh)


def timed_run(wl, runner: Runner, seconds: float) -> list[OpResult]:
    """Ops in pass order until `seconds` have passed and min_passes are whole."""
    results = []
    t0 = time.perf_counter()
    k = 0
    while True:
        ops = wl.ops(k)
        for i, op in enumerate(ops):
            results.append(runner.run(op, k))
            whole = k + (i == len(ops) - 1)
            if time.perf_counter() - t0 >= seconds and whole >= wl.min_passes:
                return results
        k += 1


def traced_run(wl, runner: Runner):
    """Each op of the first pass twice in a row, plain then in spans.

    Pairing the two runs of an op keeps the machine's drift out of the
    tracing overhead; the wrappers are removed between ops.
    """
    tracer = Tracer()
    hooks = Hooks(tracer)
    untraced, traced = [], []
    for i, op in enumerate(wl.ops(0)):
        untraced.append(runner.run(op, 0))
        tracer.op = i
        with hooks:
            traced.append(runner.run(op, 1))
    seconds = [r.seconds for r in traced]
    metrics = layer_metrics(tracer.spans, seconds, frozenset(hooks.absent))
    wall = sum(seconds)
    untraced_wall = sum(r.seconds for r in untraced)
    attributed = wall - metrics["bench.self_s"][0]
    metrics.update({
        "harness.bytes_written": (sum((r.outputs or {}).get("bytes_written", 0)
                                      for r in traced), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.attributed_share": (attributed / wall, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return untraced + traced, metrics, tracer, sorted(hooks.absent)


def result_line(results: list[OpResult], metrics: dict) -> str:
    failed = sum(r.failed for r in results)
    return json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    ap.add_argument("--write-references", action="store_true",
                    help="recompute this workload's reference outputs for "
                         "the default seed")
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    try:
        workloads = _load_workloads()
    except ImportError as exc:
        print("error: cannot import the ektau sources: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    workdir = OUT / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_references:
            return _write_references(workloads, args.workload, workdir)
        wl, reference, setup_s = _setup(workloads, args.workload, args.seed,
                                        workdir, t_start)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        refs = _references(args.seed)
        refs = refs.get(args.workload) if refs else None
        print("# env %s" % json.dumps(workloads.environment(), sort_keys=True))
        print("# workload %s seed %d, references %s" % (
            args.workload, args.seed,
            "on" if refs else "off (not the default seed)"))
        if args.trace:
            results, metrics, tracer, absent = traced_run(wl, Runner(refs))
            spans_file = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
            spans_file.write_text(json.dumps(tracer.records()))
            print("# %d spans written to %s; absent hooks: %s"
                  % (len(tracer.spans), spans_file.relative_to(ROOT),
                     ", ".join(absent) or "none"))
            for name, (value, unit) in metrics.items():
                print("#   %-36s %s %s" % (name, "absent" if value is None
                                           else "%.6g" % value, unit))
        else:
            setups = [setup_s] + [_fresh_setup(args.workload, args.seed)
                                  for _ in range(SETUP_REPEATS - 1)]
            results = timed_run(wl, Runner(refs, reference), args.seconds)
            s = summarize(results, wl.primary)
            ops_file = OUT / ("ops-%s-seed%d.json" % (args.workload, args.seed))
            ops_file.write_text(json.dumps(
                [{"kind": r.kind, "key": r.key, "slot": r.slot,
                  "pass": r.pass_index, "seconds": r.seconds,
                  "ref_seconds": r.ref_seconds, "failed": r.failed}
                 for r in results]))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_rel": (s["wall_rel"], "ref"),
                       "op_rel.p50": (s["op_rel.p50"], "ref"),
                       "setup_s": (median(setups), "s"),
                       "peak_rss_mb": (rss_mb, "MB")}
            print("# %d ops in %d passes; set-up samples %s s (nominal); "
                  "reference kernel median %.4f s"
                  % (len(results), results[-1].pass_index + 1,
                     ", ".join("%.3f" % t for t in setups),
                     median([r.ref_seconds for r in results])))
            print("#   wall_s %.4f s, op_s.p50 %.4f s"
                  % (s["wall_s"], s["op_s.p50"]))
            for kind, (med, rel, n) in sorted(s["kinds"].items()):
                print("#   %s_s.p50 %.4f s, %.3f ref (n=%d)"
                      % (kind, med, rel, n))
            print("#   fail_rate %.4g (%d/%d)" % (s["fail_rate"],
                  sum(r.failed for r in results), len(results)))
            print("# op times written to %s" % ops_file.relative_to(ROOT))
            for name, (value, unit) in metrics.items():
                print("#   %s %.6g %s" % (name, value, unit))
        print(result_line(results, metrics))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_references(workloads, name: str, workdir: Path) -> int:
    refs = _references(DEFAULT_SEED) or {"seed": DEFAULT_SEED}
    wl = workloads.WORKLOADS[name](DEFAULT_SEED, workdir)
    wl.setup()
    refs[name] = workloads.reference_outputs(wl)
    print("# %s: %d reference ops" % (name, len(refs[name])))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
