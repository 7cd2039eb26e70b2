"""Layered benchmark of the cdlsem command line on seeded eCos-shaped models.

    python3 perfbench/run.py --workload compile|analyze|validate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated
from the seed into ``.perfbench/`` and the commands are run in this
process through ``cdlsem.cli.main``: one client, closed loop, no
threads.  Every command starts from cold program state: the package's
caches are cleared and garbage is collected before it, outside its time.
Interpreter start-up and imports are not measured.

Times are scaled to a reference speed.  The benchmark times a fixed
pure-Python loop (``reference``) before and after each command and every
quarter second during it, and scales the command's wall time by
``REFERENCE_S`` over the mean of those loop times.  On a shared machine
the CPU speed a process gets can change by a factor of two within
seconds; the scaled times follow the program, not the neighbours.  The
record keeps the raw times too.  The garbage collector is off while the
loop runs, so its allocations set off no collection of the program's
objects, and the harness's own objects are frozen after set-up, so the
program's collections do not walk them.

With ``--trace 0`` the command list is repeated while another pass fits
in ``--seconds`` and the end-to-end metrics are reported.  With
``--trace 1`` it runs once untraced and once traced, and the per-layer
metrics are reported; the traced spans are written to ``.perfbench/``.
The last line of standard output is the result object; the line before
it is the full record of the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Not to be used while developing a change; run it once to confirm a claim.
HELD_OUT_SEED = 9973
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Scaled times are seconds at the speed where reference() takes this long.
REFERENCE_S = 0.007
# Frames a timer sample needs below the recursion limit (see Clock._sample).
RECURSION_HEADROOM = 50

# BENCHMARK.json's bounded end-to-end metrics.  The record of every run
# holds UNBOUNDED and the per-subcommand totals too, and a traced run
# reports them with the per-layer metrics: failed_ratio and the totals
# are missing or zero on some workloads, and the command-time percentiles
# of analyze (15 commands of 0.1 to 4 s per pass) spread too much across
# seeds for a bound.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
UNBOUNDED = ("cmd_p50_ms", "cmd_tail_ms", "failed_ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cdlsem" / "cli.py").is_file():
        print(f"perfbench: no cdlsem sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    try:
        record = run(args, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if args.trace
        else {k: record["metrics"][k] for k in END_TO_END},
    }))
    return 0


def run(args, work: Path, workloads) -> dict:
    from cdlsem import cli

    clock = Clock()
    setup = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = clock.start()
        commands = workloads.WORKLOADS[args.workload](workloads.Inputs(work, args.seed))
        setup.append(clock.stop(start)[1])
    runner = Runner(cli.main, clock)
    gc.collect()
    gc.freeze()  # keep the harness's inputs and checks out of the program's GC
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "interpreter_startup": "not measured",
        "reference_s": REFERENCE_S,
        "commands_per_pass": len(commands),
    }
    tracer = None
    if args.trace:
        import trace

        base = runner.run_pass(commands)
        tracer = trace.Tracer()
        tracer.install()
        clock.on_sample = tracer.exclude
        try:
            traced = runner.run_pass(commands, tracer)
        finally:
            clock.on_sample = None
            tracer.uninstall()
        passes, measured = [base, traced], [base]
    else:
        passes = measured = runner.run_for(commands, args.seconds)
    durations = sorted(r.seconds for p in measured for r in p)
    tail_pct, tail_at = _tail(len(durations))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(_wall(p) for p in measured), "s"),
        "peak_rss_mb": (_max_rss_mb(), "MB"),
        "cmd_p50_ms": (1000 * statistics.median(durations), "ms"),
        "cmd_tail_ms": (1000 * durations[tail_at], "ms"),
        "failed_ratio": (_failed_ratio(measured), "ratio"),
    }
    totals = _class_totals(measured, workloads.CLASSES)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["metrics"].update(totals)
    if tracer is not None:
        per_layer = tracer.metrics([r.scale for r in traced])
        per_layer.update(  # every workload reports every per-layer metric
            (m, totals.get(m, {"value": 0.0, "unit": "s"})) for _, m in workloads.CLASSES
        )
        per_layer.update((k, record["metrics"][k]) for k in UNBOUNDED)
        per_layer["trace.overhead_s"] = {
            "value": _wall(traced) - _wall(base), "unit": "s"
        }
        record["per_layer"] = per_layer
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.spans), encoding="utf-8"
        )
    record.update({
        "passes": len(measured),
        "pass_walls_s": [_wall(p) for p in passes],
        "pass_walls_raw_s": [sum(r.raw for r in p) for p in passes],
        "command_medians_s": {
            " ".join(Path(a).name for a in r.argv):
                statistics.median(p[i].seconds for p in measured)
            for i, r in enumerate(measured[0])
        },
        "reference_median_s": statistics.median(clock.samples),
        "cmd_samples": len(durations),
        "cmd_tail_percentile": tail_pct,
        "cmd_tail_samples_beyond": len(durations) - tail_at - 1,
        "setup_samples_s": setup,
        "setup_rss_mb": runner.setup_rss_mb,
        "peak_rss_set_by": runner.peak_set_by,
        "attempted": sum(len(p) for p in passes),
        "failed": sum(1 for p in passes for r in p if r.status != "ok"),
        "correct": not any(r.status == "wrong" for p in passes for r in p),
        "failures": sorted({
            f"{r.status}: {' '.join(r.argv)}: {r.detail}"
            for p in passes for r in p if r.status != "ok"
        }),
    })
    for line in record["failures"]:
        print(f"perfbench: {line}", file=sys.stderr)
    return record


class _Item:
    __slots__ = ("name", "parent", "weight")

    def __init__(self, name, parent, weight):
        self.name, self.parent, self.weight = name, parent, weight


def reference() -> int:
    """Fixed interpreter work shaped like the program's: objects, dicts, strings."""
    items: dict[str, _Item] = {}
    prev = None
    for i in range(6000):
        name = f"N{i * 7919 % 6007}_{i % 17}"
        items[name] = _Item(name, prev, (i * 31) % 101)
        prev = name
    total = 0
    for it in items.values():
        if it.parent is not None and items[it.parent].weight > it.weight:
            total += len(it.parent.split("_")[0])
    return total + len(sorted(items, key=lambda k: items[k].weight))


class Clock:
    """Scales wall times by the reference loop's speed around and during them.

    ``start``/``stop`` bracket one measured region with a calibration on
    each side; inside it a timer signal takes a sample every
    ``SAMPLE_EVERY`` seconds, whose time is left out of the region's.
    """

    SAMPLE_EVERY = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.first = 0  # index of the current region's first sample
        self.paused = 0.0  # sample time inside the current region
        self.on_sample = None  # called with each sample's time

    def calibrate(self) -> float:
        gc.collect()
        return self._sample()

    def _sample(self, *signal_args) -> float:
        if _stack_depth() > sys.getrecursionlimit() - RECURSION_HEADROOM:
            # reference() here would raise the program's RecursionError early
            return 0.0
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        self.paused += took
        if self.on_sample is not None:
            self.on_sample(took)
        return took

    def start(self) -> float:
        self.calibrate()
        self.first = len(self.samples) - 1
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY, self.SAMPLE_EVERY)
        return time.perf_counter()

    def stop(self, start: float) -> tuple[float, float]:
        """Raw and scaled seconds since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = time.perf_counter() - start - self.paused  # after any last sample
        self.calibrate()
        speed = statistics.fmean(self.samples[self.first:])
        return raw, raw * REFERENCE_S / speed


class Result:
    __slots__ = ("cls", "argv", "raw", "seconds", "status", "detail")

    def __init__(self, cmd, raw, seconds, status, detail=""):
        self.cls, self.argv = cmd.cls, cmd.argv
        self.raw, self.seconds = raw, seconds  # wall and scaled time
        self.status, self.detail = status, detail  # ok | crashed | wrong

    @property
    def scale(self) -> float:
        return self.seconds / self.raw


class Runner:
    def __init__(self, main, clock: Clock):
        self.main = main
        self.clock = clock
        self.caches = _caches()
        # Where the process's peak memory was reached: the record shows
        # whether peak_rss_mb is the program's or the harness's.
        self.setup_rss_mb = self.peak_mb = _max_rss_mb()
        self.peak_set_by = "setup"

    def _note_rss(self, phase: str) -> None:
        rss = _max_rss_mb()
        if rss > self.peak_mb:
            self.peak_mb, self.peak_set_by = rss, phase

    def run_for(self, commands, seconds: float) -> list[list[Result]]:
        """Whole passes while the next one is expected to fit; at least one."""
        start = time.perf_counter()
        passes = []
        while True:
            t = time.perf_counter()
            passes.append(self.run_pass(commands))
            now = time.perf_counter()
            if now - start + (now - t) > seconds:
                return passes

    def run_pass(self, commands, tracer=None) -> list[Result]:
        results = []
        for i, cmd in enumerate(commands):
            for cache in self.caches:
                cache.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            start = self.clock.start()  # also collects garbage
            span = tracer.begin_command(i) if tracer else None
            try:
                code = self.main(cmd.argv, stdout=out, stderr=err)
            except Exception as exc:  # a crash fails this command, not the run
                status, problem = "crashed", type(exc).__name__
            else:
                status = "ok"
                problem = (
                    None if code == cmd.exit_code
                    else f"exit code {code}, expected {cmd.exit_code}"
                )
            finally:
                if span:
                    tracer.end_command(span)
                raw, seconds = self.clock.stop(start)
                self._note_rss("command")
            if status == "ok" and problem is None:
                problem = cmd.check(out.getvalue())
                self._note_rss("check")
            if status == "ok" and problem is not None:
                status = "wrong"
            results.append(Result(cmd, raw, seconds, status, problem or ""))
        return results


def _caches():
    """Every lru_cache in the package, found before any tracing wraps it."""
    import cdlsem.cli  # noqa: F401  (imports every layer)

    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("cdlsem"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _wall(results) -> float:
    return sum(r.seconds for r in results)


def _failed_ratio(passes) -> float:
    results = [r for p in passes for r in p]
    return sum(1 for r in results if r.status != "ok") / len(results)


def _class_totals(passes, classes) -> dict[str, dict]:
    """Median over passes of the seconds spent in each subcommand class."""
    present = {r.cls for r in passes[0]}
    return {
        metric: {
            "value": statistics.median(
                sum(r.seconds for r in p if r.cls == cls) for p in passes
            ),
            "unit": "s",
        }
        for cls, metric in classes
        if cls in present
    }


def _tail(n: int) -> tuple[int, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its index.

    With fewer than 2 * TAIL_BEYOND samples no percentile above the median
    has that many beyond it, and the median is reported.
    """
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return pct, rank - 1
    return 50, math.ceil(n / 2) - 1


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cdlsem").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
