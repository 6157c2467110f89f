"""Run one benchmark workload of antinef and print its metrics.

    python3 bench/run.py --workload lattice-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  Every
workload is a closed loop with one caller in one thread: the next operation
starts when the previous one returns.  A run repeats whole rounds of the
same operations until ``--seconds`` have passed, checks every output, and
prints one JSON object as its last line.  ``--trace 0`` wraps nothing and
reports the end-to-end metrics; ``--trace 1`` wraps the program's public
functions and reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # numpy's thread pools stay at one thread

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 21  # setup_s is the median of this many set-ups
# Times are reported at the reference speed: the time of kernel_s() on the
# reference machine at its usual speed.  A shared machine's speed drifts by
# up to 70 % in spells of seconds; each time is scaled by the kernel's
# reference time over its time around the measured step (README.md).
KERNEL_REF_S = 1.7e-3
WINDOW = 5

import cli_session  # noqa: E402
import corpus_verify  # noqa: E402
import lattice_sweep  # noqa: E402
import tower_ideals  # noqa: E402
from reference import CheckFailed  # noqa: E402
from tracing import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402

WORKLOADS = {m.__name__.replace("_", "-"): m for m in (lattice_sweep, tower_ideals, cli_session, corpus_verify)}

# the scaling record: per-operation busy time by size class, and its growth
SCALING = {
    "lattice-sweep": (["graph.validate_graph", "lattice.canonical_cycle"],
                      [f"n{n}" for n in (*lattice_sweep.SIZES, lattice_sweep.LARGE)]),
    "tower-ideals": (["ideals.colon_and_core", "ideals.good_closure"],
                     [f"h{h}" for h, _, _ in tower_ideals.HEIGHTS]),
}
PROBES = 5  # subprocess probes for the CLI's start-up figures


def load(modules: list[str]) -> SimpleNamespace:
    """Import the program afresh from src/, so each set-up pays the import."""
    for key in [k for k in sys.modules if k == "antinef" or k.startswith("antinef.")]:
        del sys.modules[key]
    prog = SimpleNamespace(src=SRC)
    for name in modules:
        setattr(prog, name.rsplit(".", 1)[-1], importlib.import_module(name))
    return prog


class Tally:
    """Checks each operation's first output in full and requires every later
    output to equal it; counts attempted and failed operations."""

    def __init__(self, wl):
        self.wl = wl
        self.verified: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, i: int, op, raw) -> None:
        s = self.wl.summary(op, raw)
        if i not in self.verified:
            self.verified[i] = (s, self.wl.check(op, s, raw))
        elif s != self.verified[i][0]:
            raise CheckFailed(f"operation {i} gave another result than in its first round")
        self.attempted += 1
        self.failed += not self.verified[i][1]

    def finish(self) -> None:
        """The brute-force cross-checks, run after the timed loop so that
        their numpy buffers stay out of ``peak_rss_mb``."""
        for check in self.wl.later:
            check()


def kernel_s() -> float:
    """The time of a fixed piece of pure-Python work: the machine's speed now."""
    start = perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return perf_counter() - start


def at_reference_speed(times: list[float], kernels: list[float]) -> list[float]:
    """Scale each time to the reference speed.  kernels[i] ran just before
    times[i] and one more after the last; the speed for times[i] is the
    median of the kernel runs within WINDOW of it."""
    return [t * KERNEL_REF_S / statistics.median(kernels[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i, t in enumerate(times)]


@dataclass
class Timing:
    rounds: list[list[float]]  # operation times in s by round, at the reference speed
    raw: list[list[float]]  # the same as measured
    peak_mb: float  # this process's peak resident set after the first round


def measure(wl, run, seconds: float, tally: Tally, after=None) -> Timing:
    """Whole rounds of wl.ops until ``seconds`` have passed."""
    raw, kernels, peak_mb = [], [], 0.0
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        times = []
        for i, op in enumerate(wl.ops):
            kernels.append(kernel_s())
            start = perf_counter()
            out = run(op)
            times.append(perf_counter() - start)
            tally.record(i, op, out)
            if after is not None:
                after(out)
        raw.append(times)
        if len(raw) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if perf_counter() >= deadline:
            break
    kernels.append(kernel_s())
    flat = at_reference_speed([t for r in raw for t in r], kernels)
    n = len(wl.ops)
    return Timing([flat[k:k + n] for k in range(0, len(flat), n)], raw, peak_mb)


def setup(module, seed: int, work: Path, repeats: int = SETUPS):
    """The workload's inputs and the median time of the program's part of
    set-up: its import and what it builds before the first operation.  The
    benchmark's own recipes and expected results are made once, untimed."""
    plan = module.plan(seed, work)
    times, kernels = [], []
    for _ in range(repeats):
        gc.collect()
        kernels.append(kernel_s())
        start = perf_counter()
        prog = load(module.MODULES)
        made = module.prepare(prog, plan)
        times.append(perf_counter() - start)
    kernels.append(kernel_s())
    return prog, plan, module.build(prog, plan, made), statistics.median(at_reference_speed(times, kernels))


def declared(kind: str) -> list[str]:
    """The metric names BENCHMARK.json lists under ``kind``."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]]


def end_to_end(workload: str, wl, timing: Timing, setup_s: float) -> dict:
    rounds = timing.rounds
    ops_ms = sorted(t * 1e3 for r in rounds for t in r)
    cuts = statistics.quantiles(ops_ms, n=10, method="inclusive")
    round_s = statistics.median(sum(r) for r in rounds)
    above = sum(1 for t in ops_ms if t > cuts[8])
    print(f"# {workload}: {len(ops_ms)} operations in {len(rounds)} rounds; "
          f"{above} samples above the 90th percentile; median round {round_s:.3f} s at the reference speed, "
          f"{statistics.median(sum(r) for r in timing.raw):.3f} s as measured")
    return {
        "setup_s": (setup_s, "s"),
        # the largest CLI subprocess, or this process
        "peak_rss_mb": (wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else timing.peak_mb, "MB"),
        "round_s": (round_s, "s"),
        "op_p50_ms": (cuts[4], "ms"),
        "op_p90_ms": (cuts[8], "ms"),
        "ops_per_s": (len(wl.ops) / round_s, "1/s"),
    }


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def _cli_probes() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start_ms, import_ms, loaded = [], [], 0
    script = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); import antinef.cli; "
              "print(time.perf_counter() - t, len(sys.modules) - n)")
    for _ in range(PROBES):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start_ms.append((perf_counter() - t) * 1e3)
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        import_ms.append(float(out[0]) * 1e3)
        loaded = int(out[1])
    return {"cli.python_start_ms": (statistics.median(start_ms), "ms"),
            "cli.import_ms": (statistics.median(import_ms), "ms"),
            "cli.modules_loaded": (loaded, "count")}


def per_layer(workload: str, module, prog, plan, wl, seconds: float, tally: Tally) -> dict:
    """The traced run: an untraced half for the overhead, then a traced half."""
    out = {name: (0.0, "ms") for name in ("cli.python_start_ms", "cli.import_ms")}
    out["cli.modules_loaded"] = (0, "count")
    run = wl.run
    if workload == "cli-session":
        out.update(_cli_probes())
        run = wl.run_in_process
    plain = measure(wl, run, seconds / 2, tally).rounds

    tracer = Tracer()
    tracer.install()
    tracer.span("setup", module.prepare, prog, plan)
    setup_layers = tracer.layer_times()
    tracer.spans.clear()
    tracer.counts.clear()
    roots: dict[str, list[int]] = {}

    def traced(op):
        roots.setdefault(getattr(op, "size_class", None) or "all", []).append(len(tracer.spans))
        return tracer.span("op", run, op)

    def add_counts(raw):
        if hasattr(wl, "counts"):
            tracer.counts.update(wl.counts(raw))

    timing = measure(wl, traced, seconds / 2, tally, after=add_counts)
    rounds = timing.rounds
    n = len(rounds)
    layers = tracer.layer_times()
    for name in SPAN_NAMES:
        busy, own, calls = (setup_layers if name == "corpus.get" else layers).get(name, (0.0, 0.0, 0))
        scale = 1 if name == "corpus.get" else n
        out[f"{name}_ms"] = (busy / scale, "ms")
        out[f"{name}_self_ms"] = (own / scale, "ms")
    for name in COUNT_NAMES:
        out[name] = (tracer.counts.get(name, 0) / n, "count")
    out["lattice.pair_calls"] = (layers.get("lattice.pair", (0, 0, 0))[2] / n, "count")
    out["trace.spans"] = (len(tracer.spans) / n, "count")

    plain_s = statistics.median(sum(r) for r in plain)
    traced_s = statistics.median(sum(r) for r in rounds)
    out["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")

    if workload == "corpus-verify":
        for crit in prog.verify.CRITERIA:
            times = [r[i] for r in timing.raw for i, op in enumerate(wl.ops) if op == crit]
            out[f"verify.{corpus_verify.label(crit)}_s"] = (sum(times) / n, "s")
    else:
        out.update({name: (0.0, "s") for name in declared("per_layer") if name.startswith("verify.")})

    for wname, (names, classes) in SCALING.items():
        for name in names:
            per_op = []
            for cls in classes:
                ids = roots.get(cls, []) if wname == workload else []
                busy = tracer.busy_under(ids).get(name, 0.0) / len(ids) if ids else 0.0
                per_op.append(busy)
                out[f"{name}_ms.{cls}"] = (busy, "ms")
            sizes = [float(c[1:]) for c in classes]
            out[f"{name}_exponent"] = (_slope(sizes, per_op), "1")

    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload}-{os.getpid()}.json")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "antinef" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    tally = None
    correct, metrics = True, {}
    try:
        prog, plan, wl, setup_s = setup(module, args.seed, work)
        tally = Tally(wl)
        if args.trace:
            metrics = per_layer(args.workload, module, prog, plan, wl, args.seconds, tally)
        else:
            metrics = end_to_end(args.workload, wl, measure(wl, wl.run, args.seconds, tally), setup_s)
        tally.finish()
        missing = set(declared("per_layer" if args.trace else "end_to_end")) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {sorted(missing)}")
    except CheckFailed as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # the program crashed: report it as a wrong output
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted if tally else 0,
        "failed": tally.failed if tally else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
