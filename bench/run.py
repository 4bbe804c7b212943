"""cmtype benchmark harness.

    python3 bench/run.py --workload classify-catalog --seed 1 --seconds 40 --trace 0

Runs the real CLI entry point ``cmtype.cli.main(argv)`` on the items of a
workload (see ``workloads.py`` and ``README.md``) in a closed loop: one item
at a time, each in a child forked from this process after it has imported
``cmtype``, so no state carries over from one item to the next and import
cost lands only in ``setup_s``.  At most two processes are alive at once.

Every output is checked against ``pins.json``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  ``--workload all`` runs every
workload in turn and prefixes each metric name with its workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import marshal
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from tracer import LAYER_METRICS, SPAN_NAMES, Tracer, item_layers
from workloads import WORKLOADS, corpus, pass_orders

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("item_geomean_ms", "ms"),
    ("slowest_item_ms", "ms"),
    ("completed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 9  # at least; one import is timed after every pass

# Timings are reported at a reference machine speed.  The shared host the
# benchmark was defined on changes speed by 20-40% from one minute to the
# next, which no number of repeats inside a 40 s run averages out.  So every
# timed operation is bracketed by a fixed pure-Python kernel (exact Fraction
# sums in a dict, the arithmetic cmtype spends its time in) and its wall time
# is scaled by REFERENCE_KERNEL_S over the mean of the two kernel times.
CALIBRATION_STEPS = 4000
REFERENCE_KERNEL_S = 0.015  # typical kernel time in a forked child on an Intel Xeon 2.1 GHz vCPU, CPython 3.11
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cmtype.cli; print(time.perf_counter() - t)"
)


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no sources, no pins)."""


def load_cmtype():
    if not (SRC / "cmtype" / "cli.py").is_file():
        raise HarnessError(f"no cmtype sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmtype.cli

    if Path(cmtype.cli.__file__).resolve().parent != SRC / "cmtype":
        raise HarnessError(f"imported cmtype from {cmtype.cli.__file__}, not {SRC}")
    return cmtype.cli


def load_pins() -> dict:
    with open(BENCH_DIR / "pins.json", encoding="utf-8") as handle:
        return json.load(handle)


def kernel_seconds() -> float:
    """Time of the calibration kernel.  The garbage collector is off while it
    runs, so its time does not depend on the heap the program left behind."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        sums: dict = {}
        for i in range(CALIBRATION_STEPS):
            key = (i % 7, i % 11)
            sums[key] = sums.get(key, 0) + Fraction(i, 1 + i % 17)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)


def import_seconds() -> float:
    """Import time of ``cmtype.cli`` in a fresh interpreter, at reference speed."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    before = kernel_seconds()
    seconds = float(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout)
    return at_reference_speed(seconds, before, kernel_seconds())


# ---------------------------------------------------------------------------
# one item in a forked child


def _child(cli, argv: list[str], traced: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    tracer = Tracer() if traced else None
    rc, tb = None, None
    before = kernel_seconds()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        tb = traceback.format_exc()
    wall = time.perf_counter() - start
    after = kernel_seconds()
    return {
        "rc": rc,
        "tb": tb,
        "out": out.getvalue(),
        "err": err.getvalue()[-2000:],
        "wall": wall,
        "s": at_reference_speed(wall, before, after),
        "scale": at_reference_speed(1.0, before, after),
        "spans": tracer.spans if tracer is not None else [],
    }


def run_item(cli, argv: list[str], traced: bool) -> dict:
    """Run ``cli.main(argv)`` in a forked child; wait for it to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            payload = marshal.dumps(_child(cli, argv, traced))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        wall = time.perf_counter() - started
        return {"rc": None, "tb": f"child ended with status {status}", "wall": wall, "s": wall, "scale": 1.0, "spans": [], "rss_kb": 0}
    result = marshal.loads(data)
    result["rss_kb"] = usage.ru_maxrss
    return result


# ---------------------------------------------------------------------------
# output checks


def text_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(doc: dict) -> str:
    """The canonical digest as the report format defines it: SHA-256 of the
    compact sorted JSON of everything but ``timings`` and the digest.  It is
    recomputed here, not imported, so the code under test cannot vouch for
    its own reports."""
    core = {k: v for k, v in doc.items() if k not in ("timings", "canonical_digest")}
    return text_digest(json.dumps(core, sort_keys=True, separators=(",", ":"), ensure_ascii=False))


class Checker:
    """Checks each item result and keeps the tally.

    An item completes on exit 0 with a well-formed report whose digest
    equals its pin or, for an item left unpinned, the digest it gave earlier
    in this run.  Exit 3 from an unpinned item is a budget exit: those items
    exited on a budget at the commit that made the pins, so the exit counts
    against ``completed_ratio`` only.  Anything else, a traceback included,
    fails.
    """

    def __init__(self, pins: dict[str, str | None]):
        self.pins = pins
        self.seen: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = self.completed = self.failed = 0

    def add(self, item, result) -> None:
        self.attempted += 1
        if result["rc"] == 3 and item.name in self.pins and self.pins[item.name] is None:
            return
        problem = self._problem(item, result)
        if problem is None:
            self.completed += 1
        else:
            self.fail(item, problem)

    def fail(self, item, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item.name}: {problem}")

    def _problem(self, item, result) -> str | None:
        if item.name not in self.pins:
            return "not in pins.json"
        if result["tb"]:
            return "traceback: " + result["tb"].strip().splitlines()[-1]
        if result["rc"] != 0:
            return f"exit {result['rc']}: {result['err'].strip()[-200:]}"
        try:
            doc = json.loads(result["out"])
        except ValueError:
            return "output is not JSON"
        if doc.get("command") != item.subcommand or doc.get("input_digest") != text_digest(item.text):
            return "report names another command or input"
        digest = doc.get("canonical_digest")
        if digest != report_digest(doc):
            return "canonical_digest does not match the report"
        pin = self.pins[item.name]
        if pin is not None and digest != pin:
            return f"digest {digest} differs from pin {pin}"
        if self.seen.setdefault(item.name, digest) != digest:
            return "digest differs from an earlier pass"
        return None


# ---------------------------------------------------------------------------
# a workload run


@contextlib.contextmanager
def input_files(items):
    """Write each item's presentation to a file; yield the CLI argv of each."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        argvs = []
        for k, item in enumerate(items):
            path = workdir / f"{k:02d}.ring"
            path.write_text(item.text, encoding="utf-8")
            argvs.append([item.subcommand, "--json", str(path)])
        yield argvs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(cli, items, argvs, order, traced: bool, checker: Checker):
    """One pass in the given item order; returns (wall seconds, results by item index)."""
    results = {}
    start = time.perf_counter()
    for i in order:
        result = run_item(cli, argvs[i], traced)
        checker.add(items[i], result)
        results[i] = result
    return time.perf_counter() - start, results


def _keep_going(started: float, walls: list[float], seconds: float) -> bool:
    """Start another pass (or pair of passes) only if its mean wall time still fits."""
    return time.perf_counter() - started + statistics.fmean(walls) <= seconds


def measure(cli, workload: str, seed: int, seconds: float, pins: dict):
    """Untraced passes until ``seconds`` is spent; the end-to-end metrics."""
    items = corpus(workload, seed)
    checker = Checker(pins[workload])
    orders = pass_orders(len(items), seed)
    walls, passes, latencies, scales, peak_kb, imports = [], [], defaultdict(list), [], 0, []
    import_seconds()  # untimed: compiles the byte code
    with input_files(items) as argvs:
        started = time.perf_counter()
        while not walls or _keep_going(started, walls, seconds):
            wall, results = run_pass(cli, items, argvs, next(orders), False, checker)
            walls.append(wall)
            passes.append(sum(result["s"] for result in results.values()))
            for i, result in results.items():
                latencies[i].append(result["s"])
                scales.append(result["scale"])
                peak_kb = max(peak_kb, result["rss_kb"])
            imports.append(import_seconds())
    while len(imports) < SETUP_SAMPLES:
        imports.append(import_seconds())
    medians = [statistics.median(latencies[i]) for i in range(len(items))]
    metrics = {
        "setup_s": statistics.median(imports),
        "pass_s": statistics.median(passes),
        "item_geomean_ms": 1000.0 * math.exp(statistics.fmean(math.log(m) for m in medians)),
        "slowest_item_ms": 1000.0 * max(medians),
        "completed_ratio": checker.completed / checker.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(
        f"{workload}: {len(items)} items x {len(passes)} passes, seed {seed}; median pass wall time "
        f"{statistics.median(walls):.3f} s; times below are at reference speed, "
        f"{statistics.median(scales):.3f} x this run's wall times"
    )
    return checker, _report(metrics, dict(END_TO_END))


def measure_traced(cli, workload: str, seed: int, seconds: float, pins: dict):
    """Alternating untraced and traced passes; the per-layer metrics."""
    probe = Tracer()
    probe.install(check_references=True)  # raises if any reference escapes the tracer
    probe.uninstall()
    items = corpus(workload, seed)
    checker = Checker(pins[workload])
    orders = pass_orders(len(items), seed)
    units = dict(LAYER_METRICS)
    counters = [name for name, unit in LAYER_METRICS if unit == "count"]
    walls, plain, traced, pass_layers, latencies, counts, spans = [], [], [], [], defaultdict(list), {}, []
    with input_files(items) as argvs:
        started = time.perf_counter()
        while not walls or _keep_going(started, walls, seconds):
            pair_started = time.perf_counter()
            _, results = run_pass(cli, items, argvs, next(orders), False, checker)
            plain.append(sum(result["s"] for result in results.values()))
            for i, result in results.items():
                latencies[i].append(result["s"])
            _, results = run_pass(cli, items, argvs, next(orders), True, checker)
            traced.append(sum(result["s"] for result in results.values()))
            walls.append(time.perf_counter() - pair_started)
            totals = defaultdict(float)
            for i, result in results.items():
                layers = item_layers(result["spans"])
                for name, value in layers.items():
                    totals[name] += value * result["scale"] if units[name] == "s" else value
                if counts.setdefault(i, [layers[c] for c in counters]) != [layers[c] for c in counters]:
                    checker.fail(items[i], "counters differ between passes")
                spans.append({"pass": len(traced) - 1, "item": items[i].name, "spans": result["spans"]})
            pass_layers.append(totals)

    metrics = {name: statistics.median(p[name] for p in pass_layers) for name in pass_layers[0]}
    metrics.update({name: int(metrics[name]) for name in counters})
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    trace_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "a", "b"],
                "span_names": SPAN_NAMES,
                "items": spans,
            },
            handle,
        )

    print(f"{workload} (traced): {len(items)} items x {len(traced)} traced passes, seed {seed}, spans in {trace_file}")
    print(f"  {'item':<20} {'median_ms':>10} {'gb.calls':>9} {'gb.distinct':>12} {'nf.calls':>9}")
    for i, item in enumerate(items):
        c = dict(zip(counters, counts[i]))
        print(
            f"  {item.name:<20} {1000 * statistics.median(latencies[i]):10.1f} "
            f"{c['groebner.buchberger.calls']:9d} {c['groebner.buchberger.distinct_ideals']:12d} "
            f"{c['groebner.normal_form.calls']:9d}"
        )
    return checker, _report(metrics, units)


def _report(metrics: dict, units: dict) -> dict:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        cli = load_cmtype()
        pins = load_pins()
    except (HarnessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    attempted = failed = 0
    metrics: dict = {}
    for workload in workloads:
        if ns.trace:
            checker, found = measure_traced(cli, workload, ns.seed, ns.seconds, pins)
        else:
            checker, found = measure(cli, workload, ns.seed, ns.seconds, pins)
        for problem in checker.problems:
            print(f"  FAILED {problem}", file=sys.stderr)
        attempted += checker.attempted
        failed += checker.failed
        prefix = f"{workload}." if ns.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in found.items()})

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
