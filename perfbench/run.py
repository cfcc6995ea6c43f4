"""atrosim benchmark: the solve, train and predict workloads and a traced run.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

It imports atrosim from the checkout's ``src/``; there is nothing to build.

``--trace 0`` runs the named workload untraced as a closed loop with one
client: set-up repeated ``setup_repeats`` times, then timed rounds for about
``--seconds`` seconds (never fewer than the workload's ``min_rounds``).  The
metrics are the ``end_to_end`` ones of BENCHMARK.json.

``--trace 1`` runs a fixed amount of each of the three workloads, first
untraced and then traced, and reports the ``per_layer`` metrics of
BENCHMARK.json together with the tracing overhead (traced minus untraced wall
time of the same rounds).  The spans are written to
``.perfbench-work/traces/`` when the run ends.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it starts with ``record`` and holds the full result record:
provenance, every metric by name and unit, the workload's metrics under
workload-specific names (``solve_s``, ``predict_p90_ms``, ...), and the
failures.  A copy goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


class _Discard:
    """stdout sink for the CLI's progress lines."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["solve", "train", "predict"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_atrosim():
    """Import atrosim from this checkout's sources and nowhere else."""
    package = SRC / "atrosim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no atrosim sources at {package}")
    sys.path.insert(0, str(SRC))
    import atrosim

    if Path(atrosim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported atrosim from {atrosim.__file__}, "
                         f"not from {package}")


def end_to_end(wl, seconds: float, books) -> tuple[dict, dict, dict]:
    setups = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)

    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.round(state, len(rounds))
        rounds.append(time.perf_counter() - t0)
        wl.check(state, len(rounds) - 1, out, books)
        elapsed = time.perf_counter() - start
        if len(rounds) >= wl.min_rounds and elapsed + statistics.median(rounds) > seconds:
            break

    quality = wl.quality(state)
    items = wl.items_per_round * len(rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "round_ms": 1e3 * statistics.median(rounds),
        "items_per_s": items / sum(rounds),
        "loss_per_subject": quality["loss_per_subject"],
        "mse_digits": quality["mse_digits"],
        "ok_ratio": (books.attempted - books.failed) / books.attempted,
    }
    named = {**wl.named_timing(rounds, items), **quality["named"]}
    detail = {"rounds": len(rounds), "items": items, "item": wl.item,
              "setup_s_samples": setups}
    return metrics, named, detail


def traced(seed: int, work_dir: Path, books, trace_path: Path) -> tuple[dict, dict, dict]:
    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer()
    overhead, walls = {}, {}
    for cls in WORKLOADS.values():
        wl = cls(seed, work_dir)
        tracer.run_id = f"setup/{wl.name}"
        tracer.install()
        try:
            state = wl.setup()
        finally:
            tracer.uninstall()
        wall = {}
        for on in (False, True):
            if on:
                tracer.install()
            try:
                wall[on] = 0.0
                for k in range(wl.trace_rounds):
                    tracer.run_id = f"{wl.name}/{k}"
                    t0 = time.perf_counter()
                    out = wl.round(state, k)
                    wall[on] += time.perf_counter() - t0
                    wl.check(state, k, out, books)
            finally:
                tracer.uninstall()
        overhead[wl.name] = wall[True] - wall[False]
        walls[wl.name] = {"untraced_s": wall[False], "traced_s": wall[True],
                          "rounds": wl.trace_rounds}
    tracer.dump(trace_path)
    metrics = tracing.layer_metrics(tracer.spans, overhead)
    detail = {"walls": walls, "spans_file": str(trace_path.relative_to(ROOT))}
    return metrics, {}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    import_atrosim()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import provenance
    from workloads import WORKLOADS, Books

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / f"run-{os.getpid()}"
    books = Books()
    try:
        with contextlib.redirect_stdout(_Discard()):
            if args.trace:
                metrics, named, detail = traced(
                    args.seed, work_dir, books, WORK / "traces" / f"{tag}.jsonl.gz")
            else:
                wl = WORKLOADS[args.workload](args.seed, work_dir)
                metrics, named, detail = end_to_end(wl, args.seconds, books)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json")
    result = {
        "correct": books.failed == 0,
        "attempted": books.attempted,
        "failed": books.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }
    named["fail_ratio"] = (books.failed / books.attempted, "ratio")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance.provenance(ROOT),
        **result,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "detail": detail,
        "problems": books.problems,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                  encoding="utf-8")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
