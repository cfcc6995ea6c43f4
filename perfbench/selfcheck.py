"""Determinism self-check of the benchmark's quality figures.

Run it from the root of a checkout:

    python3 perfbench/selfcheck.py --seed 7

For each workload it runs ``run.py`` three times with the shortest measuring
time: twice with ``--seed`` and once with ``--seed + 1``.  The deterministic
figures (``loss_per_subject``, ``mse_digits``, and ``solve_loss``,
``solve_mse_atrophy``, ``train_loss``, ``train_heldout_loss`` from the
record) must repeat bit-exactly for the same seed and must change with the
seed.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("loss_per_subject", "mse_digits", "solve_loss", "solve_mse_atrophy",
                 "train_loss", "train_heldout_loss")


def figures(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    record_line = proc.stdout.strip().splitlines()[-2]
    record = json.loads(record_line.removeprefix("record "))
    values = {k: v["value"] for k, v in record["metrics"].items()}
    values.update({k: v["value"] for k, v in record["named"].items()})
    if not record["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: "
                         f"{record['problems']}")
    return {k: values[k] for k in DETERMINISTIC if k in values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    ok = True
    for workload in ("solve", "train", "predict"):
        first, again, other = (figures(workload, s)
                               for s in (args.seed, args.seed, args.seed + 1))
        for name, value in first.items():
            repeats = value == again[name]
            changes = value != other[name]
            ok &= repeats and changes
            print(f"{workload:8s} {name:20s} {value!r:>24} "
                  f"repeats={'yes' if repeats else 'NO'} "
                  f"changes-with-seed={'yes' if changes else 'NO'}")
    print("determinism self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
