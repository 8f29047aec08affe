#!/usr/bin/env python3
"""Self-check of the benchmark's output checks: a nudged output must fail.

    python3 perfbench/perturb.py

Runs one round of each workload (seed 0), confirms that its checks pass,
then changes one output at a time, by a small amount, and confirms that the
check of the operation that produced it now fails.  Exits 1 when a clean
round fails or a change goes unnoticed.
"""

import dataclasses
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def csv_nudge(filename: str, row: int, col: int, delta: float):
    """Add delta to one field of an output CSV (row 0 is the header)."""
    def apply(out: Path, results: list) -> None:
        path = out / filename
        lines = path.read_text(encoding="utf-8").split("\n")
        fields = lines[row].split(",")
        fields[col] = repr(float(fields[col]) + delta)
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
    return f"{filename} row {row} column {col} + {delta:g}", apply


def result_nudge(label: str, index: int, change):
    def apply(out: Path, results: list) -> None:
        results[index] = change(results[index])
    return label, apply


# workload -> [(label, change, index of the operation whose check must fail)]
NUDGES = {
    "joints_compare": [
        (*csv_nudge("pid.csv", 100, 1, 1e-6), 0),  # j1_q of the PID run
        (*csv_nudge("hpid_neg.csv", 4500, 8, 1e-4), 0),  # j3_u of an hPID run
        (*csv_nudge("pos.csv", 2, 2, 1e-6), 1),  # IVC_HPID of joint 2
        (*csv_nudge("neg.csv", 8, 3, 1e-6), 1),  # the l2_error row, hPID side
    ],
    "extended_sweep": [
        (*csv_nudge("f0_x1.csv", 300, 1, 1e-6), 0),  # x1 of a PID run
        (*csv_nudge("f1_x0.csv", 500, 2, 1e-6), 0),  # x2 of an hPID run
        (*csv_nudge("f8_dilated.csv", 700, 4, 1e-8), 0),  # u of a dilated run
    ],
    "certificate": [
        (*csv_nudge("g0.cert.csv", 5, 1, 1e-6), 0),  # p12
        (*csv_nudge("canon_pos.csv", 250, 4, 1e-8), 1),  # u of a canonical-norm run
        (*result_nudge("verify output with one FAIL", 2, lambda r: (r[0], r[1].replace("PASS", "FAIL", 1))), 2),
        (*result_nudge("decrease fraction - 0.01", 3, lambda r: (r[0], (r[1][0], r[1][1], dataclasses.replace(
            r[1][2], fraction=r[1][2].fraction - 0.01)))), 3),
    ],
}


def main() -> int:
    base = HERE.parent / ".perfbench_out" / f"perturb-{os.getpid()}"
    bad = 0
    try:
        for name, nudges in NUDGES.items():
            cfg = base / name / "configs"
            cfg.mkdir(parents=True)
            workload = WORKLOADS[name](0, cfg)
            out = base / name / "round0"
            out.mkdir()
            ops = workload.ops()
            results = [op.run(out) for op in ops]
            clean = workload.check(out, results)
            if any(clean) or any(code != 0 for code, _ in results):
                print(f"{name}: the clean round fails: {clean}")
                bad += 1
                continue
            for label, apply, index in nudges:
                snapshot = {p: p.read_bytes() for p in out.iterdir()}
                changed = list(results)
                apply(out, changed)
                found = workload.check(out, changed)[index]
                print(f"{name}: {label}: {'caught: ' + found[0] if found else 'NOT CAUGHT'}")
                bad += not found
                for p, data in snapshot.items():
                    p.write_bytes(data)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("all changes caught" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
