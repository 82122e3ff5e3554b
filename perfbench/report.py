"""Run every workload once and print each end-to-end metric by name,
with its unit, after that workload's correctness checks have passed.

    python3 perfbench/report.py [--seed N] [--seconds S]

Exits 1 if any workload reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    status = 0
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{wl['name']}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result, report = json.loads(lines[-1]), json.loads(lines[-2])
        if not result["correct"]:
            print(f"{wl['name']}: {result['failed']} of {result['attempted']} ops"
                  f" failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print(f"{wl['name']} (seed {args.seed}, {report['passes']} passes,"
              f" {report['op_samples']} op samples, {report['env']['python']},"
              f" {report['env']['cpu']})")
        for name, m in result["metrics"].items():
            print(f"  {name:<16} {m['value']:>14.4f} {m['unit']}")
        for name, unit in (("op_p99_ref_ms", "ms"), ("wall_s", "s"), ("op_p50_ms", "ms"),
                           ("op_p99_ms", "ms")):
            note = "unbounded" if name == "op_p99_ref_ms" else "measured speed"
            print(f"  {name:<16} {report[name]:>14.4f} {unit} ({note})")
        print(f"  {'failed_frac':<16} {report['failed_frac']:>14.4f}"
              f" ({result['failed']}/{result['attempted']} ops)")
        u, a = report["unresolved_answers"]
        print(f"  {'unresolved_frac':<16} {report['unresolved_frac']:>14.4f}"
              f" ({u}/{a} answers)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
