"""ucgkit benchmark: one workload, one closed-loop client, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ucgkit is imported from ``src``.
Untraced (``--trace 0``) it times whole passes over the workload's fixed
batch until the next pass would end after ``--seconds`` (at least one
pass), and reports the end-to-end metrics; times are bounded at the
reference machine speed of ``speed.py``, and the measured times are in
the report line.  Traced (``--trace 1``) it
runs one untraced and one traced pass and reports the per-layer metrics.
Every answer is compared with ``reference.json`` and re-checked
independently with networkx outside the timed region before anything
is reported.  The last line of stdout is the result as one JSON object;
the line before it is a fuller report with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Set-ups measured per untraced run (this process plus children).
SETUPS = 5
#: Seconds between speed samples while setting up.
SETUP_PROBE_INTERVAL = 0.005
#: Failures logged per run; all of them are counted.
MAX_LOGGED = 20


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def percentiles(xs: list[float]) -> dict[int, float]:
    """The 50th and 99th percentiles, interpolated between samples, so a
    workload of few slow ops reads their mean and near-maximum."""
    if len(xs) < 2:
        return {50: xs[0], 99: xs[0]}
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    return {50: cuts[49], 99: cuts[98]}


class Tally:
    """Correctness bookkeeping over every pass of a run."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = self.failed = 0
        self.unresolved = self.answers = 0  # summed over passes
        self.logged: list[str] = []

    def fail(self, i: int, why: str):
        self.failed += 1
        if len(self.logged) < MAX_LOGGED:
            self.logged.append(f"{self.wl.name} op {self.wl.ids[i]}: {why}")

    def add(self, i: int, out, first: bool):
        """Compare op i's output with the reference; on a first pass also
        run the independent re-check."""
        import workloads

        self.attempted += 1
        got = self.wl.canon(i, out)
        u, a = workloads.count_unresolved(got)
        self.unresolved += u
        self.answers += a
        if isinstance(out, workloads.Raised) and got != "bound-exceeded":
            self.fail(i, f"raised {out.exc!r}")
        elif not workloads.answer_matches(got, self.reference[i]):
            self.fail(i, f"answer {got!r}, reference {self.reference[i]!r}")
        elif first and i in self.wl.checked:
            why = self.wl.check(i, out)
            if why:
                self.fail(i, why)

    def add_pass(self, outs: list, first: bool):
        for i, out in enumerate(outs):
            self.add(i, out, first)


def run_pass(thunks, probe: SpeedProbe | None = None) -> tuple[float, list[float], list]:
    """Run every op once, in order; returns (wall seconds, op latencies,
    outputs).  With a speed probe running, the time its samples take is
    left out of both."""
    import workloads

    outs, lat = [], []
    spent = (lambda: probe.spent) if probe else (lambda: 0.0)
    t_pass, s_pass = time.perf_counter(), spent()
    for op in thunks:
        if probe:
            probe.begin_op()
        t0, s0 = time.perf_counter(), spent()
        try:
            out = op()
        except Exception as exc:  # counted as a failure unless expected
            out = workloads.Raised(exc)
        lat.append(time.perf_counter() - t0 - (spent() - s0))
        outs.append(out)
    return time.perf_counter() - t_pass - (spent() - s_pass), lat, outs


def timed_setup(name: str, seed: int):
    """Set the workload up; returns it with the set-up time, measured
    and at the reference speed."""
    import workloads

    # set-up takes tens of milliseconds, and the speed swings within that
    with SpeedProbe(interval=SETUP_PROBE_INTERVAL) as probe:
        t0 = time.perf_counter()
        wl = workloads.setup(name, seed, ROOT)
        secs = time.perf_counter() - t0 - probe.spent
    return wl, secs, secs * probe.factor


def child_setup(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_ref_s"]


def environment() -> dict:
    import networkx

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "networkx": networkx.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(ROOT)}


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for ln in (git / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(wl, seconds: float, tally: Tally) -> dict[str, list[float]]:
    """Timed passes until the next one would take the measured time
    past ``seconds``; always at least one.  Returns per-pass wall times
    and speed factors, and every op's latency, measured and at the
    reference speed."""
    m: dict[str, list[float]] = {"walls": [], "factors": [], "lat": [], "lat_ref": []}
    while True:
        thunks = wl.prepare()
        with SpeedProbe() as probe:
            wall, lat, outs = run_pass(thunks, probe)
        lat_ref = [x * f for x, f in zip(lat, probe.op_factors())]
        m["walls"].append(wall)
        m["factors"].append(sum(lat_ref) / sum(lat))
        m["lat"] += lat
        m["lat_ref"] += lat_ref
        tally.add_pass(outs, first=len(m["walls"]) == 1)
        del outs
        if sum(m["walls"]) + statistics.median(m["walls"]) > seconds:
            return m


def traced(wl, tally: Tally) -> tuple[dict, dict]:
    from tracer import EXERCISED, WITNESSES, Tracer

    plain, _, outs = run_pass(wl.prepare())
    tally.add_pass(outs, first=True)
    del outs
    tr = Tracer()
    thunks = wl.prepare()
    missing = tr.install()
    try:
        wall, _, outs = run_pass(thunks)
    finally:
        tr.uninstall()
    tally.add_pass(outs, first=False)
    metrics = tr.metrics(wall / plain - 1.0)
    idle = [m for m in EXERCISED.get(wl.name, ()) if not metrics[m]]
    extra = {"untraced_wall_s": plain, "traced_wall_s": wall,
             "ratio_bases": tr.bases(), "witness_streams": tr.calls[WITNESSES],
             "not_found": missing, "expected_but_zero": idle}
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ucgkit" / "__init__.py").is_file():
        print(f"error: no ucgkit sources under {ROOT / 'src'}; run from a"
              " source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        wl, secs, ref = timed_setup(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": secs, "setup_ref_s": ref}))
        return 0

    wl, *first_setup = timed_setup(args.workload, args.seed)
    try:
        reference = json.loads(REFERENCE.read_text())[wl.name]["answers"]
        if len(reference) != len(wl.ids):
            print(f"error: reference has {len(reference)} answers, workload"
                  f" {wl.name} has {len(wl.ids)} ops", file=sys.stderr)
            return 2
        tally = Tally(wl, reference)
        report: dict = {"workload": wl.name, "seed": args.seed,
                        "ops_per_pass": len(wl.ids), **wl.notes}
        if args.trace:
            metrics, extra = traced(wl, tally)
            from tracer import METRICS
            result_metrics = {k: {"value": v, "unit": METRICS[k]}
                              for k, v in metrics.items()}
            report.update(extra)
        else:
            setups = [tuple(first_setup)] + [child_setup(wl.name, args.seed)
                                             for _ in range(SETUPS - 1)]
            m = measure(wl, args.seconds, tally)
            pct, ref = percentiles(m["lat"]), percentiles(m["lat_ref"])
            walls_ref = [w * f for w, f in zip(m["walls"], m["factors"])]
            values = {
                "setup_s": (statistics.median(ref for _, ref in setups), "s"),
                "wall_ref_s": (statistics.median(walls_ref), "s"),
                "op_p50_ref_ms": (1e3 * ref[50], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            report.update({
                "wall_s": statistics.median(m["walls"]), "op_p50_ms": 1e3 * pct[50],
                "op_p99_ms": 1e3 * pct[99], "op_p99_ref_ms": 1e3 * ref[99],
                "passes": len(m["walls"]),
                "pass_walls_s": m["walls"], "speed_factors": m["factors"],
                "setups_s": [raw for raw, _ in setups],
                "setups_ref_s": [ref for _, ref in setups], "op_samples": len(m["lat"]),
                "op_samples_beyond_p99": sum(x > pct[99] for x in m["lat"])})
    finally:
        wl.close()

    for line in tally.logged:
        print("FAIL", line, file=sys.stderr)
    report.update({
        "failed_frac": tally.failed / tally.attempted,
        "unresolved_frac": tally.unresolved / tally.answers,
        "unresolved_answers": [tally.unresolved, tally.answers],
        "env": environment(),
        "metrics": {k: v["value"] for k, v in result_metrics.items()},
    })
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
