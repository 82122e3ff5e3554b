"""Regenerate ``reference.json``: every workload's answers at seed 0.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only at a commit whose answers are trusted; the benchmark counts
every later answer that differs as a failure.  Each workload runs one
untimed pass, every answer gets the independent re-check, and the file
is written only if all of them pass and no op raised.
"""

from __future__ import annotations

import json
import sys

from run import HERE, REFERENCE, ROOT, Tally, run_pass

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def reference_for(name: str) -> dict:
    wl = workloads.setup(name, 0, ROOT)
    try:
        wl.checked = frozenset(range(len(wl.ids)))
        _, _, outs = run_pass(wl.prepare())
        answers = [wl.canon(i, out) for i, out in enumerate(outs)]
        tally = Tally(wl, answers)
        tally.add_pass(outs, first=True)
        if tally.failed:
            raise SystemExit("\n".join(tally.logged))
        entry = {"ops": len(answers), "unresolved_answers": [tally.unresolved, tally.answers]}
        if name == "verify_sweep":
            entry["ok_count"] = sum(a is True for a in answers)
        entry["answers"] = answers
        return entry
    finally:
        wl.close()


def main(names: list[str]) -> int:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or workloads.WORKLOADS:
        data[name] = reference_for(name)
        print(name, {k: v for k, v in data[name].items() if k != "answers"}, flush=True)
    REFERENCE.write_text(json.dumps(data, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
