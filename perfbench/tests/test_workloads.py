"""Self-checks of the workloads, the correctness gate and the run script.

The per-workload test runs every workload's full batch twice, traced, at
a non-default seed (about two minutes on a 2-core machine).
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import workloads
from run import REFERENCE, ROOT, Tally, run_pass
from tracer import EXERCISED, Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def reference(name):
    return json.loads(REFERENCE.read_text())[name]["answers"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_reproduces_reference_and_traces_repeat(name):
    """At seed 1 every relabeling-invariant answer equals the seed-0
    reference and passes the independent re-check; two traced passes
    give identical counts, and the layers the workload is meant to
    exercise are all non-zero."""
    wl = workloads.setup(name, 1, ROOT)
    try:
        tally = Tally(wl, reference(name))
        counts = []
        for first in (True, False):
            tr = Tracer()
            thunks = wl.prepare()
            assert tr.install() == []
            try:
                _, _, outs = run_pass(thunks)
            finally:
                tr.uninstall()
            tally.add_pass(outs, first)
            m = tr.metrics(0.0)
            counts.append({k: v for k, v in m.items()
                           if k.endswith((".calls", ".yielded", "_ratio", "per_answer"))})
            assert [k for k in EXERCISED[name] if not m[k]] == []
    finally:
        wl.close()
    assert tally.logged == [] and tally.failed == 0
    assert counts[0] == counts[1]
    want = json.loads(REFERENCE.read_text())[name]["unresolved_answers"]
    assert [tally.unresolved // 2, tally.answers // 2] == want


def test_verify_sweep_ok_count_is_the_reference_count():
    ref = json.loads(REFERENCE.read_text())["verify_sweep"]
    assert ref["ops"] == 51887
    assert sum(a is True for a in ref["answers"]) == ref["ok_count"]


def _first_finite_append(wl):
    thunks = wl.prepare()
    for i, op_id in enumerate(wl.ids):
        if op_id.startswith("append:p3"):
            out = thunks[i]()
            if isinstance(out.value, int):
                return i, out
    raise AssertionError("no finite appendage answer")


def test_corrupted_reference_counts_a_failure():
    wl = workloads.setup("atlas_sweep", 2, ROOT)
    i, out = _first_finite_append(wl)
    ref = reference("atlas_sweep")
    good = Tally(wl, ref)
    good.add(i, out, first=True)
    assert good.failed == 0
    bad_ref = list(ref)
    bad_ref[i] = ref[i] + 1
    bad = Tally(wl, bad_ref)
    bad.add(i, out, first=True)
    assert bad.failed == 1 and bad.failed / bad.attempted > 0


@pytest.mark.parametrize("tamper", ["drop-edge", "swap-roles", "wrong-value"])
def test_tampered_witness_counts_a_failure(tamper):
    from ucgkit import Graph

    wl = workloads.setup("atlas_sweep", 3, ROOT)
    i, out = _first_finite_append(wl)
    g, roles, value = out.witness.graph, list(out.witness.roles), out.value
    if tamper == "drop-edge":
        g = Graph(g.n, g.edges[1:])
    elif tamper == "swap-roles":
        a, b = roles.index("center"), roles.index("periphery")
        roles[a], roles[b] = roles[b], roles[a]
    else:
        value += 1
    fake = SimpleNamespace(value=value, witness=SimpleNamespace(graph=g, roles=tuple(roles)))
    ref = list(reference("atlas_sweep"))
    ref[i] = value
    tally = Tally(wl, ref)
    tally.add(i, fake, first=True)
    assert tally.failed == 1, tally.logged


def test_verdict_check_rejects_a_flipped_verdict():
    wl = workloads.setup("verify_sweep", 4, ROOT)
    thunks = wl.prepare()
    ref = reference("verify_sweep")
    i = next(i for i in sorted(wl.checked) if ref[i] is True)
    s, rep = thunks[i]()
    assert wl.check(i, (s, rep)) is None
    flipped = SimpleNamespace(is_ucg=False, center_matches=rep.center_matches,
                              periphery_matches=rep.periphery_matches, ok=False,
                              radius=rep.radius, intermediate_count=rep.intermediate_count)
    assert wl.check(i, (s, flipped)) is not None


def test_oracle_report_check_rejects_a_wrong_digest():
    before = set(ROOT.glob(".perfbench-tmp-*"))
    wl = workloads.setup("oracle", 5, ROOT)
    try:
        (tmp,) = set(ROOT.glob(".perfbench-tmp-*")) - before
        code = wl.prepare()[0]()
        assert wl.check(0, code) is None
        path = tmp / "0.json"
        report = json.loads(path.read_text())
        report["inputs"]["periphery"]["m"] += 1
        path.write_text(json.dumps(report))
        assert "digest" in wl.check(0, code)
    finally:
        wl.close()
    assert not tmp.exists()


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_script_prints_the_contract_line(trace):
    proc = _run(ROOT, "--workload", "oracle", "--seed", "7", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    env = json.loads(lines[-2])["env"]
    assert set(env) == {"python", "networkx", "nproc", "cpu", "commit"}


def test_run_script_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "oracle", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_atlas_answers_are_relabeling_invariant():
    """atlas_sweep times the atlas labeling only; here every graph gets a
    seeded relabeling, and every appendage and cov_profile answer must
    still equal the reference, with witnesses networkx accepts."""
    import random

    import ucgkit as U
    import checks

    wl = workloads.setup("atlas_sweep", 0, ROOT)
    ref = reference("atlas_sweep")
    graphs = workloads.atlas_r2(U)
    rng = random.Random("relabel-test")
    perms = [workloads.seeded_perm(g.n, rng, 1) for g in graphs]
    centers = {"k2": U.Graph.complete(2), "p3": U.Graph.path(3)}
    bad = []
    for i, op_id in enumerate(wl.ids):
        kind, cname, gname = op_id.split(":")
        gi = int(gname[len("atlas"):])
        edges = workloads.relabel(graphs[gi].edges, perms[gi])
        g = workloads.graph_of(graphs[gi].n, edges)
        if kind == "append":
            out = U.appendage_number(centers[cname], g)
            got = workloads.canon_value(out.value)
            if isinstance(out.value, int):
                c = centers[cname]
                why = checks.witness_problem(out.witness.graph.n, out.witness.graph.edges,
                                             out.witness.roles, (c.n, c.edges),
                                             (g.n, edges), out.value)
                if why:
                    bad.append((op_id, why))
        else:
            got = {k: workloads.canon_value(r.value) for k, r in U.cov_profile(g).items()}
        if got != ref[i]:
            bad.append((op_id, got, ref[i]))
    assert bad == []
