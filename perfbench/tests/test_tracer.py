"""Tracer self-test: wrappers see calls made inside the package, counts
are exact, and uninstalling restores every binding."""

import json

import ucgkit as U
from ucgkit import Graph, analysis, appendage, cli, scaffolds

from tracer import EXERCISED, METRICS, Tracer


def traced_call(fn):
    """Run ``fn()`` traced; ``fn`` must look traced names up at call
    time, as the benchmark's ops do."""
    tr = Tracer()
    assert tr.install() == []
    try:
        out = fn()
    finally:
        tr.uninstall()
    return tr, out


def test_wrappers_catch_from_import_bindings():
    c, p = Graph.complete(2), U.named_graph("2k2")
    tr, res = traced_call(lambda: U.appendage_number(c, p))
    m = tr.metrics(0.0)
    assert res.value == 2
    assert m["appendage.appendage_number.calls"] == 1
    # appendage binds these by ``from ... import``
    assert m["scaffolds.verify_construction.calls"] >= 1
    assert m["coverings.cov_A.calls"] == 1
    assert m["graphs.metric_profile.calls"] >= 1
    # scaffolds binds ucg_analysis by ``from .analysis import``
    assert m["analysis.ucg_analysis.calls"] == m["scaffolds.verify_construction.calls"]
    assert m["appendage.verify_per_answer"] >= 1
    assert m["graphs.Graph.calls"] >= 1 and m["graphs.dist.calls"] >= 1


def test_wrappers_catch_cli_bindings(tmp_path):
    out = tmp_path / "r.json"
    tr, code = traced_call(
        lambda: cli.main(["analyze", "--periphery", "c6", "--json", str(out)]))
    m = tr.metrics(0.0)
    assert code == 0 and json.loads(out.read_text())["result"]["is_ucg"] is False
    assert m["cli.run_command.calls"] == 1
    assert m["analysis.ucg_analysis.calls"] == 1
    assert m["codecs.encode_graph6.calls"] == 1


def test_dist_counts_computations_not_lookups():
    g = Graph.cycle(5)
    tr, _ = traced_call(lambda: (g.dist, g.dist, g.ecc, U.metric_profile(g)))
    m = tr.metrics(0.0)
    assert m["graphs.dist.calls"] == 1
    assert m["graphs.metric_profile.calls"] == 1


def test_witness_stream_counts_yields_and_times_next():
    g = U.named_graph("prism6")
    tr, first_two = traced_call(
        lambda: list(zip(range(2), U.iter_covering_witnesses(g, 2, ("A",)))))
    m = tr.metrics(0.0)
    assert len(first_two) == 2
    assert m["coverings.iter_covering_witnesses.yielded"] == 2
    assert m["coverings.iter_covering_witnesses.self_s"] > 0
    # the stream re-checks each witness through the public checker
    assert m["coverings.covering_passes.calls"] == 2


def test_self_time_excludes_traced_children():
    c, p = U.named_graph("p3"), U.named_graph("c6")
    tr, _ = traced_call(lambda: U.appendage_number(c, p))
    m = tr.metrics(0.0)
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0 < m["appendage.appendage_number.self_s"] < total


def test_uninstall_restores_every_binding():
    before = (scaffolds.ucg_analysis, appendage.verify_construction,
              Graph.__init__, Graph.__dict__["dist"], U.appendage_number)
    tr = Tracer()
    tr.install()
    assert scaffolds.ucg_analysis is not before[0]
    assert scaffolds.ucg_analysis is cli.ucg_analysis is analysis.ucg_analysis
    tr.uninstall()
    after = (scaffolds.ucg_analysis, appendage.verify_construction,
             Graph.__init__, Graph.__dict__["dist"], U.appendage_number)
    assert after == before


def test_declared_metrics_match_the_benchmark_file():
    from run import ROOT
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == METRICS
    for names in EXERCISED.values():
        assert set(names) <= set(METRICS)
