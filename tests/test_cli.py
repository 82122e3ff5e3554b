import json
import os

import pytest

import ucgkit as U
from ucgkit.cli import build_parser, main, run_command


def run(argv):
    return run_command(argv)


class TestAnalyze:
    def test_periphery_gap_token(self):
        report, code = run(["analyze", "--periphery", "periphery_gap"])
        assert code == 0
        r = report["result"]
        assert r["is_ucg"] and r["radius"] == 3 and r["diameter"] == 5
        assert r["center"]["labels"] == ["c"]
        assert r["centered_periphery"]["labels"] == [f"p{i}" for i in range(1, 7)]
        assert r["periphery"]["labels"] == ["p0", "p1", "p2", "p5", "p6", "p7"]

    def test_result_is_the_analysis_json(self):
        # the CLI adds n and the periphery to UcgAnalysis.to_json()
        r = run(["analyze", "--periphery", "periphery_gap"])[0]["result"]
        g = U.named_graph("periphery_gap")
        assert r.pop("n") == g.n and r.pop("periphery")
        assert r == U.ucg_analysis(g).to_json()

    def test_deterministic_modulo_timing(self):
        a, _ = run(["analyze", "--periphery", "c6"])
        b, _ = run(["analyze", "--periphery", "c6"])
        a.pop("timing")
        b.pop("timing")
        assert a == b

    def test_file_input_graph6(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(U.encode_graph6(U.Graph.cycle(5)) + "\n")
        report, code = run(["analyze", "--periphery", str(path)])
        assert code == 0 and report["result"]["n"] == 5
        assert report["inputs"]["periphery"]["sha256"]

    def test_file_input_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        report, code = run(["analyze", "--periphery", str(path)])
        assert code == 0 and report["result"]["radius"] == 1

    def test_dot_export(self, tmp_path):
        dot = tmp_path / "g.dot"
        _, code = run(["analyze", "--periphery", "c4", "--dot", str(dot)])
        assert code == 0 and "--" in dot.read_text()

    def test_isolated_vertex_tokens_are_unlabelled(self):
        r = run(["analyze", "--periphery", "3k1"])[0]["result"]
        assert r["periphery"] == {"ids": [0, 1, 2]}

    def test_disconnected_reports_inf(self):
        report, _ = run(["analyze", "--periphery", "2k2"])
        assert report["result"]["radius"] == "inf"


class TestCover:
    def test_star_infeasible_exit_one(self):
        report, code = run(["cover", "--periphery", "k1_3"])
        assert code == 1
        assert report["result"]["A"]["value"] == "infeasible"

    def test_two_isolated_profile(self):
        report, code = run(["cover", "--periphery", "2k1"])
        assert code == 0
        assert {report["result"][k]["value"]
                for k in ("A", "AB", "A'", "A'B'", "AA''B''")} == {2}

    def test_decide_mode(self):
        report, code = run(["cover", "--periphery", "c7",
                            "--conditions", "a,b", "--k", "2"])
        assert code == 0
        assert report["result"]["decide"]["value"] == 2
        blocks = report["result"]["decide"]["witness"]["blocks"]
        assert sorted(map(sorted, blocks)) and len(blocks) == 2

    def test_unknown_condition_token_is_usage_error(self):
        assert main(["cover", "--periphery", "c7", "--conditions", "zz"]) == 2


class TestAppend:
    def test_pair(self):
        report, code = run(["append", "--center", "k2", "--periphery", "2k2"])
        assert code == 0
        assert report["result"]["value"] == 2
        assert report["result"]["witness"]["graph6"]

    def test_report_certificates_reverify_offline(self):
        # the report alone carries enough to recheck the claim: decode the
        # witness, recompute its analysis, compare against the role tags
        report, _ = run(["append", "--center", "k2", "--periphery", "2k2"])
        wit = report["result"]["witness"]
        g = U.decode_graph6(wit["graph6"])
        a = U.ucg_analysis(g)
        center = {v for v, role in enumerate(wit["roles"]) if role == "center"}
        periph = {v for v, role in enumerate(wit["roles"]) if role == "periphery"}
        assert a.is_ucg and a.center == center
        assert a.centered_periphery == periph
        assert len(a.intermediate) == report["result"]["value"]
        cov = report["result"]["certificates"]["witness_covering"]
        p = U.decode_graph6(report["inputs"]["periphery"]["graph6"])
        assert U.covering_passes(U.covering_from_json(p, cov), ("A", "B"))

    def test_infinite_exit_one(self):
        report, code = run(["append", "--center", "k2", "--periphery", "k1_3"])
        assert code == 1 and report["result"]["value"] == "inf"

    def test_center_only(self):
        report, code = run(["append", "--center", "p3"])
        assert code == 0 and report["result"]["value"] == 6

    def test_periphery_only(self):
        report, code = run(["append", "--periphery", "c6"])
        assert code == 0 and report["result"]["value"] == 1

    def test_bounded_interval_says_why_it_stopped(self):
        report, code = run(["append", "--center", "k2", "--periphery", "c5",
                            "--bound", "4"])
        assert code == 0
        assert report["result"]["value"] == {
            "unknown": True, "lo": 3, "hi": 4, "bound": 4, "stop": "vertex-bound"}


class TestConstruct:
    def test_scaffold_with_drop(self):
        report, code = run(["construct", "--center", "k2", "--periphery", "2k1",
                            "--rho", "1", "--drop", "1"])
        assert code == 0
        v = report["result"]["verification"]
        assert v["ok"] and v["intermediate_count"] == 2
        g = U.decode_graph6(report["result"]["scaffold"]["graph6"])
        assert g.n == 6

    def test_refined_construct(self):
        report, code = run(["construct", "--center", "p3", "--periphery", "2k1",
                            "--conditions", "a,a2,b2"])
        assert code == 0
        assert report["result"]["verification"]["ok"]
        assert report["result"]["covering"]["iota"] == 0

    def test_infeasible_covering_exit_one(self):
        report, code = run(["construct", "--center", "k2", "--periphery", "k1_3"])
        assert code == 1

    def test_default_rho_depends_on_center(self):
        rep_k2, _ = run(["construct", "--center", "k2", "--periphery", "2k1"])
        rep_p3, _ = run(["construct", "--center", "p3", "--periphery", "2k1"])
        assert rep_k2["result"]["verification"]["radius"] == 2
        assert rep_p3["result"]["verification"]["radius"] == 3

    @pytest.mark.parametrize("depth, message", [
        (["--drop", "9"], "error: droppable apex depths are 1..1, got [9]"),
        (["--rho", "0"], "error: rho must be >= 1, got 0"),
        (["--rho", "2", "--drop", "3"], "error: droppable apex depths are 1..2, got [3]")],
        ids=["drop", "rho", "drop-past-rho"])
    @pytest.mark.parametrize("search", [
        ["--periphery", "prism5", "--conditions", "a1,b1", "--k", "3"],
        ["--periphery", "k1_3"]], ids=["exhausted", "no-cov-A"])
    def test_depths_checked_before_the_search(self, search, depth, message,
                                              monkeypatch, capsys):
        # rho (its default from C) and its droppable apex depths are known
        # before any search, so a bad value is refused even where no
        # covering exists, and no search runs
        def searched(*args, **kwargs):
            raise AssertionError("searched for a covering")
        monkeypatch.setattr(U.cli, "decide_cover_k", searched)
        monkeypatch.setattr(U.cli, "cov_A", searched)
        assert main(["construct", "--center", "k2", *search, *depth]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_non_integer_drop_names_the_flag(self, capsys):
        assert main(["construct", "--center", "k2", "--periphery", "2k1",
                     "--drop", "1,x"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --drop takes a comma list of apex depths, got '1,x'"]


class TestOracle:
    def test_pair(self):
        report, code = run(["oracle", "--center", "k2", "--periphery", "2k2",
                            "--tmax", "2"])
        assert code == 0 and report["result"]["value"] == 2

    def test_tmax_past_the_bound_after_an_accepting_t(self):
        # t = 3 is past the default bound, but t = 2 accepts first
        report, code = run(["oracle", "--center", "k2", "--periphery", "2k2",
                            "--tmax", "3"])
        assert code == 0 and report["result"]["value"] == 2

    def test_infeasible_periphery(self):
        report, code = run(["oracle", "--center", "k2", "--periphery", "k1_3",
                            "--tmax", "1"])
        assert code == 1
        assert report["result"]["value"] is None
        assert report["result"]["provably_infinite"]


class TestFamilies:
    def test_emission(self, tmp_path):
        out = tmp_path / "fx"
        report, code = run(["families", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, entry in manifest.items():
            text = (out / f"{name}.g6").read_text().strip()
            assert text == entry["graph6"]
            U.decode_graph6(text)


class TestMainEntry:
    def test_json_to_stdout(self, capsys):
        assert main(["analyze", "--periphery", "c4"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema"] == "ucg-report/1"

    def test_json_to_file(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["analyze", "--periphery", "c4", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["result"]["radius"] == 2
        assert capsys.readouterr().out == ""

    def test_json_equals_form_to_file(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["analyze", "--periphery", "c4", f"--json={path}"]) == 0
        assert json.loads(path.read_text())["result"]["radius"] == 2
        assert capsys.readouterr().out == ""

    def test_parser_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["analyze", "--periphery", "no_such_thing_42"]) == 2
        assert "error" in capsys.readouterr().err

    def test_directory_input_is_usage_error(self, tmp_path, capsys):
        assert main(["analyze", "--periphery", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unwritable_json_path_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["analyze", "--periphery", "c4", "--json", str(path)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.out == ""
        assert not path.exists()

    def test_oversized_token_is_usage_error(self, capsys):
        assert main(["analyze", "--periphery", "p1001"]) == 2
        assert "more than 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1001 0\n", "~?Nh"])
    def test_oversized_file_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert main(["analyze", "--periphery", str(path)]) == 2
        assert "more than 1000" in capsys.readouterr().err

    def test_bad_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["analyze"]) == 2

    def test_env_bound_override(self, capsys, monkeypatch):
        # --bound sets the vertex bound; the environment no longer does
        argv = ["cover", "--periphery", "c7", "--conditions", "a,b"]
        assert main(argv + ["--bound", "3"]) == 2
        assert "exceeds bound" in capsys.readouterr().err
        plain, plain_code = run(argv)
        monkeypatch.setenv("UCG_BOUND", "3")
        report, code = run(argv)
        plain.pop("timing")
        report.pop("timing")
        assert code == plain_code == 0 and report == plain

    def test_block_count_is_capped_by_the_bound(self, capsys):
        # the pattern tables grow as 2^k, so k past the bound is refused
        argv = ["cover", "--periphery", "c5", "--conditions", "a,b", "--k"]
        assert main(argv + ["16"]) == 2
        assert "k=16 exceeds bound 10" in capsys.readouterr().err
        report, code = run(argv + ["10"])
        assert code == 0 and report["result"]["decide"]["value"] == 10

    def test_block_count_under_a_raised_bound(self):
        # k = 14 builds its 2^14-entry pattern tables in well under a second
        argv = ["cover", "--periphery", "c5", "--conditions", "a,b", "--k", "14",
                "--bound", "14"]
        report, code = run(argv)
        assert code == 0 and report["result"]["decide"]["value"] == 14

    @pytest.mark.parametrize("argv", [
        ["oracle", "--center", "k2", "--periphery", "2k2", "--tmax", "-1"],
        ["cover", "--periphery", "c5", "--bound", "-3"],
        ["append", "--center", "k2", "--periphery", "c5", "--bound", "0"],
        ["append", "--center", "k2", "--periphery", "c5", "--bound", "x"]])
    def test_out_of_range_integer_option_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cover", "--periphery", "c6", "--conditions", ",", "--k", "2"],
        ["cover", "--periphery", "c6", "--conditions", " , "],
        ["construct", "--center", "k2", "--periphery", "c6", "--conditions", " , "],
        ["construct", "--center", "k2", "--periphery", "c6", "--conditions", ","]],
        ids=["cover-comma", "cover-blanks", "construct-blanks", "construct-comma"])
    def test_conditions_naming_no_condition_is_usage_error(self, argv, capsys):
        # only commas or blanks name no condition: refused, not read as the
        # empty condition set (an empty value still means "not given")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--conditions names no condition" in err

    def test_empty_conditions_means_not_given(self):
        argv = ["construct", "--center", "k2", "--periphery", "c6"]
        (given, code), (absent, absent_code) = run(argv + ["--conditions", ""]), run(argv)
        assert code == absent_code == 0 and given["result"] == absent["result"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--periphery", "c5", "--bound", "7"],
        ["families", "--out", "{tmp}", "--bound", "3"],
        ["cover", "--periphery", "c7", "--k", "3"],
        ["construct", "--center", "k2", "--periphery", "c7", "--k", "3"],
        ["construct", "--center", "k2", "--periphery", "c7", "--bound", "5"],
        ["construct", "--center", "k2", "--periphery", "prism7",
         "--conditions", "a,a2,b2", "--drop", "9"],
        ["construct", "--center", "k2", "--periphery", "prism7",
         "--conditions", "a,b2", "--rho", "2"],
        ["append", "--center", "k2", "--bound", "5"],
        ["append", "--periphery", "c6", "--bound", "5"]],
        ids=["analyze-bound", "families-bound", "cover-k", "construct-k",
             "construct-bound", "refined-drop", "refined-rho", "center-only-bound",
             "periphery-only-bound"])
    def test_ignored_option_is_usage_error(self, argv, tmp_path, capsys):
        # an option the command would not read is refused, not dropped
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        flag = next(a for a in argv if a in ("--bound", "--k", "--drop", "--rho"))
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert out == "" and len(errors) == 1 and flag in errors[0]
        assert not list(tmp_path.iterdir())

    def test_exit_codes_match_run_command(self):
        assert main(["append", "--center", "k2", "--periphery", "k1_3"]) == 1
