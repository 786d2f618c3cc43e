import json

import pytest

import majority_illusion.cli as cli
from majority_illusion import (
    InternalInvariantError,
    classify_network,
    is_weak_majority_coloring,
    parse_colored_graph,
    parse_graph,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cycle(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    g = parse_graph(out)
    assert g.degrees() == (2,) * 5


def test_gen_circulant_requires_offsets(capsys):
    code, _, err = run(capsys, "gen", "circulant", "6")
    assert code == 2
    assert "offsets" in err


def test_gen_circulant(capsys):
    code, out, _ = run(capsys, "gen", "circulant", "6", "--offsets", "1,3")
    assert code == 0
    assert parse_graph(out).is_regular(3)


def test_color_pipeline_produces_weak_coloring(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "cycle", "6")
    path = tmp_path / "g.txt"
    path.write_text(graph_text)
    code, out, _ = run(capsys, "color", str(path), "--mode", "weak")
    assert code == 0
    cg = parse_colored_graph(out)
    assert is_weak_majority_coloring(cg.graph, cg.colors)


def test_color_random_seed_is_deterministic(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "complete", "6")
    path = tmp_path / "g.txt"
    path.write_text(graph_text)
    _, out1, _ = run(capsys, "color", str(path), "--initial", "random", "--seed", "9")
    _, out2, _ = run(capsys, "color", str(path), "--initial", "random", "--seed", "9")
    assert out1 == out2


def test_analyze_reports_flags(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "flag unanimity-weak-majority yes" in out
    assert "flag majority-majority no" in out


def test_analyze_json_schema(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["network"]["flags"]["unanimity-weak-majority"] is True
    assert len(payload["agents"]) == 4


def test_analyze_derives_coloring_when_missing(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "cycle", "5")
    path = tmp_path / "c5.txt"
    path.write_text(graph_text)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "derived" in out
    assert "flag majority-weak-majority yes" in out


def test_analyze_pq_flags(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(path), "--p", "1", "--q", "1/2")
    assert code == 0
    assert "pq weak-p-weak-q yes" in out


def test_feasible_negative_verdict_cites_reason(capsys):
    code, out, _ = run(capsys, "feasible", "6", "4")
    assert code == 1
    assert "infeasible" in out
    assert "minority-pool" in out


def test_feasible_positive(capsys):
    code, out, _ = run(capsys, "feasible", "12", "6")
    assert code == 0
    assert "feasible" in out


def test_feasible_json_matches_text_verdict(capsys):
    code, out, _ = run(capsys, "feasible", "6", "3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["possible"] is False
    assert "minority-edge-capacity" in payload["failed"]


def test_construct_pipes_into_analyze(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "12", "6")
    assert code == 0
    report = json.loads(err)
    assert report["validated"] is True
    path = tmp_path / "witness.txt"
    path.write_text(out)
    code, out2, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "flag majority-majority yes" in out2


def test_construct_fast_variant(capsys):
    code, out, err = run(capsys, "construct", "10", "6", "--fast")
    assert code == 0
    cg = parse_colored_graph(out)
    assert cg.graph.is_regular(6)
    assert classify_network(cg).majority_majority


def test_construct_infeasible_exits_one(capsys):
    code, _, err = run(capsys, "construct", "6", "4")
    assert code == 1
    assert "minority-pool" in err


def test_oracle_min_monochromatic(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("n 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run(
        capsys, "oracle", str(path), "--objective", "min-monochromatic"
    )
    assert code == 0
    assert "score 1" in out


def test_oracle_cap_usage_error(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, _, err = run(capsys, "oracle", str(path), "--cap", "4")
    assert code == 2
    assert "cap" in err


def test_mc_preset_on_witness(capsys, tmp_path):
    _, witness, _ = run(capsys, "construct", "12", "6")
    path = tmp_path / "witness.txt"
    path.write_text(witness)
    code, out, _ = run(
        capsys, "mc", str(path), "--preset", "majority-majority", "--global"
    )
    assert code == 0
    assert out.strip() == "true"


def test_mc_formula_false_exits_one(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "mc", str(path), "--formula", "GM p", "--node", "0")
    assert code == 1
    assert out.strip() == "false"


def test_mc_valuation_file(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 3\n0 1\n1 2\n")
    vpath = tmp_path / "v.txt"
    vpath.write_text("0 p\n1 p q\n2\n")
    code, out, _ = run(
        capsys, "mc", str(gpath), "--formula", "E_1 p & ~E_2 p",
        "--node", "0", "--valuation", str(vpath),
    )
    assert code == 0


def test_mc_syntax_error_is_usage_error(capsys, tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, _, err = run(capsys, "mc", str(path), "--formula", "(p", "--node", "0")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("formula", [" | ".join(["p"] * 3000), "~" * 1000 + "p"])
def test_mc_deeply_nested_formula_is_usage_error(capsys, tmp_path, formula):
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ncolors RB\n0 1\n")
    code, _, err = run(capsys, "mc", str(path), "--formula", formula, "--global")
    assert code == 2
    assert err.startswith("error: formula nested too deep")
    assert err.count("\n") == 1


def test_internal_invariant_maps_to_exit_three(capsys, monkeypatch):
    def boom(n, k):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "construct_regular_illusion_report", boom)
    code, _, err = run(capsys, "construct", "12", "6")
    assert code == 3
    assert "synthetic" in err


def test_unexpected_exception_maps_to_exit_three(capsys, monkeypatch):
    def boom(n, k):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli, "construct_regular_illusion_report", boom)
    code, _, err = run(capsys, "construct", "12", "6")
    assert code == 3
    assert err == "internal error: RuntimeError: synthetic crash\n"


def test_oracle_rejects_graphs_wider_than_the_masks(capsys, tmp_path):
    _, graph_text, _ = run(capsys, "gen", "cycle", "33")
    path = tmp_path / "c33.txt"
    path.write_text(graph_text)
    code, _, err = run(capsys, "oracle", str(path), "--cap", "40")
    assert code == 2
    assert "32-bit" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.txt")
    assert code == 2


def test_analyze_text_and_json_agree_on_flags(capsys, tmp_path):
    samples = {
        "k4.txt": "n 4\ncolors RRBB\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
        "c4.txt": "n 4\ncolors RBRB\n0 1\n0 3\n1 2\n2 3\n",
        "path.txt": "n 3\ncolors RBR\n0 1\n1 2\n",
    }
    for name, text in samples.items():
        path = tmp_path / name
        path.write_text(text)
        _, text_out, _ = run(capsys, "analyze", str(path))
        _, json_out, _ = run(capsys, "analyze", str(path), "--format", "json")
        flags = json.loads(json_out)["network"]["flags"]
        for flag_name, value in flags.items():
            word = "yes" if value else "no"
            assert f"flag {flag_name} {word}" in text_out


def test_bad_subcommand_usage(capsys):
    assert cli.main(["frobnicate"]) == 2
