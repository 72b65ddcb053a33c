"""Command-line interface: exit codes, file plumbing, end-to-end pipelines."""

from __future__ import annotations

import pytest

from gencaching import (
    Graph,
    graph_to_text,
    instance_from_text,
    reduction_from_text,
    reduction_to_text,
    service_from_text,
)
from gencaching import harness
from gencaching.cli import main
from mutations import base_output, mutate_a


def test_gen_writes_parseable_reduction(tmp_path, capsys):
    out = tmp_path / "k2.reduction"
    assert main(["gen", "--graph", "K2", "--model", "simple", "--out", str(out)]) == 0
    reduction = reduction_from_text(out.read_text())
    assert reduction.model == "simple"
    assert reduction.instance.capacity == 3
    assert capsys.readouterr().out == ""


def test_gen_accepts_graph_files(tmp_path):
    gpath = tmp_path / "wedge.graph"
    gpath.write_text("3 2\n0 2\n1 2\n")
    out = tmp_path / "wedge.reduction"
    assert main(["gen", "--graph", str(gpath), "--model", "fault", "--H", "2", "--out", str(out)]) == 0
    assert reduction_from_text(out.read_text()).d == 18


def test_gen_forced_emits_plain_instance(tmp_path):
    out = tmp_path / "k2.forced"
    assert main(["gen", "--graph", "K2", "--policy", "forced", "--out", str(out)]) == 0
    inst = instance_from_text(out.read_text())
    assert inst.policy == "forced"
    assert inst.capacity == 3 + 3


def test_pipeline_gen_verify_solve_extract(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    wit = tmp_path / "k2.service"
    main(["gen", "--graph", "K2", "--model", "simple", "--out", str(red)])

    assert main(["verify-properties", "--in", str(red)]) == 0
    capsys.readouterr()

    assert main(["solve", "--in", str(red), "--out", str(wit)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "optimal_savings 16"
    service_from_text(wit.read_text())  # parses

    assert main(["extract", "--in", str(red), "--service", str(wit)]) == 0
    assert capsys.readouterr().out.strip() in {"0", "1"}


def test_solve_brute_matches_exact(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    main(["gen", "--graph", "K2", "--model", "simple", "--out", str(red)])
    capsys.readouterr()
    assert main(["solve", "--in", str(red), "--brute"]) == 0
    assert "optimal_savings 16" in capsys.readouterr().out


def test_solve_prints_the_peak_layer(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    main(["gen", "--graph", "K2", "--model", "simple", "--out", str(red)])
    capsys.readouterr()
    assert main(["solve", "--in", str(red)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:] == ["peak_states 6", "peak_position 6"]


def test_verify_properties_fails_on_mutated_stream(tmp_path, capsys):
    bad = tmp_path / "bad.reduction"
    bad.write_text(reduction_to_text(mutate_a(base_output())))
    assert main(["verify-properties", "--in", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "a FAIL" in out


def test_construct_and_diagnose(tmp_path, capsys):
    red = tmp_path / "p3.reduction"
    svc = tmp_path / "p3.service"
    main(["gen", "--graph", "P3", "--model", "fault", "--H", "1", "--out", str(red)])
    assert main(["construct", "--in", str(red), "--vertices", "0,2", "--out", str(svc)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--in", str(red), "--service", str(svc)]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head == "block,edge,s,delta,gamma,epsilon,phi"


def test_construct_rejects_dependent_set(tmp_path, capsys):
    red = tmp_path / "p3.reduction"
    main(["gen", "--graph", "P3", "--model", "fault", "--H", "1", "--out", str(red)])
    assert main(["construct", "--in", str(red), "--vertices", "0,1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_construct_reports_missing_roles(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    main(["gen", "--graph", "K2", "--model", "fault", "--H", "1", "--out", str(red)])
    red.write_text(red.read_text().replace("\nH 1\n", "\nH 7\n"))
    assert main(["construct", "--in", str(red), "--vertices", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(0, 2, lead_in)" in err


def test_diagnose_rejects_a_sidecar_H_the_roles_lack(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    svc = tmp_path / "k2.service"
    main(["gen", "--graph", "K2", "--model", "fault", "--H", "1", "--out", str(red)])
    assert main(["construct", "--in", str(red), "--vertices", "0", "--out", str(svc)]) == 0
    red.write_text(red.read_text().replace("\nH 1\n", "\nH 7\n"))
    capsys.readouterr()
    assert main(["diagnose", "--in", str(red), "--service", str(svc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_diagnose_rejects_a_role_of_an_edge_the_graph_lacks(tmp_path, capsys):
    # P3 has edges 0 and 1; edge 2 wrote block 2's s row as (2, 1), not (1, 1).
    red = tmp_path / "p3.reduction"
    svc = tmp_path / "p3.service"
    main(["gen", "--graph", "P3", "--model", "fault", "--H", "1", "--out", str(red)])
    assert main(["construct", "--in", str(red), "--vertices", "0", "--out", str(svc)]) == 0
    text = red.read_text()
    assert "\ne0.1.lead_in lead_in 0 1 -\n" in text
    red.write_text(text.replace("\ne0.1.lead_in lead_in 0 1 -\n", "\ne0.1.lead_in lead_in 2 1 -\n"))
    capsys.readouterr()
    assert main(["diagnose", "--in", str(red), "--service", str(svc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: page 'e0.1.lead_in' has a role of edge 2")


def test_export_packing(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    main(["gen", "--graph", "K2", "--model", "fault", "--H", "1", "--out", str(red)])
    assert main(["export-packing", "--in", str(red)]) == 0
    assert capsys.readouterr().out.startswith("interval-packing 1\n")


@pytest.mark.parametrize("command", [["solve", "--brute"], ["export-packing"]])
def test_gap_table_limit_is_a_clean_error(tmp_path, capsys, command):
    inst = tmp_path / "big.instance"
    inst.write_text(
        "caching-instance 1\ncache 1\npolicy optional\nscale 1\npages 1\n"
        f"a 1 {2**63}\nblocks 0\nrequests 2\na -\na -\n"
    )
    assert main([*command, "--in", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: page a: size and cost must be below 2^63")


def test_oracle_is(capsys):
    assert main(["oracle-is", "--graph", "K1_3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "K 3"
    assert lines[1] == "1 2 3"


def test_roundtrip_command(capsys):
    assert main(["roundtrip", "--graph", "K2", "--model", "simple"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_roundtrip_command_refuses_past_the_oracle_guard(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("generate ran")

    monkeypatch.setattr(harness, "generate", never)
    path = tmp_path / "p25.txt"
    path.write_text(graph_to_text(Graph(25, tuple((v, v + 1) for v in range(24)))))
    assert main(["roundtrip", "--graph", str(path), "--model", "fault"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 25 vertices exceed the oracle guard of 24\n"


@pytest.mark.parametrize(
    "command, old, new, what",
    [
        ("diagnose", "v0 vertex - - 0", "v0 vertex 0 1 0", "a vertex role needs a vertex and no edge or group"),
        (
            "diagnose",
            "e0.1.lead_in lead_in 0 1 -",
            "e0.1.lead_in lead_in - 1 -",
            "a lead_in role needs an edge, a group of at least 1, no vertex",
        ),
        ("extract", "v0 vertex - - 0", "v0 vertex - - -", "a vertex role needs a vertex and no edge or group"),
        ("extract", "v0 vertex - - 0", "v0 vertex - - 7", "vertex 7 is not below n=3"),
        (
            "verify-properties",
            "e0.1.lead_in lead_in 0 1 -",
            "e0.1.lead_in lead_in 0 0 -",
            "a lead_in role needs an edge, a group of at least 1, no vertex",
        ),
    ],
)
def test_a_role_no_generator_writes_is_refused_at_its_line(tmp_path, capsys, command, old, new, what):
    # Each of these roles once passed: a wrong diagnostics CSV, a vertex set
    # of None or of a vertex the graph lacks, or (a)-(f) all passing.
    red, svc = tmp_path / "p3.reduction", tmp_path / "p3.service"
    assert main(["gen", "--graph", "P3", "--model", "fault", "--H", "1", "--out", str(red)]) == 0
    assert main(["construct", "--in", str(red), "--vertices", "0", "--out", str(svc)]) == 0
    lines = red.read_text().splitlines()
    at = lines.index(old)
    lines[at] = new
    red.write_text("\n".join(lines) + "\n")
    extra = [] if command == "verify-properties" else ["--service", str(svc)]
    assert main([command, "--in", str(red), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line {at + 1}: {what}\n"


def test_corpus_command_writes_csv(tmp_path, capsys):
    csv = tmp_path / "report.csv"
    assert main(["corpus", "--models", "simple", "--out", str(csv)]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split()[:2] == ["graph", "model"]
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 8
    assert all(line.split(",")[8] == "pass" for line in lines[1:])
    # simple is exact, so no optimum beats the independent set's threshold
    assert lines[0].split(",")[-1] == "excess"
    assert all(line.split(",")[-1] == "0" for line in lines[1:])


@pytest.mark.parametrize("models", [",", "", ",,"])
def test_corpus_command_rejects_an_empty_model_list(capsys, models):
    # An empty table would be a pass that checked nothing.
    assert main(["corpus", "--models", models]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "names no model" in err


def test_missing_file_is_a_clean_error(capsys):
    assert main(["solve", "--in", "/nonexistent/file"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.instance"
    bad.write_text("caching-instance 9\n")
    assert main(["solve", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_graph_text_helper_round_trips_corpus():
    text = graph_to_text(base_output().graph)
    assert text.splitlines()[0] == "3 2"


def test_bad_sidecar_is_reported_as_such(tmp_path, capsys):
    red = tmp_path / "k2.reduction"
    main(["gen", "--graph", "K2", "--model", "fault", "--H", "1", "--out", str(red)])
    red.write_text(red.read_text().replace("model fault", "model faulty"))
    assert main(["solve", "--in", str(red)]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_solve_refuses_k4_at_h3_from_the_slot_plan(tmp_path, capsys):
    red = tmp_path / "k4.reduction"
    assert main(["gen", "--graph", "K4", "--model", "fault", "--H", "3", "--out", str(red)]) == 0
    assert main(["solve", "--in", str(red)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 31 slots give 2^31 masks, past the budget of 5000000 states")
