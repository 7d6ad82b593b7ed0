from __future__ import annotations

import json

import pytest

from hfactor.cli import main
from hfactor.constructions import bottle_graph, kr_minus
from hfactor.graphs import read_edge_list, write_class_labels, write_edge_list


@pytest.fixture()
def pattern_file(tmp_path):
    path = tmp_path / "k4m.txt"
    write_edge_list(kr_minus(4), path)
    return str(path)


@pytest.fixture()
def host_file(tmp_path):
    path = tmp_path / "bottle.txt"
    write_edge_list(bottle_graph(kr_minus(4)), path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_invariants(capsys, pattern_file):
    code, data = _run(capsys, ["invariants", pattern_file])
    assert code == 0
    assert data["chi"] == 3
    assert data["sigma"] == 1
    assert data["chi_cr"] == "8/3"
    assert data["D"] == [0, 1]
    assert data["hcf_is_one"] is True
    assert data["threshold_coefficient"] == "5/8"


def test_cli_invariants_infinite_hcf(capsys, tmp_path):
    from hfactor.graphs import complete_graph

    path = tmp_path / "k3.txt"
    write_edge_list(complete_graph(3), path)
    code, data = _run(capsys, ["invariants", str(path)])
    assert code == 0
    assert data["hcf_chi"] == "infinity"


def test_cli_pack_decision(capsys, pattern_file, host_file):
    code, data = _run(capsys, ["pack", "--pattern", pattern_file, "--host", host_file])
    assert code == 0
    assert data["decision"] == "exists"
    assert len(data["packing"]) == 2
    assert data["copies"] == 45
    assert data["cuts"] >= 0


def test_cli_pack_max(capsys, pattern_file, host_file):
    code, data = _run(capsys, ["pack", "--pattern", pattern_file, "--host", host_file, "--max"])
    assert code == 0
    assert data["max_packing_size"] == 2
    assert data["copies"] == 45
    assert data["cuts"] >= 0


def test_cli_construct_writes_files(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, data = _run(
        capsys, ["construct", "extremal-kr", "--r", "4", "--k", "2", "--out", str(out)]
    )
    assert code == 0
    g = read_edge_list(out)
    assert g.n == 8
    classes = json.loads((tmp_path / "g.txt.classes.json").read_text())["classes"]
    assert [len(c) for c in classes] == [1, 4, 3]


def test_cli_construct_canonical_and_pipeline(capsys, tmp_path):
    out = tmp_path / "k.txt"
    code, _ = _run(
        capsys,
        ["construct", "canonical", "--r", "4", "--q", "1", "--n", "16", "--out", str(out)],
    )
    assert code == 0
    trace = tmp_path / "trace.json"
    code, data = _run(
        capsys,
        ["pipeline", "--host", str(out), "--r", "4", "--trace", str(trace)],
    )
    assert code == 0
    assert data["decision"] == "exists"
    assert data["path"] == "pipeline"
    assert trace.exists()


def test_cli_pipeline_timeout_prints_the_stage_trace(capsys, tmp_path):
    from hfactor.generators import random_graph

    host = tmp_path / "g.txt"
    write_edge_list(random_graph(24, 0.5, 99), host)
    code, data = _run(
        capsys, ["pipeline", "--host", str(host), "--r", "4", "--budget-secs", "0"]
    )
    assert code == 2
    assert data["decision"] == "timeout"
    assert data["stage_trace"][-1] == {"stage": "solver", "result": "timeout"}


def test_cli_hallpack(capsys, tmp_path):
    from hfactor.graphs import complete_multipartite

    g = complete_multipartite([6, 2])
    host = tmp_path / "h.txt"
    write_edge_list(g, host)
    sidecar = tmp_path / "h.classes.json"
    write_class_labels(g, sidecar)
    code, data = _run(
        capsys,
        ["hallpack", "--host", str(host), "--classes", str(sidecar), "--q", "1", "--r", "3"],
    )
    assert code == 0
    assert data["decision"] == "exists"
    assert len(data["packing"]) == 2


def test_cli_tidy(capsys, tmp_path):
    from hfactor.constructions import CanonicalSpec, canonical_graph

    g = canonical_graph(CanonicalSpec(4, 1, 16))
    host = tmp_path / "g.txt"
    write_edge_list(g, host)
    sidecar = tmp_path / "sparse.json"
    sidecar.write_text(json.dumps({"classes": [list(range(6))]}))
    code, data = _run(
        capsys,
        ["tidy", "--host", str(host), "--sparse", str(sidecar), "--r", "4", "--tau", "1/100"],
    )
    assert code == 0
    assert data["n_star"] == 16
    assert data["removed"] == []


def test_cli_threshold_table(capsys):
    code, data = _run(capsys, ["threshold-table", "--r", "4", "--n-max", "16"])
    assert code == 0
    assert data["thresholds"] == {"4": 3, "8": 5, "12": 8, "16": 10}


@pytest.mark.parametrize(
    "argv,text",
    [
        (["pack", "--pattern", "{pattern}", "--host", "{bad}"], "4 1\n0 x\n"),
        (["pack", "--pattern", "{pattern}", "--host", "{bad}", "--max"], "3 1\n0 5\n"),
        (["invariants", "{bad}"], "2 1\n0 1\n7\n"),
        (["invariants", "{bad}"], None),
        (["hallpack", "--host", "{pattern}", "--classes", "{bad}", "--q", "1", "--r", "3"], "{"),
        (["hallpack", "--host", "{pattern}", "--classes", "{bad}", "--q", "1", "--r", "3"], "{}"),
        (
            ["hallpack", "--host", "{pattern}", "--classes", "{bad}", "--q", "1", "--r", "3"],
            '{"classes": [["a"]]}',
        ),
        (
            ["hallpack", "--host", "{pattern}", "--classes", "{bad}", "--q", "1", "--r", "3"],
            '{"classes": [0, 1]}',
        ),
        (["tidy", "--host", "{pattern}", "--sparse", "{bad}", "--r", "3", "--tau", "1/9"], "[]"),
        (
            ["tidy", "--host", "{pattern}", "--sparse", "{bad}", "--r", "3", "--tau", "1/9"],
            '{"classes": [[0.5]]}',
        ),
        (
            ["tidy", "--host", "{pattern}", "--sparse", "{bad}", "--r", "3", "--tau", "1/9"],
            '{"classes": "01"}',
        ),
    ],
    ids=[
        "non-integer",
        "out-of-range",
        "wrong-count",
        "missing-file",
        "bad-json",
        "classes-missing",
        "classes-non-integer",
        "classes-not-lists",
        "sparse-not-an-object",
        "sparse-non-integer",
        "sparse-not-a-list",
    ],
)
def test_cli_bad_input_is_a_one_line_error(capsys, tmp_path, pattern_file, argv, text):
    bad = tmp_path / "bad.txt"
    if text is not None:
        bad.write_text(text)
    argv = [a.format(pattern=pattern_file, bad=bad) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
