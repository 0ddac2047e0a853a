"""CLI behaviour: pinned invocations, formats, and exit codes."""

import json
import shlex
from pathlib import Path

import pytest

from webworlds.cli import main

PATH4_JSON = '{"n": 4, "edges": [[1,2,1,1],[2,3,2,1],[3,4,2,1]]}'
SINGLE_EDGE_JSON = '{"n": 2, "edges": [[1,2,1,1]]}'
PATH4_MIXING_CSV = (
    "1/3,-1/3,-1/3,1/3\n"
    "-1/6,1/6,1/6,-1/6\n"
    "-1/6,1/6,1/6,-1/6\n"
    "1/3,-1/3,-1/3,1/3\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_mixing_csv_from_file(tmp_path, capsys):
    path = tmp_path / "path4.json"
    path.write_text(PATH4_JSON)
    code, out, err = run(
        capsys, "matrix", "--kind", "mixing", "--input", str(path), "--format", "csv"
    )
    assert code == 0
    assert err == ""
    assert out == PATH4_MIXING_CSV
    rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


def test_world_of_single_edge(tmp_path, capsys):
    path = tmp_path / "single-edge.json"
    path.write_text(SINGLE_EDGE_JSON)
    code, out, _ = run(capsys, "world", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 1
    assert payload["diagrams"] == [[[1, 2, 1, 1]]]


def test_verify_case1_reports_the_trace_identity(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "case1", "--n", "3")
    assert code == 0
    assert "(n-1)! = 2 matches brute trace" in out
    assert all(line.startswith("PASS [case1]") for line in out.splitlines())


def test_case1_matrix_json(capsys):
    code, out, _ = run(capsys, "case1", "--n", "3", "--matrix", "mixing")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 6
    assert payload["kind"] == "rational"
    assert payload["entries"][0][0] == "1/3"


def test_case2_trace(capsys):
    code, out, _ = run(capsys, "case2", "--n", "2", "--trace")
    assert code == 0
    assert json.loads(out) == {"n": 2, "colouring": [0, 4, 10, 6], "mixing": "1"}


def test_case3_verify(capsys):
    code, out, _ = run(capsys, "case3", "--n", "3", "--verify")
    assert code == 0
    assert "PASS [case3]" in out
    assert "FAIL" not in out


def test_transitive_list_and_count(capsys):
    code, out, _ = run(capsys, "transitive", "--edges", "3", "--list")
    assert code == 0
    matrices = json.loads(out)
    assert len(matrices) == 5
    assert [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]] in matrices
    code, out, _ = run(capsys, "transitive", "--edges", "3")
    assert code == 0
    assert out == "3,5\n"


def test_enumerate_count_row(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--count", "nwwnip", "--pegs", "3", "--edges", "3", "--pairs", "2",
    )
    assert code == 0
    assert out == "3,3,2,6\n"


def test_enumerate_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-pegs", "2", "--max-edges", "2")
    assert code == 0
    assert json.loads(out) == [[[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 2], [0, 0]]]


def test_enumerate_transitive_filter(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--max-pegs", "4", "--max-edges", "3", "--exact-edges", "3",
        "--transitive",
    )
    assert code == 0
    assert len(json.loads(out)) == 5


def test_validate_reports_peg_heights(capsys):
    code, out, _ = run(capsys, "validate", "--input", PATH4_JSON)
    assert code == 0
    payload = json.loads(out)
    assert payload["pegs"] == [1, 2, 2, 1]
    assert payload["edge_count"] == 3


def test_trace_both_formats(capsys):
    code, out, _ = run(capsys, "trace", "--input", PATH4_JSON)
    assert code == 0
    assert json.loads(out) == {"size": 4, "colouring": [0, 4, 10, 6], "mixing": "1"}
    code, out, _ = run(capsys, "trace", "--input", PATH4_JSON, "--format", "csv")
    assert code == 0
    assert out == "0;4;10;6,1\n"


def test_posets_single_and_world(capsys):
    vee = '{"n": 4, "edges": [[1,2,1,1],[1,3,2,1],[2,4,2,1]]}'
    code, out, _ = run(capsys, "posets", "--input", vee)
    assert code == 0
    assert json.loads(out) == {"k": 3, "relations": [[1, 2], [1, 3]]}
    code, out, _ = run(capsys, "posets", "--input", PATH4_JSON, "--world")
    assert code == 0
    shapes = [tuple(map(tuple, p["relations"])) for p in json.loads(out)]
    assert sorted(shapes).count(((1, 2), (2, 3))) == 2


def test_world_input_shapes_agree(capsys):
    code, out_a, _ = run(capsys, "world", "--input", '{"represent": [[0, 2], [0, 0]]}')
    assert code == 0
    seed = '{"seed_diagram": {"n": 2, "edges": [[1,2,1,1],[1,2,2,2]]}}'
    code, out_b, _ = run(capsys, "world", "--input", seed)
    assert code == 0
    assert out_a == out_b
    assert json.loads(out_a)["size"] == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "matrix", "--kind", "colouring", "--input", PATH4_JSON)
    second = run(capsys, "matrix", "--kind", "colouring", "--input", PATH4_JSON)
    assert first == second


def test_domain_error_exits_one(capsys):
    code, out, err = run(capsys, "validate", "--input", '{"n": 2, "edges": [[1,2,1,3]]}')
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_malformed_input_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--input", "{not json")
    assert code == 2
    assert "not valid JSON" in err
    code, _, err = run(capsys, "validate", "--input", "/definitely/missing.json")
    assert code == 2
    code, _, err = run(capsys, "world", "--input", '{"mystery": 1}')
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--count", "nww", "--pegs", "3")
    assert code == 2


@pytest.mark.parametrize(
    "payload",
    [
        '{"edges": [[1,2,1]]}',
        '{"edges": "xy"}',
        '{"n": "a", "edges": []}',
        '{"represent": 5}',
        '{"seed_diagram": 3}',
        '{"edges": [[1,2,1,1.5]]}',
        '{"edges": [[1,2,true,1]]}',
    ],
)
def test_malformed_shapes_exit_two(capsys, payload):
    code, out, err = run(capsys, "validate", "--input", payload)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def _readme_examples():
    """(argv, expected stdout) for each `$ webworlds ...` line of the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for block in section.strip("\n").split("\n\n"):
        command, *output = block.split("\n")
        assert command.startswith("$ webworlds ")
        examples.append((shlex.split(command)[2:], "".join(line + "\n" for line in output)))
    return examples


def test_readme_examples_are_exact(capsys):
    examples = _readme_examples()
    assert len(examples) == 7
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == expected, argv


def test_guard_violations_exit_three(capsys):
    code, _, err = run(capsys, "world", "--input", PATH4_JSON, "--max-size", "2")
    assert code == 3
    code, _, err = run(capsys, "transitive", "--edges", "9")
    assert code == 3


def test_unknown_flag_exits_two_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["matrix", "--kind", "wat", "--input", PATH4_JSON])
    assert info.value.code == 2


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    import webworlds.verify as verify_module
    from webworlds.verify import CheckResult

    def fake_suite():
        return [CheckResult("stub", False, "forced mismatch")]

    monkeypatch.setitem(verify_module.SUITES, "transitive", fake_suite)
    code, out, _ = run(capsys, "verify", "--suite", "transitive")
    assert code == 1
    assert "FAIL [transitive] stub: forced mismatch" in out
