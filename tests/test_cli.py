"""CLI behaviour: pinned invocations, formats, and exit codes."""

import hashlib
import json
import math
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


# a world with parallel edges: 2 edges on pegs 1-2, 1 on pegs 1-3
PARALLEL6_JSON = '{"represent": [[0,2,1],[0,0,0],[0,0,0]]}'
PARALLEL6_EXPORTS = {
    ("colouring", "json"): '{"size": 6, "kind": "polynomial", "entries": '
    "[[[0, 1, 3, 2], [0, 0, 2, 2], [], [], [0, 0, 1, 2], []], "
    "[[0, 0, 2, 2], [0, 1, 2, 2], [], [], [0, 0, 2, 2], []], "
    "[[0, 0, 2, 2], [0, 0, 2, 2], [0, 1, 1], [], [0, 0, 0, 2], [0, 0, 1]], "
    "[[0, 0, 1, 2], [0, 0, 2, 2], [0, 0, 1], [0, 1], [0, 0, 1, 2], [0, 0, 1]], "
    "[[0, 0, 1, 2], [0, 0, 2, 2], [], [], [0, 1, 3, 2], []], "
    "[[0, 0, 0, 2], [0, 0, 2, 2], [0, 0, 1], [], [0, 0, 2, 2], [0, 1, 1]]]}\n",
    ("colouring", "csv"): "0;1;3;2,0;0;2;2,0,0,0;0;1;2,0\n"
    "0;0;2;2,0;1;2;2,0,0,0;0;2;2,0\n"
    "0;0;2;2,0;0;2;2,0;1;1,0,0;0;0;2,0;0;1\n"
    "0;0;1;2,0;0;2;2,0;0;1,0;1,0;0;1;2,0;0;1\n"
    "0;0;1;2,0;0;2;2,0,0,0;1;3;2,0\n"
    "0;0;0;2,0;0;2;2,0;0;1,0,0;0;2;2,0;1;1\n",
    ("mixing", "json"): '{"size": 6, "kind": "rational", "entries": '
    '[["1/6", "-1/3", "0", "0", "1/6", "0"], ["-1/3", "2/3", "0", "0", "-1/3", "0"], '
    '["-1/3", "-1/3", "1/2", "0", "2/3", "-1/2"], ["1/6", "-1/3", "-1/2", "1", "1/6", "-1/2"], '
    '["1/6", "-1/3", "0", "0", "1/6", "0"], ["2/3", "-1/3", "-1/2", "0", "-1/3", "1/2"]]}\n',
    ("mixing", "csv"): "1/6,-1/3,0,0,1/6,0\n"
    "-1/3,2/3,0,0,-1/3,0\n"
    "-1/3,-1/3,1/2,0,2/3,-1/2\n"
    "1/6,-1/3,-1/2,1,1/6,-1/2\n"
    "1/6,-1/3,0,0,1/6,0\n"
    "2/3,-1/3,-1/2,0,-1/3,1/2\n",
}


@pytest.mark.parametrize("kind, fmt", sorted(PARALLEL6_EXPORTS))
def test_parallel_edge_matrix_exports_are_exact(capsys, kind, fmt):
    code, out, err = run(
        capsys, "matrix", "--input", PARALLEL6_JSON, "--kind", kind, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == PARALLEL6_EXPORTS[kind, fmt]


# sha256 of the stdout of larger exports: a 36-member world with parallel
# edges (3 edges on two pegs of three) and the chain and cycle case
# matrices at n = 3
EXPORT_SHA256 = {
    ("matrix", "colouring", "json"): "3a8cdc5aaea6cbf28238b9b9503875f62678854254a1c1b643448eac36a22e66",
    ("matrix", "colouring", "csv"): "03a92c47aec0af260bc9b4951324fb6ed645adfd990ba3d2d8e673f30cde4a8f",
    ("matrix", "mixing", "json"): "1617500c958239679da5a8cdf2d1f858f7e39da659aba047600a9f0aa5d74f36",
    ("matrix", "mixing", "csv"): "3709bbacc0d5828e8286bcf15649ce7c633ce23bc911c7ca148d3576977a20d3",
    ("case2", "colouring", "json"): "c64f31f370010c90274758296d45587b41cd6a2b68897580c9ae4546ad306deb",
    ("case2", "colouring", "csv"): "4dfc8a6ed0b9d48997a86b2ef298adcadad2b29ae00a29c1b68bed2d6223fde8",
    ("case2", "mixing", "json"): "ff672091085ff7e56422bfcff013e916b4d689e4789076f3c89a3d361eb066b1",
    ("case2", "mixing", "csv"): "0ddbd85681e1691d033b6da13f7d6dd7535e1be8f2b0841ae7053c0ffc219107",
    ("case3", "colouring", "json"): "5d651fc64e84905bbc0ccaaba3b4c2481ec10a68f1f008aaeda319371f1808b6",
    ("case3", "colouring", "csv"): "9619c1b0b2ffc599621ac6b1edb734098afdd2914c94f77e1e2818ab8aade198",
    ("case3", "mixing", "json"): "f6f68d5ba6b7ead94cdbfdb968f03c7283edd8c4c3dc249b4844ddfaaf8ad668",
    ("case3", "mixing", "csv"): "dfe56fc7173173692ffc0211e855ffb65d5baea36f96eeb18efce52630723ce7",
}


@pytest.mark.parametrize("command, kind, fmt", sorted(EXPORT_SHA256))
def test_matrix_exports_match_pinned_digests(capsys, command, kind, fmt):
    if command == "matrix":
        argv = ["matrix", "--input", '{"represent": [[0,2,1],[0,0,1],[0,0,0]]}', "--kind", kind]
    else:
        argv = [command, "--n", "3", "--matrix", kind]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_SHA256[command, kind, fmt]


def test_guard_violations_exit_three(capsys):
    code, _, err = run(capsys, "world", "--input", PATH4_JSON, "--max-size", "2")
    assert code == 3
    code, _, err = run(capsys, "transitive", "--edges", "9")
    assert code == 3


@pytest.mark.parametrize(
    "command, n, size", [("case1", "7", 5040), ("case2", "11", 2048), ("case3", "11", 2048)]
)
@pytest.mark.parametrize("kind", ["colouring", "mixing"])
def test_case_matrices_over_the_entry_guard_exit_three(capsys, monkeypatch, command, n, size, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("family built before the entry guard")

    # the guard must trip before any diagram or sign vector exists
    monkeypatch.setattr("webworlds.cases.fan_world", refuse)
    monkeypatch.setattr("webworlds.cases.sign_vectors", refuse)
    code, out, err = run(capsys, command, "--n", n, "--matrix", kind)
    assert (code, out) == (3, "")
    assert err == f"error: {size}x{size} matrix exceeds the 4000000-entry guard\n"


def test_case1_trace_needs_no_matrix(capsys):
    code, out, err = run(capsys, "case1", "--n", "7", "--trace")
    assert (code, err) == (0, "")
    # n! x (1 + x)^(n - 1) and (n - 1)!
    colouring = [0] + [5040 * math.comb(6, k) for k in range(7)]
    assert json.loads(out) == {"n": 7, "colouring": colouring, "mixing": "720"}


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
