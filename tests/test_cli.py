"""CLI behaviour: pinned invocations, formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import math
import shlex
import time
from pathlib import Path

import pytest

from webworlds import cli, enumeration, matrices, trace, web_world, world_matrices
from webworlds.cli import main
from webworlds.enumeration import seed_diagram

from conftest import NINE_EDGE_EDGES

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the fuzz test needs hypothesis; the rest do not
    given = None

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


def test_case2_verify_at_six_passes_every_check(capsys):
    code, out, err = run(capsys, "case2", "--n", "6", "--verify")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS [case2]") for line in lines)


def test_case2_verify_at_eight_is_refused_before_any_word(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a word was listed past the oracle guard")

    monkeypatch.setattr("webworlds.verify._surjections", refuse)
    code, out, err = run(capsys, "case2", "--n", "8", "--verify")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "guard" in err


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


def test_enumerate_count_of_an_impossible_cell_is_zero(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--count", "nww", "--pegs", "2", "--edges", "100000", "--pairs", "2",
    )
    assert code == 0
    assert out == "2,100000,2,0\n"


def test_enumerate_count_over_the_work_guard_exits_three(capsys):
    # the edges only enter as C(e - 1, q - 1), so this cell is cheap
    code, out, _ = run(
        capsys,
        "enumerate", "--count", "nww", "--pegs", "2", "--edges", "100000", "--pairs", "1",
    )
    assert code == 0
    assert out == "2,100000,1,1\n"
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        "enumerate", "--count", "proper", "--pegs", "400", "--edges", "400", "--pairs", "400",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "40000000-step guard" in err
    assert time.perf_counter() - started < 5


def test_enumerate_proper_count_past_the_digit_limit_exits_three(capsys):
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        "enumerate", "--count", "proper", "--pegs", "3", "--edges", "9" * 4299, "--pairs", "3",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "digit limit" in err
    assert "Traceback" not in err
    assert time.perf_counter() - started < 5


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
        '{"edges": 5}',
        '{"edges": null}',
        '{"edges": {}}',
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


def test_readme_library_python_runs():
    # the Library section's python blocks, in order and in one namespace
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert all(result.passed for result in namespace["results"])


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
    code, _, err = run(capsys, "transitive", "--edges", "9", "--list")
    assert code == 3
    code, _, err = run(capsys, "transitive", "--edges", "1000")
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


@pytest.mark.parametrize("command, work", [("case2", 761_266_176), ("case3", 4_037_017_600)])
def test_case_matrices_over_the_work_guard_exit_three(capsys, monkeypatch, command, work):
    def refuse(*args, **kwargs):
        raise AssertionError("family built before the work guard")

    # 4^10 cells pass the entry guard, but their pushes would take minutes
    monkeypatch.setattr("webworlds.cases.sign_vectors", refuse)
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--n", "10", "--matrix", "mixing")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: {work} estimated counting steps exceed the 40000000-step guard\n"


def test_case1_trace_needs_no_matrix(capsys):
    code, out, err = run(capsys, "case1", "--n", "7", "--trace")
    assert (code, err) == (0, "")
    # n! x (1 + x)^(n - 1) and (n - 1)!
    colouring = [0] + [5040 * math.comb(6, k) for k in range(7)]
    assert json.loads(out) == {"n": 7, "colouring": colouring, "mixing": "720"}


def test_trace_answers_past_the_world_guard(capsys):
    k5 = json.dumps({"represent": [[1 if j > i else 0 for j in range(5)] for i in range(5)]})
    started = time.perf_counter()
    code, out, err = run(capsys, "trace", "--input", k5)
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["size"], payload["mixing"]) == (7962624, "3420936")


def test_trace_of_parallel_edge_worlds(capsys):
    represent = '{"represent": [[0,2,1],[0,0,1],[0,0,0]]}'
    poly, mix = world_matrices(web_world(seed_diagram(((0, 2, 1), (0, 0, 1), (0, 0, 0)))))
    code, out, err = run(capsys, "trace", "--input", represent)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "size": poly.size,
        "colouring": list(trace(poly).coeffs),
        "mixing": str(trace(mix)),
    }
    nine = json.dumps({"n": 7, "edges": [list(e) for e in NINE_EDGE_EDGES]})
    code, out, err = run(capsys, "trace", "--input", nine, "--max-size", "9215")
    assert (code, out) == (3, "")
    assert err == "error: world has 9216 diagrams, guard is 9215\n"


def test_trace_of_a_six_edge_bundle(capsys):
    # 720 relabellings per kernel cell, most of them cut by the search:
    # the output of the full-matrix route
    bundle = json.dumps({"n": 2, "edges": [[1, 2, h, h] for h in range(1, 7)]})
    code, out, err = run(capsys, "trace", "--input", bundle)
    assert (code, err) == (0, "")
    assert out == '{"size": 720, "colouring": [0, 720, 532, 1002, 1920, 1920, 720], "mixing": "572"}\n'
    code, out, err = run(capsys, "trace", "--input", bundle, "--format", "csv")
    assert (code, out, err) == (0, "0;720;532;1002;1920;1920;720,572\n", "")


def test_trace_guards_work_not_cells(capsys):
    path16 = json.dumps({"edges": [[i, i + 1, 1 if i == 1 else 2, 1] for i in range(1, 17)]})
    started = time.perf_counter()
    code, out, err = run(capsys, "trace", "--input", path16)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: {3**16} estimated counting steps exceed the 40000000-step guard\n"
    # sixteen edges alone on their pegs beside two parallel ones: 3^16 down-set
    # pairs on the free edges, for each of 2 relabellings of 2 members
    lonely = [[1, 2, 1, 1], [1, 2, 2, 2]] + [[2 * i + 1, 2 * i + 2, 1, 1] for i in range(1, 17)]
    started = time.perf_counter()
    code, out, err = run(capsys, "trace", "--input", json.dumps({"edges": lonely}))
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    work = 4 * (18**2 + 6 * 3**16)
    assert err == f"error: {work} estimated counting steps exceed the 40000000-step guard\n"
    with pytest.raises(SystemExit) as info:
        main(["trace", "--input", PATH4_JSON, "--max-entries", "100"])
    assert info.value.code == 2
    assert "unrecognized arguments: --max-entries" in capsys.readouterr().err
    code, out, err = run(capsys, "trace", "--input", '{"n": 2, "edges": []}')
    assert (code, out) == (1, "")
    assert err == "error: matrices are defined for worlds with at least one edge\n"


@pytest.mark.parametrize("kind", ["colouring", "mixing"])
def test_matrix_guards_its_subset_pass(capsys, kind):
    # sixteen disjoint edges make a one-member world, but the subset pass
    # would still visit 3^16 subsets
    disjoint = json.dumps({"edges": [[2 * i + 1, 2 * i + 2, 1, 1] for i in range(16)]})
    started = time.perf_counter()
    code, out, err = run(capsys, "matrix", "--kind", kind, "--input", disjoint)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: {3**16} estimated counting steps exceed the 40000000-step guard\n"


@pytest.mark.parametrize("kind", ["colouring", "mixing"])
def test_matrix_checks_entries_before_building_the_world(capsys, monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("world built before the entry guard")

    monkeypatch.setattr("webworlds.cli.web_world", refuse)
    fan9 = json.dumps({"n": 10, "edges": [[i, 10, 1, i] for i in range(1, 10)]})
    started = time.perf_counter()
    code, out, err = run(capsys, "matrix", "--kind", kind, "--input", fan9)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == "error: 362880x362880 matrix exceeds the 4000000-entry guard\n"


HUGE = "1" * 3001
# inputs whose answer is out of reach or too long to print, and their refusals
OVERSIZED = {
    "case1 --n 2000 --trace": "an answer of up to 6338 digits exceeds the 4300-digit limit",
    "case2 --n 800 --trace": "161605255 estimated counting steps exceed",
    "case3 --n 2000 --trace": "1378440250 estimated counting steps exceed",
    "case1 --n 1000000 --trace": "1000000000000 estimated counting steps exceed",
    f"enumerate --count nww --pegs {HUGE} --edges 1 --pairs 1": "up to 6001 digits exceeds",
    f"case2 --n {HUGE} --matrix mixing": f"n = {HUGE} gives over 2^62 members",
    f"transitive --edges {HUGE}": "estimated series steps exceed",
    f"enumerate --max-pegs {HUGE} --max-edges 0": "estimated listing steps exceed",
    "enumerate --max-pegs 200 --max-edges 1": "42844139 estimated listing steps exceed",
    'validate --input {"n":1000000000,"edges":[]}': "peg count 1000000000 exceeds the 1000000-peg guard",
    'trace --input {"n":1000000000,"edges":[[1,2,1,1]]}': "peg count 1000000000 exceeds",
}


@pytest.mark.parametrize("command", sorted(OVERSIZED), ids=lambda c: c[:48])
def test_oversized_answers_exit_three_at_once(capsys, command):
    started = time.perf_counter()
    code, out, err = run(capsys, *command.split())
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and OVERSIZED[command] in err and "Traceback" not in err


def test_worlds_too_large_to_print_exit_three(capsys, monkeypatch):
    # a fan of 20,000 edges has 20000! members, past the 4300 digits that
    # Python turns into text; the hub's 20,000 right ends alone show
    # 20000! >= 2^19999, so the guard needs no factorial
    def refuse(n):
        raise AssertionError("exact world size computed before the guard")

    monkeypatch.setattr(math, "factorial", refuse)
    fan = json.dumps({"edges": [[i, 20001, 1, i] for i in range(1, 20001)]})
    for command in ["world", "matrix --kind mixing"]:
        started = time.perf_counter()
        code, out, err = run(capsys, *command.split(), "--input", fan)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, ""), command
        assert err == "error: world has at least 2^19999 diagrams, guard is 1000000\n"


def test_trace_of_a_huge_bundle_exits_three_before_any_factorial(capsys, monkeypatch):
    # 100,000 parallel edges: the label-one test picks the kernel route and
    # the world guard refuses it before prod m! is multiplied out
    def refuse(pairs):
        raise AssertionError("parallel runs computed before the guard")

    monkeypatch.setattr(matrices, "_parallel_runs", refuse)
    bundle = json.dumps({"n": 2, "edges": [[1, 2, h, h] for h in range(1, 100_001)]})
    code, out, err = run(capsys, "trace", "--input", bundle)
    assert (code, out) == (3, "")
    assert err == "error: world has at least 2^99999 diagrams, guard is 1000000\n"


def test_zero_count_cells_answer_at_once(capsys):
    started = time.perf_counter()
    cell = ["--pegs", "100000", "--edges", "5", "--pairs", "3"]
    code, out, err = run(capsys, "enumerate", "--count", "nwwnip", *cell)
    assert time.perf_counter() - started < 1.0
    assert (code, out, err) == (0, "100000,5,3,0\n", "")


def test_case_traces_keep_their_output(capsys):
    # `case1..3 --n 3..6 --trace` in both formats, one after another
    text = ""
    for case in ("case1", "case2", "case3"):
        for n in range(3, 7):
            for fmt in ("json", "csv"):
                code, out, err = run(capsys, case, "--n", str(n), "--trace", "--format", fmt)
                assert (code, err) == (0, "")
                text += out
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "b139e9ef7a2afad8db2cd127b3d9121abdd766786f8df4f0a417a6d8d07edbd1"


def test_counter_cells_of_the_benchmark_keep_their_values():
    # the closed_forms workload's counter cells: sha256 of the sorted JSON
    # list of [counter, pegs, edges, pairs, value]
    counters = ("count_worlds_series", "count_worlds_no_isolated", "count_proper_worlds")
    table = sorted(
        [name, pegs, edges, pairs, getattr(enumeration, name)(pegs, edges, pairs)]
        for name in counters
        for pegs in range(2, 7)
        for edges in range(1, 7)
        for pairs in range(1, edges + 1)
    )
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
    assert digest == "94de92400afb58e35db6e2aafe62e980ec9a015804ee9cb1f2b7b6853ec1d573"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert run(capsys, "trace", "--input", PATH4_JSON)[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["matrix", "--kind", "wat", "--input", PATH4_JSON])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["matrix", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: webworlds matrix")
    assert run(capsys, "world", "--input", PATH4_JSON, "--max-size", "2")[0] == 3
    assert run(capsys, "enumerate", "--count", "nww", "--pegs", "3")[0] == 2
    assert run(capsys, "case2", "--n", "2", "--verify")[0] == 0
    assert run(capsys, "matrix", "--kind", "mixing", "--format", "csv", "--input", PATH4_JSON)[0] == 0
    # nothing of the calls before leaks into this one
    argv = ["trace", "--input", PATH4_JSON]
    reused = run(capsys, *argv)
    assert len(builds) == 1
    fresh_args = build_parser().parse_args(argv)
    assert vars(cli._parser.parse_args(argv)) == vars(fresh_args)
    assert fresh_args.handler(fresh_args) == 0
    assert reused == (0, capsys.readouterr().out, "")
    assert reused[1] == '{"size": 4, "colouring": [0, 4, 10, 6], "mixing": "1"}\n'


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


# every subcommand that reads --input, with the flags it needs besides
FUZZED_COMMANDS = {
    "validate": ["validate"],
    "world": ["world"],
    "matrix": ["matrix", "--kind", "mixing"],
    "trace": ["trace"],
    "posets": ["posets"],
    "posets --world": ["posets", "--world"],
}

if given is not None:
    # near-diagrams: the input keys, small integers, and wrong types anywhere
    INPUT_KEYS = ("n", "edges", "seed_diagram", "represent", "other")

    def edge_rows(min_width, max_width):
        # one to four rows of small integers: edge lists, some of them valid
        row = st.lists(st.integers(0, 4), min_size=min_width, max_size=max_width)
        return st.lists(row, min_size=1, max_size=4)

    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-2, 5)
        | st.floats()
        | st.text(max_size=3)
        | edge_rows(3, 5),
        lambda inner: st.lists(inner, max_size=5)
        | st.dictionaries(st.sampled_from(INPUT_KEYS), inner, max_size=3),
        max_leaves=24,
    )
    json_objects = st.dictionaries(
        st.sampled_from(INPUT_KEYS), json_values, max_size=3
    ).map(json.dumps)
    # the same objects cut short, which no longer parse
    cut_objects = json_objects.flatmap(lambda text: st.integers(1, len(text)).map(lambda k: text[:k]))
    # diagram-shaped objects, which reach the diagram checks and sometimes pass them
    diagram_objects = st.fixed_dictionaries(
        {"edges": edge_rows(4, 4)}, optional={"n": st.integers(0, 5)}
    ).map(json.dumps)

    @pytest.mark.parametrize("command", sorted(FUZZED_COMMANDS))
    @settings(max_examples=10, deadline=5000)
    @given(payload=st.one_of(json_objects, cut_objects, diagram_objects))
    def test_malformed_json_exits_cleanly_fuzz(command, payload):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*FUZZED_COMMANDS[command], "--input", payload, "--max-size", "30"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error:"), err.getvalue()


# every integer flag, as commands with slots for up to three drawn values
INTEGER_COMMANDS = [
    *(f"{case} --n {{0}} --trace" for case in ("case1", "case2", "case3")),
    *(f"{case} --n {{0}} --matrix mixing" for case in ("case1", "case2", "case3")),
    *(f"enumerate --count {c} --pegs {{0}} --edges {{1}} --pairs {{2}}" for c in ("nww", "nwwnip", "proper")),
    "enumerate --max-pegs {0} --max-edges {1}",
    "enumerate --max-pegs {0} --max-edges {1} --exact-edges {2}",
    "transitive --edges {0}",
    "transitive --edges {0} --list",
]

if given is not None:
    # small values, and huge ones of either sign from 10 digits to past the
    # 4300 that argparse reads, as text: nothing from 10^9 up is answered slowly
    huge_values = st.builds(
        "".join,
        st.tuples(
            st.sampled_from(("", "-")),
            st.sampled_from("123456789"),
            st.text("0123456789", min_size=9, max_size=4400),
        ),
    )
    flag_values = st.one_of(st.integers(-3, 5).map(str), huge_values)

    @pytest.mark.parametrize("command", INTEGER_COMMANDS)
    @settings(max_examples=6, deadline=None)
    @given(values=st.tuples(flag_values, flag_values, flag_values))
    def test_integer_flags_exit_cleanly_fuzz(command, values):
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(command.format(*values).split())
            except SystemExit as exc:  # argparse refuses what it cannot read
                code = exc.code
        assert time.perf_counter() - started < 5.0
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert "error: " in err.getvalue(), err.getvalue()
