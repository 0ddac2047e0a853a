"""Command-line surface: build, export, enumerate, and cross-check.

Subcommands mirror the library layout. Inputs arrive as JSON, either
inline (the argument starts with "{") or as a path to a JSON file.
Three shapes are accepted wherever a world is needed:

    {"n": 4, "edges": [[1, 2, 1, 1], [2, 3, 2, 1]]}   a diagram
    {"seed_diagram": {"n": ..., "edges": [...]}}       world via a member
    {"represent": [[0, 1], [0, 0]]}                    world via its matrix

Exit codes: 0 success, 1 domain error or failed verification,
2 usage error (bad flags, unreadable or malformed input), 3 guard
violation (world or bound too large).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cases, enumeration, transitive
from .diagram import (
    DEFAULT_WORLD_GUARD,
    WebDiagram,
    check_world_size,
    diagram_from_json,
    diagram_to_json,
    predicted_world_size,
    web_world,
)
from .errors import BoundsTooLarge, MalformedInput, WebWorldsError, WorldTooLarge
from .matrices import (
    DEFAULT_ENTRY_GUARD,
    WorldMatrix,
    check_entry_guard,
    matrix_to_csv,
    matrix_to_json_text,
    polynomial_to_coeff_string,
    world_matrices,
    world_traces,
)
from .posets import decomposition_poset, poset_to_json, world_posets
from .verify import SUITES, run_suite


class UsageError(Exception):
    """Malformed input text or an input of the wrong shape."""


def _load_input(text: str) -> dict:
    if text.lstrip().startswith("{"):
        source, label = text, "inline input"
    else:
        try:
            source = Path(text).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {text}: {exc}") from exc
        label = text
    try:
        obj = json.loads(source)
    except ValueError as exc:
        raise UsageError(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{label} must be a JSON object")
    return obj


def _diagram_from_input(obj: dict) -> WebDiagram:
    if "edges" in obj:
        return diagram_from_json(obj)
    if "seed_diagram" in obj:
        return diagram_from_json(obj["seed_diagram"])
    if "represent" in obj:
        return enumeration.seed_diagram(obj["represent"])
    raise UsageError('input needs "edges", "seed_diagram", or "represent"')


def _emit_matrix(matrix: WorldMatrix, fmt: str) -> None:
    print(matrix_to_csv(matrix) if fmt == "csv" else matrix_to_json_text(matrix))


def _emit_traces(header: dict, poly_trace, mix_trace, fmt: str) -> None:
    poly_text = polynomial_to_coeff_string(poly_trace)
    if fmt == "csv":
        print(f"{poly_text},{mix_trace}")
    else:
        payload = dict(header)
        payload["colouring"] = list(poly_trace.coeffs)
        payload["mixing"] = str(mix_trace)
        print(json.dumps(payload))


def _cmd_validate(args: argparse.Namespace) -> int:
    diagram = _diagram_from_input(_load_input(args.input))
    payload = diagram_to_json(diagram)
    payload["pegs"] = list(diagram.peg_heights)
    payload["edge_count"] = diagram.edge_count
    print(json.dumps(payload))
    return 0


def _cmd_world(args: argparse.Namespace) -> int:
    world = web_world(_diagram_from_input(_load_input(args.input)), args.max_size)
    payload = {
        "n": world.num_pegs,
        "size": len(world),
        "diagrams": [[list(e) for e in key] for key in world.keys],
    }
    print(json.dumps(payload))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    diagram = _diagram_from_input(_load_input(args.input))
    # before the world is built: it may hold up to --max-size members
    check_entry_guard(check_world_size(diagram, args.max_size), args.max_entries)
    poly, mix = world_matrices(web_world(diagram, args.max_size), args.max_entries)
    _emit_matrix(poly if args.kind == "colouring" else mix, args.format)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    diagram = _diagram_from_input(_load_input(args.input))
    poly, mix = world_traces(diagram, args.max_size)
    _emit_traces({"size": predicted_world_size(diagram)}, poly, mix, args.format)
    return 0


def _cmd_posets(args: argparse.Namespace) -> int:
    diagram = _diagram_from_input(_load_input(args.input))
    if args.world:
        members = world_posets(web_world(diagram, args.max_size))
        print(json.dumps([poset_to_json(p) for p in members]))
    else:
        print(json.dumps(poset_to_json(decomposition_poset(diagram))))
    return 0


_COUNTERS = {
    "nww": enumeration.count_worlds_series,
    "nwwnip": enumeration.count_worlds_no_isolated,
    "proper": enumeration.count_proper_worlds,
}


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count is not None:
        missing = [f"--{name}" for name in ("pegs", "edges", "pairs") if getattr(args, name) is None]
        if missing:
            raise UsageError(f"--count needs {', '.join(missing)}")
        value = _COUNTERS[args.count](args.pegs, args.edges, args.pairs)
        print(f"{args.pegs},{args.edges},{args.pairs},{value}")
        return 0
    if args.max_pegs is None or args.max_edges is None:
        raise UsageError("listing needs --max-pegs and --max-edges")
    matrices = enumeration.enumerate_worlds(
        args.max_pegs,
        args.max_edges,
        exact_edges=args.exact_edges,
        no_isolated=args.no_isolated or args.transitive,
        proper_only=args.proper,
        predicate=transitive.is_transitive if args.transitive else None,
        max_matrices=args.max_matrices,
    )
    print(json.dumps([[list(row) for row in rows] for rows in matrices]))
    return 0


def _report(results, suite_name: str) -> int:
    bad = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} [{suite_name}] {result.name}: {result.detail}")
        bad += 0 if result.passed else 1
    return bad


_CASE_FAMILIES = {
    "case1": (cases.fan_matrices, cases.fan_traces),
    "case2": (cases.chain_matrices, cases.chain_traces),
    "case3": (cases.cycle_matrices, cases.cycle_traces),
}


def _cmd_case(args: argparse.Namespace) -> int:
    family = args.command
    matrices_fn, traces_fn = _CASE_FAMILIES[family]
    if args.verify:
        return 1 if _report(run_suite(family, args.n), family) else 0
    if args.trace:
        poly_trace, mix_trace = traces_fn(args.n)
        _emit_traces({"n": args.n}, poly_trace, mix_trace, args.format)
        return 0
    _, poly, mix = matrices_fn(args.n)
    _emit_matrix(poly if args.matrix == "colouring" else mix, args.format)
    return 0


def _cmd_transitive(args: argparse.Namespace) -> int:
    if args.list:
        matrices = transitive.transitive_matrices(args.edges)
        print(json.dumps([[list(row) for row in rows] for rows in matrices]))
    else:
        print(f"{args.edges},{transitive.count_transitive(args.edges)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bad = 0
    for name in names:
        bad += _report(run_suite(name, args.n), name)
    return 1 if bad else 0


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="JSON file path or inline JSON")
    sub.add_argument(
        "--max-size",
        type=int,
        default=DEFAULT_WORLD_GUARD,
        help="refuse to materialize worlds larger than this",
    )


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webworlds",
        description="Exact matrices, posets, and counts for web worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="canonicalize and describe a diagram")
    _add_input_options(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("world", help="list every diagram in a world")
    _add_input_options(p)
    p.set_defaults(handler=_cmd_world)

    p = sub.add_parser("matrix", help="colouring or mixing matrix of a world")
    _add_input_options(p)
    p.add_argument("--kind", choices=("colouring", "mixing"), required=True)
    p.add_argument("--max-entries", type=int, default=DEFAULT_ENTRY_GUARD)
    _add_format_option(p)
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("trace", help="traces of both matrices of a world")
    _add_input_options(p)
    _add_format_option(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("posets", help="decomposition poset(s) as cover relations")
    _add_input_options(p)
    p.add_argument(
        "--world",
        action="store_true",
        help="emit the poset of every world member instead of one diagram",
    )
    p.set_defaults(handler=_cmd_posets)

    p = sub.add_parser("enumerate", help="list or count worlds by size")
    p.add_argument("--max-pegs", type=int)
    p.add_argument("--max-edges", type=int)
    p.add_argument("--exact-edges", type=int)
    p.add_argument("--no-isolated", action="store_true")
    p.add_argument("--proper", action="store_true")
    p.add_argument(
        "--transitive",
        action="store_true",
        help="keep transitive worlds only (implies --no-isolated)",
    )
    p.add_argument("--max-matrices", type=int, default=enumeration.DEFAULT_MATRIX_GUARD)
    p.add_argument(
        "--count",
        choices=tuple(_COUNTERS),
        help="print one pegs,edges,pairs,count row instead of listing",
    )
    p.add_argument("--pegs", type=int)
    p.add_argument("--edges", type=int)
    p.add_argument("--pairs", type=int)
    p.set_defaults(handler=_cmd_enumerate)

    for family, blurb in (
        ("case1", "single-peg fan worlds indexed by permutations"),
        ("case2", "two-row chain worlds indexed by sign vectors"),
        ("case3", "two-row cycle worlds indexed by sign vectors"),
    ):
        p = sub.add_parser(family, help=blurb)
        p.add_argument("--n", type=int, required=True)
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--matrix", choices=("colouring", "mixing"))
        mode.add_argument("--trace", action="store_true", help="closed-form traces")
        mode.add_argument(
            "--verify", action="store_true", help="closed forms against brute force"
        )
        _add_format_option(p)
        p.set_defaults(handler=_cmd_case)

    p = sub.add_parser("transitive", help="transitive worlds with a given edge count")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument(
        "--list",
        action="store_true",
        help="print the matrices as JSON instead of an edges,count row",
    )
    p.set_defaults(handler=_cmd_transitive)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--n", type=int, help="narrow the case suites to one size")
    p.set_defaults(handler=_cmd_verify)

    return parser


# the parser of `main`, built on its first call: parsing leaves it as it
# was, so every later call reuses it, and importing the module builds nothing
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command and return its exit code; call it as often as needed."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except (WorldTooLarge, BoundsTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WebWorldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
