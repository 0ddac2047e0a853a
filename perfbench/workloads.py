"""The three benchmark workloads: seeded inputs, timed passes, exact checks.

Each workload object generates its inputs from the seed when it is
built (that is set-up) and runs one pass over them with ``run_pass``.
A pass times every item (one call or a short fixed sequence of calls
into the library) with the meter's clock, which leaves out the
host-speed kernel's samples, and checks every output exactly after the
item's clock has stopped.  Library functions are always looked up on their
module at call time, so a Tracer installed between passes sees every
call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import operator
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from webworlds import cases, cli, enumeration, matrices, posets, transitive
from webworlds import diagram as dg
from webworlds.errors import LabelNotOne, RepeatedBlocks

from speed import Meter


class Checks:
    """Exact output checks: counts every comparison and keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(label)
        return ok


@dataclass
class PassResult:
    """Timed part of one pass: each item's measured seconds, split into
    trace-side and matrix-side work."""

    meter: Meter
    parts: list[tuple[float, float]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def add(self, trace: float = 0.0, matrix: float = 0.0) -> None:
        """One item, whose time splits into trace-side and matrix-side work."""
        self.parts.append((trace, matrix))

    @property
    def wall_s(self) -> float:
        """Measured seconds of all items."""
        return sum(t + m for t, m in self.parts)

    def reference(self) -> list[tuple[float, float]]:
        """`parts` in seconds at reference speed: each over the pass's slowdown."""
        slowdown = self.meter.slowdown
        return [(t / slowdown, m / slowdown) for t, m in self.parts]


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten of `count` samples beyond it.

    None when that percentile would not lie above the median, in which
    case the tail is reported as the maximum.
    """
    p = math.floor(100 * (1 - 10 / count)) if count else 0
    return p if p > 50 else None


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q.

    A weighted mean of every order statistic, with weights from a
    Beta((n+1)q, (n+1)(1-q)) distribution.  Item latencies bunch by
    world size, so a single order statistic jumps between bunches from
    run to run; this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n  # midpoint rule on the Beta density, 64 points per order statistic
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def item_latencies_ms(items: list[float]) -> tuple[float, float]:
    """Median and tail item latency of one pass, in milliseconds."""
    ms = [s * 1000 for s in items]
    p = tail_percentile(len(ms))
    tail = max(ms) if p is None else harrell_davis(ms, p / 100)
    return harrell_davis(ms, 0.5), tail


# ---------------------------------------------------------------------------
# Second routes computed here, independent of the library.
# ---------------------------------------------------------------------------


def stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def ordered_bell_coeffs(e: int) -> tuple[int, ...]:
    """Coefficients of sum_k k! S(e, k) x^k, constant term first."""
    return (0,) + tuple(math.factorial(k) * stirling2(e, k) for k in range(1, e + 1))


def fubini(e: int) -> int:
    return sum(ordered_bell_coeffs(e))


def represent_rows(diagram) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * diagram.num_pegs for _ in range(diagram.num_pegs)]
    for e in diagram.edges:
        rows[e.left_peg - 1][e.right_peg - 1] += 1
    return tuple(map(tuple, rows))


def peg_loads(rows) -> list[int]:
    """Edge endpoints on each peg."""
    return [sum(row) + sum(r[i] for r in rows) for i, row in enumerate(rows)]


def orbit_size(rows) -> int:
    """Product of per-peg load factorials over parallel-edge factorials."""
    size = 1
    for load in peg_loads(rows):
        size *= math.factorial(load)
    for row in rows:
        for v in row:
            size //= math.factorial(v)
    return size


def diagonal_sum(matrix):
    return reduce(operator.add, (matrix.entries[i][i] for i in range(matrix.size)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep: a stratified sample of the <= 5-peg, <= 5-edge structure sweep.
# ---------------------------------------------------------------------------

SWEEP_PEGS = 5
SWEEP_EDGES = 5
SWEEP_WORLDS_BY_EDGES = {1: 1, 2: 7, 3: 60, 4: 310, 5: 1135}  # 1,513 in all
SWEEP_SAMPLE = 151  # about 1/10 of the sweep


def largest_remainder(sizes: dict, total: int) -> dict:
    """Split `total` over the keys in proportion to `sizes`, in whole numbers.

    Each key gets the floor of its quota; the units left over go to the
    largest fractional parts, ties broken by key order.
    """
    whole = sum(sizes.values())
    shares = {k: divmod(total * n, whole) for k, n in sizes.items()}
    spare = total - sum(q for q, _ in shares.values())
    ranked = sorted(shares, key=lambda k: -shares[k][1])
    return {k: q + (k in ranked[:spare]) for k, (q, _) in shares.items()}


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, checks: Checks) -> None:
        strata = defaultdict(list)
        for rows in enumeration.enumerate_worlds(SWEEP_PEGS, SWEEP_EDGES, no_isolated=True):
            edges = sum(map(sum, rows))
            if edges:
                strata[(edges, orbit_size(rows), tuple(sorted(peg_loads(rows))))].append(rows)
        strata = dict(sorted(strata.items()))
        by_edges = Counter()
        for (edges, *_), worlds in strata.items():
            by_edges[edges] += len(worlds)
        checks.check(by_edges == SWEEP_WORLDS_BY_EDGES, f"sweep worlds by edge count {dict(by_edges)}")
        self.bell = {e: matrices.ordered_bell_polynomial(e) for e in SWEEP_WORLDS_BY_EDGES}
        for e, poly in self.bell.items():
            checks.check(poly.coeffs == ordered_bell_coeffs(e), f"ordered Bell polynomial e={e}")

        # proportional to the edge counts, and within one edge count to
        # the strata of equal world size and peg loads; the counts per
        # stratum, and so the members, entries and colourings of the
        # sample, are the same whatever the seed, and only which worlds
        # are drawn changes (peg loads set which slots react to a
        # colouring, so worlds of one stratum cost about the same)
        quota = {}
        for edges, count in largest_remainder(by_edges, SWEEP_SAMPLE).items():
            sizes = {key: len(worlds) for key, worlds in strata.items() if key[0] == edges}
            quota.update(largest_remainder(sizes, count))
        rng = random.Random(f"sweep:{seed}")
        picked = []
        for key, worlds in strata.items():
            picked.extend(rng.sample(worlds, quota[key]))
        # shuffled so that worlds of one size are spread over the pass: a
        # burst of machine noise then hits a few worlds of every size, not
        # every world of one size, which would move a percentile
        rng.shuffle(picked)
        self.inputs = [(rows, enumeration.seed_diagram(rows)) for rows in picked]

    def run_pass(self, checks: Checks, meter: Meter) -> PassResult:
        out, clock = PassResult(meter), meter.clock
        for rows, representative in self.inputs:
            t0 = clock()
            world = dg.web_world(representative)
            colouring, mixing = matrices.world_matrices(world)
            t1 = clock()
            colouring_sums = matrices.row_sums(colouring)
            mixing_sums = matrices.row_sums(mixing)
            idempotent = matrices.is_idempotent(mixing)
            trace = matrices.trace(mixing)
            rank = matrices.rank(mixing)
            proper = enumeration.is_proper(world[0])
            diagonals = []
            for i, member in enumerate(world):
                try:
                    poset = posets.decomposition_poset(member)
                    diagonals.append(
                        (
                            i,
                            posets.diagonal_colouring_polynomial(poset),
                            posets.diagonal_mixing_value(poset),
                        )
                    )
                except (LabelNotOne, RepeatedBlocks):
                    continue
            t2 = clock()
            out.add(trace=t2 - t1, matrix=t1 - t0)

            edges = world.edge_count
            size = len(world)
            out.counts["diagram.members"] += size
            out.counts["matrices.entries"] += size * size
            out.counts["matrices.fubini_work"] += size * fubini(edges)
            label = repr(rows)
            checks.check(size == orbit_size(rows), f"{label} world size {size}")
            checks.check(all(s == self.bell[edges] for s in colouring_sums), f"{label} M row sums")
            unit = Fraction(1 if edges == 1 else 0)
            checks.check(all(s == unit for s in mixing_sums), f"{label} R row sums")
            checks.check(idempotent, f"{label} R idempotent")
            integral = trace == rank and Fraction(trace).denominator == 1 and trace >= 0
            checks.check(integral, f"{label} trace {trace} rank {rank}")
            checks.check((trace > 0) == proper, f"{label} trace {trace} proper {proper}")
            for i, poly, mix in diagonals:
                ok = colouring.entries[i][i] == poly and mixing.entries[i][i] == mix
                checks.check(ok, f"{label} member {i} diagonal formulas")
        return out


# ---------------------------------------------------------------------------
# big_worlds: the CLI's trace and matrix commands on three large worlds.
# ---------------------------------------------------------------------------

# (command, family, n): fan n has n! members, chain and cycle n have 2^n
BIG_COMMANDS = (
    ("trace", "fan", 5),
    ("trace", "cycle", 6),
    ("trace", "chain", 5),
    ("matrix", "fan", 5),
    ("matrix", "cycle", 6),
)
# sha256 of `webworlds matrix --kind mixing --format json` on each world,
# whichever member is the input
MIXING_JSON_SHA256 = {
    ("fan", 5): "ef021d0582f3259b80746cdb17bd2bf63551d8ef08ae01dda1fef74dbf381fdc",
    ("cycle", 6): "c4f976377ce49e3a9bd6bb3f64c4637797ec9542a6acaa761677e8c7613773c1",
}


def _cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class BigWorlds:
    name = "big_worlds"

    def __init__(self, seed: int, checks: Checks) -> None:
        rng = random.Random(f"big_worlds:{seed}")
        self.inputs = []
        for command, family, n in BIG_COMMANDS:
            if family == "fan":
                member = cases.fan_diagram(rng.sample(range(1, n + 1), n))
            else:
                signs = tuple(rng.choice((1, -1)) for _ in range(n))
                member = getattr(cases, f"{family}_diagram")(signs)
            text = json.dumps(dg.diagram_to_json(member))
            if command == "trace":
                argv = ["trace", "--input", text]
            else:
                argv = ["matrix", "--kind", "mixing", "--format", "json", "--input", text]
            size = orbit_size(represent_rows(member))
            expected = getattr(cases, f"{family}_traces")(n)
            self.inputs.append((command, family, n, argv, size, member.edge_count, expected))

    def run_pass(self, checks: Checks, meter: Meter) -> PassResult:
        out, clock = PassResult(meter), meter.clock
        for command, family, n, argv, size, edges, (poly, mix) in self.inputs:
            t0 = clock()
            code, text = _cli(argv)
            out.add(**{command: clock() - t0})

            out.counts["diagram.members"] += size
            out.counts["matrices.entries"] += size * size
            out.counts["matrices.fubini_work"] += size * fubini(edges)
            out.counts["cli.output_bytes"] += len(text.encode())
            label = f"{command} {family} n={n}"
            checks.check(code == 0, f"{label} exit code {code}")
            if command == "trace":
                expected = {"size": size, "colouring": list(poly.coeffs), "mixing": str(mix)}
                checks.check(json.loads(text) == expected, f"{label} output {text.strip()}")
            else:
                digest = sha256(text)
                checks.check(digest == MIXING_JSON_SHA256[family, n], f"{label} sha256 {digest}")
                self._check_matrix(json.loads(text), size, edges, mix, checks, label)
        return out

    @staticmethod
    def _check_matrix(obj: dict, size: int, edges: int, mix: Fraction, checks: Checks, label: str) -> None:
        """Shape, row sums [e = 1] and trace, one row at a time.

        No parsed matrix is kept, so this check never holds more memory
        than the command's own output text.
        """
        checks.check(obj["size"] == size and obj["kind"] == "rational", f"{label} header")
        entries = obj["entries"]
        checks.check(len(entries) == size and all(len(r) == size for r in entries), f"{label} shape")
        unit = Fraction(1 if edges == 1 else 0)
        checks.check(all(sum(map(Fraction, row)) == unit for row in entries), f"{label} row sums")
        diagonal = sum(Fraction(row[i]) for i, row in enumerate(entries))
        checks.check(diagonal == mix, f"{label} trace")


# ---------------------------------------------------------------------------
# closed_forms: every answer that needs no colouring enumeration.
# ---------------------------------------------------------------------------

FAMILY_N = 5
POSET_WORLDS = (("chain", 7), ("cycle", 8))
COUNTER_PEGS = 6
COUNTER_EDGES = 6
COUNTERS = ("count_worlds_series", "count_worlds_no_isolated", "count_proper_worlds")
TRANSITIVE_EDGES = 5
TRANSITIVE_COUNT = 53
# sha256 of each family's exports, in the order json(M), json(R), csv(M), csv(R)
EXPORT_SHA256 = {
    "fan": [
        "15ed42c9f989bc1406048506a73c9eee36977aed695a99e1e03b73f87e977ace",
        "124725593e0bec0c04a50a16c701d9ee13f659850b52c09d05f067629724cfa6",
        "fe38b55d046ad398dd05449920897873f871c4cae7731ed6c115addd76894c38",
        "45f29a3ecbd0662088810c1fdfe7e7cd11674fd25697e98e2590523d575657b6",
    ],
    "chain": [
        "8e1f0fad795cda88ff02e6b01504fe041441f2b8ed71986799228d06bd1e4079",
        "8e51b7b0b71a8a31a1961bfa671625e7afb0b0b6bb9a2fb270be2de33e58abcb",
        "d9a941e968195447eeb9239b356f8bde0522cb98da3cf1f763933f1e1f343415",
        "551d0e0d17e23be80ca4b0f31488ed6d547646cdb90d1782df0aa6699fa5552c",
    ],
    "cycle": [
        "2442abe2318619391015cca43ab6c90820c3f1bf458bd4a8c08d8db0544fbb7c",
        "ced24e223f53b6e69ffb5a37419a48503bb128706ce2d1470a205c105063aae5",
        "369a6b2fd7530ae8a653e94f003a7188031958eaa3a24d7cf538af52f528d195",
        "122799131c38f61b2a3cd0768c510bd35691ee34bac6f9b9444f84766909d34a",
    ],
}
# sha256 of the JSON list of [counter, pegs, edges, pairs, value], sorted
COUNTER_TABLE_SHA256 = "94de92400afb58e35db6e2aafe62e980ec9a015804ee9cb1f2b7b6853ec1d573"


class ClosedForms:
    name = "closed_forms"

    def __init__(self, seed: int, checks: Checks) -> None:
        self.worlds = {
            family: (n, getattr(cases, f"{family}_world")(n)) for family, n in POSET_WORLDS
        }
        units = [("family", f) for f in ("fan", "chain", "cycle")]
        units += [("posets", family) for family, _ in POSET_WORLDS]
        units += [
            ("counters", pegs, edges, pairs)
            for pegs in range(2, COUNTER_PEGS + 1)
            for edges in range(1, COUNTER_EDGES + 1)
            for pairs in range(1, edges + 1)
        ]
        units.append(("transitive",))
        random.Random(f"closed_forms:{seed}").shuffle(units)
        self.inputs = units

    def run_pass(self, checks: Checks, meter: Meter) -> PassResult:
        out, clock = PassResult(meter), meter.clock
        table = []
        for unit in self.inputs:
            kind = unit[0]
            if kind == "family":
                self._family(unit[1], out, checks)
            elif kind == "posets":
                n, world = self.worlds[unit[1]]
                t0 = clock()
                traces = posets.traces_via_posets(world)
                out.add(trace=clock() - t0)
                out.counts["diagram.members"] += len(world)
                expected = getattr(cases, f"{unit[1]}_traces")(n)
                checks.check(traces == expected, f"traces_via_posets {unit[1]} n={n}")
            elif kind == "counters":
                t0 = clock()
                values = [getattr(enumeration, counter)(*unit[1:]) for counter in COUNTERS]
                out.add(trace=clock() - t0)
                table += [[counter, *unit[1:], v] for counter, v in zip(COUNTERS, values)]
                pegs, edges, pairs = unit[1:]
                # choose the pairs, then split the edges over them
                direct = math.comb(math.comb(pegs, 2), pairs) * math.comb(edges - 1, pairs - 1)
                checks.check(values[0] == direct, f"count_worlds_series{unit[1:]} = {values[0]}")
            else:
                t0 = clock()
                value = transitive.count_transitive(TRANSITIVE_EDGES)
                out.add(trace=clock() - t0)
                checks.check(value == TRANSITIVE_COUNT, f"count_transitive = {value}")
        digest = sha256(json.dumps(sorted(table)))
        checks.check(digest == COUNTER_TABLE_SHA256, f"counter table sha256 {digest}")
        return out

    @staticmethod
    def _family(family: str, out: PassResult, checks: Checks) -> None:
        clock = out.meter.clock
        t0 = clock()
        _, colouring, mixing = getattr(cases, f"{family}_matrices")(FAMILY_N)
        out.add(matrix=clock() - t0)
        exports = []
        for export in (matrices.matrix_to_json, matrices.matrix_to_csv):
            for matrix in (colouring, mixing):
                t0 = clock()
                value = export(matrix)
                out.add(matrix=clock() - t0)
                exports.append(value if isinstance(value, str) else json.dumps(value))
        out.counts["diagram.members"] += colouring.size
        out.counts["cases.entries"] += colouring.size * colouring.size
        poly, mix = getattr(cases, f"{family}_traces")(FAMILY_N)
        ok = diagonal_sum(colouring) == poly and diagonal_sum(mixing) == mix
        checks.check(ok, f"{family}_matrices({FAMILY_N}) traces")
        digests = [sha256(text) for text in exports]
        checks.check(digests == EXPORT_SHA256[family], f"{family} export sha256 {digests}")


WORKLOADS = {w.name: w for w in (Sweep, BigWorlds, ClosedForms)}
COUNT_NAMES = (
    "diagram.members",
    "matrices.entries",
    "matrices.fubini_work",
    "cases.entries",
    "cli.output_bytes",
)
