"""The operations of the end-to-end benchmark: specs, inputs, runs and checks.

An operation starts from dependency text or generator parameters and ends at
a checked verdict or core.  Its spec (:class:`Op`) is plain data and a pure
function of ``(workload, seed, deck index)``: :func:`deck` expands a fixed
multiset of operations per workload, shuffles it and gives every decision
query a fresh renaming tag drawn from the seed.  The seed therefore changes
names and order, never the mix, so two seeds measure the same work.  Source
instances are generated once per run, at set-up (:func:`generate_sources`).

Each operation carries its expected answer from construction -- a verdict
from the paper, or closed-form solution and core sizes -- and :func:`check`
compares the program's output with it, re-checking every refutation from the
counterexample it carries with :func:`repro.engine.satisfies`.

Importing this module imports the program: call
:func:`checkout.require_program` first.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any

from repro.analysis import containment
from repro.core import glav_equivalence, implication
from repro.engine import core_instance
from repro.engine.chase import chase
from repro.engine.homomorphism import find_homomorphism
from repro.engine.model_check import satisfies
from repro.export import sql as export_sql
from repro.logic import parser
from repro.logic.instances import Instance
from repro.workloads.families import star_instance
from repro.workloads.generators import cycle_instance, successor_instance
from repro.workloads.scenarios import ALL_SCENARIOS

WORKLOADS = ("decide-mix", "exchange-core", "fblock-core", "warm-restart")

#: The reference engine for the isomorphism check, bound before any tracing
#: patches so the oracle never shows up in a trace.
reference_core = core_instance.core

#: Cores are compared with the tuple reference only below this many solution facts.
ISO_CHECK_LIMIT = 1_000

#: Explicit sweep budget for containment queries: without one, the frontier
#: gate refuses the contained ladders of depth >= 4 (their static chase bound
#: saturates), and a refusal is not the answer the construction gives.
CONTAINMENT_BUDGET = 100_000

# ------------------------------------------------------------- dependencies
#
# A dependency is (parser, text); the parser name selects the
# ``repro.logic.parser`` entry point that reads it inside the timed region.

_PARSERS = {"tgd": "parse_tgd", "nested": "parse_nested_tgd", "so": "parse_so_tgd"}

TAU = ("nested", "S1(x1) -> exists y . (S2(x2) -> R(x2, y))")
TAU_PRIME = ("tgd", "S2(x2) -> exists z . R(x2, z)")
TAU_DPRIME = ("tgd", "S1(x1) & S2(x2) -> R(x2, x1)")
INTRO = ("nested", "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))")
INTRO_RENAMED = ("nested", "S(u1,u2) -> exists w . (R(w,u2) & (S(u1,u3) -> R(w,u3)))")
INTRO_FLAT = ("tgd", "S(x1,x2) & S(x1,x3) -> exists y . (R(y,x2) & R(y,x3))")
SIGMA_STAR = ("nested",
              "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1, x2)) & "
              "(S3(x1, x3) -> R3(y1, x3) & (S4(x3, x4) -> exists y2 . R4(y2, x4))))")
BOUNDED_NESTED = ("nested", "S1(x1) -> (S2(x2) -> T(x1, x2))")
DEEP_RHS = ("nested", "S1(x1) -> exists y . (S2(x2) -> R2(y, x2) & (S3(x3) -> R3(y, x3)))")
DEEP_LHS = ("nested", "S1(u1) -> exists w . (S2(u2) -> R2(w, u2) & (S3(u3) -> R3(w, u3)))")
EX48 = ("so", "S(x,y) -> R(f(x), f(y)) & R(f(y), f(x))")


def _wide(branches: int, var: str, exist: str) -> tuple[str, str]:
    """``S1 -> exists y . (S_i(x_i) -> R_i(y, x_i))`` for *branches* sibling parts."""
    parts = " & ".join(
        f"(S{i}({var}{i}) -> R{i}({exist}, {var}{i}))" for i in range(2, branches + 2)
    )
    return ("nested", f"S1({var}1) -> exists {exist} . ({parts})")


def _ladder(depth: int) -> tuple[tuple[str, str], ...]:
    return tuple(("tgd", f"T{i}(x,y) -> exists z . T{i + 1}(y,z)") for i in range(depth))


def _weakened(depth: int) -> tuple[tuple[str, str], ...]:
    return tuple(("tgd", f"T{i}(x,y) -> exists z, w . T{i + 1}(z,w)") for i in range(depth))


def _reversed(depth: int) -> tuple[tuple[str, str], ...]:
    return tuple(("tgd", f"T{i}(x,y) -> T{i + 1}(y,x)") for i in range(depth))


#: Scenario and paper mappings used by the exchange and core workloads.
MAPPINGS: dict[str, tuple[tuple[str, str], ...]] = {}
for _scenario in ALL_SCENARIOS:
    MAPPINGS[f"{_scenario.name}-nested"] = (("nested", str(_scenario.nested)),)
    MAPPINGS[f"{_scenario.name}-flat"] = tuple(("tgd", str(dep)) for dep in _scenario.flat)
MAPPINGS["ex48"] = (EX48,)
MAPPINGS["intro"] = (INTRO,)

#: Decision queries: name -> (kind, Sigma, Sigma', expected verdict).  For
#: ``glav`` Sigma' is empty; for ``implies`` it holds the single rhs.
DECISIONS: dict[str, tuple[str, tuple, tuple, bool]] = {
    # IMPLIES sweeps that hold, from 4 (Ex 3.10) to 3125 (deep) patterns.
    "ex310": ("implies", (TAU_DPRIME,), (TAU,), True),
    "wide2": ("implies", (_wide(2, "u", "w"),), (_wide(2, "x", "y"),), True),
    "wide3": ("implies", (_wide(3, "u", "w"),), (_wide(3, "x", "y"),), True),
    "wide4": ("implies", (_wide(4, "u", "w"),), (_wide(4, "x", "y"),), True),
    "deep": ("implies", (DEEP_LHS,), (DEEP_RHS,), True),
    # Refutations: Ex 3.10's tau' does not imply tau; flat does not imply nested.
    "tau-prime": ("implies", (TAU_PRIME,), (TAU,), False),
    "intro-flat": ("implies", (INTRO_FLAT,), (INTRO,), False),
    # Equivalence (Corollary 3.11).
    "intro-equiv": ("equivalent", (INTRO,), (INTRO_RENAMED,), True),
    # GLAV decision through f-block bounds (Thm 4.2, Ex 4.8).
    "intro-glav": ("glav", (INTRO,), (), False),
    "sigma-star-glav": ("glav", (SIGMA_STAR,), (), False),
    "bounded-glav": ("glav", (BOUNDED_NESTED,), (), True),
}
for _scenario in ALL_SCENARIOS:
    _nested, _flat = MAPPINGS[f"{_scenario.name}-nested"], MAPPINGS[f"{_scenario.name}-flat"]
    DECISIONS[f"{_scenario.name}-refute"] = ("implies", _flat, _nested, False)
    DECISIONS[f"{_scenario.name}-equiv"] = ("equivalent", _flat, _nested, False)
    DECISIONS[f"{_scenario.name}-nested-glav"] = ("glav", _nested, (), False)
    DECISIONS[f"{_scenario.name}-flat-glav"] = ("glav", _flat, (), True)
for _depth in (2, 3, 4, 5):
    DECISIONS[f"contain{_depth}"] = ("contain", _ladder(_depth), _weakened(_depth), True)
    DECISIONS[f"contain{_depth}-not"] = ("contain", _ladder(_depth), _reversed(_depth), False)

#: Sweep shapes run with the syntactic subsumption pre-pass off: their
#: sides are renamed copies, which the pre-pass would answer without a sweep.
SWEEP_SHAPES = frozenset({"ex310", "wide2", "wide3", "wide4", "deep"})

# ------------------------------------------------------------------ decks
#
# A deck is the fixed multiset of (shape, n, count) one repetition of a
# workload runs.  A run repeats whole decks, so every run measures the same
# mix; see README.md for why each workload looks the way it does.

DECKS: dict[str, list[tuple[str, int, int]]] = {
    "decide-mix": (
        [("ex310", 0, 3), ("wide2", 0, 3), ("wide3", 0, 5), ("wide4", 0, 1), ("deep", 0, 1)]
        + [(name, 0, 1) for name in DECISIONS if name not in SWEEP_SHAPES]
    ),
    "exchange-core": [
        (f"{scenario.name}-{mapping}", n, count)
        for n, count in ((50, 4), (200, 2), (800, 1), (2500, 1))
        for scenario in ALL_SCENARIOS
        for mapping in ("nested", "flat")
        # the slowest core at n=2500 is left out for run length
        if (scenario.name, mapping, n) != ("hospital", "flat", 2500)
    ] + [("shop-flat", 5000, 1)],
    "fblock-core": (
        [("ex48-odd", n, 1) for n in range(5, 22, 2)]
        + [("ex48-even", n, 1) for n in range(6, 41, 2)]
        + [("ex48-path", n, 1) for n in range(5, 41, 5)]
        + [("intro-star", n, 1) for n in range(20, 141, 20)]
    ),
}

#: warm-restart: a pool of renamed copies of the decision queries below 0.1 s
#: (all but the two largest sweeps), drawn with Zipf-skewed repeats.  Pool
#: rank r holds base r mod len(bases), so the popular ranks cover every base.
_WARM_BASES = [name for name in DECISIONS if name not in ("wide4", "deep")]
WARM_COPIES = 4
WARM_DRAWS = 400
WARM_ZIPF = 1.0

#: The single untimed operation each workload runs during set-up.
WARMUP: dict[str, tuple[str, int]] = {
    "decide-mix": ("intro-equiv", 0),
    "exchange-core": ("shop-flat", 50),
    "fblock-core": ("intro-star", 20),
    "warm-restart": ("intro-glav", 0),
}

#: Operations that fail on the code this benchmark was added to (README.md,
#: baseline findings).  A deck must succeed in full, so they stay out of it;
#: the workload's traced run tries each once, untimed, and reports the share
#: that still fails as ``probe.fail_ratio``, so a fix shows in its metrics.
PROBES: dict[str, tuple[tuple[str, int], ...]] = {
    "fblock-core": (("intro-star", 150),),  # sqlite: at most 64 tables in a join
}


@dataclass(frozen=True)
class Op:
    """One operation: what to run, on which generated input, and its answer."""

    id: str
    kind: str  # implies | equivalent | glav | contain | exchange
    shape: str
    n: int
    tag: str  # suffix renaming a decision query's relations; "" for exchanges
    expect: Any  # verdict, or [solution facts, core facts]

    @property
    def key(self) -> str:
        """The identity of the query: a repeat of it shares the key."""
        return f"{self.shape}/{self.n}{self.tag}"


def _kind(shape: str) -> str:
    return DECISIONS[shape][0] if shape in DECISIONS else "exchange"


def make_op(op_id: str, shape: str, n: int, tag: str = "") -> Op:
    expect: Any = DECISIONS[shape][3] if shape in DECISIONS else list(expected_sizes(shape, n))
    return Op(op_id, _kind(shape), shape, n, tag, expect)


def _tag(rng: random.Random) -> str:
    return f"_k{rng.getrandbits(32):08x}"


def deck(workload: str, seed: int, index: int, smoke: bool = False) -> list[Op]:
    """The operations of deck *index* of *workload* under *seed*.

    With *smoke*, one operation per kind (the cheapest) replaces the deck.
    """
    rng = random.Random(f"e2e/{workload}/{seed}/{index}")
    if workload == "warm-restart":
        pool = [(_WARM_BASES[r % len(_WARM_BASES)], _tag(rng))
                for r in range(WARM_COPIES * len(_WARM_BASES))]
        if smoke:
            draws = _first_per_kind(range(len(pool)), lambda r: pool[r][0])
        else:
            weights = [1.0 / (rank + 1) ** WARM_ZIPF for rank in range(len(pool))]
            draws = rng.choices(range(len(pool)), weights, k=WARM_DRAWS)
        return [make_op(f"{index}.{slot}", pool[r][0], 0, pool[r][1])
                for slot, r in enumerate(draws)]
    slots = [(shape, n) for shape, n, count in DECKS[workload] for __ in range(count)]
    if smoke:
        slots = _first_per_kind(sorted(slots, key=lambda s: s[1]), lambda s: s[0])
    else:
        rng.shuffle(slots)
    return [make_op(f"{index}.{slot}", shape, n, _tag(rng) if shape in DECISIONS else "")
            for slot, (shape, n) in enumerate(slots)]


def _first_per_kind(items, shape_of) -> list:
    seen: set[str] = set()
    out = []
    for item in items:
        kind = _kind(shape_of(item))
        if kind not in seen:
            seen.add(kind)
            out.append(item)
    return out


def warmup_op(workload: str) -> Op:
    return make_op("warmup", *WARMUP[workload])


# ------------------------------------------------------------------ inputs

_RELATION = re.compile(r"\b([A-Z][A-Za-z0-9_']*)\(")


def tag_relations(text: str, tag: str) -> str:
    """Rename every relation of a dependency text by appending *tag*."""
    return _RELATION.sub(lambda match: f"{match.group(1)}{tag}(", text)


def source(shape: str, n: int) -> Instance:
    """The generated source instance of an exchange or core operation."""
    if shape == "ex48-odd" or shape == "ex48-even":
        return cycle_instance(n)
    if shape == "ex48-path":
        return successor_instance(n)
    if shape == "intro-star":
        return star_instance(n)
    scenario = next(s for s in ALL_SCENARIOS if shape.startswith(f"{s.name}-"))
    return scenario.source(n)


Sources = dict[tuple[str, int], Instance]


def generate_sources(workload: str) -> Sources:
    """Every source instance the workload's decks use, generated once.

    Instances are immutable and index themselves when built, so sharing one
    between operations shares no work the program would redo per request.
    """
    pairs = {(shape, n) for shape, n, __ in DECKS.get(workload, ()) if shape not in DECISIONS}
    return {pair: source(*pair) for pair in sorted(pairs)}


def mapping_of(shape: str) -> tuple[tuple[str, str], ...]:
    if shape.startswith("ex48-"):
        return MAPPINGS["ex48"]
    if shape == "intro-star":
        return MAPPINGS["intro"]
    return MAPPINGS[shape]


def expected_sizes(shape: str, n: int) -> tuple[int, int]:
    """Closed-form (solution facts, core facts) of an exchange or core op."""
    if shape == "ex48-odd":  # an odd cycle is a core: nothing folds
        return 2 * n, 2 * n
    if shape in ("ex48-even", "ex48-path"):  # bipartite: folds onto one edge
        return 2 * n, 2
    if shape == "intro-star":  # n isomorphic blocks of n facts fold to one
        return n * n, n
    scenario, mapping = shape.split("-")
    if scenario == "shop":
        children = sum(2 + c % 2 for c in range(n))  # orders
    elif scenario == "hospital":
        children = sum(1 + p % 3 for p in range(n))  # labs
    else:
        children = sum(1 + s % 2 for s in range(n))  # courses taken
    if mapping == "nested":
        solution = n + children
        core = 10 if scenario == "university" else solution
    else:
        solution = n + 2 * children
        core = 12 if scenario == "university" else 2 * children
    return solution, core


@dataclass
class Inputs:
    """What the program receives: dependency texts and a source instance."""

    lhs: tuple[tuple[str, str], ...]
    rhs: tuple[tuple[str, str], ...]
    source: Instance | None = None

    @property
    def source_facts(self) -> int:
        return 0 if self.source is None else len(self.source)


def prepare(op: Op, sources: Sources) -> Inputs:
    """An operation's inputs (made outside the timed region)."""
    if op.kind == "exchange":
        return Inputs(mapping_of(op.shape), (), sources[op.shape, op.n])
    __, lhs, rhs, __ = DECISIONS[op.shape]
    retag = lambda deps: tuple((p, tag_relations(text, op.tag)) for p, text in deps)  # noqa: E731
    return Inputs(retag(lhs), retag(rhs))


# --------------------------------------------------------------- execution


def parse(deps: tuple[tuple[str, str], ...]) -> list:
    """Parse dependency texts through the parser module's public functions."""
    return [getattr(parser, _PARSERS[name])(text) for name, text in deps]


def execute(op: Op, inputs: Inputs) -> Any:
    """Run one operation against the program; this is the timed region.

    Program entry points are looked up on their modules at call time, so the
    traced run sees them through its patches.
    """
    lhs = parse(inputs.lhs)
    if op.kind == "exchange":
        solution = export_sql.execute_exchange(inputs.source, lhs, backend="auto")
        return solution, core_instance.core(solution, backend="auto")
    rhs = parse(inputs.rhs)
    if op.kind == "implies":
        return implication.implies_tgd(lhs, rhs[0], subsumption=op.shape not in SWEEP_SHAPES)
    if op.kind == "equivalent":
        return implication.equivalent(lhs, rhs)
    if op.kind == "glav":
        return glav_equivalence.is_equivalent_to_glav(lhs)
    return containment.check_containment(lhs, rhs, budget=CONTAINMENT_BUDGET)


def _refutation_holds(counterexample: Instance, lhs: list, rhs: list) -> bool:
    """``chase(I, Sigma)`` is a solution under Sigma that violates Sigma'."""
    target = chase(counterexample, lhs)
    return satisfies(counterexample, target, lhs) and not satisfies(counterexample, target, rhs)


def _isomorphic_cores(left: Instance, right: Instance) -> bool:
    """Two cores are isomorphic iff equally large and homomorphically equivalent."""
    return (
        len(left) == len(right)
        and find_homomorphism(left, right) is not None
        and find_homomorphism(right, left) is not None
    )


def check(op: Op, inputs: Inputs, result: Any) -> tuple[bool, str]:
    """Compare an operation's output with its expected answer: (ok, summary)."""
    if op.kind == "exchange":
        solution, core = result
        summary = f"solution={len(solution)} core={len(core)}"
        ok = [len(solution), len(core)] == op.expect and core.facts <= solution.facts
        # A core as large as the solution is the solution itself, as is the
        # reference core then: only a smaller core needs the isomorphism check.
        if ok and len(core) < len(solution) < ISO_CHECK_LIMIT:
            ok = _isomorphic_cores(core, reference_core(solution))
        return ok, summary
    if op.kind in ("equivalent", "glav"):
        return result is op.expect, f"verdict={result}"
    lhs, rhs = parse(inputs.lhs), parse(inputs.rhs)
    if op.kind == "implies":
        verdict, counterexample = result.holds, result.counterexample_source
        summary = f"verdict={verdict} patterns={result.patterns_checked}"
    else:
        verdict, counterexample = result.holds, None
        summary = f"verdict={result.status}"
        if verdict is False:
            witness = next(v.witness for v in result.verdicts if v.witness is not None)
            counterexample = witness.source_instance
    ok = verdict is op.expect
    if ok and verdict is False:
        ok = counterexample is not None and _refutation_holds(counterexample, lhs, rhs)
    return ok, summary
