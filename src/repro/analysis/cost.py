"""Static cost model: chase-size degree bounds and IMPLIES sweep budgets.

The two engines this library runs in anger have cost that is *statically
predictable* from dependency structure alone:

- The oblivious :func:`~repro.engine.fixpoint_chase.fixpoint_chase` of a
  certified-terminating set creates nulls of Skolem-nesting depth at most
  ``D`` (the hierarchy verdict's ``depth_bound``).  Counting distinct values
  level by level gives the recurrence ``d_0 = n`` and
  ``d_r = d_{r-1} + F * d_{r-1}^w`` (``F`` Skolem functions of arity at most
  ``w``), so the chase result holds at most ``R * d_D^A`` facts over ``R``
  relations of arity at most ``A`` -- a polynomial in the instance size ``n``
  of degree ``A * w^D``.  The degree is *doubly* exponential-prone: ``w^D``
  alone can dwarf any practical budget, which is exactly what finding
  ``CC002`` warns about.
- The IMPLIES sweep of Theorem 3.1 checks one canonical instance per
  k-pattern, and ``|P_k(sigma)|`` follows the non-elementary recurrence of
  Proposition 3.5 (``prod (k+1) ** |P_k(child)|``).  Finding ``CC001`` warns
  when the predicted sweep exceeds the enumeration guard *before* a single
  pattern is built.

All arithmetic here saturates at :data:`SATURATION_CAP`: the exact pattern
count of a deep nesting is a number with ``10^10`` digits, and merely
*printing* it would be the blowup the analysis exists to prevent.

:func:`chase_budget` is the budget derivation the engines consult: it
prefers the per-relation degree witnesses of the complexity tier
(:mod:`repro.analysis.frontier`) over the saturating worst case above, so a
PTIME-certified program gets a polynomially tight budget instead of the
astronomical ``A * w^D`` bound.

    >>> from repro.logic.parser import parse_tgd
    >>> est = chase_cost([parse_tgd("S(x,y) -> exists z . R(x,z)")])
    >>> est.degree, est.fact_bound(10)   # f_z(x,y) has arity 2, rank depth 1
    (4, 24200)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DependencyError
from repro.logic.nested import NestedTgd
from repro.logic.tgds import STTgd
from repro.analysis.acyclicity import TerminationVerdict, classify_termination
from repro.analysis.termination import dependency_graph_ir, dependency_list

#: All cost arithmetic saturates here (10^18): beyond this every budget has
#: been blown anyway, and exact values can themselves be astronomically large.
SATURATION_CAP = 10**18

#: A predicted k-pattern sweep above this gets a ``CC001`` finding (matches
#: the default ``max_patterns`` guard of the IMPLIES enumeration).
CC001_PATTERN_LIMIT = 1_000_000

#: A chase-size polynomial degree above this gets a ``CC002`` finding.
CC002_DEGREE_LIMIT = 8


# ------------------------------------------------------ saturating arithmetic


def saturating_add(left: int, right: int, cap: int = SATURATION_CAP) -> int:
    """``left + right``, clamped to *cap*."""
    return min(left + right, cap)


def saturating_mul(left: int, right: int, cap: int = SATURATION_CAP) -> int:
    """``left * right``, clamped to *cap* (without materializing huge products)."""
    if left == 0 or right == 0:
        return 0
    if left >= cap or right >= cap or left > cap // right:
        return cap
    return left * right


def saturating_pow(base: int, exponent: int, cap: int = SATURATION_CAP) -> int:
    """``base ** exponent``, clamped to *cap* (never computes a huge power)."""
    if exponent == 0:
        return 1
    if base <= 1:
        return base
    # cap < 2**63 here in practice; 63 squarings of base>=2 always saturate.
    if exponent > cap.bit_length():
        return cap
    result = 1
    for _ in range(exponent):
        result = saturating_mul(result, base, cap)
        if result >= cap:
            return cap
    return result


# ------------------------------------------------------------ chase cost model


@dataclass(frozen=True)
class ChaseCostEstimate:
    """Degree bounds on the size of a terminating oblivious chase.

    ``degree`` is the degree of the polynomial (in the instance size ``n``)
    bounding the number of facts the chase can produce, ``None`` when no
    hierarchy rung certified the set (the chase may diverge -- no polynomial
    exists).  ``saturated`` records that the degree itself hit
    :data:`SATURATION_CAP`, i.e. the bound is "astronomical", not merely big.
    """

    termination: TerminationVerdict
    relation_count: int
    max_arity: int
    skolem_function_count: int
    max_skolem_arity: int
    depth_bound: int | None
    degree: int | None
    saturated: bool

    @property
    def exponential(self) -> bool:
        """True when the predicted chase-size degree exceeds the CC002 limit."""
        return self.degree is None or self.degree > CC002_DEGREE_LIMIT

    def value_bound(self, n: int) -> int | None:
        """Bound the number of distinct values after chasing an n-value instance."""
        if self.depth_bound is None:
            return None
        values = max(n, 1)
        arity = max(self.max_skolem_arity, 1) if self.skolem_function_count else 0
        for _ in range(self.depth_bound):
            if self.skolem_function_count == 0:
                break
            created = saturating_mul(
                self.skolem_function_count, saturating_pow(values, arity)
            )
            values = saturating_add(values, created)
            if values >= SATURATION_CAP:
                return SATURATION_CAP
        return values

    def fact_bound(self, n: int) -> int | None:
        """Bound the number of facts after chasing an n-value instance.

        ``None`` when no rung certified termination (no finite bound exists
        that the static analysis can vouch for).
        """
        values = self.value_bound(n)
        if values is None:
            return None
        return saturating_mul(
            max(self.relation_count, 1), saturating_pow(values, self.max_arity)
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the estimate."""
        return {
            "termination_class": self.termination.cls.value,
            "relation_count": self.relation_count,
            "max_arity": self.max_arity,
            "skolem_function_count": self.skolem_function_count,
            "max_skolem_arity": self.max_skolem_arity,
            "depth_bound": self.depth_bound,
            "degree": self.degree,
            "saturated": self.saturated,
            "exponential": self.exponential,
        }


def chase_cost(dependencies: object) -> ChaseCostEstimate:
    """Statically bound the size of the oblivious chase of a dependency set.

    The hierarchy verdict and the shared IR it reads come from the analysis
    memo, so a set already classified is not classified again.
    """
    deps = dependency_list(dependencies)
    verdict = classify_termination(deps)
    ir = dependency_graph_ir(deps)

    functions = {sk.function for sk in ir.skolem_functions}
    arities: dict[str, int] = {}
    for relation, index in ir.positions:
        arities[relation] = max(arities.get(relation, 0), index + 1)
    max_arity = max(arities.values(), default=0)
    skolem_arity = ir.max_skolem_arity
    depth = verdict.depth_bound

    degree: int | None
    saturated = False
    if depth is None:
        degree = None
    else:
        # Distinct values grow like d_r = d_{r-1} + F * d_{r-1}^w, so after D
        # levels the value degree is w^D (1 when w <= 1 or nothing is ever
        # created), and each relation of arity A contributes at most
        # values^A facts: degree = A * w^D.
        if not functions or depth == 0 or skolem_arity <= 1:
            value_degree = 1
        else:
            value_degree = saturating_pow(skolem_arity, depth)
        degree = saturating_mul(max(max_arity, 1), value_degree)
        saturated = degree >= SATURATION_CAP
    return ChaseCostEstimate(
        termination=verdict,
        relation_count=len(arities),
        max_arity=max_arity,
        skolem_function_count=len(functions),
        max_skolem_arity=skolem_arity,
        depth_bound=depth,
        degree=degree,
        saturated=saturated,
    )


def chase_budget(dependencies: object, n: int) -> int | None:
    """The tightest static fact budget for chasing an ``n``-value instance.

    Derives from the complexity tier of
    :func:`repro.analysis.frontier.frontier_report` when refined per-relation
    degree witnesses exist (the ``min`` of the refined and coarse bounds),
    falling back to the saturating worst case of :func:`chase_cost`
    otherwise; ``None`` when no hierarchy rung certifies termination.
    ``fixpoint_chase`` uses this to decide whether an explicit ``budget=``
    can be statically elided.

        >>> from repro.logic.parser import parse_tgd
        >>> deps = [parse_tgd(f"T{i}(x,y) -> exists z . T{i + 1}(y,z)")
        ...         for i in range(3)]
        >>> coarse = chase_cost(deps).fact_bound(4)
        >>> refined = chase_budget(deps, 4)
        >>> refined < coarse
        True
    """
    from repro.analysis.frontier import frontier_report

    return frontier_report(dependencies).fact_bound(n)


# ------------------------------------------------------------ sweep cost model


def count_k_patterns_saturating(
    tgd: NestedTgd, k: int, cap: int = SATURATION_CAP
) -> int:
    """``|P_k(sigma)|`` by the Proposition 3.5 recurrence, clamped to *cap*.

    The count grows non-elementarily in the nesting depth; no number larger
    than *cap* is ever built, so this is safe to call on any depth.
    :func:`repro.core.patterns.count_k_patterns` is this function at the
    default cap.
    """
    if k < 1:
        raise DependencyError("k must be at least 1")
    memo: dict[int, int] = {}

    def count(pid: int) -> int:
        cached = memo.get(pid)
        if cached is not None:
            return cached
        total = 1
        for child in tgd.children_of(pid):
            total = saturating_mul(total, saturating_pow(k + 1, count(child), cap), cap)
        memo[pid] = total
        return total

    return count(1)


@dataclass(frozen=True)
class SweepCostEstimate:
    """Predicted work of one IMPLIES k-pattern sweep.

    ``pattern_count`` is the (saturating) number of k-patterns to check and
    ``atoms_per_check`` the number of atoms of the right-hand side -- each
    check builds a canonical instance of roughly that many facts per pattern
    node and chases it.  ``cost_units`` is their product: a unitless but
    monotone proxy for sweep time, comparable against a caller's budget.
    """

    k: int
    pattern_count: int
    atoms_per_check: int
    saturated: bool

    @property
    def cost_units(self) -> int:
        return saturating_mul(self.pattern_count, max(self.atoms_per_check, 1))

    @property
    def non_elementary(self) -> bool:
        """True when the predicted sweep exceeds the CC001 enumeration guard."""
        return self.pattern_count > CC001_PATTERN_LIMIT

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable summary of the estimate."""
        return {
            "k": self.k,
            "pattern_count": self.pattern_count,
            "atoms_per_check": self.atoms_per_check,
            "cost_units": self.cost_units,
            "saturated": self.saturated,
            "non_elementary": self.non_elementary,
        }


def sweep_cost(
    sigma_set: object, sigma: object, *, k: int | None = None
) -> SweepCostEstimate:
    """Predict the cost of ``implies_tgd(sigma_set, sigma)`` without running it.

    With *k* omitted, the clone bound ``k = v * w + 1`` of line 4 of IMPLIES
    is :func:`repro.core.implication.implication_bound`.  The estimate is
    *a priori*: nothing is enumerated or chased.

        >>> from repro.logic.parser import parse_nested_tgd, parse_tgd
        >>> s = parse_nested_tgd(
        ...     "S1(x1) -> exists y1 . ((S2(x2) -> R2(y1,x2)) "
        ...     "& (S3(x1,x3) -> R3(y1,x3) & (S4(x3,x4) -> exists y2 . R4(y2,x4))))")
        >>> est = sweep_cost([s], s)
        >>> est.k, est.non_elementary
        (9, True)
    """
    from repro.core.implication import implication_bound

    if not isinstance(sigma, (STTgd, NestedTgd)):
        raise DependencyError(
            f"sweep_cost needs an s-t or nested tgd right-hand side, got {sigma!r}"
        )
    if k is None:
        k = implication_bound(dependency_list(sigma_set), sigma)
    if isinstance(sigma, STTgd):
        # A flat tgd has a single part and hence exactly one k-pattern for
        # every k.  Counted directly: to_nested() would reject same-schema
        # tgds, which the fixpoint engine (and the linter) accept.
        return SweepCostEstimate(
            k=k,
            pattern_count=1,
            atoms_per_check=len(sigma.body) + len(sigma.head),
            saturated=False,
        )
    pattern_count = count_k_patterns_saturating(sigma, k)
    atoms = sum(
        len(sigma.part(pid).body) + len(sigma.part(pid).head) for pid in sigma.part_ids()
    )
    return SweepCostEstimate(
        k=k,
        pattern_count=pattern_count,
        atoms_per_check=atoms,
        saturated=pattern_count >= SATURATION_CAP,
    )


__all__ = [
    "CC001_PATTERN_LIMIT",
    "CC002_DEGREE_LIMIT",
    "SATURATION_CAP",
    "ChaseCostEstimate",
    "SweepCostEstimate",
    "chase_budget",
    "chase_cost",
    "count_k_patterns_saturating",
    "saturating_add",
    "saturating_mul",
    "saturating_pow",
    "sweep_cost",
]
