"""Analysis of schema mappings: structural properties and static checks.

Section 2 and 4.1 of the paper rest on two structural properties that nested
GLAV mappings (and plain SO tgds) enjoy: *admitting universal solutions* and
*closure under target homomorphisms*.  This subpackage provides executable
verifiers for them -- exhaustive where feasible, sampling-based otherwise --
used both as test oracles and as analysis tools for user-supplied mappings.

It also hosts the *static analyzer* over dependency programs:

- :mod:`repro.analysis.termination` -- the shared dependency-graph IR,
  position graphs, the weak-acyclicity test, and chase depth bounds;
- :mod:`repro.analysis.acyclicity` -- the termination hierarchy (joint /
  model-faithful / stratified model-faithful acyclicity) as a lattice
  verdict;
- :mod:`repro.analysis.cost` -- the static cost model (chase-size degree
  bounds and IMPLIES sweep budgets);
- :mod:`repro.analysis.frontier` -- the decidability-frontier analyzer
  (triangular guardedness, per-relation degree witnesses, and the
  PTIME/EXPTIME/2-EXPTIME/non-elementary complexity tiers that gate the
  engines);
- :mod:`repro.analysis.subsumption` -- sound syntactic subsumption between
  dependencies (the IMPLIES pre-pass);
- :mod:`repro.analysis.static` -- the lint driver producing structured
  :class:`~repro.analysis.static.AnalysisReport` objects (``repro lint``);
- :mod:`repro.analysis.sarif` -- SARIF 2.1.0 serialization of lint reports;
- :mod:`repro.analysis.containment` -- certified mapping containment
  ``Sigma <= Sigma'`` (Cali-Torlone) with machine-checkable witnesses,
  powering the MC001/MC002 lints, ``repro contain``, and
  ``optimize(semantic=True)``.
"""

from repro.analysis.properties import (
    check_admits_universal_solutions,
    check_closed_under_target_homomorphisms,
    check_core_is_universal,
    PropertyReport,
)
from repro.analysis.characterization import (
    ModularityReport,
    check_closed_under_union,
    check_n_modular,
    glav_modularity_bound,
)
from repro.analysis.termination import (
    DependencyGraphIR,
    TerminationReport,
    dependency_graph_ir,
    position_graph,
    termination_report,
)
from repro.analysis.acyclicity import (
    TerminationClass,
    TerminationVerdict,
    classify_termination,
)
from repro.analysis.cost import (
    ChaseCostEstimate,
    SweepCostEstimate,
    chase_budget,
    chase_cost,
    sweep_cost,
)
from repro.analysis.frontier import (
    ComplexityTier,
    FrontierReport,
    TierReport,
    TriangularGuardReport,
    frontier_report,
    tier_report,
    triangular_guard_report,
)
from repro.analysis.subsumption import (
    alpha_equivalent,
    subsumes,
    trivially_implied,
)
from repro.analysis.static import (
    AnalysisReport,
    Finding,
    LINT_CATALOG,
    analyze,
    apply_baseline,
    baseline_fingerprints,
)
from repro.analysis.sarif import sarif_json, sarif_report
from repro.analysis.containment import (
    ContainmentReport,
    ContainmentWitness,
    DependencyVerdict,
    EquivalenceCertificate,
    check_containment,
    check_equivalence,
    contains,
    eliminate_redundant,
    redundancy_report,
    verify_witness,
)

__all__ = [
    "check_admits_universal_solutions",
    "check_closed_under_target_homomorphisms",
    "check_core_is_universal",
    "PropertyReport",
    "check_closed_under_union",
    "check_n_modular",
    "ModularityReport",
    "glav_modularity_bound",
    "DependencyGraphIR",
    "TerminationReport",
    "dependency_graph_ir",
    "position_graph",
    "termination_report",
    "TerminationClass",
    "TerminationVerdict",
    "classify_termination",
    "ChaseCostEstimate",
    "SweepCostEstimate",
    "chase_budget",
    "chase_cost",
    "sweep_cost",
    "ComplexityTier",
    "FrontierReport",
    "TierReport",
    "TriangularGuardReport",
    "frontier_report",
    "tier_report",
    "triangular_guard_report",
    "alpha_equivalent",
    "subsumes",
    "trivially_implied",
    "AnalysisReport",
    "Finding",
    "LINT_CATALOG",
    "analyze",
    "apply_baseline",
    "baseline_fingerprints",
    "sarif_json",
    "sarif_report",
    "ContainmentReport",
    "ContainmentWitness",
    "DependencyVerdict",
    "EquivalenceCertificate",
    "check_containment",
    "check_equivalence",
    "contains",
    "eliminate_redundant",
    "redundancy_report",
    "verify_witness",
]
