"""Reasoning engine: matching, homomorphisms, cores, Gaifman graphs, chases.

- :mod:`repro.engine.builder` -- mutable instance construction with
  incrementally maintained indexes (the substrate of the delta-driven chases);
- :mod:`repro.engine.matching` -- conjunctive-query matching over instances;
- :mod:`repro.engine.homomorphism` -- homomorphism search between instances;
- :mod:`repro.engine.core_instance` -- core computation;
- :mod:`repro.engine.gaifman` -- fact graph, null graph, f-blocks and their metrics;
- :mod:`repro.engine.chase` -- oblivious chase for s-t tgds and (plain) SO tgds;
- :mod:`repro.engine.nested_chase` -- recursive-triggering chase for nested tgds
  with materialized chase forests (Section 3 of the paper);
- :mod:`repro.engine.egd_chase` -- egd chase on source instances;
- :mod:`repro.engine.fixpoint_chase` -- semi-naive oblivious chase iterated
  to a fixpoint, gated by the static termination hierarchy;
- :mod:`repro.engine.columnar` -- columnar fact store (dense integer arrays)
  with integer trigger matching for the single-pass exchange;
- :mod:`repro.engine.sql_backend` -- exchange programs and core eliminations
  compiled to SQLite (SQL pushdown), results decoded back through the intern
  tables;
- :mod:`repro.engine.dispatch` -- backend selection (tuple / columnar / sql
  / auto) for the single-pass exchange and for cores;
- :mod:`repro.engine.model_check` -- ``(I, J) |= sigma`` for every formalism.
"""

from repro.engine.builder import InstanceBuilder
from repro.engine.matching import find_matches
from repro.engine.homomorphism import (
    find_homomorphism,
    has_homomorphism,
    homomorphically_equivalent,
)
from repro.engine.core_instance import core
from repro.engine.gaifman import (
    fact_blocks,
    fact_block_size,
    fact_graph,
    fblock_degree,
    null_graph,
    null_path_length,
)
from repro.engine.chase import chase, chase_so_tgd, chase_st_tgds
from repro.engine.nested_chase import ChaseForest, ChaseTree, Triggering, chase_nested
from repro.engine.egd_chase import chase_egds
from repro.engine.fixpoint_chase import FixpointChaseResult, fixpoint_chase
from repro.engine.columnar import ColumnarInstance
from repro.engine.dispatch import BACKENDS, BackendChoice, choose_backend
from repro.engine.model_check import satisfies

__all__ = [
    "BACKENDS",
    "BackendChoice",
    "ColumnarInstance",
    "choose_backend",
    "InstanceBuilder",
    "find_matches",
    "find_homomorphism",
    "has_homomorphism",
    "homomorphically_equivalent",
    "core",
    "fact_graph",
    "fact_blocks",
    "fact_block_size",
    "fblock_degree",
    "null_graph",
    "null_path_length",
    "chase",
    "chase_st_tgds",
    "chase_so_tgd",
    "chase_nested",
    "ChaseForest",
    "ChaseTree",
    "Triggering",
    "chase_egds",
    "FixpointChaseResult",
    "fixpoint_chase",
    "satisfies",
]
