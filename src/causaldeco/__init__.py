"""Causal decomposition of unitaries over labeled bipartite relations.

The package decides the C3 exclusion property of a relation, builds the
canonical circuit shape from its concept lattice, extracts the causal
structure of concrete unitaries numerically, and synthesizes (or refuses
with a certificate) circuit decompositions of that shape.
"""

from .errors import InputError, NumericsError
from .relations import (
    Relation,
    C3Result,
    C3Witness,
    check_c3ep,
    parents,
    children,
    common_children,
    common_parents,
    closure_inputs,
    closure_outputs,
    restrict,
    relation_to_json,
    relation_from_json,
    load_relation,
    c3_relation,
    overlapping_fans_relation,
    swap_relation,
    chain2_relation,
    fan_in_relation,
    fan_out_relation,
    full_relation,
)
from .lattice import (
    ConceptLattice,
    ConceptNode,
    LatticeC3Result,
    build_concept_lattice,
    connectivity,
    check_c3ep_lattice,
    overlap_lemma_check,
    count_paths,
    to_dot,
    shape_to_json,
    shape_from_json,
)
from .tensorspace import TensorSpace
from .algebra import (
    MatrixSubalgebra,
    commutant,
    centre,
    sectorize,
    SectorDecomposition,
    SectorObstruction,
    LemmaSplit,
    algebraic_lemma,
)
from .causal import (
    UnitaryChannel,
    influences,
    causal_structure,
    causal_structure_report,
    CausalReport,
    heisenberg_image,
    no_influence_choi_oracle,
    atomicity_check,
    unitary_to_json,
    unitary_from_json,
    load_unitary,
)
from .circuits import (
    Circuit,
    uniform_dims,
    random_circuit_unitary,
    compose,
    circuit_to_json,
    circuit_from_json,
    load_circuit,
)
from .gallery import u3, loose_wires_c3, build_counterexample, obstruction_witness
from .decompose import (
    decompose,
    verify_decomposition,
    DecompositionReport,
    SUCCESS,
    REFUSED_C3EP,
    REFUSED_CAUSAL,
    OBSTRUCTION,
    FAILED,
)

__all__ = [
    "InputError", "NumericsError",
    "Relation", "C3Result", "C3Witness", "check_c3ep",
    "parents", "children", "common_children", "common_parents",
    "closure_inputs", "closure_outputs", "restrict",
    "relation_to_json", "relation_from_json", "load_relation",
    "c3_relation", "overlapping_fans_relation", "swap_relation",
    "chain2_relation", "fan_in_relation", "fan_out_relation",
    "full_relation",
    "ConceptLattice", "ConceptNode", "LatticeC3Result",
    "build_concept_lattice",
    "connectivity", "check_c3ep_lattice", "overlap_lemma_check",
    "count_paths", "to_dot", "shape_to_json", "shape_from_json",
    "TensorSpace",
    "MatrixSubalgebra", "commutant", "centre", "sectorize",
    "SectorDecomposition", "SectorObstruction", "LemmaSplit",
    "algebraic_lemma",
    "UnitaryChannel", "influences", "causal_structure",
    "causal_structure_report", "CausalReport", "heisenberg_image",
    "no_influence_choi_oracle", "atomicity_check",
    "unitary_to_json", "unitary_from_json", "load_unitary",
    "Circuit", "uniform_dims", "random_circuit_unitary", "compose",
    "circuit_to_json", "circuit_from_json", "load_circuit",
    "u3", "loose_wires_c3", "build_counterexample", "obstruction_witness",
    "decompose", "verify_decomposition", "DecompositionReport",
    "SUCCESS", "REFUSED_C3EP", "REFUSED_CAUSAL", "OBSTRUCTION", "FAILED",
]
