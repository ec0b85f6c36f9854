"""Causal decomposition of unitaries over labeled bipartite relations.

The package decides the C3 exclusion property of a relation, builds the
canonical circuit shape from its concept lattice, extracts the causal
structure of concrete unitaries numerically, and synthesizes (or refuses
with a certificate) circuit decompositions of that shape.

Nothing is loaded up front: a public name loads its home module on
first access (PEP 562), and every library submodule sits in
``sys.modules`` as a lazy module that runs on its first attribute
access.  So ``relations``, ``lattice`` and the CLI's ``check`` and
``lattice`` commands run without numpy.  ``causaldeco.decompose`` is
the function; its module is ``sys.modules["causaldeco.decompose"]``.
"""

import importlib.util
import sys

# home module -> the public names it defines
_EXPORTS = {
    "errors": "InputError NumericsError",
    "relations": """Relation C3Result C3Witness check_c3ep parents children
        common_children common_parents closure_inputs closure_outputs
        restrict relation_to_json relation_from_json load_relation
        c3_relation overlapping_fans_relation swap_relation chain2_relation
        fan_in_relation fan_out_relation full_relation""",
    "lattice": """ConceptLattice ConceptNode LatticeC3Result
        build_concept_lattice connectivity check_c3ep_lattice
        overlap_lemma_check count_paths to_dot shape_to_json
        shape_from_json""",
    "tensorspace": "TensorSpace",
    "algebra": """MatrixSubalgebra commutant centre sectorize
        SectorDecomposition algebraic_lemma""",
    "causal": """UnitaryChannel influences causal_structure
        causal_structure_report CausalReport heisenberg_image
        no_influence_choi_oracle atomicity_check unitary_to_json
        unitary_from_json load_unitary""",
    "circuits": """Circuit uniform_dims random_circuit_unitary compose
        circuit_to_json circuit_from_json load_circuit""",
    "gallery": "u3 loose_wires_c3 build_counterexample obstruction_witness",
    "decompose": """decompose verify_decomposition DecompositionReport
        SUCCESS REFUSED_C3EP REFUSED_CAUSAL FAILED""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
__all__ = list(_HOME)


def _register_lazily(fullname):
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[fullname])


# The CLI is left out: ``python -m causaldeco.cli`` warns when it finds
# its module in sys.modules before it runs.
for _name in ("policy", *_EXPORTS):
    if f"{__name__}.{_name}" not in sys.modules:
        _register_lazily(f"{__name__}.{_name}")


def __getattr__(name):
    if name in _HOME:
        value = getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    elif name in _EXPORTS or name in ("policy", "cli"):
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
