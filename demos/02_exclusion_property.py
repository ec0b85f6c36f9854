"""
The C3 exclusion property
=========================

A relation supports faithful unitary circuit synthesis exactly when no
restriction of it equals the seven-pair C3 pattern.  Three equivalent
tests are implemented and compared on every call: the brute restriction
scan, the common-children intersection criterion, and the unique-cover-
path test on the lattice.
"""

from causaldeco import (c3_relation, check_c3ep, check_c3ep_lattice,
                        count_paths, build_concept_lattice,
                        overlapping_fans_relation, Relation)

# the pattern itself violates the property, and is its own witness
C3 = c3_relation()
res = check_c3ep(C3)
print("C3 satisfied:", res.satisfied)
print("witness roles:", res.witness.as_dict())

# lattice view: a violating relation has a pair joined by two distinct
# cover paths
shape = build_concept_lattice(C3)
lat = check_c3ep_lattice(shape)
print("lattice evidence (pair, path count):", lat.evidence)
print("paths a2 -> b2:", count_paths(shape, "a2", "b2"))

# the worked fans example satisfies the property
G = overlapping_fans_relation()
print("\nfans satisfied:", check_c3ep(G).satisfied)
print("fans lattice route agrees:",
      check_c3ep_lattice(build_concept_lattice(G)).satisfied)

# one extra pair repairs C3: adding a corner destroys the forbidden
# restriction
padded = Relation(C3.inputs, C3.outputs,
                  C3.pairs | {("a1", "b3")})
print("\nC3 plus (a1, b3) satisfied:", check_c3ep(padded).satisfied)
print("its shape has",
      len(build_concept_lattice(padded).nodes), "nodes")
