"""Worked channels: the two-CNOT unitary, a loose-wires circuit with the
same causal structure, and tensor-product counterexamples that separate
having a causal structure from admitting a faithful circuit of its shape.

Everything here is exactly representable (permutation matrices, identity
gates, seeded companions), so tests can pin matrices literally.
"""

from itertools import chain

import numpy as np

from .algebra import algebraic_lemma
from .causal import UnitaryChannel, causal_structure, heisenberg_image
from .circuits import Circuit, compose, random_circuit_unitary
from .errors import InputError, NumericsError
from .lattice import build_concept_lattice
from .relations import Relation, c3_relation, check_c3ep
from .tensorspace import TensorSpace

# seeded draws allowed when searching for a faithful companion
RETRY_BUDGET = 32


def u3() -> UnitaryChannel:
    """The two-CNOT channel: the middle qubit controls NOTs on both sides.

    Basis action (x1, x2, x3) -> (x1+x2, x2, x2+x3) mod 2.  The CNOTs
    share only the control, so they commute and the order is immaterial.
    Input legs a1, a2, a3 and output legs b1, b2, b3, all qubits.
    """
    ins = TensorSpace((("a1", 2), ("a2", 2), ("a3", 2)))
    outs = TensorSpace((("b1", 2), ("b2", 2), ("b3", 2)))
    cnot = np.zeros((4, 4))
    for c in (0, 1):
        for t in (0, 1):
            cnot[2 * c + (c ^ t), 2 * c + t] = 1.0
    # control leg listed first in each embed
    m = ins.embed(cnot, ["a2", "a1"]) @ ins.embed(cnot, ["a2", "a3"])
    return UnitaryChannel(m, ins, outs)


def loose_wires_c3():
    """Identity-only circuit on seven routed qubits, causal structure C3.

    Each input leg bundles one qubit per output it reaches: a1 = (to b1,
    to b2), a2 = (to b1, to b2, to b3), a3 = (to b2, to b3).  The gates
    only regroup the bundles onto wires and output legs, so the composite
    is the basis permutation delivering every qubit to its addressee.
    Inside a composite leg, qubits are ordered by source input first and
    by destination output within a source.

    Returns (circuit, channel); the circuit has the canonical C3 shape
    and demonstrates that some unitaries with this causal structure do
    admit faithful decompositions.
    """
    shape = build_concept_lattice(c3_relation())
    # node 0 splits a2 = (q1, q2, q3) into wires (q1, q2) and (q3,) with
    # unchanged ordering, and node 3 merges (p2, q2) and (r2,) into b2,
    # so both gates are identities
    g1 = np.zeros((16, 16))
    for p1 in (0, 1):
        for p2 in (0, 1):
            for q1 in (0, 1):
                for q2 in (0, 1):
                    # in legs (a1, z01) carry (p1, p2, q1, q2);
                    # out legs (z13, b1) carry (p2, q2, p1, q1)
                    g1[8 * p2 + 4 * q2 + 2 * p1 + q1,
                       8 * p1 + 4 * p2 + 2 * q1 + q2] = 1.0
    g2 = np.zeros((8, 8))
    for r2 in (0, 1):
        for r3 in (0, 1):
            for q3 in (0, 1):
                # in legs (a3, z02) carry (r2, r3, q3);
                # out legs (z23, b3) carry (r2, q3, r3)
                g2[4 * r2 + 2 * q3 + r3, 4 * r2 + 2 * r3 + q3] = 1.0
    circ = Circuit(shape,
                   wire_dims={(0, 1): 4, (0, 2): 2, (1, 3): 4, (2, 3): 2},
                   in_dims={"a1": 4, "a2": 8, "a3": 4},
                   out_dims={"b1": 4, "b2": 8, "b3": 4},
                   gates={0: np.eye(8), 1: g1, 2: g2, 3: np.eye(8)})
    return circ, compose(circ)


def group_legs(U: UnitaryChannel, in_groups, out_groups) -> UnitaryChannel:
    """Fuse legs of a channel into labeled super-legs.

    ``in_groups`` and ``out_groups`` are lists of (new_label, members)
    pairs; members stack into the new leg in the order given, first
    member most significant.  Every existing leg must land in exactly
    one group.  The regrouping is an exact permutation of a checked
    channel, so it is not checked again.
    """
    def regroup(space, groups, side):
        flat = []
        factors = []
        for label, members in groups:
            members = list(members)
            if not members:
                raise InputError(f"{side} group {label!r} is empty")
            d = 1
            for m in members:
                d *= space.dim(m)
            flat.extend(members)
            factors.append((label, d))
        if len(flat) != len(set(flat)):
            raise InputError(f"{side} groups overlap")
        if set(flat) != set(space.labels):
            raise InputError(f"{side} groups must cover every leg")
        return flat, TensorSpace(tuple(factors))

    in_flat, new_in = regroup(U.in_space, in_groups, "input")
    out_flat, new_out = regroup(U.out_space, out_groups, "output")
    return U._permuted(in_flat, out_flat, new_in, new_out)


def build_counterexample(G: Relation, seed: int = 0,
                         companion: UnitaryChannel | None = None
                         ) -> UnitaryChannel:
    """A unitary with causal structure G that defeats shape synthesis.

    Tensors the two-CNOT channel onto the witness legs of a companion V
    whose causal structure equals G exactly, then fuses each witness leg
    with its extra qubit.  The fused channel keeps structure G while the
    hidden qubit factor rules out any faithful circuit of the canonical
    shape of G (see obstruction_witness for the certificate).

    A companion may be supplied; if absent, or if the supplied one fails
    the structure check, one is searched for by drawing random circuit
    unitaries on the canonical shape at default dims, seeds spawned off
    ``seed``.  Exhausting the retry budget raises InputError, since the
    relation itself may not admit faithful unitaries at those dims.

    The fused structure comes from the factors: unital tensor products
    commute exactly when both factor pairs do, so a fused input
    influences a fused output exactly when V's legs or u3's do.  Checked
    are V's structure at V's dimension, u3's at D=8, their union against
    G (NumericsError if it differs) and the kron product's unitarity.
    """
    res = check_c3ep(G)
    if res.satisfied:
        raise InputError("relation satisfies the exclusion property, so "
                         "every faithful unitary decomposes and there is "
                         "no counterexample to build")
    if companion is not None and (
            set(companion.in_space.labels) != set(G.inputs)
            or set(companion.out_space.labels) != set(G.outputs)):
        raise InputError("companion legs do not match the relation")
    drawn = (random_circuit_unitary(G, seed=int(s))[1] for s in
             np.random.SeedSequence(seed).generate_state(RETRY_BUDGET))
    for V in chain([companion] if companion is not None else [], drawn):
        v_rel = causal_structure(V)
        if v_rel.same_pairs(G):
            break
    else:
        raise InputError(
            f"no companion with the exact causal structure in "
            f"{RETRY_BUDGET} seeded draws; the relation may not admit "
            "one at the default dimensions")
    w = res.witness
    role_in = {w.a1: "a1", w.a2: "a2", w.a3: "a3"}
    role_out = {w.b1: "b1", w.b2: "b2", w.b3: "b3"}
    base = u3()
    leg = w.as_dict()
    pairs = v_rel.pairs | {(leg[x], leg[y])
                           for x, y in causal_structure(base).pairs}
    if pairs != G.pairs:
        raise NumericsError("fused channel drifted off the relation: got "
                            f"pairs {sorted(pairs)}")
    extra = base.relabeled({r: "u3:" + r for r in ("a1", "a2", "a3")},
                           {r: "u3:" + r for r in ("b1", "b2", "b3")})
    prod = V.tensor(extra)
    in_groups = [(a, [a, "u3:" + role_in[a]] if a in role_in else [a])
                 for a in sorted(G.inputs)]
    out_groups = [(b, [b, "u3:" + role_out[b]] if b in role_out else [b])
                  for b in sorted(G.outputs)]
    return group_legs(prod, in_groups, out_groups)


def obstruction_witness(U: UnitaryChannel, G: Relation, seed: int = 0):
    """Multi-sector certificate that no bottom gate serves the shape.

    Groups the legs of U by witness role (remaining legs fused into one
    spectator party per side), forms the four-party constraint that
    keeps every pair except role-1 -> role-3 and role-3 -> role-1, and
    runs the gate-splitting step at the bottom node of that constraint's
    canonical shape, feeding it the Heisenberg images of the two covers'
    exclusive outputs.  Its joint sector decomposition, which must have
    at least two sectors, is returned as the certificate.

    U's legs must carry exactly G's labels, and U must actually have the
    witness's two no-influence pairs (otherwise the support checks abort
    with NumericsError).  A single-sector outcome also aborts loudly:
    for channels built like build_counterexample it cannot happen.
    """
    res = check_c3ep(G)
    if res.satisfied:
        raise InputError("relation satisfies the exclusion property, "
                         "nothing to obstruct")
    if set(U.in_space.labels) != set(G.inputs) \
            or set(U.out_space.labels) != set(G.outputs):
        raise InputError("channel legs do not match the relation")
    w = res.witness
    rest_in = sorted(set(G.inputs) - {w.a1, w.a2, w.a3})
    rest_out = sorted(set(G.outputs) - {w.b1, w.b2, w.b3})
    in_groups = [("P1", [w.a1]), ("P2", [w.a2]), ("P3", [w.a3])]
    out_groups = [("Q1", [w.b1]), ("Q2", [w.b2]), ("Q3", [w.b3])]
    if rest_in:
        in_groups.append(("P4", rest_in))
    if rest_out:
        out_groups.append(("Q4", rest_out))
    grouped = group_legs(U, in_groups, out_groups)
    ains = tuple(p for p, _ in in_groups)
    bouts = tuple(q for q, _ in out_groups)
    pairs = frozenset((p, q) for p in ains for q in bouts) \
        - {("P1", "Q3"), ("P3", "Q1")}
    shape = build_concept_lattice(Relation(ains, bouts, pairs))
    v0 = shape.bottom()
    covers = shape.up_covers(v0)
    if len(covers) != 2:
        raise NumericsError("fused constraint did not produce the "
                            "expected two covers at the bottom node")
    outs_above = [frozenset(b for b in bouts if shape.leq(v, shape.mu[b]))
                  for v in covers]
    exclusive = [sorted(outs_above[0] - outs_above[1]),
                 sorted(outs_above[1] - outs_above[0])]
    bs = [heisenberg_image(grouped, e) for e in exclusive]
    x_legs = [shape.inputs_at(v) for v in covers]
    deco = algebraic_lemma(shape.inputs_at(v0), x_legs, bs, seed=seed)
    if deco.n_sectors < 2:
        raise NumericsError(
            "bottom-node algebras span a single sector; the channel does "
            "not witness the obstruction")
    return deco
