"""Synthesis of unitary circuits on the canonical shape of a relation.

The decomposer walks the shape bottom-up.  At each node it sees U
through everything already synthesized, as the channel U V^dag from
the node's frame, and takes from it the Heisenberg images of the
outputs above each outgoing wire and of the outputs emitted here; the
gate-splitting lemma then refactors the node's local legs into wire and
output factors, which fixes the wire dimensions and the gate up to a
rotation on each output it emits.  The node reads that rotation off the
output's image and undoes it, and checks each wire against its image
through the gate, so every gate is finished at its own node and the
walk ends with one verification of the composite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import UnitaryIso, _projected_unitary, algebraic_lemma, \
    dagger, matrix_units
from .causal import UnitaryChannel, causal_structure, heisenberg_image
from .circuits import Circuit, compose_frame, compose_matrix, \
    fix_gate_phase, gate_legs
from .errors import InputError, NumericsError, check_tol
from .lattice import build_concept_lattice, connectivity
from .policy import INCLUSION_TOL, RECOMPOSE_TOL
from .relations import C3Witness, Relation, check_c3ep
from .tensorspace import TensorSpace

SUCCESS = "Success"
REFUSED_C3EP = "RefusedC3EP"
REFUSED_CAUSAL = "RefusedCausal"
FAILED = "Failed"


@dataclass
class NodeDiagnostics:
    """What the synthesis did at one node."""

    node: int
    local_dim: int
    leg_dims: tuple[int, ...]
    inclusion_residual: float


@dataclass
class DecompositionReport:
    """Outcome of decompose or verify_decomposition.

    status is Success, RefusedC3EP (witness set), RefusedCausal
    (extra_pair set), or Failed (verification checks did not pass).
    Success implies the residual is below tolerance, every gate is
    unitary and the connectivity is contained in the relation.
    """

    status: str
    witness: C3Witness | None = None
    extra_pair: tuple | None = None
    recomposition_residual: float | None = None
    connectivity_ok: bool | None = None
    gates_unitary: bool | None = None
    faithful: bool | None = None
    per_node_diagnostics: tuple = ()


def _phase_residual(P, Q) -> float:
    t = np.trace(dagger(Q) @ P)
    phase = t / abs(t) if abs(t) > 0 else 1.0
    return float(np.linalg.norm(P - phase * Q))


def verify_decomposition(U: UnitaryChannel, circuit: Circuit,
                         G: Relation,
                         tol: float = RECOMPOSE_TOL) -> DecompositionReport:
    """Report how well a circuit decomposes U under the constraint G.

    Checks gate unitarity, the recomposition residual up to global
    phase (accepted below tol * sqrt(dim)), connectivity(shape) inside
    G, and whether the connectivity equals the causal structure of U
    (the faithfulness flag).  Failures land in the report; nothing is
    raised for them.
    """
    check_tol(tol)
    U = U.with_leg_order(sorted(U.in_space.labels),
                         sorted(U.out_space.labels))
    return _verify(U, circuit, G, tol, causal_structure(U))


def _verify(U, circuit, G, tol, structure) -> DecompositionReport:
    """verify_decomposition for U with its legs in sorted order, against
    an already computed causal structure of U."""
    gates_ok = circuit.gates_unitary()
    conn = connectivity(circuit.shape)
    labels_match = (set(U.in_space.labels) == set(circuit.shape.inputs)
                    and set(U.out_space.labels)
                    == set(circuit.shape.outputs))
    dims_match = labels_match and all(
        U.in_space.dim(a) == circuit.in_dims[a] for a in circuit.in_dims) \
        and all(U.out_space.dim(b) == circuit.out_dims[b]
                for b in circuit.out_dims)
    if dims_match:
        residual = _phase_residual(compose_matrix(circuit), U.matrix)
    else:
        residual = float("inf")
    connectivity_ok = (set(G.inputs) == set(conn.inputs)
                       and set(G.outputs) == set(conn.outputs)
                       and conn.pairs <= G.pairs)
    faithful = labels_match and conn.pairs == structure.pairs
    ok = (gates_ok and connectivity_ok
          and residual <= tol * np.sqrt(U.dim))
    return DecompositionReport(
        status=SUCCESS if ok else FAILED,
        recomposition_residual=residual,
        connectivity_ok=connectivity_ok,
        gates_unitary=gates_ok,
        faithful=faithful)


def _inclusion_residuals(img, frame, gin, iso, leg) -> np.ndarray:
    """Relative distance from img of each matrix unit on gate output
    ``leg``, taken back through the gate onto the node's input legs."""
    units = matrix_units(iso.codomain.dim(leg))
    return img.residual(frame.embed(
        iso.inv_conj(iso.codomain.embed(units, [leg])), gin))


def _output_rotation(img, frame, gin, iso, leg):
    """The rotation w the gate leaves on output ``leg``, up to phase.

    The gate carries the unit e_i0 = s W_i^dag W_0 of the output's image
    (read from its rows) to (w E_i0 w^dag) x 1, so the part on ``leg`` is
    proportional to w_i w_0^dag; its column c, where |w_0| peaks, is w_i
    times one common factor, and the polar part of those columns is w.
    """
    units = dagger(img.rows) * img.scale @ img.rows[0]
    parts = iso.codomain.partial_trace(
        iso.conj(frame.partial_trace(units, gin)), [leg])
    c = int(np.argmax(np.abs(np.diagonal(parts[0]))))
    return _projected_unitary(parts[:, :, c].T)


def decompose(U: UnitaryChannel, G: Relation, seed: int = 0,
              tol: float = RECOMPOSE_TOL):
    """Synthesize a unitary circuit of the canonical shape of G for U.

    Returns (circuit, report).  Refusals return (None, report) with
    status RefusedC3EP (G fails the exclusion property) or
    RefusedCausal (U has an influence outside G).  Internal consistency
    failures raise NumericsError, among them a gate-splitting lemma
    whose split does not span a node's local legs, which the theory
    rules out once both checks pass.  tol sets the residual acceptance
    threshold of the final verification.
    """
    check_tol(tol)
    if set(U.in_space.labels) != set(G.inputs) \
            or set(U.out_space.labels) != set(G.outputs):
        raise InputError("channel legs do not match the relation")
    # frames index input legs in sorted order; align the channel first
    U = U.with_leg_order(sorted(U.in_space.labels),
                         sorted(U.out_space.labels))
    res = check_c3ep(G)
    if res.violated:
        return None, DecompositionReport(status=REFUSED_C3EP,
                                         witness=res.witness)
    structure = causal_structure(U)
    extra = sorted(structure.pairs - G.pairs)
    if extra:
        return None, DecompositionReport(status=REFUSED_CAUSAL,
                                         extra_pair=extra[0])
    shape = build_concept_lattice(G)
    in_dims = {a: U.in_space.dim(a) for a in shape.inputs}
    out_dims = {b: U.out_space.dim(b) for b in shape.outputs}
    gates = {}
    # a wire carries dimension 1 until the lemma at its source widens it
    wire_dims = {e: 1 for e in shape.covers}
    diags = []
    for v in shape.linear_extension():
        below = {u for u in range(len(shape.nodes))
                 if u != v and shape.leq(u, v)}
        frame, vmat = compose_frame(
            shape, gates, wire_dims, in_dims, out_dims, below)
        gin, _ = gate_legs(shape, v, wire_dims, out_dims)
        local_dim = math.prod(frame.dim(name) for name in gin)
        covers = shape.up_covers(v)
        outs_here = shape.outputs_at(v)
        alpha = set(shape.nodes[v].alpha)
        if local_dim == 1:
            oversized = [b for b in outs_here if out_dims[b] != 1]
            if oversized:
                raise NumericsError(
                    f"output {oversized[0]!r} at node {v} has dimension "
                    f"{out_dims[oversized[0]]} but nothing feeds it")
            gates[v] = np.eye(1, dtype=complex)
            diags.append(NodeDiagnostics(v, 1, (1,) * len(covers)
                                         + (1,) * len(outs_here), 0.0))
            continue
        # U seen from the node's frame: its images are V U^dag(E x 1)U V^dag
        seen = UnitaryChannel(U.matrix @ dagger(vmat), frame, U.out_space)
        live = [w for w in covers if shape.nodes[w].beta]
        bs = []
        x_legs = []
        for w in live:
            reach = set()
            for b in shape.nodes[w].beta:
                reach |= {a for a, bb in G.pairs if bb == b}
            bs.append(heisenberg_image(seen, shape.nodes[w].beta))
            x_legs.append(sorted("A:" + a for a in reach - alpha))
        n_covers = len(live)
        for b in outs_here:
            bs.append(heisenberg_image(seen, [b]))
            x_legs.append([])
        if not bs:
            raise NumericsError(
                f"node {v} carries dimension {local_dim} but has no "
                "outputs above it")
        got = algebraic_lemma(gin, x_legs, bs, seed=seed)
        if not got.spans:
            raise NumericsError(
                f"gate-splitting lemma at node {v} found {got.n_sectors} "
                f"sector(s) with leg dims {got.sectors}, not one spanning "
                "the local legs")
        dims = got.sectors[0]
        for b, d in zip(outs_here, dims[n_covers:]):
            if d != out_dims[b]:
                raise NumericsError(
                    f"output {b!r} realized with dimension {d} instead "
                    f"of {out_dims[b]} at node {v}")
        wire_dims.update(((v, w), d) for w, d in zip(live, dims))
        # the gate's output legs are z1..zn, live wires first; realized
        # wires must lie inside the images they were cut from
        legs = tuple(f"z{k + 1}" for k in range(len(dims)))
        iso = UnitaryIso(got.iso.matrix, got.a_space,
                         TensorSpace(tuple(zip(legs, dims))))
        resids = [_inclusion_residuals(bs[k], frame, gin, iso, legs[k])
                  for k in range(n_covers)]
        # np.max keeps a NaN, which the builtin max can drop
        worst = float(np.max(np.concatenate([[0.0], *resids])))
        if not worst <= INCLUSION_TOL:
            raise NumericsError(
                f"wire algebra at node {v} leaks outside its image "
                f"(residual {worst:.2e})")
        # undo the rotation the gate leaves on each output it emits
        gate = iso.matrix
        for k in range(n_covers, len(bs)):
            rot = _output_rotation(bs[k], frame, gin, iso, legs[k])
            gate = iso.codomain.embed(dagger(rot), [legs[k]]) @ gate
        gates[v] = gate
        diags.append(NodeDiagnostics(v, local_dim, tuple(dims), worst))
    gates = {v: fix_gate_phase(g) for v, g in gates.items()}
    circuit = Circuit(shape, wire_dims, in_dims, out_dims, gates)
    report = _verify(U, circuit, G, tol, structure)
    report.per_node_diagnostics = tuple(diags)
    return circuit, report
