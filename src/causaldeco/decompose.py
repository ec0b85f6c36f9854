"""Synthesis of unitary circuits on the canonical shape of a relation.

The decomposer walks the shape bottom-up.  At each node it sees U
through everything already synthesized, as the channel U V^dag from
the node's frame, and takes from it the Heisenberg images of the
outputs above each outgoing wire and of the outputs emitted here; the
gate-splitting lemma then refactors the node's local legs into wire and
output factors, which fixes the gate and the wire dimensions.  After the
top node, whatever local rotations remain on the output legs are peeled
off the composite and absorbed into the emitting gates.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import SectorDecomposition, SectorObstruction, \
    algebraic_lemma, dagger
from .causal import UnitaryChannel, causal_structure, heisenberg_image
from .circuits import Circuit, advance_frame, compose_matrix, \
    fix_gate_phase, node_input_legs, node_output_legs, start_frame, _leg_name
from .errors import InputError, NumericsError
from .lattice import build_concept_lattice, connectivity
from .relations import C3Witness, Relation, check_c3ep
from .tensorspace import TensorSpace, require_finite

SUCCESS = "Success"
REFUSED_C3EP = "RefusedC3EP"
REFUSED_CAUSAL = "RefusedCausal"
OBSTRUCTION = "Obstruction"
FAILED = "Failed"

# recomposition residual counts as zero below tol * sqrt(dim)
RECOMPOSE_TOL = 1e-8
# wire algebras must sit inside the images they were cut from
INCLUSION_TOL = 1e-6


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
    (extra_pair set), Obstruction (obstruction and obstruction_node
    set), or Failed (verification checks did not pass).  Success
    implies the residual is below tolerance, every gate is unitary and
    the connectivity is contained in the relation.
    """

    status: str
    witness: C3Witness | None = None
    extra_pair: tuple | None = None
    obstruction: SectorDecomposition | None = None
    obstruction_node: int | None = None
    recomposition_residual: float | None = None
    connectivity_ok: bool | None = None
    gates_unitary: bool | None = None
    faithful: bool | None = None
    per_node_diagnostics: tuple = ()


def equal_up_to_global_phase(P, Q, tol=None) -> bool:
    """Whether min over phases of ||P - exp(i t) Q||_F is within tol.

    The minimizing phase is the argument of tr(Q^dag P); tol defaults
    to 1e-8 sqrt(dim).
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if P.shape != Q.shape:
        raise InputError(f"shape mismatch {P.shape} vs {Q.shape}")
    return _phase_residual(P, Q) <= \
        (RECOMPOSE_TOL * np.sqrt(P.shape[0]) if tol is None else tol)


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


def _inclusion_residuals(img, frame, name, d) -> list[float]:
    """Relative distance from img of each matrix unit on wire ``name``."""
    return [img.residual(frame.embed(e, [name]))
            for e in np.eye(d * d, dtype=complex).reshape(d * d, d, d)]


def _partial_composition(shape, gates, wire_dims, in_dims, out_dims,
                         members):
    """Frame and matrix of the gates at ``members``, identity elsewhere."""
    frame = start_frame(shape, in_dims)
    mat = np.eye(frame.total_dim, dtype=complex)
    dims = dict(wire_dims)
    for u in shape.linear_extension():
        if u not in members:
            continue
        gin = [_leg_name(l) for l in node_input_legs(shape, u)]
        gout = [(_leg_name(l),
                 dims[l[1]] if l[0] == "wire" else out_dims[l[1]])
                for l in node_output_legs(shape, u)]
        frame, mat = advance_frame(frame, mat, gates[u], gin, gout)
    return frame, mat


def _split_local_rotation(W, out_space):
    """Per-leg factors of a tensor-product unitary on out_space.

    W must equal a product of leg-local unitaries up to global phase
    (guaranteed for the residual rotation left by the synthesis); each
    factor is recovered from the best slice and polar-projected.
    """
    locals_ = {}
    for b in out_space.labels:
        d = out_space.dim(b)
        if d == 1:
            locals_[b] = np.eye(1, dtype=complex)
            continue
        perm, permuted = out_space.front_permutation([b])
        Wp = perm @ W @ dagger(perm)
        rest = Wp.shape[0] // d
        blocks = Wp.reshape(d, rest, d, rest)
        flat = int(np.argmax(np.abs(blocks)))
        _, r, _, c = np.unravel_index(flat, blocks.shape)
        s = blocks[:, r, :, c]
        require_finite(s, f"the residual rotation on leg {b!r}")
        u, sv, vh = np.linalg.svd(s)
        if not (sv[-1] > 0.5 * sv[0]):
            raise NumericsError(
                f"residual rotation does not factor on leg {b!r} "
                f"(singular values {sv[0]:.3e}..{sv[-1]:.3e})")
        locals_[b] = u @ vh
    return locals_


def decompose(U: UnitaryChannel, G: Relation, seed: int = 0,
              tol: float = RECOMPOSE_TOL):
    """Synthesize a unitary circuit of the canonical shape of G for U.

    Returns (circuit, report).  Refusals return (None, report) with
    status RefusedC3EP (G fails the exclusion property) or
    RefusedCausal (U has an influence outside G); an Obstruction status
    (also circuit-less) reports a multi-sector split, which the theory
    rules out under the preconditions, so it signals numerical trouble.
    Internal consistency failures raise NumericsError.  tol sets the
    residual acceptance threshold of the final verification.
    """
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
    wire_dims = {}
    diags = []
    for v in shape.linear_extension():
        below = [u for u in range(len(shape.nodes))
                 if u != v and shape.leq(u, v)]
        frame, vmat = _partial_composition(
            shape, gates, wire_dims, in_dims, out_dims, set(below))
        gin = [_leg_name(l) for l in node_input_legs(shape, v)]
        local_dim = 1
        for name in gin:
            local_dim *= frame.dim(name)
        covers = shape.up_covers(v)
        outs_here = shape.outputs_at(v)
        alpha = set(shape.nodes[v].alpha)
        if local_dim == 1:
            oversized = [b for b in outs_here if out_dims[b] != 1]
            if oversized:
                raise NumericsError(
                    f"output {oversized[0]!r} at node {v} has dimension "
                    f"{out_dims[oversized[0]]} but nothing feeds it")
            for w in covers:
                wire_dims[(v, w)] = 1
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
        if isinstance(got, SectorObstruction):
            return None, DecompositionReport(
                status=OBSTRUCTION, obstruction=got.decomposition,
                obstruction_node=v, per_node_diagnostics=tuple(diags))
        dims = got.leg_dims
        for b, d in zip(outs_here, dims[n_covers:]):
            if d != out_dims[b]:
                raise NumericsError(
                    f"output {b!r} realized with dimension {d} instead "
                    f"of {out_dims[b]} at node {v}")
        wd = dict(zip(live, dims[:n_covers]))
        for w in covers:
            wire_dims[(v, w)] = wd.get(w, 1)
        gates[v] = got.iso.matrix
        # realized wires must lie inside the images they were cut from,
        # under everything synthesized up to and including this node
        gout = [(_leg_name(l),
                 wire_dims[l[1]] if l[0] == "wire" else out_dims[l[1]])
                for l in node_output_legs(shape, v)]
        nframe, nvmat = advance_frame(frame, vmat, gates[v], gin, gout)
        seen = UnitaryChannel(U.matrix @ dagger(nvmat), nframe, U.out_space)
        resids = [0.0]
        for w in live:
            resids += _inclusion_residuals(
                heisenberg_image(seen, shape.nodes[w].beta), nframe,
                _leg_name(("wire", (v, w))), wire_dims[(v, w)])
        # np.max keeps a NaN, which the builtin max can drop
        worst = float(np.max(resids))
        if not worst <= INCLUSION_TOL:
            raise NumericsError(
                f"wire algebra at node {v} leaks outside its image "
                f"(residual {worst:.2e})")
        diags.append(NodeDiagnostics(v, local_dim, tuple(dims), worst))
    # peel the leftover output rotations off the composite
    draft = Circuit(shape, wire_dims, in_dims, out_dims, gates)
    W = U.matrix @ dagger(compose_matrix(draft))
    locals_ = _split_local_rotation(W, draft.out_space)
    for b, wb in locals_.items():
        m = shape.mu[b]
        space = _gate_out_space(draft, node_output_legs(shape, m))
        gates[m] = space.embed(wb, ["B:" + b]) @ gates[m]
    gates = {v: fix_gate_phase(g) for v, g in gates.items()}
    circuit = Circuit(shape, wire_dims, in_dims, out_dims, gates)
    report = _verify(U, circuit, G, tol, structure)
    report.per_node_diagnostics = tuple(diags)
    return circuit, report


def _gate_out_space(circuit, legs):
    return TensorSpace(tuple((_leg_name(l), circuit.leg_dim(l))
                             for l in legs))
