"""Circuits over a shape: leg bookkeeping, composition, serialization.

A circuit assigns a matrix gate to every node of a circuit shape.  The
gate at node v maps the node's input legs to its output legs in a fixed
order: attached overall inputs sorted by label, then incoming wires
sorted by source node; outgoing wires sorted by target node, then
attached overall outputs sorted by label.  Composite indices are
row-major over that order (first leg most significant), matching
UnitaryChannel and TensorSpace conventions.

Gates are normally square unitaries.  Rectangular matrices (isometries,
co-isometries) are accepted by the container and by composition so that
copy-style circuits can be expressed and verified; whether every gate is
square-unitary is reported by ``gates_unitary`` rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import UnitaryChannel, matrix_from_cells, matrix_to_cells
from .errors import InputError, document, dump_json, read_text
from .lattice import (ConceptLattice, build_concept_lattice, shape_from_json,
                      shape_to_json)
from .policy import DIM_CAP, FRAME_DIM_CAP, GATE_UNITARITY_TOL
from .tensorspace import TensorSpace, as_dim, haar_unitary, unitarity_residual

LEG_ORDER_DOC = (
    "gate inputs: attached overall inputs sorted by label, then incoming "
    "wires sorted by source node; gate outputs: outgoing wires sorted by "
    "target node, then attached overall outputs sorted by label; composite "
    "indices row-major, first leg most significant")


def node_input_legs(shape: ConceptLattice, v: int) -> list[tuple]:
    """Ordered input legs of the gate at node v.

    Legs are ("in", label) for attached overall inputs and
    ("wire", (u, v)) for incoming wires.
    """
    legs = [("in", a) for a in shape.inputs_at(v)]
    legs += [("wire", (u, v)) for u in shape.down_covers(v)]
    return legs


def node_output_legs(shape: ConceptLattice, v: int) -> list[tuple]:
    """Ordered output legs: ("wire", (v, w)) then ("out", label)."""
    legs = [("wire", (v, w)) for w in shape.up_covers(v)]
    legs += [("out", b) for b in shape.outputs_at(v)]
    return legs


def gate_legs(shape: ConceptLattice, v: int, wire_dims, out_dims):
    """The gate at node v as advance_frame consumes it: the frame names
    of its input legs and the (name, dim) pairs of its output legs."""
    gin = [_leg_name(l) for l in node_input_legs(shape, v)]
    gout = [(_leg_name(l),
             wire_dims[l[1]] if l[0] == "wire" else out_dims[l[1]])
            for l in node_output_legs(shape, v)]
    return gin, gout


def _leg_name(leg) -> str:
    kind, key = leg
    if kind == "in":
        return "A:" + key
    if kind == "out":
        return "B:" + key
    u, v = key
    return f"Z:{u}->{v}"


@dataclass
class Circuit:
    """Gates on a circuit shape, with per-leg dimensions.

    ``wire_dims`` maps cover edges (u, v) to the dimension of the wire
    between them; ``in_dims``/``out_dims`` map overall leg labels to
    dimensions; ``gates`` maps node index to a matrix of shape
    (product of output-leg dims, product of input-leg dims).
    """

    shape: ConceptLattice
    wire_dims: dict
    in_dims: dict
    out_dims: dict
    gates: dict

    def __post_init__(self):
        shape = self.shape
        covers = set(shape.covers)
        wire_dims = {}
        for key, d in self.wire_dims.items():
            edge = tuple(key)
            if edge not in covers:
                raise InputError(f"wire {edge} is not a cover edge")
            wire_dims[edge] = as_dim(d, f"wire {edge}")
        missing = covers - set(wire_dims)
        if missing:
            raise InputError(f"missing wire dims for {sorted(missing)}")
        self.wire_dims = wire_dims
        self.in_dims = _leg_dim_map(self.in_dims, shape.inputs, "input")
        self.out_dims = _leg_dim_map(self.out_dims, shape.outputs, "output")
        if self.total_in_dim > DIM_CAP or self.total_out_dim > DIM_CAP:
            raise InputError(
                f"total dimension {self.total_in_dim}x{self.total_out_dim} "
                f"exceeds cap {DIM_CAP}")
        gates = {}
        for v in range(len(shape)):
            if v not in self.gates:
                raise InputError(f"missing gate for node {v}")
            g = np.asarray(self.gates[v], dtype=complex)
            want = self.gate_shape(v)
            if g.shape != want:
                raise InputError(
                    f"gate at node {v} has shape {g.shape}, expected {want}")
            if not np.all(np.isfinite(g)):
                raise InputError(f"gate at node {v} has non-finite entries")
            gates[v] = g
        extra = set(self.gates) - set(gates)
        if extra:
            raise InputError(f"gates given for unknown nodes {sorted(extra)}")
        self.gates = gates

    def gate_shape(self, v: int) -> tuple[int, int]:
        return _shape_of(self.shape, v, self.wire_dims, self.in_dims,
                         self.out_dims)

    @property
    def in_space(self) -> TensorSpace:
        return TensorSpace(tuple((a, self.in_dims[a])
                                 for a in sorted(self.shape.inputs)))

    @property
    def out_space(self) -> TensorSpace:
        return TensorSpace(tuple((b, self.out_dims[b])
                                 for b in sorted(self.shape.outputs)))

    @property
    def total_in_dim(self) -> int:
        return math.prod(self.in_dims.values())

    @property
    def total_out_dim(self) -> int:
        return math.prod(self.out_dims.values())

    def gate_unitarity_residual(self) -> float:
        """Largest per-gate ``unitarity_residual``: inf if a gate is
        rectangular, NaN if one reads NaN (np.max keeps a NaN)."""
        resids = [unitarity_residual(g) for g in self.gates.values()]
        return float(np.max(resids, initial=0.0))

    def gates_unitary(self) -> bool:
        return self.gate_unitarity_residual() <= GATE_UNITARITY_TOL


def _leg_dim_map(dims, labels, side) -> dict:
    out = {}
    for label in labels:
        if label not in dims:
            raise InputError(f"missing {side} dim for {label!r}")
        out[label] = as_dim(dims[label], f"{side} leg {label!r}")
    extra = set(dims) - set(out)
    if extra:
        raise InputError(f"dims given for unknown {side} legs {sorted(extra)}")
    return out


def advance_frame(frame, mat, gate, gin, gout):
    """Contract one gate into a running composition.

    ``gin`` names the frame legs the gate consumes (in gate leg order),
    ``gout`` is the (name, dim) tuple of legs it emits.  Returns the new
    (frame, mat) with the emitted legs at the front: the gate acts on
    its own legs of the rows, and the rest ride along.
    """
    rest = frame.complement(gin)
    new = TensorSpace(tuple(gout) + frame.subspace(rest).factors)
    if new.total_dim > FRAME_DIM_CAP:
        raise InputError(f"intermediate dimension {new.total_dim} exceeds "
                         f"{FRAME_DIM_CAP} at the gate onto "
                         f"{[name for name, _ in gout]}")
    rows = frame.reorder(mat, tuple(gin) + rest)
    mat = gate @ rows.reshape(gate.shape[1], -1)
    return new, mat.reshape(new.total_dim, -1)


def compose_frame(shape, gates, wire_dims, in_dims, out_dims,
                  members=None):
    """Frame and matrix of the gates at ``members`` (every node when
    None) contracted along the linear extension, identity elsewhere."""
    frame = TensorSpace(tuple(("A:" + a, in_dims[a])
                              for a in sorted(shape.inputs)))
    mat = np.eye(frame.total_dim, dtype=complex)
    for v in shape.linear_extension():
        if members is None or v in members:
            frame, mat = advance_frame(
                frame, mat, gates[v],
                *gate_legs(shape, v, wire_dims, out_dims))
    return frame, mat


def compose_matrix(circuit: Circuit) -> np.ndarray:
    """Contract all gates along wires; rows/cols in sorted-label order.

    Works for rectangular gates; the result maps the circuit's in_space
    to its out_space coordinates but is not checked for unitarity.
    """
    frame, mat = compose_frame(circuit.shape, circuit.gates,
                               circuit.wire_dims, circuit.in_dims,
                               circuit.out_dims)
    final = ["B:" + b for b in sorted(circuit.shape.outputs)]
    return frame.reorder(mat, final)


def compose(circuit: Circuit) -> UnitaryChannel:
    """Composite channel of the circuit; raises if it is not unitary."""
    mat = compose_matrix(circuit)
    return UnitaryChannel(mat, circuit.in_space, circuit.out_space)


def fix_gate_phase(g) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real
    positive (first such entry in row-major order on ties)."""
    g = np.asarray(g, dtype=complex)
    entry = g.flat[int(np.argmax(np.abs(g)))]
    if abs(entry) == 0.0:
        return g.copy()
    return g * (entry.conjugate() / abs(entry))


def uniform_dims(shape: ConceptLattice, base: int = 2):
    """Balanced power-of-``base`` dimensions for every leg and wire.

    A wire (u, v) is usable when some input attaches at or below u and
    some output attaches at or above v; only usable wires can carry
    signal, so they get dimension ``base`` and the rest dimension 1.
    Leg dimensions are then chosen per node, as powers of ``base``, to
    make every gate square; the excess exponent at a node is spread over
    its attached legs, first labels (in sorted order) taking the
    remainder.  Returns (in_dims, out_dims, wire_dims).
    """
    if base < 2:
        raise InputError(f"base must be at least 2, got {base}")
    n = len(shape)
    reach_in = [any(shape.leq(shape.lam[a], v) for a in shape.inputs)
                for v in range(n)]
    reach_out = [any(shape.leq(v, shape.mu[b]) for b in shape.outputs)
                 for v in range(n)]
    wire_exp = {(u, v): 1 if reach_in[u] and reach_out[v] else 0
                for u, v in shape.covers}
    in_exp, out_exp = {}, {}
    for v in range(n):
        lam_legs = shape.inputs_at(v)
        mu_legs = shape.outputs_at(v)
        k = sum(wire_exp[(u, v)] for u in shape.down_covers(v))
        w = sum(wire_exp[(v, x)] for x in shape.up_covers(v))
        nl, nm = len(lam_legs), len(mu_legs)
        if nl and nm:
            diff = (nl + k) - (nm + w)
            if diff >= 0:
                _spread(lam_legs, nl, in_exp)
                _spread(mu_legs, nm + diff, out_exp)
            else:
                _spread(lam_legs, nl - diff, in_exp)
                _spread(mu_legs, nm, out_exp)
        elif nl:
            if w < k:
                raise InputError(f"node {v} cannot be balanced with uniform "
                                 f"dims; supply explicit dims")
            _spread(lam_legs, w - k, in_exp)
        elif nm:
            if k < w:
                raise InputError(f"node {v} cannot be balanced with uniform "
                                 f"dims; supply explicit dims")
            _spread(mu_legs, k - w, out_exp)
        elif k != w:
            raise InputError(f"node {v} has unbalanced wires and no legs; "
                             f"supply explicit dims")
    in_dims = {a: base ** e for a, e in in_exp.items()}
    out_dims = {b: base ** e for b, e in out_exp.items()}
    wire_dims = {edge: base ** e for edge, e in wire_exp.items()}
    return in_dims, out_dims, wire_dims


def _spread(labels, total, into):
    base, extra = divmod(total, len(labels))
    for i, label in enumerate(labels):
        into[label] = base + (1 if i < extra else 0)


def random_circuit_unitary(G, wire_dims=None, leg_dims=None, seed: int = 0):
    """Haar-random square-unitary gates on the canonical shape of G.

    Returns (circuit, channel).  With no dims given, uniform_dims picks
    them; otherwise both wire_dims and leg_dims (a label -> dim map
    consulted for inputs and outputs alike) must be supplied and must
    make every gate square.  Gates are drawn node by node in the linear
    extension order from a generator seeded with ``seed``, then phase
    fixed, so output is reproducible.
    """
    shape = G if isinstance(G, ConceptLattice) else build_concept_lattice(G)
    if wire_dims is None and leg_dims is None:
        in_dims, out_dims, wire_dims = uniform_dims(shape)
    elif wire_dims is not None and leg_dims is not None:
        try:
            in_dims = {a: leg_dims[a] for a in shape.inputs}
            out_dims = {b: leg_dims[b] for b in shape.outputs}
        except KeyError as exc:
            raise InputError(f"leg_dims missing {exc.args[0]!r}") from exc
        wire_dims = {tuple(k): d for k, d in wire_dims.items()}
    else:
        raise InputError("supply both wire_dims and leg_dims, or neither")
    rng = np.random.default_rng(seed)
    gates = {}
    for v in shape.linear_extension():
        try:
            dout, din = _shape_of(shape, v, wire_dims, in_dims, out_dims)
        except KeyError as exc:
            raise InputError(f"missing dim for {exc.args[0]!r}") from exc
        if dout != din:
            raise InputError(
                f"node {v} gate would be {dout}x{din}; dims must make "
                f"every gate square")
        gates[v] = fix_gate_phase(haar_unitary(din, rng))
    circuit = Circuit(shape, wire_dims, in_dims, out_dims, gates)
    return circuit, compose(circuit)


def _shape_of(shape, v, wire_dims, in_dims, out_dims):
    def dim(leg):
        kind, key = leg
        if kind == "in":
            return as_dim(in_dims[key], f"input leg {key!r}")
        if kind == "out":
            return as_dim(out_dims[key], f"output leg {key!r}")
        return as_dim(wire_dims[tuple(key)], f"wire {tuple(key)}")

    din = math.prod(dim(l) for l in node_input_legs(shape, v))
    dout = math.prod(dim(l) for l in node_output_legs(shape, v))
    return dout, din


# -- serialization -------------------------------------------------------


def circuit_to_json(circuit: Circuit) -> str:
    doc = {"leg_order": LEG_ORDER_DOC}
    doc.update(shape_to_json(circuit.shape))
    doc["in_dims"] = {a: circuit.in_dims[a] for a in circuit.shape.inputs}
    doc["out_dims"] = {b: circuit.out_dims[b] for b in circuit.shape.outputs}
    doc["wire_dims"] = {f"{u}->{v}": d
                        for (u, v), d in sorted(circuit.wire_dims.items())}
    doc["gates"] = {str(v): matrix_to_cells(g)
                    for v, g in sorted(circuit.gates.items())}
    return dump_json(doc, sort_keys=False) + "\n"


def circuit_from_json(data) -> Circuit:
    data = document(data, "circuit", {"in_dims": dict, "out_dims": dict,
                                      "wire_dims": dict, "gates": dict})
    shape = shape_from_json(data)
    wire_dims = {}
    for key, d in data["wire_dims"].items():
        u, _, v = str(key).partition("->")
        wire_dims[(_node_key(u, key, "wire"), _node_key(v, key, "wire"))] = d
    in_dims, out_dims = data["in_dims"], data["out_dims"]
    gates = {}
    for key, rows in data["gates"].items():
        v = _node_key(key, key, "gate")
        if not (0 <= v < len(shape)):
            raise InputError(f"gate key {key!r} out of range")
        try:
            dout, din = _shape_of(shape, v, wire_dims, in_dims, out_dims)
        except KeyError as exc:
            raise InputError(f"missing dim for {exc.args[0]!r}") from exc
        gates[v] = matrix_from_cells(rows, dout, din)
    return Circuit(shape, wire_dims, in_dims, out_dims, gates)


def _node_key(text, key, what) -> int:
    """The node index ``text`` spells in ``key``, which must be the one
    spelling ``circuit_to_json`` writes: "0_1", "+1" or " 1" would all
    read as 1 and let a later key silently replace an earlier one."""
    try:
        v = int(text)
    except (ValueError, TypeError):
        v = None
    if v is None or str(v) != text:
        raise InputError(f"bad {what} key {key!r}")
    return v


def load_circuit(path) -> Circuit:
    return circuit_from_json(read_text(path))
