"""Concept lattices of relations and the circuit shapes they induce.

The closed input sets of a relation (fixed points of the Galois closure)
form a complete lattice under inclusion.  Each node pairs a closed input
set alpha with the outputs beta reachable from all of alpha; inputs and
outputs attach to nodes via the maps lambda and mu.  Read as a DAG of
cover edges, the lattice is the canonical wiring diagram ("circuit
shape") whose connectivity is exactly the relation: input a feeds a gate
at lambda(a), output b leaves the gate at mu(b), and a reaches b along
cover chains precisely when lambda(a) <= mu(b).

The lattice is built directly: closed sets in one pass per output, and
the upper covers of a node as the minimal closures of alpha plus one
input.  Its size is capped in concepts, not labels (MAX_CONCEPTS).

Node identity is the sorted alpha tuple; nodes are listed sorted by
(|alpha|, alpha), which is also a linear extension of the order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericsError, document
from .relations import Relation, children, parents

# Most concepts a lattice may have.  A relation with at most 12 labels on
# a side has at most 2^12 concepts, so all of those fit.
MAX_CONCEPTS = 4096


def _is_node(i, n) -> bool:
    # bool is an int subclass and would read as node 0 or 1
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n


@dataclass(frozen=True)
class ConceptNode:
    """A lattice node: closed input set with its reachable outputs."""

    alpha: tuple[str, ...]
    beta: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        if list(self.alpha) != sorted(self.alpha):
            raise InputError(f"alpha not sorted: {self.alpha}")
        if list(self.beta) != sorted(self.beta):
            raise InputError(f"beta not sorted: {self.beta}")


class ConceptLattice:
    """Concept lattice of a relation, used directly as a circuit shape.

    Attributes: ``inputs``/``outputs`` (label order), ``nodes`` (tuple of
    ConceptNode in canonical order), ``covers`` (index pairs (i, j) with
    node i covered by node j), ``lam``/``mu`` (label to node index).
    """

    def __init__(self, inputs, outputs, nodes, covers, lam, mu):
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.nodes = tuple(nodes)
        self.covers = tuple(tuple(c) for c in covers)
        self.lam = dict(lam)
        self.mu = dict(mu)
        n = len(self.nodes)
        self._up, self._down = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, j in sorted(self.covers):
            if not (_is_node(i, n) and _is_node(j, n)):
                raise InputError(f"invalid cover ({i},{j})")
            self._up[i].append(j)
            self._down[j].append(i)
        self._leq = self._compute_leq()
        self._validate()

    def _compute_leq(self) -> np.ndarray:
        """Order matrix, top down: a node lies below itself and below
        everything above its up-covers.  linear_extension refuses
        cyclic covers, so every cover (i, j) has i != j and j not <= i."""
        leq = np.eye(len(self.nodes), dtype=bool)
        for i in reversed(self.linear_extension()):
            for j in self._up[i]:
                leq[i] |= leq[j]
        return leq

    def _validate(self):
        n = len(self.nodes)
        if len({node.alpha for node in self.nodes}) != n:
            raise InputError("duplicate node alpha sets")
        for name, labels, nodes in (("lambda", self.inputs, self.lam),
                                    ("mu", self.outputs, self.mu)):
            for x in labels:
                if not _is_node(nodes.get(x), n):
                    raise InputError(f"{name} missing or invalid for {x!r}")

    # -- order helpers ---------------------------------------------------

    def __len__(self):
        return len(self.nodes)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._leq[i, j])

    def bottom(self) -> int:
        mins = np.flatnonzero(self._leq.all(axis=1))
        if len(mins) != 1:
            raise InputError("shape has no unique bottom node")
        return int(mins[0])

    def top(self) -> int:
        maxs = np.flatnonzero(self._leq.all(axis=0))
        if len(maxs) != 1:
            raise InputError("shape has no unique top node")
        return int(maxs[0])

    def up_covers(self, i: int) -> list[int]:
        return list(self._up[i])

    def down_covers(self, j: int) -> list[int]:
        return list(self._down[j])

    def inputs_at(self, i: int) -> list[str]:
        return sorted(a for a in self.inputs if self.lam[a] == i)

    def outputs_at(self, i: int) -> list[str]:
        return sorted(b for b in self.outputs if self.mu[b] == i)

    def linear_extension(self) -> list[int]:
        """Node indices ordered by (|alpha|, alpha): bottom-up traversal.

        A strict subset has strictly smaller size, so this key is a
        topological order of the cover DAG; verified before returning.
        """
        n = len(self.nodes)
        order = sorted(range(n), key=lambda i: (len(self.nodes[i].alpha),
                                                self.nodes[i].alpha, i))
        seen = set()
        for i in order:
            for d in self._down[i]:
                if d not in seen:
                    raise InputError("cover DAG is not acyclic")
            seen.add(i)
        return order


# -- construction --------------------------------------------------------

def enumerate_closed_input_sets(G: Relation) -> list[frozenset[str]]:
    """All closed input sets, sorted by (size, sorted labels).

    They are the intersections of families of single-output parent sets
    (the empty family gives all inputs), found in one pass per output.
    Raises InputError beyond MAX_CONCEPTS closed sets.
    """
    closed = {frozenset(G.inputs)}
    for b in G.outputs:
        pb = parents(G, b)
        closed |= {s & pb for s in closed}
        if len(closed) > MAX_CONCEPTS:
            raise InputError(
                f"relation {len(G.inputs)}x{len(G.outputs)} has more than "
                f"{MAX_CONCEPTS} concepts")
    return sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))


def build_concept_lattice(G: Relation) -> ConceptLattice:
    """Concept lattice of a relation, with covers, lambda and mu.

    The upper covers of a node are the minimal closures of alpha plus one
    input outside alpha; closures, lambda and mu are looked up by alpha.
    """
    closed = enumerate_closed_input_sets(G)
    index = {alpha: k for k, alpha in enumerate(closed)}
    ch = {a: children(G, a) for a in G.inputs}
    par = {b: parents(G, b) for b in G.outputs}
    all_in, all_out = frozenset(G.inputs), frozenset(G.outputs)

    def extent(beta):
        return all_in.intersection(*(par[b] for b in beta))

    nodes, covers = [], []
    for k, alpha in enumerate(closed):
        beta = all_out.intersection(*(ch[a] for a in alpha))
        nodes.append(ConceptNode(tuple(sorted(alpha)), tuple(sorted(beta))))
        ups = {extent(beta & ch[a]) for a in G.inputs if a not in alpha}
        covers += [(k, index[u]) for u in ups if not any(v < u for v in ups)]
    covers.sort()
    lam = {a: index[extent(ch[a])] for a in G.inputs}
    mu = {b: index[par[b]] for b in G.outputs}
    return ConceptLattice(G.inputs, G.outputs, nodes, covers, lam, mu)


def connectivity(shape: ConceptLattice) -> Relation:
    """The relation realized by the shape: a reaches b iff there is a
    cover chain from lambda(a) up to mu(b)."""
    pairs = {(a, b) for a in shape.inputs for b in shape.outputs
             if shape.leq(shape.lam[a], shape.mu[b])}
    return Relation(shape.inputs, shape.outputs, frozenset(pairs))


def _path_counts(shape: ConceptLattice, src: int, order) -> list[int]:
    """Number of cover-edge paths from node ``src`` to every node, with
    ``order`` a linear extension of the shape."""
    counts = [0] * len(shape.nodes)
    counts[src] = 1
    for i in order:
        if i != src:
            counts[i] = sum(counts[d] for d in shape._down[i])
    return counts


def count_paths(shape: ConceptLattice, a: str, b: str) -> int:
    """Number of cover-edge paths from lambda(a) to mu(b)."""
    if a not in shape.lam:
        raise InputError(f"unknown input {a!r}")
    if b not in shape.mu:
        raise InputError(f"unknown output {b!r}")
    counts = _path_counts(shape, shape.lam[a], shape.linear_extension())
    return counts[shape.mu[b]]


@dataclass(frozen=True)
class LatticeC3Result:
    satisfied: bool
    # First input/output pair connected by more than one path, if any.
    evidence: tuple[str, str, int] | None = None


def _branching_pairs(shape: ConceptLattice):
    """(v, w, w') for every node v with nonempty alpha and every two
    distinct upper covers w < w' of v."""
    for v, nd in enumerate(shape.nodes):
        if nd.alpha:
            for w, x in itertools.combinations(shape._up[v], 2):
                yield v, w, x


def _covers_disjoint(shape: ConceptLattice) -> bool:
    """Characterization (iv): at every node with nonempty alpha, distinct
    upper covers have disjoint beta sets."""
    return not any(set(shape.nodes[w].beta) & set(shape.nodes[x].beta)
                   for _, w, x in _branching_pairs(shape))


def check_c3ep_lattice(shape: ConceptLattice) -> LatticeC3Result:
    """Decide the C3 exclusion property through the lattice.

    Two lattice-side characterizations are evaluated: (iii) every related
    pair is joined by at most one cover path, and (iv) at every node with
    nonempty alpha, distinct upper covers have disjoint beta sets.  They
    are provably equivalent, so disagreement raises NumericsError.
    Comparing with the relational route is the caller's job.
    """
    order = shape.linear_extension()
    paths = {a: _path_counts(shape, shape.lam[a], order) for a in shape.inputs}
    evidence = next(((a, b, paths[a][shape.mu[b]])
                     for a in sorted(shape.inputs)
                     for b in sorted(shape.outputs)
                     if paths[a][shape.mu[b]] > 1), None)
    multiplicity_ok = evidence is None
    disjoint_ok = _covers_disjoint(shape)
    if multiplicity_ok != disjoint_ok:
        raise NumericsError(
            "C3 exclusion characterizations disagree: "
            f"path-multiplicity={multiplicity_ok} "
            f"cover-disjointness={disjoint_ok}")
    return LatticeC3Result(multiplicity_ok, evidence)


def overlap_lemma_check(shape: ConceptLattice) -> int:
    """Verify the parent-overlap identity at every branching node.

    For a relation with the C3 exclusion property, at any node v with
    nonempty alpha and any two distinct upper covers w, w', the unions of
    parent sets over beta_w and beta_w' intersect exactly in alpha_v.
    The parent set of output b is the alpha of mu(b).  Returns the number
    of (v, w, w') triples checked; raises NumericsError on a violation
    (which would contradict the exclusion property) and InputError when
    the covers are not disjoint, i.e. the relation does not satisfy the
    property.
    """
    if not _covers_disjoint(shape):
        raise InputError(
            "overlap lemma applies only to relations with the C3 "
            "exclusion property")
    checked = 0
    for v, w, x in _branching_pairs(shape):
        alpha = shape.nodes[v].alpha
        pa = [set().union(*(shape.nodes[shape.mu[b]].alpha
                            for b in shape.nodes[u].beta)) for u in (w, x)]
        if pa[0] & pa[1] != set(alpha):
            raise NumericsError(
                f"overlap identity fails at alpha={alpha}: "
                f"{sorted(pa[0] & pa[1])} != {list(alpha)}")
        checked += 1
    return checked


# -- serialization -------------------------------------------------------

def _set_label(items) -> str:
    return "{" + ",".join(items) + "}"


def _dot_string(text) -> str:
    """``text`` as a quoted DOT string, with quotes and backslashes
    escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_id(name) -> str:
    """``name`` as a DOT ID: bare when it is a plain identifier,
    quoted otherwise (a label may hold spaces, quotes or dashes)."""
    return name if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) \
        else _dot_string(name)


def to_dot(shape: ConceptLattice) -> str:
    """Graphviz rendering: cover edges drawn upward, dashed stubs for
    attached inputs and outputs, nodes ranked by height."""
    heights = {}
    for i in shape.linear_extension():
        downs = shape.down_covers(i)
        heights[i] = 0 if not downs else 1 + max(heights[d] for d in downs)
    lines = ["digraph shape {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for i, nd in enumerate(shape.nodes):
        label = _dot_string(f"{_set_label(nd.alpha)} | "
                            f"{_set_label(nd.beta)}")
        lines.append(f"  n{i} [label={label}];")
    for i, j in sorted(shape.covers):
        lines.append(f"  n{i} -> n{j};")
    for a in shape.inputs:
        node = _dot_id("in_" + a)
        lines.append(f"  {node} [shape=plaintext, label={_dot_string(a)}];")
        lines.append(f"  {node} -> n{shape.lam[a]} [style=dashed];")
    for b in shape.outputs:
        node = _dot_id("out_" + b)
        lines.append(f"  {node} [shape=plaintext, label={_dot_string(b)}];")
        lines.append(f"  n{shape.mu[b]} -> {node} [style=dashed];")
    by_height: dict[int, list[int]] = {}
    for i, h in heights.items():
        by_height.setdefault(h, []).append(i)
    for h in sorted(by_height):
        members = " ".join(f"n{i};" for i in sorted(by_height[h]))
        lines.append(f"  {{ rank=same; {members} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def shape_to_json(shape: ConceptLattice) -> dict:
    return {
        "inputs": list(shape.inputs),
        "outputs": list(shape.outputs),
        "nodes": [{"alpha": list(nd.alpha), "beta": list(nd.beta)}
                  for nd in shape.nodes],
        "covers": [list(c) for c in sorted(shape.covers)],
        "lambda": {a: shape.lam[a] for a in shape.inputs},
        "mu": {b: shape.mu[b] for b in shape.outputs},
    }


def shape_from_json(data) -> ConceptLattice:
    data = document(data, "shape", {
        "inputs": list, "outputs": list, "nodes": list, "covers": list,
        "lambda": dict, "mu": dict})
    try:
        nodes = [ConceptNode(nd["alpha"], nd["beta"]) for nd in data["nodes"]]
        return ConceptLattice(data["inputs"], data["outputs"], nodes,
                              data["covers"], data["lambda"], data["mu"])
    except (TypeError, KeyError, ValueError) as e:
        raise InputError(f"malformed shape JSON: {e}") from e
