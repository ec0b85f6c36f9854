"""Concept lattices of relations and the circuit shapes they induce.

The closed input sets of a relation (fixed points of the Galois closure)
form a complete lattice under inclusion.  Each node pairs a closed input
set alpha with the outputs beta reachable from all of alpha; inputs and
outputs attach to nodes via the maps lambda and mu.  Read as a DAG of
cover edges, the lattice is the canonical wiring diagram ("circuit
shape") whose connectivity is exactly the relation: input a feeds a gate
at lambda(a), output b leaves the gate at mu(b), and a reaches b along
cover chains precisely when lambda(a) <= mu(b).

The lattice is built on bit masks over the sorted labels: closed sets
in one pass per output, and the upper covers of a node by Lindig's
neighbour test over the closures of alpha plus one input.  Its size is
capped in concepts, not labels (MAX_CONCEPTS).

Node identity is the sorted alpha tuple; nodes are listed sorted by
(|alpha|, alpha), which is also a linear extension of the order.
"""

from __future__ import annotations

import collections
import itertools
import re
from dataclasses import dataclass

from .errors import InputError, NumericsError, document
from .policy import MAX_CONCEPTS
from .relations import Relation, bit_masks


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
        # (|alpha|, alpha) orders the nodes bottom up, as a strict subset
        # is smaller; a cover that runs down this order closes a cycle
        self._order = sorted(range(n), key=lambda i: (
            len(self.nodes[i].alpha), self.nodes[i].alpha, i))
        rank = {i: r for r, i in enumerate(self._order)}
        if any(rank[i] >= rank[j] for i, j in self.covers):
            raise InputError("cover DAG is not acyclic")
        self._leq = self._compute_leq()
        self._validate()

    def _compute_leq(self) -> list[int]:
        """Per node, the mask of the nodes at or above it, top down: itself
        and everything above its up-covers, over the acyclic order."""
        above = [1 << i for i in range(len(self.nodes))]
        for i in reversed(self._order):
            for j in self._up[i]:
                above[i] |= above[j]
        return above

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
        return bool(self._leq[i] >> j & 1)

    def bottom(self) -> int:
        n = len(self.nodes)
        mins = [i for i, up in enumerate(self._leq) if up.bit_count() == n]
        if len(mins) != 1:
            raise InputError("shape has no unique bottom node")
        return mins[0]

    def top(self) -> int:
        common = (1 << len(self.nodes)) - 1
        for up in self._leq:
            common &= up
        if common.bit_count() != 1:
            raise InputError("shape has no unique top node")
        return common.bit_length() - 1

    def up_covers(self, i: int) -> list[int]:
        return list(self._up[i])

    def down_covers(self, j: int) -> list[int]:
        return list(self._down[j])

    def inputs_at(self, i: int) -> list[str]:
        return sorted(a for a in self.inputs if self.lam[a] == i)

    def outputs_at(self, i: int) -> list[str]:
        return sorted(b for b in self.outputs if self.mu[b] == i)

    def linear_extension(self) -> list[int]:
        """Node indices ordered by (|alpha|, alpha): bottom-up traversal,
        sorted and checked once, by the constructor."""
        return list(self._order)


# -- construction --------------------------------------------------------

def _labels(mask: int, labels) -> tuple[str, ...]:
    return tuple(x for k, x in enumerate(labels) if mask >> k & 1)


def _meet(mask: int, table: list[int], full: int) -> int:
    """AND of ``table[k]`` over the set bits k of ``mask``, from ``full``."""
    while mask:
        low = mask & -mask
        full &= table[low.bit_length() - 1]
        mask ^= low
    return full


def _closed_sets(G: Relation):
    """G's ``bit_masks`` and its closed input sets as (mask, labels) sorted
    by (size, labels): the ANDs of families of parent masks, found in one
    pass per output.  Raises InputError beyond MAX_CONCEPTS of them."""
    ch, par = bit_masks(G)
    closed = {(1 << len(ch)) - 1}
    for pb in par.values():
        closed |= {s & pb for s in closed}
        if len(closed) > MAX_CONCEPTS:
            raise InputError(f"relation {len(ch)}x{len(par)} has more than "
                             f"{MAX_CONCEPTS} concepts")
    closed = [(s, _labels(s, ch)) for s in closed]
    return ch, par, sorted(closed, key=lambda c: (len(c[1]), c[1]))


def enumerate_closed_input_sets(G: Relation) -> list[frozenset[str]]:
    """All closed input sets, sorted by (size, sorted labels)."""
    return [frozenset(alpha) for _, alpha in _closed_sets(G)[2]]


def build_concept_lattice(G: Relation) -> ConceptLattice:
    """Concept lattice of a relation, with covers, lambda and mu.

    Sets are masks over the sorted labels: beta is the AND of the child
    masks over alpha, a closure the AND of the parent masks over its
    outputs.  Upper covers come from Lindig's neighbour test: the closure
    u of alpha plus input i is a cover unless u holds another input still
    free, and i is dropped when it is not, so each cover is emitted once.
    """
    ch, par, closed = _closed_sets(G)
    chs, pars = list(ch.values()), list(par.values())
    all_in, all_out = (1 << len(chs)) - 1, (1 << len(pars)) - 1
    index = {alpha: k for k, (alpha, _) in enumerate(closed)}
    nodes, covers = [], []
    for k, (alpha, labels) in enumerate(closed):
        beta = _meet(alpha, chs, all_out)
        nodes.append(ConceptNode(labels, _labels(beta, par)))
        free = all_in & ~alpha
        for i, c in enumerate(chs):
            if free >> i & 1:
                u = _meet(beta & c, pars, all_in)
                if u & free & ~(1 << i):
                    free &= ~(1 << i)
                else:
                    covers.append((k, index[u]))
    covers.sort()
    lam = {a: index[_meet(ch[a], pars, all_in)] for a in G.inputs}
    mu = {b: index[par[b]] for b in G.outputs}
    return ConceptLattice(G.inputs, G.outputs, nodes, covers, lam, mu)


def connectivity(shape: ConceptLattice) -> Relation:
    """The relation realized by the shape: a reaches b iff there is a
    cover chain from lambda(a) up to mu(b)."""
    pairs = {(a, b) for a in shape.inputs for b in shape.outputs
             if shape.leq(shape.lam[a], shape.mu[b])}
    return Relation(shape.inputs, shape.outputs, frozenset(pairs))


def _path_counts(shape: ConceptLattice, src: int) -> list[int]:
    """Number of cover-edge paths from node ``src`` to every node."""
    counts = [0] * len(shape.nodes)
    counts[src] = 1
    for i in shape._order:
        if i != src:
            counts[i] = sum(counts[d] for d in shape._down[i])
    return counts


def count_paths(shape: ConceptLattice, a: str, b: str) -> int:
    """Number of cover-edge paths from lambda(a) to mu(b)."""
    if a not in shape.lam:
        raise InputError(f"unknown input {a!r}")
    if b not in shape.mu:
        raise InputError(f"unknown output {b!r}")
    return _path_counts(shape, shape.lam[a])[shape.mu[b]]


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
    paths = {a: _path_counts(shape, shape.lam[a]) for a in shape.inputs}
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
    for i in shape._order:
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
    ins, outs, lam, mu = (data["inputs"], data["outputs"], data["lambda"],
                          data["mu"])
    try:
        nodes = [ConceptNode(nd["alpha"], nd["beta"]) for nd in data["nodes"]]
        covers = [tuple(c) for c in data["covers"]]
        # the builder cannot make these faults, so only loading checks them
        for what, items in (("input label", ins), ("output label", outs),
                            ("cover", covers)):
            twice = [x for x, k in collections.Counter(items).items() if k > 1]
            if twice:
                raise InputError(f"repeated {what} {twice[0]!r}")
        for what, labels, known in (
                ("node alpha", [a for nd in nodes for a in nd.alpha], ins),
                ("node beta", [b for nd in nodes for b in nd.beta], outs),
                ("lambda", lam, ins), ("mu", mu, outs)):
            stray = set(labels) - set(known)
            if stray:
                raise InputError(f"{what} label {min(stray)!r} is not one "
                                 "of the shape's labels")
        return ConceptLattice(ins, outs, nodes, covers, lam, mu)
    except (TypeError, KeyError, ValueError) as e:
        raise InputError(f"malformed shape JSON: {e}") from e
