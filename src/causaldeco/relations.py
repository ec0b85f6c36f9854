"""Labeled input/output relations and the C3 exclusion property.

A relation records which outputs each input can reach.  The derived set
maps (common children of a set of inputs, common parents of a set of
outputs) form an antitone Galois connection; its closed sets are what the
lattice module turns into circuit shapes.

The forbidden pattern ("C3") is a 3x3 sub-relation in which a middle
input reaches three outputs while two side inputs each reach only an
overlapping pair:

    a1 -> b1, b2        a2 -> b1, b2, b3        a3 -> b2, b3

A relation has the C3 exclusion property when no restriction to three
inputs and three outputs equals that pattern (in the stated roles).
``check_c3ep`` decides this twice, by a scan that builds the first
witness directly and by an intersection criterion on parent sets, and
insists the answers agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, NumericsError, document, read_text


@dataclass(frozen=True)
class Relation:
    """Finite labeled relation between ordered inputs and outputs.

    The input/output tuples fix the canonical label order used by every
    serialization; the pair set is order-free.  Labels are case-sensitive
    and the two sides are independent namespaces.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        inputs = tuple(str(a) for a in self.inputs)
        outputs = tuple(str(b) for b in self.outputs)
        pairs = frozenset((str(a), str(b)) for a, b in self.pairs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "pairs", pairs)
        if len(set(inputs)) != len(inputs):
            raise InputError(f"duplicate input labels: {inputs}")
        if len(set(outputs)) != len(outputs):
            raise InputError(f"duplicate output labels: {outputs}")
        in_set, out_set = set(inputs), set(outputs)
        for a, b in pairs:
            if a not in in_set:
                raise InputError(f"pair references unknown input {a!r}")
            if b not in out_set:
                raise InputError(f"pair references unknown output {b!r}")

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def same_pairs(self, other: "Relation") -> bool:
        return (set(self.inputs) == set(other.inputs)
                and set(self.outputs) == set(other.outputs)
                and self.pairs == other.pairs)


@dataclass(frozen=True)
class C3Witness:
    """Roles of a restriction equal to the forbidden pattern."""

    a1: str
    a2: str
    a3: str
    b1: str
    b2: str
    b3: str

    def as_dict(self) -> dict:
        return {"a1": self.a1, "a2": self.a2, "a3": self.a3,
                "b1": self.b1, "b2": self.b2, "b3": self.b3}


@dataclass(frozen=True)
class C3Result:
    satisfied: bool
    witness: C3Witness | None = None

    @property
    def violated(self) -> bool:
        return not self.satisfied


# -- basic set maps ------------------------------------------------------

def children(G: Relation, a: str) -> frozenset[str]:
    """Outputs reachable from input ``a``."""
    if a not in G.inputs:
        raise InputError(f"unknown input {a!r}")
    return frozenset(b for b in G.outputs if (a, b) in G.pairs)


def parents(G: Relation, b: str) -> frozenset[str]:
    """Inputs that reach output ``b``."""
    if b not in G.outputs:
        raise InputError(f"unknown output {b!r}")
    return frozenset(a for a in G.inputs if (a, b) in G.pairs)


def bit_masks(G: Relation) -> tuple[dict[str, int], dict[str, int]]:
    """Each input's child set as a bit mask over the sorted outputs and
    each output's parent set over the sorted inputs, bit k standing for
    the k-th sorted label; both dicts are keyed in sorted label order."""
    ins, outs = sorted(G.inputs), sorted(G.outputs)
    ibit = {a: 1 << k for k, a in enumerate(ins)}
    obit = {b: 1 << k for k, b in enumerate(outs)}
    ch, par = dict.fromkeys(ins, 0), dict.fromkeys(outs, 0)
    for a, b in G.pairs:
        ch[a] |= obit[b]
        par[b] |= ibit[a]
    return ch, par


def common_children(G: Relation, alpha) -> frozenset[str]:
    """Outputs reachable from every input in ``alpha``; all outputs if empty."""
    alpha = frozenset(alpha)
    result = frozenset(G.outputs)
    for a in alpha:
        result &= children(G, a)
    return result


def common_parents(G: Relation, beta) -> frozenset[str]:
    """Inputs reaching every output in ``beta``; all inputs if empty."""
    beta = frozenset(beta)
    result = frozenset(G.inputs)
    for b in beta:
        result &= parents(G, b)
    return result


def closure_inputs(G: Relation, alpha) -> frozenset[str]:
    """Closure of an input set under the Galois connection."""
    return common_parents(G, common_children(G, alpha))


def closure_outputs(G: Relation, beta) -> frozenset[str]:
    """Closure of an output set under the Galois connection."""
    return common_children(G, common_parents(G, beta))


def restrict(G: Relation, sub_inputs, sub_outputs) -> Relation:
    """Restriction to subsets of both sides, inheriting G's label order."""
    sub_a = set(sub_inputs)
    sub_b = set(sub_outputs)
    for a in sub_a:
        if a not in G.inputs:
            raise InputError(f"unknown input {a!r}")
    for b in sub_b:
        if b not in G.outputs:
            raise InputError(f"unknown output {b!r}")
    return Relation(
        tuple(a for a in G.inputs if a in sub_a),
        tuple(b for b in G.outputs if b in sub_b),
        frozenset((a, b) for a, b in G.pairs if a in sub_a and b in sub_b),
    )


# -- C3 exclusion --------------------------------------------------------

def _scan_for_pattern(G: Relation) -> C3Witness | None:
    """First witness in lexicographic order over sorted labels.

    Given (a1, a2, a3), roles b1, b2, b3 range over the disjoint sets
    ch(a1)&ch(a2)-ch(a3), ch(a1)&ch(a2)&ch(a3) and ch(a2)&ch(a3)-ch(a1),
    so the first output triple is their three minima.  Child sets are
    bit masks over the sorted outputs.
    """
    ch, _ = bit_masks(G)
    ins, outs = list(ch), sorted(G.outputs)
    for a1, a2 in itertools.permutations(ins, 2):
        both, only2 = ch[a1] & ch[a2], ch[a2] & ~ch[a1]
        if not (both and only2):
            continue
        for a3 in ins:  # a3 equal to a1 or a2 leaves a role empty
            roles = (both & ~ch[a3], both & ch[a3], only2 & ch[a3])
            if all(roles):
                # the lowest set bit of a mask is its first label
                b1, b2, b3 = (outs[(r & -r).bit_length() - 1] for r in roles)
                return C3Witness(a1, a2, a3, b1, b2, b3)
    return None


def _intersection_criterion_ok(G: Relation) -> bool:
    """Equivalent test: for every output triple sharing a middle element,
    the parent sets of the two overlapping pairs are disjoint or nested.
    Parent sets are bit masks over the sorted inputs."""
    _, par = bit_masks(G)
    for b2 in par:
        # common parents of {b, b2} for every other output b, in label order
        shared = [par[b] & par[b2] for b in par if b != b2]
        for p, q in itertools.combinations(shared, 2):
            # nested exactly when the overlap is one of the two sets
            if p & q not in (0, p, q):
                return False
    return True


def check_c3ep(G: Relation) -> C3Result:
    """Decide the C3 exclusion property.

    Runs both the restriction scan and the intersection criterion and
    raises NumericsError if they disagree (they are provably equivalent,
    so disagreement is a bug).  On violation the witness is the first
    restriction in lexicographic order of (a1, a2, a3, b1, b2, b3).
    """
    witness = _scan_for_pattern(G)
    ok_scan = witness is None
    ok_criterion = _intersection_criterion_ok(G)
    if ok_scan != ok_criterion:
        raise NumericsError(
            "C3 exclusion routes disagree: "
            f"scan={ok_scan} intersection-criterion={ok_criterion} on "
            f"{relation_to_json(G)}")
    if ok_scan:
        return C3Result(True, None)
    return C3Result(False, witness)


# -- reference relations -------------------------------------------------

def c3_relation() -> Relation:
    """The forbidden pattern itself, on labels a1..a3 / b1..b3."""
    return Relation(
        ("a1", "a2", "a3"),
        ("b1", "b2", "b3"),
        frozenset({("a1", "b1"), ("a1", "b2"),
                   ("a2", "b1"), ("a2", "b2"), ("a2", "b3"),
                   ("a3", "b2"), ("a3", "b3")}),
    )


def overlapping_fans_relation() -> Relation:
    """Reference relation whose lattice has seven nodes.

    Inputs 1,2 fan into outputs a,b; inputs 3,4 fan into c,d,e; the two
    fans overlap on output c (reached by 2, 3 and 4).  Satisfies the C3
    exclusion property.
    """
    return Relation(
        ("1", "2", "3", "4"),
        ("a", "b", "c", "d", "e"),
        frozenset({("1", "a"), ("1", "b"),
                   ("2", "a"), ("2", "b"), ("2", "c"),
                   ("3", "c"), ("3", "d"),
                   ("4", "c"), ("4", "d"), ("4", "e")}),
    )


def swap_relation() -> Relation:
    """Two inputs crossing over to two outputs."""
    return Relation(("a1", "a2"), ("b1", "b2"),
                    frozenset({("a1", "b2"), ("a2", "b1")}))


def chain2_relation() -> Relation:
    """Two-step chain: a1 reaches b1 only, a2 reaches both outputs."""
    return Relation(("a1", "a2"), ("b1", "b2"),
                    frozenset({("a1", "b1"), ("a2", "b1"), ("a2", "b2")}))


def fan_in_relation(n: int = 3) -> Relation:
    """n inputs all reaching a single output."""
    ins = tuple(f"a{i}" for i in range(1, n + 1))
    return Relation(ins, ("b1",), frozenset((a, "b1") for a in ins))


def fan_out_relation(n: int = 3) -> Relation:
    """A single input reaching n outputs."""
    outs = tuple(f"b{i}" for i in range(1, n + 1))
    return Relation(("a1",), outs, frozenset(("a1", b) for b in outs))


def full_relation(inputs, outputs) -> Relation:
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    return Relation(inputs, outputs,
                    frozenset(itertools.product(inputs, outputs)))


# -- serialization -------------------------------------------------------

def relation_to_json(G: Relation) -> dict:
    return {
        "inputs": list(G.inputs),
        "outputs": list(G.outputs),
        "pairs": sorted([a, b] for a, b in G.pairs),
    }


def relation_from_json(data) -> Relation:
    data = document(data, "relation",
                    {"inputs": list, "outputs": list, "pairs": list})
    pairs = []
    for item in data["pairs"]:
        if (not isinstance(item, (list, tuple)) or len(item) != 2):
            raise InputError(f"malformed pair {item!r}")
        pairs.append((item[0], item[1]))
    # labels are JSON strings; str() would read [] or true as a label,
    # and an unhashable one could not be put in the pair set
    for label in itertools.chain(data["inputs"], data["outputs"], *pairs):
        if not isinstance(label, str):
            raise InputError(f"relation labels must be strings, got "
                             f"{label!r}")
    return Relation(tuple(data["inputs"]), tuple(data["outputs"]),
                    frozenset(pairs))


def load_relation(path: str) -> Relation:
    return relation_from_json(read_text(path))
