"""Checks of the program's outputs, computed apart from the program.

Nothing here imports causaldeco.  Relations are handled as bitmasks,
unitaries as plain numpy arrays in the row-major leg order of the
unitary JSON format, and circuits through their JSON documents, so a
fault in the program cannot hide in the check that judges it.

Every checker raises CheckError with a one-line reason on a wrong
output and returns None on a right one.
"""

from __future__ import annotations

import math

import numpy as np

# generic-element commutator test: influencing pairs land near 1e-2..1,
# non-influencing pairs at rounding level
INFLUENCE_CUT = 1e-7
RESIDUAL_REL = 1e-8
GATE_TOL = 1e-9
PROJ_TOL = 1e-8


class CheckError(Exception):
    """A program output failed an independent check."""


# -- relations --------------------------------------------------------------

class Rel:
    """A relation as parent bitmasks over its input list."""

    def __init__(self, inputs, outputs, pairs):
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.pairs = {(str(a), str(b)) for a, b in pairs}
        ia = {a: i for i, a in enumerate(self.inputs)}
        self.par = [0] * len(self.outputs)
        self.chi = [0] * len(self.inputs)
        for j, b in enumerate(self.outputs):
            for a in self.inputs:
                if (a, b) in self.pairs:
                    self.par[j] |= 1 << ia[a]
                    self.chi[ia[a]] |= 1 << j

    def to_json(self):
        return {"inputs": self.inputs, "outputs": self.outputs,
                "pairs": sorted([a, b] for a, b in self.pairs)}

    @property
    def all_in(self):
        return (1 << len(self.inputs)) - 1

    @property
    def all_out(self):
        return (1 << len(self.outputs)) - 1

    def common_children(self, amask):
        out = self.all_out
        for i in range(len(self.inputs)):
            if amask >> i & 1:
                out &= self.chi[i]
        return out

    def common_parents(self, bmask):
        out = self.all_in
        for j in range(len(self.outputs)):
            if bmask >> j & 1:
                out &= self.par[j]
        return out

    def closure(self, amask):
        return self.common_parents(self.common_children(amask))

    def in_names(self, mask):
        return sorted(a for i, a in enumerate(self.inputs) if mask >> i & 1)

    def out_names(self, mask):
        return sorted(b for j, b in enumerate(self.outputs) if mask >> j & 1)


def c3_violated(rel: Rel) -> bool:
    """Whether some ordered output triple admits the three C3 roles.

    For outputs (b1, b2, b3) the pattern needs an input over b1, b2 but
    not b3, one over all three, and one over b2, b3 but not b1; those
    three inputs are then distinct automatically.
    """
    par = rel.par
    m = len(par)
    for j1 in range(m):
        for j2 in range(m):
            if j2 == j1:
                continue
            p12 = par[j1] & par[j2]
            if not p12:
                continue
            for j3 in range(m):
                if j3 in (j1, j2):
                    continue
                if (p12 & ~par[j3]) and (p12 & par[j3]) \
                        and (par[j2] & par[j3] & ~par[j1]):
                    return True
    return False


def check_c3_witness(rel: Rel, w) -> None:
    """A witness dict must name distinct labels in the C3 roles."""
    try:
        a1, a2, a3 = w["a1"], w["a2"], w["a3"]
        b1, b2, b3 = w["b1"], w["b2"], w["b3"]
    except (KeyError, TypeError) as exc:
        raise CheckError(f"witness lacks a role: {w!r}") from exc
    if len({a1, a2, a3}) != 3 or len({b1, b2, b3}) != 3:
        raise CheckError(f"witness roles repeat a label: {w!r}")
    if not ({a1, a2, a3} <= set(rel.inputs)
            and {b1, b2, b3} <= set(rel.outputs)):
        raise CheckError(f"witness names unknown labels: {w!r}")
    want = {(a1, b1): True, (a1, b2): True, (a1, b3): False,
            (a2, b1): True, (a2, b2): True, (a2, b3): True,
            (a3, b1): False, (a3, b2): True, (a3, b3): True}
    for pair, present in want.items():
        if (pair in rel.pairs) != present:
            raise CheckError(f"witness {w!r} breaks the C3 pattern at {pair}")


def check_c3_verdict(rel: Rel, doc) -> None:
    """Output of ``check --json`` against the bitmask C3 test."""
    violated = c3_violated(rel)
    if doc.get("satisfied") is not (not violated):
        raise CheckError(f"verdict satisfied={doc.get('satisfied')!r}, "
                         f"independent test says violated={violated}")
    if violated:
        check_c3_witness(rel, doc.get("witness"))
    elif doc.get("witness") is not None:
        raise CheckError("satisfied verdict carries a witness")


# -- concept lattices -------------------------------------------------------

def closed_sets(rel: Rel) -> list[int]:
    """All closed input sets, as masks, from the parents of output subsets."""
    m = len(rel.outputs)
    cp = [rel.all_in] * (1 << m)
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        cp[mask] = cp[mask & (mask - 1)] & rel.par[low]
    return sorted(set(cp))


def lattice_expectation(rel: Rel):
    """(nodes, covers, lambda, mu) keyed by alpha name tuples."""
    closed = closed_sets(rel)
    nodes = {tuple(rel.in_names(c)): tuple(rel.out_names(rel.common_children(c)))
             for c in closed}
    covers = set()
    n_in = len(rel.inputs)
    for c in closed:
        ups = {rel.closure(c | 1 << x) for x in range(n_in) if not c >> x & 1}
        for u in ups:
            if not any(v != u and (v & u) == v for v in ups):
                covers.add((tuple(rel.in_names(c)), tuple(rel.in_names(u))))
    lam = {a: tuple(rel.in_names(rel.closure(1 << i)))
           for i, a in enumerate(rel.inputs)}
    mu = {b: tuple(rel.in_names(rel.par[j])) for j, b in enumerate(rel.outputs)}
    return nodes, covers, lam, mu


def check_shape(rel: Rel, doc, expected=None) -> None:
    """A shape document (lattice JSON or the shape part of a circuit JSON)
    must list G's closed sets, their covers, lambda and mu, and connect
    exactly G's pairs along cover paths."""
    nodes, covers, lam, mu = expected or lattice_expectation(rel)
    try:
        alphas = [tuple(nd["alpha"]) for nd in doc["nodes"]]
        got_nodes = {tuple(nd["alpha"]): tuple(nd["beta"]) for nd in doc["nodes"]}
        got_covers = {(alphas[i], alphas[j]) for i, j in doc["covers"]}
        got_lam = {a: alphas[i] for a, i in doc["lambda"].items()}
        got_mu = {b: alphas[i] for b, i in doc["mu"].items()}
    except (KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"malformed shape document: {exc!r}") from exc
    if len(alphas) != len(got_nodes) or got_nodes != nodes:
        raise CheckError(f"shape has {len(alphas)} nodes, expected the "
                         f"{len(nodes)} closed sets of the relation")
    if got_covers != covers:
        raise CheckError(f"shape covers differ from the closed-set order "
                         f"({len(got_covers)} vs {len(covers)})")
    if got_lam != lam or got_mu != mu:
        raise CheckError("shape lambda/mu differ from the closures")
    up = {a: [] for a in alphas}
    for lo, hi in got_covers:
        up[lo].append(hi)
    reach = set()
    for a, start in got_lam.items():
        seen, todo = {start}, [start]
        while todo:
            for w in up[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach |= {(a, b) for b, node in got_mu.items() if node in seen}
    if reach != rel.pairs:
        raise CheckError(f"cover paths connect {len(reach)} pairs, relation "
                         f"has {len(rel.pairs)}; differing "
                         f"{sorted(reach ^ rel.pairs)[:3]}")


# -- unitaries --------------------------------------------------------------

def cells_to_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_cells(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def unitary_doc(mat, in_legs, out_legs) -> dict:
    """Unitary JSON document: legs as (label, dim) in row-major order."""
    return {"in": [{"label": l, "dim": int(d)} for l, d in in_legs],
            "out": [{"label": l, "dim": int(d)} for l, d in out_legs],
            "matrix": matrix_to_cells(mat)}


def sorted_leg_matrix(mat, in_legs, out_legs) -> np.ndarray:
    """The same unitary with both leg lists in sorted-label order."""
    din = [d for _, d in in_legs]
    dout = [d for _, d in out_legs]
    t = np.asarray(mat).reshape(dout + din)
    po = sorted(range(len(out_legs)), key=lambda k: out_legs[k][0])
    pi = sorted(range(len(in_legs)), key=lambda k: in_legs[k][0])
    t = np.transpose(t, po + [len(dout) + k for k in pi])
    return t.reshape(math.prod(dout), math.prod(din))


def _embed(op, dims, k) -> np.ndarray:
    left = math.prod(dims[:k])
    right = math.prod(dims[k + 1:])
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def _generic_traceless(d, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = z + z.conj().T
    h -= np.trace(h) / d * np.eye(d)
    return h / np.linalg.norm(h)


def influence_pairs(mat, in_legs, out_legs, seed=0) -> set:
    """Influencing (input, output) label pairs by a generic-element test.

    a influences b iff U^dag (X_b x 1) U fails to commute with Y_a x 1
    for generic traceless Hermitian X, Y.  The commutator is bilinear in
    (X, Y), so a nonzero map is nonzero at a generic draw; two draws are
    taken and the larger value decides.
    """
    rng = np.random.default_rng(seed)
    u = np.asarray(mat, dtype=complex)
    ud = u.conj().T
    din = [d for _, d in in_legs]
    dout = [d for _, d in out_legs]
    pairs = set()
    for j, (b, db) in enumerate(out_legs):
        if db == 1:
            continue
        hs = []
        for _ in range(2):
            xe = _embed(_generic_traceless(db, rng), dout, j)
            hs.append((ud @ xe @ u, np.linalg.norm(xe)))
        for i, (a, da) in enumerate(in_legs):
            if da == 1:
                continue
            worst = 0.0
            for h, scale in hs:
                ye = _embed(_generic_traceless(da, rng), din, i)
                worst = max(worst, np.linalg.norm(h @ ye - ye @ h) / scale)
            if worst > INFLUENCE_CUT:
                pairs.add((a, b))
    return pairs


def check_analysis(expected_pairs: set, doc) -> None:
    """Output of ``analyze --json`` against the generic-element test."""
    try:
        got = {(a, b) for a, b in doc["pairs"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed analysis output: {exc!r}") from exc
    if got != expected_pairs:
        raise CheckError(f"analysis pairs differ from the generic test: "
                         f"{sorted(got ^ expected_pairs)}")


def check_structure(expected_pairs: set, mat, in_legs, out_legs) -> None:
    """A unitary built to have a given causal structure must have it."""
    got = influence_pairs(mat, in_legs, out_legs, seed=1)
    if got != set(expected_pairs):
        raise CheckError(f"causal structure differs from the relation: "
                         f"{sorted(got ^ set(expected_pairs))}")


# -- circuits ---------------------------------------------------------------

def _topological(n, covers) -> list[int]:
    indeg = [0] * n
    for _, v in covers:
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for u, w in covers:
            if u == v:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    if len(order) != n:
        raise CheckError("circuit covers contain a cycle")
    return order


def recontract(doc) -> np.ndarray:
    """Composite matrix of a circuit JSON, rows and columns in
    sorted-label order, by contracting gates in the documented leg order:
    gate inputs are attached inputs by label then incoming wires by
    source node; gate outputs are outgoing wires by target node then
    attached outputs by label; first leg most significant."""
    n = len(doc["nodes"])
    covers = [tuple(c) for c in doc["covers"]]
    wires = {tuple(int(x) for x in k.split("->")): int(d)
             for k, d in doc["wire_dims"].items()}
    in_dims = {a: int(d) for a, d in doc["in_dims"].items()}
    out_dims = {b: int(d) for b, d in doc["out_dims"].items()}
    lam, mu = doc["lambda"], doc["mu"]
    ins = sorted(in_dims)
    # running tensor: axes = open legs, then the composite's input legs
    open_legs = [("in", a) for a in ins]
    dims = {("in", a): in_dims[a] for a in ins}
    dims.update({("out", b): d for b, d in out_dims.items()})
    dims.update({("wire", k): d for k, d in wires.items()})
    t = np.eye(math.prod(in_dims[a] for a in ins), dtype=complex)
    t = t.reshape([in_dims[a] for a in ins] * 2)
    for v in _topological(n, covers):
        gin = [("in", a) for a in sorted(a for a, x in lam.items() if x == v)]
        gin += [("wire", (u, w)) for u, w in sorted(covers) if w == v]
        gout = [("wire", (u, w)) for u, w in sorted(covers) if u == v]
        gout += [("out", b) for b in sorted(b for b, x in mu.items() if x == v)]
        g = cells_to_matrix(doc["gates"][str(v)])
        g = g.reshape([dims[l] for l in gout] + [dims[l] for l in gin])
        axes = [open_legs.index(l) for l in gin]
        t = np.tensordot(g, t, axes=(list(range(len(gout), len(gout) + len(gin))),
                                     axes))
        open_legs = gout + [l for l in open_legs if l not in gin]
    outs = sorted(out_dims)
    if sorted(open_legs) != sorted(("out", b) for b in outs):
        raise CheckError(f"circuit leaves legs {open_legs} open")
    perm = [open_legs.index(("out", b)) for b in outs]
    k = len(open_legs)
    t = np.transpose(t, perm + list(range(k, t.ndim)))
    return t.reshape(math.prod(out_dims.values()), -1)


def check_circuit(rel: Rel, doc, mat, in_legs, out_legs, expected=None) -> None:
    """Circuit JSON against U: shape, unitary gates, residual up to phase."""
    check_shape(rel, doc, expected)
    for v, rows in doc["gates"].items():
        g = cells_to_matrix(rows)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise CheckError(f"gate {v} is not square")
        d = g.shape[0]
        resid = np.linalg.norm(g.conj().T @ g - np.eye(d)) / np.sqrt(d)
        if not resid <= GATE_TOL:
            raise CheckError(f"gate {v} is not unitary (residual {resid:.2e})")
    target = sorted_leg_matrix(mat, in_legs, out_legs)
    comp = recontract(doc)
    if comp.shape != target.shape:
        raise CheckError(f"composite shape {comp.shape} vs {target.shape}")
    # the phase minimizing ||C - e^{it} U|| is the argument of tr(U^dag C)
    overlap = np.vdot(target, comp)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    resid = float(np.linalg.norm(comp - phase * target))
    if not resid <= RESIDUAL_REL * math.sqrt(target.shape[0]):
        raise CheckError(f"recontracted circuit misses U by {resid:.2e}")


# -- sector certificates ----------------------------------------------------

def check_sectors(projectors, sectors, dim) -> None:
    """A multi-sector certificate: at least two sectors whose projectors
    are Hermitian, idempotent, mutually orthogonal, resolve the identity
    and have ranks equal to the products of the sector leg dims."""
    ps = [np.asarray(p, dtype=complex) for p in projectors]
    if len(sectors) < 2:
        raise CheckError(f"certificate has {len(sectors)} sector(s)")
    if len(ps) != len(sectors):
        raise CheckError(f"{len(ps)} projectors for {len(sectors)} sectors")
    tol = PROJ_TOL * math.sqrt(dim)
    total = np.zeros((dim, dim), dtype=complex)
    for k, (p, legs) in enumerate(zip(ps, sectors)):
        if p.shape != (dim, dim):
            raise CheckError(f"projector {k} has shape {p.shape}")
        if not np.linalg.norm(p - p.conj().T) <= tol:
            raise CheckError(f"projector {k} is not Hermitian")
        if not np.linalg.norm(p @ p - p) <= tol:
            raise CheckError(f"projector {k} is not idempotent")
        rank = int(round(float(np.real(np.trace(p)))))
        if rank != math.prod(legs):
            raise CheckError(f"projector {k} has rank {rank}, sector dims "
                             f"{tuple(legs)}")
        for q in ps[k + 1:]:
            if not np.linalg.norm(p @ q) <= tol:
                raise CheckError("sector projectors are not orthogonal")
        total += p
    if not np.linalg.norm(total - np.eye(dim)) <= tol:
        raise CheckError("sector projectors do not sum to the identity")
