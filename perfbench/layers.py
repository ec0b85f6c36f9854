"""Per-layer timing from outside the program, by wrapping public functions.

Each wrapped function records calls, total time and self time (its
duration minus the part covered by wrapped functions it called).
Modules bind many of these names with ``from .x import name``, so a
wrapper replaces the name in every causaldeco module that holds the
same object, and methods are replaced on their class.  ``Tracer.off``
puts every original back, so untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path); the metric prefix is "<module>.<path>"
SPANS = [
    ("relations", "check_c3ep"),
    ("lattice", "build_concept_lattice"),
    ("lattice", "check_c3ep_lattice"),
    ("lattice", "overlap_lemma_check"),
    ("lattice", "count_paths"),
    ("tensorspace", "TensorSpace.permutation_to"),
    ("tensorspace", "TensorSpace.embed"),
    ("tensorspace", "TensorSpace.restrict"),
    ("tensorspace", "TensorSpace.schmidt_right_factors"),
    ("algebra", "algebraic_lemma"),
    ("algebra", "is_factor"),
    ("algebra", "centre"),
    ("algebra", "commutant_of"),
    ("algebra", "reduce_onto_legs"),
    ("algebra", "algebra_closure"),
    ("algebra", "orthonormalize"),
    ("algebra", "factorize_factor"),
    ("algebra", "split_commuting_factors"),
    ("algebra", "sectorize"),
    ("algebra", "minimal_central_projectors"),
    ("algebra", "MatrixSubalgebra.project"),
    ("causal", "causal_structure"),
    ("causal", "causal_structure_report"),
    ("causal", "pair_commutator_norm"),
    ("causal", "heisenberg_image"),
    ("causal", "unitary_from_json"),
    ("circuits", "advance_frame"),
    ("circuits", "compose_matrix"),
    ("decompose", "decompose"),
    ("decompose", "verify_decomposition"),
    ("gallery", "build_counterexample"),
    ("gallery", "obstruction_witness"),
    ("cli", "main"),
]
# spans that call no other wrapped function report no total_s
LEAVES = {
    "relations.check_c3ep", "lattice.build_concept_lattice",
    "lattice.count_paths", "tensorspace.TensorSpace.permutation_to",
    "algebra.MatrixSubalgebra.project", "causal.unitary_from_json",
}
KERNELS = ["svd", "eigh"]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for mod, path in SPANS:
        key = f"{mod}.{path}"
        specs.append((f"{key}.calls", "count", "lower"))
        specs.append((f"{key}.self_s", "s", "lower"))
        if key not in LEAVES:
            specs.append((f"{key}.total_s", "s", "lower"))
    for k in KERNELS:
        specs.append((f"numpy.linalg.{k}.calls", "count", "lower"))
        specs.append((f"numpy.linalg.{k}.self_s", "s", "lower"))
        specs.append((f"numpy.linalg.{k}.in_mb", "MB", "lower"))
    specs += [
        ("lattice.nodes_built", "count", "lower"),
        ("algebra.is_factor.per_lemma", "ratio", "lower"),
        ("causal.causal_structure.per_decompose", "ratio", "lower"),
        ("trace.child_share", "ratio", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


class Stat:
    __slots__ = ("calls", "total", "self", "in_bytes")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.in_bytes = 0


class Tracer:
    """Span recorder that patches the program while it is on."""

    def __init__(self):
        self.stats = {}
        self.nodes_built = 0
        self.top_time = 0.0
        self.top_child = 0.0
        self.entries = {}
        self._stack = []
        self._patches = []

    def _wrap(self, key, fn, kernel=False):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        counts_nodes = key == "lattice.build_concept_lattice"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_time += dt
                    self.top_child += child
                    entry = self.entries.setdefault(key, [0.0, 0.0])
                    entry[0] += dt
                    entry[1] += child
            if kernel and args:
                stat.in_bytes += getattr(args[0], "nbytes", 0)
            if counts_nodes:
                self.nodes_built += len(out.nodes)
            return out
        return wrapper

    def on(self):
        import numpy
        mods = {name: m for name, m in sys.modules.items()
                if name == "causaldeco" or name.startswith("causaldeco.")}
        for mod, path in SPANS:
            owner = mods[f"causaldeco.{mod}"]
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            orig = getattr(owner, parts[-1])
            wrapped = self._wrap(f"{mod}.{path}", orig)
            if len(parts) > 1:
                self._patch(owner, parts[-1], orig, wrapped)
                continue
            for m in mods.values():
                if getattr(m, parts[-1], None) is orig:
                    self._patch(m, parts[-1], orig, wrapped)
        for k in KERNELS:
            orig = getattr(numpy.linalg, k)
            self._patch(numpy.linalg, k, orig,
                        self._wrap(f"numpy.linalg.{k}", orig, kernel=True))

    def _patch(self, owner, name, orig, wrapped):
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, orig))

    def off(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def metrics(self, rounds: int, traced_s: float, untraced_s: float) -> dict:
        """Per-round averages of every per-layer metric."""
        out = {}
        for name, unit, _ in metric_specs():
            key, _, field = name.rpartition(".")
            st = self.stats.get(key)
            if field == "calls":
                v = st.calls / rounds if st else 0.0
            elif field == "self_s":
                v = st.self / rounds if st else 0.0
            elif field == "total_s":
                v = st.total / rounds if st else 0.0
            elif field == "in_mb":
                v = st.in_bytes / 1e6 / rounds if st else 0.0
            else:
                continue
            out[name] = {"value": v, "unit": unit}

        def calls(key):
            st = self.stats.get(key)
            return st.calls if st else 0

        def ratio(num, den):
            return num / den if den else 0.0
        extra = {
            "lattice.nodes_built": self.nodes_built / rounds,
            "algebra.is_factor.per_lemma": ratio(
                calls("algebra.is_factor"), calls("algebra.algebraic_lemma")),
            "causal.causal_structure.per_decompose": ratio(
                calls("causal.causal_structure"), calls("decompose.decompose")),
            "trace.child_share": ratio(self.top_child, self.top_time),
            "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        }
        units = {n: u for n, u, _ in metric_specs()}
        for name, v in extra.items():
            out[name] = {"value": v, "unit": units[name]}
        return out

    def report(self, rounds: int) -> str:
        """Human-readable table, slowest total first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].total)
        lines = [f"{'span':48s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}"]
        for key, st in rows:
            if st.calls:
                lines.append(f"{key:48s} {st.calls / rounds:9.1f} "
                             f"{st.total / rounds:9.4f} {st.self / rounds:9.4f}")
        lines.append("entry span share of time in named child spans:")
        for key, (dt, child) in sorted(self.entries.items()):
            lines.append(f"  {key:46s} {child / dt if dt else 0.0:6.3f}")
        return "\n".join(lines)
