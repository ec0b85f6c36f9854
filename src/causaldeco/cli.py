"""Batch front end over relations, unitaries, and circuits.

Subcommands: lattice (emit the canonical circuit shape as DOT or JSON),
check (decide the C3 exclusion property), analyze (numerical causal
structure of a unitary), decompose (synthesize a circuit), verify
(check a claimed circuit against a unitary and a relation), roundtrip
(seeded generate/decompose trials), gallery (named reference channels).
Each command imports the numerical modules it uses when it runs, so
check, lattice and --help start without numpy (lattice --format json
loads it to indent a document past 1 KiB).

Exit codes: 0 success or satisfied, 1 principled refusal or violation,
2 malformed input, 3 numerical assertion failure (a LAPACK routine that
does not converge included) or out of memory, 141 stdout closed by its
reader.  All randomness is seeded (default seed 0), so every decision
is reproducible, and the output is reproducible byte for byte on the
same numpy and BLAS build; across builds a gate may differ by a gauge
(a change of basis on its wires) that leaves every decision and
residual check the same.
"""

import argparse
import functools
import os
import sys

from .errors import InputError, NumericsError, dump_json
from .lattice import (build_concept_lattice, check_c3ep_lattice,
                      overlap_lemma_check, shape_to_json, to_dot)
from .policy import INFLUENCE_REL_TOL, RECOMPOSE_TOL
from .relations import Relation, check_c3ep, load_relation


def _witness_line(witness) -> str:
    return "witness: " + " ".join(
        f"{k}={v}" for k, v in witness.as_dict().items())


def cmd_lattice(args) -> int:
    G = load_relation(args.relation)
    shape = build_concept_lattice(G)
    if args.format == "dot":
        sys.stdout.write(to_dot(shape))
    else:
        print(dump_json(shape_to_json(shape), sort_keys=True))
    return 0


def cmd_check(args) -> int:
    G = load_relation(args.relation)
    # check_c3ep compares the scan with the intersection criterion and
    # check_c3ep_lattice path multiplicity with cover disjointness; the
    # relational and lattice verdicts are compared here
    res = check_c3ep(G)
    try:
        shape = build_concept_lattice(G)
    except InputError as exc:
        # past the concept cap the two relational routes still decide a
        # violation; a satisfied verdict needs the lattice routes too
        if res.satisfied:
            raise
        return _print_violation(args, res, None,
                                f"lattice routes skipped: {exc}")
    lat = check_c3ep_lattice(shape)
    if res.satisfied != lat.satisfied:
        raise NumericsError("relational and lattice routes disagree")
    if res.satisfied:
        triples = overlap_lemma_check(shape)
        if args.json:
            print(dump_json({"satisfied": True, "witness": None,
                             "overlap_triples": triples}, sort_keys=True))
        else:
            print("Satisfied")
            print("routes agree: restriction scan, intersection criterion, "
                  "path multiplicity, cover disjointness")
            print(f"parent-overlap identity checked at {triples} "
                  "branching triples")
        return 0
    note = None
    if lat.evidence:
        a, b, k = lat.evidence
        note = f"pair ({a}, {b}) is joined by {k} cover paths"
    return _print_violation(args, res, lat.evidence, note)


def _print_violation(args, res, evidence, note) -> int:
    if args.json:
        print(dump_json({"satisfied": False,
                         "witness": res.witness.as_dict(),
                         "path_evidence": list(evidence) if evidence
                         else None}, sort_keys=True))
    else:
        print("Violated")
        print(_witness_line(res.witness))
        if note:
            print(note)
    return 1


def cmd_analyze(args) -> int:
    from .causal import causal_structure_report, load_unitary
    U = load_unitary(args.unitary)
    rep = causal_structure_report(U, rel_tol=args.tol)
    rel = rep.relation
    pairs = sorted(rel.pairs)
    border = sorted(rep.borderline)
    if args.json:
        print(dump_json({
            "inputs": list(rel.inputs),
            "outputs": list(rel.outputs),
            "pairs": [list(p) for p in pairs],
            "borderline": [list(p) for p in border],
            "norms": {f"{a}->{b}": rep.raw_norms[(a, b)]
                      for a, b in sorted(rep.raw_norms)},
            "thresholds": {f"{a}->{b}": rep.thresholds[(a, b)]
                           for a, b in sorted(rep.thresholds)},
        }, sort_keys=True))
        return 0
    print("inputs: " + " ".join(rel.inputs))
    print("outputs: " + " ".join(rel.outputs))
    print("pairs:")
    for a, b in pairs:
        print(f"  {a} -> {b}")
    for a, b in border:
        print(f"warning: borderline influence {a} -> {b} (norm "
              f"{rep.raw_norms[(a, b)]:.3e}, threshold "
              f"{rep.thresholds[(a, b)]:.3e})")
    return 0


def _pad_to_c3ep(G: Relation):
    """Grow the relation until the exclusion property holds.

    Each round adds one missing corner of the first forbidden
    restriction found (the scan is lexicographic, so the result is
    deterministic).  Returns (padded relation, list of added pairs); no
    minimality is claimed.
    """
    pairs = set(G.pairs)
    added = []
    while True:
        cur = Relation(G.inputs, G.outputs, frozenset(pairs))
        res = check_c3ep(cur)
        if res.satisfied:
            return cur, added
        w = res.witness
        pairs.add((w.a1, w.b3))
        added.append((w.a1, w.b3))


def _report_data(report, padded=None, out=None) -> dict:
    data = {"status": report.status}
    if report.witness is not None:
        data["witness"] = report.witness.as_dict()
    if report.extra_pair is not None:
        data["extra_pair"] = list(report.extra_pair)
    if report.recomposition_residual is not None:
        data["residual"] = float(report.recomposition_residual)
        data["gates_unitary"] = bool(report.gates_unitary)
        data["connectivity_ok"] = bool(report.connectivity_ok)
        data["faithful"] = bool(report.faithful)
    if report.per_node_diagnostics:
        data["nodes"] = [
            {"node": int(d.node), "local_dim": int(d.local_dim),
             "leg_dims": [int(x) for x in d.leg_dims],
             "inclusion_residual": float(d.inclusion_residual)}
            for d in report.per_node_diagnostics]
    if padded is not None:
        data["padded_pairs"] = [list(p) for p in padded]
    if out is not None:
        data["out"] = out
    return data


def _print_report(report, as_json, padded=None, out=None):
    if as_json:
        print(dump_json(_report_data(report, padded, out), sort_keys=True))
        return
    if padded:
        print("padded the relation with " + ", ".join(
            f"({a}, {b})" for a, b in padded))
    print(f"status: {report.status}")
    if report.witness is not None:
        print(_witness_line(report.witness))
    if report.extra_pair is not None:
        a, b = report.extra_pair
        print(f"influence outside the relation: {a} -> {b}")
    if report.recomposition_residual is not None:
        print(f"recomposition residual: {report.recomposition_residual:.3e}")
        print(f"gates unitary: {'yes' if report.gates_unitary else 'no'}")
        print("connectivity inside relation: "
              + ("yes" if report.connectivity_ok else "no"))
        print(f"faithful: {'yes' if report.faithful else 'no'}")
    for d in report.per_node_diagnostics:
        print(f"node {d.node}: local dim {d.local_dim}, output legs "
              f"{tuple(d.leg_dims)}, inclusion residual "
              f"{d.inclusion_residual:.3e}")
    if out is not None:
        print(f"circuit written to {out}")


def cmd_decompose(args) -> int:
    from .causal import load_unitary
    from .circuits import circuit_to_json
    from .decompose import FAILED, SUCCESS, decompose
    U = load_unitary(args.unitary)
    G = load_relation(args.relation)
    padded = None
    if args.pad_connectivity:
        G, padded = _pad_to_c3ep(G)
    circuit, report = decompose(U, G, seed=args.seed, tol=args.tol)
    out = None
    if report.status == SUCCESS and args.out:
        with open(args.out, "w") as fh:
            fh.write(circuit_to_json(circuit))
        out = args.out
    _print_report(report, args.json, padded=padded, out=out)
    if report.status == SUCCESS:
        return 0
    # refusals carry their evidence in the report; a Failed
    # verification is a numerical breakdown
    return 3 if report.status == FAILED else 1


def cmd_verify(args) -> int:
    from .causal import load_unitary
    from .circuits import load_circuit
    from .decompose import SUCCESS, verify_decomposition
    U = load_unitary(args.unitary)
    circuit = load_circuit(args.circuit)
    G = load_relation(args.relation)
    report = verify_decomposition(U, circuit, G, tol=args.tol)
    _print_report(report, args.json)
    return 0 if report.status == SUCCESS else 1


def cmd_roundtrip(args) -> int:
    from .circuits import random_circuit_unitary, uniform_dims
    from .decompose import SUCCESS, decompose
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    G = load_relation(args.relation)
    res = check_c3ep(G)
    if res.violated:
        if args.json:
            print(dump_json({"status": "RefusedC3EP",
                             "witness": res.witness.as_dict()},
                            sort_keys=True))
        else:
            print("refused: relation violates the exclusion property")
            print(_witness_line(res.witness))
        return 1
    shape = build_concept_lattice(G)
    kwargs = {}
    if args.dims != 2:
        in_dims, out_dims, wire_dims = uniform_dims(shape, args.dims)
        kwargs = {"wire_dims": wire_dims,
                  "leg_dims": {**in_dims, **out_dims}}
    rows = []
    for t in range(args.trials):
        s = args.seed + t
        _, U = random_circuit_unitary(shape, seed=s, **kwargs)
        try:
            _, report = decompose(U, G, seed=s)
            # a refusal returns no circuit to measure
            residual = report.recomposition_residual
            rows.append({"trial": t, "seed": s, "status": report.status,
                         "residual": None if residual is None
                         else float(residual),
                         "pass": report.status == SUCCESS})
        except NumericsError as exc:
            rows.append({"trial": t, "seed": s, "status": "error",
                         "error": str(exc), "pass": False})
    npass = sum(r["pass"] for r in rows)
    if args.json:
        print(dump_json({"trials": args.trials, "passes": npass, "rows": rows},
                        sort_keys=True))
    else:
        for r in rows:
            if r["status"] == "error":
                print(f"trial {r['trial']}: fail ({r['error']})")
            else:
                print(f"trial {r['trial']}: "
                      + ("pass" if r["pass"] else f"fail ({r['status']})")
                      + ("" if r["residual"] is None
                         else f" residual {r['residual']:.3e}"))
        print(f"{npass}/{args.trials} pass")
    return 0 if npass == args.trials else 3


def cmd_gallery(args) -> int:
    from .causal import unitary_to_json
    from .gallery import build_counterexample, loose_wires_c3, u3
    name = args.name
    if name == "u3":
        U = u3()
    elif name == "loose-wires":
        _, U = loose_wires_c3()
    elif name.startswith("counterexample:"):
        G = load_relation(name.split(":", 1)[1])
        U = build_counterexample(G, seed=args.seed)
    else:
        raise InputError(
            f"unknown gallery name {name!r}; available: u3, loose-wires, "
            "counterexample:<relation-file>")
    text = unitary_to_json(U)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: do not modify it."""
    ap = argparse.ArgumentParser(
        prog="causaldeco",
        description="causal decomposition of unitaries over labeled "
                    "bipartite relations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice",
                       help="emit the canonical circuit shape of a relation")
    p.add_argument("relation", help="relation JSON file")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("check", help="decide the C3 exclusion property")
    p.add_argument("relation", help="relation JSON file")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze",
                       help="numerical causal structure of a unitary")
    p.add_argument("unitary", help="unitary JSON file")
    p.add_argument("--tol", type=float, default=INFLUENCE_REL_TOL,
                   help="relative influence tolerance (default: the "
                        "library's, %(default)g)")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose",
                       help="synthesize a circuit of the canonical shape")
    p.add_argument("unitary", help="unitary JSON file")
    p.add_argument("relation", help="relation JSON file")
    p.add_argument("--out", help="write the circuit JSON here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=RECOMPOSE_TOL,
                   help="residual acceptance threshold, times sqrt(dim) "
                        "(default: the library's, %(default)g)")
    p.add_argument("--pad-connectivity", action="store_true",
                   help="grow the relation until the exclusion property "
                        "holds before decomposing")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify",
                       help="verify a claimed circuit decomposition")
    p.add_argument("unitary", help="unitary JSON file")
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("relation", help="relation JSON file")
    p.add_argument("--tol", type=float, default=RECOMPOSE_TOL,
                   help="residual acceptance threshold, times sqrt(dim) "
                        "(default: the library's, %(default)g)")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip",
                       help="seeded generate/decompose trials on a relation")
    p.add_argument("relation", help="relation JSON file")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=2,
                   help="base dimension for wires and legs")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("gallery", help="emit a named reference channel")
    p.add_argument("name",
                   help="u3 | loose-wires | counterexample:<relation-file>")
    p.add_argument("--out", help="write the unitary JSON here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gallery)
    return ap


def _lapack_error() -> type:
    """numpy's LinAlgError, which only a loaded numpy can raise; before
    numpy is loaded, an error class already caught."""
    numpy = sys.modules.get("numpy")
    return numpy.linalg.LinAlgError if numpy else NumericsError


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, _lapack_error()) as exc:
        # LinAlgError is a ValueError, but a LAPACK routine that does not
        # converge is a numerical failure, not malformed input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left (`| head`): not bad input; devnull quiets exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
