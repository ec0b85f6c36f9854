"""Exception types shared across the package, and the checks of input.

The CLI maps these onto exit codes: InputError to 2, NumericsError to 3.
Principled refusals are not exceptions; they travel in report objects.
Every JSON document comes through ``read_text`` and ``document``, and
every user tolerance through ``check_tol``: each raises any failure as
InputError, so malformed input ends as nothing else.  Every JSON
document written, report or file, comes from ``dump_json``.
"""

import json
import numbers

# compact JSON shorter than this is indented faster by the stdlib
_SHORT_JSON = 1024


class InputError(ValueError):
    """Malformed user input: bad JSON, unknown labels, inconsistent dims."""


class NumericsError(RuntimeError):
    """A numerical assertion failed: a tolerance was exceeded where the
    mathematics says the quantity must vanish, or an algebraic hypothesis
    that was supposed to hold did not survive the numerics."""


class BorderlineToleranceWarning(UserWarning):
    """A decision quantity landed within a factor of ten of its threshold."""


def read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """``json.loads`` hook: a repeated key is refused, not overwritten."""
    last = {k: i for i, (k, _) in enumerate(pairs)}
    if len(last) < len(pairs):
        raise InputError("repeated key " + repr(next(
            k for i, (k, _) in enumerate(pairs) if last[k] != i)))
    return dict(pairs)


def document(data, what: str, fields: dict) -> dict:
    """``data``, JSON text (no object in it naming a key twice) or a
    parsed value, as an object with each key of ``fields`` present and of
    its type.  The parser raises RecursionError on too deep a nesting."""
    if isinstance(data, str):
        try:
            data = json.loads(data, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    for key, kind in fields.items():
        if key not in data:
            raise InputError(f"{what} JSON missing key {key!r}")
        if not isinstance(data[key], kind):
            raise InputError(f"{what} JSON key {key!r} must be an "
                             + ("array" if kind is list else "object"))
    return data


def check_tol(tol) -> None:
    """Refuse a relative tolerance outside [0, 1).  A NaN or negative one
    fails every comparison, and at 1 or above a relative residual or
    commutator cut passes nearly everything.  A bool is a Real, but
    not a tolerance."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real)
                                     and 0 <= tol < 1):
        raise InputError(f"tolerance must be finite and in [0, 1), "
                         f"got {tol!r}")


def dump_json(data, sort_keys: bool) -> str:
    """``json.dumps(data, indent=2, sort_keys=sort_keys)``, byte for byte:
    the C encoder writes compact text, and array ops break and indent it
    outside strings, found by quote parity (escapes take the stdlib path,
    as ``indent`` alone would make ``json`` take its pure-Python one).
    CLI reports sort their keys; files keep insertion order."""
    text = json.dumps(data, sort_keys=sort_keys, separators=(",", ": "))
    if len(text) < _SHORT_JSON or "\\" in text:
        return json.dumps(data, indent=2, sort_keys=sort_keys)
    import numpy as np  # only long documents load numpy
    b = np.frombuffer(text.encode(), np.uint8)
    outside = ~np.bitwise_xor.accumulate(b == ord('"'))
    opens = ((b == ord("[")) | (b == ord("{"))) & outside
    closes = ((b == ord("]")) | (b == ord("}"))) & outside
    # breaks after commas, after non-empty opens and before their closes
    brk = (b == ord(",")) & outside
    brk[:-1] |= opens[:-1] ^ closes[1:]
    step = opens.view(np.int8)  # opens minus closes, in place
    step -= closes
    # bytes inserted after each byte: at a break, a newline and two spaces
    # per depth after the byte, or after the close it precedes
    ins = np.cumsum(step, dtype=np.int32)
    ins[:-1] -= closes[1:]
    ins *= 2
    ins += 1
    ins *= brk
    # their running total, shifted by one and added to each byte's index,
    # is the byte's place in the output
    np.cumsum(ins, out=ins)
    out = np.full(len(b) + ins[-1], ord(" "), np.uint8)
    ins[1:] = ins[:-1]
    ins[0] = 0
    ins += np.arange(len(b), dtype=np.int32)
    out[ins] = b
    out[ins[brk] + 1] = ord("\n")
    return str(out, "ascii")
