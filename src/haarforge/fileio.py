"""Stable sample serialization for the CLI: JSON and CSV.

One writer and one reader per format serve every (group, method) pair; the
writers take the kind from ``samplers.SAMPLERS`` (a pair not in it raises
ValueError), and each format is one view of the sample stack, handled once
per array, never per entry:

* JSON ``"matrices"`` is the (B, n, n, 2) view of the stack as complex,
  i.e. lists of rows of [re, im] pairs whatever the kind, and
  ``"permutations"`` the (B, n) stack of 1-based one-line words;
* CSV holds one leading comment line of metadata, then one
  blank-line-separated block per matrix, the rows of the (B, n, n) real
  part (real kind) or of the (B, n, 2n) view with interleaved re/im
  columns (complex kind), or one word per row (permutation kind).

Floats are written with ``repr`` (the shortest decimal that round-trips a
double), so write-then-read reproduces every entry bit for bit, signed
zeros included: matrices as a complex stack, permutations as the (B, n)
int64 stack, and a file with no samples as the empty stack of its
header's group and n.  Malformed input, a permutation row that is not a
permutation of 1..n among it, raises ValueError, and so does a JSON
document that is not an object with "matrices" or "permutations".
"""

from __future__ import annotations

import json
from itertools import groupby

import numpy as np

from haarforge.samplers import DEFAULT_METHOD, SAMPLERS, GroupId


def _kind(group: str, method: str) -> str:
    sampler = SAMPLERS.get((group, method))
    if sampler is None:
        raise ValueError(f"({group!r}, {method!r}) is not a (group, method) pair")
    return sampler.kind


def _float_view(mats) -> np.ndarray:
    """(..., 2) float view of a stack taken as complex: [re, im] last."""
    c = np.ascontiguousarray(mats, dtype=complex)
    return c.view(float).reshape(c.shape + (2,))


def _stack(meta, stack: np.ndarray) -> np.ndarray:
    """stack, or if it is empty the empty stack of the header's group and n:
    (0, d, d) complex for matrices, (0, n) int64 for permutations."""
    if stack.size:
        return stack
    g = GroupId(meta.get("group"), int(meta.get("n") or 0))  # ValueError if either is missing
    sampler = SAMPLERS[(g.tag, DEFAULT_METHOD[g.tag])]
    if sampler.kind == "permutation":
        return np.empty((0, g.n), dtype=np.int64)
    d = sampler.matrix_dim(g.n)
    return np.empty((0, d, d), dtype=complex)


def _words(meta, rows) -> np.ndarray:
    """rows as the (B, n) int64 stack of 1-based one-line permutations;
    ValueError for ragged rows, entries that are not integers, and rows
    that are not a permutation of 1..n."""
    words = np.asarray(rows)  # ValueError if ragged
    if words.size and (words.ndim != 2 or words.dtype.kind != "i" or not (
            np.sort(words, axis=1) == np.arange(1, words.shape[1] + 1)).all()):
        raise ValueError("permutations must be rows of integers, each a permutation of 1..n")
    return _stack(meta, words.astype(np.int64, copy=False))


def matrices_to_json(group: str, n: int, method: str, seed: int, stack) -> str:
    key, body = (("permutations", np.asarray(stack).tolist())
                 if _kind(group, method) == "permutation"
                 else ("matrices", _float_view(stack).tolist()))
    return json.dumps({"group": group, "n": n, "method": method, "seed": seed,
                       key: body})


def json_to_matrices(text: str):
    payload = json.loads(text)
    if not isinstance(payload, dict) or not payload.keys() & {"matrices", "permutations"}:
        raise ValueError('JSON input must be an object with "matrices" or "permutations"')
    if "permutations" in payload:
        return payload, _words(payload, payload["permutations"])
    try:
        pairs = np.array(payload["matrices"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed JSON matrices: {exc}") from None
    if pairs.size and (pairs.ndim != 4 or pairs.shape[-1] != 2):
        raise ValueError("JSON matrices must be lists of rows of [re, im] pairs")
    return payload, _stack(payload, pairs.view(complex).reshape(pairs.shape[:3]))


def matrices_to_csv(group: str, n: int, method: str, seed: int, stack) -> str:
    kind = _kind(group, method)
    stack = np.asarray(stack)
    blocks = ([stack] if kind == "permutation" else stack.real if kind == "real"
              else _float_view(stack).reshape(stack.shape[:-1] + (2 * stack.shape[-1],)))
    lines = [f"# haar-forge group={group} n={n} method={method} seed={seed} "
             f"kind={kind} count={len(stack)}"]
    for idx, block in enumerate(blocks):
        if idx:
            lines.append("")
        lines.extend(",".join(map(repr, row)) for row in block.tolist())
    return "\n".join(lines) + "\n"


def csv_to_matrices(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# haar-forge"):
        raise ValueError("missing haar-forge CSV header")
    meta = dict(tok.partition("=")[::2]
                for tok in lines[0].removeprefix("# haar-forge").split())
    kind = meta.get("kind", "complex")
    if kind == "permutation":
        return meta, _words(meta, np.array([line.split(",") for line in lines[1:]
                                            if line.strip()]).astype(np.int64))
    cols = np.array([[line.split(",") for line in block] for blank, block
                     in groupby(lines[1:], lambda line: not line.strip()) if not blank],
                    dtype=float)
    return meta, _stack(meta, cols.astype(complex) if kind == "real" else cols.view(complex))
