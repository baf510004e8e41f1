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

Each writer is a generator of text pieces (``json_chunks``, ``csv_chunks``):
the header, then the text of successive batch chunks of the stack, cut by
the one batch-chunk rule, ``linalg._chunks``, so a caller can write a
large stack without holding its whole text.  ``matrices_to_json`` and
``matrices_to_csv`` are the joined pieces.  A chunk's text is one format
template, built from the chunk's shape, filled with its entries by ``%``:
each entry is formatted once, a float as ``float.__repr__`` (the shortest
decimal that round-trips a double, which is also ``json.dumps``'s form;
a chunk holding NaN or an infinity takes ``json.dumps``'s ``NaN``,
``Infinity`` and ``-Infinity`` in JSON).  The imaginary parts of a real
stack are the constant ``0.0`` of the JSON template.

Write-then-read reproduces every entry bit for bit, signed zeros included:
matrices as a complex stack, permutations as the (B, n) int64 stack, and a
file with no samples as the empty stack of its header's group and n.
Malformed input raises ValueError: among it a permutation row that is not
a permutation of 1..n, a matrix that is not square, a CSV kind other than
real, complex and permutation, a JSON document that is not an object with
"matrices" or "permutations", and JSON matrices that do not nest as lists
of rows of [re, im] pairs of numbers (``null``, ``true`` or a string is
not a number).
"""

from __future__ import annotations

import json
from itertools import chain, groupby

import numpy as np

from haarforge.linalg import _chunks
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


def _batch_chunks(stack: np.ndarray):
    """Successive batch chunks of ``stack``, sized by ``linalg._chunks``."""
    for sl in _chunks(len(stack), max(1, stack[:1].nbytes)):
        yield stack[sl]


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


def _matrices(meta, stack: np.ndarray) -> np.ndarray:
    """``_stack`` of a (B, r, c) stack, ValueError unless r == c."""
    if stack.size and stack.shape[1] != stack.shape[2]:
        raise ValueError(f"matrices must be square, not {stack.shape[1]}x{stack.shape[2]}")
    return _stack(meta, stack)


def _words(meta, rows) -> np.ndarray:
    """rows as the (B, n) int64 stack of 1-based one-line permutations;
    ValueError for ragged rows, entries that are not integers, and rows
    that are not a permutation of 1..n."""
    words = np.asarray(rows)  # ValueError if ragged
    if words.size and (words.ndim != 2 or words.dtype.kind != "i" or not (
            np.sort(words, axis=1) == np.arange(1, words.shape[1] + 1)).all()):
        raise ValueError("permutations must be rows of integers, each a permutation of 1..n")
    return _stack(meta, words.astype(np.int64, copy=False))


def _nested(leaf: str, dims) -> str:
    """``leaf`` nested in JSON lists of sizes ``dims``, outermost first."""
    for size in reversed(dims):
        leaf = "[" + ", ".join([leaf] * size) + "]"
    return leaf


def json_chunks(group: str, n: int, method: str, seed: int, stack):
    """The text of ``matrices_to_json`` in pieces: the document up to the
    opening bracket of its sample list, the items of each batch chunk
    (``linalg._chunks``), and the closing brackets."""
    stack = np.asarray(stack)
    if _kind(group, method) == "permutation":
        key, item = "permutations", _nested("%s", stack.shape[1:])
    elif np.iscomplexobj(stack):
        stack = _float_view(stack)
        key, item = "matrices", _nested("[%s, %s]", stack.shape[1:-1])
    else:
        stack = stack.astype(float, copy=False)
        key, item = "matrices", _nested("[%s, 0.0]", stack.shape[1:])
    head = json.dumps({"group": group, "n": n, "method": method, "seed": seed, key: []})
    yield head[:-2]  # up to the "[" of the empty list
    for idx, chunk in enumerate(_batch_chunks(stack)):
        entries = chunk.ravel().tolist()
        if not np.isfinite(chunk).all():
            entries = list(map(json.dumps, entries))  # NaN, Infinity, -Infinity
        text = ", ".join([item] * len(chunk)) % tuple(entries)
        yield ", " + text if idx else text
    yield "]}"


def matrices_to_json(group: str, n: int, method: str, seed: int, stack) -> str:
    return "".join(json_chunks(group, n, method, seed, stack))


def _json_pairs(meta, matrices) -> np.ndarray:
    """``_matrices`` of JSON "matrices": ValueError unless they nest as B
    lists of r rows of c [re, im] pairs of numbers (int or float)."""
    shape, items = [], [matrices]
    for _ in range(4):  # matrices, rows, pairs, entries
        if {*map(type, items)} - {list}:
            raise ValueError("JSON matrices must be lists of rows of [re, im] pairs")
        lengths = {*map(len, items)}
        if len(lengths) > 1:
            raise ValueError("JSON matrices must not be ragged")
        shape.append(lengths.pop() if lengths else 0)
        items = list(chain.from_iterable(items))
    if items and shape[3] != 2:
        raise ValueError("JSON matrices must be lists of rows of [re, im] pairs")
    if {*map(type, items)} - {float, int}:
        raise ValueError("JSON matrix entries must be numbers")
    if not items:
        return _stack(meta, np.empty(0))
    try:
        pairs = np.fromiter(items, dtype=float, count=len(items))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"malformed JSON matrices: {exc}") from None
    return _matrices(meta, pairs.view(complex).reshape(shape[:3]))


def json_to_matrices(text: str):
    payload = json.loads(text)
    if not isinstance(payload, dict) or not payload.keys() & {"matrices", "permutations"}:
        raise ValueError('JSON input must be an object with "matrices" or "permutations"')
    if "permutations" in payload:
        return payload, _words(payload, payload["permutations"])
    return payload, _json_pairs(payload, payload["matrices"])


def csv_chunks(group: str, n: int, method: str, seed: int, stack):
    """The text of ``matrices_to_csv`` in pieces: the header line, then the
    rows of each batch chunk, a blank line between two matrices."""
    kind = _kind(group, method)
    stack = np.asarray(stack)
    yield (f"# haar-forge group={group} n={n} method={method} seed={seed} "
           f"kind={kind} count={len(stack)}\n")
    gap = "" if kind == "permutation" else "\n"  # a blank line between two matrices
    if kind == "permutation":
        blocks = stack[:, None, :]  # each word the one row of its block
    elif kind == "real":
        blocks = stack.real
    else:
        blocks = _float_view(stack).reshape(stack.shape[:-1] + (2 * stack.shape[-1],))
    block = (",".join(["%s"] * blocks.shape[2]) + "\n") * blocks.shape[1]
    for idx, chunk in enumerate(_batch_chunks(blocks)):
        text = gap.join([block] * len(chunk)) % tuple(chunk.ravel().tolist())
        yield gap + text if idx else text


def matrices_to_csv(group: str, n: int, method: str, seed: int, stack) -> str:
    return "".join(csv_chunks(group, n, method, seed, stack))


def csv_to_matrices(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# haar-forge"):
        raise ValueError("missing haar-forge CSV header")
    meta = dict(tok.partition("=")[::2]
                for tok in lines[0].removeprefix("# haar-forge").split())
    kind = meta.get("kind", "complex")
    if kind not in ("real", "complex", "permutation"):
        raise ValueError(f"unknown CSV kind {kind!r}")
    if kind == "permutation":
        return meta, _words(meta, np.array([line.split(",") for line in lines[1:]
                                            if line.strip()]).astype(np.int64))
    cols = np.array([[line.split(",") for line in block] for blank, block
                     in groupby(lines[1:], lambda line: not line.strip()) if not blank],
                    dtype=float)
    return meta, _matrices(meta, cols.astype(complex) if kind == "real" else cols.view(complex))
