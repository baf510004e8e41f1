"""Stable sample serialization for the CLI: JSON and CSV.

One writer and one reader per format serve every (group, method) pair, and
``phase_chunks`` writes ``haar-forge spectra`` eigenphases.  The sample
writers and readers take a pair's kind and a sample's shape from
``samplers.sampler(group, method)`` and its ``shape(n)``, and each format is
one view of the sample stack, handled once per array:

* JSON ``"matrices"`` is the (B, n, n, 2) view of the stack as complex,
  i.e. lists of rows of [re, im] pairs whatever the kind, and
  ``"permutations"`` the (B, n) stack of 1-based one-line words;
* CSV holds one leading comment line of metadata, then one
  blank-line-separated block per matrix, the rows of the (B, n, n) real
  part (real kind) or of the (B, n, 2n) view with interleaved re/im
  columns (complex kind), or one word per row (permutation kind);
* spectra text states the request's n, method, seed and count, then the
  (B, n) phases as one flat JSON list or one CSV row per matrix.

The writers (``json_chunks``, ``csv_chunks``, ``phase_chunks``) yield text
pieces from one chunk loop: the header, the text of each batch chunk of the
stack (``linalg._chunks`` without its eighth-of-the-batch term, so at most
CHUNK_BYTES of samples), the tail, so no caller holds a whole text, and the
text held at once does not grow with the stack.  A
chunk is one ``%`` template filled with its entries, each formatted once:
a float as ``float.__repr__``, the shortest round-trip decimal and
``json.dumps``'s form (``NaN``, ``Infinity``, ``-Infinity`` in JSON), and
the imaginary parts of a real stack as the template's constant ``0.0``.

Write-then-read reproduces every entry bit for bit, signed zeros included:
matrices as a complex stack, permutations as the (B, n) int64 stack, and a
file with no samples as the empty stack of its header's group and n.
Malformed input raises ValueError (the writers refuse a stack by the same
check, ``_samples``): among it a permutation row that is not a permutation
of 1..n, a group, method or n the table refuses or lacks (a JSON n of 2.7
or true is no int), samples that are not the shape ``shape(n)`` gives, nonzero
imaginary parts under a real kind, a CSV whose count is not the
number of blocks read, a CSV kind other than real, complex and
permutation, a JSON document that is not an object with "matrices" or
"permutations", and JSON matrices that do not nest as lists of rows of
[re, im] pairs of numbers (``null``, ``true`` or a string is not a
number).
"""

from __future__ import annotations

import json
from itertools import chain, groupby

import numpy as np

from haarforge.linalg import _chunks
from haarforge.samplers import sampler


def _float_view(mats) -> np.ndarray:
    """(..., 2) float view of a stack taken as complex: [re, im] last."""
    c = np.ascontiguousarray(mats, dtype=complex)
    return c.view(float).reshape(c.shape + (2,))


def _samples(group, n, method, stack: np.ndarray):
    """The kind of ``sampler(group, method)`` and stack (for an empty one the
    empty stack of ``shape(n)``, int64 for permutations, else complex);
    ValueError unless stack is (B, *shape(n)), each word a permutation of
    1..n and each imaginary part under a real kind zero."""
    entry = sampler(group, method)
    shape, perm = entry.shape(n), entry.kind == "permutation"
    if not stack.size:
        return entry.kind, np.empty((0, *shape), dtype=np.int64 if perm else complex)
    if stack.shape[1:] != shape:
        raise ValueError(f"samples of shape {stack.shape[1:]} contradict group={group} n={n}")
    if perm and (stack.dtype.kind not in "iu"
                 or not (np.sort(stack, axis=1) == np.arange(1, n + 1)).all()):
        raise ValueError("permutations must be rows of integers, each a permutation of 1..n")
    if entry.kind == "real" and np.iscomplexobj(stack) and stack.imag.any():
        raise ValueError(f"nonzero imaginary parts in real group={group} samples")
    return entry.kind, stack


def _stack(meta, stack: np.ndarray) -> np.ndarray:
    """stack as ``_samples`` checks it for the header's group, method and n."""
    n = meta.get("n")  # text in a CSV header
    return _samples(meta.get("group"), int(n) if isinstance(n, str) else n,
                    meta.get("method"), stack)[1]


def _words(meta, rows) -> np.ndarray:
    """rows as the (B, n) int64 stack of 1-based one-line permutations;
    ValueError for ragged rows and for what ``_stack`` refuses."""
    return _stack(meta, np.asarray(rows)).astype(np.int64, copy=False)  # ValueError if ragged


def _nested(leaf: str, dims) -> str:
    """``leaf`` nested in JSON lists of sizes ``dims``, outermost first."""
    for size in reversed(dims):
        leaf = "[" + ", ".join([leaf] * size) + "]"
    return leaf


def _pieces(head: str, stack, item: str, sep: str, *tail: str, special=None):
    """The one chunk loop: ``head``, then per batch chunk of ``stack`` one ``item`` per
    sample, ``sep``-joined, filled by ``%`` (``special`` maps a non-finite chunk), ``tail``."""
    yield head
    for idx, sl in enumerate(_chunks(len(stack), max(1, stack[:1].nbytes), eighth=False)):
        chunk = stack[sl]
        entries = chunk.ravel().tolist()
        if special is not None and not np.isfinite(chunk).all():
            entries = list(map(special, entries))
        yield ((sep if idx else "") + sep.join([item] * len(chunk))) % tuple(entries)
    yield from tail


def json_chunks(group: str, n: int, method: str, seed: int, stack):
    """The text of ``matrices_to_json`` in pieces (``_pieces``): the document
    up to the "[" of its sample list, each batch chunk's items, then "]}"."""
    kind, stack = _samples(group, n, method, np.asarray(stack))
    if kind == "permutation":
        key, item = "permutations", _nested("%s", stack.shape[1:])
    elif kind == "complex":
        stack = _float_view(stack)
        key, item = "matrices", _nested("[%s, %s]", stack.shape[1:-1])
    else:
        stack = stack.real.astype(float, copy=False)
        key, item = "matrices", _nested("[%s, 0.0]", stack.shape[1:])
    head = json.dumps({"group": group, "n": n, "method": method, "seed": seed, key: []})
    return _pieces(head[:-2], stack, item, ", ", "]}", special=json.dumps)


def matrices_to_json(group: str, n: int, method: str, seed: int, stack) -> str:
    return "".join(json_chunks(group, n, method, seed, stack))


def _json_pairs(meta, matrices) -> np.ndarray:
    """``_stack`` of JSON "matrices": ValueError unless they nest as B
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
    try:
        pairs = np.fromiter(items, dtype=float, count=len(items))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"malformed JSON matrices: {exc}") from None
    return _stack(meta, pairs.view(complex).reshape(shape[:3]))


def json_to_matrices(text: str):
    payload = json.loads(text)
    if not isinstance(payload, dict) or not payload.keys() & {"matrices", "permutations"}:
        raise ValueError('JSON input must be an object with "matrices" or "permutations"')
    if "permutations" in payload:
        return payload, _words(payload, payload["permutations"])
    return payload, _json_pairs(payload, payload["matrices"])


def csv_chunks(group: str, n: int, method: str, seed: int, stack):
    """The text of ``matrices_to_csv`` in pieces (``_pieces``): the header
    line, then each batch chunk's rows, a blank line between two matrices."""
    kind, stack = _samples(group, n, method, np.asarray(stack))
    head = (f"# haar-forge group={group} n={n} method={method} seed={seed} "
            f"kind={kind} count={len(stack)}\n")
    if kind == "permutation":
        blocks = stack[:, None, :]  # each word the one row of its block
    elif kind == "real":
        blocks = stack.real
    else:
        blocks = _float_view(stack).reshape(stack.shape[:-1] + (2 * stack.shape[-1],))
    block = (",".join(["%s"] * blocks.shape[2]) + "\n") * blocks.shape[1]
    gap = "" if kind == "permutation" else "\n"  # a blank line between two matrices
    return _pieces(head, blocks, block, gap)


def matrices_to_csv(group: str, n: int, method: str, seed: int, stack) -> str:
    return "".join(csv_chunks(group, n, method, seed, stack))


def phase_chunks(fmt: str, n: int, method: str, seed: int, count: int, phases):
    """``fmt`` ("json" or "csv") text pieces of a spectra request and its (B, n) phases."""
    row = ["%s"] * phases.shape[1]
    if fmt == "json":
        head = json.dumps({"n": n, "method": method, "seed": seed, "count": count, "phases": []})
        return _pieces(head[:-2], phases, ", ".join(row), ", ", "]}", special=json.dumps)
    head = f"# haar-forge spectra n={n} method={method} seed={seed} count={count}\n"
    return _pieces(head, phases, ",".join(row) + "\n", "")


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
        stack = _words(meta, np.array([line.split(",") for line in lines[1:]
                                       if line.strip()]).astype(np.int64))
    else:
        cols = np.array([[line.split(",") for line in block] for blank, block
                         in groupby(lines[1:], lambda line: not line.strip()) if not blank],
                        dtype=float)
        stack = _stack(meta, cols.astype(complex) if kind == "real" else cols.view(complex))
    if "count" in meta and int(meta["count"]) != len(stack):
        raise ValueError(f"count={meta['count']} contradicts the {len(stack)} samples read")
    return meta, stack
