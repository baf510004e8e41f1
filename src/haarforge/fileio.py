"""Stable sample serialization for the CLI: JSON and CSV.

One writer and one reader per format serve every (group, method) pair,
with the kind and shape of ``samplers.sampler(group, method)``;
``phase_chunks`` writes ``haar-forge spectra`` eigenphases.  README's
"File formats" gives the layouts and the malformed input that raises
ValueError.

The writers yield the header, the text of one batch chunk at a time
(``linalg._chunks`` without its eighth-of-the-batch term) and the tail, so
the text held at once does not grow with the stack.  Each float is written
as ``float.__repr__`` (``json.dumps``'s form), so write-then-read gives
every entry back bit for bit, signed zeros included.  The writers refuse a
stack by the readers' own check, ``_samples``, so no writer emits a file
that its reader refuses.  The JSON reader decodes its sample list one
sample at a time, so a read's memory also follows the stack, not the
text; the header it returns holds every key but the sample list.
"""

from __future__ import annotations

import json
import json.decoder
import json.scanner
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


def _fits(meta, perm: bool, source: str) -> None:
    """ValueError unless the header's group samples permutations exactly
    when ``perm``, for samples read under ``source``, a JSON key or CSV kind;
    so ``_stack`` gives an int64 stack under sn and a complex one elsewhere."""
    if (sampler(meta.get("group"), meta.get("method")).kind == "permutation") != perm:
        raise ValueError(f"{source} samples do not fit group={meta.get('group')}")


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


def _nesting(batch, depth: int, leaves: set, refusal: str) -> tuple:
    """The lengths below the batch and the flat leaves of a list of samples
    nested ``depth`` lists deep, the batch outermost: ValueError(refusal)
    unless each level holds lists and each leaf's type is in ``leaves``,
    and ValueError if a level's lists differ in length (an empty level
    counting 0)."""
    shape, items = [], [batch]
    for _ in range(depth):
        if {*map(type, items)} - {list}:
            raise ValueError(refusal)
        lengths = {*map(len, items)}
        if len(lengths) > 1:
            raise ValueError("JSON samples must not be ragged")
        shape.append(lengths.pop() if lengths else 0)
        items = list(chain.from_iterable(items))
    if {*map(type, items)} - leaves:
        raise ValueError(refusal)
    return tuple(shape[1:]), items


def _pairs(batch) -> tuple:
    """(r, c, 2) and the flat float array of a batch of JSON matrices, each
    r rows of c [re, im] pairs of numbers (int or float); (r, c, 0) if
    empty."""
    refusal = "JSON matrices must be lists of rows of [re, im] pairs of numbers"
    shape, items = _nesting(batch, 4, {float, int}, refusal)
    if items and shape[2] != 2:
        raise ValueError(refusal)
    return shape, np.fromiter(items, dtype=float, count=len(items))


def _words_flat(batch) -> tuple:
    """(n,) and the flat int64 array of a batch of JSON permutation words,
    each a list of n integers (a boolean is none)."""
    shape, items = _nesting(batch, 2, {int}, "permutations must be rows of integers, "
                            "each a permutation of 1..n")
    return shape, np.fromiter(items, dtype=np.int64, count=len(items))


SAMPLE_KEYS = {"matrices": _pairs, "permutations": _words_flat}
NO_SAMPLES = 'JSON input must be an object with "matrices" or "permutations"'
BATCH_ENTRIES = 1 << 12  # numbers per batch of decoded samples held as Python objects
_scan = json.scanner.make_scanner(json.JSONDecoder())
_space = json.decoder.WHITESPACE.match


def _value(text: str, idx: int):
    """(value, end) of the JSON value after the whitespace at ``idx``, by
    json's C scanner."""
    try:
        return _scan(text, _space(text, idx).end())
    except StopIteration as stop:
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None


def _token(text: str, idx: int, allowed: str) -> tuple:
    """The first character at or after ``idx`` that is not whitespace, and
    the index past it; JSONDecodeError unless it is one of ``allowed``."""
    idx = _space(text, idx).end()
    if idx == len(text) or text[idx] not in allowed:
        raise json.JSONDecodeError(f"Expecting one of {allowed!r}", text, idx)
    return text[idx], idx + 1


def _sample_list(text: str, idx: int, parse) -> tuple:
    """(samples, end) of the JSON list after the whitespace at ``idx``,
    decoded one element at a time.  ``parse`` turns each batch of elements
    (the first alone, then about BATCH_ENTRIES numbers each) into its shape
    below the batch and flat array, and samples is (those parts, the
    number of elements), or a ValueError for the first batch that ``parse``
    refuses (an integer beyond the float or int64 range included) or whose
    shape is not the first one's.  The error is returned, not raised, as a
    later key of the same name, or "permutations" beside "matrices",
    overrides this list; the rest of the list is still scanned, so
    malformed JSON raises here."""
    idx = _space(text, idx).end()
    if text[idx:idx + 1] != "[":
        return ValueError("JSON samples must be a list"), _value(text, idx)[1]
    idx = _space(text, idx + 1).end()
    if text[idx:idx + 1] == "]":
        return ([], 0), idx + 1
    parts, batch, count, step, sep = [], [], 0, 1, ","
    while sep == ",":
        element, idx = _value(text, idx)
        batch.append(element)
        sep = text[idx:idx + 1]
        if sep in (",", "]"):  # the writers put no whitespace before a separator
            idx += 1
        else:
            sep, idx = _token(text, idx, ",]")
        if len(batch) < step and sep == ",":
            continue
        count += len(batch)
        if not isinstance(parts, ValueError):
            try:
                parts.append(parse(batch))
                if parts[-1][0] != parts[0][0]:
                    raise ValueError("JSON samples must not be ragged")
            except (ValueError, OverflowError) as exc:
                parts = ValueError(f"malformed JSON samples: {exc}")
            else:
                step = max(1, BATCH_ENTRIES // max(1, parts[0][1].size))
        batch = []
    return (parts if isinstance(parts, ValueError) else (parts, count)), idx


def json_to_matrices(text: str):
    """(header, stack) of a JSON sample document.  The header holds every
    key but the sample lists, whose elements json's C scanner decodes one
    at a time; only each batch's array is kept (``_sample_list``)."""
    idx = _space(text, 0).end()
    if text[idx:idx + 1] != "{":
        raise ValueError(NO_SAMPLES)
    header, samples = {}, {}
    sep, idx = _token(text, idx + 1, '"}')
    while sep != "}":
        if sep == ",":
            _, idx = _token(text, idx, '"')
        key, idx = json.decoder.scanstring(text, idx)
        _, idx = _token(text, idx, ":")
        if key in SAMPLE_KEYS:
            samples[key], idx = _sample_list(text, idx, SAMPLE_KEYS[key])
        else:
            header[key], idx = _value(text, idx)
        sep, idx = _token(text, idx, ",}")
    if _space(text, idx).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, idx)
    key = "permutations" if "permutations" in samples else "matrices"
    got = samples.get(key, ValueError(NO_SAMPLES))
    if isinstance(got, ValueError):
        raise got
    parts, count = got
    _fits(header, key == "permutations", f'JSON "{key}"')
    shape = parts[0][0] if parts else ()
    flat = np.concatenate([array for _, array in parts]) if parts else np.empty(0)
    if key == "matrices":
        flat, shape = flat.view(complex), shape[:2]
    return header, _stack(header, flat.reshape(count, *shape))


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
    _fits(meta, kind == "permutation", f"CSV kind={kind}")
    if kind == "permutation":
        stack = _stack(meta, np.array([line.split(",") for line in lines[1:]
                                       if line.strip()]).astype(np.int64))
    else:
        cols = np.array([[line.split(",") for line in block] for blank, block
                         in groupby(lines[1:], lambda line: not line.strip()) if not blank],
                        dtype=float)
        stack = _stack(meta, cols.astype(complex) if kind == "real" else cols.view(complex))
    if "count" in meta and int(meta["count"]) != len(stack):
        raise ValueError(f"count={meta['count']} contradicts the {len(stack)} samples read")
    return meta, stack
