"""Stable matrix serialization for the CLI: JSON and CSV.

Each matrix format is one float view of the (B, n, n) sample stack, so the
real/complex choice is made once per array, never per entry:

* JSON ``"matrices"`` is the (B, n, n, 2) view of the stack as complex,
  i.e. lists of rows of [re, im] pairs whatever the kind;
* CSV holds one blank-line-separated block per matrix, one leading comment
  line of metadata, and the rows of the (B, n, n) real part (real kind) or
  of the (B, n, 2n) view with interleaved re/im columns (complex kind).

Floats are written with ``repr`` (the shortest decimal that round-trips a
double) and read back into the same views, so write-then-read reproduces
every entry bit for bit, signed zeros included; malformed matrix input,
and a JSON document that is not an object with "matrices" or
"permutations", raises ValueError.  Permutations are one one-line word per
row (JSON ``"permutations"``, CSV ``kind=permutation``), read back as
tuples.
"""

from __future__ import annotations

import json
from itertools import groupby

import numpy as np

from haarforge.samplers import DEFAULT_METHOD, SAMPLERS, GroupId


def _float_view(mats) -> np.ndarray:
    """(..., 2) float view of a stack taken as complex: [re, im] last."""
    c = np.ascontiguousarray(mats, dtype=complex)
    return c.view(float).reshape(c.shape + (2,))


def _stack(meta, mats: np.ndarray) -> np.ndarray:
    """mats, or if it is empty the (0, d, d) stack of the header's group and n."""
    if mats.size:
        return mats
    g = GroupId(meta.get("group"), int(meta.get("n") or 0))  # ValueError if either is missing
    d = SAMPLERS[(g.tag, DEFAULT_METHOD[g.tag])].matrix_dim(g.n)
    return np.empty((0, d, d), dtype=complex)


def matrices_to_json(group: str, n: int, method: str, seed: int,
                     mats: np.ndarray) -> str:
    return json.dumps({"group": group, "n": n, "method": method, "seed": seed,
                       "matrices": _float_view(mats).tolist()})


def json_to_matrices(text: str):
    payload = json.loads(text)
    if not isinstance(payload, dict) or not payload.keys() & {"matrices", "permutations"}:
        raise ValueError('JSON input must be an object with "matrices" or "permutations"')
    try:
        if "permutations" in payload:
            return payload, [tuple(p) for p in payload["permutations"]]
        pairs = np.array(payload["matrices"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed JSON matrices or permutations: {exc}") from None
    if pairs.size and (pairs.ndim != 4 or pairs.shape[-1] != 2):
        raise ValueError("JSON matrices must be lists of rows of [re, im] pairs")
    return payload, _stack(payload, pairs.view(complex).reshape(pairs.shape[:3]))


def permutations_to_json(n: int, method: str, seed: int, words) -> str:
    return json.dumps({"group": "sn", "n": n, "method": method, "seed": seed,
                       "permutations": [list(w) for w in words]})


def matrices_to_csv(group: str, n: int, method: str, seed: int,
                    mats: np.ndarray, kind: str) -> str:
    mats = np.asarray(mats)
    cols = mats.real if kind == "real" else _float_view(mats).reshape(
        mats.shape[:-1] + (2 * mats.shape[-1],))
    lines = [f"# haar-forge group={group} n={n} method={method} seed={seed} "
             f"kind={kind} count={len(mats)}"]
    for idx, m in enumerate(cols):
        if idx:
            lines.append("")
        lines.extend(",".join(map(repr, row)) for row in m.tolist())
    return "\n".join(lines) + "\n"


def csv_to_matrices(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# haar-forge"):
        raise ValueError("missing haar-forge CSV header")
    meta = dict(tok.partition("=")[::2]
                for tok in lines[0].removeprefix("# haar-forge").split())
    kind = meta.get("kind", "complex")
    if kind == "permutation":
        return meta, [tuple(map(int, line.split(",")))
                      for line in lines[1:] if line.strip()]
    cols = np.array([[line.split(",") for line in block] for blank, block
                     in groupby(lines[1:], lambda line: not line.strip()) if not blank],
                    dtype=float)
    return meta, _stack(meta, cols.astype(complex) if kind == "real" else cols.view(complex))


def permutations_to_csv(n: int, method: str, seed: int, words) -> str:
    lines = [f"# haar-forge group=sn n={n} method={method} seed={seed} "
             f"kind=permutation count={len(words)}"]
    lines.extend(",".join(map(str, w)) for w in words)
    return "\n".join(lines) + "\n"
