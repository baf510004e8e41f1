"""Stable matrix serialization for the CLI: JSON and CSV.

Floating-point values are written with ``repr`` (shortest decimal that
round-trips a double exactly), so write-then-read reproduces entries bit
for bit.  JSON matrices are lists of rows of [re, im] pairs regardless of
kind; CSV uses plain columns for real matrices and interleaved re/im
columns for complex ones, one blank-line-separated block per matrix, with
one leading comment line of metadata.  Permutations are one one-line
word per row (JSON ``"permutations"``, CSV ``kind=permutation``); both
readers return them as a list of tuples.
"""

from __future__ import annotations

import json

import numpy as np


def matrices_to_json(group: str, n: int, method: str, seed: int,
                     mats: np.ndarray) -> str:
    mats = np.asarray(mats)
    payload = {
        "group": group,
        "n": n,
        "method": method,
        "seed": seed,
        "matrices": [
            [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]
            for m in mats
        ],
    }
    return json.dumps(payload)


def json_to_matrices(text: str):
    payload = json.loads(text)
    if "permutations" in payload:
        return payload, [tuple(p) for p in payload["permutations"]]
    mats = np.array(
        [[[complex(re, im) for re, im in row] for row in m]
         for m in payload["matrices"]],
        dtype=complex,
    )
    return payload, mats


def permutations_to_json(n: int, method: str, seed: int, words) -> str:
    return json.dumps({
        "group": "sn",
        "n": n,
        "method": method,
        "seed": seed,
        "permutations": [list(w) for w in words],
    })


def matrices_to_csv(group: str, n: int, method: str, seed: int,
                    mats: np.ndarray, kind: str) -> str:
    mats = np.asarray(mats)
    lines = [f"# haar-forge group={group} n={n} method={method} seed={seed} "
             f"kind={kind} count={len(mats)}"]
    for idx, m in enumerate(mats):
        if idx:
            lines.append("")
        for row in m:
            if kind == "real":
                lines.append(",".join(repr(float(np.real(x))) for x in row))
            else:
                cells = []
                for x in row:
                    cells.append(repr(float(np.real(x))))
                    cells.append(repr(float(np.imag(x))))
                lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def csv_to_matrices(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# haar-forge"):
        raise ValueError("missing haar-forge CSV header")
    meta = {}
    for token in lines[0].removeprefix("# haar-forge").split():
        key, _, val = token.partition("=")
        meta[key] = val
    kind = meta.get("kind", "complex")
    if kind == "permutation":
        return meta, [tuple(int(tok) for tok in line.split(","))
                      for line in lines[1:] if line.strip()]
    blocks, cur = [], []
    for line in lines[1:]:
        if not line.strip():
            if cur:
                blocks.append(cur)
                cur = []
            continue
        cur.append([float(tok) for tok in line.split(",")])
    if cur:
        blocks.append(cur)
    mats = []
    for block in blocks:
        rows = []
        for vals in block:
            if kind == "real":
                rows.append([complex(v, 0.0) for v in vals])
            else:
                rows.append([complex(vals[i], vals[i + 1])
                             for i in range(0, len(vals), 2)])
        mats.append(rows)
    return meta, np.array(mats, dtype=complex)


def permutations_to_csv(n: int, method: str, seed: int, words) -> str:
    lines = [f"# haar-forge group=sn n={n} method={method} seed={seed} "
             f"kind=permutation count={len(words)}"]
    for w in words:
        lines.append(",".join(str(int(x)) for x in w))
    return "\n".join(lines) + "\n"
