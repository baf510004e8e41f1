"""Byte pins and malformed-input checks for the JSON and CSV formats.

The digests were taken from the per-entry writers that preceded the
stack-view ones; read-back must reproduce the written stack bit for bit as
a complex array (imaginary parts +0.0 for the real kinds).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from haarforge import cli, fileio
from haarforge.linalg import CHUNK_BYTES
from haarforge.samplers import SAMPLERS, sample_batch

CASES = [(2, 3, 41, 1), (5, 4, 43, 2)]  # (n, count, seed, streams)

TEXT_DIGESTS = {  # SHA-256 of the writer's text
    ("so", "euler", (2, 3, 41, 1), "json"): "52f5264a5e86f5827608769117a3d427fd88d76f02b76239984d92c9314d619e",
    ("so", "euler", (2, 3, 41, 1), "csv"): "bdac9ffd9f5ba5ed34a34e1b354da9ca66a5a7356c0f2bb5dd3f547c34c8ad60",
    ("so", "euler", (5, 4, 43, 2), "json"): "300df5420af25b3df294ef9cc6531727b2d2e38bab4a5ac1f4f6e8bff455932e",
    ("so", "euler", (5, 4, 43, 2), "csv"): "58a4435d2703aaaacca5af7e7955c3baa55071963f1473d8724467221a028218",
    ("o", "euler", (2, 3, 41, 1), "json"): "eb656fe1b7cd6644aff9abf0689ff9c9e99cdebd3ac24eee1e932abf02f66c66",
    ("o", "euler", (2, 3, 41, 1), "csv"): "e64075373ac2eca8e405df9afafb85102c42b9fbdb9b509f5bd7584da2196a4a",
    ("o", "euler", (5, 4, 43, 2), "json"): "d6fc6e80c38d4e0b59d87f707250dd6c3262298dfe7b29440fbd96e325db7848",
    ("o", "euler", (5, 4, 43, 2), "csv"): "8b3b5157f1aa668c9c4ecd640ba402a2ef88407bf82a634f8e591a8cebacf3a9",
    ("o", "qr", (2, 3, 41, 1), "json"): "9b9c964ac7edf3d57b8547a13a5b198e30ab01063c7a2ddedf5259bb309fb35d",
    ("o", "qr", (2, 3, 41, 1), "csv"): "9d99f1f51fd4eed2bd44182a630fba76655ebe5bd51c22453a703a4539a21a24",
    ("o", "qr", (5, 4, 43, 2), "json"): "1925bca877bdb698a4b32e824cb871b74493321900c0bec42ad91c170a35cb57",
    ("o", "qr", (5, 4, 43, 2), "csv"): "b1b1112f8f9f7859f59c00369c9076ab2199c2de1f2bf69ee91a6c0e89cadbf3",
    ("o", "householder", (2, 3, 41, 1), "json"): "919034569c6878a7fa6e5e970d2d8ffb9fbe0ad0ea36ce452438d84727e13154",
    ("o", "householder", (2, 3, 41, 1), "csv"): "791a0bc7b388a75e6d5f9ef5a56daac0e29368be35526bf1140154810c8a5ddb",
    ("o", "householder", (5, 4, 43, 2), "json"): "08c868061d1721512eabccfcefba0bb428c868054397076569a5403ef3ee5934",
    ("o", "householder", (5, 4, 43, 2), "csv"): "90463e9a53e4de94758e253f2b90fe93ac57544ccd925cd701b5fc899f9d6786",
    ("u", "euler", (2, 3, 41, 1), "json"): "0bb0fa4b0254fd7f15eac547a6888660211b8094e2dc46cdbe881e6a46fe75a9",
    ("u", "euler", (2, 3, 41, 1), "csv"): "c4def9c99240974549c3b8a78828e44e5f7284a40bc6b70de7bf143a2419ec20",
    ("u", "euler", (5, 4, 43, 2), "json"): "61160bc72c635b274ea49fdf35de0cb2eea1d8eb124fd87b16ed9bdd666fe7a0",
    ("u", "euler", (5, 4, 43, 2), "csv"): "2f1add571fe234392839a7b1f12bacd083f4dca9be54ac365c7acbca34dcac72",
    ("u", "qr", (2, 3, 41, 1), "json"): "1df32ab5d847f7c0cd3f0e5eb78c6bfdd5ed16f157865f22e67400d172876bbf",
    ("u", "qr", (2, 3, 41, 1), "csv"): "a67bd3a7d574e82d08e776b045a160fab11cec166f0c2b4a0901cde4537bec03",
    ("u", "qr", (5, 4, 43, 2), "json"): "a6d508aec0246bf3a19dc16857177461ad2b2d7bf6728e763d71c290e3f60231",
    ("u", "qr", (5, 4, 43, 2), "csv"): "f34fa9aaf973601a13ba61c1ced9ab5e2f8b436992a678e0571691b7117edb33",
    ("u", "householder", (2, 3, 41, 1), "json"): "30490ec1721194020b36280d5d08b2154413bb0d51dec2ab87b42014655b2d1d",
    ("u", "householder", (2, 3, 41, 1), "csv"): "bd95c82fd7c0412e068e1713370ec51901de2d67e42c0839714659c3692f1675",
    ("u", "householder", (5, 4, 43, 2), "json"): "f43074a60f310c91747430c017a4a11059a87fe62295a451a850d95f55eccc1a",
    ("u", "householder", (5, 4, 43, 2), "csv"): "f3bce191ee4a26e07f0f478a9afd74e727a6170ac2cd4d3cb02032e482e24e09",
    ("sp", "euler", (2, 3, 41, 1), "json"): "76ad2c5eec1544599219d3693693267f20271c65b4a8d4e2dec35e95f2336ac2",
    ("sp", "euler", (2, 3, 41, 1), "csv"): "aa4a557f4de37edef4d5d2f4a94ef33a008f3403c71dda946f14c3f9d8b66496",
    ("sp", "euler", (5, 4, 43, 2), "json"): "d7f19ff14343b07da88158a786e4d3c519ce4a79fe63b14674e69891a70bb9a2",
    ("sp", "euler", (5, 4, 43, 2), "csv"): "6cac9237fc5fdd222f163c18d26205ad063872404876f7ca5493fc57e4f3c3af",
    ("sn", "bubble", (2, 3, 41, 1), "json"): "c69480d3548ede7f9a06e5015549236a8efac20fbbe2023282dfcd1aa0285fc9",
    ("sn", "bubble", (2, 3, 41, 1), "csv"): "c4889ed9be6ca4578ab4588dcfc03d9375ed0145eb065c78d60079f20e977754",
    ("sn", "bubble", (5, 4, 43, 2), "json"): "0c0c2e662486788a5da7dc0f8ad8d732dad9b85946ddfe9736755246c6a5a11f",
    ("sn", "bubble", (5, 4, 43, 2), "csv"): "0348c360e92c4c917fefd10e3b7e51ad1e1a04c94fd4d3573698b5361546f893",
}


def _write(group, method, case, fmt):
    n, count, seed, streams = case
    got = sample_batch(group, n, count, method=method, seed=seed, streams=streams)
    write = fileio.matrices_to_json if fmt == "json" else fileio.matrices_to_csv
    return got, SAMPLERS[(group, method)].kind, write(group, n, method, seed, got)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"n{c[0]}-count{c[1]}")
@pytest.mark.parametrize("pair", list(SAMPLERS), ids="/".join)
def test_text_pinned_and_read_back_bit_exact(pair, case, fmt):
    got, kind, text = _write(*pair, case, fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_DIGESTS[(*pair, case, fmt)]
    reader = fileio.json_to_matrices if fmt == "json" else fileio.csv_to_matrices
    _, back = reader(text)
    if kind == "permutation":
        assert back.dtype == np.int64 and back.shape == got.shape
        assert back.tobytes() == got.tobytes()
    else:
        assert back.dtype == complex and back.shape == got.shape
        assert back.tobytes() == np.asarray(got, dtype=complex).tobytes()


REAL_ZEROS = np.array([[[-0.0, 0.0], [1.5, -0.0]]])
COMPLEX_ZEROS = np.array([[[complex(-0.0, -0.0), complex(0.0, -0.0)],
                           [complex(-0.0, 0.0), complex(-1.0, -0.0)]]])
SIGNED_ZERO_TEXT = {
    ("real", "json"): '{"group": "so", "n": 2, "method": "euler", "seed": 0, "matrices": '
                      '[[[[-0.0, 0.0], [0.0, 0.0]], [[1.5, 0.0], [-0.0, 0.0]]]]}',
    ("real", "csv"): "# haar-forge group=so n=2 method=euler seed=0 kind=real count=1\n"
                     "-0.0,0.0\n1.5,-0.0\n",
    ("complex", "json"): '{"group": "u", "n": 2, "method": "qr", "seed": 0, "matrices": '
                         '[[[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [-1.0, -0.0]]]]}',
    ("complex", "csv"): "# haar-forge group=u n=2 method=qr seed=0 kind=complex count=1\n"
                        "-0.0,-0.0,0.0,-0.0\n-0.0,0.0,-1.0,-0.0\n",
}


@pytest.mark.parametrize("kind,fmt", list(SIGNED_ZERO_TEXT))
def test_signed_zeros_survive_write_and_read(kind, fmt):
    mats, group, method = ((REAL_ZEROS, "so", "euler") if kind == "real"
                           else (COMPLEX_ZEROS, "u", "qr"))
    if fmt == "json":
        text = fileio.matrices_to_json(group, 2, method, 0, mats)
        _, back = fileio.json_to_matrices(text)
    else:
        text = fileio.matrices_to_csv(group, 2, method, 0, mats)
        _, back = fileio.csv_to_matrices(text)
    assert text == SIGNED_ZERO_TEXT[(kind, fmt)]
    assert back.tobytes() == np.asarray(mats, dtype=complex).tobytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("group,method,n,d,kind", [
    ("so", "euler", 3, 3, "real"), ("u", "qr", 2, 2, "complex"), ("sp", "euler", 2, 4, "complex"),
])
def test_empty_stack_keeps_its_shape(group, method, n, d, kind, fmt):
    mats = np.empty((0, d, d), dtype=float if kind == "real" else complex)
    if fmt == "json":
        _, back = fileio.json_to_matrices(fileio.matrices_to_json(group, n, method, 0, mats))
    else:
        _, back = fileio.csv_to_matrices(
            fileio.matrices_to_csv(group, n, method, 0, mats))
    assert back.shape == (0, d, d) and back.dtype == complex


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_permutation_file_reads_as_empty_int64_stack(fmt):
    write = fileio.matrices_to_json if fmt == "json" else fileio.matrices_to_csv
    read = fileio.json_to_matrices if fmt == "json" else fileio.csv_to_matrices
    _, back = read(write("sn", 4, "bubble", 0, np.empty((0, 4), dtype=np.int64)))
    assert back.shape == (0, 4) and back.dtype == np.int64


@pytest.mark.parametrize("write", [fileio.matrices_to_json, fileio.matrices_to_csv])
@pytest.mark.parametrize("group,method", [("so", "qr"), ("sn", "euler"), ("x", "euler")])
def test_writer_refuses_a_pair_outside_the_table(write, group, method):
    with pytest.raises(ValueError):
        write(group, 2, method, 0, np.eye(2)[None])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("pair", list(SAMPLERS), ids="/".join)
def test_writers_refuse_what_the_readers_refuse(pair, fmt):
    group, method = pair
    kind = SAMPLERS[pair].kind
    write, read = ((fileio.matrices_to_json, fileio.json_to_matrices) if fmt == "json"
                   else (fileio.matrices_to_csv, fileio.csv_to_matrices))
    stack = sample_batch(group, 2, 3, method=method, seed=7)
    _, back = read(write(group, 2, method, 7, stack))
    want = stack if kind == "permutation" else np.asarray(stack, dtype=complex)
    assert back.dtype == want.dtype and back.tobytes() == want.tobytes()
    # 2x2 matrices, or words of length 2, under a header that says n = 3
    with pytest.raises(ValueError, match="contradict"):
        write(group, 3, method, 7, stack)
    for bad in (stack[0], stack[..., :1], stack[None]):
        with pytest.raises(ValueError, match="contradict"):
            write(group, 2, method, 7, bad)
    if kind == "real":
        with pytest.raises(ValueError, match="imaginary"):
            write(group, 2, method, 7, stack + 1e-300j)
        # the kind, not the dtype, makes the text: -0.0 imaginary parts are zeros
        signed = stack.astype(complex)
        signed.imag = -0.0
        assert write(group, 2, method, 7, signed) == write(group, 2, method, 7, stack)
    if kind == "permutation":
        for words in (stack[:, ::-1] * [1, 2], stack.astype(float)):
            with pytest.raises(ValueError, match="permutation of 1..n"):
                write(group, 2, method, 7, words)
    for n in (2.0, True, "2", 0):
        with pytest.raises(ValueError, match="integer >= 1"):
            write(group, n, method, 7, stack)


@pytest.mark.parametrize("n", [2.7, True])
def test_json_header_n_must_be_an_int(n):
    for group, key, samples in (("so", "matrices", [[[[1.0, 0.0], [0.0, 0.0]],
                                                     [[0.0, 0.0], [1.0, 0.0]]]]),
                                ("sn", "permutations", [[2, 1]])):
        text = json.dumps({"group": group, "n": n, "method": None, "seed": 0, key: samples})
        if n is True:  # n = true read as n = 1: one-entry samples matched it
            text = text.replace("[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]",
                                "[[[[1.0, 0.0]]]]").replace("[[2, 1]]", "[[1]]")
        with pytest.raises(ValueError, match="integer >= 1"):
            fileio.json_to_matrices(text)


MALFORMED_WORDS = {  # rows of n = 3 that are not a (B, 3) stack of permutations of 1..3
    "ragged-rows": [[1, 2, 3], [1, 2]],
    "float-entry": [[1.5, 2, 3]],
    "repeated-entry": [[1, 1, 3]],
    "one-d-list": [1, 2, 3],
}


@pytest.mark.parametrize("words", list(MALFORMED_WORDS.values()), ids=list(MALFORMED_WORDS))
def test_malformed_permutations_raise_value_error(words):
    with pytest.raises(ValueError):
        fileio.json_to_matrices(json.dumps({"group": "sn", "n": 3, "method": "bubble",
                                            "seed": 0, "permutations": words}))
    # the CSV holds one word per line, a 1-d list one entry per line
    rows = [w if isinstance(w, list) else [w] for w in words]
    with pytest.raises(ValueError):
        fileio.csv_to_matrices("# haar-forge group=sn n=3 method=bubble seed=0 "
                               f"kind=permutation count={len(rows)}\n"
                               + "".join(",".join(map(str, r)) + "\n" for r in rows))


@pytest.mark.parametrize("read,text", [
    (fileio.json_to_matrices, '{"group": "so", "method": "euler", "seed": 0, "matrices": []}'),
    (fileio.json_to_matrices, '{"n": 2, "method": "euler", "seed": 0, "matrices": []}'),
    (fileio.json_to_matrices, '{"group": "so", "n": null, "method": "euler", "matrices": []}'),
    (fileio.csv_to_matrices, "# haar-forge group=so method=euler seed=0 kind=real count=0\n"),
    (fileio.csv_to_matrices, "# haar-forge n=2 method=euler seed=0 kind=real count=0\n"),
], ids=["json-no-n", "json-no-group", "json-null-n", "csv-no-n", "csv-no-group"])
def test_empty_stack_without_group_or_n_raises_value_error(read, text):
    with pytest.raises(ValueError):
        read(text)


HEADER = "# haar-forge group=u n=2 method=qr seed=0 kind={} count=2\n"


@pytest.mark.parametrize("text", [
    HEADER.format("complex") + "1.0,0.0,2.0\n3.0,0.0,4.0\n",
    HEADER.format("real") + "1.0,2.0\n3.0\n",
    HEADER.format("real") + "1.0,2.0\n3.0,4.0\n\n1.0,2.0\n",
    HEADER.format("real") + "1.0,x\n3.0,4.0\n",
    HEADER.format("real") + "1.0,2.0,3.0\n4.0,5.0,6.0\n",
    HEADER.format("weird") + "1.0,2.0\n3.0,4.0\n",
], ids=["odd-columns", "ragged-rows", "ragged-blocks", "not-a-number", "not-square",
        "unknown-kind"])
def test_malformed_csv_raises_value_error(text):
    with pytest.raises(ValueError):
        fileio.csv_to_matrices(text)


@pytest.mark.parametrize("matrices", [
    [[[1.0, 2.0], [3.0, 4.0]]],
    [[[[1.0, 0.0], [2.0, 0.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]]]],
    [[[[1.0, 0.0, 5.0], [2.0, 0.0, 6.0]], [[3.0, 0.0, 7.0], [4.0, 0.0, 8.0]]]],
    [[[[1.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]]]],
    [[[[1.0, 0.0]]], [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]]]],
    [[[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [[4.0, 0.0], [5.0, 0.0], [6.0, 0.0]]]],
    [[[[None, 0.0]]]],
    [[[[0.0, True]]]],
    [[[[False, 0.0]]]],
    [[[["1.5", 0.0]]]],
    [[[[1.0, 0.0], [0.0, None]], [[0.0, 0.0], [1.0, 0.0]]]],
    [[[[10 ** 400, 0.0]]]],
], ids=["bare-floats", "one-triple", "all-triples", "ragged-rows", "ragged-matrices",
        "not-square", "null-entry", "true-entry", "false-entry", "string-entry",
        "null-among-numbers", "int-beyond-float"])
def test_malformed_json_raises_value_error(matrices):
    text = json.dumps({"group": "u", "n": 2, "method": "qr", "seed": 0,
                       "matrices": matrices})
    with pytest.raises(ValueError):
        fileio.json_to_matrices(text)


@pytest.mark.parametrize("text", [
    "{}",
    "[1, 2]",
    '"x"',
    '["permutations"]',
    '{"group": "u", "n": 2, "method": "qr", "seed": 0}',
    '{"group": "sn", "n": 2, "permutations": 5}',
    '{"group": "sn", "n": 2, "permutations": [1, 2]}',
    '{"group": "sn", "n": 2, "permutations": [["1", "2"]]}',
    '{"group": "u", "n": 2, "matrices": {"re": 1.0}}',
], ids=["empty-object", "array", "string", "array-naming-a-key", "neither-key",
        "permutations-not-a-list", "permutations-not-words", "permutations-of-strings",
        "matrices-an-object"])
def test_malformed_json_document_raises_value_error(text):
    with pytest.raises(ValueError):
        fileio.json_to_matrices(text)


def _old_json(group, n, method, seed, stack):
    """The one-document writer the chunked one replaced: json.dumps of the
    whole (B, n, n, 2) [re, im] list, or of the (B, n) words."""
    stack = np.asarray(stack)
    if SAMPLERS[(group, method)].kind == "permutation":
        key, body = "permutations", stack.tolist()
    else:
        c = np.ascontiguousarray(stack, dtype=complex)
        key, body = "matrices", c.view(float).reshape(c.shape + (2,)).tolist()
    return json.dumps({"group": group, "n": n, "method": method, "seed": seed, key: body})


def _old_csv(group, n, method, seed, stack):
    """The one-string CSV writer the chunked one replaced: repr per entry,
    row by row."""
    kind = SAMPLERS[(group, method)].kind
    stack = np.asarray(stack)
    if kind == "complex":
        c = np.ascontiguousarray(stack, dtype=complex)
        blocks = c.view(float).reshape(c.shape[:-1] + (2 * c.shape[-1],))
    else:
        blocks = [stack] if kind == "permutation" else stack.real
    lines = [f"# haar-forge group={group} n={n} method={method} seed={seed} "
             f"kind={kind} count={len(stack)}"]
    for idx, block in enumerate(blocks):
        if idx:
            lines.append("")
        lines.extend(",".join(map(repr, row)) for row in block.tolist())
    return "\n".join(lines) + "\n"


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e-04, -1e-04, 1e16, -1e16, 1e22,
           0.1, -2.5, 1.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_writers_equal_the_one_document_form_on_special_floats(kind):
    rng = np.random.default_rng(19)
    vals = np.array(SPECIAL * 4)
    if kind == "real":
        group, method, stack = "so", "euler", rng.permutation(vals).reshape(4, 4, 4)
    else:
        group, method, stack = "u", "qr", np.empty((4, 4, 4), dtype=complex)
        stack.real, stack.imag = (rng.permutation(vals).reshape(4, 4, 4) for _ in "ri")
    assert fileio.matrices_to_json(group, 4, method, 3, stack) == _old_json(group, 4, method, 3, stack)
    assert fileio.matrices_to_csv(group, 4, method, 3, stack) == _old_csv(group, 4, method, 3, stack)
    finite = np.where(np.isfinite(stack), stack, 0.5)
    for write, read in ((fileio.matrices_to_json, fileio.json_to_matrices),
                        (fileio.matrices_to_csv, fileio.csv_to_matrices)):
        _, back = read(write(group, 4, method, 3, finite))
        assert back.tobytes() == np.asarray(finite, dtype=complex).tobytes()


def _batch_sizes(step):
    """0, 1, one chunk -1/0/+1 and 2.5 chunks, for chunks of ``step`` items."""
    return [0, 1, step - 1, step, step + 1, 5 * step // 2]


CHUNKED = {  # (group, method, n) -> items per chunk of ``linalg._chunks``
    ("so", "euler", 16): CHUNK_BYTES // (16 * 16 * 8),
    ("u", "qr", 8): CHUNK_BYTES // (8 * 8 * 16),
    ("sn", "bubble", 16): CHUNK_BYTES // (16 * 8),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("spec,count", [(spec, count) for spec, step in CHUNKED.items()
                                        for count in _batch_sizes(step)],
                         ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_chunked_text_equals_one_document_across_chunk_boundaries(spec, count, fmt):
    group, method, n = spec
    step = CHUNKED[spec]
    assert -(-count // 8) <= step  # the byte budget, not an eighth of the batch, sets the chunk
    rng = np.random.default_rng(count)
    if group == "sn":
        stack = np.argsort(rng.random((count, n)), axis=1).astype(np.int64) + 1
    elif group == "u":
        stack = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    else:
        stack = rng.standard_normal((count, n, n))
    chunks = fileio.json_chunks if fmt == "json" else fileio.csv_chunks
    old = _old_json if fmt == "json" else _old_csv
    pieces = list(chunks(group, n, method, 5, stack))
    assert len(pieces) == 1 + -(-count // step) + (fmt == "json")  # header, chunks, "]}"
    assert "".join(pieces) == old(group, n, method, 5, stack)
    read = fileio.json_to_matrices if fmt == "json" else fileio.csv_to_matrices
    _, back = read("".join(pieces))
    want = stack if group == "sn" else np.asarray(stack, dtype=complex)
    assert back.shape == want.shape and back.tobytes() == want.tobytes()


def test_writing_a_large_real_stack_holds_a_batch_chunk_not_the_text(traced_peak, tmp_path):
    # (4000, 16, 16) float64 is 8.2 MB; the one-document writer's [re, im]
    # lists and text peaked near 24x that
    stack_bytes = 4000 * 16 * 16 * 8
    argv = ["sample", "--group", "so", "--n", "16", "--count", "4000",
            "--out", str(tmp_path / "large.json")]
    assert traced_peak(lambda: cli.main(argv)) <= 4 * stack_bytes


def test_json_integers_read_as_floats():
    text = json.dumps({"group": "u", "n": 1, "method": "qr", "seed": 0,
                       "matrices": [[[[1, -2]]], [[[0, 3.5]]]]})
    _, back = fileio.json_to_matrices(text)
    assert back.tobytes() == np.array([[[1 - 2j]], [[3.5j]]]).tobytes()


def _old_phases(fmt, n, method, seed, count, phases):
    """The one-string spectra formatter the chunked writer replaced: json.dumps
    of the flat phase list, or repr per phase, one row of n per matrix."""
    phases = np.asarray(phases).ravel().tolist()
    if fmt == "json":
        return json.dumps({"n": n, "method": method, "seed": seed, "count": count,
                           "phases": phases})
    lines = [f"# haar-forge spectra n={n} method={method} seed={seed} count={count}"]
    for i in range(0, len(phases), n):
        lines.append(",".join(repr(p) for p in phases[i:i + n]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n,count", [(2, c) for c in _batch_sizes(CHUNK_BYTES // 16)]
                         + [(4, 4), (5, 3)])
def test_phase_text_equals_the_one_string_form(n, count, fmt):
    # special floats at the small sizes, random phases across chunk boundaries
    vals = np.array(SPECIAL * 2)[:n * count] if n * count <= 2 * len(SPECIAL) else (
        np.random.default_rng(count).random(n * count) * 2.0 * math.pi)
    phases = vals.reshape(count, n)
    pieces = list(fileio.phase_chunks(fmt, n, "cmv", 7, count, phases))
    assert "" not in pieces  # an empty piece would end the text without its last "\n"
    assert "".join(pieces) == _old_phases(fmt, n, "cmv", 7, count, phases)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writing_a_phase_stack_holds_a_batch_chunk_not_the_text(traced_peak, tmp_path, fmt):
    # (131072, 2) float64 is 2.1 MB, four batch chunks; the one-string form
    # peaked near 9x (JSON) and 14x (CSV) that
    phases = np.random.default_rng(3).random((131072, 2)) * 2.0 * math.pi
    pieces = fileio.phase_chunks(fmt, 2, "hessenberg", 0, len(phases), phases)
    path = str(tmp_path / f"phases.{fmt}")
    assert traced_peak(lambda: cli._write_out(pieces, path)) <= 4 * phases.nbytes


@pytest.mark.parametrize("count", [262144, 524288])
def test_phase_writer_peak_is_one_bound_at_any_stack_size(traced_peak, tmp_path, count):
    # the writers cut CHUNK_BYTES of samples per chunk, with no eighth-of-
    # the-batch term, so the text held at once does not grow with the stack:
    # 4.2 MB and 8.4 MB stacks both peak near 5.6 MB, about 11 CHUNK_BYTES
    # (an eighth of the larger one peaked at 11 MB)
    phases = np.random.default_rng(5).random((count, 2)) * 2.0 * math.pi
    pieces = fileio.phase_chunks("csv", 2, "cmv", 0, count, phases)
    path = str(tmp_path / "phases.csv")
    assert traced_peak(lambda: cli._write_out(pieces, path)) <= 16 * CHUNK_BYTES


@pytest.mark.parametrize("group,method", [("so", "euler"), ("u", "qr"), ("sn", "bubble")])
def test_csv_cut_at_a_sample_boundary_raises_value_error(group, method):
    stack = sample_batch(group, 3, 4, method=method, seed=1)
    fileio.csv_to_matrices(fileio.matrices_to_csv(group, 3, method, 1, stack))
    cut = fileio.matrices_to_csv(group, 3, method, 1, stack[:2]).replace("count=2", "count=4")
    with pytest.raises(ValueError, match="count=4"):
        fileio.csv_to_matrices(cut)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("group,method", [("so", "euler"), ("sp", "euler"), ("sn", "bubble")])
def test_samples_contradicting_the_header_n_raise_value_error(group, method, fmt):
    stack = sample_batch(group, 3, 2, method=method, seed=1)
    write, read, field = ((fileio.matrices_to_json, fileio.json_to_matrices, '"n": {}')
                          if fmt == "json" else
                          (fileio.matrices_to_csv, fileio.csv_to_matrices, "n={}"))
    text = write(group, 3, method, 1, stack)
    read(text)
    with pytest.raises(ValueError, match="contradict"):
        read(text.replace(field.format(3), field.format(2), 1))
