"""Property tests of ``haar-forge sample`` and ``haar-forge spectra`` over
small requests.

Every (group, method, n, count, streams, format) with n <= 6, count <= 5
and streams <= 3, valid or not, goes through ``cli.main`` into a file.
Only exit 0 (a valid request) and exit 2 (an option out of range or a pair
not in ``SAMPLERS``) may occur, and a written file must read back
``tobytes()``-equal to ``sample_batch`` of the same request.  ``spectra``
gets (method, n, count, streams, format) over the same ranges: exit 0
writes a header that states the request and n * count phases in
[0, 2 pi) that read back ``tobytes()``-equal to ``eigenphases_batch`` of
the same lanes' draw, exit 2 writes no file.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from haarforge import cli, fileio
from haarforge.linalg import eigenphases_batch
from haarforge.randstream import RandomStream
from haarforge.samplers import GROUP_TAGS, SAMPLERS, sample_batch, so_euler_batch
from haarforge.spectra import cmv_batch, hessenberg_batch

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

METHODS = list(dict.fromkeys(method for _, method in SAMPLERS))


# mostly table pairs, so that most requests are drawn and read back
PAIRS = st.one_of(st.sampled_from(list(SAMPLERS)),
                  st.tuples(st.sampled_from(GROUP_TAGS), st.sampled_from(METHODS)))


@hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
@hypothesis.given(pair=PAIRS, n=st.integers(0, 6), count=st.integers(0, 5),
                  streams=st.integers(0, 3), seed=st.integers(0, 2 ** 32),
                  fmt=st.sampled_from(["json", "csv"]))
def test_sample_exits_0_or_2_and_reads_back_bit_exact(pair, n, count, streams, seed, fmt):
    group, method = pair
    valid = (group, method) in SAMPLERS and min(n, count, streams) >= 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"sample.{fmt}"
        code = cli.main(["sample", "--group", group, "--method", method, "--n", str(n),
                         "--count", str(count), "--streams", str(streams),
                         "--seed", str(seed), "--format", fmt, "--out", str(path)])
        assert code == (cli.EXIT_OK if valid else cli.EXIT_USAGE)
        if not valid:
            assert not path.exists()
            return
        read = fileio.json_to_matrices if fmt == "json" else fileio.csv_to_matrices
        _, back = read(path.read_text(encoding="utf-8"))
    want = sample_batch(group, n, count, method=method, seed=seed, streams=streams)
    if SAMPLERS[(group, method)].kind != "permutation":
        want = np.asarray(want, dtype=complex)
    assert back.dtype == want.dtype and back.shape == want.shape
    assert back.tobytes() == want.tobytes()


SPECTRA_METHODS = ["euler", "full", "hessenberg", "cmv"]


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(method=st.sampled_from(SPECTRA_METHODS + ["qr"]), n=st.integers(0, 6),
                  count=st.integers(0, 5), streams=st.integers(0, 3),
                  seed=st.integers(0, 2 ** 32), fmt=st.sampled_from(["json", "csv"]))
def test_spectra_exits_0_or_2_and_writes_phases_in_range(method, n, count, streams, seed, fmt):
    valid = method in SPECTRA_METHODS and n >= 2 and min(count, streams) >= 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"spectra.{fmt}"
        code = cli.main(["spectra", "--method", method, "--n", str(n), "--count", str(count),
                         "--streams", str(streams), "--seed", str(seed), "--format", fmt,
                         "--out", str(path)])
        assert code == (cli.EXIT_OK if valid else cli.EXIT_USAGE)
        if not valid:
            assert not path.exists()
            return
        text = path.read_text(encoding="utf-8")
    model = "euler" if method == "full" else method
    if fmt == "json":
        payload = json.loads(text)
        header = {key: payload[key] for key in ("n", "method", "seed", "count")}
        phases = np.array(payload["phases"], dtype=float)
    else:
        head, *rows = text.splitlines()
        assert head.startswith("# haar-forge spectra ")
        header = dict(tok.partition("=")[::2] for tok in head.split()[3:])
        header = {**header, **{key: int(header[key]) for key in ("n", "seed", "count")}}
        phases = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert phases.shape == (count, n)
    assert header == {"n": n, "method": model, "seed": seed, "count": count}
    # the same lanes' draw, concatenated in lane order, and its eigenphases
    draw = {"euler": so_euler_batch, "hessenberg": hessenberg_batch, "cmv": cmv_batch}[model]
    lanes = np.array_split(np.arange(count), min(count, streams))
    mats = np.concatenate([draw(RandomStream(seed, lane), n, len(idx))
                           for lane, idx in enumerate(lanes)])
    assert phases.ravel().tobytes() == eigenphases_batch(mats).tobytes()
    assert ((0.0 <= phases) & (phases < 2.0 * np.pi)).all()
