"""The batched composition kernel against the column-rotation oracle, and
pinned digests of sample_batch output.

The kernel reorders memory (batch-last, active rows only) but not
arithmetic, so every comparison here is on raw bytes.  The sample_batch
digests were taken from the all-rows (B, d, d) loop before the kernel
replaced it, except where the SO angle law changed its draw: the so/o
Euler pins for n >= 2 and the Hessenberg/CMV pins were retaken when
cos_theta_so moved from j + 1 Gaussians to one Gaussian and one gamma
variate per angle (the n = 1 pins draw no angle and stayed).  The COE/CSE
digests come from the three-operand einsum that CSE's Z^{-1} U^T Z
product used before it became two matmuls.  The draw-shape digests were
taken from the full-width Householder update and the running-minimum
bubble-sort composition, before either was restricted to the block or
prefix its factor moves, from the Sp cosets that still multiplied
q I q^dagger, and from the np.exp form of su2_block (oracles.su2) and the
Householder chain that applied the real reflector's sign at every step.
"""

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from haarforge import euler, linalg, samplers, spectra
from haarforge.randstream import RandomStream

import oracles

TWO_PI = 2.0 * np.pi
SIZES = [(n, batch) for n in (1, 2, 3, 8, 16) for batch in (1, 7, 64)]


def _rng(n, batch):
    return np.random.default_rng(1000 * n + batch)


def _so_theta(rng, n, batch):
    """Packed (P, batch) SO angles: theta_{1,k} on [0, 2 pi), the rest on [0, pi)."""
    hi = [TWO_PI if j == 1 else np.pi for j, _ in oracles.angle_pairs(n)]
    return rng.uniform(0.0, np.array(hi)[:, None], (len(hi), batch))


def _u_angles(rng, n, batch):
    """Packed (P, batch) phi on [0, pi/2) and psi on [0, 2 pi), (batch, n) alpha."""
    p = n * (n - 1) // 2
    return (rng.uniform(0.0, 0.5 * np.pi, (p, batch)), rng.uniform(0.0, TWO_PI, (p, batch)),
            rng.uniform(0.0, TWO_PI, (batch, n)))


def _su2(rng, shape):
    """SU(2) stacks of the given batch shape, phi on [0, pi/2)."""
    return oracles.su2(rng.uniform(0.0, 0.5 * np.pi, shape), rng.uniform(0.0, TWO_PI, shape),
                       rng.uniform(0.0, TWO_PI, shape))


def _sp_angles(rng, n, batch):
    """Packed (P, batch) rho and (P, batch, 2, 2) quaternions, (batch, n, 2, 2) lead."""
    p = n * (n - 1) // 2
    return rng.uniform(0.0, 0.5 * np.pi, (p, batch)), _su2(rng, (p, batch)), _su2(rng, (batch, n))


def _oracle_u(phi, psi, alpha, n):
    return oracles.column_rotation_u(oracles.angle_dict(phi), oracles.angle_dict(psi), alpha, n)


def _oracle_sp(rho, quat, lead, n):
    return oracles.column_rotation_sp(oracles.angle_dict(rho), oracles.angle_dict(quat), lead, n)


def _same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n,batch", SIZES)
def test_compose_so_batch_matches_oracle(n, batch):
    theta = _so_theta(_rng(n, batch), n, batch)
    want = oracles.column_rotation_so(oracles.angle_dict(theta), n, batch)
    _same_bytes(euler.compose_so_batch(theta), want)


@pytest.mark.parametrize("n,batch", SIZES)
def test_compose_u_batch_matches_oracle(n, batch):
    angles = _u_angles(_rng(n, batch), n, batch)
    _same_bytes(euler.compose_u_batch(*angles), _oracle_u(*angles, n))


@pytest.mark.parametrize("n,batch", SIZES)
def test_compose_sp_batch_matches_oracle(n, batch):
    angles = _sp_angles(_rng(n, batch), n, batch)
    got = euler.compose_sp_batch(*angles)
    _same_bytes(got, _oracle_sp(*angles, n))
    if n > 1:  # nested lists, as compose_so/u_batch take them (n = 1's empty lists lose B)
        _same_bytes(euler.compose_sp_batch(*(a.tolist() for a in angles)), got)


ORDERS = ([(n, name) for n in (1, 2, 3, 8, 16) for name in ("hessenberg", "cmv")]
          + [(n, "shuffle") for n in (6, 8, 16)])


@pytest.mark.parametrize("batch", (1, 7, 64))
@pytest.mark.parametrize("n,name", ORDERS)
def test_rotation_product_batch_matches_oracle(n, name, batch):
    order = {"hessenberg": spectra.hessenberg_order, "cmv": spectra.cmv_order,
             "shuffle": lambda n: [2, 4, 1, 5, 3]}[name](n)
    thetas = _rng(n, batch).uniform(0.0, np.pi, (batch, n - 1))
    want = oracles.rotation_product(thetas, order, n)
    _same_bytes(spectra.rotation_product_batch(thetas, order), want)


def test_batches_split_into_work_chunks_match_oracle():
    # each batch runs in chunks of linalg._chunks (an eighth of the batch
    # at these shapes), the last one short
    rng = np.random.default_rng(7)
    n, batch = 64, 130
    theta = _so_theta(rng, n, batch)
    _same_bytes(euler.compose_so_batch(theta),
                oracles.column_rotation_so(oracles.angle_dict(theta), n, batch))
    thetas = rng.uniform(0.0, np.pi, (batch, n - 1))
    _same_bytes(spectra.rotation_product_batch(thetas, spectra.cmv_order(n)),
                oracles.rotation_product(thetas, spectra.cmv_order(n), n))
    n, batch = 32, 260
    angles = _u_angles(rng, n, batch)
    _same_bytes(euler.compose_u_batch(*angles), _oracle_u(*angles, n))
    n = 16
    angles = _sp_angles(rng, n, batch)
    _same_bytes(euler.compose_sp_batch(*angles), _oracle_sp(*angles, n))


# Shapes where the wave schedule differs most from the one-block-at-a-time
# product: waves of many column pairs, over batch chunks of one to three
# items, so that pieces group many pairs.
WIDE = [("so", 65, 1), ("so", 65, 3), ("so", 130, 1), ("so", 130, 3), ("u", 48, 2), ("sp", 24, 2)]


@pytest.mark.parametrize("group,n,batch", WIDE)
def test_wide_waves_match_oracle(group, n, batch):
    rng = _rng(n, batch)
    if group == "so":
        theta = _so_theta(rng, n, batch)
        want = oracles.column_rotation_so(oracles.angle_dict(theta), n, batch)
        _same_bytes(euler.compose_so_batch(theta), want)
    elif group == "u":
        angles = _u_angles(rng, n, batch)
        _same_bytes(euler.compose_u_batch(*angles), _oracle_u(*angles, n))
    else:
        angles = _sp_angles(rng, n, batch)
        _same_bytes(euler.compose_sp_batch(*angles), _oracle_sp(*angles, n))


@pytest.mark.parametrize("name", ["hessenberg", "cmv", "shuffle"])
def test_wide_rotation_products_match_oracle(name):
    # the shuffle visits every plane twice, in two random orders
    n, batch = 65, 3
    rng = _rng(n, batch)
    order = {"hessenberg": spectra.hessenberg_order(n), "cmv": spectra.cmv_order(n),
             "shuffle": np.concatenate([rng.permutation(n - 1), rng.permutation(n - 1)]) + 1}[name]
    thetas = rng.uniform(0.0, np.pi, (batch, n - 1))
    _same_bytes(spectra.rotation_product_batch(thetas, list(order)),
                oracles.rotation_product(thetas, order, n))


@pytest.mark.parametrize("n", [2, 3, 8, 65])
def test_wave_counts(n):
    # a coset product E_1 ... E_{n-1} runs in 2n - 3 waves of adjacent column
    # pairs (4-column groups for Sp), CMV in 2 and Hessenberg in n - 1; each
    # of these waves is one run
    for width in (2, 4):
        _, _, _, runs = euler._coset_schedule(n, width)
        assert len(runs) == 2 * n - 3
    for order, waves in ((spectra.cmv_order(n), min(n - 1, 2)),
                         (spectra.hessenberg_order(n), n - 1)):
        _, runs = spectra._rotation_schedule(tuple(l - 1 for l in order), n)
        assert len(runs) == waves


@pytest.mark.parametrize("batch,binds", [(200, "bytes"), (600, "eighth")])
@pytest.mark.parametrize("name", ["so", "u", "sp", "rotation"])
def test_kernel_cuts_batches_by_the_chunk_rule(monkeypatch, name, batch, binds):
    # every kernel item is a 32 x 32 work matrix: 64 (real) or 32 (complex)
    # items fill CHUNK_BYTES, so an eighth of 200 is less, of 600 more
    kernel, seen = euler._plane_product, []

    def recording(d, batch, dtype, runs, blocks, lead=None):
        def chunk_blocks(sl, at):  # called once per span of a chunk
            if not seen or seen[-1] != sl:
                seen.append(sl)
            return blocks(sl, at)

        return kernel(d, batch, dtype, runs, chunk_blocks, lead)

    monkeypatch.setattr(euler, "_plane_product", recording)
    monkeypatch.setattr(spectra, "_plane_product", recording)
    rng = np.random.default_rng(batch)
    itemsize, compose = {
        "so": (8, lambda: euler.compose_so_batch(_so_theta(rng, 32, batch))),
        "u": (16, lambda: euler.compose_u_batch(*_u_angles(rng, 32, batch))),
        "sp": (16, lambda: euler.compose_sp_batch(*_sp_angles(rng, 16, batch))),
        "rotation": (8, lambda: spectra.rotation_product_batch(
            rng.uniform(0.0, np.pi, (batch, 31)), spectra.cmv_order(32))),
    }[name]
    compose()
    want = linalg._chunks(batch, 32 * 32 * itemsize)
    assert seen == want and len(want) > 1
    assert (want[0].stop == linalg.CHUNK_BYTES // (32 * 32 * itemsize)) == (binds == "bytes")


def _holds_array(value) -> bool:
    """Whether an ndarray sits anywhere in nested tuples, lists and slices."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, slice):
        return any(map(_holds_array, (value.start, value.stop, value.step)))
    return isinstance(value, (tuple, list)) and any(map(_holds_array, value))


def test_cut_cache_is_bounded_and_holds_no_array():
    # the cuts are kept per (schedule, d, chunk width, itemsize) as ints and
    # slices, for at most maxsize keys and d <= _KEPT_D; larger d are cut
    # per call and kept nowhere, even for a one-item chunk
    maxsize = euler._cuts.cache_info().maxsize
    assert maxsize is not None
    euler._cuts.cache_clear()
    theta = _so_theta(_rng(4, 1), 4, maxsize + 8)
    for batch in range(1, maxsize + 9):  # one chunk width per batch size
        euler.compose_so_batch(theta[:, :batch])
    assert euler._cuts.cache_info().currsize == maxsize
    keys = [(euler._coset_schedule(n, width)[3], n * width // 2, batch, itemsize)
            for n, width, itemsize in ((4, 2, 8), (12, 2, 8), (12, 2, 16), (6, 4, 16))
            for batch in (1, 2, 64)]
    for key in keys:
        assert not _holds_array(euler._cuts(*key))
    euler._cuts.cache_clear()
    for n in (euler._KEPT_D + 1, 32, 256):  # 256: one 512 KiB item a chunk
        euler.compose_so_batch(_so_theta(_rng(n, 1), n, 1))
    euler.compose_so_batch(_so_theta(_rng(32, 600), 32, 600))  # 75-item chunks, 600 KiB
    assert euler._cuts.cache_info().currsize == 0
    euler.compose_so_batch(_so_theta(_rng(euler._KEPT_D, 1), euler._KEPT_D, 1))
    assert euler._cuts.cache_info().currsize == 1


def test_compositions_from_four_threads_give_the_serial_bytes():
    # the kernel's cached cuts are shared, its views and scratch are each
    # call's own: four threads composing one shape at once get the serial bytes
    rng, n, batch = _rng(12, 5), 12, 5
    theta, sp, thetas = _so_theta(rng, n, batch), _sp_angles(rng, 6, batch), rng.uniform(
        0.0, np.pi, (batch, n - 1))
    calls = {"so": lambda: euler.compose_so_batch(theta),
             "sp": lambda: euler.compose_sp_batch(*sp),
             "rotation": lambda: spectra.rotation_product_batch(thetas, spectra.cmv_order(n))}
    serial = {name: call().tobytes() for name, call in calls.items()}
    euler._cuts.cache_clear()  # the threads build the cut lists too
    start = threading.Barrier(4)

    def work(_):
        start.wait()
        return [(name, call().tobytes()) for _ in range(25) for name, call in calls.items()]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = [got for part in pool.map(work, range(4)) for got in part]
    assert len(results) == 4 * 25 * 3
    assert all(got == serial[name] for name, got in results)


def test_compose_so_batch_values_at_boundary_angles():
    # angles 0, pi/2, pi make exact zeros, where only the sign of a zero
    # may differ from the all-rows loop; the values must not
    n, batch = 5, 27
    grid = np.array([0.0, 0.5 * np.pi, np.pi])
    theta = grid[(np.arange(batch) // 3 ** (np.arange(n * (n - 1) // 2)[:, None] % 3)) % 3]
    got = euler.compose_so_batch(theta)
    assert np.array_equal(got, oracles.column_rotation_so(oracles.angle_dict(theta), n, batch))


# exact zeros of either sign, quarter and half turns, the doubles next to
# pi and 2 pi, and tiny angles whose products stay above the underflow
# (not angles so small that a product underflows to zero: there numpy's
# complex product picks the zero's sign by the array it runs on)
SPECIAL_ANGLES = np.array([
    0.0, -0.0, 0.5 * np.pi, -0.5 * np.pi, np.pi, -np.pi, 1.5 * np.pi, TWO_PI,
    np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0), np.nextafter(np.pi, 0.0),
    1.0, 1e-150, -1e-150])


def _special_mix(rng, shape):
    """Uniform angles on (-2 pi, 4 pi), a fifth of them SPECIAL_ANGLES."""
    return np.where(rng.random(shape) < 0.2, rng.choice(SPECIAL_ANGLES, shape),
                    rng.uniform(-TWO_PI, 2.0 * TWO_PI, shape))


def test_su2_block_matches_exp_form_bytes():
    # every SPECIAL_ANGLES triple, then 10^5 mixed triples
    grid = np.array(np.meshgrid(SPECIAL_ANGLES, SPECIAL_ANGLES, SPECIAL_ANGLES)).reshape(3, -1)
    mixed = _special_mix(np.random.default_rng(11), (3, 100_000))
    for phi, psi, alpha in (grid, mixed):
        _same_bytes(euler.su2_block(phi, psi, alpha), oracles.su2(phi, psi, alpha))


def test_u_coset_blocks_match_exp_form_bytes(monkeypatch):
    # inner factors have off-diagonal phase 0, the l = 1 factor psi and
    # alpha_k; the blocks are recorded as the kernel receives them, in wave
    # order, for every coset and batch chunk
    rng = np.random.default_rng(12)
    k, batch = 6, 5000
    phi, psi = _special_mix(rng, (2, k * (k - 1) // 2, batch))  # packed, n = k
    alpha = _special_mix(rng, (batch, k))
    kernel, seen = euler._plane_product, []

    def recording(d, batch, dtype, runs, blocks, lead=None):
        def chunk_blocks(sl, at):
            seen.append((sl, at, blocks(sl, at)))
            return seen[-1][2]

        return kernel(d, batch, dtype, runs, chunk_blocks, lead)

    monkeypatch.setattr(euler, "_plane_product", recording)
    euler.compose_u_batch(phi, psi, alpha)
    sel, _, _, runs = euler._coset_schedule(k, 2)
    pairs = oracles.angle_pairs(k)
    phi, psi = oracles.angle_dict(phi), oracles.angle_dict(psi)
    assert len(seen) > 1
    for sl, at, m in seen:
        for row, blk in zip(sel[at].tolist(), m, strict=True):
            j, kk = pairs[row]
            want = (oracles.su2(phi[(1, kk)], psi[(1, kk)], alpha[:, kk - 1]) if j == 1
                    else oracles.su2(phi[(j, kk)], 0.0, psi[(j, kk)]))
            _same_bytes(blk.transpose(2, 0, 1), want[sl])
    for c, width, start, rows in runs:
        for i, row in enumerate(sel[start:start + len(rows)].tolist()):
            j, kk = pairs[row]
            assert (c + width * i, rows[i]) == (j - 1, kk)


PAIRS = [("so", "euler"), ("o", "euler"), ("o", "qr"), ("o", "householder"),
         ("u", "euler"), ("u", "qr"), ("u", "householder"), ("sp", "euler"),
         ("sn", "bubble")]
CASES = [(1, 3, 5, 1), (4, 9, 21, 2), (9, 12, 3, 3)]  # (n, count, seed, streams)

SAMPLE_DIGESTS = {
    ("so", "euler", (1, 3, 5, 1)): "682d0a00615399fceddd97f5f958fd56b7c530d5832a0c0df08dc3b92b666017",
    ("so", "euler", (4, 9, 21, 2)): "591329de0505a573e38d77e0163fa3b39cac7927d1c9655e54283b7da6342635",
    ("so", "euler", (9, 12, 3, 3)): "b8a2c9a38bee55f4e298d47c40ea27b2954ff44baaef06cd455faff42dccafe6",
    ("o", "euler", (1, 3, 5, 1)): "b8da42c6cfe523fdf5931894a511aa575dba2c5912458b40fba005e9e65e0937",
    ("o", "euler", (4, 9, 21, 2)): "6c233ef12f79f82291320941cc8faedeb41b9f904857ef14f1d8612edde4ec2a",
    ("o", "euler", (9, 12, 3, 3)): "c7e0132a1187533bae78b78f7ac06737559024096cdb2fa4e794350d4d7f2cb1",
    ("o", "qr", (1, 3, 5, 1)): "b8da42c6cfe523fdf5931894a511aa575dba2c5912458b40fba005e9e65e0937",
    ("o", "qr", (4, 9, 21, 2)): "5477679abf71f11a8e846d59fc8ba74dcc5ed54ed40b26c6f38e231140c95dd2",
    ("o", "qr", (9, 12, 3, 3)): "d04f80d240642757fe4b18128543ff3770e9c79962c38af956c44ea4fa6cb942",
    ("o", "householder", (1, 3, 5, 1)): "b8da42c6cfe523fdf5931894a511aa575dba2c5912458b40fba005e9e65e0937",
    ("o", "householder", (4, 9, 21, 2)): "2d586cdb77395d52bacc757b5ae830442297c79760b4d050af694261f81ea0fe",
    ("o", "householder", (9, 12, 3, 3)): "3ace151cb3ff5aee69036fb2a8db0892e05867eaebf1334f6f04977b62d25b91",
    ("u", "euler", (1, 3, 5, 1)): "d431f67cd7e899fc57ca6b356f0443342eee50894097bff173f7392d0aeaf994",
    ("u", "euler", (4, 9, 21, 2)): "7f55679a81abc3af6bbbe11c1809c13463600888e3f8f68517df0d63bbed83f0",
    ("u", "euler", (9, 12, 3, 3)): "82583ee91cfcc1eb573bac22cc0e06dfe9004bec5ba3e7e8bba04a3f31ad4ce0",
    ("u", "qr", (1, 3, 5, 1)): "51087708044c24c5276af7ee326624ae4651674ac90d507184ec08be4a5ca318",
    ("u", "qr", (4, 9, 21, 2)): "2eb1c8835058119e91357b830f2c4286f991901249ddccab5b2636dc2842dd57",
    ("u", "qr", (9, 12, 3, 3)): "c14904d6ec5575b4a6d1513b6035041fa0120b189fe72a97e46073fa461ca99f",
    ("u", "householder", (1, 3, 5, 1)): "d5dfccb7cac2b91cea462b4f5e9930a5e2c44181769d2f054c78b25e2d0e5266",
    ("u", "householder", (4, 9, 21, 2)): "4e93deef190437c7f728a080d20fb0d7d5fe70e519ddc404617e10d1464a9eea",
    ("u", "householder", (9, 12, 3, 3)): "464d3c37699f89f4cb6b92aeafa3678329786e846d38969f8fdf97776c662483",
    ("sp", "euler", (1, 3, 5, 1)): "a23072f6c058e10f4e79ac6bb98e844ea6b8bdcf58db9f63cf97c5f648c00bf6",
    ("sp", "euler", (4, 9, 21, 2)): "15a087df810737c2d1b44ffbc3683987ff48abdd103dca71dfa78b891a10eac5",
    ("sp", "euler", (9, 12, 3, 3)): "95ee8f9935e650ecf78e5f53ab038035913d94cb0705c6406c7c79720d0806e0",
    ("sn", "bubble", (1, 3, 5, 1)): "5113184a56a77e49c66c160ac904565ce527d3072f48851dfa4721916d64546b",
    ("sn", "bubble", (4, 9, 21, 2)): "7cd338e71f3f9ad5cff350d71d6f5f1ade2d5547cf5af23b9374ab0d9c4058ba",
    ("sn", "bubble", (9, 12, 3, 3)): "2dc04bd09550e15d861b250fb0a483bb13bf4aea4a5588cf8a38e76f0163bc9a",
}

CIRCULAR_DIGESTS = {  # (fn, n, count, seed), stream_id 0
    ("coe_batch", 1, 3, 5): "3ffef5f7f9d1c616b9cb2da2383b710108f6b8a715a2e8d4ee09ca4cf3f0e01d",
    ("coe_batch", 2, 7, 11): "bdc118bf15581943a3a181921ab6fc45b8de35e3690415826a14a3018f04cf10",
    ("coe_batch", 4, 2, 8): "7215b5e01a8ab081dea5dc222b113fe5cdeb1458b521cfa33b7c9ec7931a54cc",
    ("coe_batch", 5, 9, 21): "08b3ff210fe025f9c5ec811bdb1aaec5b2b8aabd6d18c7d93a060d373c9c2170",
    ("coe_batch", 8, 128, 3): "549f04c61eacf14ff2337c0c3e1227ebbe5056c6871fa283bc7e644e0ea4265f",
    ("coe_batch", 16, 6, 2): "fcb8efd0515879a8f7928c83f33d30f695f7eadc138165d18acec648e981ff42",
    ("cse_batch", 1, 3, 5): "420f1e836f4e8f39ebf9c9a90786bfd4aec3a27280c322a2442d7d0a55b771f0",
    ("cse_batch", 2, 7, 11): "f7dee7a0acbbd79b4bb5dbad9ac0d99f5b5fe1248cec88b5b163191363b43f3d",
    ("cse_batch", 4, 2, 8): "a6f4a667a1e4908ed4b7dd75052e0c606349b9c4f899d460a857c0dc085658ec",
    ("cse_batch", 5, 9, 21): "dc55ea8ed7d70a55541c549f8703007fd6dfffbb6c07e52faa58b57ecd7dcf0a",
    ("cse_batch", 8, 128, 3): "ab1f38b6ae7d757e4271b942fe6baa9f0cb15cc4a7c10a0849f425d73f58432d",
    ("cse_batch", 16, 6, 2): "a27255766f83a03fb56af78206c2f399d2b8d456ae7c7f684c63d5bf51ad6fe9",
}

SPECTRA_DIGESTS = {  # (fn, n, count, seed), stream_id 0
    ("hessenberg_batch", 2, 3, 5): "6e9f1fe4e07bb94f4bc7a8ca894b9936f342047a66b3c6fcbd45e0229d6d8537",
    ("hessenberg_batch", 7, 10, 8): "1616c165203361db7c37f0a10635131e27d13ba82bfea05b702d5a6ce85670cb",
    ("hessenberg_batch", 16, 6, 2): "e1e6b3717bcaa7471dc6dde00a74646dba1ff0f7011b1b90d587f6a66fdbae18",
    ("cmv_batch", 2, 3, 5): "6e9f1fe4e07bb94f4bc7a8ca894b9936f342047a66b3c6fcbd45e0229d6d8537",
    ("cmv_batch", 7, 10, 8): "2e17e09b05c8c640a1df9e983de0d36bf677cd427c7facdd72c7c6dd085b51c5",
    ("cmv_batch", 16, 6, 2): "a432cc01d068898bbc651a37bf01df2dfca108ed117feb6d70d0296f07df240a",
    # (fn, terms, count, seed): two chunks of the series, whose size sets the Gaussian draws
    ("trace_series_so_batch", 200, 20_000, 343):
        "3f55e67a05a8c7d392f4bcc330fe412724709d61904d9b32196c97008f893b4c",
}


# Euler draws whose batch chunks hold one item each, so the wave kernel runs
# at its widest; (fn, n, count, seed), stream_id 0, taken from the
# one-block-at-a-time kernel before the wave schedule replaced it.
WIDE_EULER_DIGESTS = {
    ("so_euler_batch", 256, 2, 43): "d19459286a1c967c8b14696c4d53e84884685bf8f7e9013d1a543cb69f981527",
    ("u_euler_batch", 64, 2, 47): "97ae52a55ff8f0d67feb95ddea46aa9e817d022f669f099810045a224d0b0b7d",
}


DRAW_SHAPE_DIGESTS = {  # (group, method, n, count, seed, streams)
    ("o", "householder", 64, 224, 13, 2): "9a357ca9fe2fcdacf4b2f321ea4cd8aea89e2a3ce69e30fd9385fbd0b4784cc1",
    ("o", "householder", 32, 128, 41, 1): "f66819f4445d053efd7c61f2b0f1f583d487cb5f6d7b44f54489856239e0ee6c",
    ("u", "euler", 16, 1792, 37, 2): "58c6bda24247e09b075f44a623bcf8ca61fbd81818f2764afe2cacae1fc236e3",
    ("u", "householder", 32, 384, 17, 1): "8c1b93fea8e63f794c3f718e11849333b9e3f6f294f5ea661984d4b6ef0a2801",
    ("sn", "bubble", 64, 4096, 19, 2): "592c108ddb5634c1b0033a92cf524e450ee3dfecb90f02937479f3ff765464d4",
    ("sp", "euler", 8, 1536, 23, 2): "39861490736c91d31531b82835640eb8415d2977947fe0839291bec5e734b86d",
    ("sp", "euler", 16, 16, 29, 1): "fd8abb694d1f9b8c9e5ed0878a9ca1910a93fc95861eccb1e79b57aced7b1ee0",
}

PERMUTATION_DIGESTS = {  # permutation_batch / oracles.bubble_bits(RandomStream(31, 0), 500, 50)
    "lines": "f4c77e7c2157f772d6989da10188be5ccc84b6bd2f063e3b99b1cf754b9ac659",
    "bits": "e884d63d548bd3e9a6988dda2ccf7b723ca45c1820cbb4d2c1056a198ed41f8f",
}


def _digest(out) -> str:
    """SHA-256 of dtype, shape and raw bytes; permutation lists as int64."""
    a = np.ascontiguousarray(np.asarray(out, dtype=np.int64) if isinstance(out, list) else out)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("group,method", PAIRS)
def test_sample_batch_digest_pinned(group, method, case):
    n, count, seed, streams = case
    out = samplers.sample_batch(group, n, count, method=method, seed=seed, streams=streams)
    assert _digest(out) == SAMPLE_DIGESTS[(group, method, case)]


@pytest.mark.parametrize("key", sorted(SPECTRA_DIGESTS))
def test_spectral_batch_digest_pinned(key):
    fn, n, count, seed = key
    out = getattr(spectra, fn)(RandomStream(seed, 0), n, count)
    assert _digest(out) == SPECTRA_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(CIRCULAR_DIGESTS))
def test_circular_batch_digest_pinned(key):
    fn, n, count, seed = key
    out = getattr(samplers, fn)(RandomStream(seed, 0), n, count)
    assert _digest(out) == CIRCULAR_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(WIDE_EULER_DIGESTS))
def test_wide_euler_digest_pinned(key):
    fn, n, count, seed = key
    out = getattr(samplers, fn)(RandomStream(seed, 0), n, count)
    assert _digest(out) == WIDE_EULER_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(DRAW_SHAPE_DIGESTS))
def test_draw_shape_digest_pinned(key):
    group, method, n, count, seed, streams = key
    out = samplers.sample_batch(group, n, count, method=method, seed=seed, streams=streams)
    assert _digest(out) == DRAW_SHAPE_DIGESTS[key]


def test_permutation_lines_and_bits_digest_pinned():
    # bits as a (count, n(n-1)/2) int8 array, columns in sorted (i, j) order
    lines = samplers.permutation_batch(RandomStream(31, 0), 500, 50)
    bits = oracles.bubble_bits(RandomStream(31, 0), 500, 50)
    assert _digest(lines) == PERMUTATION_DIGESTS["lines"]
    table = np.stack([bits[key] for key in sorted(bits)], axis=1)
    assert _digest(table) == PERMUTATION_DIGESTS["bits"]
