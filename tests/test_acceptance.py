"""Acceptance battery: every criterion at its stated tolerance.

The criteria live in haarforge.verify so that ``haar-forge verify`` and
this module are the same code path.  Each test prints its pass/fail line
(visible under ``pytest -s`` / ``-v``).
"""

import numpy as np
import pytest

from haarforge import linalg, samplers, verify

SEED = 1


@pytest.mark.parametrize("criterion", verify.CRITERIA,
                         ids=[fn.__name__ for fn in verify.CRITERIA])
def test_criterion(criterion):
    result = criterion(SEED)
    assert result.name.startswith(criterion.__name__.removeprefix("criterion_") + " ")
    flag = "PASS" if result.passed else "FAIL"
    print(f"[{flag}] criterion {result.name} ({result.elapsed:.1f} s)")
    for line in result.lines():
        print(line)
    failing = [c for c in result.checks if not c["passed"]]
    assert result.passed, (
        f"criterion {result.name}: "
        + "; ".join(f"{c['label']} -> {c['detail']}" for c in failing))


def test_registry_numbers_criteria_by_name():
    assert len(verify.CRITERIA) == 12
    for k, fn in enumerate(verify.CRITERIA, start=1):
        assert fn.__name__ == f"criterion_{k}" and getattr(verify, fn.__name__) is fn


def test_criterion_10_draws_from_its_own_stream_ids(monkeypatch):
    # criterion k draws from the ids 100*k + lane
    ids = []
    real = verify.RandomStream.__init__

    def recording(self, seed, stream_id=0):
        ids.append(stream_id)
        real(self, seed, stream_id)

    monkeypatch.setattr(verify.RandomStream, "__init__", recording)
    verify.criterion_10(SEED)
    assert ids and all(1000 <= i <= 1099 for i in ids), ids


def test_so_conditioning_stops_on_a_sampler_without_rotations(monkeypatch):
    # a sampler that returns only reflections must end in an error; the
    # fake fails the test itself rather than let a missing bound hang
    calls = []

    def reflections(stream, n, count):
        calls.append(count)
        if len(calls) > 3:
            pytest.fail("_so_conditioned kept drawing from a sampler with no rotations")
        return np.broadcast_to(np.diag([-1.0] + [1.0] * (n - 1)), (count, n, n)).copy()

    monkeypatch.setitem(samplers.SAMPLERS, ("o", "qr"),
                        samplers.Sampler(reflections, "real", lambda n: n))
    with pytest.raises(linalg.ConvergenceError):
        verify._so_conditioned("qr", SEED, 0, 4, 100)
    assert calls == [184]


# Criteria 7 and 9 as they read on the triple-loop Hessenberg entries and
# the one-word bit enumeration that the array forms replaced: name, pass
# flag and every check line (label and detail string) at seeds 1-3.
CRITERION_LINES = {
    ("criterion_7", 1): ("7 Hessenberg charpoly recurrence", True, [
        "    [pass] recurrence matches elimination determinant: worst |chi - det| / bound = 3.39e-06",
    ]),
    ("criterion_7", 2): ("7 Hessenberg charpoly recurrence", True, [
        "    [pass] recurrence matches elimination determinant: worst |chi - det| / bound = 3.52e-06",
    ]),
    ("criterion_7", 3): ("7 Hessenberg charpoly recurrence", True, [
        "    [pass] recurrence matches elimination determinant: worst |chi - det| / bound = 2.47e-06",
    ]),
    ("criterion_9", 1): ("9 permutation uniformity", True, [
        "    [pass] exact enumeration N=4: each sigma has mass 1/24: 24 permutations, max dev 0.0e+00",
        "    [pass] empirical uniformity N=6: chi-square stat=791.9 crit=841.9",
    ]),
    ("criterion_9", 2): ("9 permutation uniformity", True, [
        "    [pass] exact enumeration N=4: each sigma has mass 1/24: 24 permutations, max dev 0.0e+00",
        "    [pass] empirical uniformity N=6: chi-square stat=717.6 crit=841.9",
    ]),
    ("criterion_9", 3): ("9 permutation uniformity", True, [
        "    [pass] exact enumeration N=4: each sigma has mass 1/24: 24 permutations, max dev 0.0e+00",
        "    [pass] empirical uniformity N=6: chi-square stat=733.8 crit=841.9",
    ]),
}


@pytest.mark.parametrize("key", list(CRITERION_LINES), ids=lambda k: f"{k[0]}-seed{k[1]}")
def test_criterion_lines_pinned(key):
    name, seed = key
    result = getattr(verify, name)(seed)
    assert (result.name, result.passed, result.lines()) == CRITERION_LINES[key]
