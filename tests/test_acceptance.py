"""Acceptance battery: every criterion at its stated tolerance.

The criteria live in haarforge.verify so that ``haar-forge verify`` and
this module are the same code path.  Each test prints its pass/fail line
(visible under ``pytest -s`` / ``-v``).
"""

import json
import tracemalloc

import numpy as np
import pytest

from haarforge import analytics, linalg, samplers, verify

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


@pytest.mark.parametrize("name", ["criterion_9", "criterion_10", "criterion_12", "nan_statistic"])
def test_checks_carry_structured_margins(name):
    # statistic, critical, margin = critical - statistic and the level of a
    # statistical check as verify --out writes them, the margin >= 0 exactly
    # when the check passes; moment-z checks have no level, and a check that
    # is no test has null numbers.  Criterion 9 holds a chi-square test, 10
    # only residual checks, 12 a moment-z test; a NaN statistic fails and
    # writes null for itself and its margin, so the JSON stays valid.
    if name == "nan_statistic":
        made = [verify._from_report(analytics.TestReport(
            float("nan"), 0.3, 10, "ks", "nan", {"level": verify.DEFAULT_LEVEL}))]
    else:
        made = getattr(verify, name)(SEED).checks
    checks = json.loads(json.dumps(made, allow_nan=False))
    for c in checks:
        assert set(c) == {"label", "passed", "detail", "statistic", "critical", "margin",
                          "level"}
        if c["statistic"] is None:
            assert c["margin"] is None
            if c["critical"] is None:
                assert c["level"] is None
            else:
                assert not c["passed"] and c["detail"] == "ks stat=nan crit=0.3"
            continue
        assert c["margin"] == c["critical"] - c["statistic"]
        assert (c["margin"] >= 0.0) == c["passed"]
        assert c["level"] == (None if c["detail"].startswith("moment-z") else verify.DEFAULT_LEVEL)
    tested = [c for c in checks if c["critical"] is not None]
    assert len(tested) == {"criterion_9": 1, "criterion_10": 0, "criterion_12": 1,
                           "nan_statistic": 1}[name]


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


@pytest.fixture
def reflections_only(monkeypatch):
    """Make the O(n) QR sampler return only reflections; the list it returns
    records each draw's count.  The fake fails the test itself rather than
    let a missing bound hang."""
    calls = []

    def reflections(stream, n, count):
        calls.append(count)
        if len(calls) > 3:
            pytest.fail("_so_conditioned kept drawing from a sampler with no rotations")
        return np.broadcast_to(np.diag([-1.0] + [1.0] * (n - 1)), (count, n, n)).copy()

    monkeypatch.setitem(samplers.SAMPLERS, ("o", "qr"), samplers.Sampler(reflections, "real"))
    return calls


def test_so_conditioning_stops_on_a_sampler_without_rotations(reflections_only):
    # a sampler that returns only reflections must end in an error
    with pytest.raises(linalg.ConvergenceError):
        verify._so_conditioned("qr", SEED, 0, 4, 100)
    assert reflections_only == [184]


def test_criterion_5_fails_a_sampler_without_rotations(reflections_only):
    # the sampler under test fails one check; the battery does not crash, and
    # the other samplers' sets are still compared
    result = verify.criterion_5(SEED)
    failing = [c for c in result.checks if not c["passed"]]
    assert not result.passed and reflections_only == [12064]
    assert [(c["label"], c["detail"]) for c in failing] == [
        ("qr gives det = +1 draws", "O(6) qr sampler gave 12064 draws without det = +1")]
    assert [c["label"] for c in result.checks if c["passed"]] == [
        "tr: euler vs householder", "entry11: euler vs householder"]


def test_criterion_5_holds_no_stack_while_its_ks_tests_run(monkeypatch):
    # only each (10000, 6, 6) stack's two statistics outlive its draw, so the
    # KS tests allocate with no stack alive above or below their blocks
    traced, ks = [], verify.ks_two_sample

    def spy(*args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return ks(*args, **kwargs)

    monkeypatch.setattr(verify, "ks_two_sample", spy)
    pytest.importorskip("scipy.special")  # the first KS call imports it: not traced here
    tracemalloc.start()
    try:
        assert verify.criterion_5(SEED).passed
    finally:
        tracemalloc.stop()
    assert len(traced) == 6 and max(traced) < 10_000 * 6 * 6 * 8


# Criteria 7 and 9 at seeds 1-3: name, pass flag and every check line
# (label and detail string).  Criterion 9's lines are as they read on the
# one-word bit enumeration that the array form replaced; criterion 7's were
# re-taken when its determinants moved to np.linalg.det.
CRITERION_LINES = {
    ("criterion_7", 1): ("7 Hessenberg charpoly recurrence", True, [
        "    [pass] recurrence matches elimination determinant: worst |chi - det| / bound = 5.94e-06",
    ]),
    ("criterion_7", 2): ("7 Hessenberg charpoly recurrence", True, [
        "    [pass] recurrence matches elimination determinant: worst |chi - det| / bound = 3.78e-06",
    ]),
    ("criterion_7", 3): ("7 Hessenberg charpoly recurrence", True, [
        "    [pass] recurrence matches elimination determinant: worst |chi - det| / bound = 4.9e-06",
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
