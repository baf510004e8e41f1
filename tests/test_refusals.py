"""Input refusals that no other in-process test reaches, in one table.

Each row is a call on a scratch directory and what it must give: the
exception it raises and a pattern of its message, or for ``cli.main`` the
exit code and a pattern of its stderr.  The JSON rows also check that
``json.loads`` refuses the same text, through ``test_fileio._same_reading``.
"""

import json

import numpy as np
import pytest

from haarforge import analytics, cli, fileio, linalg, samplers, spectra
from haarforge.randstream import RandomStream
from test_fileio import _same_reading


def _json_syntax(text):
    """A call of ``fileio.json_to_matrices(text)`` that first checks that
    ``json.loads`` refuses text too."""
    def call(tmp):
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        assert not _same_reading(text)
        return fileio.json_to_matrices(text)
    return call


WORD = '{"group": "sn", "n": 2, "method": "bubble", "permutations": [[2, 1]'
SAMPLE = ["sample", "--group", "so", "--n", "2", "--count", "1", "--out"]

REFUSALS = {  # id -> (call(tmp_path), exception type or exit code, message pattern)
    "json-no-value": (_json_syntax('{"group": "sn", "n": }'), json.JSONDecodeError,
                      "Expecting value"),
    "json-trailing-comma-in-samples": (_json_syntax(WORD + ", ]}"), json.JSONDecodeError,
                                       "Expecting value"),
    "json-no-colon": (_json_syntax('{"group" "sn"}'), json.JSONDecodeError, "Expecting one of"),
    "json-trailing-comma-in-object": (_json_syntax('{"group": "sn",}'), json.JSONDecodeError,
                                      "Expecting one of"),
    "json-no-comma-in-samples": (_json_syntax(WORD + " [1, 2]]}"), json.JSONDecodeError,
                                 "Expecting one of"),
    "json-unclosed-object": (_json_syntax(WORD + "]"), json.JSONDecodeError, "Expecting one of"),
    "json-extra-data": (_json_syntax(WORD + "]} []"), json.JSONDecodeError, "Extra data"),
    "cli-out-in-a-missing-directory": (
        lambda tmp: cli.main(SAMPLE + [str(tmp / "missing" / "out.json")]), cli.EXIT_IO,
        "i/o error"),
    "sample-batch-count-0": (lambda tmp: samplers.sample_batch("so", 2, 0), ValueError,
                             "count.* >= 1"),
    "so-euler-n-0": (lambda tmp: samplers.so_euler_batch(RandomStream(0), 0, 1), ValueError,
                     "n >= 1 required"),
    "perm-trace-series-one-term": (
        lambda tmp: spectra.trace_series_perm_batch(RandomStream(0), 1, 5), ValueError,
        "terms >= 2 required"),
    "cos-theta-so-j-not-broadcast": (
        lambda tmp: RandomStream(0).cos_theta_so(np.array([[1], [2]]), size=(3,)), ValueError,
        "does not broadcast"),
    "symplectic-form-odd": (lambda tmp: linalg.symplectic_form(3), ValueError,
                            "even dimension"),
    "log-volume-n-0": (lambda tmp: analytics.log_volume("so", 0), ValueError, "n >= 1"),
    "sphere-area-radius-0": (lambda tmp: analytics.sphere_area(3, 0.0), ValueError,
                             "radius > 0"),
    "so-volume-ratio-n-1": (lambda tmp: analytics.so_volume_sphere_ratio(1), ValueError,
                            "n >= 2"),
    "u-volume-ratio-n-0": (lambda tmp: analytics.u_volume_sphere_ratio(0), ValueError,
                           "n >= 1"),
    "coe-normalization-n-0": (lambda tmp: analytics.coe_normalization(0), ValueError, "n >= 1"),
    "cue-normalization-n-0": (lambda tmp: analytics.cue_normalization(0), ValueError, "n >= 1"),
    "quadrature-so-4": (lambda tmp: analytics.volume_quadrature("so", 4), ValueError,
                        "quadrature cross-check supports"),
    "reynolds-exact-sn-9": (
        lambda tmp: analytics.reynolds_average(lambda m, x: 1.0, "sn", 9, RandomStream(0), 2,
                                               exact=True), ValueError, "n <= 8"),
    "chi-square-unequal-lengths": (lambda tmp: analytics.chi_square([1, 2], [5.0] * 3),
                                   ValueError, "equal-length"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_input_is_refused(case, tmp_path, capsys):
    call, want, message = REFUSALS[case]
    if isinstance(want, int):
        assert call(tmp_path) == want
        assert message in capsys.readouterr().err
    else:
        with pytest.raises(want, match=message):
            call(tmp_path)
