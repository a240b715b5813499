"""Numbers at the public boundary: a bad one is refused in words, and good ones keep their bits."""

import math

import numpy as np
import pytest

from fuzzyface import (
    BellKernel,
    EvalReport,
    FeatureVector,
    feature_membership,
    rank_auc,
    roc_points,
    solve_weight,
)

NAN, INF = math.nan, math.inf
f64 = np.float64
BAD = {"nan": NAN, "inf": INF, "-inf": -INF, "10**400": 10 ** 400, "'0.9'": "0.9",
       "True": True, "None": None}


def eval_report(auc):
    return EvalReport((), (), 0.0, 0.0, 0.0, 0.0, (), auc, 90.0, 0.0)


# (call, the words that name the argument, the bad values it takes): only
# values that a call returned on, or raised another error for, such as a
# TypeError or an OverflowError, before it checked them. A score list's
# dtype is checked, so a bool is refused in a list of bools, not in a list
# that numpy makes floats.
CALLS = [
    ("solve_weight target", lambda v: solve_weight(v, 0.9, 0.1), "target",
     ["'0.9'", "True", "None"]),
    ("solve_weight feature_score", lambda v: solve_weight(1.0, v, 0.0), "feature_score",
     ["nan", "inf", "10**400", "'0.9'", "True", "None"]),
    ("solve_weight alpha", lambda v: solve_weight(1.0, 0.9, v), "alpha",
     ["nan", "-inf", "'0.9'", "None"]),
    ("rank_auc genuine", lambda v: rank_auc([v], [1.0]), "genuine_scores", list(BAD)),
    ("rank_auc impostor", lambda v: rank_auc([1.0], [v]), "impostor_scores", list(BAD)),
    ("roc_points genuine", lambda v: roc_points([v], [0.5]), "genuine_scores", list(BAD)),
    ("roc_points impostor", lambda v: roc_points([1.0], [v]), "impostor_scores", list(BAD)),
    ("FeatureVector", lambda v: FeatureVector((("a", 1.0), ("b", v))), "feature 'b'",
     ["10**400", "'0.9'", "None"]),
    ("EvalReport auc", eval_report, "auc", ["'0.9'", "None"]),
]


@pytest.mark.parametrize("call, label, value", [
    pytest.param(call, label, BAD[value], id=f"{name}-{value}")
    for name, call, label, values in CALLS for value in values
])
def test_a_bad_number_is_refused_in_words(call, label, value):
    # a ValueError, never a TypeError or an OverflowError, and never a result
    with pytest.raises(ValueError, match=label):
        call(value)


def bits(value):
    """Each number in ``value`` as the hex of its float, so that equal means the same bits."""
    if isinstance(value, (tuple, list)):
        return [bits(item) for item in value]
    return value if isinstance(value, str) else float(value).hex()


# each call on a float, an int and an np.float64, with the results the
# package gave before these checks
@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: solve_weight(0.9, 0.95, 0.2), 0.9333333333333332, id="solve_weight-float"),
    pytest.param(lambda: solve_weight(1, 3, 0), 0.3333333333333333, id="solve_weight-int"),
    pytest.param(lambda: solve_weight(f64(0.9), f64(0.95), f64(0.2)), f64(0.9333333333333332),
                 id="solve_weight-float64"),
    pytest.param(lambda: rank_auc([91.5, 88.25, 93.0], [12.0, 91.5, 40.125]), 0.8333333333333334,
                 id="rank_auc-float"),
    pytest.param(lambda: rank_auc([91, 88, 93], [12, 91, 40]), 0.8333333333333334,
                 id="rank_auc-int"),
    pytest.param(lambda: rank_auc(np.array([91.5, 88.25, 93.0]), [f64(12.0), f64(91.5), 40]),
                 0.8333333333333334, id="rank_auc-float64"),
    *[pytest.param(lambda scores=scores: roc_points(*scores),
                   [(0.0, 0.0), (0.0, 1 / 3), (1 / 3, 2 / 3), (1 / 3, 1.0), (2 / 3, 1.0),
                    (1.0, 1.0)], id=f"roc_points-{kind}")
      for kind, scores in (("float", ([91.5, 88.25, 93.0], [12.0, 91.5, 40.125])),
                           ("int", ([91, 88, 93], [12, 91, 40])),
                           ("float64", (np.array([91.5, 88.25, 93.0]), [f64(12.0), 91.5, 40])))],
    pytest.param(lambda: feature_membership(0.37, 0.41, BellKernel()),
                 (0.9981021327390103, 0.9999927962191798), id="feature_membership-float"),
    pytest.param(lambda: feature_membership(1, 3, BellKernel()),
                 (0.8112781244591328, 0.9306410640964193), id="feature_membership-int"),
    pytest.param(lambda: feature_membership(f64(1.0), f64(3.0), BellKernel()),
                 (0.8112781244591328, 0.9306410640964193), id="feature_membership-float64"),
    # a float32 is measured at its exact value in double precision, not in float32
    pytest.param(lambda: feature_membership(np.float32(1.0), np.float32(2.0), BellKernel()),
                 (0.9182958340544896, 0.9867155054908802), id="feature_membership-float32"),
    pytest.param(lambda: FeatureVector((("a", 0.25), ("b", 2), ("c", f64(1.5)))).items,
                 (("a", 0.25), ("b", 2), ("c", f64(1.5))), id="FeatureVector"),
    pytest.param(lambda: [eval_report(auc).auc for auc in (0.75, 1, f64(0.5))],
                 [0.75, 1, f64(0.5)], id="EvalReport"),
])
def test_good_numbers_keep_their_bits(call, expected):
    assert bits(call()) == bits(expected)
