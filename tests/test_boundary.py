"""Numbers at the public boundary: a bad one is refused in words, and good ones keep their bits."""

import dataclasses
import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyface import (
    AlphaMode,
    BellKernel,
    CalibrationSample,
    Canvas,
    EvalReport,
    FeatureRow,
    FeatureVector,
    MatchReport,
    PopulationConfig,
    ScoringConfig,
    TrapezoidKernel,
    TriangleKernel,
    feature_membership,
    rank_auc,
    report_from_scores,
    roc_points,
    solve_weight,
)
from fuzzyface.fileio import dump_json
from fuzzyface.fuzzymath import kernel_from_dict

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
     ["nan", "inf", "10**400", "'0.9'", "True", "None"]),
    ("EvalReport auc", eval_report, "auc", ["nan", "inf", "'0.9'", "True", "None"]),
]


@pytest.mark.parametrize("call, label, value", [
    *[pytest.param(call, label, BAD[value], id=f"{name}-{value}")
      for name, call, label, values in CALLS for value in values],
    # breakpoints that are finite, but span more than a float holds: evaluate
    # raised OverflowError on the ints, and took the float span as inf
    pytest.param(lambda v: TriangleKernel(-v, v, 17 * v // 10), "triangle breakpoint span r - p",
                 10 ** 308, id="TriangleKernel-int-span"),
    # p is the largest int that a float holds, and r - p is one more
    pytest.param(lambda v: TriangleKernel(-v, 1, 2), "triangle breakpoint span r - p",
                 2 ** 1024 - 2 ** 970 - 1, id="TriangleKernel-int-span-by-one"),
    pytest.param(lambda v: TriangleKernel(-v, v, 1.75e308), "triangle breakpoint span r - p",
                 1.7e308, id="TriangleKernel-float-span"),
    pytest.param(lambda v: TrapezoidKernel(-v, v, v, 17 * v // 10),
                 "trapezoid breakpoint span s - p", 10 ** 308, id="TrapezoidKernel-int-span"),
    pytest.param(lambda v: TrapezoidKernel(-v, 1 - v, 2 - v, v), "trapezoid breakpoint span q - t",
                 10 ** 308, id="TrapezoidKernel-int-fall"),
    pytest.param(lambda v: TrapezoidKernel(-1.75e308, -v, -v, v),
                 "trapezoid breakpoint span q - t", 1.7e308, id="TrapezoidKernel-float-span"),
    # a model file's kernel: its fields are read as floats
    pytest.param(lambda v: kernel_from_dict({"type": "triangle", "p": -v, "r": v,
                                             "q": 17 * v // 10}),
                 "triangle breakpoint span r - p", 10 ** 308, id="kernel_from_dict-span"),
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


# every kind of value a number argument may meet: numpy's integer and
# floating scalars of every width, bools, ints past 64 bits, NaN, the
# infinities, and values that are not numbers
NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
NUMPY_FLOATS = [(np.float16, 16), (np.float32, 32), (np.float64, 64)]
EXTREMES = [True, False, np.True_, np.False_, 2 ** 70, 10 ** 400, NAN, INF, -INF, "0.5", None,
            np.longdouble(0.5)]
ANY_NUMBER = st.one_of(
    *[st.integers(np.iinfo(kind).min, np.iinfo(kind).max).map(kind) for kind in NUMPY_INTEGERS],
    *[st.floats(width=width).map(kind) for kind, width in NUMPY_FLOATS],
    st.integers(-2 ** 80, 2 ** 80), st.floats(), st.sampled_from(EXTREMES),
)


def report_with(field, value):
    """A valid EvalReport with ``value`` put in for one of its numbers."""
    numbers = dict(genuine_scores=(1.0,), impostor_scores=(0.0,), genuine_mean=1.0,
                   genuine_stddev=0.0, impostor_mean=0.0, impostor_stddev=0.0,
                   roc_points=((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)), auc=1.0, threshold=50.0,
                   accuracy_at_threshold=1.0)
    if field.endswith("_scores"):
        value = (value,)
    elif field == "roc_points":
        value = ((0.0, 0.0), (value, value), (1.0, 1.0))
    return EvalReport(**{**numbers, field: value})


# each public name that takes a number, with the value put in at each of
# its number arguments in turn
TAKES = {
    "ScoringConfig k": lambda v: ScoringConfig(k=v),
    "ScoringConfig resolution_scale": lambda v: ScoringConfig(resolution_scale=v),
    "BellKernel": lambda v: BellKernel(v),
    **{f"TriangleKernel {name}": lambda v, name=name: TriangleKernel(**{name: v})
       for name in ("p", "r", "q")},
    **{f"TrapezoidKernel {name}": lambda v, name=name: TrapezoidKernel(**{name: v})
       for name in ("p", "s", "t", "q")},
    "CalibrationSample feature_score": lambda v: CalibrationSample(v, 0.1),
    "CalibrationSample alpha": lambda v: CalibrationSample(0.5, v),
    "solve_weight target": lambda v: solve_weight(v, 0.9, 0.1),
    "solve_weight feature_score": lambda v: solve_weight(1.0, v, 0.0),
    "solve_weight alpha": lambda v: solve_weight(1.0, 0.9, v),
    **{f"PopulationConfig {name}": lambda v, name=name: PopulationConfig(
        **{"identity_count": 2, "captures_per_identity": 2, name: v})
       for name in ("identity_count", "captures_per_identity", "identity_sigma",
                    "capture_sigma", "outline_sigma", "seed")},
    "Canvas width": lambda v: Canvas(v, 10),
    "Canvas height": lambda v: Canvas(10, v),
    "feature_membership a": lambda v: feature_membership(v, 0.5, BellKernel()),
    "feature_membership b": lambda v: feature_membership(0.5, v, BellKernel()),
    "FeatureVector": lambda v: FeatureVector((("a", 1.0), ("b", v))),
    **{f"EvalReport {field}": lambda v, field=field: report_with(field, v)
       for field in EvalReport.__dataclass_fields__},
    "rank_auc genuine": lambda v: rank_auc([v, 0.5], [0.25]),
    "rank_auc impostor": lambda v: rank_auc([0.5], [v, 0.25]),
    "roc_points genuine": lambda v: roc_points([v, 0.5], [0.25]),
    "roc_points impostor": lambda v: roc_points([0.5], [v, 0.25]),
    "report_from_scores genuine": lambda v: report_from_scores([v], [0.25], 50.0),
    "report_from_scores impostor": lambda v: report_from_scores([0.5], [v], 50.0),
    "report_from_scores threshold": lambda v: report_from_scores([0.5], [0.25], v),
}


def stored_numbers(value):
    """Every number held in ``value``, through its tuples, lists, dicts and dataclass fields."""
    if isinstance(value, (numbers.Number, np.generic)):
        return [value]
    if isinstance(value, (tuple, list)):
        items = value
    elif isinstance(value, dict):
        items = list(value.values())
    elif dataclasses.is_dataclass(value):
        items = list(vars(value).values())
    else:  # a string, None or an enum member
        return []
    return [number for item in items for number in stored_numbers(item)]


def with_extremes(test):
    for value in EXTREMES:
        test = example(value=value)(test)
    return test


def strict_json(text):
    """The document in ``text``, refusing NaN and the infinities, which are not JSON (RFC 8259)."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def outcome(call, value):
    """What ``call`` gives on ``value``: its result's repr, or that it refused the value."""
    try:
        return repr(call(value))
    except ValueError:
        return "refused"


@pytest.mark.parametrize("call", TAKES.values(), ids=TAKES.keys())
@settings(max_examples=40, deadline=None)
@with_extremes
@given(value=ANY_NUMBER)
def test_a_number_is_taken_as_a_python_number_or_refused_in_words(call, value):
    if isinstance(value, np.longdouble):  # np.longdouble(0.5): taken as its float
        assert outcome(call, value) == outcome(call, float(value))
    # never an OverflowError, an IndexError or a bare TypeError
    try:
        result = call(value)
    except ValueError as error:
        assert str(error)
        return
    stored = stored_numbers(result)
    assert all(type(number) in (int, float) for number in stored), result
    strict_json(dump_json(stored))
    if isinstance(result, EvalReport):
        strict_json(dump_json(result.to_dict()))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="a long double is a double here")
@pytest.mark.parametrize("call", TAKES.values(), ids=TAKES.keys())
def test_a_long_double_past_a_float_is_refused_in_words(call):
    # .item() keeps a long double wider than a float, and one third in it
    # has no float equal to it
    with pytest.raises(ValueError, match=r"\w"):
        call(np.longdouble(1) / 3)


ROW = FeatureRow("f0", 60.0, 60.0, 1.0, 1.0)


def match_report(features):
    return MatchReport(a_id="a", b_id="b", features=features, alpha=0.5, k=0.5,
                       alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(), resolution_scale=1)


def replaced_report(**fields):
    return dataclasses.replace(report_from_scores([90.0, 80.0], [10.0, 20.0], 50.0), **fields)


# a field of the wrong kind altogether raised a bare TypeError or
# AttributeError, or a ValueError that named nothing
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: match_report((("f0", 60.0, 60.0, 1.0, 1.0),)),
                 "report features must be FeatureRows, got ('f0', 60.0, 60.0, 1.0, 1.0)",
                 id="MatchReport-tuple-row"),
    pytest.param(lambda: match_report([ROW, None]), "report features must be FeatureRows, got None",
                 id="MatchReport-None-row"),
    pytest.param(lambda: match_report(None),
                 "report features must be a sequence of FeatureRows, got None",
                 id="MatchReport-None"),
    pytest.param(lambda: match_report(row for row in [ROW]),
                 "report features must be a sequence of FeatureRows, got <generator",
                 id="MatchReport-generator"),
    # a name that is not a non-empty string was kept, and to_dict wrote
    # a None name as null
    pytest.param(lambda: match_report((FeatureRow(None, 1.0, 1.0, 1.0, 1.0),)),
                 "feature row names must be non-empty strings, got None",
                 id="MatchReport-None-name"),
    pytest.param(lambda: match_report([ROW, FeatureRow("", 60.0, 60.0, 1.0, 1.0)]),
                 "feature row names must be non-empty strings, got ''",
                 id="MatchReport-empty-name"),
    pytest.param(lambda: match_report((FeatureRow(b"f0", 60.0, 60.0, 1.0, 1.0),)),
                 "feature row names must be non-empty strings, got b'f0'",
                 id="MatchReport-bytes-name"),
    pytest.param(lambda: FeatureVector(((1, 1.0),)),
                 "feature names must be non-empty strings, got 1", id="FeatureVector-int-name"),
    pytest.param(lambda: FeatureVector((("a", 1.0), ("", 2.0))),
                 "feature names must be non-empty strings, got ''",
                 id="FeatureVector-empty-name"),
    pytest.param(lambda: FeatureVector([(None, np.float64(1.0))]),
                 "feature names must be non-empty strings, got None",
                 id="FeatureVector-None-name"),
    pytest.param(lambda: FeatureVector(None), "feature items must be (name, value) pairs, got None",
                 id="FeatureVector-None"),
    pytest.param(lambda: FeatureVector((("a",),)),
                 "feature items must be (name, value) pairs, got (('a',),)",
                 id="FeatureVector-short-item"),
    pytest.param(lambda: FeatureVector([("a", 1.0), 2.0]),
                 "feature items must be (name, value) pairs, got [('a', 1.0), 2.0]",
                 id="FeatureVector-number-item"),
    pytest.param(lambda: replaced_report(genuine_scores=None),
                 "genuine_scores must be a sequence of numbers, got None",
                 id="EvalReport-genuine_scores"),
    pytest.param(lambda: replaced_report(impostor_scores=1.0),
                 "impostor_scores must be a sequence of numbers, got 1.0",
                 id="EvalReport-impostor_scores"),
    pytest.param(lambda: replaced_report(roc_points=None),
                 "roc_points must be a sequence of pairs, got None", id="EvalReport-roc_points"),
])
def test_a_field_of_the_wrong_kind_is_refused_in_words(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value).startswith(message)


# each type stores tuples, whichever path checked its fields: a list was
# kept when every value was a plain float (an int made it a tuple), and a
# generator of roc points was spent by the check, leaving none
@pytest.mark.parametrize("build, given, expected", [
    pytest.param(FeatureVector, [("a", 1.0)], (("a", 1.0),), id="FeatureVector-floats"),
    pytest.param(FeatureVector, (["a", 1.0],), (("a", 1.0),), id="FeatureVector-list-item"),
    pytest.param(match_report, [ROW], (ROW,), id="MatchReport"),
    pytest.param(lambda points: replaced_report(roc_points=points),
                 [[0.0, 0.0], [0.5, 1.0], [1.0, 1.0]], ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)),
                 id="EvalReport-roc_points"),
    pytest.param(lambda points: replaced_report(roc_points=points),
                 iter([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)]), ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)),
                 id="EvalReport-roc_points-iterator"),
])
def test_a_type_built_from_lists_equals_and_hashes_like_one_built_from_tuples(build, given,
                                                                            expected):
    from_lists, from_tuples = build(given), build(expected)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
