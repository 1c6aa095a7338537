"""Path descriptions, path algebra, sampling and serialisation."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import hyperlog as hl
from hyperlog import config, winding
from hyperlog.errors import (
    DimensionMismatch,
    EndpointMismatch,
    OutOfDomain,
    RefinementBudgetExceeded,
    ZeroOnPath,
)
from hyperlog.obstruction import _crossing_brackets
from hyperlog.pathkit import (
    Arc,
    Line,
    NegConj,
    PolyFn,
    Reparam,
    Rocket,
    SampledPath,
    Samples,
    SliceArc,
    SliceCurve,
    TrigFn,
    sample_path,
    segment_from_json,
    segment_to_json,
    to_json,
)

from test_batched_eval import corpus_paths

PI = math.pi


def circle(radius=1.0, turns=1):
    return hl.demo(f"slice_circle(i,{radius:g},{turns})").path


def test_value_matches_closed_form():
    spec = circle(radius=2.0)
    for t in (0.0, 0.7, PI, 4.1):
        v = spec.value(t)
        assert v == pytest.approx(
            [2 * math.cos(t), 2 * math.sin(t), 0.0, 0.0], abs=1e-12
        )


def test_values_vectorised_agrees_with_scalar():
    spec = hl.demo("lambda_loop").path
    ts = np.linspace(spec.a, spec.b, 37)
    block = spec.values(ts)
    for n, t in enumerate(ts):
        assert np.allclose(block[n], spec.value(float(t)), atol=1e-12)


def test_out_of_domain_raises():
    spec = circle()
    with pytest.raises(OutOfDomain):
        spec.value(spec.b + 0.5)
    with pytest.raises(OutOfDomain):
        spec.value(spec.a - 1e-6)


def test_discontinuous_junction_rejected():
    a = Line(0.0, 1.0, (1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0))
    b = Line(1.0, 2.0, (3.0, 0.0, 0.0, 0.0), (4.0, 0.0, 0.0, 0.0))
    with pytest.raises(EndpointMismatch):
        hl.PathSpec(0.0, 2.0, (a, b))


def test_closure_mismatch_rejected():
    a = Line(0.0, 1.0, (1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0))
    with pytest.raises(EndpointMismatch):
        hl.PathSpec(0.0, 1.0, (a,), closed=True)


@pytest.mark.parametrize("lam", [1e-12, 1e-6, 1.0, 1e6])
def test_a_gap_of_a_millionth_of_the_modulus_is_rejected_at_any_scale(lam):
    # the join and closure checks are relative to |q|; floored at
    # |q| = 1, they let this gap through below modulus 1
    p, q = lam * np.array([0.0, 0.6, 0.8, 0.0]), lam * np.array([0.6, 0.8, 0.0, 0.0])
    gap = lam * np.array([0.0, 0.0, 0.0, 1e-6])
    hl.PathSpec(0.0, 2.0, (Line(0.0, 1.0, p, q), Line(1.0, 2.0, q, p)), closed=True)
    with pytest.raises(EndpointMismatch, match="segments do not join continuously"):
        hl.PathSpec(0.0, 2.0, (Line(0.0, 1.0, p, q), Line(1.0, 2.0, q + gap, p)))
    with pytest.raises(EndpointMismatch, match="closed path does not return to its start"):
        hl.PathSpec(0.0, 2.0, (Line(0.0, 1.0, q, p), Line(1.0, 2.0, p, q + gap)), closed=True)


def test_concat_and_reverse():
    spec = circle()
    rev = hl.reverse(spec)
    assert np.allclose(rev.value(rev.a), spec.value(spec.b), atol=1e-12)
    assert np.allclose(
        rev.value(rev.a + 1.0), spec.value(spec.b - 1.0), atol=1e-12
    )
    both = hl.concat(spec, hl.demo("slice_circle(i,1,1)").path)
    assert both.b - both.a == pytest.approx(4 * PI)
    assert np.allclose(both.value(2 * PI + 0.5), spec.value(0.5), atol=1e-12)


def test_concat_reports_a_bad_join_typed():
    octonion = hl.PathSpec(0.0, 2 * PI, (SliceArc(0.0, 2 * PI, (0.0, 1.0) + (0.0,) * 6,
                                                  0.0, 2 * PI),), closed=True)
    with pytest.raises(DimensionMismatch) as e:
        hl.concat(circle(), octonion)
    assert str(e.value) == "segment 1 has 8 coefficients, segment 0 has 4"
    with pytest.raises(EndpointMismatch) as e:
        hl.concat(circle(), circle(radius=2.0))
    assert str(e.value) == "segments do not join continuously"


def test_repeat_covers_copies():
    spec = circle()
    three = hl.repeat(spec, 3)
    assert three.b - three.a == pytest.approx(6 * PI)
    for t in (0.3, 2 * PI + 0.3, 4 * PI + 0.3):
        assert np.allclose(three.value(t), spec.value(0.3), atol=1e-12)


def test_subpath_values():
    spec = circle()
    part = hl.subpath(spec, 1.0, 4.0)
    assert part.a == 1.0 and part.b == 4.0
    assert np.allclose(part.value(2.5), spec.value(2.5), atol=1e-12)


def _unit_line(ta, tb, anchors=(None, None)):
    return Line(ta, tb, (1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), *anchors)


@pytest.mark.parametrize("build, error, message", [
    (lambda: hl.PathSpec(0.0, 1.0, ()), ValueError, "a path needs at least one segment"),
    (lambda: hl.PathSpec(1.0, 1.0, (_unit_line(1.0, 1.0, (0.0, 1.0)),)), ValueError,
     "domain must have positive length"),
    (lambda: hl.PathSpec(0.0, 1.0, (_unit_line(0.0, 0.5),)), EndpointMismatch,
     "segments do not cover the domain"),
    (lambda: hl.PathSpec(0.0, 1.0, (_unit_line(0.0, 0.4), _unit_line(0.6, 1.0))),
     EndpointMismatch, "segments are not contiguous"),
    (lambda: hl.repeat(hl.demo("sigma_arc").path, 2), EndpointMismatch,
     "only closed paths can be repeated"),
    (lambda: hl.repeat(circle(), 0), ValueError, "repeat count must be positive"),
    (lambda: hl.subpath(circle(), 1.0, 7.0), OutOfDomain, "subpath bounds outside the domain"),
    (lambda: hl.rotate_basepoint(hl.demo("sigma_arc").path, 2.0), EndpointMismatch,
     "only closed paths can be re-rooted"),
], ids=["no_segments", "zero_length", "uncovered", "gap", "repeat_open", "repeat_zero",
        "subpath_outside", "reroot_open"])
def test_unusable_paths_are_rejected(build, error, message):
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == message


def test_rotate_basepoint_wraps_values():
    spec = circle()
    rot = hl.rotate_basepoint(spec, 1.5)
    assert rot.closed
    assert np.allclose(rot.value(rot.a), spec.value(1.5), atol=1e-12)
    assert np.allclose(
        rot.value(rot.a + 2 * PI - 1.5 + 0.25), spec.value(0.25), atol=1e-12
    )


def test_reflect_negconj():
    spec = hl.demo("sigma_arc").path
    ref = hl.reflect_negconj(spec)
    for t in np.linspace(spec.a, spec.b, 17):
        v = spec.value(float(t))
        w = ref.value(float(t))
        assert w[0] == pytest.approx(-v[0], abs=1e-12)
        assert np.allclose(w[1:], v[1:], atol=1e-12)


@pytest.mark.parametrize("reflected, want", [
    (lambda: hl.subpath(hl.demo("sigma_hat").path, 2.0, 4.0),
     lambda: hl.subpath(hl.demo("sigma_arc").path, 2.0, 4.0)),
    (lambda: hl.rotate_basepoint(hl.demo("rocket_pos").path, 0.13),
     lambda: hl.rotate_basepoint(hl.demo("rocket_neg").path, 0.13)),
], ids=["subpath", "rotate_basepoint"])
def test_reflecting_a_piece_of_a_reflected_path_undoes_the_reflection(reflected, want):
    # the reflection is its own inverse on a piece too: the unwrapped
    # inner segment takes the piece's interval, not its own
    got, want = hl.reflect_negconj(reflected()), want()
    assert (got.a, got.b, got.closed) == (want.a, want.b, want.closed)
    ts = np.linspace(want.a, want.b, 257)
    assert got.values(ts).tobytes() == want.values(ts).tobytes()


def samples_loop():
    """A closed Samples segment through uniform samples of a circle."""
    sp = hl.sample_uniform(circle(), 65)
    seg = Samples(0.0, 2 * PI, tuple(sp.params.tolist()),
                  tuple(map(tuple, sp.values.tolist())))
    return hl.PathSpec(0.0, 2 * PI, (seg,), closed=True)


def test_json_round_trip_all_demos():
    names = [
        "sigma_arc",
        "sigma_hat",
        "rocket_neg",
        "rocket_pos",
        "lambda_loop",
        "three_exp",
        "gamma1m_gamma2(2)",
        "meridians",
        "slice_circle(k,2,1)",
    ]
    specs = [hl.demo(name).path for name in names] + [samples_loop()]
    for spec in specs:
        span = spec.b - spec.a
        for p in (spec, hl.reverse(spec),
                  hl.subpath(spec, spec.a + 0.1 * span, spec.a + 0.6 * span)):
            back = hl.path_from_json(json.loads(json.dumps(hl.path_to_json(p))))
            assert back == p


Q4 = (1.0, 0.0, 0.0, 0.0)


# one segment of each kind and its JSON, keys in file order: renaming or
# reordering a dataclass field changes the file format and fails here
FILE_FORMAT = [
    (SliceArc(0.0, 1.0, (0.0, 0.0, 1.0, 0.0), 0.0, 2.0, radius=3.0),
     {"kind": "slice_arc", "ta": 0.0, "tb": 1.0, "unit": [0.0, 0.0, 1.0, 0.0],
      "angle_a": 0.0, "angle_b": 2.0, "center": 0.0, "radius": 3.0,
      "anchor_a": 0.0, "anchor_b": 1.0}),
    (Arc(0.0, 2.0, Q4, (0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), 0.0, PI),
     {"kind": "arc", "ta": 0.0, "tb": 2.0, "center": [1.0, 0.0, 0.0, 0.0],
      "cos_vec": [0.5, 0.0, 0.0, 0.0], "sin_vec": [0.0, 0.5, 0.0, 0.0],
      "angle_a": 0.0, "angle_b": PI, "drift": [0.0, 0.0, 0.0, 0.0],
      "anchor_a": 0.0, "anchor_b": 2.0}),
    (Line(1.0, 2.0, Q4, (2.0, 1.0, 0.0, 0.0), anchor_a=0.0, anchor_b=4.0),
     {"kind": "line", "ta": 1.0, "tb": 2.0, "p0": [1.0, 0.0, 0.0, 0.0],
      "p1": [2.0, 1.0, 0.0, 0.0], "anchor_a": 0.0, "anchor_b": 4.0}),
    (SliceCurve(0.0, 1.0, (0.0, 1.0, 0.0, 0.0), PolyFn((1.0, 2.0)), PolyFn((3.0,))),
     {"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
      "x_fn": {"kind": "poly", "coeffs": [1.0, 2.0]},
      "y_fn": {"kind": "poly", "coeffs": [3.0]}}),
    (SliceCurve(0.0, 1.0, (0.0, 0.0, 0.0, 1.0),
                TrigFn(2.0, ((1, 0.5),), ()), TrigFn(0.0, (), ((2, 1.5), (3, 0.25)))),
     {"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 0.0, 0.0, 1.0],
      "x_fn": {"kind": "trig", "a0": 2.0, "cos": [[1, 0.5]], "sin": []},
      "y_fn": {"kind": "trig", "a0": 0.0, "cos": [], "sin": [[2, 1.5], [3, 0.25]]}}),
    (Samples(0.0, 1.0, (0.0, 0.5, 1.0), (Q4, (0.0, 1.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0))),
     {"kind": "samples", "ta": 0.0, "tb": 1.0, "ts": [0.0, 0.5, 1.0],
      "points": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]}),
    (Rocket(0.0, 1.0),
     {"kind": "rocket", "ta": 0.0, "tb": 1.0, "anchor_a": 0.0, "anchor_b": 1.0}),
    (Reparam(1.0, 2.0, NegConj(0.0, 1.0, Line(0.0, 1.0, Q4, (2.0, 0.0, 0.0, 0.0))),
             -1.0, 2.0),
     {"kind": "reparam", "ta": 1.0, "tb": 2.0,
      "inner": {"kind": "negconj", "ta": 0.0, "tb": 1.0,
                "inner": {"kind": "line", "ta": 0.0, "tb": 1.0,
                          "p0": [1.0, 0.0, 0.0, 0.0], "p1": [2.0, 0.0, 0.0, 0.0],
                          "anchor_a": 0.0, "anchor_b": 1.0}},
      "alpha": -1.0, "beta": 2.0}),
]


@pytest.mark.parametrize("seg, doc", FILE_FORMAT)
def test_segment_file_format(seg, doc):
    assert json.dumps(segment_to_json(seg)) == json.dumps(doc)
    assert segment_from_json(doc) == seg


@pytest.mark.parametrize("ts, rows, message", [
    # interpolation through these knots would give (2.14, -0.14, 0, 0) at
    # the knot 0.6, whose value is (2, 1, 0, 0)
    ([0.0, 0.6, 0.3, 1.0], 4, "at least 2 strictly increasing ts"),
    ([0.0, 0.5, 0.5, 1.0], 4, "at least 2 strictly increasing ts"),
    ([0.0], 1, "at least 2 strictly increasing ts"),
    ([0.0, 0.5, 1.0], 2, "one points row per knot: 2 rows for 3 knots"),
    ([0.0, 0.5, 1.0], 4, "one points row per knot: 4 rows for 3 knots"),
])
def test_samples_check_their_knots(ts, rows, message):
    points = [[1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [3.0, -1.0, 0.0, 0.0],
              [1.0, 1.0, 0.0, 0.0]][:rows]
    with pytest.raises(ValueError, match=message):
        Samples(0.0, 1.0, tuple(ts), tuple(map(tuple, points)))
    doc = {"kind": "samples", "ta": 0.0, "tb": 1.0, "ts": ts, "points": points}
    with pytest.raises(ValueError, match=message):
        segment_from_json(doc)
    with pytest.raises(ValueError, match=message):
        hl.path_from_json({"domain": [0.0, 1.0], "closed": True, "segments": [doc]})


def test_defaulted_segment_fields_are_optional():
    doc = {"kind": "arc", "ta": 0.0, "tb": 2.0, "center": [1.0, 0.0, 0.0, 0.0],
           "cos_vec": [0.5, 0.0, 0.0, 0.0], "sin_vec": [0.0, 0.5, 0.0, 0.0],
           "angle_a": 0.0, "angle_b": PI}
    assert segment_from_json(doc) == FILE_FORMAT[1][0]
    assert segment_from_json({"kind": "rocket", "ta": 0.0, "tb": 1.0}) == Rocket(0.0, 1.0)


LINE = {"kind": "line", "ta": 0.0, "tb": 1.0,
        "p0": [1.0, 0.0, 0.0, 0.0], "p1": [2.0, 0.0, 0.0, 0.0]}


@pytest.mark.parametrize("doc, message", [
    ({k: v for k, v in LINE.items() if k != "p1"}, "line segment lacks field(s) ['p1']"),
    ({**LINE, "anchr_a": 0.0}, "line segment has unknown field(s) ['anchr_a']"),
    ({k: v for k, v in LINE.items() if k != "kind"}, "a segment needs a kind"),
    ({"kind": "negconj", "ta": 0.0, "tb": 1.0, "inner": {**LINE, "radius": 1.0}},
     "line segment has unknown field(s) ['radius']"),
    ({"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
      "x_fn": {"kind": "poly", "coefs": [1.0]}, "y_fn": {"kind": "poly", "coeffs": [1.0]}},
     "poly function has unknown field(s) ['coefs']"),
    ({"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
      "x_fn": {"kind": "poly", "coeffs": [1.0], "coefs2": [3]},
      "y_fn": {"kind": "poly", "coeffs": [1.0]}},
     "poly function has unknown field(s) ['coefs2']"),
    ({"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
      "x_fn": {"kind": "poly", "coeffs": [1.0]},
      "y_fn": {"kind": "trig", "a0": 0.0, "cos": [], "sin": [], "tan": [], "amp": 1}},
     "trig function has unknown field(s) ['amp', 'tan']"),
])
def test_malformed_segment_json_rejected(doc, message):
    with pytest.raises(ValueError) as e:
        segment_from_json(doc)
    assert str(e.value) == message


CIRCLE = {"kind": "slice_arc", "ta": 0.0, "tb": 2 * PI, "unit": [0.0, 1.0, 0.0, 0.0],
          "angle_a": 0.0, "angle_b": 2 * PI}
NUMBER = "a number of magnitude at most 1e150"
NUMBERS = "a list of numbers of magnitude at most 1e150, or of such lists"


@pytest.mark.parametrize("key, value, wanted", [
    ("radius", "2", NUMBER),
    ("radius", math.nan, NUMBER),
    ("radius", -math.inf, NUMBER),
    ("radius", 1e200, NUMBER),
    ("radius", -10 ** 400, NUMBER),
    ("radius", True, NUMBER),
    ("radius", None, NUMBER),
    ("radius", [2.0], NUMBER),
    ("unit", 5, NUMBERS),
    ("unit", [0.0, "1", 0.0, 0.0], NUMBERS),
    ("unit", [0.0, math.nan, 0.0, 0.0], NUMBERS),
    ("unit", {"kind": "line"}, NUMBERS),
])
def test_wrongly_typed_field_rejected(key, value, wanted):
    with pytest.raises(ValueError) as e:
        segment_from_json({**CIRCLE, key: value})
    assert str(e.value).startswith(f"slice_arc segment field {key!r} must be {wanted}, got ")


def test_wrongly_typed_nested_kinds_rejected():
    doc = {"kind": "negconj", "ta": 0.0, "tb": 1.0, "inner": [1.0]}
    with pytest.raises(ValueError, match="negconj segment field 'inner' must be an object"):
        segment_from_json(doc)
    fn = {"kind": "trig", "a0": "1", "cos": [], "sin": []}
    with pytest.raises(ValueError, match="trig function field 'a0' must be a number"):
        segment_from_json({"kind": "slice_curve", "ta": 0.0, "tb": 1.0,
                           "unit": [0.0, 1.0, 0.0, 0.0], "x_fn": fn, "y_fn": fn})
    with pytest.raises(ValueError, match="unknown segment kind 'cubic'"):
        segment_from_json({"kind": "cubic"})


def test_nested_kind_of_the_wrong_family_rejected():
    # a segment where a coordinate function belongs, and the other way round
    rocket = {"kind": "rocket", "ta": 0.0, "tb": 1.0}
    poly = {"kind": "poly", "coeffs": [1.0]}
    curve = {"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
             "x_fn": rocket, "y_fn": poly}
    with pytest.raises(ValueError) as e:
        segment_from_json(curve)
    assert str(e.value) == (
        "slice_curve segment field 'x_fn' must be an object with a function kind, "
        "poly or trig, got {'kind': 'rocket', 'ta': 0.0, 'tb': 1.0}")
    with pytest.raises(ValueError) as e:
        segment_from_json({"kind": "reparam", "ta": 0.0, "tb": 1.0, "inner": poly,
                           "alpha": 1.0, "beta": 0.0})
    assert str(e.value) == ("reparam segment field 'inner' must be an object with a "
                            "segment kind, got {'coeffs': [1.0], 'kind': 'poly'}")


def test_unhashable_kind_rejected():
    with pytest.raises(ValueError, match=r"unknown segment kind \['line'\]"):
        segment_from_json({"kind": ["line"], "ta": 0.0, "tb": 1.0})


def test_path_end_values_beyond_the_largest_magnitude_rejected():
    # the modulus of such a value overflows: the path is refused before
    # any norm is taken, so no overflow warning is raised either
    huge = SliceArc(0.0, 2 * PI, (0.0, 1.0, 0.0, 0.0), 0.0, 2 * PI, radius=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="segment 0 has an end value"):
            hl.PathSpec(0.0, 2 * PI, (huge,), closed=True)
        with pytest.raises(ValueError, match="segment 1 has an end value"):
            hl.PathSpec(0.0, 4 * PI, (SliceArc(0.0, 2 * PI, (0.0, 1.0, 0.0, 0.0), 0.0, 2 * PI),
                                      dataclasses.replace(huge, ta=2 * PI, tb=4 * PI)))
        with pytest.raises(ValueError, match="segment 0 has an end value"):
            hl.PathSpec(0.0, 2 * PI, (dataclasses.replace(huge, radius=math.nan),))
    # the largest magnitude itself is accepted
    assert hl.PathSpec(0.0, 2 * PI, (dataclasses.replace(huge, radius=1e150),)).dim == 4


def test_null_only_where_the_default_is_none():
    assert segment_from_json({**CIRCLE, "anchor_a": None, "anchor_b": None}) == \
        segment_from_json(CIRCLE)


def test_non_finite_library_input_rejected_when_decoded():
    # library callers do not pass the command line's JSON reader, which
    # rejects non-finite literals before decoding
    doc = hl.path_to_json(circle())
    doc["segments"][0]["radius"] = math.nan
    with pytest.raises(ValueError, match="field 'radius' must be a number"):
        hl.path_from_json(doc)
    doc = hl.path_to_json(circle())
    doc["domain"] = [0.0, math.inf]
    with pytest.raises(ValueError, match="a path's 'domain' must be two numbers"):
        hl.path_from_json(doc)


def test_path_json_closed_flag_must_be_a_bool():
    doc = hl.path_to_json(circle())
    doc["closed"] = "false"
    with pytest.raises(ValueError, match="a path's 'closed' must be true or false"):
        hl.path_from_json(doc)


def test_trig_frequencies_are_whole_numbers():
    fn = {"kind": "trig", "a0": 0.0, "cos": [[1.5, 1.0]], "sin": []}
    doc = {"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
           "x_fn": {"kind": "poly", "coeffs": [1.0]}, "y_fn": fn}
    with pytest.raises(ValueError, match=r"not whole numbers: .*cos=\(\(1.5, 1.0\),\)"):
        segment_from_json(doc)
    with pytest.raises(ValueError, match="not whole numbers"):
        TrigFn(0.0, (), ((2.5, 1.0),))
    fn["cos"] = [[1.0, 1.0]]
    seg = segment_from_json(doc)
    assert seg == SliceCurve(0.0, 1.0, (0.0, 1.0, 0.0, 0.0), PolyFn((1.0,)),
                             TrigFn(0.0, ((1, 1.0),), ()))
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(seg.y_fn(ts), np.cos(ts))


def test_unregistered_segment_is_unserialisable():
    curve = SliceCurve(0.0, 1.0, (0.0, 1.0, 0.0, 0.0), np.cos, PolyFn((1.0,)))
    with pytest.raises(ValueError, match="unserialisable segment type"):
        segment_to_json(Reparam(0.0, 1.0, curve, 1.0, 0.0))


@pytest.mark.parametrize("key", ["domain", "segments"])
def test_path_json_needs_domain_and_segments(key):
    doc = {"domain": [0.0, 1.0], "closed": False, "segments": [LINE]}
    del doc[key]
    with pytest.raises(ValueError, match=key):
        hl.path_from_json(doc)


def test_path_json_with_a_misspelt_closed_flag_rejected():
    doc = {"domain": [0.0, 1.0], "close": False, "segments": [LINE]}
    with pytest.raises(ValueError, match=r"unknown field\(s\) \['close'\]"):
        hl.path_from_json(doc)


def test_segments_of_different_widths_rejected():
    a = Line(0.0, 1.0, Q4, (2.0, 0.0, 0.0, 0.0))
    b = Line(1.0, 2.0, (2.0,) + (0.0,) * 7, (3.0,) + (0.0,) * 7)
    with pytest.raises(DimensionMismatch, match="segment 1 has 8 coefficients"):
        hl.PathSpec(0.0, 2.0, (a, b))


@pytest.mark.parametrize("width", [2, 3, 5, 7, 9])
def test_a_path_of_neither_quaternions_nor_octonions_rejected(width):
    line = {"kind": "line", "ta": 0.0, "tb": 1.0,
            "p0": [1.0] * width, "p1": [2.0] + [1.0] * (width - 1)}
    doc = {"domain": [0.0, 1.0], "closed": False, "segments": [line]}
    with pytest.raises(DimensionMismatch, match=f"segment 0 has {width} coefficients"):
        hl.path_from_json(doc)


@pytest.mark.parametrize("segment", [
    {"kind": "line", "ta": 0.0, "tb": 1.0, "p0": [1.0, 1.0, 0.0, 0.0], "p1": [2.0, 1.0, 0.0, 0.0],
     "anchor_a": 0.5, "anchor_b": 0.5},
    {"kind": "slice_arc", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
     "angle_a": 0.0, "angle_b": 1.0, "anchor_a": 2.0, "anchor_b": 2.0},
    {"kind": "arc", "ta": 0.0, "tb": 1.0, "center": [0.0] * 4, "cos_vec": [1.0, 0.0, 0.0, 0.0],
     "sin_vec": [0.0, 1.0, 0.0, 0.0], "angle_a": 0.0, "angle_b": 1.0,
     "anchor_a": 1.0, "anchor_b": 1.0},
    {"kind": "rocket", "ta": 0.0, "tb": 1.0, "anchor_a": 0.0, "anchor_b": 0.0},
], ids=["line", "slice_arc", "arc", "rocket"])
def test_a_segment_with_equal_anchors_rejected(segment):
    # its shape would be laid out over no interval: every value divides
    # by zero
    doc = {"domain": [0.0, 1.0], "closed": False, "segments": [segment]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="has equal anchors"):
            hl.path_from_json(doc)


# segments sharing one inner are evaluated in one call, which must still
# check every join of every copy
ARC = SliceArc(0.0, 2 * PI, (0.0, 1.0, 0.0, 0.0), PI, 3 * PI)
ARC8 = SliceArc(0.0, 2 * PI, (0.0, 1.0) + (0.0,) * 6, PI, 3 * PI)


def copies(*inners):
    """Copy k of inners[k] laid over [2 pi k, 2 pi (k + 1)]."""
    return tuple(Reparam(2 * PI * k, 2 * PI * (k + 1), inner, 1.0, -2 * PI * k)
                 for k, inner in enumerate(inners))


def test_shared_inner_discontinuity_rejected():
    segs = list(copies(ARC, ARC, ARC, ARC))
    segs[2] = dataclasses.replace(segs[2], beta=segs[2].beta + 1.0)
    with pytest.raises(EndpointMismatch, match="segments do not join continuously"):
        hl.PathSpec(0.0, 8 * PI, tuple(segs), closed=True)


def test_shared_inner_closure_mismatch_rejected():
    # three quarters of the circle, in three pieces of one inner
    segs = tuple(Reparam(0.5 * PI * k, 0.5 * PI * (k + 1), ARC, 1.0, 0.0) for k in range(3))
    assert hl.PathSpec(0.0, 1.5 * PI, segs).dim == 4
    with pytest.raises(EndpointMismatch, match="closed path does not return to its start"):
        hl.PathSpec(0.0, 1.5 * PI, segs, closed=True)


def test_shared_inner_width_mismatch_rejected():
    with pytest.raises(DimensionMismatch) as e:
        hl.PathSpec(0.0, 10 * PI, copies(ARC, ARC, ARC8, ARC, ARC8), closed=True)
    assert str(e.value) == "segment 2 has 8 coefficients, segment 0 has 4"
    # the first failing join is reported, whatever fails at a later one
    segs = list(copies(ARC, ARC, ARC, ARC8))
    segs[2] = dataclasses.replace(segs[2], beta=segs[2].beta + 1.0)
    with pytest.raises(EndpointMismatch, match="segments do not join continuously"):
        hl.PathSpec(0.0, 8 * PI, tuple(segs))


def test_dim_is_the_width_of_the_values():
    assert circle().dim == 4
    assert samples_loop().dim == 4
    octo = hl.PathSpec(0.0, 1.0, (Line(0.0, 1.0, (1.0,) + (0.0,) * 7, (2.0,) + (0.0,) * 7),))
    assert octo.dim == 8
    assert octo.values(np.empty(0)).shape == (0, 8)


def test_sampled_csv_round_trip():
    sp = hl.sample_uniform(circle(), 33)
    back = SampledPath.from_csv(sp.to_csv())
    assert np.array_equal(back.params, sp.params)
    assert np.array_equal(back.values, sp.values)


def test_uniform_sampling_rejects_zero():
    line = Line(0.0, 1.0, (-1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    spec = hl.PathSpec(0.0, 1.0, (line,))
    with pytest.raises(ZeroOnPath):
        hl.sample_uniform(spec, 65)


def test_adaptive_sampler_resolves_rotation():
    sp = hl.sample_adaptive(circle(), n0=64)
    units = sp.values[:, 1:]
    keep = np.linalg.norm(units, axis=1) > 1e-6
    u = units[keep] / np.linalg.norm(units[keep], axis=1, keepdims=True)
    dots = np.einsum("nd,nd->n", u[1:], u[:-1])
    # up to sign (the raw direction flips across the axis), neighbouring
    # samples stay within the rotation tolerance
    assert np.all(np.abs(dots) > math.cos(0.11))
    # modulus is constant on the circle, so refinement stays moderate
    assert len(sp.params) < 5000


def test_adaptive_sampler_gives_up_on_spinning_direction():
    with pytest.raises(RefinementBudgetExceeded) as err:
        hl.sample_adaptive(hl.demo("rocket_neg").path, n0=64)
    assert err.value.unresolved
    t0, _t1 = err.value.unresolved[0]
    assert t0 < 1e-3
    assert err.value.sampled is not None
    assert len(err.value.sampled.params) > 64


@pytest.mark.parametrize("n0", [0, -3, 2.5])
def test_adaptive_sampler_needs_at_least_one_interval(n0):
    with pytest.raises(ValueError, match="n0 must be an integer >= 1"):
        hl.sample_adaptive(circle(), n0)


def test_adaptive_sampler_splits_near_contacts():
    # beside a real node the sampler halves while the direction still
    # turns: near its contact with the axis at t = 0, the direction of
    # this arc, (sin t) i + 100 (1 - cos t) j, turns about 100 times as
    # fast as t runs
    arc = Arc(-1.0, 1.0, (2.0, 0.0, 100.0, 0.0), (0.0, 0.0, -100.0, 0.0),
              (0.0, 1.0, 0.0, 0.0), -1.0, 1.0)
    sp = hl.sample_adaptive(hl.PathSpec(-1.0, 1.0, (arc,)), n0=64)
    gaps = np.diff(sp.params)
    near = np.abs(sp.params[:-1]) < 0.05
    assert sp.real[sp.params == 0.0].tolist() == [True]
    assert gaps[near].min() <= gaps.max() / 8.0
    # and stops where it does not, leaving the end of the real set to
    # find_obstructions: beside the circle's real node at pi the first
    # grid's step stays
    sp = hl.sample_adaptive(circle(), n0=64)
    k = np.flatnonzero(sp.real & (np.abs(sp.params - PI) < 1e-9))
    assert len(k) == 1
    assert np.diff(sp.params)[k[0] - 1:k[0] + 1] == pytest.approx([2 * PI / 64] * 2)


# ---------------------------------------------------------------------------
# the per-sample geometry a SampledPath carries


def scanned_stretches(real):
    """The (start, stop) of each maximal run of True, one flag at a time."""
    out, start = [], None
    for n, flag in enumerate(list(real) + [False]):
        if flag and start is None:
            start = n
        elif not flag and start is not None:
            out.append((start, n))
            start = None
    return out


def check_geometry(sp):
    """The grid's geometry is each value's own, taken one sample at a time."""
    mags = np.array([np.linalg.norm(v) for v in sp.values])
    ims = np.array([np.linalg.norm(v[1:]) for v in sp.values])
    real = config.DEFAULT.is_real(ims, mags)
    units = np.array([np.zeros(sp.dim - 1) if r else v[1:] / m
                      for v, m, r in zip(sp.values, ims, real)])
    for got, want in ((sp.mags, mags), (sp.ims, ims), (sp.real, real)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # equal values: a real sample's zero unit may be -0.0
    assert sp.units.dtype == units.dtype and np.array_equal(sp.units, units)
    assert [tuple(row) for row in sp.stretches.tolist()] == scanned_stretches(sp.real)
    for a in (sp.mags, sp.ims, sp.real, sp.units, sp.stretches):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_sampled_geometry_matches_fresh_norms():
    grids = []
    for _key, spec in corpus_paths():
        sp = sample_path(spec)[0]
        grids += [sp, SampledPath.from_csv(sp.to_csv()), hl.sample_uniform(spec, 257)]
        if spec.closed and not sp.real.all():
            i_star = int(np.argmax(sp.ims))
            grids.append(winding._reroot(sp, spec, sp.params[i_star]))
    # on these two values np.linalg.norm(axis=1) and the one-value norm
    # disagree on realness: the first is real alone, the second is not
    near_axis = np.array([
        [0.5424795067181944, 1.1979542752483845e-11, -5.423296291423734e-10,
         -4.367965081453633e-12],
        [1.6201873210740834, 2.460976954952558e-10, -1.4474151182226448e-09,
         6.851513374296713e-10]])
    grids.append(SampledPath(np.array([0.0, 1.0]), near_axis))
    assert grids[-1].real.tolist() == [True, False]
    for sp in grids:
        check_geometry(sp)
    # the inputs hold real stretches at the start, inside and at the end
    stretches = [(i, j, len(sp.params)) for sp in grids for i, j in sp.stretches.tolist()]
    assert any(i == 0 for i, _j, _n in stretches)
    assert any(0 < i and j < n for i, j, n in stretches)
    assert any(j == n for _i, j, n in stretches)


def test_crossing_brackets_hold_a_reversal_between_non_real_ends():
    # both halves of a crossing are aligned within theta_tol, so the ends
    # of the half that holds the reversal are opposite within twice that
    cos_tol = math.cos(2.0 * config.THETA_TOL)
    seen = 0
    for key, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        k = _crossing_brackets(sp)
        assert np.all(np.diff(k) > 0), key
        assert not len(k) or (0 <= k[0] and k[-1] < len(sp.params) - 1), key
        assert not (sp.real[k] | sp.real[k + 1]).any(), key
        u = sp.values[:, 1:] / np.where(sp.real, 1.0, sp.ims)[:, None]
        assert np.all(np.einsum("nd,nd->n", u[k], u[k + 1]) <= -cos_tol), key
        # each bracket holds a contact of the report, or lies within
        # 1e-4 of the span of one: a root found that near a known item
        # is that item
        ts = np.array([c.t for c in hl.find_obstructions(sp, spec).contacts])
        near = 1e-4 * (spec.b - spec.a)
        for lo, hi in zip(sp.params[k], sp.params[k + 1]):
            assert ((ts >= lo - near) & (ts <= hi + near)).any(), (key, lo, hi)
        seen += len(k)
    assert seen > 100


def test_a_grid_read_back_from_csv_keeps_its_report():
    # the report reads everything off the grid's parameters and values
    for key, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        back = SampledPath.from_csv(sp.to_csv())
        assert to_json(hl.find_obstructions(back, spec)) == to_json(
            hl.find_obstructions(sp, spec)), key


def test_sampled_geometry_is_not_a_field():
    sp = hl.sample_uniform(circle(), 9)
    assert [f.name for f in dataclasses.fields(sp)] == ["params", "values", "tol"]
    assert "mags" not in repr(sp)


@pytest.mark.parametrize("modulus", [0.0, 1e-10])
def test_sampled_path_rejects_a_zero_row(modulus):
    values = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, modulus, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ZeroOnPath):
        SampledPath(np.array([0.0, 0.5, 1.0]), values)
