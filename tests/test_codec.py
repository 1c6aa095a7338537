"""The one encoder and the one CSV writer give the hand-written formats.

The reference encoders below are the per-class codecs that the field-
derived ones replaced: a JSON method on each coordinate function, a
field-by-field report encoder and one CSV loop per table.  The derived
codecs must give the same text, byte for byte, on the corpus paths and
their variants and on random single-slice loops, which hold TrigFns.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

import hyperlog as hl
from hyperlog.companion import shadow_of
from hyperlog.errors import HyperlogError
from hyperlog.obstruction import find_obstructions
from hyperlog.pathkit import (
    Arc,
    Line,
    NegConj,
    PolyFn,
    Reparam,
    Rocket,
    Samples,
    SliceArc,
    SliceCurve,
    TrigFn,
    path_to_json,
    sample_path,
    to_json,
)

from test_acceptance import single_slice_loop
from test_batched_eval import corpus_paths, variants

# ---------------------------------------------------------------------------
# reference encoders


def ref_fn_to_json(fn):
    if isinstance(fn, PolyFn):
        return {"kind": "poly", "coeffs": list(fn.coeffs)}
    return {
        "kind": "trig",
        "a0": fn.a0,
        "cos": [list(p) for p in fn.cos],
        "sin": [list(p) for p in fn.sin],
    }


def ref_field_to_json(v):
    if isinstance(v, tuple):
        return [list(row) for row in v] if v and isinstance(v[0], tuple) else list(v)
    if isinstance(v, (float, int)) or v is None:
        return v
    if isinstance(v, (PolyFn, TrigFn)):
        return ref_fn_to_json(v)
    return ref_segment_to_json(v)


KINDS = {
    SliceArc: "slice_arc",
    Arc: "arc",
    Line: "line",
    SliceCurve: "slice_curve",
    Samples: "samples",
    Rocket: "rocket",
    NegConj: "negconj",
    Reparam: "reparam",
}


def ref_segment_to_json(seg):
    d = {"kind": KINDS[type(seg)]}
    for f in fields(seg):
        d[f.name] = ref_field_to_json(getattr(seg, f.name))
    return d


def ref_path_to_json(p):
    return {
        "domain": [p.a, p.b],
        "closed": p.closed,
        "segments": [ref_segment_to_json(s) for s in p.segments],
    }


def ref_report_to_json(rep):
    def d(u):
        return list(u) if u is not None else None

    return {
        "closed": rep.closed,
        "tame": rep.tame,
        "companion_unique": rep.companion_unique,
        "contacts": [
            {
                "t": c.t,
                "value": c.value,
                "sign": c.sign,
                "left_dir": d(c.left_dir),
                "right_dir": d(c.right_dir),
                "kind": c.kind,
                "wrap": c.wrap,
            }
            for c in rep.contacts
        ],
        "runs": [
            {
                "t0": r.t0,
                "t1": r.t1,
                "sign": r.sign,
                "in_dir": d(r.in_dir),
                "out_dir": d(r.out_dir),
                "wrap": r.wrap,
            }
            for r in rep.runs
        ],
        "big_arcs": [list(a) for a in rep.big_arcs],
        "intervals": [
            {
                "t0": iv.t0,
                "t1": iv.t1,
                "sign": iv.sign,
                "kind": iv.kind,
                "non_unique": iv.non_unique,
                "wrap": iv.wrap,
            }
            for iv in rep.intervals
        ],
    }


def ref_sampled_csv(sp):
    lines = [",".join(["t", "re"] + [f"im{c}" for c in range(1, sp.dim)])]
    for t, row in zip(sp.params, sp.values):
        lines.append(",".join([repr(float(t))] + [repr(float(x)) for x in row]))
    return "\n".join(lines) + "\n"


def ref_lift_csv(lift):
    dim = lift.values.shape[1]
    header = ["t"] + [f"c{c}" for c in range(dim)] + ["k"]
    ks = np.floor(lift.arg / math.pi).astype(int)
    lines = [",".join(header)]
    for n, t in enumerate(lift.params):
        row = [repr(float(t))] + [repr(float(x)) for x in lift.values[n]]
        row.append(str(int(ks[n])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ref_shadow_csv(shadow):
    lines = ["t,x,y"]
    for t, x, y in zip(shadow.params, shadow.x, shadow.y):
        lines.append(",".join(repr(float(c)) for c in (t, x, y)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def trig_loops():
    rng = np.random.default_rng(14)
    for n in range(6):
        spec = single_slice_loop(rng)[0]
        for kind, v in variants(spec).items():
            yield f"trig{n}/{kind}", v


PATHS = list(corpus_paths()) + list(trig_loops())


def answer(question):
    """The answer to a question, or None when the library refuses it."""
    try:
        return question()
    except HyperlogError:
        return None


@pytest.mark.parametrize("name, spec", PATHS, ids=[name for name, _ in PATHS])
def test_derived_codecs_match_the_hand_written_ones(name, spec):
    assert json.dumps(path_to_json(spec)) == json.dumps(ref_path_to_json(spec))
    sampled, _ = sample_path(spec)
    assert sampled.to_csv() == ref_sampled_csv(sampled)
    rep = find_obstructions(sampled, spec)
    assert (json.dumps(to_json(rep), sort_keys=True)
            == json.dumps(ref_report_to_json(rep), sort_keys=True))
    lift = answer(lambda: hl.lift_path(spec).lift)
    if lift is not None:
        assert lift.to_csv() == ref_lift_csv(lift)
    shadow = answer(lambda: shadow_of(sampled, rep))
    if shadow is not None:
        assert shadow.to_csv() == ref_shadow_csv(shadow)
