"""A registry of named example paths with their known behaviour.

Each demo bundles a path, the companion directives it supports, useful
basepoints, and a record of expected analysis results that the test
suite checks end to end.  Parameterised demos are requested with
call-style names, e.g. "gamma1m_gamma2(3)" or "slice_circle(j,2,1)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UnknownDemo
from .pathkit import (
    MAX_MAGNITUDE,
    Arc,
    Line,
    PathSpec,
    PolyFn,
    Rocket,
    SliceArc,
    SliceCurve,
    concat,
    reflect_negconj,
    repeat,
)

PI = math.pi

_AXES = {
    "i": (0.0, 1.0, 0.0, 0.0),
    "j": (0.0, 0.0, 1.0, 0.0),
    "k": (0.0, 0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class DemoCase:
    name: str
    path: PathSpec
    expected: dict
    directives: dict = field(default_factory=dict)
    basepoints: dict = field(default_factory=dict)
    initial_units: dict = field(default_factory=dict)
    notes: str = ""


def _sigma_arc() -> DemoCase:
    """Half circle that changes slice at -1: semi-tame, no continuation."""
    seg1 = SliceArc(PI / 2, PI, _AXES["i"], PI / 2, PI)
    seg2 = SliceArc(PI, 3 * PI / 2, (0.0, 0.0, -1.0, 0.0), PI, 3 * PI / 2)
    path = PathSpec(PI / 2, 3 * PI / 2, (seg1, seg2))
    return DemoCase(
        name="sigma_arc",
        path=path,
        expected={
            "contact_kinds": {PI: "semi_tame"},
            "liftable": False,
            "companion_exists": False,
        },
        notes="arrives at -1 along i and leaves it along j",
    )


def _sigma_hat() -> DemoCase:
    """Reflected half circle: contacts +1 with crooked directions, yet
    the principal branch carries the logarithm straight across."""
    base = _sigma_arc()
    return DemoCase(
        name="sigma_hat",
        path=reflect_negconj(base.path),
        expected={
            "contact_kinds": {PI: "semi_tame"},
            "liftable": True,
            "companion_exists": False,
            "max_residual": 1e-8,
        },
    )


def _rocket_neg() -> DemoCase:
    """Loop whose imaginary direction spins endlessly near its contact
    with -1; adaptive sampling gives up by design and no lift exists."""
    path = PathSpec(0.0, 1.0, (Rocket(0.0, 1.0),), closed=True)
    return DemoCase(
        name="rocket_neg",
        path=path,
        expected={
            "contact_kinds": {0.0: "not_tame"},
            "liftable": False,
            "sampling": "uniform_fallback",
        },
    )


def _rocket_pos() -> DemoCase:
    """The same spinning loop reflected to touch +1: misses the closed
    negative axis, so the principal logarithm lifts it anyway."""
    base = _rocket_neg()
    return DemoCase(
        name="rocket_pos",
        path=reflect_negconj(base.path),
        expected={
            "liftable": True,
            "closed_lift": True,
            "max_residual": 1e-8,
            "sampling": "uniform_fallback",
        },
    )


def _lambda_loop() -> DemoCase:
    """A tame twisted loop: bounce at +1, flip at -1, built from a
    parabola in the (i+j)-slice, straight connectors, a half circle in
    the i-slice and a quarter rotation between slices."""
    s = 1.0 / math.sqrt(2.0)
    unit_ij = (0.0, s, s, 0.0)
    parabola = SliceCurve(
        0.0, 2.0, unit_ij,
        PolyFn((1.0, 0.0)),                      # x = t
        PolyFn((math.sqrt(2.0), -2.0 * math.sqrt(2.0), math.sqrt(2.0))),
    )                                            # y = sqrt(2) (t-1)^2
    seg_a = Line(2.0, 3.0, (2.0, 1.0, 1.0, 0.0), (2.0, 1.0, 0.0, 0.0))
    seg_b = Line(3.0, 5.0, (2.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
    half = SliceArc(5.0, 5.0 + PI, _AXES["i"], PI / 2, 3 * PI / 2)
    quarter = Arc(
        5.0 + PI, 5.0 + 3 * PI / 2,
        (0.0, 0.0, 0.0, 0.0), _AXES["i"], _AXES["j"], PI, PI / 2,
    )
    seg_c = Line(
        5.0 + 3 * PI / 2, 6.0 + 3 * PI / 2,
        (0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 1.0, 0.0),
    )
    path = PathSpec(
        0.0, 6.0 + 3 * PI / 2,
        (parabola, seg_a, seg_b, half, quarter, seg_c),
        closed=True,
    )
    return DemoCase(
        name="lambda_loop",
        path=path,
        expected={
            "contact_kinds": {1.0: "bounce", 5.0 + PI / 2: "flip"},
            "tame": True,
            "twisted": True,
            "branch_change": {"plus_one": 1, "minus_one": 0},
        },
        basepoints={"plus_one": 1.0, "minus_one": 5.0 + PI / 2},
        initial_units={"minus_one": (0.0, -1.0, 0.0, 0.0)},
    )


def _three_exp() -> DemoCase:
    """Big and small circle joined by two runs on the real axis.  With
    the constant companion both runs bounce and the winding number is 0;
    with the slice-hopping companion both flip and it is 1."""
    big = SliceArc(0.0, PI, _AXES["i"], 0.0, PI, radius=3.0)
    run1 = Line(PI, 3 * PI, (-3.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0))
    small = SliceArc(3 * PI, 4 * PI, (0.0, -1.0, 0.0, 0.0), 3 * PI, 4 * PI)
    run2 = Line(4 * PI, 6 * PI, (1.0, 0.0, 0.0, 0.0), (3.0, 0.0, 0.0, 0.0))
    path = PathSpec(0.0, 6 * PI, (big, run1, small, run2), closed=True)
    return DemoCase(
        name="three_exp",
        path=path,
        expected={
            "tame": False,
            "winding": {"constant_i": 0, "J_path": 1},
            "circular_signature": {"constant_i": 0, "J_path": 2},
        },
        directives={
            "constant_i": ("bounce", "bounce"),
            "J_path": ("flip", "flip"),
        },
    )


def _gamma1m_gamma2(m: str) -> DemoCase:
    """m positively oriented unit circles from -1 followed by a loop
    that reverses the companion; the argument gain depends on which
    circle copy hosts the basepoint."""
    m = int(m)
    if m < 1:
        raise UnknownDemo("the circle count m must be positive")
    circle = PathSpec(
        0.0, 2 * PI,
        (SliceArc(0.0, 2 * PI, _AXES["i"], PI, 3 * PI),),
        closed=True,
    )
    circles = repeat(circle, m)
    gamma2 = PathSpec(
        0.0, 2 * PI,
        (
            Arc(
                0.0, 2 * PI,
                (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0), _AXES["i"],
                -PI, PI,
            ),
        ),
    )
    path = concat(circles, gamma2, closed=True)
    changes = {f"copy_{c + 1}": m - 2 * c for c in range(m)}
    return DemoCase(
        name=f"gamma1m_gamma2({m})",
        path=path,
        expected={"tame": True, "twisted": True, "branch_change": changes},
        basepoints={f"copy_{c + 1}": 2 * PI * c for c in range(m)},
        initial_units={
            f"copy_{c + 1}": (0.0, 1.0, 0.0, 0.0) for c in range(m)
        },
    )


def _meridians() -> DemoCase:
    """Loop through two meridian-like arcs joined at +1: the joint is
    semi-tame, the interior crossing is a flip, and while the open path
    lifts fine the lift refuses to close up."""
    first = Arc(
        0.0, PI,
        (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), _AXES["i"],
        0.0, PI,
        drift=(0.0, -PI / 10.0, 0.0, 0.0),
    )
    second = Arc(
        PI, 2 * PI,
        (0.0, -PI / 10.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), _AXES["j"],
        PI, 0.0,
        drift=(0.0, PI / 10.0, 0.0, 0.0),
    )
    path = PathSpec(0.0, 2 * PI, (first, second), closed=True)
    return DemoCase(
        name="meridians",
        path=path,
        expected={
            "open_liftable": True,
            "closed_lift": False,
            "closed_nontame_liftable": False,
            "max_residual": 1e-8,
        },
    )


def _slice_circle(axis: str, radius: str, turns: str) -> DemoCase:
    radius, turns = float(radius), int(turns)
    if axis not in _AXES:
        raise UnknownDemo(f"unknown slice axis {axis!r}")
    if not (0 < radius <= MAX_MAGNITUDE) or turns < 1:
        raise UnknownDemo("radius must be positive and at most 1e150, and turns at least 1")
    path = PathSpec(
        0.0, 2 * PI * turns,
        (
            SliceArc(
                0.0, 2 * PI * turns, _AXES[axis], 0.0, 2 * PI * turns,
                radius=radius,
            ),
        ),
        closed=True,
    )
    return DemoCase(
        name=f"slice_circle({axis},{radius:g},{turns})",
        path=path,
        expected={
            "tame": True,
            "twisted": False,
            "winding": turns,
            "circular_signature": 2 * turns,
        },
    )


# each demo's builder and its call-style parameters, which the builder
# takes as strings; a parameter written "name=default" may be left out
_BUILDERS = {
    "sigma_arc": (_sigma_arc, ()),
    "sigma_hat": (_sigma_hat, ()),
    "rocket_neg": (_rocket_neg, ()),
    "rocket_pos": (_rocket_pos, ()),
    "lambda_loop": (_lambda_loop, ()),
    "three_exp": (_three_exp, ()),
    "gamma1m_gamma2": (_gamma1m_gamma2, ("m",)),
    "meridians": (_meridians, ()),
    "slice_circle": (_slice_circle, ("axis=i", "radius=1", "turns=1")),
}


def _usage(base: str) -> str:
    params = [p.partition("=")[0] for p in _BUILDERS[base][1]]
    return f"{base}({','.join(params)})" if params else base


def demo_names() -> list[str]:
    return [_usage(base) for base in _BUILDERS]


def demo(name: str) -> DemoCase:
    """Look up a demo, parsing call-style parameters when present."""
    base = name
    args: list[str] = []
    if "(" in name:
        if not name.endswith(")"):
            raise UnknownDemo(f"malformed demo name {name!r}")
        base, rest = name.split("(", 1)
        argstr = rest[:-1].strip()
        args = [a.strip() for a in argstr.split(",")] if argstr else []
    if base not in _BUILDERS:
        raise UnknownDemo(f"no demo named {base!r}")
    builder, params = _BUILDERS[base]
    left_out = params[len(args):]
    if len(args) > len(params) or any("=" not in p for p in left_out):
        raise UnknownDemo(f"demo {name!r} does not match {_usage(base)}")
    return builder(*args, *(p.partition("=")[2] for p in left_out))
