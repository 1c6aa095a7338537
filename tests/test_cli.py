"""Command line front end: commands, exit codes, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

import hyperlog as hl
from hyperlog import config
from hyperlog.cli import main
from hyperlog.pathkit import to_json


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_demo_list():
    code, out = run_cli("demo", "--list")
    assert code == 0
    doc = json.loads(out)
    assert "sigma_arc" in doc["demos"]


def test_demo_info_and_export():
    code, out = run_cli("demo", "lambda_loop")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed"] is True and doc["expected"]["tame"] is True

    code, out = run_cli("demo", "three_exp", "--export")
    assert code == 0
    doc = json.loads(out)
    assert "segments" in doc


def test_analyze_reports_contacts():
    code, out = run_cli("analyze", "--demo", "slice_circle(i,1,1)")
    assert code == 0
    doc = json.loads(out)
    kinds = sorted(c["kind"] for c in doc["contacts"])
    assert kinds == ["flip", "flip"]
    assert doc["tame"] is True


def test_lift_ok_and_failure_exit_codes():
    code, out = run_cli("lift", "--demo", "slice_circle(i,1,1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok" and doc["closed_lift"] is False

    code, out = run_cli("lift", "--demo", "sigma_arc")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "fails_at" and doc["reason"] == "semi_tame"


def test_lift_with_initial_unit_and_k0():
    code, out = run_cli(
        "lift",
        "--demo",
        "gamma1m_gamma2(1)",
        "--initial-unit",
        "0,1,0,0",
        "--k0",
        "0",
    )
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_initial_unit_may_be_written_with_a_zero_real_part():
    code, short = run_cli("lift", "--demo", "three_exp", "--initial-unit", "1,0,0")
    assert code == 0
    for unit in ("0,1,0,0", "-0.0,1,0,0"):
        assert run_cli("lift", "--demo", "three_exp", f"--initial-unit={unit}") == (0, short)


def test_winding_exit_codes():
    code, out = run_cli(
        "winding", "--demo", "three_exp", "--companion", "J_path"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["winding"] == 1 and doc["twisted"] is False

    code, out = run_cli("winding", "--demo", "lambda_loop")
    assert code == 2
    assert json.loads(out)["twisted"] is True


def test_winding_with_explicit_directives():
    code, out = run_cli(
        "winding",
        "--demo",
        "three_exp",
        "--directive",
        "0=flip",
        "--directive",
        "1=flip",
    )
    assert code == 0
    assert json.loads(out)["winding"] == 1


@pytest.mark.parametrize("argv, message", [
    # a companion is a demo's, and is not ignored on a path from a file
    (["winding", "--demo", "lambda_loop", "--companion", "no_such_companion"],
     "demo lambda_loop has no companion named 'no_such_companion'"),
    (["winding", "--input", "lambda_loop.json", "--companion", "no_such_companion"],
     "--companion names a companion of a demo and needs --demo"),
    (["winding", "--input", "lambda_loop.json", "--companion", "J_path"],
     "--companion names a companion of a demo and needs --demo"),
    # an index is a non-negative integer; -1 selected no axis interval
    (["lift", "--demo", "three_exp", "--directive=-1=flip"],
     "directive must be <index>=flip|bounce, got '-1=flip'"),
    (["lift", "--demo", "three_exp", "--directive", "x=flip"],
     "directive must be <index>=flip|bounce, got 'x=flip'"),
    (["lift", "--demo", "three_exp", "--directive", "0=twist"],
     "directive must be <index>=flip|bounce, got '0=twist'"),
    # an index given twice is an error, not the last value kept
    (["winding", "--demo", "three_exp", "--directive", "0=flip", "--directive", "0=bounce"],
     "directive index 0 given twice"),
])
def test_unusable_companion_or_directive_is_an_input_error(tmp_path, argv, message):
    _code, exported = run_cli("demo", "lambda_loop", "--export")
    (tmp_path / "lambda_loop.json").write_text(exported)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.getvalue() == f"hyperlog: error: {message}\n"


def test_shadow_csv():
    code, out = run_cli("shadow", "--demo", "slice_circle(i,1,1)")
    assert code == 0
    assert out.splitlines()[0] == "t,x,y"


def test_shadow_rows_are_plain_floats():
    code, out = run_cli("shadow", "--demo", "slice_circle(i,1,1)")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) > 64
    for row in rows:
        assert len(row) == 3
        assert all(isinstance(float(cell), float) for cell in row)


def test_unknown_demo_is_an_input_error():
    code, _out = run_cli("analyze", "--demo", "nope")
    assert code == 1


def test_input_file_round_trip(tmp_path):
    _code, exported = run_cli("demo", "meridians", "--export")
    f = tmp_path / "path.json"
    f.write_text(exported)
    code, out = run_cli("analyze", "--input", str(f))
    assert code == 0
    kinds = sorted(c["kind"] for c in json.loads(out)["contacts"])
    assert kinds == ["flip", "semi_tame"]


def test_out_directory_files(tmp_path):
    code, _ = run_cli(
        "lift", "--demo", "slice_circle(i,1,1)", "--out", str(tmp_path)
    )
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["slice_circle_i_1_1_lift.csv", "slice_circle_i_1_1_lift.json"]


def test_n0_is_not_an_option():
    # questions sample at the sampler's own initial grid
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        run_cli("analyze", "--demo", "three_exp", "--n0", "0")
    assert exit_.value.code == 1
    assert "unrecognized arguments: --n0 0" in err.getvalue()


@pytest.mark.parametrize("extra", [
    ["--companion", "J_path"],
    ["--directive", "0=flip"],
    ["--companion", "foo", "--directive=-1=flip"],
])
def test_analyze_takes_no_companion_options(extra):
    # the report does not depend on a companion choice, so analyze
    # rejects one rather than ignoring it
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        run_cli("analyze", "--demo", "three_exp", *extra)
    assert exit_.value.code == 1
    assert err.getvalue() == f"hyperlog: error: unrecognized arguments: {' '.join(extra)}\n"



def test_bad_eps_real_rejected():
    code, _ = run_cli("analyze", "--demo", "sigma_arc", "--eps-real", "0.5")
    assert code == 1


def with_tolerances(tol, f, *args):
    """f(*args) with tol in force."""
    token = config.IN_FORCE.set(tol)
    try:
        return f(*args)
    finally:
        config.IN_FORCE.reset(token)


def test_eps_real_override_ends_with_the_call(tmp_path):
    # lift and winding sample inside the command; each prints the
    # library's answer under the overridden value, on a path whose lift
    # and loop answers both depend on the threshold: under 1e-5 its lift
    # takes other directions near the axis and its loop is analysed,
    # under the default its loop analysis fails
    name = "rocket_pos"
    spec = hl.demo(name).path
    tol = config.Tolerances(1e-5)
    override = ("--demo", name, "--eps-real", "1e-5")

    code, out = run_cli("lift", *override, "--out", str(tmp_path))
    assert config.IN_FORCE.get() is config.DEFAULT
    res = with_tolerances(tol, hl.lift_path, spec)
    assert code == 0
    assert json.loads(out) == {
        "status": "ok",
        "k0": 0,
        "branch_trace": [list(piece) for piece in res.lift.branch_trace],
        "closed_lift": res.closed_lift,
        "sampling": res.sampling,
        "start": res.lift.values[0].tolist(),
        "end": res.lift.values[-1].tolist(),
    }
    assert (tmp_path / "rocket_pos_lift.csv").read_text() == res.lift.to_csv()
    assert res.lift.to_csv() != hl.lift_path(spec).lift.to_csv()
    assert run_cli("lift", "--demo", name) != (code, out)

    code, out = run_cli("winding", *override)
    assert config.IN_FORCE.get() is config.DEFAULT
    res = with_tolerances(tol, hl.analyze_loop, spec)
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(to_json(res)))

    # the value in force is back to the default after every exit code
    for argv, want in [
        (("lift", "--demo", "sigma_arc", "--eps-real", "1e-6"), 2),
        (("winding", "--demo", "lambda_loop", "--eps-real", "1e-6"), 2),
        (("winding", "--demo", "slice_circle(i,nan,1)", "--eps-real", "1e-6"), 1),
        (("analyze", "--demo", "three_exp", "--eps-real", "0.5"), 1),
    ]:
        assert run_cli(*argv)[0] == want
        assert config.IN_FORCE.get() is config.DEFAULT


DEMOS = [
    "sigma_arc",
    "sigma_hat",
    "rocket_neg",
    "rocket_pos",
    "lambda_loop",
    "three_exp",
    "gamma1m_gamma2(3)",
    "meridians",
    "slice_circle(i,1,1)",
]


@pytest.mark.parametrize("name", DEMOS)
def test_analyze_is_deterministic(name):
    first = run_cli("analyze", "--demo", name)
    second = run_cli("analyze", "--demo", name)
    assert first == second
    assert first[0] == 0


def test_entrypoint_runs_in_a_subprocess():
    out = [
        subprocess.run(
            [sys.executable, "-m", "hyperlog.cli", "demo", "--list"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert out[0].returncode == 0
    assert out[0].stdout == out[1].stdout


def three_exp_doc():
    return hl.path_to_json(hl.demo("three_exp").path)


def drop_p1(doc):
    del doc["segments"][1]["p1"]


def misspell_radius(doc):
    # the arc has radius 1, the default, so the misspelling would not
    # show as a broken join
    arc = doc["segments"][2]
    arc["raduis"] = arc.pop("radius")


def drop_kind(doc):
    del doc["segments"][3]["kind"]


def drop_domain(doc):
    del doc["domain"]


def misspell_closed(doc):
    # read as an open path, the loop would still be analysed
    doc["close"] = doc.pop("closed")


def octonion_line(doc):
    line = doc["segments"][1]
    line["p0"] += [0.0] * 4
    line["p1"] += [0.0] * 4


def nan_radius(doc):
    # json writes the float as the bare constant NaN
    doc["segments"][2]["radius"] = math.nan


def infinite_radius(doc):
    doc["segments"][2]["radius"] = -math.inf


def string_radius(doc):
    doc["segments"][2]["radius"] = "2"


def scalar_unit(doc):
    doc["segments"][2]["unit"] = 5


def misspell_poly_field(doc):
    # the first run as the in-slice curve x(t) = t/pi - 4, y = 0, with a
    # stray key beside its coefficients
    doc["segments"][1] = {
        "kind": "slice_curve", "ta": math.pi, "tb": 3 * math.pi,
        "unit": [0.0, 1.0, 0.0, 0.0],
        "x_fn": {"kind": "poly", "coeffs": [1 / math.pi, -4.0], "coefs2": [3]},
        "y_fn": {"kind": "poly", "coeffs": [0.0]},
    }


def rocket_x_fn(doc):
    # the first run as an in-slice curve whose x(t) is a segment
    misspell_poly_field(doc)
    doc["segments"][1]["x_fn"] = {"kind": "rocket", "ta": 0.0, "tb": 1.0}


def poly_inner(doc):
    doc["segments"][1] = {"kind": "reparam", "ta": math.pi, "tb": 3 * math.pi,
                          "inner": {"kind": "poly", "coeffs": [1.0]},
                          "alpha": 1.0, "beta": 0.0}


@pytest.mark.parametrize("spoil, message", [
    (drop_p1, "line segment lacks field(s) ['p1']"),
    (misspell_radius, "slice_arc segment has unknown field(s) ['raduis']"),
    (drop_kind, "a segment needs a kind"),
    (drop_domain, "a path needs 'domain'"),
    (misspell_closed, "a path has unknown field(s) ['close']"),
    (octonion_line, "segment 1 has 8 coefficients, segment 0 has 4"),
    (misspell_poly_field, "poly function has unknown field(s) ['coefs2']"),
    (rocket_x_fn, "slice_curve segment field 'x_fn' must be an object with a function "
                  "kind, poly or trig, got {'kind': 'rocket', 'ta': 0.0, 'tb': 1.0}"),
    (poly_inner, "reparam segment field 'inner' must be an object with a segment kind, "
                 "got {'coeffs': [1.0], 'kind': 'poly'}"),
    (nan_radius, "path JSON holds a non-finite number: NaN"),
    (infinite_radius, "path JSON holds a non-finite number: -Infinity"),
    (string_radius,
     "slice_arc segment field 'radius' must be a number of magnitude at most 1e150, got '2'"),
    (scalar_unit, "slice_arc segment field 'unit' must be a list of numbers of magnitude "
                  "at most 1e150, or of such lists, got 5"),
])
def test_malformed_input_is_an_input_error(tmp_path, spoil, message):
    doc = three_exp_doc()
    spoil(doc)
    f = tmp_path / "path.json"
    f.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("analyze", "--input", str(f))
    assert code == 1
    assert out == ""
    assert err.getvalue() == f"hyperlog: error: {message}\n"


def test_overflowing_number_is_an_input_error(tmp_path):
    # a literal beyond the float range would be read as infinity
    f = tmp_path / "path.json"
    text = json.dumps(three_exp_doc())
    f.write_text(text.replace('"radius": 1.0', '"radius": 1e400'))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("analyze", "--input", str(f))
    assert (code, out) == (1, "")
    assert err.getvalue() == (
        "hyperlog: error: path JSON holds a non-finite number: 1e400\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["--demo", "three_exp", "--initial-unit", "nan,1,0"], "initial unit must be finite"),
    (["--demo", "rocket_neg", "--initial-unit", "nan,1,0"], "initial unit must be finite"),
    (["--demo", "three_exp", "--initial-unit", "1,0"],
     "initial unit must have 3 imaginary coefficients, got 2"),
    (["--demo", "rocket_neg", "--initial-unit", "1,0,0,0,0,0,0"],
     "initial unit must have 3 imaginary coefficients, got 7"),
    (["--demo", "three_exp", "--initial-unit", "0,2,0,0"], "initial unit must have unit norm"),
    (["--demo", "three_exp", "--initial-unit", "0,0,0,1"],
     "initial unit is not parallel to the outgoing direction"),
    (["--demo", "rocket_neg"],
     "a lift from a real start with nonzero argument needs an initial unit"),
    (["--demo", "three_exp", "--initial-unit", "0.5,1,0,0"],
     "initial unit must be purely imaginary, got real part 0.5"),
])
def test_bad_initial_unit_is_an_input_error(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("lift", *argv)
    assert (code, out) == (1, "")
    assert err.getvalue() == f"hyperlog: error: {message}\n"
