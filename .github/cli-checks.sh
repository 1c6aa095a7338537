#!/usr/bin/env bash
# Checks of the command line, run through the command given as the one
# argument, for example
#   bash .github/cli-checks.sh "python -m hyperlog.cli"
#   bash .github/cli-checks.sh hyperlog
# The first check that fails stops the script with a non-zero exit code.
set -euo pipefail

read -r -a hyperlog <<< "$1"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run the command line, expecting the given exit code and, for an error,
# exactly one line on stderr
last=none
expect() {
  local want=$1 code=0
  shift
  last="hyperlog $*"
  "${hyperlog[@]}" "$@" > "$work/out.txt" 2> "$work/error.txt" || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "hyperlog $*: exit code $code, expected $want"; cat "$work/error.txt"; exit 1
  fi
  if [ "$want" -eq 1 ] && [ "$(wc -l < "$work/error.txt")" -ne 1 ]; then
    echo "hyperlog $*: expected one error line"; cat "$work/error.txt"; exit 1
  fi
}

# require a line of the file that matches the extended regular
# expression, naming the last command run by expect when none does
has() {
  grep -qE "$2" "$1" || {
    echo "after $last: no line of $1 matches $2"; cat "$1"; exit 1; }
}

# each command exits 0 on three_exp
for cmd in analyze lift shadow "winding --companion J_path"; do
  echo "== hyperlog $cmd"
  read -r -a args <<< "$cmd"
  expect 0 "${args[@]}" --demo three_exp
done

# a path exported as JSON and read back gives the same report; lambda_loop's
# parabola is a poly coordinate function
for name in three_exp lambda_loop; do
  "${hyperlog[@]}" demo "$name" --export > "$work/$name.json"
  "${hyperlog[@]}" analyze --input "$work/$name.json" > "$work/from_file.json"
  "${hyperlog[@]}" analyze --demo "$name" > "$work/from_demo.json"
  diff "$work/from_file.json" "$work/from_demo.json"
done
# a companion belongs to a demo: on a path read from a file it is an
# error, not ignored; so is a directive with a negative index
expect 1 winding --input "$work/lambda_loop.json" --companion no_such_companion
expect 1 winding --demo lambda_loop --companion no_such_companion
expect 1 lift --demo three_exp --directive=-1=flip
# three_exp has two axis intervals: a directive for a third names none,
# and is an error for the lift as for the loop
expect 1 lift --demo three_exp --directive 2=flip
expect 1 winding --demo three_exp --directive 2=flip
# a directive index given twice is an error, not the last value kept
expect 1 winding --demo three_exp --directive 0=flip --directive 0=bounce
# the lift reads the loop as closed: under J_path (untwisted, winding 1)
# it returns to the unit i it started with, one turn on
expect 0 lift --demo three_exp --companion J_path
python3 - "$work/out.txt" <<'EOF'
import json, sys
end = json.load(open(sys.argv[1]))["end"]
if end[1] != 6.283185307179587:
    sys.exit(f"three_exp under J_path: the lift ends at {end}")
EOF
# the report of analyze takes no companion choice: either option is an
# error there, not ignored
expect 1 analyze --demo three_exp --companion J_path
expect 1 analyze --demo three_exp --directive 0=flip

# q(t) = (t - 0.4) + (t - 0.4)^2 i passes through 0 at t = 0.4, where no
# sample lands: the probe that comes near the zero finds it, so the path
# is unusable input, not a tame path with a bounce of value about 0
cat > "$work/through_zero.json" <<'EOF'
{"domain": [0, 1], "closed": false, "segments": [
 {"kind": "slice_curve", "ta": 0, "tb": 1, "unit": [0, 1, 0, 0],
  "x_fn": {"kind": "poly", "coeffs": [1, -0.4]},
  "y_fn": {"kind": "poly", "coeffs": [1, -0.8, 0.16000000000000003]}}]}
EOF
expect 1 analyze --input "$work/through_zero.json"
has "$work/error.txt" 'vanishes'

# a radius written as a string is unusable input: exit code 1 and one
# error line, not a traceback
"${hyperlog[@]}" demo 'slice_circle(i,1,1)' --export \
  | sed 's/"radius": 1.0/"radius": "2"/' > "$work/string_radius.json"
has "$work/string_radius.json" '"radius": "2"'
expect 1 analyze --input "$work/string_radius.json"

# samples whose knots do not increase are unusable input, not a path that
# interpolation silently misreads
cat > "$work/knots.json" <<'EOF'
{"domain": [0, 1], "closed": true, "segments": [{"kind": "samples", "ta": 0, "tb": 1,
 "ts": [0, 0.6, 0.3, 1], "points": [[1, 1, 0, 0], [2, 1, 0, 0], [3, -1, 0, 0], [1, 1, 0, 0]]}]}
EOF
expect 1 winding --input "$work/knots.json"

# so is a segment where a coordinate function belongs
cat > "$work/rocket_x_fn.json" <<'EOF'
{"domain": [0.0, 1.0], "closed": false, "segments": [
  {"kind": "slice_curve", "ta": 0.0, "tb": 1.0, "unit": [0.0, 1.0, 0.0, 0.0],
   "x_fn": {"kind": "rocket", "ta": 0.0, "tb": 1.0},
   "y_fn": {"kind": "poly", "coeffs": [1.0]}}]}
EOF
expect 1 analyze --input "$work/rocket_x_fn.json"

# rocket_neg spins without limit at its contact: the adaptive sampler gives
# up and the report names the uniform fallback; so does its reflection,
# rocket_pos, although the sampler stops halving beside a real node once
# the direction there no longer turns
for name in rocket_neg rocket_pos; do
  expect 0 analyze --demo "$name"
  has "$work/out.txt" '"sampling": "uniform_fallback"'
done
# the lift and the loop analysis read the same grid and name it too,
# whether they answer or, as for rocket_neg's loop, have no companion
expect 0 lift --demo rocket_pos
has "$work/out.txt" '"sampling": "uniform_fallback"'
expect 2 winding --demo rocket_neg
has "$work/out.txt" '"sampling": "uniform_fallback"'

# rotated to 0.13, rocket_neg meets its not-tame contact at the join
# t = 1.0, which is no end of the fallback grid's equal intervals: that
# grid holds the joins, so the report has the contact and the lift fails
# there
python3 - "$work/rotated_rocket.json" <<'EOF'
import json, sys
import hyperlog as hl
path = hl.rotate_basepoint(hl.demo("rocket_neg").path, 0.13)
json.dump(hl.path_to_json(path), open(sys.argv[1], "w"))
EOF
expect 0 analyze --input "$work/rotated_rocket.json"
has "$work/out.txt" '"not_tame"'
expect 2 lift --input "$work/rotated_rocket.json"

# nine lines through a semi-tame contact at +1, then a real run on
# [-3, -2] and a flip at -4.5 in one axis interval, the second: the run
# bounces by default, so the flip stays in the signature and the lift
# does not close; under a flip directive there it closes
cat > "$work/nine_lines.json" <<'EOF'
{"domain": [0, 9], "closed": true, "segments": [
 {"kind": "line", "ta": 0, "tb": 1, "p0": [2, 1, 0, 0], "p1": [1, 0, 0, 0]},
 {"kind": "line", "ta": 1, "tb": 2, "p0": [1, 0, 0, 0], "p1": [1, 0, 1, 0]},
 {"kind": "line", "ta": 2, "tb": 3, "p0": [1, 0, 1, 0], "p1": [-2, 0, 1, 0]},
 {"kind": "line", "ta": 3, "tb": 4, "p0": [-2, 0, 1, 0], "p1": [-2, 0, 0, 0]},
 {"kind": "line", "ta": 4, "tb": 5, "p0": [-2, 0, 0, 0], "p1": [-3, 0, 0, 0]},
 {"kind": "line", "ta": 5, "tb": 6, "p0": [-3, 0, 0, 0], "p1": [-4, 0, 1, 0]},
 {"kind": "line", "ta": 6, "tb": 7, "p0": [-4, 0, 1, 0], "p1": [-5, 0, -1, 0]},
 {"kind": "line", "ta": 7, "tb": 8, "p0": [-5, 0, -1, 0], "p1": [-5, 1, 0, 0]},
 {"kind": "line", "ta": 8, "tb": 9, "p0": [-5, 1, 0, 0], "p1": [2, 1, 0, 0]}]}
EOF
expect 0 lift --input "$work/nine_lines.json"
has "$work/out.txt" '"closed_lift": false'
expect 0 lift --input "$work/nine_lines.json" --directive 1=flip
has "$work/out.txt" '"closed_lift": true'

# the upper half circle from 1 to -1 in the i-slice, then the axis from
# -1 to -2: the run ends the path and holds no non-real sample, so the
# branch trace is one piece, on branch 0
cat > "$work/half_circle_then_axis.json" <<'EOF'
{"domain": [0, 4.141592653589793], "closed": false, "segments": [
 {"kind": "slice_arc", "ta": 0, "tb": 3.141592653589793, "unit": [0, 1, 0, 0],
  "angle_a": 0, "angle_b": 3.141592653589793},
 {"kind": "line", "ta": 3.141592653589793, "tb": 4.141592653589793,
  "p0": [-1, 0, 0, 0], "p1": [-2, 0, 0, 0]}]}
EOF
expect 0 lift --input "$work/half_circle_then_axis.json"
python3 - "$work/out.txt" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))["branch_trace"]
if [k for _lo, _hi, k in trace] != [0]:
    sys.exit(f"half circle then axis: branch trace {trace}")
EOF

# six lines: 2 -> 2i -> -2, a run to -1, -1 -> -j -> 1, and a run back
# to 2; the first run is entered along i and left along -j, at a right
# angle, and still each directive holds: a bounce keeps the companion's
# sign relative to the path's own direction and a flip negates it
cat > "$work/six_lines.json" <<'EOF'
{"domain": [0, 6], "closed": true, "segments": [
 {"kind": "line", "ta": 0, "tb": 1, "p0": [2, 0, 0, 0], "p1": [0, 2, 0, 0]},
 {"kind": "line", "ta": 1, "tb": 2, "p0": [0, 2, 0, 0], "p1": [-2, 0, 0, 0]},
 {"kind": "line", "ta": 2, "tb": 3, "p0": [-2, 0, 0, 0], "p1": [-1, 0, 0, 0]},
 {"kind": "line", "ta": 3, "tb": 4, "p0": [-1, 0, 0, 0], "p1": [0, 0, -1, 0]},
 {"kind": "line", "ta": 4, "tb": 5, "p0": [0, 0, -1, 0], "p1": [1, 0, 0, 0]},
 {"kind": "line", "ta": 5, "tb": 6, "p0": [1, 0, 0, 0], "p1": [2, 0, 0, 0]}]}
EOF
expect 0 winding --input "$work/six_lines.json"
has "$work/out.txt" '^  "winding": 0,?$'
expect 0 winding --input "$work/six_lines.json" --directive 0=flip --directive 1=flip
has "$work/out.txt" '^  "winding": 1,?$'
expect 2 winding --input "$work/six_lines.json" --directive 0=flip
has "$work/out.txt" '^  "twisted": true,?$'
# a segment whose anchors are equal lays its shape out over no interval:
# unusable input, not a division by zero
sed 's/"tb": 1, "p0"/"tb": 1, "anchor_a": 0.5, "anchor_b": 0.5, "p0"/' \
  "$work/six_lines.json" > "$work/equal_anchors.json"
has "$work/equal_anchors.json" '"anchor_b": 0.5'
expect 1 winding --input "$work/equal_anchors.json"

# a circle turning 20 times crosses the axis 40 times inside one slice:
# each crossing lies between two samples whose directions point apart,
# and find_obstructions solves it into a flip
expect 0 analyze --demo 'slice_circle(j,2,20)'
python3 - "$work/out.txt" <<'EOF'
import json, sys
kinds = [c["kind"] for c in json.load(open(sys.argv[1]))["contacts"]]
if len(kinds) != 40 or set(kinds) != {"flip"}:
    sys.exit(f"slice_circle(j,2,20): {len(kinds)} contacts of kinds {sorted(set(kinds))}")
EOF
# and one turning 100 times winds 100 times: its crossing brackets do not
# alias several turns into one
expect 0 winding --demo 'slice_circle(j,2,100)'
has "$work/out.txt" '^  "winding": 100,?$'
# the rocket makes the adaptive sampler give up; on the uniform grid it
# falls back to, the three turns of the unit circle after it still cross
# -1 between samples, at 1 + pi, 1 + 3 pi and 1 + 5 pi
cat > "$work/fallback_loop.json" <<'EOF'
{"domain": [0.0, 19.84955592153876], "closed": true, "segments": [
  {"kind": "negconj", "ta": 0.0, "tb": 1.0, "inner": {"kind": "rocket", "ta": 0.0, "tb": 1.0, "anchor_a": 0.0, "anchor_b": 1.0}},
  {"kind": "reparam", "ta": 1.0, "tb": 7.283185307179586, "inner": {"kind": "slice_arc", "ta": 0.0, "tb": 6.283185307179586, "unit": [0.0, 1.0, 0.0, 0.0], "angle_a": 0.0, "angle_b": 6.283185307179586, "center": 0.0, "radius": 1.0, "anchor_a": 0.0, "anchor_b": 6.283185307179586}, "alpha": 1.0, "beta": -1.0},
  {"kind": "reparam", "ta": 7.283185307179586, "tb": 13.566370614359172, "inner": {"kind": "slice_arc", "ta": 0.0, "tb": 6.283185307179586, "unit": [0.0, 1.0, 0.0, 0.0], "angle_a": 0.0, "angle_b": 6.283185307179586, "center": 0.0, "radius": 1.0, "anchor_a": 0.0, "anchor_b": 6.283185307179586}, "alpha": 1.0, "beta": -7.283185307179586},
  {"kind": "reparam", "ta": 13.566370614359172, "tb": 19.84955592153876, "inner": {"kind": "slice_arc", "ta": 0.0, "tb": 6.283185307179586, "unit": [0.0, 1.0, 0.0, 0.0], "angle_a": 0.0, "angle_b": 6.283185307179586, "center": 0.0, "radius": 1.0, "anchor_a": 0.0, "anchor_b": 6.283185307179586}, "alpha": 1.0, "beta": -13.566370614359172}
]}
EOF
expect 0 analyze --input "$work/fallback_loop.json"
python3 - "$work/out.txt" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
at = sorted(round(c["t"], 6) for c in doc["contacts"] if c["value"] == -1.0)
if at != [4.141593, 10.424778, 16.707963]:
    sys.exit(f"fallback loop: contacts at -1 near t = {at}")
EOF

expect 0 winding --demo 'slice_circle(i,2,1)'
# realness is judged relative to |q|, so a small circle that starts on
# the axis winds once, as a large one does
expect 0 winding --demo 'slice_circle(i,0.001,1)'
has "$work/out.txt" '^  "winding": 1,?$'
# every node of the first grid of this circle is 2 and every midpoint -2:
# a real run cannot pass through 0, so the loop is not read as real
expect 0 winding --demo 'slice_circle(j,2,64)'
has "$work/out.txt" '^  "winding": 64,?$'
# under a coarse threshold the real set about the basepoint on the axis
# is about 1e-7 wide: its ends, not its middle, put it at the seam, so it
# is one wrap flip and the circle winds once
expect 0 winding --demo 'slice_circle(i,2,1)' --eps-real 1e-7
has "$work/out.txt" '^  "winding": 1,?$'
# the parameter tolerances are fractions of the domain's span: with its
# parameter squeezed by 1e-8, the circle turning 20 times keeps its 40
# flips
"${hyperlog[@]}" demo 'slice_circle(j,2,20)' --export > "$work/squeezed.json"
python3 - "$work/squeezed.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d["domain"] = [1e-8 * t for t in d["domain"]]
for s in d["segments"]:
    for key in ("ta", "tb", "anchor_a", "anchor_b"):
        s[key] *= 1e-8
json.dump(d, open(sys.argv[1], "w"))
EOF
expect 0 winding --input "$work/squeezed.json"
has "$work/out.txt" '^  "winding": 20,?$'
has "$work/out.txt" '^  "circular_signature": 40,?$'
# a circle starting 1e-6 rad past its contact at +1: the contact lies
# near the seam but not at it, so it is a flip with both limits
"${hyperlog[@]}" demo 'slice_circle(i,1,1)' --export > "$work/past.json"
python3 - "$work/past.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
for s in d["segments"]:
    s["angle_a"] += 1e-6
    s["angle_b"] += 1e-6
json.dump(d, open(sys.argv[1], "w"))
EOF
expect 0 winding --input "$work/past.json"
has "$work/out.txt" '^  "winding": 1,?$'
# lambda_loop is twisted, which the command reports with exit code 2
expect 2 winding --demo lambda_loop
# a non-finite radius is unusable input
expect 1 winding --demo 'slice_circle(i,nan,1)'

# an unusable start of a lift: an initial unit that is not of unit norm,
# has a real part, is not parallel to the path, not finite or of the
# wrong size, and a real start without one
expect 1 lift --demo three_exp --initial-unit 0,2,0,0
expect 1 lift --demo three_exp --initial-unit 0.5,1,0,0
expect 1 lift --demo three_exp --initial-unit 0,0,0,1
expect 1 lift --demo rocket_neg
expect 1 lift --demo rocket_neg --initial-unit nan,1,0
expect 1 lift --demo three_exp --initial-unit 1,0

# --eps-real takes a threshold in [1e-14, 1e-4] for this one call
expect 1 analyze --demo three_exp --eps-real 0.5
expect 1 analyze --demo three_exp --eps-real nan
expect 0 lift --demo three_exp --eps-real 1e-10
echo "command line checks passed"
