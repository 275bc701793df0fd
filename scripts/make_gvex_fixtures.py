#!/usr/bin/env python3
"""Regenerate the backstable-sweep fixture file.

For every vexillary permutation with support in [-2, 3] (plus the
Grassmannian elements w_lambda for |lambda| <= 3, all of which lie in that
range), evaluates both the backstable approximation (by the orbit engine)
and the flagged tableau sum at the shared sweep points and records the
common values.  Aborts if any instance disagrees, so a committed fixture
file is itself a passing run.

Usage: python3 scripts/make_gvex_fixtures.py [output.json]
"""

import json
import sys
from pathlib import Path

from egc.grothendieck import backstable_approx, default_window, g_eval
from egc.perms import code_shape_flag
from egc.shapes import SkewShape
from egc.verify import GVEX_N, GVEX_P0, all_vexillary, gvex_points

PRIME = 2147483647  # 2^31 - 1, the prime the committed fixture is written at
SEED = 0
TRIALS = 5


def main(out_path: Path) -> None:
    points = gvex_points(PRIME, SEED, TRIALS)
    records = []
    for w in all_vexillary(-2, 3):
        csf = code_shape_flag(w)
        shape = SkewShape(csf.shape)
        values = []
        window = None
        for pt in points:
            window = default_window(shape, csf.flag, "any", pt)
            lhs = backstable_approx(w, GVEX_P0, pt, n=GVEX_N)
            rhs = g_eval(shape, csf.flag, "any", pt, window)
            if lhs != rhs:
                raise SystemExit(f"disagreement for {w}: {lhs} != {rhs}")
            values.append(lhs)
        records.append({
            "instance": {
                "oneline": list(w.images),
                "base": w.lo if w.images else 1,
                "shape": list(csf.shape.parts),
                "flag": list(csf.flag.bounds),
            },
            "window": list(window),
            "p0": GVEX_P0,
            "values": values,
        })
    payload = {
        "prime": PRIME,
        "seed": SEED,
        "n": GVEX_N,
        "points": [{"beta": pt.beta,
                    "x": {str(i): pt.x_val(i) for i in sorted(pt.x_support)},
                    "y": {str(j): pt.y_val(j) for j in sorted(pt.y_support)}}
                   for pt in points],
        "instances": records,
    }
    out_path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(records)} instances to {out_path}")


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
        / "gvex_sweep.json"
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else default)
