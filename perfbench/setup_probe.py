"""One cold set-up sample, run in a fresh interpreter by ``run.py``.

Times what every CLI ``experiment`` call pays before its first step:
``import acfront`` followed by ``solve_wave`` -> ``adjoint_solve`` ->
``compute_d`` -> ``solve_r`` at a=0.3 on the default grid.  Prints one JSON
object with the stage times; exits non-zero if the package does not come
from the given source directory or a solve returns an unusable result.

Usage: python3 perfbench/setup_probe.py <path to src>
"""

import json
import math
import os
import sys
import time


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import acfront
    from acfront import (BistableNonlinearity, adjoint_solve, compute_d,
                         solve_r, solve_wave)
    t1 = time.perf_counter()
    w = solve_wave(BistableNonlinearity(a=0.3))
    t2 = time.perf_counter()
    adjoint_solve(w)
    t3 = time.perf_counter()
    compute_d(w)
    t4 = time.perf_counter()
    solve_r(w)
    t5 = time.perf_counter()
    if not os.path.realpath(acfront.__file__).startswith(src + os.sep):
        print(f"acfront imported from {acfront.__file__}, not {src}", file=sys.stderr)
        return 2
    if w.n != 641 or not (math.isfinite(w.c) and math.isfinite(w.d)) or w.r is None:
        print("set-up solves returned an unusable wave", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": t1 - t0, "solve_wave_s": t2 - t1,
                      "adjoint_solve_s": t3 - t2, "compute_d_s": t4 - t3,
                      "solve_r_s": t5 - t4, "setup_s": t5 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
