"""Importing the package and setting up the wave load no scipy module.

Importing scipy costs more than the whole travelling-wave set-up, so the
package, its CLI and the set-up solves run on numpy alone; ``scipy.special``
loads only when a heat kernel is first formed.  Each check runs in a fresh
interpreter.
"""

import os
import subprocess
import sys

import pytest

import acfront

SLOW = ("scipy.interpolate", "scipy.optimize")


def run_fresh(code: str) -> list[str]:
    """Words printed by ``code`` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acfront.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


@pytest.mark.parametrize("module, absent", [("acfront", SLOW),
                                            ("acfront.cli", SLOW + ("scipy.special",))])
def test_import_leaves_slow_scipy_subpackages_unloaded(module, absent):
    assert run_fresh(f"import sys, {module}\n"
                     f"print(*(m for m in {absent!r} if m in sys.modules))\n") == []


def test_import_and_wave_set_up_load_no_scipy_module():
    """No ``scipy*`` module after ``import acfront``, after ``import
    acfront.cli``, after the four set-up solves at a = 0.3 and after a
    tilted-wave speed."""
    assert run_fresh("import sys\n"
                     "def report(stage):\n"
                     "    print(stage, *sorted(m for m in sys.modules\n"
                     "                         if m.partition('.')[0] == 'scipy'))\n"
                     "import acfront\n"
                     "report('import')\n"
                     "import acfront.cli\n"
                     "report('cli')\n"
                     "w = acfront.solve_wave(acfront.BistableNonlinearity(a=0.3))\n"
                     "acfront.adjoint_solve(w)\n"
                     "acfront.compute_d(w)\n"
                     "acfront.solve_r(w)\n"
                     "report('set-up')\n"
                     "acfront.c_theta(w, 0.1)\n"
                     "report('c_theta')\n") == ["import", "cli", "set-up", "c_theta"]


def test_heat_kernel_loads_scipy_special():
    assert run_fresh("import sys\n"
                     "from acfront import flow\n"
                     "loaded = 'scipy.special' in sys.modules\n"
                     "flow.heat_kernel(1.0)\n"
                     "print(loaded, 'scipy.special' in sys.modules)\n") == ["False", "True"]
