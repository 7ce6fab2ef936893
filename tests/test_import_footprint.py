"""Importing the package leaves scipy's slow-to-import subpackages unloaded.

``scipy.interpolate`` and ``scipy.optimize`` together cost more than the whole
travelling-wave set-up; ``scipy.special`` loads only when a heat kernel is
first formed.  Each check runs in a fresh interpreter.
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


def test_heat_kernel_loads_scipy_special():
    assert run_fresh("import sys\n"
                     "from acfront import flow\n"
                     "loaded = 'scipy.special' in sys.modules\n"
                     "flow.heat_kernel(1.0)\n"
                     "print(loaded, 'scipy.special' in sys.modules)\n") == ["False", "True"]
