"""The package runs on numpy alone: no scipy import, at run time or in the
declared dependencies.

Importing scipy costs more than the whole travelling-wave set-up, so the
package, its CLI, the set-up solves, the heat kernel and the default
pipelines load no scipy module; scipy stays a test-only oracle.  The import
checks run in a fresh interpreter.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import acfront

REPO = pathlib.Path(__file__).resolve().parents[1]
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


def test_heat_kernel_and_thm23_load_no_scipy_module():
    """No ``scipy*`` module after a heat kernel, nor after a default thm23
    run, the pipeline that forms kernels through Cole-Hopf."""
    assert run_fresh("import sys\n"
                     "def report(stage):\n"
                     "    print(stage, *sorted(m for m in sys.modules\n"
                     "                         if m.partition('.')[0] == 'scipy'))\n"
                     "from acfront import flow, harness\n"
                     "flow.heat_kernel(1.0)\n"
                     "report('kernel')\n"
                     "assert harness.run_experiment(harness.default_spec('thm23')).passed\n"
                     "report('thm23')\n") == ["kernel", "thm23"]


def requirement_names(requirements: list[str]) -> list[str]:
    return [re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in requirements]


def test_source_imports_no_scipy():
    """No ``import scipy…`` or ``from scipy… import`` in any module of the
    package, lazy imports inside functions included."""
    found = []
    for path in sorted((REPO / "src" / "acfront").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.partition(".")[0] == "scipy"]
    assert found == []


def test_declared_runtime_dependencies_are_numpy_alone():
    """``[project].dependencies`` names numpy only; scipy is a test extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert requirement_names(project["dependencies"]) == ["numpy"]
    assert "scipy" in requirement_names(project["optional-dependencies"]["test"])
