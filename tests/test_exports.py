"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import acfront

MODULES = ["acfront"] + [
    m.name for m in pkgutil.iter_modules(acfront.__path__, "acfront.")
    if hasattr(importlib.import_module(m.name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_sim_exports_no_test_only_builders():
    """Tests reach the super/sub pairs through ``verify_supersub`` and the
    private pair evaluators, so ``sim`` exports no field builder for them."""
    sim = importlib.import_module("acfront.sim")
    assert not [n for n in sim.__all__ if n.startswith("build_")]
    assert not hasattr(sim, "build_planar_supersub")
    assert not hasattr(sim, "build_curved_supersub")


def test_test_only_api_stays_deleted():
    """The Laplacian, the single-site read, the slope factor and the last
    trajectory row have no caller in the package; tests slice the Laplacian
    out of ``LatticeField.padded`` and read ``core.alpha`` and
    ``FlowTrajectory.values`` instead."""
    core = importlib.import_module("acfront.core")
    flow = importlib.import_module("acfront.flow")
    for module in (acfront, core):
        assert not {"discrete_laplacian", "beta"} & set(module.__all__)
        assert not hasattr(module, "discrete_laplacian")
        assert not hasattr(module, "beta")
    assert not hasattr(core.LatticeField, "at")
    assert not hasattr(flow.FlowTrajectory, "final")
