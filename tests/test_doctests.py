"""Run the executable examples embedded in module docstrings.

Public-facing docstrings carry small usage examples; running them keeps
the documentation honest as the API evolves.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro.codec",
    "repro.core.streaming",
    "repro.baselines.bspline",
    "repro.simulations.flash.simulation",
    "repro.simulations.flash.simulation3d",
    "repro.simulations.cmip.simulation",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False,
                             optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0, f"{module_name} lost its doctests"
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failures"
