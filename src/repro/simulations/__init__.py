"""Simulation substrates that generate checkpoint data.

The paper evaluates on checkpoints from two production codes; neither the
FLASH code nor the CMIP5 netCDF archives are available here, so this
package provides faithful laptop-scale stand-ins (substitutions documented
in DESIGN.md):

* :mod:`repro.simulations.flash` -- a block-structured 2.5-D compressible
  Euler finite-volume solver emitting the paper's 10 checkpoint variables.
* :mod:`repro.simulations.cmip` -- stochastic spatiotemporal climate-field
  generators for the paper's 6 CMIP5 variables on the 2.5-degree x 2-degree
  grid.

Both expose the :class:`Simulation` protocol: ``checkpoint()`` returns a
dict of variable name -> float64 array, ``advance()`` steps the model, and
``run(n)`` yields ``n + 1`` checkpoints (the initial state plus one per
advance).
"""

from repro.simulations.base import Simulation

__all__ = ["Simulation"]
