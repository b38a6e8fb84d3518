"""FLASH-like block-structured compressible hydrodynamics.

FLASH (Fryxell et al. 2000) solves the compressible Euler equations on a
block-structured adaptive mesh; the NUMARCK paper checkpoints 10 of its
variables (dens, eint, ener, gamc, game, pres, temp, velx, vely, velz)
from 16 x 16 blocks with 4 guard cells per side.

This package implements the same structure at laptop scale:

* :mod:`repro.simulations.flash.eos` -- gamma-law equation of state with a
  weakly temperature-dependent adiabatic index (so ``gamc``/``game`` evolve
  but only slightly, like the real code's multi-species EOS output).
* :mod:`repro.simulations.flash.euler` -- 2.5-D finite-volume Euler solver
  (Rusanov flux, CFL-limited RK2 stepping; the z velocity is advected
  passively, which is the exact 2.5-D reduction of 3-D Euler).
* :mod:`repro.simulations.flash.blocks` -- 16 x 16 blocks with guard-cell
  exchange, distributed round-robin over simulated MPI ranks.
* :mod:`repro.simulations.flash.problems` -- Sod shock tube, Sedov blast
  and Kelvin-Helmholtz initial conditions.
* :class:`FlashSimulation` -- ties it together and emits the 10-variable
  checkpoints.
"""

from repro.simulations.flash.amr import AmrCheckpointer, QuadTreeMesh
from repro.simulations.flash.blocks import BlockGrid
from repro.simulations.flash.eos import GammaLawEOS
from repro.simulations.flash.euler import Euler2D
from repro.simulations.flash.problems import PROBLEMS, kelvin_helmholtz, sedov, sod
from repro.simulations.flash.riemann import RiemannState, exact_riemann, sod_exact
from repro.simulations.flash.simulation import FLASH_VARIABLES, FlashSimulation

__all__ = [
    "FlashSimulation",
    "FLASH_VARIABLES",
    "Euler2D",
    "GammaLawEOS",
    "BlockGrid",
    "QuadTreeMesh",
    "AmrCheckpointer",
    "PROBLEMS",
    "sod",
    "sedov",
    "kelvin_helmholtz",
    "RiemannState",
    "exact_riemann",
    "sod_exact",
]
