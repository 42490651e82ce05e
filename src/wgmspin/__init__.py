"""Whispering-gallery resonances of a dielectric sphere and the rotational
optomechanical coupling they mediate: mode solver, coupling constant,
closed-form rate estimates, and a conservation-exact precession integrator.

The package namespace holds the five names of the README's library sketch;
everything else is imported from its module: wgmspin.wgm, .coupling,
.dynamics and .specfun."""

from .coupling import compute_lambda
from .dynamics import SpinState, simulate
from .wgm import SphereParams, find_resonance

__version__ = "0.1.0"
