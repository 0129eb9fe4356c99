"""The activation sweep, gains update and rescale of one solve iteration, and the
scenario generator's fading step, as functions.

Each solver step gives the solver's private kernel helpers a fresh workspace, so a test
of a step checks the code that solve runs; the fading step calls the generator's own
helpers. Nothing here computes or checks anything itself.
"""

import numpy as np

from pcnmf import FactorPair
from pcnmf.simulate import _ar1, _cn01
from pcnmf.solver import (_activation_step, _expand_at, _gains_step, _masked_product, _rescale,
                          _Workspace)


def update_activations(s, gains, acts, w, cfg):
    """One activation sweep over all slots; w holds the K x (T-1) reweights."""
    ws = _Workspace(gains, acts)
    data, curv, _ = _expand_at(ws, s, gains, acts)
    return _activation_step(ws, acts, data, curv, w, cfg.beta)[0]


def update_gains(s, pair):
    """gains * ((W ⊙ S) P^T) / ((W ⊙ G P) P^T + GUARD)."""
    ws = _Workspace(pair.gains, pair.activations)
    _masked_product(ws, s.mask, pair.gains, pair.activations)
    return _gains_step(ws, s.values, pair.gains, pair.activations)


def rescale(pair):
    """Unit-norm gains columns, the column scale moved into the activations."""
    return FactorPair(*_rescale(pair.gains, pair.activations, np.random.default_rng(0)))


def fading_step(h_prev, eta, rng):
    """One AR(1) fading step of the generator: eta*h + sqrt(1-eta^2)*nu, nu ~ CN(0, 1)."""
    return _ar1(h_prev, eta, _cn01(rng, np.shape(h_prev)))
