"""The activation sweep, gains update and rescale of one solve iteration, as functions.

Each one gives the solver's private kernel helpers a fresh workspace, so a test of a
step checks the code that solve runs. Nothing here computes or checks anything itself.
"""

import numpy as np

from pcnmf import FactorPair
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
