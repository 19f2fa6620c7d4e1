"""Sliced-Wasserstein variational optimization toolkit.

Layers, bottom to top:

* ``measures`` / ``ot``  - discrete measures, slice projections, exact 1-D
  Wasserstein distances, sliced distances (SWD / GSWD) on one batched engine.
* ``nn``                 - minimal MLPs with batched forward and backward
  passes, the Adam step, and checkpoint text.
* ``cmdp`` / ``envs``    - tabular constrained MDPs and physics benchmarks
  (constrained cartpole, acrobot).
* ``dist_rl``            - quantile distributional RL: W1-optimal quantile
  projection, the projected evaluation operator, TD targets, and the
  critic and actor gradients.
* ``safe_rl``            - primal constrained policy optimization.
* ``inference``          - control-as-inference: reward operator families,
  optimality likelihoods, interpretation.
* ``harness``            - config, the training loop and its behaviour draw,
  learning curves, rate fits.
* ``cli``                - ``wavopt`` command line (train / verify / rate /
  interpret / oracle).
"""

__version__ = "0.1.0"
