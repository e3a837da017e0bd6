"""Black-box alpha-divergence minimization for factorized Gaussian posteriors.

The top level exports what the README example needs; every other name lives
in its submodule (bbalpha.energy, bbalpha.expfam, bbalpha.likelihoods, ...).
"""

from .likelihoods import MLPRegression, gen_toy_cubic
from .optim import TrainConfig, default_prior, train

__version__ = "0.1.0"
