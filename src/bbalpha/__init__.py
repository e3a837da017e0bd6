"""Black-box alpha-divergence minimization for factorized Gaussian posteriors.

The top level exports what the README example needs; every other name lives
in its submodule (bbalpha.energy, bbalpha.expfam, bbalpha.likelihoods, ...).
"""

# numpy loads numpy.random on first use; every run draws from it, so it is
# loaded with the package instead of inside the first call that draws
import numpy.random  # noqa: F401

from .likelihoods import MLPRegression, gen_toy_cubic
from .optim import TrainConfig, default_prior, train

__version__ = "0.1.0"
