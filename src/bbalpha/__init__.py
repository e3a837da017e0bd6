"""Black-box alpha-divergence minimization for factorized Gaussian posteriors."""

from .energy import (AlphaParam, EnergyEstimate, bbalpha_energy_exact,
                     bbalpha_energy_mc, lower_bound_certificate,
                     stationarity_residual, vb_energy_exact, vb_energy_mc)
from .expfam import (FactorizedGaussian, MeanVarParams, NaturalParams,
                     SiteFactor, cavity, log_partition, log_site,
                     meanvar_to_nat, nat_to_meanvar, sample_reparam,
                     site_from_q)
from .likelihoods import (CsvSchema, Dataset, LinearRegression,
                          MLPClassification, MLPRegression, ProbitRegression,
                          gen_synthetic_probit, gen_three_class,
                          gen_toy_cubic, load_csv)
from .optim import TrainConfig, TrainTrace, adam_step, default_prior, init_q, train
from .oracle import (GaussianDist, alpha_divergence, bbalpha_fixed_point,
                     example1_lambda, example2_lambda, kl_divergence,
                     power_ep_message_passing, true_posterior_linreg)

__version__ = "0.1.0"
