"""Seeded outputs of the MC energy paths, pinned.

A fixed seed gives the same numbers across refactors.  Each case's values
are checked at 1e-12 relative; where numpy's version is the recorded one, a
sha256 of their float64 bytes is checked too, so that a change that moves
bits at round-off, such as a new summation order, shows here.  A change
that moves them on purpose pins the new ones (running this file prints
them) and says in CHANGES.md what moved and by how much.
"""

import hashlib

import numpy as np
import pytest

from bbalpha import likelihoods as lk
from bbalpha.diagnostics import gradient_bias_study
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import TrainConfig, default_prior, train

NUMPY = "2.4.6"         # the version the digests were recorded with


def _problem(kind):
    if kind == "probit":
        data = lk.gen_synthetic_probit(4, n=40, d=3)
        return data, lk.ProbitRegression(3)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([1.0, -0.5]) + rng.normal(0, 0.5, size=40)
    return lk.Dataset(X, y), lk.LinearRegression(2, 0.25)


def _bias_table():
    data, model = _problem("linreg")
    q = FactorizedGaussian(np.array([0.9, -0.4]), np.array([-3.0, -3.5]))
    report = gradient_bias_study(model, data, q, default_prior(2),
                                 alphas=[0.5], ks=[1, 5], n_minibatches=2,
                                 n_repeats=4, k_truth=200, batch_size=8,
                                 seed=3)
    return [v for r in report.rows for v in (r.bias_raw, r.bias_net, r.grad_std)]


def _train(kind, alpha, **settings):
    """q, the epoch energies and any learned prior of a short MC run."""
    data, model = _problem(kind)
    cfg = TrainConfig(alpha=alpha, k_samples=10, batch_size=16, epochs=3,
                      learning_rate=0.05, init_log_var=-3.0, seed=5, **settings)
    q, hypers, trace = train(model, data, default_prior(model.theta_dim), cfg)
    out = [q.mu, q.log_var, trace.energy]
    if "prior" in hypers:
        out += [hypers["prior"].eta1, hypers["prior"].eta2]
    return np.concatenate([np.ravel(x) for x in out])


CASES = {
    "bias_table": _bias_table,
    "probit_alpha0.5": lambda: _train("probit", 0.5),
    "probit_vb": lambda: _train("probit", "vb"),
    "linreg_alpha0.5": lambda: _train("linreg", 0.5),
    "linreg_vb": lambda: _train("linreg", "vb"),
    "linreg_alpha0.5_learn_prior": lambda: _train("linreg", 0.5,
                                                  learn_prior=True),
}

# name -> (values, sha256 of their float64 bytes under numpy NUMPY)
PINNED = {
    "bias_table": (
        [11.963842411880366, 0.23660154659038568, 32.71888772250965,
         1.341866377717172, -0.35469641828395937, 9.512927942667439,
         11.72724086528998, 0.0, 32.71888772250965, 1.6965627960011314, 0.0,
         10.88869761659802],
        "498fdff9af2a550d87bfc2a86881ac4cbdd8ba0c2c6b3473fd00597970efb4e5"),
    "linreg_alpha0.5": (
        [0.4206902700889824, -0.39768550052311025, -2.580281113064381,
         -2.6159297716626138, 120.78516090907681, 98.9899525600376,
         71.93211940651186],
        "86f684e5556dcc3e5db693684a6eaa24dc17d73f4c78efe8be03fe04f8341a30"),
    "linreg_alpha0.5_learn_prior": (
        [0.4207595172280839, -0.3979287132202652, -2.580254346167966,
         -2.616024419176383, 120.72622397716766, 98.72556586765468,
         71.49493247451133, 0.6556291270869153, -0.581278734872383,
         -0.7836809650481497, -0.7822546905711636],
        "2e325d650e18e7b606dfa5a23e8e92cc3b48a3d971ff0874d5dbb2bbf2b47bf6"),
    "linreg_vb": (
        [0.42321987318333454, -0.40029851094519164, -2.7601252222676127,
         -3.0859056319969262, 152.4379194890314, 129.63446062378378,
         92.14702255869605],
        "b91f82ed1a78c8af4d2fcf572601bd8fbc8fc0163215b46db3aeea40294cc645"),
    "probit_alpha0.5": (
        [-0.28828135780897274, 0.2615694544062423, 0.42143501350265233,
         -2.7765944869905796, -2.645170903869754, -2.6220706513262204,
         29.18275825435951, 25.619352196582664, 26.711180859574416],
        "80d9268811b443751de07dc0464bc921a115c15a5ced1840ec79b548b280f68d"),
    "probit_vb": (
        [-0.26531468819967846, 0.23103614708884646, 0.42395785865015556,
         -3.066677753209233, -2.9535038827626416, -2.6610844405479717,
         29.98919593655126, 26.45972577585813, 27.504310735994395],
        "3341725b9d05aff6585e0dabbcf28af82a9d8845da4fc134e4b581bd3b787a3c"),
}


def _outputs(name):
    return np.asarray(CASES[name](), dtype=np.float64)


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_pinned(name):
    got = _outputs(name)
    values, digest = PINNED[name]
    np.testing.assert_allclose(got, values, rtol=1e-12, atol=0)
    if np.__version__ == NUMPY:
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest


if __name__ == "__main__":
    for name in sorted(CASES):
        got = _outputs(name)
        print('    "%s": (%r,\n        "%s"),' % (
            name, got.tolist(), hashlib.sha256(got.tobytes()).hexdigest()))
