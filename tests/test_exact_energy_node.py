"""The closed-form exact energy: one `exact_energy` node against the op-by-op
tape expression, and the stationarity residual against the dense oracle's
tilted moments."""

import numpy as np
import pytest

import reference_energy
from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha import oracle
from bbalpha.energy import AlphaParam
from bbalpha.errors import (ImproperCavity, ImproperTilted,
                            NonFiniteIntermediate)
from bbalpha.expfam import FactorizedGaussian, NaturalParams
from bbalpha.optim import default_prior

ALPHAS = [-0.5, 0.5, 1.0, 2.0]


def _problem(seed, alpha):
    """A random conjugate problem with N in 5..200, dim in 1..5 and a random
    prior, redrawn until its cavity and tilted precisions are proper."""
    rng = np.random.default_rng(seed)
    while True:
        n, dim = int(rng.integers(5, 201)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, dim))
        y = rng.normal(size=n) * 2.0
        model = lk.LinearRegression(dim, float(rng.uniform(0.3, 3.0)))
        q = FactorizedGaussian(rng.normal(0, 1.0, size=dim),
                               rng.normal(-1.0, 1.0, size=dim))
        p_var = rng.uniform(0.5, 2.0, size=dim)
        prior = NaturalParams(rng.normal(size=dim) / p_var, -0.5 / p_var)
        data = lk.Dataset(X, y)
        try:
            _reference(q, prior, model, data, alpha)
        except (ImproperCavity, ImproperTilted):
            continue
        return q, prior, model, data


def _reference(q, prior, model, data, alpha, n_data=None):
    layout = en.SlotLayout(q.dim, prior, learn_prior=True)
    slots, unpack = layout.leaves(layout.pack(q)), layout.unpack

    def f(*vs):
        mu, log_var, _, pm, plv = unpack(vs)
        return reference_energy.exact_expr(
            mu, log_var, pm, plv, data.features, data.targets, model.sigma2,
            alpha, n_data or data.n)

    return ad.value_and_grad(f, slots)


def _oracle_residual(q, prior, model, data, alpha):
    """The residual as a loop over the oracle's dense tilted moments."""
    nat = q.to_nat()
    l1 = (nat.eta1 - prior.eta1) / data.n
    l2 = (nat.eta2 - prior.eta2) / data.n
    first = np.zeros(q.dim)
    second = np.zeros(q.dim)
    for x, t in zip(data.features, data.targets):
        m, cov, _ = oracle.tilted_moments_linreg(
            nat.eta1 - alpha * l1, nat.eta2 - alpha * l2, x, t, model.sigma2,
            alpha)
        first += m
        second += np.diag(cov) + m ** 2
    return max(np.abs(q.mu - first / data.n).max(),
               np.abs(q.var + q.mu ** 2 - second / data.n).max())


@pytest.mark.parametrize("alpha", ALPHAS)
def test_value_and_slot_gradients_match_tape_reference(alpha):
    for seed in range(8):
        q, prior, model, data = _problem(seed, alpha)
        # the last seeds give the energy an N other than the row count
        n_data = data.n + (seed - 5) * 3 if seed > 5 else data.n
        want, want_grads = _reference(q, prior, model, data, alpha, n_data)
        est = en.bbalpha_energy_exact_grad(q, prior, model, data,
                                           AlphaParam(alpha, n_data),
                                           learn_prior=True)
        assert est.value == pytest.approx(want, rel=1e-10)
        got = np.split(est.grad, 4)
        for g, w in zip(got, want_grads):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))
        assert en.bbalpha_energy_exact(
            q, prior, model, data, AlphaParam(alpha, n_data)) == est.value


def test_exact_energy_is_one_node_over_the_slots():
    q, prior, model, data = _problem(0, 0.5)
    seen = []

    def f(*vs):
        out = en._exact_expr(*vs, data.features, data.targets, model.sigma2,
                             0.5, data.n)
        seen.append(out)
        return out

    p_mu, p_log_var = en._prior_mv(prior, q.dim)
    ad.value_and_grad(f, [q.mu, q.log_var, p_mu, p_log_var])
    assert seen[0].op_name == "exact_energy"
    assert [p.op_name for p, _ in seen[0].parents] == ["leaf"] * 4


def test_non_finite_energy_names_the_node():
    q, prior, model, data = _problem(0, 0.5)
    q = FactorizedGaussian(np.full(q.dim, 1e200), q.log_var)   # mu^2 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIntermediate) as e:
            en.bbalpha_energy_exact_grad(q, prior, model, data,
                                         AlphaParam(0.5, data.n))
    assert e.value.op_name == "exact_energy"


def test_non_finite_stationarity_residual_names_the_closed_form():
    # at sigma2 = 1e-300 the tilted moments overflow; no RuntimeWarning may
    # escape either, which pytest would turn into an error
    q, prior, _, data = _problem(0, 0.5)
    model = lk.LinearRegression(q.dim, 1e-300)
    with pytest.raises(NonFiniteIntermediate) as e:
        en.stationarity_residual(q, prior, model, data, AlphaParam(0.5, data.n))
    assert e.value.op_name == "exact_energy"


@pytest.mark.parametrize("alpha, error", [(-0.5, ImproperTilted),
                                          (-3.0, ImproperTilted),
                                          (12.0, ImproperCavity),
                                          (30.0, ImproperCavity)])
def test_improper_cases_raise_as_the_reference(alpha, error):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2)) * 3.0
    data = lk.Dataset(X, rng.normal(size=10))
    model = lk.LinearRegression(2, 0.1)
    # q far more precise than the prior: a large alpha removes more
    # precision than the cavity has; a negative one subtracts a likelihood
    # precision larger than the cavity's
    q = FactorizedGaussian(np.zeros(2), np.array([-4.0, -4.0]))
    prior = default_prior(2)
    with pytest.raises(error):
        _reference(q, prior, model, data, alpha)
    with pytest.raises(error):
        en.bbalpha_energy_exact_grad(q, prior, model, data,
                                     AlphaParam(alpha, data.n),
                                     learn_prior=True)
    with pytest.raises(error):
        en.stationarity_residual(q, prior, model, data,
                                 AlphaParam(alpha, data.n))


@pytest.mark.parametrize("alpha", ALPHAS + [0.7])
@pytest.mark.parametrize("standard_prior", [True, False])
def test_stationarity_residual_matches_oracle_loop(alpha, standard_prior):
    for seed in range(4):
        q, prior, model, data = _problem(100 + seed, alpha)
        if standard_prior:
            prior = default_prior(q.dim)
            try:
                _reference(q, prior, model, data, alpha)
            except (ImproperCavity, ImproperTilted):
                continue
        res = en.stationarity_residual(q, prior, model, data,
                                       AlphaParam(alpha, data.n))
        assert res == pytest.approx(_oracle_residual(q, prior, model, data,
                                                     alpha), abs=1e-12)

