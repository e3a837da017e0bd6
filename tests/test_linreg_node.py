"""The fused `linreg` node against the op-by-op tape log-likelihood: values,
gradients through the MC energy, finite differences, plain-array input and
the finiteness check."""

import numpy as np
import pytest

import reference_energy
import reference_models as ref
from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.errors import NonFiniteIntermediate
from bbalpha.expfam import FactorizedGaussian, NaturalParams

KS = [1, 5, 10000]
BS = [1, 7, 32]


class _TapeLinearRegression(lk.LinearRegression):
    """The same model with the op-by-op log-likelihood in place of the node."""

    def batch_log_lik(self, Theta, X, y, hyper=None):
        return ref.linreg_tape_log_lik(self, Theta, X, y)


def _problem(K, B, seed=0, d=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(B, d))
    y = X @ rng.normal(size=d) + rng.normal(0.0, 0.8, size=B)
    Theta = rng.normal(0.0, 0.7, size=(K, d))
    return lk.LinearRegression(d, 0.7), X, y, Theta


@pytest.mark.parametrize("B", BS)
@pytest.mark.parametrize("K", KS)
def test_node_value_is_bit_identical_to_tape_reference(K, B):
    model, X, y, Theta = _problem(K, B)
    tape = ad.Tape()
    got = model.batch_log_lik(ad.Var(Theta, tape), X, y)
    want = ref.linreg_tape_log_lik(model, ad.Var(Theta, tape), X, y)
    assert got.op_name == "linreg"
    assert got.shape == want.shape == (K, B)
    assert got.value.tobytes() == want.value.tobytes()


def _energy_problem(K, B, seed=1, n_data=40):
    model, X, y, _ = _problem(K, B, seed)
    rng = np.random.default_rng(seed + 1)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0, 0.5, size=dim),
                           rng.normal(-1.0, 0.3, size=dim))
    p_var = rng.uniform(0.5, 2.0, size=dim)
    prior = NaturalParams(rng.normal(0, 0.3, size=dim) / p_var, -0.5 / p_var)
    eps = rng.standard_normal((K, dim))
    slots, unpack = en._slots_and_unpack(q, None, False, prior, True)

    def fn(expr, m, alpha):
        def f(*vs):
            mu, log_var, _, pm, plv = unpack(vs)
            return expr(mu, log_var, pm, plv, m, X, y, n_data, alpha, eps)
        return f

    return model, slots, fn


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("B", BS)
@pytest.mark.parametrize("K", KS)
def test_energy_gradient_matches_tape_reference(K, B, alpha):
    # the library's energy against the op-by-op energy of the op-by-op
    # log-likelihood: every slot (mu, log_var, prior mean, prior log-var)
    model, slots, fn = _energy_problem(K, B)
    tape_model = _TapeLinearRegression(model.theta_dim, model.sigma2)
    value, grads = ad.value_and_grad(fn(en._mc_expr, model, alpha), slots)
    want, want_grads = ad.value_and_grad(
        fn(reference_energy.mc_expr, tape_model, alpha), slots)
    assert value == pytest.approx(want, rel=1e-12)
    assert len(grads) == len(want_grads) == 4
    for g, w in zip(grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("B", BS)
@pytest.mark.parametrize("K", KS)
def test_energy_gradient_against_finite_differences(K, B, alpha):
    model, slots, fn = _energy_problem(K, B)
    rep = ad.check_gradient(fn(en._mc_expr, model, alpha), slots)
    assert rep.passed, rep


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("K", [1, 5])
def test_node_gradient_against_finite_differences(K, B):
    model, X, y, Theta = _problem(K, B, seed=3)
    w = np.cos(np.arange(K * B)).reshape(K, B)
    rep = ad.check_gradient(
        lambda T: ad.asum(model.batch_log_lik(T, X, y) * w), [Theta])
    assert rep.passed, rep


def test_plain_theta_gives_plain_array():
    model, X, y, Theta = _problem(5, 7)
    out = model.batch_log_lik(Theta, X, y)
    assert type(out) is np.ndarray
    want = ref.linreg_tape_log_lik(model, Theta, X, y)
    assert out.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nonfinite_output_trips_linreg():
    model, X, y, Theta = _problem(3, 4)
    Theta *= 1e200                     # resid^2 overflows
    with pytest.raises(NonFiniteIntermediate) as e:
        model.batch_log_lik(ad.Var(Theta, ad.Tape()), X, y)
    assert e.value.op_name == "linreg"
