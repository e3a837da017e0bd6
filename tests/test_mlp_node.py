"""The fused `mlp` node against the op-by-op tape forward: values, gradients
through the MC energy, finite differences, the rectifier's kink, plain-array
input and the finiteness check."""

import numpy as np
import pytest

from gradcheck import check_gradient
import reference_models as ref
from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.errors import NonFiniteIntermediate, ShapeMismatch
from bbalpha.expfam import FactorizedGaussian, NaturalParams

KINDS = ["mlp_regression", "mlp_classification"]


def _model(kind, d=3):
    if kind == "mlp_regression":
        return lk.MLPRegression(d, 4)
    return lk.MLPClassification(d, 4, 5, 3)


def _with_tape_reference(model):
    """The same model with the op-by-op forward in place of the node."""
    class Reference(type(model)):
        def batch_forward(self, Theta, X):
            return ref.tape_forward(self, Theta, X)

    out = Reference.__new__(Reference)
    out.__dict__.update(vars(model))
    return out


def _problem(kind, K, B, seed=0):
    rng = np.random.default_rng(seed)
    model = _model(kind)
    X = rng.normal(size=(B, model.d_in))
    if kind == "mlp_regression":
        y = rng.normal(size=B)
    else:
        y = rng.integers(0, model.n_classes, size=B)
    Theta = rng.normal(0.0, 0.7, size=(K, model.theta_dim))
    return model, lk.Dataset(X, y), Theta


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_node_value_is_bit_identical_to_tape_forward(kind, K, B):
    model, data, Theta = _problem(kind, K, B)
    tape = ad.Tape()
    got = model.batch_forward(ad.Var(Theta, tape), data.features)
    want = ref.tape_forward(model, ad.Var(Theta, tape), data.features)
    assert got.shape == want.shape
    assert got.value.tobytes() == want.value.tobytes()


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_energy_gradient_matches_tape_forward(kind, K, B, alpha):
    model, data, _ = _problem(kind, K, B, seed=1)
    rng = np.random.default_rng(2)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0, 0.5, size=dim),
                           rng.normal(-1.0, 0.3, size=dim))
    prior = NaturalParams(rng.normal(0, 0.3, size=dim), np.full(dim, -0.7))
    eps = rng.standard_normal((K, dim))
    a = None if alpha is None else en.AlphaParam(alpha, 40)
    noise = {}
    if kind == "mlp_regression":
        noise = {"hyper": 0.2, "learn_noise": True}

    def energy(m):
        return en.bbalpha_energy_mc(q, prior, m, data, np.arange(B), a, eps,
                                    learn_prior=True, **noise)

    got, want = energy(model), energy(_with_tape_reference(model))
    assert got.value == pytest.approx(want.value, rel=1e-12)
    # mu, log_var[, log sigma2], prior mean, prior log-var
    slots = np.cumsum([dim, dim] + ([1] if noise else []) + [dim])
    for g, w in zip(np.split(got.grad, slots), np.split(want.grad, slots)):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("kind", KINDS)
def test_node_gradient_against_finite_differences(kind):
    model, data, Theta = _problem(kind, K=3, B=4, seed=3)
    out_shape = np.shape(lk.mlp(Theta, data.features, model.layer_dims))
    w = np.cos(np.arange(np.prod(out_shape))).reshape(out_shape)

    def f(T):
        return ad.asum(lk.mlp(T, data.features, model.layer_dims) * w)

    # a small step keeps the rectifier kinks out of the stencil
    rep = check_gradient(f, [Theta], step=1e-6)
    assert rep.passed, rep


@pytest.mark.parametrize("kind", KINDS)
def test_zero_preactivation_gets_zero_gradient(kind):
    model, data, Theta = _problem(kind, K=2, B=3, seed=4)
    n_out, n_in = model.layer_dims[0]
    # hidden unit 0 of the first layer: zero weights and bias, so its
    # pre-activation is exactly 0 for every row and sample
    W = Theta[:, :n_out * n_in].reshape(2, n_out, n_in)
    W[:, 0, :] = 0.0
    Theta[:, n_out * n_in] = 0.0

    def grad(forward):
        return ad.value_and_grad(lambda T: ad.asum(forward(T)), [Theta])[1][0]

    g = grad(lambda T: lk.mlp(T, data.features, model.layer_dims))
    want = grad(lambda T: ref.tape_forward(model, T, data.features))
    assert np.all(g[:, :n_in] == 0.0) and np.all(g[:, n_out * n_in] == 0.0)
    assert np.abs(g).max() > 0.0
    assert np.array_equal(g, want)


@pytest.mark.parametrize("kind", KINDS)
def test_plain_theta_gives_plain_array(kind):
    model, data, Theta = _problem(kind, K=2, B=3)
    out = model.batch_forward(Theta, data.features)
    assert type(out) is np.ndarray
    tape = ad.Tape()
    want = ref.tape_forward(model, ad.Var(Theta, tape), data.features)
    assert out.tobytes() == want.value.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_nonfinite_output_trips_mlp():
    model, data, Theta = _problem("mlp_classification", K=2, B=3)
    Theta *= 1e120                     # three layers of products overflow
    with pytest.raises(NonFiniteIntermediate) as e:
        lk.mlp(ad.Var(Theta, ad.Tape()), data.features, model.layer_dims)
    assert e.value.op_name == "mlp"


def test_wrong_parameter_count_is_rejected():
    model, data, Theta = _problem("mlp_classification", K=2, B=3)
    with pytest.raises(ShapeMismatch):
        lk.mlp(np.hstack([Theta, Theta[:, :1]]), data.features,
               model.layer_dims)
