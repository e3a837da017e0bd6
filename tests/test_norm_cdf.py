"""The normal-CDF kernel behind ad.log_norm_cdf and ad.norm_cdf.

log Phi, the inverse Mills ratio phi/Phi (the adjoint of log Phi) and Phi
itself are checked against mpmath at 50 digits, across all three ranges of
Cody's approximation and far into the left tail, both in calls that reach
the tail range (|z| > sqrt(32)) and in calls that do not.
"""

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha.errors import NonFiniteIntermediate

mpmath = pytest.importorskip("mpmath")

REL_TOL = 2e-14
BOUNDS = [0.67448975, np.sqrt(32.0)]
Z = np.concatenate([
    np.linspace(-40.0, 30.0, 1401),
    -np.logspace(4, 10, 7),
    [b for x in BOUNDS for b in (x, -x, np.nextafter(x, np.inf),
                                 -np.nextafter(x, np.inf))],
])


# a call that stays within |z| <= sqrt(32), as probit training's do
Z_CENTRAL = np.concatenate([
    np.linspace(-BOUNDS[1], BOUNDS[1], 2001),
    [b for x in (BOUNDS[0], -BOUNDS[0]) for b in (np.nextafter(x, -np.inf), x,
                                                  np.nextafter(x, np.inf))],
])


def _reference(z):
    """(log Phi, phi/Phi, Phi) at 50 digits; Phi(z) = 1 - Phi(-z) for z > 0
    keeps log Phi accurate where it is close to 0."""
    with mpmath.workdps(50):
        x = mpmath.mpf(float(z))
        cdf = 1 - mpmath.ncdf(-x) if x > 0 else mpmath.ncdf(x)
        log_cdf = mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(cdf)
        return float(log_cdf), float(mpmath.npdf(x) / cdf), float(cdf)


@pytest.fixture(scope="module")
def reference():
    return np.array([_reference(z) for z in Z])


@pytest.fixture(scope="module")
def reference_central():
    return np.array([_reference(z) for z in Z_CENTRAL])


def _rel_err(got, ref):
    # Phi is subnormal below z = -37.5; there the error is taken relative to
    # the smallest normal number
    return np.abs(got - ref) / np.maximum(np.abs(ref), np.finfo(float).tiny)


def test_log_norm_cdf_matches_mpmath(reference):
    assert _rel_err(ad.log_norm_cdf(Z), reference[:, 0]).max() <= REL_TOL


def test_mills_ratio_matches_mpmath(reference):
    _, grads = ad.value_and_grad(lambda a: ad.asum(ad.log_norm_cdf(a)), [Z])
    assert _rel_err(grads[0], reference[:, 1]).max() <= REL_TOL


def test_norm_cdf_matches_mpmath(reference):
    assert _rel_err(ad.norm_cdf(Z), reference[:, 2]).max() <= REL_TOL


def test_call_without_tail_matches_mpmath(reference_central):
    assert np.abs(Z_CENTRAL).max() <= BOUNDS[1]
    log_cdf, ratio = ad._normal_cdf(Z_CENTRAL)
    assert _rel_err(log_cdf, reference_central[:, 0]).max() <= REL_TOL
    assert _rel_err(ratio, reference_central[:, 1]).max() <= REL_TOL
    cdf = ad.norm_cdf(Z_CENTRAL)
    assert _rel_err(cdf, reference_central[:, 2]).max() <= REL_TOL


@pytest.mark.parametrize("z", [Z, Z_CENTRAL], ids=["with_tail", "central"])
def test_element_does_not_depend_on_the_rest_of_the_call(z):
    # alone, each element is a call of its own range only; the matrix
    # product may round it differently with the width of the call, by a few
    # units in the last place (up to 3.5 measured)
    rtol = 8 * np.finfo(float).eps
    log_cdf, ratio = ad._normal_cdf(z)
    alone = np.array([ad._normal_cdf(z[i:i + 1]) for i in range(z.size)])
    np.testing.assert_allclose(log_cdf, alone[:, 0, 0], rtol=rtol, atol=0)
    np.testing.assert_allclose(ratio, alone[:, 1, 0], rtol=rtol, atol=0)
    cdf_alone = [ad.norm_cdf(z[i:i + 1])[0] for i in range(z.size)]
    np.testing.assert_allclose(ad.norm_cdf(z), cdf_alone, rtol=rtol, atol=0)


@pytest.mark.filterwarnings("error")
def test_huge_arguments_raise_no_warning():
    np.testing.assert_array_equal(ad.norm_cdf(np.array([-1e200, 1e200])),
                                  [0.0, 1.0])
    log_cdf, ratio = ad._normal_cdf(np.array([-1e200]))
    np.testing.assert_array_equal(log_cdf, [-np.inf])
    np.testing.assert_array_equal(ratio, [1e200])


def test_shapes_are_kept():
    z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert ad.log_norm_cdf(z).shape == (3, 4)
    assert ad.norm_cdf(z).shape == (3, 4)
    assert np.shape(ad.norm_cdf(0.3)) == ()
    assert np.array_equal(ad.norm_cdf(z).ravel(), ad.norm_cdf(z.ravel()))


def test_special_values_match_the_scipy_pair():
    special = pytest.importorskip("scipy.special")
    z = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
    log_cdf, ratio = ad._normal_cdf(z)
    with np.errstate(divide="ignore"):
        ref_ratio = np.sqrt(2.0 / np.pi) / special.erfcx(-z / np.sqrt(2.0))
    np.testing.assert_array_equal(log_cdf, special.log_ndtr(z))
    np.testing.assert_array_equal(ratio, ref_ratio)
    np.testing.assert_array_equal(ad.norm_cdf(z), special.ndtr(z))


def test_nan_input_raises_at_the_node():
    tape = ad.Tape()
    z = ad.Var(np.array([0.5, -1.0]), tape)
    # a Var is finite when made; a NaN can only reach the node by mutation
    z.value[1] = np.nan
    with pytest.raises(NonFiniteIntermediate) as info:
        ad.log_norm_cdf(z)
    assert info.value.op_name == "log_norm_cdf"
