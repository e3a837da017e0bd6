"""Seeded outputs of the MC and exact energy paths, and of the commands
built on them, pinned.

A fixed seed gives the same numbers across refactors.  Each case's values
are checked at 1e-12 relative; where numpy's version is the recorded one, a
sha256 of their float64 bytes is checked too, so that a change that moves
bits at round-off, such as a new summation order, shows here.  A change
that moves them on purpose pins the new ones (running this file prints
them) and says in CHANGES.md what moved and by how much.  The `analytic`
and `divergence` tables are pinned as the commands write them, at ten
significant digits.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from bbalpha import cli
from bbalpha import likelihoods as lk
from bbalpha.diagnostics import gradient_bias_study
from bbalpha.energy import vb_energy_exact
from bbalpha.expfam import FactorizedGaussian, NaturalParams
from bbalpha.optim import TrainConfig, default_prior, train
from bbalpha.predict import predict_probit

NUMPY = "2.4.6"         # the version the digests were recorded with
INF = float("inf")      # a divergence the table writes as inf


def _problem(kind):
    if kind == "probit":
        data = lk.gen_synthetic_probit(4, n=40, d=3)
        return data, lk.ProbitRegression(3)
    if kind == "three_class":
        return lk.gen_three_class(4, n=36), lk.MLPClassification(2, 4, 3, 3)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([1.0, -0.5]) + rng.normal(0, 0.5, size=40)
    if kind == "mlp_regression":
        return lk.Dataset(X, y), lk.MLPRegression(2, 4, log_sigma2=-1.0)
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
    """q, the epoch energies and any learned noise or prior of a short run."""
    data, model = _problem(kind)
    cfg = TrainConfig(alpha=alpha, k_samples=10, batch_size=16, epochs=3,
                      learning_rate=0.05, init_log_var=-3.0, seed=5, **settings)
    q, hypers, trace = train(model, data, default_prior(model.theta_dim), cfg)
    out = [q.mu, q.log_var, trace.energy, hypers.get("log_sigma2", [])]
    if "prior" in hypers:
        out += [hypers["prior"].eta1, hypers["prior"].eta2]
    return np.concatenate([np.ravel(x) for x in out])


def _predict_probit():
    """P(y = +1) at a fixed q, wide enough that some of the normal CDF's
    arguments (10 of 160) lie beyond sqrt(32)."""
    data, model = _problem("probit")
    q = FactorizedGaussian(np.array([1.0, -1.0, 1.5]),
                           np.array([-1.0, -2.0, -1.5]))
    return predict_probit(q, model, data.features[:8], k_samples=20,
                          seed=6)[:, 1]


def _vb_energy_exact():
    """The closed-form VB energy of the linreg case at a standard-normal
    prior and at one whose variances are not 1."""
    data, model = _problem("linreg")
    q = FactorizedGaussian(np.array([0.9, -0.4]), np.array([-3.0, -3.5]))
    priors = [default_prior(2), NaturalParams([0.3, -0.2], [-0.7, -0.4])]
    return [vb_energy_exact(q, p, model, data) for p in priors]


def _to_nat():
    nat = FactorizedGaussian(np.array([0.9, -0.4, 1.7]),
                             np.array([-3.0, -3.5, 0.8])).to_nat()
    return np.concatenate([nat.eta1, nat.eta2])


def _toy_predictive():
    """Predictive mean and std of a few epochs on the cubic toy data."""
    out = cli.run_toy_predictive([0.5, 1.0], seed=2, epochs=20, k_samples=10,
                                 n_hidden=10, grid=np.linspace(-4.0, 4.0, 5),
                                 pred_samples=20)
    return np.concatenate([np.concatenate(out[a][1:]) for a in (0.5, 1.0)])


def _table(*argv):
    """The numbers of the CSV table that a `bbalpha` command writes."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(cli.main, [*argv, "--out", "table.csv"])
        assert result.exit_code == 0, result.output
        with open("table.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
    return [float(v) for row in rows for v in row.split(",")]


CASES = {
    "bias_table": _bias_table,
    "probit_alpha0.5": lambda: _train("probit", 0.5),
    "probit_vb": lambda: _train("probit", "vb"),
    "linreg_alpha0.5": lambda: _train("linreg", 0.5),
    "linreg_vb": lambda: _train("linreg", "vb"),
    "linreg_alpha0.5_learn_prior": lambda: _train("linreg", 0.5,
                                                  learn_prior=True),
    "linreg_exact_alpha0.5": lambda: _train("linreg", 0.5,
                                            energy_mode="exact"),
    "linreg_exact_alpha0.5_learn_prior": lambda: _train(
        "linreg", 0.5, energy_mode="exact", learn_prior=True),
    "mlp_regression_learn_noise": lambda: _train("mlp_regression", 0.5,
                                                 learn_noise=True),
    "three_class": lambda: _train("three_class", 0.5),
    "predict_probit": _predict_probit,
    "vb_energy_exact": _vb_energy_exact,
    "to_nat": _to_nat,
    "toy_predictive": _toy_predictive,
    "analytic_example1": lambda: _table("analytic", "--example", "1",
                                        "--steps", "5"),
    "analytic_example2": lambda: _table("analytic", "--example", "2",
                                        "--sigma2", "0.5", "--steps", "5"),
    # alpha 0 and 1 are the KL limits; beyond alpha 2 the divergence is inf
    "divergence": lambda: _table("divergence", "--mu1", "0,1", "--var1", "1,2",
                                 "--mu2", "0.5,-1", "--var2", "0.5,3",
                                 "--alpha-min", "-1", "--alpha-max", "3",
                                 "--steps", "9"),
}

# name -> (values, sha256 of their float64 bytes under numpy NUMPY)
PINNED = {
    "analytic_example1": (
        [0.01, 0.4987484414, 0.5006265635, 0.5, 7.845082257e-07, 0.505,
         0.4335770209, 0.5355744505, 0.5, 0.002417089323, 1.0, 0.3660254038,
         0.5773502692, 0.5, 0.01085950215, 1.495, 0.3033616758, 0.6223846806,
         0.5, 0.0258191005, 1.99, 0.2509398452, 0.6658322943, 0.5,
         0.04523485855],
        "bec792e4134868816313555af3daad62f52bfb7152ba06665562c14960e51590"),
    "analytic_example2": (
        [0.01, 1.991974364, 0.2006441186, 0.5555555556, 0.5108307988, 0.505,
         1.529931703, 0.2463137057, 0.5555555556, 0.5341055688, 1.0, 1.0,
         0.3333333333, 0.5555555556, 0.6666666667, 1.495, 0.6084116754,
         0.451095934, 0.5555555556, 0.9529426295, 1.99, 0.4028985338,
         0.553772081, 0.5555555556, 1.261250199],
        "a6d8fb32851a39abc4f6013b2948eb68a8e82501786ec6faaa75417d7bbc8da6"),
    "bias_table": (
        [11.963842411880366, 0.23660154659038568, 32.71888772250965,
         1.341866377717172, -0.35469641828395937, 9.512927942667439,
         11.72724086528998, 0.0, 32.71888772250965, 1.6965627960011314, 0.0,
         10.88869761659802],
        "498fdff9af2a550d87bfc2a86881ac4cbdd8ba0c2c6b3473fd00597970efb4e5"),
    "divergence": (
        [-1.0, 42.50006204, -0.5, 3.00231801, 0.0, 1.268841036, 0.5,
         0.9808466726, 1.0, 1.106158964, 1.5, 2.295209823, 2.0, INF, 2.5, INF,
         3.0, INF],
        "ba909cc0850c5084d5d5417124b2bee07fd8da4562c1200123a0e3d84968ff73"),
    "linreg_alpha0.5": (
        [0.4206902700889824, -0.39768550052311025, -2.580281113064381,
         -2.6159297716626138, 120.78516090907681, 98.9899525600376,
         71.93211940651186],
        "86f684e5556dcc3e5db693684a6eaa24dc17d73f4c78efe8be03fe04f8341a30"),
    "linreg_alpha0.5_learn_prior": (
        [0.4207595172280839, -0.3979287132202652, -2.580254346167966,
         -2.616024419176383, 120.72622397716766, 98.72556586765468,
         71.49493247451133, 0.6556291270869155, -0.581278734872383,
         -0.7836809650481497, -0.7822546905711636],
        "65ca7a049c9fc2a32305cc52e1145155c95624231fe16d0118a947663dc587da"),
    "linreg_exact_alpha0.5": (
        [0.1338345382883825, -0.14642837157631605, -2.850751149745877,
         -2.851081594857451, 139.00018302144395, 126.29482026785342,
         114.65743044695546],
        "839f06798fdeae03068022e8426f50aedd8426894907d7bd9fad6327c100c351"),
    "linreg_exact_alpha0.5_learn_prior": (
        [0.13383679708956878, -0.14643509333781402, -2.850750002858546,
         -2.851082274143793, 139.00018302144395, 126.23942958582023,
         114.5423055180711, 0.1744205403016264, -0.17415583967000647,
         -0.5809011105620746, -0.5809021233185406],
        "cc6b1c9e0182f6c820f6b9f4412051f25e8c3dcb17232394efc6142f95372da1"),
    "linreg_vb": (
        [0.42321987318333454, -0.40029851094519164, -2.7601252222676127,
         -3.0859056319969262, 152.4379194890314, 129.63446062378378,
         92.14702255869605],
        "b91f82ed1a78c8af4d2fcf572601bd8fbc8fc0163215b46db3aeea40294cc645"),
    "mlp_regression_learn_noise": (
        [0.40253405787289026, -0.37150557134024675, 0.21279260002620204,
         -0.24455052334659855, 0.08398990826525383, 0.18314515081874047,
         -0.23799420530687365, 0.3314737365583326, 0.14823654963598867,
         -0.33816056991062127, -0.18898997045439805, -0.23209266167275489,
         0.5035637812868038, 0.04804976445234499, 0.07705840170512977,
         -0.20498403206849944, -0.2804309543413241, -2.657221026240623,
         -2.7128506978592983, -2.9731547137034986, -2.6347926810065507,
         -2.6977964096028297, -2.6082063014444197, -2.8348930567141646,
         -2.6766259912616435, -2.650835742411185, -2.5992156645960813,
         -2.8513177951899955, -2.574961323718566, -2.9051709599497233,
         -2.8545992486398397, -2.571976691209049, -2.832708901366027,
         -2.61317371982653, 142.53372959781524, 114.7972988446141,
         96.08278897464731, -0.5793338847124906],
        "9be6b3d014253aef7f6d3c8e69729a43a8249eeb61cf71e45d89d485f8e6ce92"),
    "predict_probit": (
        [0.9730184909971941, 0.004951860155669228, 0.9777781896361473,
         0.034149169321127514, 0.9999966476127741, 0.30860788706741116,
         0.12301624456765863, 0.9954903895580614],
        "7f357207dcb68fbba17d2fdae3ed2a5dd36d6ea943eacf39cd2e10af62937afe"),
    "probit_alpha0.5": (
        [-0.28828135780897274, 0.26156945440624235, 0.42143501350265233,
         -2.7765944869905796, -2.6451709038697535, -2.6220706513262204,
         29.18275825435951, 25.619352196582664, 26.711180859574416],
        "81c1d60ce84ea662e32d267f9f8a64bc731bee259b299ad3cdc365a2562781db"),
    "probit_vb": (
        [-0.26531468819967846, 0.23103614708884646, 0.42395785865015556,
         -3.066677753209233, -2.953503882762641, -2.6610844405479717,
         29.98919593655126, 26.45972577585813, 27.504310735994395],
        "86e7fab2fa0df2739f6fa1a367073586aacf4042c3e2598740ac80d240bfeb52"),
    "three_class": (
        [-0.06790848108054587, 0.05400409187410761, -0.005563224824841674,
         -0.03656497925755318, 0.3189831869230576, -0.05468067897044082,
         0.15727431997334249, 0.02747274644266874, -0.1858863758686479,
         -0.02995502806643228, 0.1724547982536448, -0.20084702674414395,
         -0.03823070973314685, -0.2285003485165561, 0.03619098014562197,
         0.007283066537356486, -0.027261693336482713, 0.06800477248340453,
         0.11924278652325426, 0.08276061394719975, -0.12018341560921386,
         0.1808216620250389, -0.21605309035214426, -0.24315896647776394,
         -0.07024829190808854, -0.135920101449953, -0.18568332111915725,
         0.012922372665033544, 0.14160440595018534, 0.07736942082178207,
         -0.13134261406839376, -0.0858250167818258, -0.044194910760428995,
         0.042588840774064086, -0.2590419896413145, -0.09881876686628678,
         0.026833091798233396, -0.037170343395827456, -0.04481395142422618,
         -2.5499143408772156, -2.5523531655796465, -2.5538185191693215,
         -2.5501765096834106, -2.5520493535476523, -2.5482826445680007,
         -2.551074313702952, -2.549330562365723, -2.5525715659635964,
         -2.5511978977021745, -2.55168274894011, -2.54970033388817,
         -2.5511186709079428, -2.5527499874585793, -2.551019099384114,
         -2.549036979646179, -2.553964054233791, -2.5484802988973803,
         -2.5495989847117566, -2.55022575923315, -2.549509790738292,
         -2.5537751180381623, -2.5573891592453557, -2.550467235380874,
         -2.5574816167945693, -2.5528310252468316, -2.5616094419721858,
         -2.555953962768147, -2.5530778809590498, -2.554661738768119,
         -2.5542990813413096, -2.5548946874834324, -2.550596398363328,
         -2.553190490801367, -2.5509642411863673, -2.5524791367073263,
         -2.5819289726590053, -2.5938454233985557, -2.6048080737840738,
         80.07564415736599, 75.79693750947077, 74.44109252146451],
        "09a0c3d121aee84e120135ffebb0bf4963e57440b76bc11b05e60feeca06004a"),
    "to_nat": (
        [18.0769832308689, -13.246180783476925, 0.7638592389992767,
         -10.042768461593834, -16.557725979346156, -0.22466448205861078],
        "bbdb558700ab1b14b1a3637dc1967fe7ddd226c8a1de564b6f60b4606c603856"),
    "toy_predictive": (
        [-1.4489624407811132, -0.9157395745804193, -0.28960844723857526,
         0.4038560246315538, 0.88333626427644, 3.0000556678046686,
         3.000021247280589, 3.000011657636788, 3.000028422509146,
         3.000103899685349, -1.4489404101225536, -0.9157163055038184,
         -0.28957628427643745, 0.4043040967377264, 0.8842057478728229,
         3.000055560920215, 3.0000212460817566, 3.0000116559903027,
         3.00002845362194, 3.000104031797317],
        "a86b895d09f80eaa3dc10bf2dd2f4d6cb92cbd251cf4e90d40b27d518a2e5928"),
    "vb_energy_exact": (
        [38.971627882853355, 38.77504407267405],
        "99210f5e644136b7679a47ea48aec2e5ae8f04a5a8a0988f6d9ad7a51693105e"),
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
        print('    "%s": (%s,\n        "%s"),' % (
            name, repr(got.tolist()).replace("inf", "INF"),
            hashlib.sha256(got.tobytes()).hexdigest()))
