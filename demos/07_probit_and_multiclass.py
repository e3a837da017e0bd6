"""Black-box training on non-conjugate likelihoods.

The same energy code trains a Bayesian probit classifier and a two-layer
softmax network without any model-specific derivation: the likelihood only
has to expose log p(y | theta, x) built from autodiff primitives. Includes
a negative-alpha run (mass-covering beyond the VB limit).
"""

import numpy as np

from bbalpha import predict
from bbalpha.likelihoods import (MLPClassification, ProbitRegression,
                                 gen_synthetic_probit, gen_three_class)
from bbalpha.optim import TrainConfig, default_prior, train

# --- probit ---------------------------------------------------------------
data = gen_synthetic_probit(0, n=200, d=4)
model = ProbitRegression(4)
for a in ["vb", 0.5, 1.0]:
    cfg = TrainConfig(alpha=a, k_samples=50, batch_size=32, epochs=60,
                      learning_rate=0.05, seed=0)
    q, _, trace = train(model, data, default_prior(4), cfg)
    probs = predict.predict_probit(q, model, data.features, 100, 0)  # (n, 2)
    accuracy = np.mean((probs[:, 1] >= 0.5) == (data.targets > 0))
    print("probit alpha=%-5s final energy %9.3f  train accuracy %.3f"
          % (a, trace.energy[-1], accuracy))

# --- three-class MLP ------------------------------------------------------
print()
data = gen_three_class(0, n=120)
for a in [-1.0, 1e-6, 0.5, 1.0]:
    model = MLPClassification(2, 20, 20, 3)
    cfg = TrainConfig(alpha=a, k_samples=20, batch_size=30, epochs=40,
                      learning_rate=0.02, seed=0)
    q, _, trace = train(model, data, default_prior(model.theta_dim), cfg)
    probs = predict.predict_class(q, model, data.features, 50, 0)   # (n, 3)
    accuracy = np.mean(np.argmax(probs, axis=1) == data.targets)
    print("3-class alpha=%-6s final energy %9.3f  train accuracy %.3f"
          % (a, trace.energy[-1], accuracy))
