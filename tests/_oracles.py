"""Independent oracles used to pin expected values.

Everything here is deliberately written without reference to the package's
own code paths: quadrature instead of the closed form, explicit loops
instead of vectorized backprop, an explicit (n x num_params) per-example
gradient matrix instead of the ghost-norm clipped mean, direct formula
evaluation for the budgets.
"""

import numpy as np
from scipy.integrate import quad


def quad_log_moment(q, sigma, lam):
    """log E_{z~mu}[(mu/mu0)^lam] by adaptive quadrature over z in
    [-20 sigma, 20 sigma + 1], with mu = (1-q) N(0,s^2) + q N(1,s^2)."""
    s2 = sigma * sigma

    def integrand(z):
        pdf0 = np.exp(-z * z / (2 * s2)) / np.sqrt(2 * np.pi * s2)
        ratio = (1 - q) + q * np.exp((2 * z - 1) / (2 * s2))
        return pdf0 * ratio ** (lam + 1)

    val, _ = quad(integrand, -20 * sigma, 20 * sigma + 1,
                  epsabs=1e-13, epsrel=1e-12, limit=300)
    return float(np.log(val))


def quad_epsilon(q, sigma, steps, delta, lam_grid):
    """Tail-bound epsilon from quadrature-computed moments over a lambda grid."""
    best = np.inf
    for lam in lam_grid:
        alpha = steps * quad_log_moment(q, sigma, lam)
        best = min(best, (alpha - np.log(delta)) / lam)
    return best


def straight_line_forward(weights, biases, x):
    """Explicit-loop forward pass: relu hiddens, softmax output."""
    a = list(x)
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = []
        for j in range(len(b)):
            acc = b[j]
            for i in range(len(a)):
                acc += a[i] * w[i][j]
            z.append(acc)
        if layer < len(weights) - 1:
            a = [max(0.0, v) for v in z]
        else:
            m = max(z)
            exps = [np.exp(v - m) for v in z]
            total = sum(exps)
            return [e / total for e in exps]


def finite_difference_grad(loss_fn, params, step=1e-5):
    """Central finite differences of a scalar loss over a flat parameter vector."""
    fd = np.zeros_like(params)
    for i in range(len(params)):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        fd[i] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return fd


def nearest_centroid_accuracy(dataset):
    """Classify by nearest class centroid; the synthetic blobs should be exact."""
    centroids = np.stack([dataset.x[dataset.y == c].mean(axis=0)
                          for c in range(dataset.num_classes)])
    d2 = ((dataset.x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == dataset.y).mean())


def per_example_grad_matrix(weights, biases, x, y):
    """(n, num_params) matrix whose row i is the gradient of example i's own
    softmax cross entropy, W then b layer by layer, built from explicit
    per-example outer products."""
    acts = [np.asarray(x, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    logits = acts[-1] @ weights[-1] + biases[-1]
    # softmax as exp(log-softmax), so that saturated rows round as in training
    shifted = logits - logits.max(axis=1, keepdims=True)
    delta = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    n = len(y)
    delta[np.arange(n), y] -= 1.0
    slabs = []
    for layer in range(len(weights) - 1, -1, -1):
        outer = np.einsum("ni,nj->nij", acts[layer], delta).reshape(n, -1)
        slabs.insert(0, np.concatenate([outer, delta], axis=1))
        if layer > 0:
            delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
    return np.concatenate(slabs, axis=1)
