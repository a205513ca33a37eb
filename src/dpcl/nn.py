"""Dense feed-forward classifier with exact backprop.

The parameters are one flat vector, DenseNet.params (W then b, layer by
layer, the layout of every gradient), which the layers view and the clip /
noise / projection pipeline consumes; an update adds to it in place. One
backward pass over a batch, features x (n, d) and labels y (n,), gives each
layer's inputs A_l and output deltas D_l. The batch gradient is
sum_l A_l^T D_l / n; the clipped mean scales the rows of D_l by per-example
norm factors (the ghost-norm identity, Goodfellow 2015, arXiv 1510.01799),
so no (batch x num_params) matrix is built. Both write each layer's block
through its views of one flat vector: out=, or a new array when None.
"""

from __future__ import annotations

import numpy as np

from . import dp
from .errors import ConfigError, InputError, NumericError

_EVAL_ROWS = 500  # rows per chunk of an evaluation


def log_softmax(logits):
    # log-sum-exp keeps the cross entropy stable for large logits
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _num_params(layer_dims):
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def _layer_views(layer_dims, flat):
    """Each layer's (W, b), views into flat of shapes (fan_in, fan_out) and
    (fan_out,): the flat layout is W then b, layer by layer."""
    off = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        w_end = off + fan_in * fan_out
        yield flat[off:w_end].reshape(fan_in, fan_out), flat[w_end:w_end + fan_out]
        off = w_end + fan_out


class DenseNet:
    """Rectifier MLP with a softmax output layer; layer_dims = [d, h1, ..., C].

    params, a C-contiguous float64 vector in the gradients' layout, is the
    net's one store of the weights, not a copy. weights[l] and biases[l] are
    views into it, in tuples so that no layer can be rebound away from it.
    """

    def __init__(self, layer_dims, params):
        n = _num_params(layer_dims)
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64
                and params.shape == (n,) and params.flags.c_contiguous):
            raise InputError(f"expected a contiguous float64 vector of {n} parameters")
        self.layer_dims, self._params = list(layer_dims), params
        self.weights, self.biases = map(tuple, zip(*_layer_views(layer_dims, params)))

    @classmethod
    def create(cls, layer_dims, seed=0):
        """Weights and biases drawn uniform in +-1/sqrt(fan_in), W then b, layer by layer."""
        rng = dp.rng(seed, 101)
        net = cls(layer_dims, np.empty(_num_params(layer_dims)))
        for w, b in zip(net.weights, net.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        return net

    @property
    def params(self):  # the one store: write into it; it cannot be rebound
        return self._params

    @property
    def num_params(self):
        return self._params.size

    def _forward_batch(self, x):
        """Return (activations, logits); activations[l] feeds layer l."""
        acts = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = acts[-1] @ w
            h += b
            acts.append(np.maximum(h, 0.0, out=h))
        logits = acts[-1] @ self.weights[-1]
        logits += self.biases[-1]
        return acts, logits


def _check_batch(net, x):
    if len(x) == 0:
        raise InputError("empty batch")
    if x.shape[1] != net.layer_dims[0]:
        raise InputError("feature dimension mismatch")


def _backward(net, x, y):
    """Layer inputs acts[l] (n, fan_in) and output deltas deltas[l] (n, fan_out):
    example i's gradient is outer(acts[l][i], deltas[l][i]) for W_l and
    deltas[l][i] for b_l."""
    _check_batch(net, x)
    acts, logits = net._forward_batch(x)
    deltas = [np.exp(log_softmax(logits))]
    deltas[0][np.arange(len(x)), y] -= 1.0  # dL_i/dlogits
    for l in range(len(net.weights) - 1, 0, -1):
        d = deltas[0] @ net.weights[l].T
        deltas.insert(0, np.multiply(d, acts[l] > 0.0, out=d))
    return acts, deltas


def _mean_over_examples(net, acts, deltas, out=None):
    """Mean of the examples' flat gradients, each layer's block written
    through its views of out (a new array when out is None)."""
    if out is None:
        out = np.empty(net.num_params)
    for a, d, (w, b) in zip(acts, deltas, _layer_views(net.layer_dims, out)):
        np.matmul(a.T, d, out=w)
        np.sum(d, axis=0, out=b)
    out /= len(acts[0])
    return out


def _example_sq_norms(acts, deltas):
    """||g_i||^2 = sum_l (||a_i^l||^2 + 1) * ||delta_i^l||^2, the 1 for the bias;
    not finite when an entry of g_i is not, or when its square overflows."""
    return sum((np.einsum("ij,ij->i", a, a) + 1.0) * np.einsum("ij,ij->i", d, d)
               for a, d in zip(acts, deltas))


def grad(net: DenseNet, x, y, *, out=None) -> np.ndarray:
    """Exact gradient of the mean softmax cross entropy of (x, y) w.r.t. the
    flattened parameters, written into out (a new array when out is None)."""
    return _mean_over_examples(net, *_backward(net, x, y), out)


def clipped_mean_grad(net: DenseNet, x, y, beta, sizes=None, *, out=None) -> np.ndarray:
    """Mean of the per-example gradients of (x, y), each clipped to L2 norm at
    most beta as g_i * min(1, beta/||g_i||), without building any g_i. With
    sizes, the rows form consecutive groups of those lengths and the result
    is the mean of the groups' clipped means, still from one backward pass.
    Written into out like grad(). Raises NumericError when some ||g_i|| is
    not finite."""
    if beta <= 0:
        raise ConfigError("clip bound must be positive")
    acts, deltas = _backward(net, x, y)
    sq_norms = _example_sq_norms(acts, deltas)
    if not np.all(np.isfinite(sq_norms)):
        raise NumericError("gradient contains NaN/Inf")
    scale = beta / np.maximum(np.sqrt(sq_norms), beta)
    if sizes is not None:  # a row of group b weighs n / (B * |b|) in the mean over all n
        scale *= np.repeat(len(x) / (len(sizes) * np.asarray(sizes)), sizes)
    for d in deltas:
        d *= scale[:, None]
    return _mean_over_examples(net, acts, deltas, out)


def accuracy(net: DenseNet, dataset) -> float:
    """Fraction of argmax-correct predictions (ties break to the lowest index).
    Reads dataset through gather, _EVAL_ROWS rows at a time into one buffer,
    so no more than one chunk of a TaskSplit is gathered at once."""
    n = len(dataset)
    x = np.empty((min(n, _EVAL_ROWS), dataset.feature_dim))
    _check_batch(net, x)
    y = np.empty(len(x), dtype=np.int64)
    correct = 0
    for start in range(0, n, _EVAL_ROWS):
        k = min(_EVAL_ROWS, n - start)
        dataset.gather(np.arange(start, start + k), x[:k], y[:k])
        _, logits = net._forward_batch(x[:k])
        correct += int(np.count_nonzero(logits.argmax(axis=1) == y[:k]))
    return correct / n  # bitwise the mean of the n correct/incorrect flags
