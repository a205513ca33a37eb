"""Independent oracles used to pin expected values.

Everything here is deliberately written without reference to the package's
own code paths: quadrature instead of the closed form, explicit loops
instead of vectorized backprop, an explicit (n x num_params) per-example
gradient matrix clipped row by row instead of the ghost-norm clipped mean,
direct formula evaluation for the budgets, one closed-form moment order at
a time instead of the accountant's single array pass. The exceptions are
plan_reads and membership_expectation_check, which read the trainer's own
plan records so that the gate covers the draws the trainer makes; forward, loss and whole_accuracy,
which read the net's own batch forward pass so that finite differences of
loss test the backprop of exactly that function and the chunked accuracy is
checked against one pass over the whole split; add_noise, which draws the
package's own addressed noise; and gathered, which reads a split through
its own gather, the one way to read one; charged_rates, which reads the
ledger's own table; and counted_moments, which composes counted steps with
the package's closed-form moment vectors. write_idx_archive is the inverse
of the archive loader, used to build fixtures; make_synthetic_reference is
the synthetic generator as first written, three arrays at once.
"""

import functools
import struct
from collections import Counter

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from dpcl.accountant import step_log_moment
from dpcl.data import IMAGE_MAGIC, LABEL_MAGIC, Dataset
from dpcl.dp import NoiseConfig, draw_noise
from dpcl.errors import InputError, NumericError
from dpcl.nn import _check_batch, log_softmax
from dpcl.trainer import Mode, TrainConfig, _plan


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


def per_order_log_moment(q, sigma, lam):
    """Closed-form alpha_step(lam) for one integer order, one logsumexp over
    the binomial expansion of E_mu0[(mu/mu0)^(lam+1)]."""
    m = lam + 1
    if q == 1.0:
        return m * (m - 1) / (2.0 * sigma * sigma)
    i = np.arange(m + 1)
    log_binom = gammaln(m + 1) - gammaln(i + 1) - gammaln(m - i + 1)
    terms = log_binom + i * np.log(q) + (m - i) * np.log1p(-q) + (i * i - i) / (2.0 * sigma * sigma)
    return float(logsumexp(terms))


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


def forward(net, x):
    """Class probabilities of a DenseNet for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.layer_dims[0],):
        raise InputError(f"expected input of length {net.layer_dims[0]}, got {x.shape}")
    _, logits = net._forward_batch(x[None, :])
    return np.exp(log_softmax(logits))[0]


def loss(net, batch):
    """Mean softmax cross entropy of a DenseNet over the batch: the function
    whose exact gradient nn.grad computes."""
    _check_batch(net, batch.x)
    _, logits = net._forward_batch(batch.x)
    logp = log_softmax(logits)
    return float(-logp[np.arange(len(batch)), batch.y].mean())


def whole_accuracy(net, dataset):
    """Fraction of argmax-correct predictions from one forward pass over the
    whole dataset, gathered at once."""
    batch = gathered(dataset)
    _check_batch(net, batch.x)
    _, logits = net._forward_batch(batch.x)
    return float((logits.argmax(axis=1) == batch.y).mean())


def gathered(split, idx=None):
    """The rows idx of split (all of them when None) as a new Dataset,
    written by split.gather."""
    idx = np.arange(len(split)) if idx is None else np.asarray(idx, dtype=np.intp)
    x, y = np.empty((len(idx), split.feature_dim)), np.empty(len(idx), dtype=np.int64)
    split.gather(idx, x, y)
    return Dataset(x, y, split.num_classes)


def add_noise(g, cfg: NoiseConfig, address=()):
    """g + i.i.d. N(0, sigma^2 * beta^2) per coordinate, reproducible per
    address, in a new array."""
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient contains NaN/Inf")
    if cfg.sigma == 0.0:
        return g.copy()
    z = draw_noise(cfg.seed, address, cfg.sigma * cfg.clip_bound, np.empty(g.shape))
    z += g
    return z


def make_synthetic_reference(d, num_classes, n_per_class, margin, seed):
    """(x, y) of make_synthetic for valid arguments: one array per class,
    their concatenation and its clip, then the shuffle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(901,)))
    block = d // num_classes
    means = np.zeros((num_classes, d))
    for c in range(num_classes):
        means[c, c * block:(c + 1) * block] = margin
    sigma_blob = margin / 12.0
    if n_per_class == 0:
        return np.zeros((0, d)), np.zeros(0, dtype=np.int64)
    xs, ys = [], []
    for c in range(num_classes):
        xs.append(means[c] + sigma_blob * rng.standard_normal((n_per_class, d)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.clip(np.concatenate(xs), 0.0, 1.0)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def initial_params(layer_dims, seed):
    """The flat initial parameters of a [d, h1, ..., C] net: for each layer
    in turn, W (fan_in x fan_out) and then b drawn uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] from one generator under
    SeedSequence(seed, spawn_key=(101,)), all concatenated."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    parts = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
        parts.append(rng.uniform(-bound, bound, size=fan_out))
    return np.concatenate(parts)


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


def clip_vector(g, beta):
    """Rescale g to L2 norm at most beta: g * min(1, beta/||g||)."""
    norm = np.linalg.norm(g)
    return g if norm <= beta else g * (beta / norm)


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


@functools.lru_cache(maxsize=None)
def plan_reads(n_blocks, block_size, k, steps, seed):
    """How often the plan records of `steps` dp_cl steps of task n_blocks + 1,
    after n_blocks stored blocks of block_size rows, choose each block and
    read each of its rows: (n_blocks,) and (n_blocks, block_size) read-only
    counts. Cached, because one walk serves several tests."""
    cfg = TrainConfig(mode=Mode.DP_CL, sampling_rate=1.0, epochs_per_task=steps,
                      ref_batch_size=k, seed=seed)
    ids, cells = [], []  # cell (block_id - 1) * block_size + row of every row read
    for record in _plan(cfg, [(n_blocks + 1, 0, [block_size] * n_blocks)]):
        for block_id, rows in zip(record.block_ids, record.ref_rows):
            ids.append(block_id - 1)
            cells.append((block_id - 1) * block_size + rows)
    chosen = np.bincount(ids, minlength=n_blocks)
    read = np.bincount(np.concatenate(cells), minlength=n_blocks * block_size)
    read = read.reshape(n_blocks, block_size)
    chosen.flags.writeable = read.flags.writeable = False
    return chosen, read


def charged_rates(ledger, task_id, blocks) -> Counter:
    """q -> steps of task_id's charges to any of blocks (block 0 is its
    training release), read off the ledger's (task, block, q) counts."""
    rates = Counter()
    for (t, b, q), n in ledger.charges.items():
        if t == task_id and b in blocks:
            rates[q] += n
    return rates


def counted_moments(rates, sigma, lambda_max):
    """The log moments of the steps rates counts, two ways: the sum over q,
    in increasing q, of n_q * alpha_step(q), which is the ledger's
    composition, and the sum of one alpha_step(q) per step, rates in
    increasing q, which is how a step-by-step state summed them."""
    lams = np.arange(1, lambda_max + 1)
    counted, sequential = np.zeros(lambda_max), np.zeros(lambda_max)
    for q, n in sorted(rates.items()):
        vec = step_log_moment(q, sigma, lams)
        counted = counted + n * vec
        for _ in range(n):
            sequential = sequential + vec
    return counted, sequential


def membership_expectation_check(blocks, q, trials, seed=0) -> dict:
    """Monte-Carlo per-example selection frequencies under the trainer's
    plan (plan_reads of trials steps), keyed by (block id, row).

    blocks[i] is the stored block of task i + 1, and all blocks are the same
    size; q = ref_batch_size / block size. Each example's frequency should
    approach q / len(blocks).
    """
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise InputError("blocks must be equal size for the expectation check")
    block_size = sizes.pop()
    ref_batch_size = int(round(q * block_size))
    if ref_batch_size == 0:
        return {(i + 1, j): 0.0 for i in range(len(blocks)) for j in range(block_size)}
    _, read = plan_reads(len(blocks), block_size, ref_batch_size, trials, seed)
    return {(i + 1, j): c / trials for (i, j), c in np.ndenumerate(read)}


def write_idx_archive(images_path, labels_path, pixels, labels):
    """Inverse of load_idx_archive; pixels are uint8 (n, rows, cols)."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())
