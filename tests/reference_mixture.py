"""Scalar-form reference for `focalpipe.mixture`'s EM, used as the oracle in tests.

This is EM as first written: the log joint reduces an (n, k, d) array over
its last axis, the M-step variances are one `"nk,nkd->kd"` einsum, and
k-means++ recomputes the (n, chosen, d) distances to every chosen mean at
each step. The package's per-dimension forms must match it bit for bit.
The restarts run one after another, and every `exp` is a plain `np.exp`.
`ref_posterior` scores one feature vector on its own, with a scalar
log-sum-exp and its own nearest-mean fallback; `posterior`'s batched path
must match it bit for bit. `grid_points` and `box_centers` build the grid-offset
feature's inputs.
"""

from __future__ import annotations

import math

import numpy as np

from focalpipe.boxgeom import box_array
from focalpipe.mixture import LOG_2PI, EmConfig, MixtureModel, Posterior


def grid_points(rows, cols, width, height):
    """An evenly sampled grid of image points, shape (rows*cols, 2), in row-major order:
    point (r, c) sits at (((c + 0.5) / cols) * width, ((r + 0.5) / rows) * height)."""
    gx, gy = np.meshgrid((np.arange(cols) + 0.5) / cols * width,
                         (np.arange(rows) + 0.5) / rows * height)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def box_centers(boxes):
    """The (n, 2) centers (0.5 * (x1 + x2), 0.5 * (y1 + y2)), from the corners."""
    xy = box_array(boxes)
    return 0.5 * (xy[:, :2] + xy[:, 2:])


def ref_log_joint(x, weights, means, variances, power):
    diff = x[:, None, :] - means[None, :, :]  # (n, k, d)
    maha = np.sum(diff * diff / variances[None, :, :], axis=2)
    log_norm = np.sum(np.log(variances), axis=1) + variances.shape[1] * LOG_2PI
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return log_w[None, :] + power * (-0.5 * (maha + log_norm[None, :]))


def ref_logsumexp(a):
    """Row-wise log(sum(exp(a))) of an (n, k) array, shifted by the row max."""
    shift = a.max(axis=1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        return shift[:, 0] + np.log(np.exp(a - shift).sum(axis=1))


def ref_kmeanspp_indices(x, k, rng):
    n = len(x)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = np.min(
            np.sum((x[:, None, :] - x[chosen][None, :, :]) ** 2, axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            chosen.append(int(rng.integers(n)))
            continue
        chosen.append(int(rng.choice(n, p=d2 / total)))
    return chosen


def _ref_single_run(x, k, cfg, power, rng):
    n, d = x.shape
    means = x[ref_kmeanspp_indices(x, k, rng)].copy()
    weights = np.full(k, 1.0 / k)
    global_var = np.maximum(np.var(x, axis=0), cfg.covariance_floor)
    variances = np.tile(global_var, (k, 1))

    history = []
    prev_ll = float("-inf")
    for _ in range(cfg.max_iterations):
        log_joint = ref_log_joint(x, weights, means, variances, power)
        log_norm = ref_logsumexp(log_joint)
        ll = float(np.sum(log_norm))
        history.append(ll)
        resp = np.exp(log_joint - log_norm[:, None])

        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        diff2 = (x[:, None, :] - means[None, :, :]) ** 2
        variances = np.einsum("nk,nkd->kd", resp, diff2) / nk[:, None]
        variances = np.maximum(variances, cfg.covariance_floor)

        if prev_ll != float("-inf") and abs(ll - prev_ll) < cfg.tolerance:
            break
        prev_ll = ll

    final_ll = float(np.sum(ref_logsumexp(ref_log_joint(x, weights, means, variances, power))))
    history.append(final_ll)
    return MixtureModel(weights, means, variances, log_likelihood=final_ll,
                        ll_history=history, density_power=power)


def ref_fit_em(features, k, cfg=EmConfig(), density_power=1.0):
    x = np.asarray(features, dtype=float)
    assert math.isfinite(density_power) and density_power > 0
    runs = (_ref_single_run(x, k, cfg, density_power, np.random.default_rng(child))
            for child in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.restarts))
    return max(runs, key=lambda model: model.log_likelihood)


def ref_posterior(model, x):
    """Membership probabilities of one feature vector, scored on its own: the
    log-sum-exp shifted by the row max, and a one-hot at the nearest mean when
    the mixture density underflows to zero in linear space."""
    v = np.asarray(x, dtype=float)
    log_joint = ref_log_joint(v[None, :], model.weights, model.means, model.variances,
                              model.density_power)[0]
    shift = log_joint.max()
    if np.isfinite(shift):
        norm = shift + np.log(np.exp(log_joint - shift).sum())
    else:
        norm = shift
    if not np.isfinite(norm) or np.exp(norm) == 0.0:
        nearest = int(np.argmin(np.sum((model.means - v[None, :]) ** 2, axis=1)))
        probs = np.zeros(model.n_components)
        probs[nearest] = 1.0
        return Posterior(probs=probs, nearest_mean_fallback=True)
    return Posterior(probs=np.exp(log_joint - norm), nearest_mean_fallback=False)


def ref_assign_clusters(model, features):
    """Argmax posterior per row; a row whose mixture density underflows goes to
    its nearest mean, as `posterior` falls back."""
    x = np.asarray(features, dtype=float).reshape(len(features), model.dim)
    log_joint = ref_log_joint(x, model.weights, model.means, model.variances,
                              model.density_power)
    norm = ref_logsumexp(log_joint)
    with np.errstate(over="ignore", invalid="ignore"):
        labels = np.argmax(np.exp(log_joint - norm[:, None]), axis=1)
        underflow = ~np.isfinite(norm) | (np.exp(norm) == 0.0)
    for i in np.flatnonzero(underflow):
        labels[i] = np.argmin(np.sum((model.means - x[i][None, :]) ** 2, axis=1))
    return labels.tolist()
