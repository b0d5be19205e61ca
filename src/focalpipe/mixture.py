"""Gaussian-mixture clustering of box centers by EM.

The pipeline fits the (n, 2) box centers with every component log density
multiplied by `density_power`. The component count grows as log2 of the box
count. A fit's restarts run in lockstep on (restarts, k, n) arrays, so that
every numpy pass runs along the n boxes; the sum over k keeps numpy's pairwise
order for a contiguous axis, written out (`_sum_k`, held to `np.sum` by
`TestSumK`), and `exp` skips numpy's slow path for subnormal and zero results
(`_exp`), both bit for bit. `posterior` and `assign_clusters` share one
batched path, with a nearest-mean fallback for a row whose density underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .boxgeom import Box, box_array

LOG_2PI = math.log(2.0 * math.pi)
_EXP_FAST = -700.0  # numpy's vector exp runs fast from about -707.7 up
_EXP_ZERO = -746.0  # np.exp(a) is +0.0 for every a below this


@dataclass(frozen=True)
class EmConfig:
    max_iterations: int = 100
    tolerance: float = 1e-4
    covariance_floor: float = 1.0
    rng_seed: int = 0
    restarts: int = 3

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.covariance_floor <= 0:
            raise ValueError("covariance_floor must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class MixtureModel:
    """Fitted diagonal-covariance Gaussian mixture.

    weights: (k,), sums to 1. means: (k, dim). variances: (k, dim), the
    diagonals of the component covariances, floored during fitting.
    density_power: factor on every component log density, in the fit and in
    `posterior` and `assign_clusters`.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float = float("-inf")
    ll_history: list[float] = field(default_factory=list)
    density_power: float = 1.0

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


class Posterior(NamedTuple):
    probs: np.ndarray
    nearest_mean_fallback: bool


def num_focal_regions(n_gt: int) -> int:
    """Cluster count for an image with n_gt ground-truth boxes.

    floor(log2(n_gt)) + 2, clamped so there are never more clusters than
    boxes.
    """
    if n_gt <= 0:
        raise ValueError("no ground truth: cannot choose a region count")
    return min(int(n_gt).bit_length() - 1 + 2, n_gt)


def _centers(boxes: Sequence[Box]) -> np.ndarray:
    """The (n, 2) box centers (0.5 * (x1 + x2), 0.5 * (y1 + y2))."""
    xy = box_array(boxes)
    with np.errstate(over="ignore"):  # a center past float64 is inf, which fails the fit
        return 0.5 * (xy[:, :2] + xy[:, 2:])


def featurize(boxes: Sequence[Box], points: np.ndarray) -> np.ndarray:
    """Offsets of each box center from each image point of `points` (P, 2), shape (n, 2P):
    entry pair k of a row is (center_x - x_k, center_y - y_k). Box extent is intentionally
    not part of the feature."""
    if not boxes:
        raise ValueError("featurize requires at least one box")
    return (_centers(boxes)[:, None, :] - points[None, :, :]).reshape(len(boxes), -1)


def _log_joint(x: np.ndarray, weights: np.ndarray, means: np.ndarray,
               variances: np.ndarray, power: float) -> np.ndarray:
    """log weight + power * diagonal-Gaussian log density; x (n, d), weights (..., k),
    means and variances (..., k, d) -> (..., k, n). The terms `diff * diff / var`, one plane
    per dimension, are added left to right, in place, onto the first plane (`0.0 + t` is `t`
    for every t >= +0.0 or NaN): for d < 8 the sum numpy's reduce over a length-d axis gives,
    so one row with d < 8 takes that reduce, in fewer numpy calls, and no in-place ones,
    which cost more than they save on one row. A zero-dimension model sums to 0.0."""
    log_norm = (np.log(variances).sum(axis=-1) + variances.shape[-1] * LOG_2PI)[..., None]
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)[..., None]
    if len(x) == 1 and x.shape[1] < 8:
        maha = ((x - means) ** 2 / variances).sum(axis=-1)[..., None]
        return log_w + power * (-0.5 * (maha + log_norm))
    maha, term = None if x.shape[1] else np.zeros(means.shape[:-1] + (len(x),)), None
    for j in range(x.shape[1]):
        term = np.square(np.subtract(x[:, j], means[..., j, None], out=term), out=term)
        np.divide(term, variances[..., j, None], out=term)
        if maha is None:
            maha, term = term, None
        else:
            maha += term
    maha += log_norm
    np.multiply(power, np.multiply(-0.5, maha, out=maha), out=maha)
    return np.add(log_w, maha, out=maha)


def _exp(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`np.exp(a)` bit for bit, without numpy's slow path for subnormal and zero results,
    which costs 10-150 times a normal one: `np.exp` of `a` clamped at `_EXP_FAST` (a NaN
    keeps its payload), +0.0 where it was clamped, then `np.exp` of the compacted band from
    `_EXP_ZERO` up to `_EXP_FAST`. `out` may be `a`: the band is read before the overwrite."""
    low = a < _EXP_FAST
    band = (low & (a >= _EXP_ZERO)).ravel().nonzero()[0]
    edge = np.exp(a.flat[band])
    out = np.maximum(a, _EXP_FAST, out=out)
    np.exp(out, out=out)
    np.copyto(out, 0.0, where=low)
    out.flat[band] = edge
    return out


def _sum_k(a: np.ndarray) -> np.ndarray:
    """Sum over axis -2 of (..., k, n), bit for bit `np.sum(axis=-1)` of the (..., n, k) copy:
    numpy's pairwise order written out, with halves above k = 128. numpy adds that sum onto
    +0.0, which only turns -0.0 into +0.0; doing so in each half as well changes no sum.
    Below k = 8 numpy's reduce has that order."""
    k = a.shape[-2]
    if k < 8:
        return a.sum(axis=-2)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _sum_k(a[..., :half, :]) + _sum_k(a[..., half:, :])
    r = a[..., :8, :].copy()
    for i in range(8, k - k % 8, 8):
        r += a[..., i:i + 8, :]
    while r.shape[-2] > 1:  # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        r = r[..., 0::2, :] + r[..., 1::2, :]
    for i in range(k - k % 8, k):
        r += a[..., i:i + 1, :]
    return np.add(0.0, r[..., 0, :])


def _logsumexp(a: np.ndarray, exp: Callable[..., np.ndarray]) -> np.ndarray:
    """log(sum(exp(a))) over the k axis of (..., k, n), shifted by its max; -inf if all -inf."""
    shift = a.max(axis=-2)
    shift[~np.isfinite(shift)] = 0.0
    t = a - shift[..., None, :]
    with np.errstate(divide="ignore"):
        return shift + np.log(_sum_k(exp(t, out=t)))


@np.errstate(all="ignore")  # overflow is checked; a restart with total <= 0 uses no cdf
def _kmeanspp_indices(x: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ style seeding of one restart per generator, in lockstep: (restarts, k) rows,
    the first uniform, the rest by squared distance, each drawn as `Generator.choice(n, p=d2 /
    total)` draws it from its restart's generator, without its checks on p. Sums and cumsums
    run along the contiguous n axis, so each restart has the bits it has on its own."""
    n, d2 = len(x), np.full((len(rngs), len(x)), np.inf)  # distance to the nearest chosen row
    chosen = [[rng.integers(n) for rng in rngs]]  # per step, the row of each restart
    for _ in range(1, k):
        newest = x[chosen[-1], :, None]
        np.minimum(d2, sum((x[:, j] - newest[:, j]) ** 2 for j in range(x.shape[1])), out=d2)
        total = d2.sum(axis=1)
        cdf = (d2 / total[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        if not np.isfinite(total).all():
            raise ValueError("squared distances between features overflow float64")
        chosen.append([rng.integers(n) if t <= 0 else c.searchsorted(rng.random(), "right")
                       for rng, t, c in zip(rngs, total.tolist(), cdf)])
    return np.array(chosen).T


def _variances(x: np.ndarray, resp: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Unnormalized M-step variances (a, k, d), one einsum per dimension. At k = 1 einsum
    sums the (n, 1) operand in another order; the 4-D form keeps `"nk,nkd->kd"`'s."""
    if means.shape[1] == 1:
        return np.einsum("ank,ankd->akd", resp, (x[:, None, :] - means[:, None]) ** 2)
    out = np.empty(means.shape)
    for j in range(x.shape[1]):
        out[..., j] = np.einsum("ank,ank->ak", resp, (x[:, j, None] - means[:, None, :, j]) ** 2)
    return out


def fit_em(
    features: np.ndarray | Sequence[Sequence[float]],
    k: int,
    cfg: EmConfig = EmConfig(),
    density_power: float = 1.0,
) -> MixtureModel:
    """Fit a k-component diagonal Gaussian mixture by expectation maximization.

    Every component log density is multiplied by `density_power`. Runs
    cfg.restarts seeded restarts and returns the run with the best final log
    likelihood. Deterministic for a fixed cfg.rng_seed.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or not x.shape[1]:
        raise ValueError("features must be a 2-D array of equal-length, non-empty vectors")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(x) < k:
        raise ValueError(f"cannot fit {k} components to {len(x)} samples")
    if not (math.isfinite(density_power) and density_power > 0):
        raise ValueError("density_power must be positive and finite")

    # the restarts run in lockstep, as (a, k, n) arrays over the `a` still running
    n, r = len(x), cfg.restarts
    rngs = list(map(np.random.default_rng, np.random.SeedSequence(cfg.rng_seed).spawn(r)))
    means = x[_kmeanspp_indices(x, k, rngs)]
    weights = np.full((r, k), 1.0 / k)
    with np.errstate(over="ignore", invalid="ignore"):
        variances = np.tile(np.maximum(np.var(x, axis=0), cfg.covariance_floor), (r, k, 1))
    if not np.isfinite(variances).all():  # k-means++ seeding checks this only for k >= 2
        raise ValueError("squared distances between features overflow float64")
    history: list[list[float]] = [[] for _ in range(r)]
    running, prev_ll = np.arange(r), np.full(r, -np.inf)
    for _ in range(cfg.max_iterations):
        log_joint = _log_joint(x, weights[running], means[running], variances[running],
                               density_power)
        log_norm = _logsumexp(log_joint, _exp)
        ll = log_norm.sum(axis=1)
        for i, value in zip(running.tolist(), ll.tolist()):
            history[i].append(value)
        log_joint -= log_norm[:, None]
        # the M-step adds over n one by one, as the reference does, on an (a, n, k) copy
        resp = _exp(log_joint, out=log_joint).transpose(0, 2, 1).copy()

        nk = np.maximum(np.einsum("ank->ak", resp), 1e-12)  # at k = 1 every term is 1.0
        weights[running] = nk / n
        means[running] = m = np.matmul(resp.transpose(0, 2, 1), x) / nk[..., None]
        variances[running] = np.maximum(_variances(x, resp, m) / nk[..., None],
                                        cfg.covariance_floor)
        # a restart stops once its log likelihood changes by less than the tolerance
        go_on = ~((prev_ll != -np.inf) & (np.abs(ll - prev_ll) < cfg.tolerance))
        running, prev_ll = running[go_on], ll[go_on]
        if not len(running):
            break

    final = _logsumexp(_log_joint(x, weights, means, variances, density_power),
                       _exp).sum(axis=1).tolist()
    runs = [MixtureModel(weights[i], means[i], variances[i], log_likelihood=final[i],
                         ll_history=history[i] + [final[i]], density_power=density_power)
            for i in range(r)]
    # max keeps the first of equal bests, as restarts are tried in order
    return max(runs, key=lambda model: model.log_likelihood)


def _posteriors(model: MixtureModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`posterior` of each row of `x` (n, dim): probabilities (n, k) and fallback flags (n,)."""
    log_joint = _log_joint(x, model.weights, model.means, model.variances, model.density_power)
    exp = np.exp if len(x) == 1 else _exp  # on one row the split costs more than it saves
    norm = _logsumexp(log_joint, exp)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = exp(log_joint - norm).T
        fallback = ~np.isfinite(norm) | (np.exp(norm) == 0.0)
    if fallback.any():
        nearest = np.argmin(((x[fallback, None, :] - model.means) ** 2).sum(axis=2), axis=1)
        probs[fallback] = np.eye(model.n_components)[nearest]
    return probs, fallback


def posterior(model: MixtureModel, x: np.ndarray | Sequence[float]) -> Posterior:
    """Component membership probabilities for one feature vector.

    If every component density underflows to zero, falls back to a one-hot
    assignment at the nearest mean and flags the result.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (model.dim,):
        raise ValueError(f"feature length {v.shape} does not match model dim {model.dim}")
    probs, fallback = _posteriors(model, v[None, :])
    return Posterior(probs=probs[0], nearest_mean_fallback=bool(fallback[0]))


def assign_clusters(
    model: MixtureModel, features: np.ndarray | Sequence[Sequence[float]]
) -> list[int]:
    """Hard cluster assignment: argmax posterior, ties to the lowest index."""
    x = np.asarray(features, dtype=float).reshape(len(features), model.dim)
    return np.argmax(_posteriors(model, x)[0], axis=1).tolist()
