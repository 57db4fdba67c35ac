"""Bandwidth selection under dataset-level perturbations.

The effective sample size n_eff = n/(1 + n*tau) replaces n in the classical
bandwidth rule once the perturbation strength tau is known; when it is not,
cross-validation that holds out entire perturbation realizations sees the
distributional variance that random splits miss, and tau itself can be
estimated from the spread of per-realization summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .baseline import Dataset, bucket_labels
from .local_poly import LpeConfig, predict_grid, sort_design
from .streams import substream

EVAL_WINDOW = (0.05, 0.95)  # interior window; boundary variance otherwise dominates small-h scores
TIE_RTOL, TIE_ATOL = 1e-9, 1e-12  # argmin_prefer_larger's near-tie tolerance


class NeedsMultipleDomains(Exception):
    """Realization-structured CV needs at least two realizations."""


class NumericDeadEnd(ValueError):
    """No candidate bandwidth has a finite score, so none can be chosen."""


@dataclass(frozen=True)
class EffectiveSampleSize:
    n: int
    tau: float
    n_eff: float


def effective_sample_size(n: int, tau: float) -> EffectiveSampleSize:
    """n_eff = n / (1 + n*tau); equals n at tau=0 and caps near 1/tau."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not tau >= 0:  # NaN fails too
        raise ValueError("tau must be nonnegative")
    return EffectiveSampleSize(n=n, tau=tau, n_eff=n / (1.0 + n * tau))


def oracle_bandwidth(n: int, tau: float, beta: float) -> float:
    """Rate-optimal bandwidth (1/n + tau)^(1/(2*beta+1)).

    Reduces to the classical n^(-1/(2*beta+1)) at tau=0 and flattens to
    tau^(1/(2*beta+1)) once tau dominates 1/n. Only the exponent is
    principled; the constant in front is taken as 1.
    """
    if not beta > 0:  # NaN fails too
        raise ValueError("beta must be positive")
    if n < 1 or not tau >= 0:
        raise ValueError("need n >= 1 and tau >= 0")
    return (1.0 / n + tau) ** (1.0 / (2.0 * beta + 1.0))


@dataclass
class BandwidthSelection:
    h_star: float
    diagnostics: list[tuple[float, float]]  # (h, score) rows


def argmin_prefer_larger(values: np.ndarray, scores: np.ndarray) -> float:
    """Value attaining the minimal score; near-ties (TIE_RTOL, TIE_ATOL) go to the largest value.

    The tolerance makes plateaus (e.g. exactly interpolated noiseless data,
    where scores differ only in rounding noise) resolve deterministically to
    the most regularized choice.
    """
    values = np.asarray(values, dtype=float)
    scores = np.asarray(scores, dtype=float)
    finite = np.isfinite(scores)
    if not finite.any():
        raise NumericDeadEnd("no candidate has a finite score")
    best = scores[finite].min()
    tied = finite & (scores <= best + TIE_ATOL + TIE_RTOL * abs(best))
    return float(values[tied].max())


def _in_eval_window(xs: np.ndarray) -> np.ndarray:
    return (xs >= EVAL_WINDOW[0]) & (xs <= EVAL_WINDOW[1])


def _cv_grid(h_grid) -> np.ndarray:
    h_grid = np.sort(np.asarray(h_grid, dtype=float))
    if h_grid.size == 0:
        raise ValueError("h_grid must be nonempty")
    return h_grid


def _cv_scores(train: Dataset, test_xs: np.ndarray, test_ys: np.ndarray,
               h_grid: np.ndarray, lpe_base: LpeConfig) -> np.ndarray:
    """Held-out squared prediction error per h in EVAL_WINDOW; an unsupported point makes h +inf."""
    keep = _in_eval_window(test_xs)
    scores = np.full(h_grid.size, np.inf)
    if not keep.any():
        return scores
    xs, ys = test_xs[keep], test_ys[keep]
    design = sort_design(train.xs, train.ys)
    for i, h in enumerate(h_grid):
        preds = predict_grid(replace(lpe_base, bandwidth=float(h)), design, xs)
        if np.isnan(preds).any():
            continue
        scores[i] = float(np.mean((ys - preds) ** 2))
    return scores


def _selection(h_grid: np.ndarray, per_split: list, split: str) -> BandwidthSelection:
    """Average the (split, h) score rows over splits and pick h by argmin_prefer_larger.

    A split scores when it holds out a point in EVAL_WINDOW; the selectors
    pass no row for the others.
    """
    if not per_split:
        raise NumericDeadEnd(f"no held-out {split} has a point in the evaluation window "
                             f"{list(EVAL_WINDOW)}, so no split can be scored")
    scores = np.array(per_split).mean(axis=0)
    return BandwidthSelection(h_star=argmin_prefer_larger(h_grid, scores),
                              diagnostics=list(zip(h_grid.tolist(), scores.tolist())))


def domain_cv_bandwidth(datasets: Sequence[Dataset], h_grid,
                        lpe_base: LpeConfig) -> BandwidthSelection:
    """Leave-one-realization-out bandwidth selection.

    Each element of `datasets` must carry a realization_id; datasets sharing
    an id form one domain. For every held-out domain an LP fit on the union
    of the others predicts at the held-out covariates inside EVAL_WINDOW,
    and h minimizes the domain-averaged squared prediction error. A domain
    with no covariate inside EVAL_WINDOW is left out of the average.
    """
    groups: dict[str, list[Dataset]] = {}
    for ds in datasets:
        if ds.realization_id is None:
            raise ValueError("every dataset needs a realization_id for domain CV")
        groups.setdefault(ds.realization_id, []).append(ds)
    if len(groups) < 2:
        raise NeedsMultipleDomains(f"got {len(groups)} realization(s), need at least 2")
    h_grid = _cv_grid(h_grid)
    keys = sorted(groups)
    per_domain = []
    for held in keys:
        test_xs = np.concatenate([d.xs for d in groups[held]])
        if not _in_eval_window(test_xs).any():
            continue
        test_ys = np.concatenate([d.ys for d in groups[held]])
        train_parts = [ds for k in keys if k != held for ds in groups[k]]
        train = Dataset(xs=np.concatenate([d.xs for d in train_parts]),
                        ys=np.concatenate([d.ys for d in train_parts]))
        per_domain.append(_cv_scores(train, test_xs, test_ys, h_grid, lpe_base))
    return _selection(h_grid, per_domain, "realization")


def naive_cv_bandwidth(dataset: Dataset, h_grid, lpe_base: LpeConfig, folds: int,
                       seed: int = 0) -> BandwidthSelection:
    """k-fold random-split CV baseline, scored over EVAL_WINDOW.

    Random splits only see sampling variability, so under dataset-level
    perturbations this tends to pick smaller bandwidths than domain CV.
    Fold assignment is a deterministic function of the seed. A fold with no
    point inside EVAL_WINDOW is left out of the average.
    """
    n = len(dataset)
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if folds > n:
        raise ValueError("more folds than data points")
    h_grid = _cv_grid(h_grid)
    perm = substream(seed, "cv-folds").permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % folds
    per_fold = []
    for fold in range(folds):
        hold = fold_of == fold
        if not _in_eval_window(dataset.xs[hold]).any():
            continue
        train = Dataset(xs=dataset.xs[~hold], ys=dataset.ys[~hold])
        per_fold.append(_cv_scores(train, dataset.xs[hold], dataset.ys[hold],
                                   h_grid, lpe_base))
    return _selection(h_grid, per_fold, "fold")


def within_bucket_noise_variance(ys, bucket_ids):
    """Noise variance from residuals around per-bucket outcome means.

    Demeaning within buckets removes the shared shift (and any
    bucket-constant part of the mean), so the estimate targets sigma2 rather
    than sigma2*(1 + delta2*...). Degrees of freedom: n minus the number of
    occupied buckets.

    A (D, n) stack of datasets gives D estimates, each equal bit for bit to
    the call on its row alone. A row's sums run over its occupied buckets
    only, in bucket order: numpy's pairwise sum groups terms by position, so
    a zero standing in for an empty bucket could change the last bits. When
    every row occupies every bucket, one reduction along the rows sums them
    all, each row pairwise over the same operands as the call on it alone;
    a stack with an empty bucket sums row by row. Ids are labels.
    """
    ys = np.asarray(ys, dtype=float)
    bucket_ids = np.asarray(bucket_ids, dtype=np.int64)
    if ys.shape != bucket_ids.shape:
        raise ValueError("ys and bucket_ids must have the same length")
    bucket_ids = bucket_labels(bucket_ids)
    rows = np.atleast_2d(ys)
    width = int(bucket_ids.max()) + 1 if bucket_ids.size else 1
    # one bincount per statistic: row d's buckets are offset by d * width
    keys = (bucket_ids.reshape(rows.shape) + width * np.arange(len(rows))[:, None]).ravel()
    size = len(rows) * width
    counts = np.bincount(keys, minlength=size).reshape(-1, width)
    sums = np.bincount(keys, weights=rows.ravel(), minlength=size).reshape(-1, width)
    sumsq = np.bincount(keys, weights=(rows ** 2).ravel(), minlength=size).reshape(-1, width)
    occupied = counts > 0
    df = rows.shape[1] - occupied.sum(axis=1)
    if (df < 1).any():
        raise ValueError("not enough points per bucket to estimate the noise variance")
    if occupied.all():
        ss_within = sumsq.sum(axis=1) - (sums ** 2 / counts).sum(axis=1)
    else:
        ss_within = np.array([sq[o].sum() - (s[o] ** 2 / c[o]).sum()
                              for sq, s, c, o in zip(sumsq, sums, counts, occupied)])
    out = ss_within / df
    return float(out[0]) if ys.ndim == 1 else out


def estimate_tau_from_summaries(theta, n_per: int, sigma2_hat: float) -> float:
    """Perturbation strength from per-realization outcome means.

    Global means vary across realizations with variance tau*sigma2 (shift
    part) plus sigma2/n (sampling part); subtracting the sampling part and
    rescaling gives tau_hat, clamped at zero. Outcomes are assumed centered
    (zero target function, or y minus a fitted mean).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size < 2:
        raise ValueError("need at least 2 realizations")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    if n_per < 1:
        raise ValueError("n_per must be at least 1")
    if not 0 < sigma2_hat < np.inf:  # NaN fails too
        raise ValueError("sigma2_hat must be positive and finite")
    spread = float(np.var(theta, ddof=1))
    return max(0.0, (spread - sigma2_hat / n_per) / sigma2_hat)
