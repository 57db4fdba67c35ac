"""Local polynomial estimation with explicit equivalent-kernel weights.

A degree-l fit at a query point x0 solves a kernel-weighted least squares
problem in the rescaled coordinate u = (x - x0)/h; the estimator is linear in
the responses, y_hat(x0) = sum_k W_k(x0) y_k, and the weight vector is exposed
so weight-level invariants (sum to one, zero outside the window, 1/(nh) decay)
can be checked directly.

Fits come in two kinds of traffic. Grids (`predict_grid`, and through it
the MISE ladders and both CVs) go through one batched engine, `local_fit`,
as does `fit_predict`. For one design (n,) sorted once with its responses
(`sort_design`; a design always carries them), one bandwidth and a vector
of query points it builds the window moments sum K(u) u^j and
sum K(u) u^j y, then solves all local systems in one batched call. A design
may carry k response vectors at once: the window, moments of x, Gram
matrices, ridge and solve are shared, and only the y moments widen to k
groups, each computed with the arithmetic of a one-response fit. A fit is
unsupported, with NaN values, where its window is empty or its local solve
is not finite. Piecewise-polynomial kernels get their moments from
prefix sums over the sorted design ("fast sum updating": Seifert, Brockmann,
Engel & Gasser 1994; Fan & Marron 1994; Langrene & Warin 2019), restarted and
centred on every cell of a dyadic lattice of width w = 2^-k, w/2 <= h < w,
so the sums do not cancel. The lattice depends on h only through its level,
and each build covers every cell that the level's widest window can reach
from the queries: a SortedDesign keeps the last one built, and every
bandwidth of that level over those queries reuses it, so a sweep over an h
grid builds one lattice per level, not per h. Only occupied cells get
columns, so its memory is O(n) whatever h is. Other kernels sum over each
gathered window, strictly left to right from +0: one add per window offset
covers every query of a pass. Nothing a query computes depends on which
other queries or responses share its batch, or on what the design was
fitted at before, so a grid fit equals the scalar fits at its points, a
multi-response fit equals its responses fitted one by one, and a fit over a
design that has served other bandwidths equals the fit over a freshly
sorted one, bit for bit.

Fits of one query per design (`equivalent_kernel_weights`, and through it
the distributional-variance oracle, and the risk split of `risk`) take the
point path, `_point_fit`: no sort and no lattice, only K(u) and its moments
summed densely over each unsorted design row, then the same solve. A stacked
point fit equals its designs fitted one by one, bit for bit, and agrees with
`local_fit` at the same query to within a small multiple of eps times the
condition number of the local Gram matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .baseline import Dataset, check_unit_interval
from .kernels import EPANECHNIKOV, Kernel

# Local Gram matrices with smallest eigenvalue below DEGENERATE_EIG are
# treated as degenerate and get RIDGE * trace / p added to their diagonal.
DEGENERATE_EIG = 1e-10
RIDGE = 1e-8

# Smallest bandwidth a fit accepts. The lattice level of h is -frexp(h)[1]
# (h = 1 gets level -1, w = 2); below h = 2^-53 the level reaches 53, the cell
# index floor(x * 2^level) of x near 1 reaches 2^53 and distinct cells merge.
# This floor, at level 39 (cell ids below 2^39), keeps a wide margin.
MIN_BANDWIDTH = 1e-12

# Prefix sums are restarted on dyadic lattice cells of width w = 2^-level,
# w/2 <= h < w. The window of a query g in cell l lies within the cells
# l - 1 .. l + 1, rounding included: a window point has a positive kernel
# value, so its u = fl(fl(x - g)/h) has |u| <= 1 (every piecewise kernel is
# zero for |u| > 1). Were |x - g| >= w, then |fl(x - g)| >= w, as w is a power
# of two and rounding is monotone, and with h <= w (1 - 2^-53), the largest
# float below w, the quotient would be at least 1/(1 - 2^-53) > 1 + 2^-53, past
# the midpoint of 1 and its successor, so |u| > 1. Hence |x - g| < w, and
# x lies in ((l - 1) w, (l + 2) w). Cell ids floor(x 2^level) are exact.
# _NEAR_CELLS lists l - 1 .. l + 1, then l + 2, which bounds the last.
_NEAR_CELLS = np.arange(-1.0, 3.0)[:, None]
_HANKEL = [np.add.outer(np.arange(p), np.arange(p)) for p in range(7)]
_E1 = [np.eye(p)[:, :1] for p in range(7)]

# Upper bound on the elements of the one workspace (window offset, moment,
# query) of a block of gathered windows, which bounds the working memory of
# kernels without polynomial pieces; each window is summed sequentially along
# its offsets, so how the queries and offsets are cut into blocks leaves every
# sum unchanged.
CHUNK_ELEMENTS = 1 << 17


class NoLocalSupport(Exception):
    """No design point carries positive kernel weight at the query point."""


@dataclass(frozen=True)
class LpeConfig:
    """Order, bandwidth (MIN_BANDWIDTH .. 1) and kernel of a local polynomial fit."""

    order: int
    bandwidth: float
    kernel: Kernel = EPANECHNIKOV

    def __post_init__(self):
        try:
            operator.index(self.order)  # an int or a numpy integer, not 1.5 or 1.0
        except TypeError:
            raise TypeError(f"order must be an integer, got {self.order!r}") from None
        if not 0 <= self.order <= 5:
            raise ValueError(f"order must be in 0..5, got {self.order}")
        if not 0.0 < self.bandwidth <= 1.0:
            raise ValueError(f"bandwidth must be in (0, 1], got {self.bandwidth}")
        if self.bandwidth < MIN_BANDWIDTH:
            raise ValueError(f"bandwidth must be at least {MIN_BANDWIDTH:g}, got {self.bandwidth}")


@dataclass
class WeightVector:
    """Equivalent-kernel weights W_k(x0) of a fit at one query, one per design point.

    weights has the shape of the design, (n,) or (D, n), in its original
    order. degenerate is True when a local Gram matrix was ridged; the
    weights of that fit need not sum to one.
    """

    weights: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class SortedDesign:
    """One design (n,) sorted once by x, reusable across bandwidths and query sets.

    xs is ascending, and ys follows it: (n,) for one response, or (k, n) for
    k responses over the same design, each sorted as xs. The engine keeps the
    prefix lattice of the last dyadic level it fitted here, with every cell
    that level's widest window can reach from the queries, so the bandwidths
    of one level over one query range share one build; the arrays must not
    be changed in place once the design has been fitted.
    """

    xs: np.ndarray
    ys: np.ndarray
    _lattice: list = field(default_factory=list, init=False, repr=False, compare=False)


def _design_points(xs) -> np.ndarray:
    """xs as a float array; any point outside [0, 1], NaN included, is a ValueError."""
    xs = np.asarray(xs, dtype=float)
    check_unit_interval(xs, "design points must lie in [0, 1]")
    return xs


def _query_points(queries) -> np.ndarray:
    """Query points as a flat float array; any outside [0, 1], NaN included, is a ValueError."""
    g = np.asarray(queries, dtype=float).ravel()
    check_unit_interval(g, "query points outside [0, 1]")
    return g


def sort_design(xs, ys) -> SortedDesign:
    """Sort one design (n,) by x, stably, with its responses.

    Design points must lie in [0, 1]; any other point, NaN included, is a
    ValueError, and so is an xs of any shape but (n,). ys is (n,), or (k, n)
    for k responses, and every response is sorted with the design; any other
    shape is a ValueError, and so is None: a grid fit is a fit of responses.
    numpy's default sort is tried first: where it leaves xs strictly
    increasing the order is unique, so it is the stable one; ties and signed
    zeros fall back to the stable sort.
    """
    xs = _design_points(xs)
    if xs.ndim != 1:
        raise ValueError(f"a design is one row of points (n,), got xs of shape {xs.shape}")
    order = np.argsort(xs)
    ordered = xs[order]
    if not (ordered[1:] > ordered[:-1]).all():
        order = np.argsort(xs, kind="stable")
        ordered = xs[order]
    ys = np.asarray(ys, dtype=float)
    if ys.ndim not in (1, 2) or ys.shape[-1] != xs.size:
        raise ValueError(f"ys of shape {ys.shape} does not fit xs of shape {xs.shape}:"
                         " responses are (n,) or (k, n)")
    return SortedDesign(xs=ordered, ys=ys[..., order])


def _as_design(data: Dataset | SortedDesign) -> SortedDesign:
    """data as a sorted design, sorting a Dataset."""
    return data if isinstance(data, SortedDesign) else sort_design(data.xs, data.ys)


@dataclass
class LocalFit:
    """The engine's result for one design, one h and m query points.

    The fit at query i has weights W_k = K(u_k) * sum_j coef[i, j] u_k^j on
    the sorted design's window (`_window`) and zero elsewhere. values is NaN
    (and coef a NaN row) where the query has no local support, or where the
    solve of its local system is not finite. A design with k responses puts
    a leading axis of length k on values alone: values[j] is the fit of
    ys[j].
    """

    values: np.ndarray
    coef: np.ndarray
    supported: np.ndarray
    degenerate: np.ndarray


def _window(kernel: Kernel, xs: np.ndarray, g: np.ndarray, h: float):
    """Ranges [lo, hi), each (m,), of the sorted design xs where K((x - g)/h) > 0.

    The search runs slightly wide, then drops edge points whose kernel value
    is exactly zero, so membership follows the kernel's own arithmetic (the
    uniform kernel keeps |u| == 1, the others drop it). Each kernel is
    nonincreasing in |u|, so the positive set is one contiguous range.
    """
    reach = kernel.reach(h)
    lo = np.searchsorted(xs, g - reach, "left")
    hi = np.searchsorted(xs, g + reach, "right")
    while True:
        edge = np.minimum(np.stack((lo, hi - 1)), xs.size - 1)
        drop = (kernel((xs[edge] - g) / h) == 0.0) & (lo < hi)
        if not drop.any():
            break
        lo = lo + drop[0]
        hi = np.maximum(hi - drop[1], lo)
    return lo, hi


def _powers(shape: tuple, base, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stack (shape[0], 1 + k, ...): base * z^i, then base * z^i * y[j] for k responses.

    y has shape (k,) + shape[1:]. Powers come from repeated multiplication so
    every element's arithmetic is fixed, whatever the array's shape or the
    number of responses.
    """
    out = np.empty((shape[0], 1 + len(y)) + shape[1:])
    out[0, 0] = base
    for i in range(1, shape[0]):
        np.multiply(out[i - 1, 0], z, out=out[i, 0])
    np.multiply(out[:, :1], y, out=out[:, 1:])
    return out


def _taylor_shift(sums: np.ndarray, d: np.ndarray) -> None:
    """Turn sums of z^i (axis 0 indexes i) into sums of (z + d)^i, in place."""
    top = sums.shape[0] - 1
    scratch = np.empty_like(sums[1:])
    for k in range(top):
        step = np.multiply(d, sums[k:top], out=scratch[:top - k])
        sums[k + 1:] += step


def _moments(sums: np.ndarray, pieces, p: int):
    """Gram moments sum K u^k (k < 2p-1) and, per response j, sum K u^k y_j (k < p).

    sums[i, group, side] holds sum u^i (group 0) or sum u^i y_j (group 1 + j)
    over one side of the window; side s carries the kernel piece pieces[s], given
    as coefficients a_t of u^t, so sum K u^k = sum_s sum_t a_t S_{k+t}.
    """
    count = 2 * p - 1
    acc = np.zeros((count,) + sums.shape[1:2] + sums.shape[3:])
    for side, coefs in enumerate(pieces):
        for t, a in enumerate(coefs):
            if a:
                acc += a * sums[t:t + count, :, side]
    return acc[:, 0], acc[:p, 1:]


@dataclass
class _Lattice:
    """Restarted prefix sums of one sorted design on the cells of one dyadic level.

    cell[i] = floor(xs[i] * 2^level) is the cell of each sorted point. Every
    cell c of cells[0] .. cells[1] that holds points owns the columns
    begin .. begin + count of table: a zero, then the running sums, point by
    point, of z^i (group 0) and z^i y_j (group 1 + j) for i < npow, where
    z = x * 2^level - (c + 1/2). slot[i] is the begin of point i's cell, or
    0, also a zero column, outside those cells.
    """

    level: int
    npow: int
    cells: tuple
    cell: np.ndarray
    slot: np.ndarray
    table: np.ndarray


def _build_lattice(xs: np.ndarray, ys: np.ndarray, level: int, npow: int,
                   cells: tuple) -> _Lattice:
    """The lattice of the cells cells[0] .. cells[1] of the sorted design xs; O(n) memory.

    Columns are taken by occupied cells alone. A cell is padded to the
    widest cell of its block; there is one block unless that would more
    than double the table, else one block per power of two of cell sizes.
    """
    t = xs * math.ldexp(1.0, level)  # exact: a power-of-two scaling
    cell = np.floor(t)
    groups = 1 + len(ys)
    slot = np.zeros(xs.size, dtype=np.intp)
    i0, i1 = np.searchsorted(cell, [cells[0], cells[1] + 1.0], "left")
    # the points of those cells; a run is one cell. total > 0: a lattice is built only
    # when a window is reached, and its cells (qcell - 1 .. qcell + 1 over the
    # queries, see _NEAR_CELLS) hold that window's points
    total = i1 - i0
    kcell = cell[i0:i1]
    new = np.empty(total, dtype=bool)
    np.not_equal(kcell[1:], kcell[:-1], out=new[1:])
    new[0] = True
    run = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    size = np.bincount(run) + 1  # a zero column, then one per point
    if size.size * size.max() <= 2 * size.sum():
        blocks = [np.arange(size.size)]
    else:  # cells with sizes in [2^(b-1), 2^b) share a block
        key = np.frexp(size)[1]
        blocks = [np.flatnonzero(key == b) for b in np.unique(key)]
    begin = np.empty(size.size, dtype=np.intp)
    spans, end = [], 0  # (first column, cells, width) of each block
    for rows in blocks:
        width = int(size[rows].max())
        begin[rows] = np.arange(end, end + rows.size * width, width)
        spans.append((end, rows.size, width))
        end += rows.size * width
    # powers are taken in the table's own layout; its zero and padding columns
    # have base 0 and z = y = 0, so they hold zeros and leave each running sum as is
    col = np.arange(1, total + 1) + (begin - start)[run]
    base, z = np.zeros(end), np.zeros(end)
    base[col] = 1.0
    z[col] = t[i0:i1] - (kcell + 0.5)
    y = np.zeros((len(ys), end))
    y[:, col] = ys[:, i0:i1]
    table = _powers((npow, end), base, z, y)
    for first, rows, width in spans:
        padded = table[:, :, first:first + rows * width].reshape(npow, groups, rows, width)
        np.cumsum(padded, axis=-1, out=padded)
    slot[i0:i1] = begin[run]
    return _Lattice(level, npow, cells, cell, slot, table)


def _prefix_moments(kernel: Kernel, design: SortedDesign, xs: np.ndarray, ys: np.ndarray,
                    g: np.ndarray, h: float, lo: np.ndarray, hi: np.ndarray, p: int):
    """Window moments of a piecewise-polynomial kernel from prefix sums.

    The lattice has dyadic cells [l w, (l + 1) w), w = 2^-level with
    w/2 <= h < w, so one lattice serves every h of a level: the design
    keeps it, and a call builds one only for a new level, order or query
    range. Each cell keeps prefix sums of z^i and z^i y in cell units,
    z = x/w - (l + 1/2), centred on the cell's own centre and restarted at
    its first point, so |z| <= 1/2 and no sum cancels; cell index and z are
    exact or rounded once. A build takes every cell that the level's widest
    window can reach from the queries, and of those only the cells that hold
    points get columns, so memory is O(n) whatever h is, and a cell's sums
    depend on its own points alone. A window lies within the cells
    floor(g/w) - 1 .. floor(g/w) + 1 (see _NEAR_CELLS); its part in each of
    them is a difference of two prefix sums, gathered into contiguous
    memory, which a Taylor shift by (c_l - g)/w turns into sums of (x - g)/w;
    the sum over cells is then scaled by (w/h)^i into sums of u^i. The two
    kernel pieces are summed over x < g and x >= g separately unless they
    coincide. The work is O(n) per (design, level) plus O(1) per query point
    and h.
    """
    split = kernel.pieces[0] != kernel.pieces[1]
    pieces = kernel.pieces if split else kernel.pieces[:1]
    npow = 2 * p - 2 + max(len(c) for c in pieces)
    n = xs.size
    if not (hi > lo).any():  # every window is empty
        return _moments(np.zeros((npow, 1 + len(ys), len(pieces), g.size)), pieces, p)
    level = -math.frexp(h)[1]
    scale = math.ldexp(1.0, level)
    near = np.floor(g * scale) + _NEAR_CELLS  # (near cell, query)
    cells = (near[0].min(), near[-2].max())  # every cell a window can reach
    kept = design._lattice
    if not (kept and kept[0].level == level and kept[0].npow >= npow
            and kept[0].cells[0] <= cells[0] and kept[0].cells[1] >= cells[1]):
        kept.clear()  # the old level is freed before the new one is built
        kept.append(_build_lattice(xs, ys, level, npow, cells))
    lattice = kept[0]
    # the lattice holds every near cell but the last, which only bounds the one before
    bounds = np.searchsorted(lattice.cell, near, "left")
    first, size = bounds[:-1], bounds[1:] - bounds[:-1]
    # prefix column of a cell's first e - first points; an empty cell reads a zero column
    begin = lattice.slot[np.minimum(first, n - 1)]
    edges = np.stack([lo, np.searchsorted(xs, g, "left"), hi] if split else [lo, hi])
    at = np.take(lattice.table[:npow],
                 begin + np.minimum(np.maximum(edges[:, None] - first, 0), size), axis=-1)
    parts = at[:, :, 1:] - at[:, :, :-1]  # (power, group, side, near cell, query)
    _taylor_shift(parts, near[:-1] + 0.5 - g * scale)
    total = parts[..., 0, :].copy()
    for k in range(1, parts.shape[-2]):  # left to right: a fixed order for any batch
        total += parts[..., k, :]
    # sums of ((x - g)/w)^i to sums of u^i, u = (x - g)/h
    ratio = np.full(npow, math.ldexp(1.0, -level) / h)
    ratio[0] = 1.0
    total *= np.cumprod(ratio)[:, None, None, None]
    return _moments(total, pieces, p)


def _window_moments(kernel: Kernel, xs: np.ndarray, ys: np.ndarray, g: np.ndarray,
                    h: float, lo: np.ndarray, hi: np.ndarray, p: int):
    """Window moments of any kernel, each window summed left to right from +0.

    The design is extended by one pad point that no window from [0, 1] at
    h <= 1 can hold. A window's offsets run from lo up to the pad, so the
    kernel itself zeroes the points past hi and the pad, and past its span
    a window reads y from the pad, where it is 0. Those terms are all
    zeros, and adding a zero to a sum started at +0 leaves it as it is, so
    a sum does not depend on how wide its batch was. A pass lays its queries
    out offset by offset, and one add per window offset extends every
    query's running sum; an explicit loop fixes that order, where a
    reduction along a contiguous axis would sum pairwise. The x moments take
    2p - 1 powers of u, the y moments p. The workspace of one block of
    offsets stays within CHUNK_ELEMENTS.
    """
    n = xs.size  # the pad's index
    k = len(ys)
    npow = 2 * p - 1
    rows = npow + k * p  # sum K u^j (j < 2p - 1), then sum K u^j y_r (j < p) per response
    padded_x = np.append(xs, 1.0 + 2.0 * kernel.reach(1.0))
    padded_y = np.concatenate((ys, np.zeros((k, 1))), axis=1)
    span = hi - lo
    sums = np.zeros((rows, g.size))
    # a pass takes as many queries as leave room for blocks of 32 offsets
    # (fewer when every window is narrower), so few calls are made per block
    width = max(int(span.max()), 1)
    step = min(g.size, max(1, CHUNK_ELEMENTS // (rows * min(width, 32))))  # queries per pass
    block = max(1, CHUNK_ELEMENTS // (rows * step))  # offsets per block
    work = np.empty(rows * block * step)
    offsets = np.arange(width)[:, None]
    for q0 in range(0, g.size, step):
        q = slice(q0, q0 + step)
        acc = sums[:, q]
        longest = int(span[q].max())
        for o0 in range(0, longest, block):
            at = lo[q] + offsets[o0:min(o0 + block, longest)]  # (offset, query)
            u = np.take(padded_x, np.minimum(at, n))
            u -= g[q]
            u /= h
            terms = work[:rows * u.size].reshape(len(u), rows, -1)
            terms[:, 0] = kernel(u)
            for j in range(1, npow):
                np.multiply(terms[:, j - 1], u, out=terms[:, j])
            y = np.take(padded_y, np.where(at < hi[q], at, n), axis=1)
            for r in range(k):
                np.multiply(terms[:, :p], y[r, :, None],
                            out=terms[:, npow + r * p:npow + (r + 1) * p])
            for i in range(len(u)):
                acc += terms[i]
    return sums[:npow], sums[npow:].reshape(k, p, -1).swapaxes(0, 1)


def _solve(moments: np.ndarray, ymoments: np.ndarray | None, supported: np.ndarray, p: int):
    """Stacked local solves; returns (values, coef, supported, degenerate).

    Gram[i, j] = moments[i + j]. A Gram whose smallest eigenvalue is below
    DEGENERATE_EIG gets RIDGE * trace / p added to its diagonal. A fit stays
    supported only if its solve is finite: a kernel mass that is subnormal
    can solve to inf. An unsupported fit gets a NaN coef row and NaN values,
    and is not degenerate. ymoments is None (values None) or (p, k, fits),
    and values (k, fits) combine each response with one coef.
    """
    gram = moments.T[:, _HANKEL[p]]
    unsupported = ~supported
    if unsupported.any():
        gram[unsupported] = np.eye(p)  # solvable; its row is voided below
    degenerate = np.linalg.eigvalsh(gram)[:, 0] < DEGENERATE_EIG
    if degenerate.any():
        trace = moments[0].copy()
        for j in range(1, p):
            trace += moments[2 * j]
        gram[degenerate] += (RIDGE * trace[degenerate] / p)[:, None, None] * np.eye(p)
    coef = np.linalg.solve(gram, np.broadcast_to(_E1[p], gram.shape[:2] + (1,)))[..., 0]
    unsupported |= ~np.isfinite(coef).all(axis=1)
    if unsupported.any():
        coef[unsupported] = np.nan
        degenerate[unsupported] = False
    if ymoments is None:
        return None, coef, ~unsupported, degenerate
    values = coef[:, 0] * ymoments[0]
    for j in range(1, p):
        values += coef[:, j] * ymoments[j]
    return values, coef, ~unsupported, degenerate


def local_fit(config: LpeConfig, design: SortedDesign, queries) -> LocalFit:
    """LP(order) fits at every query point in [0, 1] over one sorted design (n,).

    A design with k responses (ys of shape (k, n)) is fitted once for all of
    them: values gains a leading axis of length k, and values[j] equals the
    fit of the design with ys[j] alone bit for bit.
    """
    g = _query_points(queries)
    p = config.order + 1
    m = g.size
    xs, ys = design.xs, design.ys
    responses = ys.shape[:-1]  # () for one response (n,), (k,) for (k, n)
    ys = np.atleast_2d(ys)
    if m == 0 or xs.size == 0:  # no query or an empty design
        none = np.zeros(m, dtype=bool)
        return LocalFit(values=np.full(responses + (m,), np.nan), coef=np.full((m, p), np.nan),
                        supported=none, degenerate=none.copy())
    h = config.bandwidth
    kernel = config.kernel
    lo, hi = _window(kernel, xs, g, h)
    if kernel.pieces is None:
        moments, ymoments = _window_moments(kernel, xs, ys, g, h, lo, hi, p)
    else:
        moments, ymoments = _prefix_moments(kernel, design, xs, ys, g, h, lo, hi, p)
    values, coef, supported, degenerate = _solve(moments, ymoments, hi > lo, p)
    return LocalFit(values=values.reshape(responses + (m,)), coef=coef, supported=supported,
                    degenerate=degenerate)


@dataclass
class _PointFit:
    """The point path's fit of one query per design, for one design (n,) or a stack (D, n).

    u = (x - x0)/h and k = K(u) have the design's shape and order; values
    (None without responses), supported and degenerate have its leading
    shape, and coef one more axis of length order + 1 (a NaN row where the
    design has no point with K(u) > 0, or its solve is not finite).
    """

    u: np.ndarray
    k: np.ndarray
    values: np.ndarray | None
    coef: np.ndarray
    supported: np.ndarray
    degenerate: np.ndarray

    def weights(self) -> np.ndarray:
        """W_k = K(u_k) sum_j coef_j u_k^j; +0.0 where K(u_k) = 0, else NaN if unsupported."""
        inside = self.k > 0.0
        # the basis is read only where K(u) > 0, so |u| <= 1; a far point's u (up to
        # 1/h) is zeroed so that its powers cannot overflow
        u = np.where(inside, self.u, 0.0)
        basis = self.coef[..., -1:]
        for j in range(self.coef.shape[-1] - 2, -1, -1):
            basis = basis * u + self.coef[..., j:j + 1]
        out = np.zeros(u.shape)
        np.multiply(basis, self.k, out=out, where=inside)
        return out


def _point_fit(config: LpeConfig, xs, ys, x0: float) -> _PointFit:
    """LP(order) fit at the one query x0 over an unsorted design (n,) or stack (D, n).

    u = (x - x0)/h is computed as `_window` computes it, and the 2p - 1
    moments sum K(u) u^j and the p moments sum K(u) u^j y are row sums over
    every design point (a point with K(u) = 0 adds zeros), then `_solve`
    solves them with the engine's ridge rule. ys is None or has the shape of
    xs. Each row's arithmetic is its own, so a stack equals its designs
    fitted one by one, bit for bit.
    """
    xs = _design_points(xs)
    (x0,) = _query_points(x0)
    p = config.order + 1
    lead = xs.shape[:-1]
    rows = (math.prod(lead), xs.shape[-1])  # (D, n)
    u = (xs - x0) / config.bandwidth
    k = config.kernel(u)
    y = None if ys is None else np.asarray(ys, dtype=float).reshape(rows)
    moments = np.empty((2 * p - 1, rows[0]))
    ymoments = None if y is None else np.empty((p, 1, rows[0]))
    term, scratch = k.reshape(rows).copy(), np.empty(rows)
    for j in range(2 * p - 1):  # one power at a time, each summed along its rows
        if j:
            term *= u.reshape(rows)
        np.add.reduce(term, axis=-1, out=moments[j])
        if y is not None and j < p:
            np.add.reduce(np.multiply(term, y, out=scratch), axis=-1, out=ymoments[j, 0])
    values, coef, supported, degenerate = _solve(moments, ymoments,
                                                 (k > 0.0).any(axis=-1).ravel(), p)
    return _PointFit(u=u, k=k, values=None if values is None else values.reshape(lead),
                     coef=coef.reshape(lead + (p,)), supported=supported.reshape(lead),
                     degenerate=degenerate.reshape(lead))


def equivalent_kernel_weights(config: LpeConfig, xs, x0: float) -> WeightVector:
    """Weight vector of the LP(order) fit at x0 over the design xs.

    xs is one design (n,) or a stack (D, n) of points in [0, 1], fitted by
    the point path without a sort; weights keep the design's order, and row
    d equals the call on xs[d] bit for bit. Raises NoLocalSupport unless every
    design has a point with positive kernel weight. A near-singular local
    Gram gets the RIDGE term, and the result is flagged degenerate (its
    weights need not sum to one).
    """
    fit = _point_fit(config, xs, None, x0)
    if not fit.supported.all():
        raise NoLocalSupport(f"no kernel support at x0={x0} with h={config.bandwidth}")
    return WeightVector(weights=fit.weights(), degenerate=bool(fit.degenerate.any()))


def fit_predict(config: LpeConfig, data: Dataset | SortedDesign, x0: float) -> float:
    """Local polynomial prediction at x0: the engine on the single point x0.

    The design carries one response; any other shape raises ValueError.
    """
    fit = local_fit(config, _as_design(data), [x0])
    if not fit.supported[0]:
        raise NoLocalSupport(f"no kernel support at x0={x0} with h={config.bandwidth}")
    return fit.values.item()


def predict_grid(config: LpeConfig, data: Dataset | SortedDesign, grid, *,
                 ridged: list | None = None) -> np.ndarray:
    """Vectorized fit_predict over query points.

    `data` may be a SortedDesign to reuse one sort across bandwidths, and one
    with k responses gives k rows of values, one per response. Query points
    without local support yield NaN, never a silent zero; every value equals
    fit_predict at that point bit for bit. When `ridged` is a list, the
    number of supported fits whose local Gram matrix was ridged is appended
    to it; the Gram depends on the design alone, so responses share one count.
    """
    grid = np.asarray(grid, dtype=float)
    fit = local_fit(config, _as_design(data), grid)
    if ridged is not None:
        ridged.append(int((fit.degenerate & fit.supported).sum()))
    return fit.values.reshape(fit.values.shape[:-1] + grid.shape)
