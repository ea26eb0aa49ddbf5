"""Weighted Fourier-domain Lp norms of the wavelet and the best constant.

weighted_lp_norm takes one of two routes, chosen by p alone:

* p = 2 or 4 (EXACT_P): the p-th power of the norm is the fixed vector of a
  finite refinement system with rational coefficients, solved in floats with
  a proven error bound (refinable.even_power_integral). No quadrature, no
  tail and no decay fit; the QuadResult reports 0 evaluations and 0 panels.
* every other p: quadrature_lp_norm, described below. It also stays callable
  for any p, as the cross-check of the exact route.

The quadrature route computes, with the tail cutoff Omega (its omega_max,
DEFAULT_OMEGA_MAX unless given),

    (2 * integral_[0, Omega] w^(-pk) |psi_hat|^p dw  +  tail)^(1/p)

using evenness, from the origin for every k: the Gauss-Kronrod nodes never
touch w = 0, where the integrand behaves like w^(p(m-k)). The truncated tail
carries an envelope estimate
2 Omega (C~ Omega^-(k + alpha))^p / (p(k + alpha) - 1) from the fitted decay
|psi_hat| <= C~ w^(-alpha), which is a fit, not a proven bound (ROADMAP item
5). The value uses that estimate scaled by the measured envelope-to-integrand
ratio over the top octave [Omega/2, Omega] (the shape of |psi_hat| is close to
self-similar across octaves, so the top octave calibrates the
oscillation-averaged tail far more sharply than the raw ceiling), while the
reported abs_error keeps the full uncalibrated interval.
The error budget adds the quadrature estimate, that interval and the product
truncation of |psi_hat|^2 (relative PRODUCT_TOL), which moves the integral by
at most a relative p/2 * PRODUCT_TOL.

The quadrature stops at the absolute tolerance QUAD_SHARE * tail_bound / 4 or
the relative tolerance 1e-9, whichever it meets first. The tail error is at
least tail_bound / 2, so at the absolute tolerance the quadrature's part
2 * quad_err of the error sum is at most QUAD_SHARE times the tail part, which
more panels cannot reduce. abs_error stays an upper bound as far as the panel
estimate is one: the sum still counts that estimate in full, and stopping
earlier only makes it larger. An integral outside the positive normal doubles
raises ValueError. Everything here is deterministic for a fixed request.

The quadrature integrand reads |psi_hat|^2 through a memo (_Abs2Memo), since
k and p only reweight it and every run bisects the same dyadic lattice. Its
key is a panel's middle node, and a stored row counts as found only when all
15 of its nodes equal the requested row's, byte for byte; so the memo returns
the very values a fresh call would, and a norm is the same whether the memo is
cold or warm. Each distinct panel is evaluated once per order and process:
the 42 default quadrature norms send 108,420 points to wavelet_hat_abs2, not
the 168,510 they integrate. The memo holds at most 4,096 panels and 16,383
(order, panel) value rows, 2.5 MB; the default sweeps fill 1.4 MB of it.
"""

from __future__ import annotations

import math
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .quadrature import QuadResult, adaptive_quadrature
from .refinable import even_power_integral
from .special_math import UNIT_ROUNDOFF, check_norm_domain
from .spectral_eval import PRODUCT_TOL, DecayFit, estimate_decay, wavelet_hat_abs2

DEFAULT_OMEGA_MAX = 2.0**12 * math.pi

# |psi_hat| for order 1 has the closed form sin^2(w/4) / (sqrt(2 pi) |w/4|),
# so |psi_hat(w)| <= (4 / sqrt(2 pi)) / |w|: an exact envelope with exponent 1.
_HAAR_ENVELOPE = (4.0 / math.sqrt(2.0 * math.pi), 1.0)

# The quadrature stops once its error is this share of the tail error, which
# more panels cannot reduce.
QUAD_SHARE = 0.1

# The Lp indices weighted_lp_norm computes by the exact route.
EXACT_P = (2.0, 4.0)


@dataclass(frozen=True)
class NormRequest:
    """One weighted-norm computation: order m, weight exponent k, Lp index p."""

    m: int
    k: int
    p: float

    def __post_init__(self) -> None:
        check_norm_domain(self.m, self.k, self.p)
        if self.k > self.m:
            raise ValueError(
                f"k={self.k} > m={self.m}: the integrand w^(-pk) |psi_hat|^p "
                "diverges at the origin"
            )


@lru_cache(maxsize=None)
def default_decay(m: int) -> DecayFit:
    """The decay fit of order m: 128 samples over [4 pi, DEFAULT_OMEGA_MAX].

    Cached, so norms at every cutoff, sweep rows and the CLI share one fit per
    order. Raises for m = 1, whose exponent c is undefined; callers handle
    that order.
    """
    return estimate_decay(m, 4.0 * math.pi, DEFAULT_OMEGA_MAX, 128)


def _envelope(m: int) -> tuple[float, float]:
    """(C_tilde, alpha) of the tail envelope |psi_hat(w)| <= C_tilde w^(-alpha)."""
    if m == 1:
        return _HAAR_ENVELOPE
    fit = default_decay(m)
    return fit.C_tilde, fit.c * math.log(m)


def _dyadic_breakpoints(omega_max: float) -> list[float]:
    """Halving lattice omega_max, omega_max/2, ..., down to pi."""
    points = []
    x = omega_max / 2.0
    while x > math.pi * (1.0 + 1e-12):
        points.append(x)
        x /= 2.0
    points.append(math.pi)
    return sorted(points)


def _root_error(total: float, err_sum: float, p: float) -> float:
    """A bound on |total^(1/p) - x^(1/p)| for every x within err_sum of total.

    x^(1/p) is concave, so its slope at the low end of [total - err_sum,
    total + err_sum] bounds its change over the interval; at or below zero,
    Hoelder continuity |a^(1/p) - b^(1/p)| <= |a - b|^(1/p) does.
    """
    if total > err_sum:
        return err_sum / p * (total - err_sum) ** (1.0 / p - 1.0)
    return err_sum ** (1.0 / p)


# A row of the |psi_hat|^2 memo is the 15 nodes of one Gauss-Kronrod panel;
# _KEY is its middle node, the panel's midpoint.
_ROW = 15
_KEY = 7
# The module memo's caps: node rows, and value rows over all orders together.
_MEMO_NODES = 1 << 12
_MEMO_VALUES = (1 << 14) - 1
# Rows the memo holds before it sorts them into its index and tables.
_PENDING_ROWS = 256


class _Abs2Memo:
    """wavelet_hat_abs2 on node rows, each row evaluated once per order.

    The quadrature integrand receives its nodes in rows of 15, one row per
    panel, and every norm bisects the same dyadic lattice whatever its order,
    so norms share most of their panels. The memo keeps each distinct node
    row once, in a float64 block, with an index of the rows' middle nodes in
    sorted order; the values of each order on a row, in a second block; and
    per order, a table from node row to value row.

    A call looks up all of its rows at once: it finds each row's middle node
    in the index and compares the node row stored there with its own, byte
    for byte. Only a row equal in all 15 nodes is found, so the values stored
    for it are what wavelet_hat_abs2 gave on exactly these nodes; since each
    entry of its array is bit-identical to a call on that entry alone, they
    are what a fresh call returns. The rows that miss go to wavelet_hat_abs2
    in one call. Of two node rows that share a middle node, only the first
    stored can be found; the other is evaluated afresh.

    A call only writes the rows it evaluated, and their values, to the end
    of the blocks. Once 256 rows wait, and whenever a run begins
    (for_order), they are stored in one step: a node row equal to a stored
    one is dropped, the new ones enter the index, and each order's table
    points at the values. A run never asks for one of its own panels twice,
    so nothing is lost by the wait; and a run of an order with no values
    stored looks nothing up.

    A node row takes 120 bytes plus 16 of index, a value row 120 bytes, and
    each order's table 8 bytes per node row the memo can hold. The caps are
    fixed when the memo is made: the module's memo holds 4,096 node rows and
    16,383 value rows, 2.5 MB with the index, plus 32 KB per order. Memory is
    taken only as rows are written: the default sweeps store 2,343 node rows
    and 7,228 value rows, 1.4 MB in all. A call whose rows do not fit stores
    none of them, and the memo still serves the rows it holds. One lock
    guards the memo; no thread holds it while wavelet_hat_abs2 runs.
    """

    def __init__(self, nodes: int, values: int) -> None:
        # Node row `nodes` is never stored (its NaNs never reach a store, as
        # wavelet_hat_abs2 refuses them): it stands for "not stored", and
        # every table maps it to value row 0, which is never stored either.
        self._nodes = np.empty((nodes + 1, _ROW))
        self._nodes[nodes] = math.nan
        self._values = np.empty((values + 1, _ROW))
        # Each node row as one 120-byte item, so that == compares whole rows' bytes.
        self._node_rows = self._nodes.view(f"V{8 * _ROW}").ravel()
        self._node_count = 0
        self._value_count = 1
        # The middle nodes of the stored node rows, sorted, and their node
        # rows; +inf ends it, at the row never stored.
        self._index = (np.array([math.inf]), np.array([nodes]))
        # Per order with values stored: the value row of each node row, 0
        # where none is stored.
        self._tables: dict[int, np.ndarray] = {}
        # The rows written but not yet stored, as [order, row count] in call
        # order. Their nodes follow the stored node rows, and their values
        # are the last value rows.
        self._pending: list[list] = []
        self._pending_count = 0
        self._lock = threading.Lock()

    def for_order(self, m: int) -> Callable[[np.ndarray], np.ndarray]:
        """w -> wavelet_hat_abs2(m, w), bit for bit, for 1-d float arrays w of whole node rows."""
        with self._lock:
            self._store()
            return partial(self._abs2, m, self._tables.get(m))

    def _abs2(self, m: int, table: np.ndarray | None, w: np.ndarray) -> np.ndarray:
        rows = w.reshape(-1, _ROW)
        hits = 0
        if table is not None:
            with self._lock:
                keys, ids = self._index
                found = ids.take(keys.searchsorted(w[_KEY::_ROW]), mode="clip")
                same = self._node_rows.take(found) == w.view(self._node_rows.dtype)
                slot = np.where(same, table.take(found), 0)
                hits = np.count_nonzero(slot)
                if hits:
                    # Rows that miss read value row 0 here, and are overwritten below.
                    values = self._values.take(slot, axis=0)
                    if hits == len(slot):
                        return values.ravel()
                    miss = slot == 0
                    rows = rows[miss]
        fresh = wavelet_hat_abs2(m, rows.ravel())
        with self._lock:
            self._write(m, rows, fresh.reshape(rows.shape))
        if not hits:
            return fresh
        values[miss] = fresh.reshape(rows.shape)
        return values.ravel()

    def _write(self, m: int, rows: np.ndarray, values: np.ndarray) -> None:
        """Write rows and their values to the end of the blocks, if they fit.

        The caller holds the lock.
        """
        count = len(rows)
        start = self._node_count + self._pending_count
        if start + count >= len(self._nodes) or self._value_count + count > len(self._values):
            return
        self._nodes[start : start + count] = rows
        self._values[self._value_count : self._value_count + count] = values
        self._value_count += count
        self._pending_count += count
        if self._pending and self._pending[-1][0] == m:
            self._pending[-1][1] += count
        else:
            self._pending.append([m, count])
        if self._pending_count >= _PENDING_ROWS:
            self._store()

    def _store(self) -> None:
        """Store the written rows: keep each new node row once, index it, and fill the tables.

        The new node rows move down to follow the stored ones. The caller
        holds the lock.
        """
        if not self._pending:
            return
        first, count = self._node_count, self._pending_count
        rows = self._nodes[first : first + count]
        keys, ids = self._index
        found = ids.take(keys.searchsorted(rows[:, _KEY]), mode="clip")
        new = self._node_rows.take(found) != self._node_rows[first : first + count]
        node = np.where(new, 0, found)
        added = np.count_nonzero(new)
        node[new] = np.arange(first, first + added)
        self._nodes[first : first + added] = rows[new]
        self._node_count += added
        value_rows = np.arange(self._value_count - count, self._value_count)
        at = 0
        for m, n in self._pending:
            if m not in self._tables:
                self._tables[m] = np.zeros(len(self._nodes), dtype=np.intp)
            self._tables[m][node[at : at + n]] = value_rows[at : at + n]
            at += n
        self._pending.clear()
        self._pending_count = 0
        if added:
            # One complex sort orders the keys and carries each one's node row,
            # the first stored first among equal keys.
            index = np.empty(len(keys) + added, dtype=complex)
            index.real = np.concatenate((keys, self._nodes[first : first + added, _KEY]))
            index.imag = np.concatenate((ids, np.arange(first, first + added)))
            index.sort()
            self._index = index.real.copy(), index.imag.astype(np.intp)


_ABS2_MEMO = _Abs2Memo(_MEMO_NODES, _MEMO_VALUES)


@lru_cache(maxsize=None)
def weighted_lp_norm(req: NormRequest) -> QuadResult:
    """||(i w)^(-k) psi_hat||_p with its abs_error, cached per request.

    p in EXACT_P takes the exact route, every other p quadrature_lp_norm
    (module docstring).
    """
    if req.p in EXACT_P:
        return _exact_lp_norm(req)
    return quadrature_lp_norm(req)


def _exact_lp_norm(req: NormRequest) -> QuadResult:
    """The exact route: the refinement system's integral and its proven error, to the 1/p power.

    The power itself rounds by at most 2 ulp, which abs_error adds.
    """
    integral, err = even_power_integral(req.m, req.k, round(req.p) // 2)
    value = integral ** (1.0 / req.p)
    abs_error = _root_error(integral, err, req.p) + 4.0 * UNIT_ROUNDOFF * value
    return QuadResult(value=value, abs_error=abs_error, evaluations=0, panels=0)


def quadrature_lp_norm(req: NormRequest, *, omega_max: float = DEFAULT_OMEGA_MAX) -> QuadResult:
    """||(i w)^(-k) psi_hat||_p by quadrature over [0, omega_max], for any p; not cached.

    The error combines the quadrature estimate, the full width of the
    analytic tail interval and the product truncation, and bounds their
    effect through the final 1/p power (module docstring).
    """
    if omega_max <= 2.0 * math.pi:
        raise ValueError(f"omega_max must exceed 2*pi, got {omega_max}")
    m, k, p = req.m, req.k, req.p
    c_tilde, alpha = _envelope(m)
    beta = p * (k + alpha)
    if beta <= 1.0:
        raise ValueError(
            f"tail not integrable: p*(k + alpha) = {beta:.6g} <= 1 with the "
            f"fitted decay exponent alpha = {alpha:.6g}"
        )

    abs2 = _ABS2_MEMO.for_order(m)

    def integrand(w: np.ndarray) -> np.ndarray:
        # Weighting before the power keeps w^(-pk) from overflowing near the origin.
        root = np.sqrt(abs2(w))
        if k:
            root *= w**-k
        return root**p

    def envelope_tail(w: float) -> float:
        # 2 * integral_[w, inf) of the envelope to the p; C~^p alone could overflow.
        return 2.0 * w * (c_tilde * w ** -(k + alpha)) ** p / (beta - 1.0)

    # Envelope tail estimate; its error is at least tail_bound / 2 whatever rho is.
    tail_bound = envelope_tail(omega_max)
    quad, panels = adaptive_quadrature(
        integrand,
        0.0,
        omega_max,
        rel_tol=1e-9,
        abs_tol=QUAD_SHARE * tail_bound / 4.0,
        max_panels=60_000,
        breakpoints=_dyadic_breakpoints(omega_max),
        return_panels=True,
    )

    # Top-octave calibration of the tail estimate.
    env_top = (envelope_tail(omega_max / 2.0) - tail_bound) / 2.0
    num_top = sum(pnl.value.real for pnl in panels if pnl.a >= omega_max / 2.0 - 1e-9)
    rho = min(max(num_top / env_top, 0.0), 1.0) if env_top > 0 else 1.0
    tail_est = rho * tail_bound
    tail_err = max(tail_est, tail_bound - tail_est)

    total = 2.0 * quad.value + tail_est
    # The product truncation moves |psi_hat|^p, and so the product part
    # 2 * quad of the integral, by at most p/2 * PRODUCT_TOL relative.
    truncation = p * PRODUCT_TOL * quad.value
    err_sum = 2.0 * quad.abs_error + tail_err + truncation
    if not (sys.float_info.min <= total < math.inf and math.isfinite(err_sum)):
        raise ValueError(f"the ({m}, {k}, {p}) norm integral {total} +/- {err_sum} is out of range")
    return QuadResult(
        value=total ** (1.0 / p),
        abs_error=_root_error(total, err_sum, p),
        evaluations=quad.evaluations,
        converged=quad.converged,
        panels=quad.panels,
    )


def best_constant_Ckp(m: int, k: int, p: float) -> QuadResult:
    """Best constant C_(k,p) = ||w^(-k) psi_hat||_p / ||psi_hat||_p with its error.

    With |num - N| <= e_num and |den - D| <= e_den, the ratio C = num / den
    misses N / D by |(N - num) - C (D - den)| / D <= (e_num + C e_den) /
    (den - e_den), which is the reported abs_error (inf when e_den >= den).
    At k = 0 the constant is exactly 1 with no error.
    """
    if k == 0:
        return QuadResult(value=1.0, abs_error=0.0, evaluations=0)
    num = weighted_lp_norm(NormRequest(m, k, p))
    den = weighted_lp_norm(NormRequest(m, 0, p))
    value = num.value / den.value
    margin = den.value - den.abs_error
    abs_error = (num.abs_error + value * den.abs_error) / margin if margin > 0 else math.inf
    return QuadResult(
        value=value,
        abs_error=abs_error,
        evaluations=num.evaluations + den.evaluations,
        converged=num.converged and den.converged,
    )
