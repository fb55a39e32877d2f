"""Uncertainty models: exact range-query variance for every release shape.

Serving materializes unit counts (``MaterializedRelease``) and answers a
range query by summing them, so the variance of an answer is determined
entirely by the *linear structure* of the estimator that produced the
leaves:

* ``L̃`` (identity) — independent Laplace noise per leaf, so a range of
  ``m`` leaves has variance ``m · 2/ε²``
  (:func:`repro.analysis.theory.error_identity_laplace_range`).
* ``H̃`` (hierarchical, served as leaves) — the served unit counts are
  the noisy *leaf* nodes of the sensitivity-ℓ tree, independent with
  variance ``2ℓ²/ε²`` each
  (:func:`repro.analysis.theory.hierarchical_leaf_variance`), so a range
  again scales linearly in ``m``.
* ``H̄`` (constrained) — Theorem 3 inference makes the leaves correlated;
  the exact variance of ``uᵀ·h̄`` is ``σ² ‖Mᵀu‖²`` where ``M`` is the
  linear inference operator.  :class:`ConstrainedTreeUncertaintyModel`
  sums ``‖Mᵀu‖²`` in closed form over the range's two boundary
  root-to-leaf paths — O(k·log n) per query, no operator matrix.
* ``wavelet`` — Haar synthesis cancels every detail coefficient strictly
  inside a range; only the ≤2 boundary nodes per level survive, giving a
  closed form in O(log n) per query.

All models are pure and deterministic: variances are exact functions of
``(estimator, ε, branching, domain_size)`` and integer query bounds, so
equivalence suites can assert bit-identity across serving paths.  The
models describe the mechanism, not the integer rounding and Section 4.2
non-negativity step of the serving defaults: negligible on dense data,
but biasing on sparse data, where ``benchmarks/bench_accuracy_slo.py``
measures the resulting miscalibration.

Confidence intervals use the Gaussian quantile of the exact variance —
asymptotically correct for ranges (sums of many independent or linearly
mixed Laplace draws) — except single-leaf answers from the additive
models, which are exactly Laplace and get the exact Laplace quantile.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from repro.analysis.theory import (
    error_identity_laplace_range,
    hierarchical_leaf_variance,
)
from repro.exceptions import ReproError
from repro.queries.hierarchical import TreeLayout
from repro.queries.wavelet import HaarWaveletQuery

__all__ = [
    "UncertaintyModel",
    "AdditiveUncertaintyModel",
    "ConstrainedTreeUncertaintyModel",
    "WaveletUncertaintyModel",
    "CompositeUncertaintyModel",
    "uncertainty_model_for",
    "composite_uncertainty_model",
    "gaussian_z",
    "laplace_halfwidth",
    "CANONICAL_ESTIMATORS",
]

#: Estimator aliases accepted by :func:`uncertainty_model_for` — mirrors
#: the serving tier's ``ESTIMATOR_NAMES`` without importing upward.
CANONICAL_ESTIMATORS = {
    "identity": "L~",
    "hierarchical": "H~",
    "constrained": "H_bar",
    "wavelet": "wavelet",
    "L~": "L~",
    "H~": "H~",
    "H_bar": "H_bar",
}


def gaussian_z(confidence: float) -> float:
    """Two-sided standard-normal quantile: ``P(|Z| <= z) = confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return NormalDist().inv_cdf((1.0 + confidence) / 2.0)


def laplace_halfwidth(variance: float, confidence: float) -> float:
    """Exact two-sided Laplace quantile for a draw with ``variance``.

    ``P(|X| <= t) = 1 - exp(-t/b)`` with ``b = sqrt(variance/2)``, so the
    exact halfwidth is ``t = -b·ln(1 - confidence)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return -math.sqrt(variance / 2.0) * math.log(1.0 - confidence)


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ReproError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def _check_ranges(los, his, domain_size: int) -> tuple[np.ndarray, np.ndarray]:
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    if los.shape != his.shape:
        raise ReproError(
            f"los/his shape mismatch: {los.shape} vs {his.shape}"
        )
    if los.size and (
        los.min() < 0 or his.max() >= domain_size or np.any(his < los)
    ):
        raise ReproError(
            f"range bounds must satisfy 0 <= lo <= hi < {domain_size}"
        )
    return los, his


#: ranges per slice of :meth:`ConstrainedTreeUncertaintyModel.range_variances`
_RANGE_SLICE = 1 << 12


def _padded_size(domain_size: int, branching: int) -> int:
    """Smallest power of ``branching`` that is ``>= domain_size``."""
    padded = 1
    while padded < domain_size:
        padded *= branching
    return padded


class UncertaintyModel:
    """Exact variance (and CI halfwidths) for range queries on one release.

    Subclasses implement :meth:`range_variances`; the default halfwidth is
    the Gaussian quantile of the variance, which subclasses override where
    an exact quantile is available (single-leaf Laplace answers).
    """

    #: Canonical estimator name this model describes (``"L~"`` …).
    kind: str = "?"

    def range_variances(self, los, his) -> np.ndarray:
        """Variance of the range sums ``[lo, hi]`` (inclusive bounds)."""
        raise NotImplementedError

    def interval_halfwidths(
        self, los, his, confidence: float, *, variances=None
    ) -> np.ndarray:
        """CI halfwidths at ``confidence``; pass ``variances`` to reuse."""
        if variances is None:
            variances = self.range_variances(los, his)
        return gaussian_z(confidence) * np.sqrt(variances)


class AdditiveUncertaintyModel(UncertaintyModel):
    """Independent per-leaf noise: ``Var([lo, hi]) = m · leaf_variance``.

    Covers ``L̃`` and the served-leaves form of ``H̃``.  The range length
    ``m`` is computed as an exact integer and scaled by ``leaf_variance``
    in one multiply, so the result is bit-identical no matter how a range
    is split across shards (``m₁·v + m₂·v`` need not equal ``(m₁+m₂)·v``
    in floats; ``m`` summed first always does).
    """

    def __init__(
        self,
        leaf_variance: float,
        domain_size: int,
        *,
        kind: str,
        unit_laplace: bool = True,
    ) -> None:
        if leaf_variance <= 0.0:
            raise ReproError(
                f"leaf variance must be positive, got {leaf_variance}"
            )
        self.leaf_variance = float(leaf_variance)
        self.domain_size = int(domain_size)
        self.kind = kind
        #: Single-leaf answers are exactly Laplace — grants the exact
        #: quantile in :meth:`interval_halfwidths`.
        self.unit_laplace = bool(unit_laplace)

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        lengths = his - los + 1
        return lengths.astype(np.float64) * self.leaf_variance

    def interval_halfwidths(
        self, los, his, confidence: float, *, variances=None
    ) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        if variances is None:
            variances = self.range_variances(los, his)
        half = gaussian_z(confidence) * np.sqrt(variances)
        if self.unit_laplace:
            unit = his == los
            if np.any(unit):
                half = np.where(
                    unit,
                    laplace_halfwidth(self.leaf_variance, confidence),
                    half,
                )
        return half


class ConstrainedTreeUncertaintyModel(UncertaintyModel):
    """Exact ``H̄`` range variance from the range's two boundary paths.

    The served leaves are ``h̄ = M·h̃`` with i.i.d. node noise of variance
    ``σ² = 2ℓ²/ε²``, so a range indicator ``u`` has ``Var(uᵀh̄) =
    σ²‖Mᵀu‖²``.  The adjoint of Theorem 3's top-down pass gives each node
    its covered fraction ``f`` minus its parent's: nonzero only below the
    partially covered nodes, on the root-to-leaf paths of ``lo`` and
    ``hi``.  The bottom-up adjoint carries a pull ``w_l = f_l - f_{l-1} +
    c_{l-1}·w_{l-1}`` down each path, and a child leaving a path at level
    ``d`` with pull ``v`` adds ``v²·T(d)`` for its whole subtree
    (:func:`_path_weights`).  O(k·log n) per range on ``(queries,
    height)`` arrays, in fixed slices of ranges; a range's variance
    depends on its bounds only, so batches split or reorder bit for bit.
    """

    kind = "H_bar"

    def __init__(
        self, domain_size: int, epsilon: float, branching: int = 2
    ) -> None:
        self.domain_size = int(domain_size)
        self.epsilon = _check_epsilon(epsilon)
        self.branching = int(branching)
        self.padded_size = _padded_size(self.domain_size, self.branching)
        self.layout = TreeLayout(self.padded_size, branching=self.branching)
        self.node_variance = hierarchical_leaf_variance(
            self.layout.height, self.epsilon
        )

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        flat_los, flat_his = los.reshape(-1), his.reshape(-1)
        out = np.empty(flat_los.size, dtype=np.float64)
        # Fixed slices keep the (2, slice, height) scratch to a few MB
        # however large the batch; each range depends on its bounds only.
        for start in range(0, flat_los.size, _RANGE_SLICE):
            stop = start + _RANGE_SLICE
            out[start:stop] = self._path_variances(
                flat_los[start:stop], flat_his[start:stop]
            )
        return out.reshape(los.shape)

    def _path_variances(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        k = self.branching
        widths, spans, own2, subtree = _path_weights(self.layout.height, k)
        lo, hi = los.reshape(-1, 1), his.reshape(-1, 1)
        # The lo-path and hi-path node at every level: (2, queries, height).
        nodes = np.stack((lo, hi)) // widths
        starts = nodes * widths
        shared = nodes[0] == nodes[1]  # both paths pass one node
        frac = (
            np.minimum(hi, starts + widths - 1) - np.maximum(lo, starts) + 1
        ) / widths
        # w_l = Σ_{d≤l} (f_d - f_{d-1})·C(d,l), and C(d,l) telescopes to
        # spans_l / spans_d, so the pull is one sequential cumsum.
        pull = spans * np.cumsum(np.diff(frac, prepend=0.0) / spans, axis=2)
        terms = own2 * pull * pull
        # Off-path children of each path node above the leaves.  Below
        # the split, every child right of lo (left of hi) is covered; a
        # shared node's children strictly between lo's and hi's are.
        a, b = nodes[..., 1:] % k  # the children holding lo and hi
        above = shared[:, :-1]
        between = np.maximum(b - a - 1, 0)
        covered = np.stack((np.where(above, between, k - 1 - a), b))
        uncovered = k - 1 - covered
        uncovered[0] -= above & (a != b)
        # An uncovered child's pull is c_l·w_l - f_l, a covered one's 1 more.
        off = spans[1:] / spans[:-1] * pull[..., :-1] - frac[..., :-1]
        terms[..., :-1] += subtree[1:] * (
            covered * (1.0 + off) ** 2 + uncovered * off * off
        )
        # A shared node is on both paths: count it (and its children) once.
        total = (terms[0] + np.where(shared, 0.0, terms[1])).sum(axis=1)
        return self.node_variance * total


@lru_cache(maxsize=None)
def _path_weights(height: int, k: int) -> tuple[np.ndarray, ...]:
    """Per-level constants of the boundary-path form for one tree shape.

    With the own and child weights ``a_l``, ``c_l`` of
    :class:`~repro.inference.hierarchical.HierarchicalInference`, returns
    the leaves under a node at each level ``l``; ``spans_l = k^{h-l} - 1``,
    so that ``c_l = spans_{l+1} / spans_l``; ``a_l²``; and the subtree
    factor ``T(l) = Σ_{j≥l} a_j²·k^{j-l}·(c_l⋯c_{j-1})²``, built as
    ``T(l) = a_l² + k·c_l²·T(l+1)``.
    """
    widths = k ** np.arange(height - 1, -1, -1, dtype=np.int64)
    spans = k * widths.astype(np.float64) - 1.0
    own2 = ((spans - widths + 1.0) / spans) ** 2
    subtree = own2.copy()
    for level in range(height - 2, -1, -1):
        child = spans[level + 1] / spans[level]
        subtree[level] += k * child**2 * subtree[level + 1]
    for array in (widths, spans, own2, subtree):
        array.setflags(write=False)
    return widths, spans, own2, subtree


class WaveletUncertaintyModel(UncertaintyModel):
    """Exact Privelet range variance from the Haar boundary decomposition.

    Haar synthesis gives ``leaf_j = c₀ ± c_{l,i(j)}`` per level, so a
    range sum weights the base coefficient by the range length ``m`` and
    each detail coefficient by ``|range ∩ left half| - |range ∩ right
    half|`` of its node — zero for nodes strictly inside or outside the
    range, leaving at most the two boundary nodes per level::

        Var = 2·b₀²·m² + Σ_level 2·b_level²·(w_lo² + w_hi²)

    with the Laplace noise scales from
    :meth:`repro.queries.wavelet.HaarWaveletQuery.coefficient_scales`.
    The model runs on the power-of-two *padded* domain, exactly like
    :class:`repro.estimators.wavelet.WaveletEstimator`.
    """

    kind = "wavelet"

    def __init__(self, domain_size: int, epsilon: float) -> None:
        self.domain_size = int(domain_size)
        self.epsilon = _check_epsilon(epsilon)
        self.padded_size = _padded_size(self.domain_size, 2)
        query = HaarWaveletQuery(self.padded_size)
        base_scale, detail_scales = query.coefficient_scales(self.epsilon)
        self.base_variance = 2.0 * base_scale**2
        self.detail_variances = tuple(
            2.0 * scale**2 for scale in detail_scales
        )

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        lengths = (his - los + 1).astype(np.float64)
        variances = self.base_variance * lengths * lengths
        for level, detail_variance in enumerate(self.detail_variances):
            width = self.padded_size >> level
            half = width >> 1
            lo_node = los // width
            hi_node = his // width
            lo_start = lo_node * width
            hi_start = hi_node * width
            same = lo_node == hi_node
            # Boundary node containing `lo` clipped at its right edge (or
            # at `hi` when both bounds share the node).
            lo_clip_hi = np.where(same, his, lo_start + width - 1)
            w_lo = self._node_weight(lo_start, half, los, lo_clip_hi)
            # Boundary node containing `hi` clipped at its left edge.
            w_hi = np.where(
                same, 0, self._node_weight(hi_start, half, hi_start, his)
            )
            variances = variances + detail_variance * (
                w_lo.astype(np.float64) ** 2 + w_hi.astype(np.float64) ** 2
            )
        return variances

    @staticmethod
    def _node_weight(node_start, half, lo, hi) -> np.ndarray:
        """``|[lo,hi] ∩ left half| - |[lo,hi] ∩ right half|`` per node."""
        mid = node_start + half
        left = np.maximum(0, np.minimum(hi, mid - 1) - lo + 1)
        right = np.maximum(0, hi - np.maximum(lo, mid) + 1)
        return left - right


class CompositeUncertaintyModel(UncertaintyModel):
    """Variance over a sharded release: sum the per-shard piece variances.

    Shards draw independent noise, so a range splits at the shard
    boundaries into per-shard pieces whose counts and variances add.
    Shard geometry is passed as the plain ``starts`` offsets array (no
    dependency on the sharding tier).  Shards may share one model object
    (:func:`composite_uncertainty_model` shares one per distinct width
    and ε); each distinct model scores all of a batch's pieces in one
    call, and each range adds its pieces in shard order.
    """

    def __init__(
        self, starts, domain_size: int, models: list[UncertaintyModel]
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.domain_size = int(domain_size)
        if self.starts.ndim != 1 or self.starts.size != len(models):
            raise ReproError(
                f"expected one model per shard start, got {self.starts.size} "
                f"starts and {len(models)} models"
            )
        self.models = list(models)
        self.kind = models[0].kind if models else "?"
        self.ends = np.append(self.starts[1:], self.domain_size) - 1
        # Each shard's model, named by the first shard holding that object.
        index = [[m is model for m in self.models].index(True) for model in self.models]
        self._model_shard = np.array(index, dtype=np.int64)

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        flat_los, flat_his = los.reshape(-1), his.reshape(-1)
        lo_shards = np.searchsorted(self.starts, flat_los, side="right") - 1
        hi_shards = np.searchsorted(self.starts, flat_his, side="right") - 1
        # One piece per (range, overlapped shard), range-major and in
        # shard order within each range.
        counts = hi_shards - lo_shards + 1
        firsts = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(flat_los.size), counts)
        shard = np.repeat(lo_shards - firsts, counts) + np.arange(owner.size)
        offset = self.starts[shard]
        piece_los = np.maximum(flat_los[owner], offset) - offset
        piece_his = np.minimum(flat_his[owner], self.ends[shard]) - offset
        pieces = np.empty(owner.size, dtype=np.float64)
        piece_models = self._model_shard[shard]
        for first in np.unique(piece_models).tolist():
            mine = np.flatnonzero(piece_models == first)
            pieces[mine] = self.models[first].range_variances(
                piece_los[mine], piece_his[mine]
            )
        # Add each range's pieces left to right, as a per-shard loop would.
        variances = np.zeros(flat_los.size, dtype=np.float64)
        for rank in range(int(counts.max()) if counts.size else 0):
            spanning = np.flatnonzero(counts > rank)
            variances[spanning] += pieces[firsts[spanning] + rank]
        return variances.reshape(los.shape)


def uncertainty_model_for(
    estimator: str,
    *,
    domain_size: int,
    epsilon: float,
    branching: int = 2,
) -> UncertaintyModel:
    """The exact uncertainty model for one release's parameters."""
    canonical = CANONICAL_ESTIMATORS.get(estimator)
    if canonical is None:
        raise ReproError(
            f"unknown estimator {estimator!r}; expected one of "
            f"{sorted(CANONICAL_ESTIMATORS)}"
        )
    epsilon = _check_epsilon(epsilon)
    if canonical == "L~":
        return AdditiveUncertaintyModel(
            error_identity_laplace_range(1, epsilon),
            domain_size,
            kind="L~",
        )
    if canonical == "H~":
        padded = _padded_size(domain_size, branching)
        height = TreeLayout(padded, branching=branching).height
        return AdditiveUncertaintyModel(
            hierarchical_leaf_variance(height, epsilon),
            domain_size,
            kind="H~",
        )
    if canonical == "H_bar":
        return ConstrainedTreeUncertaintyModel(
            domain_size, epsilon, branching=branching
        )
    return WaveletUncertaintyModel(domain_size, epsilon)


def composite_uncertainty_model(
    starts,
    domain_size: int,
    estimator: str,
    epsilons,
    *,
    branching: int = 2,
) -> UncertaintyModel:
    """Uncertainty model for a sharded release (one ε per shard).

    Builds one model per distinct (shard width, ε) over that local
    domain, shared by every shard it describes, and composes them.  When
    every shard model is additive with the *same* per-leaf variance the
    composition collapses to one global additive model, which makes the
    reported variance bit-identical across shard counts (the range
    length is summed as an integer before the one float multiply).
    """
    starts = np.asarray(starts, dtype=np.int64)
    epsilons = [float(epsilon) for epsilon in epsilons]
    if starts.size != len(epsilons):
        raise ReproError(
            f"expected one ε per shard, got {starts.size} starts and "
            f"{len(epsilons)} epsilons"
        )
    widths = np.diff(np.append(starts, domain_size)).tolist()
    shared: dict[tuple[int, float], UncertaintyModel] = {}
    for width, epsilon in zip(widths, epsilons):
        if (width, epsilon) not in shared:
            shared[width, epsilon] = uncertainty_model_for(
                estimator, domain_size=width, epsilon=epsilon, branching=branching
            )
    models = [shared[key] for key in zip(widths, epsilons)]
    first = models[0] if models else None
    if models and all(
        isinstance(model, AdditiveUncertaintyModel)
        and model.leaf_variance == first.leaf_variance
        for model in models
    ):
        return AdditiveUncertaintyModel(
            first.leaf_variance,
            domain_size,
            kind=first.kind,
            unit_laplace=first.unit_laplace,
        )
    return CompositeUncertaintyModel(starts, domain_size, models)
