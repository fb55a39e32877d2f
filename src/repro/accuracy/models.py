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
  evaluates ``Mᵀu`` with adjoint bottom-up/top-down passes that mirror
  :class:`repro.inference.hierarchical.HierarchicalInference` weight for
  weight — O(num_nodes) per query, no operator matrix.
* ``wavelet`` — Haar synthesis cancels every detail coefficient strictly
  inside a range; only the ≤2 boundary nodes per level survive, giving a
  closed form in O(log n) per query.

All models are pure and deterministic: variances are exact functions of
``(estimator, ε, branching, domain_size)`` and integer query bounds, so
equivalence suites can assert bit-identity across serving paths.  The
models deliberately ignore the integer rounding (~1/12 per leaf) and the
Section 4.2 non-negativity heuristic applied by the serving defaults;
both are negligible against mechanism noise on dense data and the
CI-coverage audit in ``tests/statistical`` bounds the residual effect.

Confidence intervals use the Gaussian quantile of the exact variance —
asymptotically correct for ranges (sums of many independent or linearly
mixed Laplace draws) — except single-leaf answers from the additive
models, which are exactly Laplace and get the exact Laplace quantile.
"""

from __future__ import annotations

import math
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
    """Exact ``H̄`` range variance via adjoint constrained-inference passes.

    The served leaves are ``h̄ = M·h̃`` where ``h̃`` carries i.i.d. Laplace
    noise of variance ``σ² = 2ℓ²/ε²`` per node, so a range indicator ``u``
    has ``Var(uᵀh̄) = σ²‖Mᵀu‖²``.  ``Mᵀu`` is evaluated by running the
    bottom-up/top-down recurrences of
    :class:`~repro.inference.hierarchical.HierarchicalInference` in
    reverse with the same per-level weights — O(num_nodes) per query,
    batched over query chunks.
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
        flat_los = los.reshape(-1)
        flat_his = his.reshape(-1)
        out = np.empty(flat_los.size, dtype=np.float64)
        # Chunk so per-level scratch stays ~tens of MB on huge trees.
        chunk = max(1, (1 << 22) // max(1, self.layout.num_nodes))
        for start in range(0, flat_los.size, chunk):
            stop = min(start + chunk, flat_los.size)
            out[start:stop] = self._chunk_variances(
                flat_los[start:stop], flat_his[start:stop]
            )
        return out.reshape(los.shape)

    def _chunk_variances(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        k = self.layout.branching
        height = self.layout.height
        queries = los.size
        leaves = self.padded_size
        # Range indicators over the padded leaf domain via a diff/cumsum.
        diff = np.zeros((queries, leaves + 1), dtype=np.float64)
        rows = np.arange(queries)
        diff[rows, los] = 1.0
        diff[rows, his + 1] -= 1.0
        u = np.cumsum(diff[:, :leaves], axis=1)

        def childsum(level_values: np.ndarray) -> np.ndarray:
            return level_values.reshape(queries, -1, k).sum(axis=2)

        # Adjoint of the top-down pass: h[λ] = z[λ] + R((h[λ-1] - S z[λ])/k)
        # with R = repeat-k and S = child-sum (R and S are adjoint to each
        # other, and R∘S is self-adjoint).
        zbar: list[np.ndarray] = [np.empty(0)] * height
        ubar = u
        for level in range(height - 1, 0, -1):
            folded = childsum(ubar)
            zbar[level] = ubar - np.repeat(folded / k, k, axis=1)
            ubar = folded / k
        zbar[0] = ubar  # h[0] = z[0]: the root's pull arrives unchanged

        # Adjoint of the bottom-up pass: z[λ] = a_λ·h̃[λ] + c_λ·S(z[λ+1]).
        # Accumulate top-down so each level inherits its parent's pull.
        total = np.zeros(queries, dtype=np.float64)
        wbar = zbar[0]
        for level in range(height):
            node_height = height - level  # leaves have height 1
            k_l = float(k**node_height)
            k_lm1 = float(k ** (node_height - 1))
            own_weight = (k_l - k_lm1) / (k_l - 1.0) if k_l > 1.0 else 1.0
            gradient = own_weight * wbar
            total += np.einsum("ij,ij->i", gradient, gradient)
            if level + 1 < height:
                child_weight = (k_lm1 - 1.0) / (k_l - 1.0)
                wbar = zbar[level + 1] + np.repeat(
                    child_weight * wbar, k, axis=1
                )
        return self.node_variance * total


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
    dependency on the sharding tier).
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

    def range_variances(self, los, his) -> np.ndarray:
        los, his = _check_ranges(los, his, self.domain_size)
        num_shards = self.starts.size
        ends = np.append(self.starts[1:], self.domain_size) - 1
        lo_shards = np.searchsorted(self.starts, los, side="right") - 1
        hi_shards = np.searchsorted(self.starts, his, side="right") - 1
        variances = np.zeros(los.shape, dtype=np.float64)
        for shard in range(num_shards):
            overlap = (lo_shards <= shard) & (shard <= hi_shards)
            if not np.any(overlap):
                continue
            local_lo = np.maximum(los, self.starts[shard]) - self.starts[shard]
            local_hi = np.minimum(his, ends[shard]) - self.starts[shard]
            # Clamp non-overlapping queries to a valid dummy range; their
            # contribution is masked out below.
            safe_lo = np.where(overlap, local_lo, 0)
            safe_hi = np.where(overlap, local_hi, 0)
            piece = self.models[shard].range_variances(safe_lo, safe_hi)
            variances += np.where(overlap, piece, 0.0)
        return variances


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

    Builds one per-shard model over each shard's local domain and
    composes them.  When every shard model is additive with the *same*
    per-leaf variance the composition collapses to one global additive
    model, which makes the reported variance bit-identical across shard
    counts (the range length is summed as an integer before the one
    float multiply).
    """
    starts = np.asarray(starts, dtype=np.int64)
    epsilons = [float(epsilon) for epsilon in epsilons]
    if starts.size != len(epsilons):
        raise ReproError(
            f"expected one ε per shard, got {starts.size} starts and "
            f"{len(epsilons)} epsilons"
        )
    ends = np.append(starts[1:], domain_size)
    models = [
        uncertainty_model_for(
            estimator,
            domain_size=int(ends[shard] - starts[shard]),
            epsilon=epsilons[shard],
            branching=branching,
        )
        for shard in range(starts.size)
    ]
    additive = [
        model for model in models if isinstance(model, AdditiveUncertaintyModel)
    ]
    if len(additive) == len(models) and models:
        leaf_variances = {model.leaf_variance for model in additive}
        if len(leaf_variances) == 1:
            return AdditiveUncertaintyModel(
                additive[0].leaf_variance,
                domain_size,
                kind=additive[0].kind,
                unit_laplace=additive[0].unit_laplace,
            )
    return CompositeUncertaintyModel(starts, domain_size, models)
