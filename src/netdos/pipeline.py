"""End-to-end runs tying graphs, operators, probes and estimators together.

These helpers are the programmatic face of the command line: each takes a
graph plus the knobs of one method and returns the estimator outputs along
with everything needed to serialize them reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import SpectralHistogram, histogram_from_moments
from .kpm import ChebMoments, dos_moments, pdos_moments
from .lanczos import gql_dos as _gql_dos
from .motifs import FilterAdjustment, MotifKind, detect_motifs, filter_probes
from .nested_dissection import build_partition_tree, nd_pdos_moments
from .operators import (RANGE_MARGIN, RANGE_STEPS, OperatorKind,
                        SymmetricCSROperator, build_operator,
                        estimate_spectral_range, rescale_operator)
from .probes import ProbeKind, make_probes


@dataclass
class DosResult:
    histogram: SpectralHistogram
    moments: ChebMoments
    scaled_op: SymmetricCSROperator
    adjustment: FilterAdjustment | None = None
    instances: list = field(default_factory=list)


def _operator_and_range(g, operator, seed, range_, range_steps, range_margin):
    """The unscaled operator and its spectral range (estimated unless given)."""
    op = build_operator(g, OperatorKind(operator))
    if range_ is None:
        range_ = estimate_spectral_range(op, probe_seed=seed, steps=range_steps,
                                         margin=range_margin)
    return op, range_


def scaled_operator_for(g, operator, seed=0, range_=None,
                        range_steps=RANGE_STEPS,
                        range_margin=RANGE_MARGIN) -> SymmetricCSROperator:
    """The operator with its range folded in: spectrum inside [-1, 1]."""
    return rescale_operator(*_operator_and_range(g, operator, seed, range_,
                                                 range_steps, range_margin))


def kpm_dos(g, operator=OperatorKind.NORMALIZED_ADJACENCY, m_max=500, nz=20,
            probe_kind=ProbeKind.HADAMARD, seed=0, bins=50, damping=True,
            filter_kinds=(), custom_instances=(), range_=None,
            range_steps=RANGE_STEPS, range_margin=RANGE_MARGIN,
            reinsert_spikes=True, edges=None,
            negativity_tol=None) -> DosResult:
    """Full KPM pipeline: scale, (optionally) deflate motifs, estimate
    moments, integrate into a histogram with spike re-insertion."""
    sop = scaled_operator_for(g, operator, seed=seed, range_=range_,
                              range_steps=range_steps, range_margin=range_margin)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)

    instances = list(custom_instances)
    adjustment = None
    effective_dim = None
    if filter_kinds:
        instances.extend(detect_motifs(
            g, kinds={MotifKind(k) for k in filter_kinds}, seed=seed,
            operator=OperatorKind(operator)))
    if instances:
        probes, adjustment = filter_probes(probes, instances)
        effective_dim = g.n - adjustment.deflated_dim

    moments = dos_moments(sop, probes, m_max, effective_dim=effective_dim)
    hist = histogram_from_moments(
        moments, bins=bins, damping=damping, edges=edges,
        filter_adjustment=adjustment if reinsert_spikes else None,
        negativity_tol=negativity_tol)
    return DosResult(histogram=hist, moments=moments, scaled_op=sop,
                     adjustment=adjustment, instances=instances)


def kpm_pdos(g, operator=OperatorKind.NORMALIZED_ADJACENCY, m_max=500, nz=20,
             probe_kind=ProbeKind.HADAMARD, seed=0, range_=None,
             range_steps=RANGE_STEPS, range_margin=RANGE_MARGIN):
    sop = scaled_operator_for(g, operator, seed=seed, range_=range_,
                              range_steps=range_steps, range_margin=range_margin)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)
    return pdos_moments(sop, probes, m_max), sop


def gql_dos_pipeline(g, operator=OperatorKind.NORMALIZED_ADJACENCY, steps=50,
                     nz=20, probe_kind=ProbeKind.HADAMARD, seed=0, bins=50,
                     range_=None, range_steps=RANGE_STEPS,
                     range_margin=RANGE_MARGIN):
    """Histogram from averaged per-probe Ritz quadratures (no rescaling
    needed, but a range pins the bin edges)."""
    op, range_ = _operator_and_range(g, operator, seed, range_, range_steps,
                                     range_margin)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)
    return _gql_dos(op, probes, steps, bins=bins, spectral_range=range_)


def nd_pdos_pipeline(g, operator=OperatorKind.NORMALIZED_ADJACENCY, m_max=50,
                     seed=0, leaf_size=256, tree=None, range_=None,
                     range_steps=RANGE_STEPS, range_margin=RANGE_MARGIN):
    sop = scaled_operator_for(g, operator, seed=seed, range_=range_,
                              range_steps=range_steps, range_margin=range_margin)
    if tree is None:
        tree = build_partition_tree(g, leaf_size=leaf_size)
    return nd_pdos_moments(sop, tree, m_max), sop, tree


def spike_bins(masses, factor=3.0, min_mass=0.01):
    """Indices of bins exceeding `factor` times their largest neighbor.

    Bins below `min_mass` never count: a spike must carry real mass, not
    just dominate an empty stretch of the spectrum.
    """
    m = np.asarray(masses, dtype=np.float64)
    out = []
    for i in range(m.shape[0]):
        if m[i] < min_mass:
            continue
        nbrs = []
        if i > 0:
            nbrs.append(m[i - 1])
        if i + 1 < m.shape[0]:
            nbrs.append(m[i + 1])
        if m[i] > factor * max(nbrs):
            out.append(i)
    return out


def is_unimodal(masses, rel_tol=0.05) -> bool:
    """True when masses rise to a single peak then fall, up to wiggles of
    rel_tol times the peak mass."""
    m = np.asarray(masses, dtype=np.float64)
    slack = rel_tol * float(m.max())
    peak = int(np.argmax(m))
    rising = m[: peak + 1]
    falling = m[peak:]
    ok_up = np.all(np.diff(rising) >= -slack)
    ok_down = np.all(np.diff(falling) <= slack)
    return bool(ok_up and ok_down)
