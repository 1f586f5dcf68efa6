"""End-to-end runs tying graphs, operators, probes and estimators together.

These helpers are the programmatic face of the command line: each takes a
graph plus the knobs of one method and returns the estimator outputs along
with everything needed to serialize them reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .density import BINS, SpectralHistogram, histogram_from_moments
from .kpm import ChebMoments, dos_moments, pdos_moments
from .lanczos import gql_dos as _gql_dos
from .motifs import FilterAdjustment, MotifKind, detect_motifs, filter_probes
from .nested_dissection import LEAF_SIZE, build_partition_tree, nd_pdos_moments
from .operators import (OPERATOR, RANGE_MARGIN, RANGE_STEPS, OperatorKind,
                        SymmetricCSROperator, build_operator,
                        estimate_spectral_range, rescale_operator)
from .probes import ProbeKind, make_probes

# The estimators' reproduction presets; each other preset is named in the
# module that owns it (OPERATOR, BINS, LEAF_SIZE, RANGE_STEPS/RANGE_MARGIN).
KPM_MOMENTS = 500  # Chebyshev moments of `kpm_dos` and `kpm_pdos`
GQL_STEPS = 50  # Lanczos steps per probe of `gql_dos_pipeline`
ND_MOMENTS = 50  # Chebyshev moments of `nd_pdos_pipeline`
PROBES = 20
PROBE_KIND = ProbeKind.HADAMARD


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


def kpm_dos(g, operator=OPERATOR, m_max=KPM_MOMENTS, nz=PROBES,
            probe_kind=PROBE_KIND, seed=0, bins=BINS, damping=True,
            filter_kinds=(), range_=None, range_steps=RANGE_STEPS,
            range_margin=RANGE_MARGIN, reinsert_spikes=True,
            negativity_tol=None) -> DosResult:
    """Full KPM pipeline: scale, (optionally) deflate motifs, estimate
    moments, integrate into a histogram with spike re-insertion."""
    sop = scaled_operator_for(g, operator, seed=seed, range_=range_,
                              range_steps=range_steps, range_margin=range_margin)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)

    instances = []
    adjustment = None
    effective_dim = None
    if filter_kinds:
        instances = detect_motifs(
            g, kinds={MotifKind(k) for k in filter_kinds}, seed=seed,
            operator=OperatorKind(operator))
    if instances:
        probes, adjustment = filter_probes(probes, instances)
        effective_dim = g.n - adjustment.deflated_dim

    moments = dos_moments(sop, probes, m_max, effective_dim=effective_dim)
    hist = histogram_from_moments(
        moments, bins=bins, damping=damping,
        filter_adjustment=adjustment if reinsert_spikes else None,
        negativity_tol=negativity_tol)
    return DosResult(histogram=hist, moments=moments, scaled_op=sop,
                     adjustment=adjustment, instances=instances)


def kpm_pdos(g, operator=OPERATOR, m_max=KPM_MOMENTS, nz=PROBES,
             probe_kind=PROBE_KIND, seed=0, range_=None,
             range_steps=RANGE_STEPS, range_margin=RANGE_MARGIN):
    sop = scaled_operator_for(g, operator, seed=seed, range_=range_,
                              range_steps=range_steps, range_margin=range_margin)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)
    return pdos_moments(sop, probes, m_max), sop


def gql_dos_pipeline(g, operator=OPERATOR, steps=GQL_STEPS, nz=PROBES,
                     probe_kind=PROBE_KIND, seed=0, bins=BINS,
                     range_=None, range_steps=RANGE_STEPS,
                     range_margin=RANGE_MARGIN):
    """Histogram from averaged per-probe Ritz quadratures (no rescaling
    needed, but a range pins the bin edges)."""
    op, range_ = _operator_and_range(g, operator, seed, range_, range_steps,
                                     range_margin)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)
    return _gql_dos(op, probes, steps, bins=bins, spectral_range=range_)


def nd_pdos_pipeline(g, operator=OPERATOR, m_max=ND_MOMENTS, seed=0,
                     leaf_size=LEAF_SIZE, tree=None, range_=None,
                     range_steps=RANGE_STEPS, range_margin=RANGE_MARGIN):
    sop = scaled_operator_for(g, operator, seed=seed, range_=range_,
                              range_steps=range_steps, range_margin=range_margin)
    if tree is None:
        tree = build_partition_tree(g, leaf_size=leaf_size)
    return nd_pdos_moments(sop, tree, m_max), sop, tree
