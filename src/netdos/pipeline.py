"""End-to-end runs tying graphs, operators, probes and estimators together.

These helpers are the programmatic face of the command line: each takes a
graph plus the knobs of one method and returns the estimator outputs along
with everything needed to serialize them reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .density import BINS, SpectralHistogram, histogram_from_moments
from .kpm import ChebMoments, dos_moments, pdos_moments
from .lanczos import gql_dos as _gql_dos
from .motifs import MotifKind, detect_motifs, filter_probes
from .nested_dissection import LEAF_SIZE, build_partition_tree, nd_pdos_moments
from .operators import (OPERATOR, OperatorKind, SymmetricCSROperator,
                        build_operator, estimate_spectral_range,
                        rescale_operator)
from .probes import ProbeKind, make_probes

# The estimators' reproduction presets; each other preset is named in the
# module that owns it (OPERATOR and RANGE_STEPS, BINS, LEAF_SIZE).
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


def scaled_operator_for(g, operator, range_=None) -> SymmetricCSROperator:
    """The operator with its range (estimated unless given) folded in:
    spectrum inside [-1, 1]."""
    op = build_operator(g, OperatorKind(operator))
    return rescale_operator(op, range_ or estimate_spectral_range(op))


def kpm_dos(g, operator=OPERATOR, m_max=KPM_MOMENTS, nz=PROBES,
            probe_kind=PROBE_KIND, seed=0, bins=BINS, damping=True,
            filter_kinds=(), range_=None, reinsert_spikes=True,
            negativity_tol=None) -> DosResult:
    """Full KPM pipeline: build and scale the operator, (optionally) deflate
    the motifs whose eigenvalues the unscaled operator states by passing to
    the quotient on their complement, estimate moments, which carry the
    deflation, and integrate them into a histogram with spike
    re-insertion."""
    op = build_operator(g, OperatorKind(operator))
    sop = rescale_operator(op, range_ or estimate_spectral_range(op))
    h, probes = sop, make_probes(g.n, nz, kind=probe_kind, seed=seed)

    adjustment = None
    if filter_kinds:
        instances = detect_motifs(g, op, kinds={MotifKind(k) for k in filter_kinds})
        (h, probes), adjustment = filter_probes(sop, probes, instances)

    moments = dos_moments(h, probes, m_max, adjustment)
    hist = histogram_from_moments(moments, bins=bins, damping=damping,
                                  reinsert_spikes=reinsert_spikes,
                                  negativity_tol=negativity_tol)
    return DosResult(histogram=hist, moments=moments, scaled_op=sop)


def kpm_pdos(g, operator=OPERATOR, m_max=KPM_MOMENTS, nz=PROBES,
             probe_kind=PROBE_KIND, seed=0, range_=None):
    sop = scaled_operator_for(g, operator, range_=range_)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)
    return pdos_moments(sop, probes, m_max), sop


def gql_dos_pipeline(g, operator=OPERATOR, steps=GQL_STEPS, nz=PROBES,
                     probe_kind=PROBE_KIND, seed=0, bins=BINS, range_=None):
    """Histogram from averaged per-probe Ritz quadratures of the scaled
    operator, binned under its scale map, and that operator."""
    sop = scaled_operator_for(g, operator, range_=range_)
    probes = make_probes(g.n, nz, kind=probe_kind, seed=seed)
    return _gql_dos(sop, probes, steps, bins=bins), sop


def nd_pdos_pipeline(g, operator=OPERATOR, m_max=ND_MOMENTS,
                     leaf_size=LEAF_SIZE, tree=None, range_=None):
    sop = scaled_operator_for(g, operator, range_=range_)
    if tree is None:
        tree = build_partition_tree(g, leaf_size=leaf_size)
    return nd_pdos_moments(sop, tree, m_max), sop, tree
