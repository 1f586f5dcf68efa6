"""netdos: spectral density estimation (DOS/PDOS) for large sparse graphs.

Global and per-node eigenvalue densities of graph operators, estimated with
Chebyshev moment expansions (Jackson-damped), stochastic Lanczos quadrature,
or an exact nested-dissection recurrence, with motif detection/deflation to
tame spectral spikes, plus a dense oracle and seeded graph generators.
"""

from .density import SpectralHistogram, evaluate_density, histogram_from_moments
from .errors import (FileFormatError, GraphError, MotifError, NetdosError,
                     PartitionError, RecurrenceBlowupError, SpectralRangeError)
from .fileio import parse_graph_file, write_graph_edgelist
from .graph import GraphCSR, build_csr
from .kpm import (ChebMoments, chebyshev_values, dos_moments,
                  jackson_coefficients, pdos_moments)
from .lanczos import RitzQuadrature, gql_dos, gql_pdos, lanczos_quadrature
from .motifs import (FilterAdjustment, MotifInstance, MotifKind, detect_motifs,
                     filter_probes)
from .nested_dissection import (PartitionTree, build_partition_tree,
                                load_partition, nd_pdos_moments, save_partition)
from .operators import (OperatorKind, ScaleMap, SymmetricCSROperator,
                        build_operator, estimate_spectral_range,
                        rescale_operator)
from .probes import ProbeKind, ProbeMatrix, make_probes
from .testkit import (ExactSpectrum, erdos_renyi, exact_spectrum, generate_graph,
                      oracle_histogram, preferential_attachment, small_world)

__version__ = "0.1.0"

__all__ = [
    "GraphCSR", "build_csr", "OperatorKind", "ScaleMap",
    "SymmetricCSROperator", "build_operator", "estimate_spectral_range",
    "rescale_operator", "ProbeKind", "ProbeMatrix", "make_probes",
    "ChebMoments", "chebyshev_values", "dos_moments", "pdos_moments",
    "jackson_coefficients", "SpectralHistogram",
    "histogram_from_moments", "evaluate_density", "RitzQuadrature",
    "lanczos_quadrature", "gql_dos", "gql_pdos", "MotifKind", "MotifInstance",
    "FilterAdjustment", "detect_motifs", "filter_probes",
    "PartitionTree", "build_partition_tree", "save_partition",
    "load_partition", "nd_pdos_moments", "ExactSpectrum", "exact_spectrum",
    "generate_graph", "erdos_renyi", "preferential_attachment", "small_world",
    "oracle_histogram", "parse_graph_file", "write_graph_edgelist",
    "NetdosError", "GraphError", "SpectralRangeError", "RecurrenceBlowupError",
    "MotifError", "PartitionError", "FileFormatError",
]
