"""Sampling and approximate counting for hardcore-model slices on regular bipartite graphs."""

__version__ = "0.1.0"

import os as _os

# One BLAS thread unless the environment says otherwise: the spectral sweeps
# solve stacks of small links, which a multithreaded BLAS only slows down.
# The limit takes effect only when set before NumPy loads, as it is here for
# the CLI and for any program that imports slicewalk before NumPy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .graphs import (BipartiteRegularGraph, RegularGraph, RejectionBudgetError,
                     bipartite_complement, complement_regular, gen_bipartite_regular,
                     gen_regular, load_graph, save_graph)
from .slices import (LinkOperator, NeighborGraph, OneSidedSlice, RegularSlice,
                     SliceError, TwoSidedSlice, enumerate_facets, exact_distribution,
                     link, local_walk_exact, neighbor_graph, one_sided_link_walk_closed_form,
                     regular_link_walk_closed_form, two_sided_link_walk_closed_form)
from .spectra import (SpectrumSummary, adjacency_matrix, complement_interlacing_check,
                      eigen_summary, psd_dominance)
from .walks import (ChainConfig, ChainState, MixingReport, down_up_step,
                    exact_transition_matrix, greedy_initial_state, run_chain,
                    spectral_gap, tv_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
