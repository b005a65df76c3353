"""udgcut: exact reduction from max-cut on degree-4 graphs to unit disk
proximity models, with certified cut arithmetic and exact solvers."""

from .errors import (ConstructionError, DegenerateOverlapError, InconsistencyError,
                     InputError, ParityError, PreconditionError, SizeLimitError,
                     UdgcutError, UndefinedPrecisionError, WidthLimitError)
from .geometry import Point, Segment, dist2, dist2_units, segments_properly_cross
from .graph_core import (Cut, Graph, canon_edge, complete_graph, cut_size,
                         cycle_graph, disjoint_union, format_graph_text, graph,
                         max_degree, parse_graph_text, path_graph, petersen_graph,
                         random_graph, subdivide_edge_twice)
from .udg_model import (NOT_PLANAR_DRAWING, PLANAR_BY_CHECK, PLANAR_BY_THEOREM,
                        CrossingWitness, ModelReport, ProximityModel,
                        planarity_verdict, precision2, random_precise_model,
                        straight_line_crossings, validate_model)
from .gadget import build_H, construct_H_on, h_model
from .drawing import (Crossing, MeshDrawing, crossings, mesh_draw, standardize,
                      validate_drawing, validate_standard)
from .kernel import kernelize, kernelize_graph
from .solvers import (TreeDecomposition, greedy_tree_decomposition,
                      max_bisection_bruteforce, max_cut_bruteforce,
                      max_cut_treewidth_dp)
from .reduction import (LoadedOutput, Provenance, ReductionOutput,
                        bisection_double, load_output_json, recover_mc, reduce,
                        to_json, validate_reduction)

__all__ = [name for name in dir() if not name.startswith("_")]
