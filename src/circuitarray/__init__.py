"""Exact-arithmetic triangular-grid circuit reduction and the circuit array.

Resistor networks on triangular grids reduce row by row through
delta-wye/wye-delta/series surgery; collecting labels of the reduced grids
yields a two-dimensional array of exact rationals with closed-form top rows,
explicit recursions, Hankel-determinant structure along its leftmost
diagonal, and a product asymptotic.  This package builds all of it in exact
arithmetic and verifies every claimed identity against independent oracles
(a graph Laplacian solver, naive determinants, and a symbolic pipeline over
rational functions).
"""

from .circuit_array import (CircuitArray, Provenance, array_position,
                            build_array, build_array_direct, closed_form_row,
                            diagonal_sequence, entry_position, row_recursion,
                            verify_closed_forms, verify_composition_spotchecks,
                            verify_row01_recurrences, verify_row_recursions,
                            verify_uniform_center)
from .fields import (RATIONALS, FieldContract, as_fraction, fast_rationals,
                     format_rational, parse_rational)
from .graphs import (WeightedGraph, delta_to_wye, effective_resistance,
                     fibonacci, graph_level_reduce, grid_to_graph, lucas,
                     r_formula_straight, series, straight_2tree,
                     verify_2tree_formula, verify_fib_identities, wye_to_delta)
from .grid import (EdgeRef, Grid, GridError, all_one_grid, corner_distances,
                   determining_edges, determining_triangles, edge_orbit,
                   is_boundary, reflect_edge, restrict_to_determining,
                   rotate_edge, symmetry_complete)
from .polynomial import Polynomial
from .ratfunc import RATFUNCS, RationalFunction, parse_ratfunc
from .reduction import (child_edge, delta, reduce_k, reduce_once,
                        reduce_window, series_merge, triangle_legs, wye)
from .reports import Check, Report
from .sequences import (AsymptoticRow, NumeratorSequence, asymptotics_table,
                        bareiss_determinant, cofactor_determinant,
                        hankel_determinant, hankel_matrix, lhrcc_ruled_out,
                        nprime_sequence, product_approximation, render_4dp,
                        sqrt_pi_approximation, symbolic_diagonal,
                        symbolic_start_grid, verify_denominator_divisibility,
                        verify_determinant_conjecture, verify_monotonicity,
                        verify_symbolic_patterns)

__version__ = "1.0.0"
