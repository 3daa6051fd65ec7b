"""Exact arithmetic for wreath-product symmetric series and the poset
families whose homology characters they encode.

The package has three layers: exact series rings with plethysm (series,
plethysm), wreath-product conjugacy bookkeeping (groups, wreath), and
explicit poset construction with Mobius, homology, and equivariant
characteristic polynomials (posets, dowling).  theorems ties them together
by verifying every identity in the catalogue coefficient by coefficient,
and cli exposes that as a command-line tool.
"""

from .dowling import (FAMILIES, FamilyError, FamilyPoset, build_family,
                      count_family, enumerate_family, family_rank_formula,
                      verify_rank_formulas, zero_mod_atom_key)
from .groups import (ConjugacyClass, FiniteGroup, GroupTableError,
                     class_power, cyclic_group, group_from_table,
                     read_table_text, symmetric_group)
from .plethysm import (arcsinh_series, average_p1, compose, F_coefficient,
                       plethystic_inverse, product_form_inverse, sech_series,
                       tanh_series, uni_analytic, uni_reversion)
from .posets import (Poset, PosetError, atom_order_condition,
                     equivariant_char_poly, fixed_subposet,
                     is_automorphism, lefschetz_top_trace, mobius_via_chains,
                     order_complex_homology, poset_dump_lines)
from .series import (GradedSeries, NotInvertibleError, SeriesError, UniSeries,
                     const, eq_to_degree, exp_of, exp_series, format_series,
                     l_series, log1p_of, mod_filter, moebius_mu, natural_spec,
                     one, p, pow1p_of, series_terms, t_monomial, uni_const,
                     uni_one, uni_pow1p_of, uni_x, uni_zero, zero)
from .theorems import (THEOREM_IDS, THEOREM_SUMMARIES, BudgetError,
                       UsageError, VerificationReport, bn_dimension,
                       bn_dimension_formula, brute_force_side,
                       char_poly_product_formula, closed_form,
                       corollary_checks, dimension_tables,
                       family_dimension_formula, identity_char_poly,
                       lefschetz_two_routes, mobius_dimension, natural_form,
                       sundaram_balance, verify)
from .wreath import (WreathElement, all_wreath_elements, centralizer_order,
                     element_type, enumerate_class_types, frobenius_ch,
                     induced_point_perm, trace_extract, type_degree,
                     type_representative, wreath_identity, wreath_inverse,
                     wreath_product)

__version__ = "0.1.0"
