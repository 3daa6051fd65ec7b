"""The package's public names, pinned so that no refactor drops one."""

from types import ModuleType

import wreathcalc

PUBLIC_NAMES = [
    "BudgetError", "ConjugacyClass", "FAMILIES", "F_coefficient",
    "FamilyError", "FamilyPoset", "FiniteGroup", "GradedSeries",
    "GroupTableError", "NotInvertibleError", "Poset", "PosetError",
    "SeriesError", "THEOREM_IDS", "THEOREM_SUMMARIES", "UniSeries",
    "UsageError", "VerificationReport", "WreathElement",
    "all_wreath_elements", "arcsinh_series", "atom_order_condition",
    "average_p1", "bn_dimension", "bn_dimension_formula", "brute_force_side",
    "build_family", "centralizer_order", "char_poly_product_formula",
    "class_power", "closed_form", "compose", "const", "corollary_checks",
    "count_family", "cyclic_group", "dimension_tables", "element_type",
    "enumerate_class_types", "enumerate_family", "eq_to_degree",
    "equivariant_char_poly", "exp_of", "exp_series",
    "family_dimension_formula", "family_rank_formula", "fixed_subposet",
    "format_series", "frobenius_ch", "group_from_table", "identity_char_poly",
    "induced_point_perm", "is_automorphism", "l_series",
    "lefschetz_top_trace", "lefschetz_two_routes", "log1p_of",
    "mobius_dimension", "mobius_via_chains", "mod_filter", "moebius_mu",
    "natural_form", "natural_spec", "one", "order_complex_homology", "p",
    "plethystic_inverse", "poset_dump_lines", "pow1p_of",
    "product_form_inverse", "read_table_text", "sech_series", "series_terms",
    "sundaram_balance", "symmetric_group", "t_monomial", "tanh_series",
    "trace_extract", "type_degree", "type_representative", "uni_analytic",
    "uni_const", "uni_one", "uni_pow1p_of", "uni_reversion", "uni_x",
    "uni_zero", "verify", "verify_rank_formulas", "wreath_identity",
    "wreath_inverse", "wreath_product", "zero", "zero_mod_atom_key",
]


def test_public_names_are_pinned():
    # submodules appear as attributes once imported, in any test order
    names = sorted(n for n in dir(wreathcalc) if not n.startswith("_")
                   and not isinstance(getattr(wreathcalc, n), ModuleType))
    assert names == sorted(PUBLIC_NAMES)
