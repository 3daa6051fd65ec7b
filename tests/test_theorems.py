"""Identity catalogue: closed-form oracles, brute-force agreement, reports."""

from collections import OrderedDict
from fractions import Fraction

import pytest

from conftest import (dihedral_8, oracle_bn_closed, oracle_one_mod_d,
                      oracle_whitney_1modd, quaternion_8, relabeled)
from wreathcalc import theorems
from wreathcalc.dowling import build_family
from wreathcalc.groups import cyclic_group, group_from_table, symmetric_group
from wreathcalc.plethysm import (average_p1, compose, exp_compose,
                                 sech_series, tanh_series, uni_analytic)
from wreathcalc.series import (SeriesError, eq_to_degree, exp_series,
                               l_series, natural_spec, one, p, uni_x, zero)
from wreathcalc.theorems import (BudgetError, THEOREM_IDS, UsageError,
                                 bn_dimension, bn_dimension_formula,
                                 brute_force_side, char_poly_product_formula,
                                 closed_form, corollary_checks,
                                 dimension_tables, family_dimension_formula,
                                 identity_char_poly, lefschetz_two_routes,
                                 mobius_dimension, natural_form,
                                 sundaram_balance, verify, _acted_poset)
from wreathcalc.wreath import (enumerate_class_types, trace_extract,
                               type_representative)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
C3 = cyclic_group(3)
S3 = symmetric_group(3)


def theorem_cases(G_default):
    """(theorem, group, d) for every theorem, on the group it is stated over."""
    for th in THEOREM_IDS:
        G = {"stanley": C1, "bn_whitney": C2, "dn_series": C2}.get(
            th, G_default)
        for d in ((2, 3) if th in theorems._NEEDS_D else (None,)):
            yield th, G, d


# ---------------------------------------------------------------------------
# closed-form low-degree oracles


def test_hanlon_closed_over_trivial_group_is_geometric():
    f = closed_form("hanlon", C1, 6)
    x = p(C1, 6, 1, 0)
    expect = one(C1, 6)
    powx = one(C1, 6)
    for k in range(1, 7):
        powx = powx * x
        expect = expect + powx.scale((-1) ** k)
    assert f == expect


def test_second_closed_over_trivial_group_is_minus_p1():
    f = closed_form("second", C1, 6)
    assert f == p(C1, 6, 1, 0).scale(-1)


def test_third_closed_degree_one_vanishes():
    f = closed_form("third", C2, 4)
    assert f.homogeneous_part(1).is_zero()
    assert f.homogeneous_part(0) == one(C2, 4).homogeneous_part(0)


def test_one_mod_two_closed_matches_sech_tanh_route():
    # independent assembly through the even/odd quotient series
    from wreathcalc.plethysm import arcsinh_series
    N = 6
    f = closed_form("one_mod_d", C2, N, 2)
    B = arcsinh_series(C1, N)
    alt = compose(sech_series(C2, N) - tanh_series(C2, N), B)
    assert f == alt


def test_zero_mod_two_closed_over_trivial_group_is_minus_tanh():
    f = closed_form("zero_mod_d", C1, 7, 2)
    assert natural_spec(f) == -uni_analytic("tanh", 7)


def test_whitney_qsim_degree_one_is_the_average_variable():
    f = closed_form("whitney_Qsim", C2, 3)
    assert f.homogeneous_part(1).truncate(1) == average_p1(C2, 1)


def test_whitney_zero_mod_constant_term_collapses_to_one():
    f = closed_form("whitney_0modd", C2, 3, 2)
    assert f.homogeneous_part(0).truncate(0) == one(C2, 0)


def test_bn_closed_low_degrees():
    f = closed_form("bn_whitney", C2, 2)
    assert f.homogeneous_part(0).truncate(0) == one(C2, 0)
    assert f.homogeneous_part(1).truncate(1) == average_p1(C2, 1)


def test_dn_closed_degree_two_is_plain_exponential_slice():
    # the (1 + t e_2) factor exactly fills the t-graded hole at degree two
    f = closed_form("dn_series", C2, 2)
    assert f.homogeneous_part(2).truncate(2) == \
        exp_series(C2, 2).homogeneous_part(2)


def test_mod_closed_forms_match_the_dense_composition_oracles():
    groups = ((C1, 7), (C2, 7), (C3, 6), (S3, 5),
              (relabeled(S3, [3, 5, 0, 1, 4, 2]), 4),
              (relabeled(C3, [2, 0, 1]), 5))
    for G, N in groups:
        for d in (2, 3):
            assert closed_form("one_mod_d", G, N, d) == \
                oracle_one_mod_d(G, N, d), (G.names, N, d)
            assert closed_form("whitney_1modd", G, N, d) == \
                oracle_whitney_1modd(G, N, d), (G.names, N, d)
    for N in range(8):
        bn = oracle_bn_closed(C2, N)
        assert closed_form("bn_whitney", C2, N) == bn
        deg2 = exp_series(C2, N).homogeneous_part(2).scale_t(1)
        assert closed_form("dn_series", C2, N) == (one(C2, N) + deg2) * bn


def test_closed_forms_apply_no_dense_series_by_generic_plethysm(monkeypatch):
    # the group exponential enters only through exp_compose; a direct
    # compose call may only apply a trivial-group series
    dense = []

    def watch(f, g):
        if f.group.order > 1:
            dense.append(f.group.order)
        return compose(f, g)

    monkeypatch.setattr(theorems, "compose", watch)
    for th, G, d in theorem_cases(S3):
        closed_form(th, G, 6, d)
    assert dense == []


def test_degree_zero_is_the_truncation_of_higher_degrees():
    for G_default in (C2, S3):
        for th, G, d in theorem_cases(G_default):
            assert verify(th, G, 0, d).ok, (th, G.order, d)
            assert closed_form(th, G, 0, d) == \
                closed_form(th, G, 3, d).truncate(0), (th, G.order, d)


def test_product_form_closed_equals_inverse_route():
    assert closed_form("product_form_F", C2, 5) == closed_form("hanlon", C2, 5)


def test_derivative_link_between_stanley_and_hanlon():
    # over the trivial group the full-family closed form is the p_1
    # derivative of one plus the partition-lattice closed form
    N = 7
    lhs = (one(C1, N) + l_series(C1, N)).p_derivative(1)
    assert lhs == closed_form("hanlon", C1, N).truncate(N - 1)


def test_stanley_character_integrality():
    # (-1)^(n-1) times the degree-n slice has integer traces on all types
    f = l_series(C1, 6)
    for n in range(1, 7):
        for tau in enumerate_class_types(C1, n):
            val = trace_extract(f, C1, tau) * (-1) ** (n - 1)
            assert val.denominator == 1


# ---------------------------------------------------------------------------
# brute-force sides


def test_brute_stanley_degree_one_is_p1():
    assert brute_force_side("stanley", C1, 1) == p(C1, 1, 1, 0)


def test_brute_hanlon_degree_one_is_minus_average():
    assert brute_force_side("hanlon", C2, 1) == average_p1(C2, 1).scale(-1)


def test_brute_third_degree_one_is_zero():
    assert brute_force_side("third", C2, 1).is_zero()


def test_brute_whitney_qsim_degree_one_is_average():
    # the one-element poset at n=1 carries exactly the stray linear term
    assert brute_force_side("whitney_Qsim", C2, 1) == average_p1(C2, 1)


def test_brute_dn_has_no_model_beyond_degree_two():
    assert brute_force_side("dn_series", C2, 3) is None
    assert brute_force_side("dn_series", C2, 2) == \
        exp_series(C2, 2).homogeneous_part(2)


def test_brute_degree_zero_constants():
    assert brute_force_side("hanlon", C2, 0) == one(C2, 0)
    assert brute_force_side("second", C2, 0) == zero(C2, 0)


# ---------------------------------------------------------------------------
# verification reports


def test_verify_hanlon_small():
    rep = verify("hanlon", C2, 3)
    assert rep.ok
    assert [r.status for r in rep.degrees] == ["ok"] * 4
    assert rep.natural_status == "ok"


def test_verify_all_poset_theorems_smoke():
    cases = [
        ("stanley", C1, 3, None),
        ("second", C2, 3, None),
        ("third", C2, 3, None),
        ("one_mod_d", C2, 3, 2),
        ("zero_mod_d", C2, 3, 2),
        ("whitney_hanlon", C2, 3, None),
        ("whitney_R", C2, 3, None),
        ("whitney_Qsim", C2, 3, None),
        ("whitney_1modd", C2, 3, 2),
        ("whitney_0modd", C2, 3, 2),
        ("bn_whitney", C2, 3, None),
        ("product_form_F", C2, 3, None),
        ("fibre_corollary", C2, 3, None),
        ("qsim_corollary", C2, 3, None),
    ]
    for theorem, G, n, d in cases:
        rep = verify(theorem, G, n, d)
        assert rep.ok, (theorem, rep.to_dict())
        assert not any(r.status == "mismatch" for r in rep.degrees)


def test_verify_builds_the_product_form_side_once(monkeypatch):
    calls = []

    def watch(G, N, g):
        calls.append(N)
        return exp_compose(G, N, g)

    monkeypatch.setattr(theorems, "exp_compose", watch)
    assert verify("product_form_F", C2, 6).ok
    assert calls == [6]


@pytest.mark.parametrize("theorem, families", [
    ("fibre_corollary", {"q": range(1, 5), "r": range(1, 5)}),
    ("qsim_corollary", {"qsim": range(2, 5), "q": range(1, 5)}),
])
def test_verify_reaches_each_corollary_poset_once(monkeypatch, theorem,
                                                  families):
    seen = []

    def watch(family, G, n, d, force=False):
        seen.append((family, n))
        return _acted_poset(family, G, n, d, force)

    monkeypatch.setattr(theorems, "_acted_poset", watch)
    assert verify(theorem, C2, 4, force=True).ok
    assert sorted(seen) == sorted((f, n) for f, ns in families.items()
                                  for n in ns)


@pytest.mark.parametrize("make_group", [dihedral_8, quaternion_8])
def test_verify_over_order_eight_groups(make_group):
    G = make_group()
    for theorem in ("hanlon", "second", "third", "whitney_hanlon"):
        rep = verify(theorem, G, 3, force=True)
        assert rep.ok, (theorem, rep.to_dict())


def test_verify_dn_reports_skipped_degrees():
    rep = verify("dn_series", C2, 4)
    assert rep.ok
    statuses = {r.degree: r.status for r in rep.degrees}
    assert statuses[2] == "ok"
    assert statuses[3] == "skipped"
    assert statuses[4] == "skipped"
    assert rep.natural_status == "ok"


def test_verify_report_dict_shape():
    rep = verify("hanlon", C1, 2, group_label="c1")
    data = rep.to_dict()
    assert data["theorem"] == "hanlon"
    assert data["group"] == "c1"
    assert data["ok"] is True
    assert [d["degree"] for d in data["degrees"]] == [0, 1, 2]
    assert data["natural"]["status"] == "ok"


def test_verify_mismatch_is_reported_with_coefficients():
    # force a mismatch by comparing a deliberately damaged closed form
    from wreathcalc.theorems import _first_difference
    a = one(C2, 2) + p(C2, 2, 1, 0)
    b = one(C2, 2) + p(C2, 2, 1, 0).scale(Fraction(1, 2))
    diff = _first_difference(a, b)
    assert diff["closed"] == "1" and diff["brute"] == "1/2"
    assert diff["monomial"] == [[1, 0, 1]]
    # t denominators 1 and 2: the first difference is read in units of 1/2
    half = one(C2, 2, 2) + p(C2, 2, 1, 0, 2).scale_t(1, 2)
    assert _first_difference(a, half) == {
        "monomial": [[1, 0, 1]], "t": "0/2", "closed": "1", "brute": "0"}
    assert _first_difference(half, a) == {
        "monomial": [[1, 0, 1]], "t": "0/2", "closed": "0", "brute": "1"}


def test_verify_reports_a_damaged_closed_side_at_t_den_two(monkeypatch):
    real = theorems.closed_form

    def damaged(theorem, G, N, d=None):
        # p_2(0) t^(2/2) goes from -1/4 to 1/4
        return real(theorem, G, N, d) + p(G, N, 2, 0).scale(
            Fraction(1, 2)).scale_t(1)

    monkeypatch.setattr(theorems, "closed_form", damaged)
    rep = verify("whitney_1modd", C2, 2, d=2)
    assert [r.status for r in rep.degrees] == ["ok", "ok", "mismatch"]
    assert rep.degrees[2].mismatch == {
        "monomial": [[2, 0, 1]], "t": "2/2", "closed": "1/4",
        "brute": "-1/4"}
    assert rep.ok is False


def test_verify_reports_a_natural_form_that_differs_at_one_t_value(
        monkeypatch):
    real = theorems.natural_form

    def damaged(theorem, G, N, d=None, t_value=None):
        form = real(theorem, G, N, d, t_value)
        return form + uni_x(N) if t_value == 2 else form

    monkeypatch.setattr(theorems, "natural_form", damaged)
    rep = verify("whitney_hanlon", C2, 2)
    assert all(r.status == "ok" for r in rep.degrees)
    assert rep.natural_status == "mismatch"
    assert rep.natural_note == "differs at t-value 2"
    assert rep.ok is False


def test_verify_rejects_bad_arguments():
    with pytest.raises(UsageError):
        verify("no_such_theorem", C2, 2)
    with pytest.raises(UsageError):
        verify("stanley", C2, 2)
    with pytest.raises(UsageError):
        verify("bn_whitney", C1, 2)
    with pytest.raises(UsageError):
        verify("one_mod_d", C2, 2, d=1)
    with pytest.raises(UsageError):
        verify("hanlon", C2, 3, N=2)


def test_verify_budget_guards():
    with pytest.raises(BudgetError):
        verify("hanlon", C2, 5)
    with pytest.raises(BudgetError):
        verify("hanlon", cyclic_group(7), 2)
    rep = verify("hanlon", C1, 5, force=True)
    assert rep.ok


def test_natural_form_availability():
    assert natural_form("one_mod_d", C2, 4, 3) is None
    assert natural_form("fibre_corollary", C2, 4) is None
    assert natural_form("stanley", C1, 5) == uni_analytic("log1p", 5)


def test_natural_form_refuses_a_t_value_that_is_not_rational():
    for bad in (0.1, 0.5, "2"):
        with pytest.raises(SeriesError):
            natural_form("whitney_hanlon", C2, 3, t_value=bad)
    assert (natural_form("whitney_hanlon", C2, 3, t_value=2)
            == natural_form("whitney_hanlon", C2, 3, t_value=Fraction(2)))
    assert (natural_form("whitney_hanlon", C2, 3)
            == natural_form("whitney_hanlon", C2, 3, t_value=1))


def test_natural_form_checks_t_value_before_an_early_return():
    # an ungraded id and a modular id at d = 3 never read t_value
    with pytest.raises(SeriesError):
        natural_form("hanlon", C2, 3, t_value=0.5)
    with pytest.raises(SeriesError):
        natural_form("whitney_1modd", C2, 3, 3, t_value=0.5)
    assert natural_form("whitney_1modd", C2, 3, 3, t_value=2) is None


def test_natural_form_refuses_t_value_zero_where_it_divides_by_it():
    for th, G, d in theorem_cases(C2):
        if theorems._STATEMENTS[th].graded and d != 3:
            with pytest.raises(SeriesError):
                natural_form(th, G, 3, d, t_value=0)
        else:   # ungraded ids, and d = 3, ignore t_value
            assert (natural_form(th, G, 3, d, t_value=0)
                    == natural_form(th, G, 3, d))


def test_one_variable_series_live_over_the_trivial_group():
    import wreathcalc as wc
    N = 4
    x = wc.uni_x(N)
    made = [wc.UniSeries(N, 2, {(1, 1): 1}), wc.uni_zero(N), wc.uni_one(N),
            wc.uni_const(N, 3), x, wc.uni_analytic("tanh", N),
            wc.uni_pow1p_of(x, Fraction(1, 2)), wc.uni_reversion(x.scale(2)),
            natural_spec(exp_series(symmetric_group(3), N)),
            natural_form("whitney_hanlon", C2, N, t_value=2)]
    for f in made:
        assert isinstance(f, wc.GradedSeries) and f.group.order == 1


def test_corollary_checks_both_pass():
    out = corollary_checks(C2, 3)
    assert set(out) == {"fibre_corollary", "qsim_corollary"}
    assert all(rep.ok for rep in out.values())


# ---------------------------------------------------------------------------
# dimensions and characteristic polynomials


def test_dimension_formulas_low_values():
    assert family_dimension_formula("q", 2, 3) == 3 * 5
    assert family_dimension_formula("r", 2, 3) == 1 * 3
    assert family_dimension_formula("qsim", 2, 4) == 3 * 1 * 3 * 5
    assert family_dimension_formula("qsim", 2, 1) is None
    assert [bn_dimension_formula(n) for n in (2, 3, 4, 5)] == [1, 6, 21, 240]


def test_mobius_dimension_against_formulas():
    rows = dimension_tables([("c1", C1), ("c2", C2)], 4)
    assert rows and all(row["ok"] for row in rows)
    assert mobius_dimension("q", C3, 5) == 4 * 7 * 10 * 13


def test_bn_dimension_both_parities():
    assert bn_dimension(2) == 1
    assert bn_dimension(3) == 6
    assert bn_dimension(4) == 21
    assert bn_dimension(5) == 240


def test_identity_char_poly_products():
    got = identity_char_poly("q", C2, 3)
    # (1 - t)(1 - 3t)(1 - 5t)
    assert got == {0: 1, 1: -9, 2: 23, 3: -15}
    assert got == char_poly_product_formula("q", 2, 3)
    # restricted family keeps a Mobius correction in top degree
    assert char_poly_product_formula("r", 2, 2) == {0: 1, 1: -2, 2: 1}
    assert identity_char_poly("r", C2, 2) == {0: 1, 1: -2, 2: 1}
    for n in range(1, 5):
        assert identity_char_poly("r", C2, n) == \
            char_poly_product_formula("r", 2, n)
    with pytest.raises(UsageError):
        char_poly_product_formula("qsim", 2, 3)


# ---------------------------------------------------------------------------
# per-automorphism oracles


def test_sundaram_balance_holds_everywhere_small():
    for family, G, n, d in (("q", C2, 3, None), ("r", C2, 3, None),
                            ("q1modd", C2, 4, 2), ("q0modd", C1, 4, 2)):
        assert sundaram_balance(family, G, n, d) == []


def test_sundaram_balance_needs_two_elements():
    with pytest.raises(UsageError):
        sundaram_balance("qsim", C1, 1)


def test_lefschetz_routes_agree_on_family_posets():
    P, act = _acted_poset("q", C2, 2, None)
    for tau in enumerate_class_types(C2, 2):
        w = type_representative(C2, tau)
        a, b = lefschetz_two_routes(P, act(w))
        assert a == b


def test_poset_cache_is_bounded():
    theorems._poset_cache.clear()
    for family in ("q", "r", "qsim"):
        for G in (C1, C2, C3):
            for n in range(1, 4):
                _acted_poset(family, G, n, None)
                assert len(theorems._poset_cache) <= \
                    theorems._POSET_CACHE_SIZE
    assert len(theorems._poset_cache) == theorems._POSET_CACHE_SIZE


def test_poset_cache_keys_by_table():
    theorems._poset_cache.clear()
    first = cyclic_group(2)
    twin = group_from_table(first.table)
    assert twin is not first
    P, _act = _acted_poset("q", first, 3, None)
    Q, _act = _acted_poset("q", twin, 3, None)
    assert Q is P
    assert len(theorems._poset_cache) == 1


def test_poset_cache_ignores_d_for_families_without_one():
    theorems._poset_cache.clear()
    for d in (None, 3, 2):
        identity_char_poly("q", C2, 3, d)
    assert len(theorems._poset_cache) == 1
    posets = [_acted_poset("q", C2, 3, d)[0] for d in (None, 3, 2)]
    assert posets[1] is posets[0] and posets[2] is posets[0]
    assert len(theorems._poset_cache) == 1


def test_bn_reuses_the_q1modd_posets(monkeypatch):
    built = []

    def watch(family, G, n, d=None, validate=False):
        built.append((family, n, d))
        return build_family(family, G, n, d, validate)

    monkeypatch.setattr(theorems, "build_family", watch)
    monkeypatch.setattr(theorems, "_poset_cache", OrderedDict())
    assert verify("whitney_1modd", C2, 6, d=2, force=True).ok
    assert verify("bn_whitney", C2, 6, force=True).ok
    assert built == [("q1modd", n, 2) for n in range(1, 7)]
    assert len(theorems._poset_cache) == 6


def test_theorem_id_catalogue_is_complete():
    assert len(THEOREM_IDS) == 16
    assert len(set(THEOREM_IDS)) == 16


def test_verify_symmetric_group_spot_check():
    S3 = symmetric_group(3)
    rep = verify("hanlon", S3, 2)
    assert rep.ok


# ---------------------------------------------------------------------------
# the catalogue's public face: ids, summaries, usage errors, d


PINNED_IDS = (
    "stanley", "hanlon", "second", "third", "one_mod_d", "zero_mod_d",
    "fibre_corollary", "qsim_corollary", "whitney_hanlon", "whitney_R",
    "whitney_Qsim", "whitney_1modd", "whitney_0modd", "bn_whitney",
    "dn_series", "product_form_F",
)

PINNED_SUMMARIES = {
    "stanley": "alternating partition-lattice homology sum equals the "
               "logarithmic inverse series",
    "hanlon": "alternating full-family homology sum equals the plethystic "
              "inverse of the group exponential",
    "second": "alternating restricted-family homology sum equals one minus "
              "the composed group exponential",
    "third": "alternating simple-family homology sum carries an extra "
             "linear factor",
    "one_mod_d": "blocks congruent to one mod d: alternating homology sum "
                 "in closed plethystic form",
    "zero_mod_d": "blocks congruent to zero mod d: alternating homology sum "
                  "in closed plethystic form",
    "fibre_corollary": "product of the full and restricted alternating sums "
                       "telescopes to one",
    "qsim_corollary": "simple-family sum factors through the full-family sum",
    "whitney_hanlon": "t-graded Whitney characters of the full family in "
                      "closed form",
    "whitney_R": "t-graded Whitney characters of the restricted family",
    "whitney_Qsim": "t-graded Whitney characters of the simple family",
    "whitney_1modd": "t-graded Whitney characters, blocks one mod d",
    "whitney_0modd": "t-graded Whitney characters, blocks zero mod d",
    "bn_whitney": "t-graded Whitney characters of the signed-partition "
                  "family for the order-two group",
    "dn_series": "series variant of the signed-partition identity with a "
                 "degree-two correction factor",
    "product_form_F": "the inverse of the composed group exponential as an "
                      "explicit infinite product",
}

# every entry point that takes a theorem id, at a small degree
ENTRY_POINTS = {
    "closed_form": lambda th, G, d: closed_form(th, G, 2, d),
    "brute_force_side": lambda th, G, d: brute_force_side(th, G, 1, d),
    "natural_form": lambda th, G, d: natural_form(th, G, 2, d),
    "verify": lambda th, G, d: verify(th, G, 1, d),
}


def test_theorem_ids_and_summaries_are_pinned_in_order():
    assert THEOREM_IDS == PINNED_IDS
    assert list(theorems.THEOREM_SUMMARIES.items()) == \
        [(th, PINNED_SUMMARIES[th]) for th in PINNED_IDS]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("theorem, G, d, message", [
    ("nope", C2, None,
     "unknown theorem 'nope'; expected one of " + ", ".join(PINNED_IDS)),
    ("stanley", C2, None, "stanley is stated over the trivial group"),
    ("bn_whitney", C1, None, "bn_whitney is stated over the order-two group"),
    ("bn_whitney", C3, None, "bn_whitney is stated over the order-two group"),
    ("dn_series", C1, None, "dn_series is stated over the order-two group"),
    ("dn_series", C3, None, "dn_series is stated over the order-two group"),
    ("one_mod_d", C2, 1, "d must be at least two"),
    ("whitney_0modd", C2, 1, "d must be at least two"),
])
def test_usage_errors_are_pinned(entry, theorem, G, d, message):
    with pytest.raises(UsageError) as info:
        ENTRY_POINTS[entry](theorem, G, d)
    assert str(info.value) == message


def test_only_the_modular_families_take_d():
    modular = ("one_mod_d", "zero_mod_d", "whitney_1modd", "whitney_0modd")
    for th, G, _d in theorem_cases(C2):
        assert verify(th, G, 0).d == (2 if th in modular else None)
        assert verify(th, G, 0, d=3).d == (3 if th in modular else None)
