"""Curve model: Puiseux expansions, differentials, winding vectors, omega tables."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from kleinian import curves
from kleinian.curves import (
    CYCLIC_TRIGONAL_34, HYPERELLIPTIC_G2, LocalExpansion, OmegaAlgTable, WindingData,
    curve_by_family, differentials, kleinian_polar, local_expansion, omega_alg, parse_spec,
    polar_vars, required_expansion_order, winding_vectors,
)
from kleinian.errors import ConfigError, ConventionError, SeriesError, TruncationError
from kleinian.poly import EMPTY_MONOMIAL, MultiPoly, ScaledPoly
from kleinian.rationals import Q
from kleinian.series import LaurentSeries
from kleinian.taucalc import TauModel

from curve_oracle import (RationalExpansion, RationalSeries, defects_below,
                          hand_written_differentials, hand_written_genus2_polar, omega_alg_two_step)

CURVE_SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "curve-specs")
G2 = curve_by_family(HYPERELLIPTIC_G2)
TRIG = curve_by_family(CYCLIC_TRIGONAL_34)


def params(curve):
    return {p.name: MultiPoly.sym(p) for p in curve.parameters}


def doubled_at(series, k):
    """The series with its integer coefficient at xi^k doubled."""
    c = series.coeffs[k]
    doubled = ScaledPoly(c.den, {m: 2 * v for m, v in c.nums.items()})
    return LaurentSeries({**series.coeffs, k: doubled}, series.order)


# -- parsing -----------------------------------------------------------------

def test_parse_families():
    c = parse_spec("family = hyperelliptic_g2\n")
    assert (c.n, c.s, c.genus, c.gap_weights) == (2, 5, 2, (1, 3))
    c = parse_spec("# comment\nfamily = cyclic_trigonal_34\n")
    assert (c.n, c.s, c.genus, c.gap_weights) == (3, 4, 3, (1, 2, 5))


def test_genus_and_gaps_from_n_and_s():
    # the gaps are the integers missing from the semigroup <n, s>
    assert (G2.genus, G2.gap_weights) == (2, (1, 3))
    assert (TRIG.genus, TRIG.gap_weights) == (3, (1, 2, 5))
    assert [(p.name, p.weight) for p in G2.parameters] == [
        ("a4", 2), ("a3", 4), ("a2", 6), ("a1", 8), ("a0", 10)]
    assert [(p.name, p.weight) for p in TRIG.parameters] == [
        ("m3", 3), ("m6", 6), ("m9", 9), ("m12", 12)]


def test_parse_specialization_and_errors():
    c = parse_spec("family = hyperelliptic_g2\nalpha4 = 3/2\na0 = -2\n")
    assert c.parameter_values == {"a4": Q(3, 2), "a0": Q(-2)}
    with pytest.raises(ConfigError):
        parse_spec("family = foo\n")
    with pytest.raises(ConfigError):
        parse_spec("family = hyperelliptic_g2\nmu3 = 1\n")  # wrong family's parameter
    with pytest.raises(ConfigError):
        parse_spec("family = hyperelliptic_g2\nalpha4 = x\n")
    with pytest.raises(ConfigError):
        parse_spec("alpha4 = 1\n")  # no family
    for twice in ("alpha4 = 1\nalpha4 = 2\n", "alpha4 = 1\na4 = 1\n",
                  "family = cyclic_trigonal_34\n"):
        with pytest.raises(ConfigError):
            parse_spec("family = hyperelliptic_g2\n" + twice)


SPEC_KEYS = st.sampled_from(["family", "FAMILY", "alpha4", "a3", "mu1", "lambda2", "m",
                             "a", "x1", ""]) | st.text(max_size=8)
SPEC_VALUES = st.sampled_from(["hyperelliptic_g2", "cyclic_trigonal_34", "3/2", "-1",
                               "1/0", "0", " 7 ", "x", ""]) | st.text(max_size=8)
SPEC_LINES = (st.builds("{} = {}".format, SPEC_KEYS, SPEC_VALUES)
              | st.builds("{}={} # {}".format, SPEC_KEYS, SPEC_VALUES, st.text(max_size=4))
              | st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.text() | st.lists(SPEC_LINES, max_size=6).map("\n".join))
def test_parse_spec_parses_or_raises_config_error(text):
    try:
        curve = parse_spec(text)
    except ConfigError:
        return
    assert curve.family in (HYPERELLIPTIC_G2, CYCLIC_TRIGONAL_34)


# -- Puiseux -----------------------------------------------------------------

def test_puiseux_genus2():
    loc = local_expansion(G2, 14)
    ps = params(G2)
    assert loc.x.coeff(-2) == MultiPoly.one()
    # y = -2 xi^-5 (1 + a4/8 xi^2 + ...)
    assert loc.y.coeff(-5) == MultiPoly.const(-2)
    assert loc.y.coeff(-3) == ps["a4"] * Q(-1, 4)
    assert loc.y.coeff(-4).is_zero()


def test_puiseux_trigonal():
    loc = local_expansion(TRIG, 14)
    ps = params(TRIG)
    assert loc.y.coeff(-4) == MultiPoly.one()
    assert loc.y.coeff(-1) == ps["m3"] * Q(1, 3)
    assert loc.y.coeff(-3).is_zero() and loc.y.coeff(-2).is_zero()


def test_puiseux_monomial_curve_exact():
    c = curve_by_family(HYPERELLIPTIC_G2, {"a%d" % k: 0 for k in range(5)})
    loc = local_expansion(c, 12)
    assert loc.y == LaurentSeries.xi_power(-5, -2, loc.y.order)


def test_puiseux_defect_check_via_compose():
    # substituting x(xi), y(xi) into the curve really is 0 mod xi^order
    assert defects_below(G2, local_expansion(G2, 12), 12) == {}


def test_order_precondition():
    with pytest.raises(TruncationError):
        local_expansion(G2, 5)


G2_SPECIAL = curve_by_family(HYPERELLIPTIC_G2, {"a4": "3/2"})


@pytest.mark.parametrize("curve", [G2, TRIG, G2_SPECIAL], ids=["g2", "trigonal", "g2-a4=3/2"])
def test_y_power_closed_form(curve):
    loc = local_expansion(curve, 16)
    one = LaurentSeries.const(1)
    for b in (1, 2, 3, 5):
        prod = loc.y_power(b) * loc.y_power(-b)
        assert prod.order >= loc.order
        assert prod.truncate(loc.order) == one.truncate(loc.order), b
    # y^n = phi(x) through the expansion order
    phi = LaurentSeries.zero()
    for deg, c in curve.rhs_coeffs().items():
        phi = phi + LaurentSeries.xi_power(-curve.n * deg, c)
    diff = loc.y_power(curve.n) - phi
    assert diff.order >= loc.order
    assert all(k >= loc.order for k in diff.coeffs)


@pytest.mark.parametrize("which", ["lowest", "highest", "every"])
@pytest.mark.parametrize("curve", [G2, TRIG], ids=["g2", "trigonal"])
def test_certificate_rejects_mutated_negative_power(monkeypatch, curve, which):
    # y^(-1) (and y^(-2)) with one coefficient doubled past the lead: still
    # weight-homogeneous and normalized, so only the power's own ODE sees it;
    # doubled throughout, it solves that ODE, and only g_0 = 1 tells it apart
    unit_power = LaurentSeries.unit_power

    def doubled(self, alpha):
        got = unit_power(self, alpha)
        if alpha >= 0:
            return got
        if which == "every":
            return got * 2
        return doubled_at(got, (min if which == "lowest" else max)(e for e in got.coeffs if e))

    monkeypatch.setattr(LaurentSeries, "unit_power", doubled)
    with pytest.raises(ConventionError, match="curve-equation defect"):
        TauModel.build(curve, 8)


def read_spec(name):
    with open(os.path.join(CURVE_SPECS, name + ".curve")) as fh:
        return parse_spec(fh.read())


SPECIALIZED = {name: read_spec(name) for name in ("specialized_example", "specialized_trigonal")}
CERTIFIED_CURVES = [G2, TRIG] + list(SPECIALIZED.values())
CERTIFIED_IDS = ["g2", "trigonal"] + list(SPECIALIZED)


@pytest.mark.parametrize("curve", CERTIFIED_CURVES, ids=CERTIFIED_IDS)
def test_certificate_agrees_with_squaring_oracle(curve):
    # the quadratic evaluation of y^n - phi(x) confirms every certified order
    for order in (curve.n + curve.s, 13, 26, 42):
        loc = local_expansion(curve, order)
        assert defects_below(curve, loc, order) == {}, order


def _last_coefficient_off(curve, order, lead, unit):
    # g = y xi^s / lead one off at index order + ns - 1, the last the
    # certificate reads; y^n - phi(x) then fails at xi^(order - 1)
    class Corrupted(LocalExpansion):
        def y_power(self, b):
            got = super().y_power(b)
            if b != 1:
                return got
            k = order + (curve.n - 1) * curve.s - 1
            coeffs = dict(got.coeffs)
            coeffs[k] = got.coeff(k) + 1
            return LaurentSeries(coeffs, got.order)
    return Corrupted(curve, order, lead, unit)


def _wrong_exponent(curve, order, lead, unit):
    # y = lead xi^(-s) f^(2/n) instead of f^(1/n)
    class Squared(LocalExpansion):
        def y_power(self, b):
            g = self.unit.unit_power(Q(2 * b, curve.n))
            return (g * lead ** b).shift(-curve.s * b)
    return Squared(curve, order, lead, unit)


def _wrong_lead(curve, order, lead, unit):
    return LocalExpansion(curve, order, lead * 3, unit)


def _y_doubled(curve, order, lead, unit):
    # g = 2 f^(1/n) solves the linear ODE too; only g_0 = 1 tells it apart
    class Doubled(LocalExpansion):
        def y_power(self, b):
            got = super().y_power(b)
            return got * 2 if b == 1 else got
    return Doubled(curve, order, lead, unit)


@pytest.mark.parametrize("mutation", [_last_coefficient_off, _wrong_exponent, _wrong_lead,
                                      _y_doubled])
@pytest.mark.parametrize("curve", [G2, TRIG], ids=["g2", "trigonal"])
def test_certificate_rejects_mutated_expansion(monkeypatch, curve, mutation):
    order = 20
    built = []

    def build(*args):
        built.append(mutation(*args))
        return built[-1]

    monkeypatch.setattr(curves, "LocalExpansion", build)
    with pytest.raises(ConventionError, match="curve-equation defect"):
        local_expansion(curve, order)
    # each mutation is a real defect: the oracle sees y^n != phi(x) below xi^order
    assert defects_below(curve, built[0], order)


def test_defect_check_fires_on_corrupted_recurrence_input(monkeypatch):
    honest = curves._unit_part

    def corrupted(curve, order):
        # f_4 + 1, in the integer numerators over f_4's denominator
        unit = honest(curve, order)
        c = unit.coeffs[4]
        nums = dict(c.nums)
        nums[EMPTY_MONOMIAL] = nums.get(EMPTY_MONOMIAL, 0) + c.den
        unit.coeffs[4] = ScaledPoly(c.den, nums)
        return unit

    monkeypatch.setattr(curves, "_unit_part", corrupted)
    with pytest.raises(ConventionError, match="curve-equation defect"):
        local_expansion(G2, 14)


def test_expansion_adds_and_multiplies_no_rational_polynomial(monkeypatch):
    # the certified expansion (_certify), every y-power with its own check
    # (_check_power) and the normalized differentials run on integer
    # numerators; the same counter sees the rational oracle's arithmetic
    calls = []

    def counted(name, method):
        return lambda *args: calls.append(name) or method(*args)

    for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(MultiPoly, name, counted(name, getattr(MultiPoly, name)))
    for curve in CERTIFIED_CURVES:
        loc = local_expansion(curve, 30)
        for b in range(-3, 4):
            loc.y_power(b)
        differentials(curve, loc)
    assert calls == []
    defects_below(G2, local_expansion(G2, 14), 14)
    assert calls


def test_du2_integral_has_hyperelliptic_parity():
    # the integral of du_2 has zero coefficients at even powers of xi, so
    # du_2 itself has zero coefficients at odd powers
    loc = local_expansion(G2, 16)
    du2 = differentials(G2, loc)[1]
    assert du2.order > 10
    for k in range(1, du2.order, 2):
        assert du2.coeff(k).is_zero(), k


# -- differentials / winding --------------------------------------------------

def test_differentials_leading_terms():
    loc = local_expansion(G2, 16)
    du = differentials(G2, loc)
    assert du[0].valuation() == 0 and du[0].coeff(0) == MultiPoly.one()
    assert du[1].valuation() == 2 and du[1].coeff(2) == MultiPoly.one()

    loct = local_expansion(TRIG, 16)
    dut = differentials(TRIG, loct)
    assert [d.valuation() for d in dut] == [0, 1, 4]
    for d, w in zip(dut, TRIG.gap_weights):
        assert d.coeff(w - 1) == MultiPoly.one()


@pytest.mark.parametrize("curve", CERTIFIED_CURVES, ids=CERTIFIED_IDS)
def test_differentials_match_hand_written_oracle(curve):
    # x^a y^b dx / f_y from (n, s), scaled once, equals the hand-written
    # series products coefficient for coefficient, at the same orders
    loc = local_expansion(curve, 30)
    got = [RationalSeries.of(d) for d in differentials(curve, loc)]
    assert got == hand_written_differentials(curve, RationalExpansion(loc))


def test_winding_gap_structure_and_parity():
    R = winding_vectors(G2, 12)
    for i, w in enumerate(G2.gap_weights, start=1):
        assert R.entry(w, i) == MultiPoly.one()
        for k in range(1, w):
            assert R.entry(k, i).is_zero()
    # hyperelliptic parity: entries vanish at even k
    for k in range(2, 13, 2):
        assert R.entry(k, 1).is_zero() and R.entry(k, 2).is_zero()
    # density normalization: (R_3)_1 = -a4/8, (R_3)_2 = 1
    ps = params(G2)
    assert R.entry(3, 1) == ps["a4"] * Q(-1, 8)
    assert R.entry(3, 2) == MultiPoly.one()


def test_winding_trigonal_cyclic_pattern():
    R = winding_vectors(TRIG, 12)
    for k in range(1, 13):
        for i, w in enumerate(TRIG.gap_weights, start=1):
            if (k - w) % 3 != 0:
                assert R.entry(k, i).is_zero()


# -- Kleinian polar ------------------------------------------------------------

def test_polar_genus2_diagonal_identity():
    # F(x,x) + 2y^2 = 2y^2 + 2y^2 -> polar(x,y,x,y) = (2y)^2 on the curve
    polar = kleinian_polar(G2)
    xs, ys, zs, ws = polar_vars(2, 5)
    diag = polar.substitute({zs: MultiPoly.sym(xs), ws: MultiPoly.sym(ys)})
    ps = params(G2)
    phi = MultiPoly.sym(xs, 5, 4)
    for k in range(5):
        phi = phi + ps["a%d" % k] * MultiPoly.sym(xs, k) if k else phi + ps["a0"]
    y2 = MultiPoly.sym(ys, 2)
    # diag - 4 y^2 should vanish modulo y^2 = phi(x): diag = 2*phi + 2*y^2
    assert diag - y2 * 2 == phi * 2


@pytest.mark.parametrize("curve", [G2, SPECIALIZED["specialized_example"]],
                         ids=["g2", "specialized_example"])
def test_polar_genus2_is_bakers_closed_form(curve):
    assert kleinian_polar(curve) == hand_written_genus2_polar(curve)


def test_polar_trigonal_diagonal_identity():
    polar = kleinian_polar(TRIG)
    xs, ys, zs, ws = polar_vars(3, 4)
    diag = polar.substitute({zs: MultiPoly.sym(xs), ws: MultiPoly.sym(ys)})
    ps = params(TRIG)
    phi = MultiPoly.sym(xs, 4)
    for j, name in ((3, "m3"), (2, "m6"), (1, "m9")):
        phi = phi + ps[name] * MultiPoly.sym(xs, j)
    phi = phi + ps["m12"]
    # diag = 3 y^4 + 2*3*phi*y = 9 y^4 on the curve (y^3 = phi)
    assert diag == MultiPoly.sym(ys, 4, 3) + MultiPoly.sym(ys, 1) * phi * 6


def test_polar_weight_homogeneous():
    assert kleinian_polar(G2).is_homogeneous(10)
    assert kleinian_polar(TRIG).is_homogeneous(16)


# -- omega tables ---------------------------------------------------------------

@pytest.mark.parametrize("curve, size", [(c, size) for c in CERTIFIED_CURVES for size in (4, 13)]
                         + [(G2, 17)],
                         ids=["%s-%d" % (name, size) for name in CERTIFIED_IDS for size in (4, 13)]
                         + ["g2-17"])
def test_omega_alg_matches_two_step_oracle(curve, size):
    # one grouped integer pass and one division by (xi^n - eta^n)^2 give the
    # entries of the bi-series divided by P^2 and then by (xi - eta)^2
    loc = local_expansion(curve, required_expansion_order(curve, size))
    assert (omega_alg(curve, size, loc).entries
            == omega_alg_two_step(curve, size, RationalExpansion(loc)).entries)


def _power_corrupted(curve, b, index):
    """An expansion whose y^b has its coefficient at lead + index doubled
    (every coefficient when index is None); nothing certifies it."""
    good = local_expansion(curve, required_expansion_order(curve, 8))

    class Corrupted(LocalExpansion):
        def y_power(self, e):
            got = super().y_power(e)
            if e != b:
                return got
            if index is None:
                return got * 2
            return doubled_at(got, got.valuation() + index)
    return Corrupted(curve, good.order, good.lead, good.unit)


@pytest.mark.parametrize("curve, b, index, error, match", [
    (G2, -1, None, ConventionError, "double-pole normalization"),
    (TRIG, -2, None, ConventionError, "double-pole normalization"),
    (G2, -1, 2, SeriesError, "left remainder"),
    (TRIG, -1, 3, SeriesError, "left remainder"),
], ids=["g2-kernel", "trigonal-kernel", "g2-remainder", "trigonal-remainder"])
def test_omega_alg_rejects_corrupted_power(curve, b, index, error, match):
    # a wrong y-power breaks the double pole: either the degree-(2n-2) part
    # is no longer the kernel's P^2, or (xi^n - eta^n)^2 leaves a remainder
    with pytest.raises(error, match=match):
        omega_alg(curve, 8, _power_corrupted(curve, b, index))


def test_omega_alg_genus2_printed_values():
    tbl = omega_alg(G2, 4)
    ps = params(G2)
    assert tbl.entry(0, 0) == ps["a4"] * Q(-1, 8)
    assert tbl.entry(0, 1).is_zero() and tbl.entry(1, 0).is_zero()
    assert tbl.entry(1, 1).is_zero()
    expected02 = (ps["a3"] * 16 - ps["a4"] * ps["a4"] * 3) * Q(-1, 128)
    assert tbl.entry(0, 2) == expected02
    assert tbl.entry(2, 0) == expected02


def test_omega_alg_trigonal_printed_values():
    tbl = omega_alg(TRIG, 6)
    ps = params(TRIG)
    assert tbl.entry(0, 0).is_zero()
    assert tbl.entry(0, 1) == ps["m3"] * Q(-2, 3)
    assert tbl.entry(1, 0) == ps["m3"] * Q(-2, 3)
    assert tbl.entry(0, 4) == ps["m6"] * Q(-2, 3) + ps["m3"] * ps["m3"] * Q(5, 9)
    assert tbl.entry(1, 3) == ps["m6"] * Q(-2, 3) + ps["m3"] * ps["m3"] * Q(4, 9)
    assert tbl.entry(2, 2).is_zero()


@pytest.mark.parametrize("curve, key, value", [
    (G2, (1, 1), MultiPoly.sym(G2.parameters[0], 2)),  # a4^2: weight 4, odd index
    (SPECIALIZED["specialized_trigonal"], (0, 0), MultiPoly.one()),  # 3 does not divide 2
    (TRIG, (2, 2), params(TRIG)["m6"]),  # q_33: weight 6, time index divisible by 3
], ids=["g2-odd-index", "specialized-trigonal-mod-3", "trig-q33"])
def test_omega_table_rejects_entry_that_should_vanish(curve, key, value):
    with pytest.raises(ConventionError, match="should vanish"):
        OmegaAlgTable(curve, 4, {key: value})


def test_winding_table_rejects_entry_that_should_vanish():
    # R_2 of the genus-2 curve: time index divisible by n = 2
    rows = [list(row) for row in winding_vectors(G2, 4).vectors]
    rows[1][0] = params(G2)["a4"]
    with pytest.raises(ConventionError, match=r"\(R_2\)_1 should vanish"):
        WindingData(G2, tuple(map(tuple, rows)))


def test_omega_alg_monomial_curve_vanishes_at_low_order():
    c = curve_by_family(HYPERELLIPTIC_G2, {"a%d" % k: 0 for k in range(5)})
    tbl = omega_alg(c, 4)
    assert not tbl.entries


def test_omega_alg_family_patterns_12x12():
    # construction already validates symmetry/weights/vanishing; spot check size
    tbl = omega_alg(G2, 12)
    assert tbl.entry(11, 11).is_homogeneous(24) or tbl.entry(11, 11).is_zero()
    tblt = omega_alg(TRIG, 12)
    for (k, l) in tblt.entries:
        assert (k + l) % 3 == 1
