"""Value semantics of Expr and the result records: frozen, compared and
hashed by their fields, constructed positionally or by keyword, with the
repr text that keys the ladder cache."""

import copy
import hashlib
import pickle
from fractions import Fraction

import pytest

from funcseries.composite import OperatorChain
from funcseries.expr import ADD, CONST, VAR, Expr, const, parse, var
from funcseries.remainder import RemainderEstimate
from funcseries.series import (
    DERIVATIVE_ZERO_TOL,
    MAX_ORDER,
    TERMINATION_TOL,
    ExpansionRequest,
    SeriesExpansion,
    expand,
)
from funcseries.teixeira import MAX_POINTS, ContourSpec, TeixeiraExpansion

Z = var("z")
EXP = parse("exp(z)")
Z_TEXT = "Expr(kind='var', args=(), name='z', value=None)"
EXP_TEXT = f"Expr(kind='call', args=({Z_TEXT},), name='exp', value=None)"


def request():
    return ExpansionRequest(EXP, Z, 0, 2)


def expansion(chain=None):
    return SeriesExpansion(EXP, Z, 0j, 0j, (1 + 0j, 1 + 0j), None, chain)


def contour():
    return ContourSpec(0, 0.5, 16)


def teixeira_result():
    return TeixeiraExpansion(0j, Z, (1 + 0j,), (), contour(), None, 0.5, 0.0)


#: a factory of each record type, and one of its fields
RECORDS = {
    "Expr": (lambda: const(2) + Z, "args"),
    "ExpansionRequest": (request, "z0"),
    "SeriesExpansion": (expansion, "chain"),
    "RemainderEstimate": (lambda: RemainderEstimate(1, 0.25, "measured", 0.1 + 0j), "bound"),
    "ContourSpec": (contour, "points"),
    "TeixeiraExpansion": (teixeira_result, "inner"),
}


@pytest.mark.parametrize("make,field", RECORDS.values(), ids=RECORDS.keys())
class TestFrozen:
    def test_assignment_raises(self, make, field):
        record = make()
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)

    def test_deletion_raises(self, make, field):
        record = make()
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert hasattr(record, field)

    def test_equal_records_hash_alike(self, make, field):
        one, two = make(), make()
        assert one is not two
        assert one == two and not one != two
        assert hash(one) == hash(two)
        assert one != object() and one != ()

    def test_copy_is_equal(self, make, field):
        record = make()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record


class TestEquality:
    def test_expr_compares_every_field(self):
        base = Expr(CONST, value=Fraction(1))
        assert base == Expr(CONST, (), "", Fraction(1))
        assert base != Expr(CONST, value=1.5)
        assert base != Expr(CONST, name="c", value=Fraction(1))
        assert Expr(VAR, name="z") != Expr(VAR, name="w")
        assert Expr(ADD, (Z, base)) != Expr(ADD, (base, Z))

    def test_expr_hash_is_the_field_tuple_hash(self):
        e = const(2) + Z
        assert hash(e) == hash((e.kind, e.args, e.name, e.value))

    def test_equal_values_of_other_types_follow_the_fields(self):
        # 2 == 2.0, so the constants compare and hash alike, as their field tuples do
        assert Expr(CONST, value=Fraction(2)) == Expr(CONST, value=2.0)
        assert hash(Expr(CONST, value=Fraction(2))) == hash(Expr(CONST, value=2.0))

    def test_expansion_ignores_chain(self):
        chain = OperatorChain(EXP, Z)
        assert expansion(chain) == expansion(None)
        assert hash(expansion(chain)) == hash(expansion(None))
        assert expansion() != SeriesExpansion(EXP, Z, 0j, 0j, (1 + 0j,), None, None)

    def test_records_compare_their_fields(self):
        assert request() != ExpansionRequest(EXP, Z, 0, 3)
        assert ContourSpec(0, 0.5, 16) != ContourSpec(0, 0.5, 32)
        assert RemainderEstimate(1, 0.5, "measured", 0j) != \
            RemainderEstimate(1, 0.5, "measured", 0j, samples=64)
        assert teixeira_result() != TeixeiraExpansion(0j, Z, (1 + 0j,), (), contour(),
                                                      contour(), 0.5, 0.0)

    def test_records_of_other_classes_differ(self):
        assert Expr(CONST, value=Fraction(1)) != ("const", (), "", Fraction(1))
        assert request() != expansion()

    def test_records_key_dicts_and_sets(self):
        assert len({contour(), contour(), ContourSpec(0, 0.25, 16)}) == 2
        assert {request(): 1}[request()] == 1


class TestRepr:
    def test_expr(self):
        assert repr(Z) == Z_TEXT
        assert repr(const(2)) == "Expr(kind='const', args=(), name='', value=Fraction(2, 1))"
        assert repr(EXP) == EXP_TEXT

    def test_catalog_ladder_entry(self):
        # entry 3 of 1/(1+z) in sin(z): 4172 characters
        text = repr(OperatorChain(parse("1/(1+z)"), parse("sin(z)")).entry(3))
        assert len(text) == 4172
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "1f870e7b4c0adb38a7c7598508875b9a9df6b7d68a4a8483d1f218a03cded87a"

    def test_request(self):
        assert repr(request()) == (
            f"ExpansionRequest(f={EXP_TEXT}, s={Z_TEXT}, z0=0j, order=2, "
            "termination_tol=1e-10, derivative_zero_tol=1e-12)")

    def test_expansion_leaves_out_chain(self):
        exp = expand(ExpansionRequest(EXP, Z, 0, 2))
        assert repr(exp) == (
            f"SeriesExpansion(f={EXP_TEXT}, s={Z_TEXT}, z0=0j, s0=0j, "
            "coefficients=((1+0j), (1+0j), (0.5+0j)), terminated_at=None)")

    def test_remainder_estimate(self):
        assert repr(RemainderEstimate(1, 0.25, "real-lagrange", 0.1 + 0j, 64)) == (
            "RemainderEstimate(order=1, bound=0.25, kind='real-lagrange', "
            "z=(0.1+0j), samples=64)")

    def test_contour_and_teixeira(self):
        spec = "ContourSpec(center=0j, radius=0.5, points=16)"
        assert repr(contour()) == spec
        assert repr(teixeira_result()) == (
            f"TeixeiraExpansion(zero_point=0j, theta={Z_TEXT}, a_coefficients=((1+0j),), "
            f"b_coefficients=(), outer={spec}, inner=None, outer_theta_min=0.5, "
            "inner_theta_max=0.0)")


class TestConstruction:
    def test_expr_defaults(self):
        e = Expr(CONST)
        assert (e.kind, e.args, e.name, e.value) == (CONST, (), "", None)
        assert Expr(VAR, name="z") == Expr(kind=VAR, args=(), name="z", value=None) == Z

    def test_request_defaults_and_keywords(self):
        req = ExpansionRequest(f=EXP, s=Z, z0=1, order=2)
        assert (req.termination_tol, req.derivative_zero_tol) == \
            (TERMINATION_TOL, DERIVATIVE_ZERO_TOL)
        assert req.z0 == 1 + 0j and type(req.z0) is complex
        assert ExpansionRequest(EXP, Z, 1, 2, 1e-6, 1e-9) == \
            ExpansionRequest(EXP, Z, 1, 2, derivative_zero_tol=1e-9, termination_tol=1e-6)

    def test_expansion_fields(self):
        exp = SeriesExpansion(f=EXP, s=Z, z0=0j, s0=0j, coefficients=(1j,),
                              terminated_at=0, chain=None)
        assert (exp.f, exp.s, exp.coefficients, exp.terminated_at, exp.chain) == \
            (EXP, Z, (1j,), 0, None)
        assert exp.order == 0
        with pytest.raises(TypeError):
            SeriesExpansion(EXP, Z, 0j, 0j, (1j,), None)  # chain is required

    def test_remainder_estimate_defaults(self):
        est = RemainderEstimate(order=2, bound=0.0, kind="measured", z=1j)
        assert est.samples is None
        assert est == RemainderEstimate(2, 0.0, "measured", 1j, None)

    def test_contour_defaults(self):
        spec = ContourSpec(center=1, radius=0.5)
        assert spec.points == 512
        assert spec.center == 1 + 0j and type(spec.center) is complex

    def test_teixeira_keywords(self):
        assert TeixeiraExpansion(
            zero_point=0j, theta=Z, a_coefficients=(1 + 0j,), b_coefficients=(),
            outer=contour(), inner=None, outer_theta_min=0.5, inner_theta_max=0.0,
        ) == teixeira_result()

    def test_missing_or_extra_arguments_raise(self):
        with pytest.raises(TypeError):
            ExpansionRequest(EXP, Z, 0)
        with pytest.raises(TypeError):
            ContourSpec(0, 0.5, 16, 1)
        with pytest.raises(TypeError):
            Expr(CONST, sides=2)


class TestValidation:
    @pytest.mark.parametrize("kwargs,message", [
        ({"order": -1}, "order must be >= 0"),
        ({"order": MAX_ORDER + 1}, f"order must be <= {MAX_ORDER}"),
        ({"termination_tol": 0.0}, "tolerances must be positive and finite"),
        ({"derivative_zero_tol": float("inf")}, "tolerances must be positive and finite"),
        ({"termination_tol": float("nan")}, "tolerances must be positive and finite"),
    ])
    def test_request(self, kwargs, message):
        args = {"f": EXP, "s": Z, "z0": 0, "order": 2, **kwargs}
        with pytest.raises(ValueError, match=message):
            ExpansionRequest(**args)

    def test_request_rejects_a_point_that_is_not_a_number(self):
        with pytest.raises(TypeError):
            ExpansionRequest(EXP, Z, None, 2)

    def test_remainder_estimate(self):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            RemainderEstimate(1, -1e-300, "measured", 0j)

    @pytest.mark.parametrize("radius,points,message", [
        (0.0, 16, "radius must be positive and finite"),
        (float("inf"), 16, "radius must be positive and finite"),
        (0.5, 8, "need at least 16 quadrature points"),
        (0.5, 2 * MAX_POINTS, f"at most {MAX_POINTS} quadrature points"),
        (0.5, 48, "point count must be a power of two"),
    ])
    def test_contour(self, radius, points, message):
        with pytest.raises(ValueError, match=message):
            ContourSpec(0, radius, points)


class TestPickle:
    def test_expr_round_trips(self):
        e = parse("1/(1+z)^2 + 0.5*exp(2*z)")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(e, protocol))
            assert back == e and repr(back) == repr(e) and back is not e

    def test_records_round_trip(self):
        for record in (request(), contour(), teixeira_result(),
                       RemainderEstimate(1, 0.25, "measured", 0j)):
            assert pickle.loads(pickle.dumps(record)) == record
