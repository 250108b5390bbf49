"""Expression tree: parsing, printing, differentiation, simplification, evaluation."""

import cmath
import hashlib
import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import funcseries.expr as expr_module
from funcseries import CATALOG
from funcseries.composite import OperatorChain
from funcseries.errors import (
    FuncSeriesError,
    MultipleVariables,
    ParseError,
    SingularEvaluation,
    UnknownFunction,
)
from funcseries.expr import (
    ADD,
    CALL,
    CONST,
    DIVIDE,
    MULTIPLY,
    NEGATE,
    POWER,
    Expr,
    add,
    call,
    const,
    differentiate,
    divide,
    evaluate,
    evaluate_many,
    format_expr,
    multiply,
    negate,
    parse,
    simplify,
    substitute,
    var,
    variables,
)
from funcseries.remainder import lagrange_bound
from funcseries.series import ExpansionRequest, expand

Z = var("z")
HALF = Expr(POWER, (Z, const(Fraction(1, 2))))

#: expressions exercised by the round-trip / derivative / simplify grids
CORPUS = [
    "1/(1+z)",
    "sin(z)^3",
    "2^(-z)",
    "exp(2*z)",
    "1/(1-2^(1-z))",
    "8^(-z)",
    "1/(z-2)^2",
    "1/(z-2)",
    "sin(z)",
    "cos(z)*exp(z) - z^3/6",
    "sqrt(1+z)",
    "log(1+z)",
    "tan(z/4)",
    "sinh(z)*cosh(z)",
    "z^2 - 3*z + 7/6",
    "exp(z)/(2 - sin(z))",
]

#: points where a given corpus expression is singular (kept off sample grids)
RNG = np.random.default_rng(20240817)


def nested(depth):
    """z + 1 + ... + 1 as depth ADD nodes, each nested in the next."""
    e = Z
    for _ in range(depth):
        e = Expr(ADD, (e, const(1)))
    return e


#: deeper than the interpreter stack reaches in any recursive walk of the tree
TOO_DEEP = 2000


def sample_points(n=16, radius=0.9):
    pts = RNG.uniform(-radius, radius, size=(n, 2))
    return [complex(a, b) for a, b in pts]


def finite_difference(e, z, h=1e-6):
    """Central-difference derivative, the independent check for differentiate."""
    return (evaluate(e, z + h) - evaluate(e, z - h)) / (2 * h)


class TestParse:
    def test_rational_maps_to_divide(self):
        e = parse("1/(1+z)")
        assert e.kind == DIVIDE
        assert e.args[0] == const(1)
        assert e.args[1].kind == ADD
        assert e.args[1].args == (const(1), Z)

    def test_power_binds_tighter_than_call_argument(self):
        e = parse("sin(z)^3")
        assert e.kind == POWER
        assert e.args[0].kind == CALL and e.args[0].name == "sin"
        assert e.args[1] == const(3)

    def test_negated_exponent(self):
        e = parse("2^(-z)")
        assert e.kind == POWER
        assert e.args[0] == const(2)
        assert e.args[1].kind == NEGATE
        assert e.args[1].args[0] == Z

    def test_unary_minus_binds_tighter_than_multiply(self):
        e = parse("-2*z")
        assert e.kind == MULTIPLY
        assert e.args[0] == const(-2)

    def test_power_is_right_associative(self):
        e = parse("z^2^3")
        assert e.kind == POWER
        assert e.args[1].kind == POWER

    def test_fraction_literal_folds_exactly(self):
        e = parse("7/6")
        assert e.kind == CONST
        assert e.value.numerator == 7 and e.value.denominator == 6

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("1 + @")
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("arcsin(z)")

    def test_multiple_variables_rejected(self):
        with pytest.raises(MultipleVariables):
            parse("z + w")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("1 + 2)")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("   ")

    @pytest.mark.parametrize("build,error,message", [
        (lambda: parse("(z"), ParseError, "expected ')'"),
        (lambda: parse("zz"), ParseError, "unknown name 'zz'"),
        (lambda: const(True), TypeError, "bool is not a numeric constant"),
        (lambda: var("zz"), ValueError, "variable must be a single letter, got 'zz'"),
        (lambda: call("erf", var("z")), ValueError, "unsupported function 'erf'"),
    ], ids=["unclosed-paren", "two-letter-name", "bool-const", "two-letter-var", "erf-call"])
    def test_rejected_input_names_the_fault(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()


class TestEvaluate:
    def test_rational_at_origin(self):
        assert evaluate(parse("1/(1+z)"), 0) == 1

    def test_exponential_decay(self):
        assert evaluate(parse("2^(-z)"), 1) == pytest.approx(0.5, abs=1e-15)

    def test_pole_raises(self):
        with pytest.raises(SingularEvaluation):
            evaluate(parse("1/(1+z)"), -1)

    def test_log_principal_branch(self):
        got = evaluate(parse("log(z)"), -1 + 1e-9j)
        assert got.imag == pytest.approx(math.pi, abs=1e-6)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Z, complex(float("nan"), 0))

    def test_integer_power_of_zero(self):
        assert evaluate(parse("z^3"), 0) == 0
        with pytest.raises(SingularEvaluation):
            evaluate(parse("z^(-1)"), 0)

    def test_constant_beyond_double_range_is_singular(self):
        with pytest.raises(SingularEvaluation, match="floating-point range"):
            evaluate(parse("z*1" + "0" * 400), 0.5)


class TestDeepTrees:
    """A tree nested past the interpreter stack is a FuncSeriesError (exit 1),
    never a bare RecursionError."""

    def test_evaluate(self):
        with pytest.raises(FuncSeriesError, match="^expression nested too deeply to evaluate$"):
            evaluate(nested(TOO_DEEP), 0.5)

    def test_differentiate(self):
        with pytest.raises(FuncSeriesError,
                           match="^expression nested too deeply to differentiate$"):
            differentiate(nested(TOO_DEEP))

    def test_expand(self):
        for f, s in [(nested(TOO_DEEP), Z), (Z, nested(TOO_DEEP))]:
            with pytest.raises(FuncSeriesError, match="^expression nested too deeply to expand$"):
                expand(ExpansionRequest(f, s, 0.5, 2))

    def test_substitute(self):
        with pytest.raises(FuncSeriesError, match="^expression nested too deeply to substitute$"):
            substitute(nested(TOO_DEEP), "z", const(2))

    def test_evaluate_many(self):
        with pytest.raises(FuncSeriesError, match="^expression nested too deeply to evaluate$"):
            evaluate_many(nested(TOO_DEEP), [0.5, 0.25])

    def test_operator_chain(self):
        with pytest.raises(FuncSeriesError,
                           match="^expression nested too deeply to differentiate$"):
            OperatorChain(nested(TOO_DEEP), parse("sin(z)")).entry(1)

    def test_moderate_depth_still_works(self):
        e = nested(200)
        assert evaluate(e, 0.5) == 200.5
        assert simplify(differentiate(e)) == const(1)
        assert expand(ExpansionRequest(e, Z, 0.5, 2)).coefficients == (200.5, 1, 0)


class TestDifferentiate:
    def test_square(self):
        d = simplify(differentiate(parse("z^2")))
        assert d == simplify(parse("2*z"))

    def test_sin(self):
        assert simplify(differentiate(parse("sin(z)"))) == parse("cos(z)")

    def test_shared_subtree_has_one_shared_derivative(self):
        x = parse("sin(z)^2")
        d = differentiate(add(x, x))
        assert d.kind == ADD and d.args[0] is d.args[1]
        assert simplify(d) == simplify(parse("4*sin(z)*cos(z)"))

    def test_exponential_base_two(self):
        # d 2^(-z) / dz = -ln(2) * 2^(-z); checked by central differences
        d = differentiate(parse("2^(-z)"))
        z = 0.3
        got = evaluate(d, z)
        want = finite_difference(parse("2^(-z)"), z)
        assert abs(got - want) <= 1e-8 * abs(want)
        assert got == pytest.approx(-math.log(2) * 2 ** (-z), rel=1e-12)

    @pytest.mark.parametrize("text", CORPUS)
    def test_matches_finite_differences_on_corpus(self, text):
        e = parse(text)
        checked = 0
        for z in sample_points(24, radius=0.45):
            try:
                want = finite_difference(e, z)
                got = evaluate(differentiate(e), z)
            except SingularEvaluation:
                continue
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), text
            checked += 1
            if checked == 8:
                break
        assert checked == 8


class TestSimplify:
    def test_additive_identity(self):
        assert simplify(Z + 0) == Z

    def test_multiplicative_identity(self):
        assert simplify(const(1) * (Z * 1)) == Z

    def test_structural_quotient(self):
        assert simplify(parse("sin(z)/sin(z)")) == const(1)

    def test_zero_factor(self):
        assert simplify(const(0) * parse("exp(z)")) == const(0)

    def test_repeated_factors_collect(self):
        assert simplify(Z * Z) == simplify(parse("z^2"))

    @pytest.mark.parametrize("fold,text", [
        (simplify, "2^1100*z + 0.5*z"),
        (format_expr, "z*(2^1100)*0.5"),
    ])
    def test_exact_constant_beyond_double_range_meeting_a_float_is_singular(
            self, fold, text):
        with pytest.raises(SingularEvaluation, match="floating-point range"):
            fold(parse(text))

    @pytest.mark.parametrize("e,folded", [
        # one input per builder that folds a constant: the sum's constant,
        # the product's coefficient with and without factors, the constant
        # quotient, and the power, whose complex fold gives nan without raising
        (parse("1e308 + 1e308 + z"), "inf"),
        (parse("1e308*10*z"), "inf"),
        (parse("1e308*10"), "inf"),
        (parse("1e308/1e-10"), "inf"),
        (Expr(POWER, (const(1e200 + 1e200j), const(2))), r"\(nan\+nanj\)"),
        # the same checks reached through the other builders
        (parse("1e308*z + 1e308*z"), "inf"),
        (parse("1/z + 1e308 + 1e308"), "inf"),
        (parse("2/(1e-310*z) + 1/z^2"), "inf"),
        (parse("(2/(1e-310*z))/z"), "inf"),
        # a float coefficient folds on past an exact zero factor: inf * 0
        (parse("1e308*10*0*z"), "nan"),
        # and past an exact zero before it: 0.0 * 2^1200 converts 2^1200
        (multiply(const(0), parse("0.5*z"), parse("2^1200*z")),
         "integer division result too large for a float"),
    ], ids=["sum", "coefficient", "coefficient-alone", "quotient", "power",
            "like-terms", "sum-of-quotients", "term-quotient", "nested-quotient",
            "zero-after-overflow", "zero-before-float"])
    def test_constant_folded_beyond_double_range_is_singular(self, e, folded):
        with pytest.raises(SingularEvaluation,
                           match=f"^constant out of floating-point range: {folded}$"):
            simplify(e)

    @pytest.mark.parametrize("text,want", [
        # like terms whose factors repeat, which a set of factors cannot key
        ("z^(1/2)*z^(1/2) + z^(1/2)*z^(1/2)", Expr(MULTIPLY, (const(2), HALF, HALF))),
        ("z^(1/2)*z^(1/2)*z^(1/3) - z^(1/3)*z^(1/2)*z^(1/2)", const(0)),
        # an integral float exponent merges as an exact integer
        ("z^2.0*z", Expr(POWER, (Z, const(3)))),
        # a float unit coefficient becomes a sign, as an exact one does
        ("-1.0*z", Expr(NEGATE, (Z,))),
        ("(-1)*(-1.0)*z", Z),
        # an exact zero factor before the overflowing float product
        ("0*1e308*10*z", const(0)),
    ], ids=["repeated-factor-like-terms", "repeated-factors-cancel", "float-exponent-merges",
            "float-minus-one", "float-plus-one", "zero-before-overflow"])
    def test_rewrites_to_the_recorded_tree(self, text, want):
        assert repr(simplify(parse(text))) == repr(want)

    @pytest.mark.parametrize("text", ["(1/3)^(10^6)", "(1/3)^(10^8)", "1.5^100000"])
    def test_oversized_constant_power_stays_a_power(self, text):
        s = simplify(parse(text))
        assert s.kind == POWER and s.args[0].kind == CONST

    def test_idempotent_on_corpus(self):
        for text in CORPUS:
            once = simplify(parse(text))
            assert simplify(once) == once, text

    def test_idempotent_on_derivatives(self):
        for text in CORPUS:
            once = simplify(differentiate(parse(text)))
            assert simplify(once) == once, text

    @pytest.mark.parametrize("text", CORPUS)
    def test_value_preserving(self, text):
        e = parse(text)
        s = simplify(e)
        for z in sample_points(16, radius=0.4):
            try:
                want = evaluate(e, z)
            except SingularEvaluation:
                continue
            got = evaluate(s, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), text


class TestHashAndSharedConstants:
    def test_two_and_two_point_zero_are_one_key_with_two_reprs(self):
        exact, real = const(2), const(2.0)
        assert hash(exact) == hash(real) and exact == real
        assert {exact: "first"}[real] == "first"
        assert len({exact, real, const(Fraction(2))}) == 1
        assert repr(exact) != repr(real)
        assert repr(const(0.0)) != repr(const(-0.0))

    def test_small_integers_share_one_node(self):
        assert const(3) is const(3) is const(Fraction(3))
        assert const(-64) is const(-64) and const(64) is const(64)
        assert const(65) is not const(65) and const(65) == const(65)
        assert const(3.0) is not const(3) and isinstance(const(3.0).value, float)
        assert const(Fraction(1, 2)) is not const(Fraction(1, 2))

    def test_merge_keeps_first_seen_order_and_never_starts_at_a_real_power(self):
        # _rebuild_product merges bases through a dict: a power with a
        # non-integer exponent joins an earlier entry of its whole power
        # but never starts one, as the pairwise scan it replaced did
        cases = {
            "2^(-z)*(2^(-z))^2": "2^(-z)*(2^(-z))^2",
            "(2^(-z))^2*2^(-z)": "(2^(-z))^3",
            "z*z^(1/2)*z": "z^2*z^(1/2)",
            "z^(1/2)*z*z^(1/2)*z^2": "z^(1/2)*z^3*z^(1/2)",
        }
        for text, want in cases.items():
            assert format_expr(simplify(parse(text))) == want, text


class TestSimplifyMemo:
    """simplify memoizes within one call only: calls in other threads,
    on the same trees, give what one thread gives."""

    @staticmethod
    def ladder_steps():
        # the next ladder entry of four catalog pairs, seeded as
        # OperatorChain.entry seeds it, and once more without seeds
        steps = []
        for _, f_text, s_text, _ in CATALOG[:4]:
            chain = OperatorChain(parse(f_text), parse(s_text))
            prev = chain.entry(7)
            step = divide(differentiate(prev, chain.letter), chain.sprime)
            steps += [(step, (prev, chain.sprime)), (step, ())]
        return steps

    def test_concurrent_calls_match_a_sequential_run(self):
        steps = self.ladder_steps()
        want = [repr(simplify(e, simplified=known)) for e, known in steps]
        got: dict[int, list[str]] = {}

        def run(i):
            e, known = steps[i]
            got[i] = []
            for _ in range(3):
                got[i].append(repr(simplify(e, simplified=known)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(steps))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: [w] * 3 for i, w in enumerate(want)}


class TestUnchangedNodesKept:
    """simplify keeps a factor or term that no other one met as the same
    object, unless its rebuild would print or repr differently: a power
    with a float exponent, a negation, or a non-Fraction coefficient is
    rebuilt, as before."""

    def test_power_and_term_are_kept_as_the_same_object(self):
        # seeded as already simplified, as a ladder step seeds its entry
        square, term = simplify(parse("sin(z)^2")), simplify(parse("3*z*cos(z)"))
        product = simplify(Expr(MULTIPLY, (square, Z)), simplified=(square,))
        assert product.args[0] is square
        assert simplify(Expr(ADD, (term, Z)), simplified=(term,)).args[0] is term

    def test_integral_float_exponent_is_rebuilt_as_a_fraction(self):
        s = simplify(parse("sin(z)^2.0*cos(z)"))
        assert format_expr(s) == "sin(z)^2*cos(z)"
        assert s.args[0].args[1].value.__class__ is Fraction
        assert s.args[0].args[1].value == 2

    def test_negated_term_is_rebuilt_without_its_double_minus(self):
        assert format_expr(simplify(parse("-(-3*sin(z)) + cos(z)"))) == "3*sin(z) + cos(z)"

    def test_complex_coefficient_is_rebuilt_with_a_positive_zero(self):
        # -3 * z * 1.5j has the coefficient (-0-4.5j); its rebuild multiplies
        # it by an exact 1, which turns the real part into +0.0
        e = Expr(ADD, (Expr(MULTIPLY, (const(-3), Z, const(1.5j))), call("sin", Z)))
        assert repr(simplify(e).args[0].args[0].value) == "-4.5j"

    def test_ladder_allocates_few_nodes(self, monkeypatch):
        # building rational-in-sine entries 0-10 constructed 42352 nodes (42360
        # with parsing the pair) when simplify rebuilt every factor and term,
        # 15648 with this rule, and 10236 once a quotient's numerator is
        # collected as terms and only its surviving terms become nodes; the
        # bound is about 1.1 times that
        count = [0]
        init = Expr.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        chain = OperatorChain(parse("1/(1+z)"), parse("sin(z)"))
        monkeypatch.setattr(Expr, "__init__", counted)
        chain.entry(10)
        assert count[0] <= 11300


class TestOperators:
    #: each Expr operator, with a number on either side, beside the tree
    #: its constructor builds
    CASES = {
        "2 + z": (lambda: 2 + Z, lambda: add(const(2), Z)),
        "2 - z": (lambda: 2 - Z, lambda: add(const(2), negate(Z))),
        "2 * z": (lambda: 2 * Z, lambda: multiply(const(2), Z)),
        "z / 2": (lambda: Z / 2, lambda: divide(Z, const(2))),
        "2 / z": (lambda: 2 / Z, lambda: divide(const(2), Z)),
        "-z": (lambda: -Z, lambda: negate(Z)),
        "const(7) / 6": (lambda: const(7) / 6, lambda: const(Fraction(7, 6))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_operator_builds_the_constructor_tree(self, case):
        built, want = (make() for make in self.CASES[case])
        # repr, not ==: equality merges 2 with 2.0
        assert repr(built) == repr(want)


class TestFormat:
    @pytest.mark.parametrize("text", ["1/(1+z)", "sin(z)^3", "2^(-z)"])
    def test_round_trip_is_simplified_tree(self, text):
        e = parse(text)
        assert parse(format_expr(e)) == simplify(e)

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip_structural_on_corpus(self, text):
        e = parse(text)
        assert parse(format_expr(e)) == simplify(e)

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip_values_on_corpus(self, text):
        e = parse(text)
        back = parse(format_expr(e))
        for z in sample_points(16, radius=0.4):
            try:
                want = evaluate(e, z)
            except SingularEvaluation:
                continue
            got = evaluate(back, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), text

    def test_real_complex_constant_prints_as_a_float(self):
        assert format_expr(Expr(CONST, value=2 + 0j)) == "2.0"

    def test_round_trip_after_differentiation(self):
        for text in CORPUS:
            d = differentiate(parse(text))
            assert parse(format_expr(d)) == simplify(d), text


class TestSubstitute:
    def test_variable_replacement(self):
        k = parse("s^2")
        s_of_z = parse("exp(z)")
        composed = substitute(k, "s", s_of_z)
        assert variables(composed) == {"z"}
        assert evaluate(composed, 0.5) == pytest.approx(math.e, rel=1e-12)

    def test_untouched_when_letter_absent(self):
        e = parse("sin(z)")
        assert substitute(e, "w", const(3)) == e


class TestRandomizedTrees:
    """Seeded structural fuzzing of simplify / format / evaluate."""

    FUNCS = ["exp", "log", "sin", "cos", "tan", "sinh", "cosh", "sqrt"]

    @classmethod
    def random_tree(cls, rng, depth):
        if depth == 0:
            leaves = [Z, Z, const(int(rng.integers(-3, 4))),
                      const(float(rng.choice([0.5, 1.5, -0.25]))),
                      const(int(rng.integers(1, 5)))]
            return leaves[rng.integers(len(leaves))]
        kind = rng.integers(6)
        child = lambda: cls.random_tree(rng, depth - 1)
        if kind == 0:
            return Expr(ADD, tuple(child() for _ in range(int(rng.integers(2, 4)))))
        if kind == 1:
            return Expr(NEGATE, (child(),))
        if kind == 2:
            return Expr(MULTIPLY, tuple(child() for _ in range(int(rng.integers(2, 4)))))
        if kind == 3:
            return Expr(DIVIDE, (child(), child()))
        if kind == 4:
            return Expr(POWER, (child(), const(int(rng.integers(-3, 4)))))
        return Expr(CALL, (child(),), name=cls.FUNCS[rng.integers(len(cls.FUNCS))])

    #: sha256 of repr(simplify(e)) and repr(simplify(differentiate(e))),
    #: one line each, for 1000 trees drawn with seed 20261018
    SIMPLIFIED_DIGEST = "c397cd288ff25cd53e66399da8391221245e82971bd1139c49fca84562f2ba54"

    def test_simplified_trees_match_recorded_digest(self):
        rng = np.random.default_rng(20261018)
        digest = hashlib.sha256()
        for _ in range(1000):
            e = self.random_tree(rng, int(rng.integers(2, 6)))
            digest.update(repr(simplify(e)).encode() + b"\n")
            digest.update(repr(simplify(differentiate(e))).encode() + b"\n")
        assert digest.hexdigest() == self.SIMPLIFIED_DIGEST

    def test_simplify_format_evaluate_hold_up(self):
        rng = np.random.default_rng(98765)
        points = [0.3 + 0.1j, -0.2 + 0.4j, 0.7 - 0.3j]
        for trial in range(300):
            e = self.random_tree(rng, int(rng.integers(2, 6)))
            s = simplify(e)
            assert simplify(s) == s, trial
            try:
                text = format_expr(e)
            except ValueError:
                continue  # complex constant with no literal form
            assert parse(text) == s, (trial, text)
            for z in points:
                try:
                    want = evaluate(e, z)
                    got = evaluate(s, z)
                except SingularEvaluation:
                    continue
                if abs(want) < 1e6:
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (trial, text)


class TestRecordedDerivatives:
    """differentiate, simplify and format_expr pinned bit for bit on seeded
    trees that share subtrees, and on seeded ladders of the benchmark's
    families."""

    FUNCS = TestRandomizedTrees.FUNCS
    LEAVES = [Z, Z, const(2), const(-3), const(Fraction(2, 3)), const(0.5), const(-0.0),
              const(1.5j)]

    #: (f, s) templates of the ladder families; {a} and {b} are drawn
    FAMILIES = [
        ("1/({a}+z)", "sin(z)"), ("1/(1-{a}^(1-z))", "{a}^(-z)"), ("{a}^(-z)", "{b}^(-z)"),
        ("1/({a}+z)", "exp(z)"), ("exp({a}*z)", "exp(z)"), ("exp({a}*z)", "sin(z)"),
        ("cos({a}*z)", "sinh(z)"), ("1/(z-{a})^2", "1/(z-{a})"), ("exp({a}*z)", "z+{b}*z^2"),
    ]

    #: sha256 of the outcomes, one line each, for 500 depth-4 trees drawn
    #: with seed 20261020 (differentiate(e), simplify of it, the simplified
    #: derivative of that, and format_expr(e)), then entries 0-8 of two
    #: drawn pairs per family
    DIGEST = "ebaae7caf75b83032ae52e5847956978920e227894687c76eb77ef5b1299e1fb"

    @classmethod
    def tree(cls, rng, depth, pool):
        """A tree over every node kind, all 8 functions and variable
        exponents; about a third of its inner nodes reuse one from pool."""
        if depth == 0:
            return cls.LEAVES[rng.integers(len(cls.LEAVES))]
        if pool and rng.random() < 0.3:
            return pool[rng.integers(len(pool))]
        child = lambda: cls.tree(rng, depth - 1, pool)
        kind = rng.integers(7)
        if kind == 0:
            e = Expr(ADD, tuple(child() for _ in range(int(rng.integers(2, 4)))))
        elif kind == 1:
            e = Expr(NEGATE, (child(),))
        elif kind == 2:
            e = Expr(MULTIPLY, tuple(child() for _ in range(int(rng.integers(2, 4)))))
        elif kind == 3:
            e = Expr(DIVIDE, (child(), child()))
        elif kind == 4:
            exponents = [const(int(rng.integers(-3, 4))), const(Fraction(1, 2)), const(1.5),
                         child()]
            e = Expr(POWER, (child(), exponents[rng.integers(4)]))
        else:
            e = Expr(CALL, (child(),), name=cls.FUNCS[rng.integers(len(cls.FUNCS))])
        pool.append(e)
        return e

    @staticmethod
    def param(rng):
        d = int(rng.integers(1, 6))
        v = Fraction(int(rng.integers(2 * d, 9 * d + 1)), d)
        return str(v.numerator) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"

    def test_derivatives_match_recorded_digest(self):
        rng = np.random.default_rng(20261020)
        outcomes = []
        for _ in range(500):
            e = self.tree(rng, 4, [])
            d = differentiate(e)
            once = _outcome(simplify, d)
            outcomes += [repr(d), str(once)]
            if not isinstance(once, tuple):
                outcomes.append(str(_outcome(lambda: simplify(differentiate(simplify(d))))))
            outcomes.append(str(_outcome(format_expr, e)))
        for f_text, s_text in self.FAMILIES:
            for _ in range(2):
                p = {"a": self.param(rng), "b": self.param(rng)}
                chain = OperatorChain(parse(f_text.format(**p)), parse(s_text.format(**p)))
                outcomes += [str(_outcome(chain.entry, n)) for n in range(9)]
        assert sum(o.startswith("(") for o in outcomes) > 100  # the failing paths run too
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST

    #: sha256 of entries 0-14, one line each, of the 7 CATALOG pairs, then
    #: of one pair per family drawn with seed 20261021
    DEEP_DIGEST = "9350867068752101d054a03d7e09d1f746ee8017c47f3b8f08022ba2edfb816f"

    def test_deep_ladder_entries_match_recorded_digest(self):
        # the benchmark's ladders run to entry 14; DIGEST stops at entry 8
        pairs = [(f_text, s_text) for _, f_text, s_text, _ in CATALOG]
        rng = np.random.default_rng(20261021)
        for f_text, s_text in self.FAMILIES:
            p = {"a": self.param(rng), "b": self.param(rng)}
            pairs.append((f_text.format(**p), s_text.format(**p)))
        outcomes = []
        for f_text, s_text in pairs:
            chain = OperatorChain(parse(f_text), parse(s_text))
            outcomes += [str(_outcome(chain.entry, n)) for n in range(15)]
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DEEP_DIGEST

    #: constants of the quotients below: signed zeros, complex and exact
    #: non-integer values, and zero coefficients; one quotient in five also
    #: draws 2**1200, which no float can hold
    QUOTIENT_LEAVES = [const(2), const(-3), const(Fraction(2, 3)), const(-1), const(2),
                       const(Fraction(-5, 7)), const(0.5), const(-0.0), const(1.5j),
                       const(-1.5j), const(0)]

    @classmethod
    def quotient(cls, rng):
        """divide(num, den) shaped like a ladder step: num is N'*D - N*D'-like,
        sums of products that hold sums, negated sums and powers; den is a
        product of integer powers of sums and calls.  Bases come from a small
        pool, so they repeat."""
        pick = lambda seq: seq[rng.integers(len(seq))]
        leaves = cls.QUOTIENT_LEAVES + [const(2 ** 1200)] * (rng.random() < 0.2)
        shift = const(Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12))))
        bases = [Z, call("sin", Z), call("cos", Z), Expr(ADD, (Z, shift)),
                 Expr(ADD, (const(1), call("sin", Z))), call("exp", Expr(ADD, (Z, shift)))]

        def factor(depth):
            roll = rng.integers(8)
            if roll < 3 or depth == 0:
                b = pick(bases)
                k = pick([1, 1, 2, 3, 7, -1, -2, Fraction(1, 2), 1.5, 2.0])
                return b if k == 1 else Expr(POWER, (b, const(k)))
            if roll == 3:
                return pick(leaves)
            if roll == 4:
                return Expr(NEGATE, (total(depth - 1),))
            if roll == 5:
                return Expr(DIVIDE, (term(depth - 1), Expr(POWER, (pick(bases), const(2)))))
            return total(depth - 1)

        def term(depth):
            parts = [factor(depth) for _ in range(int(rng.integers(1, 4)))]
            if rng.random() < 0.6:
                parts.insert(0, pick(leaves))
            t = Expr(MULTIPLY, tuple(parts)) if len(parts) > 1 else parts[0]
            return Expr(NEGATE, (t,)) if rng.random() < 0.3 else t

        def total(depth):
            return Expr(ADD, tuple(term(depth) for _ in range(int(rng.integers(2, 4)))))

        num = total(2)
        den = Expr(MULTIPLY, tuple(Expr(POWER, (pick(bases[1:]), const(int(rng.integers(1, 5)))))
                                   for _ in range(int(rng.integers(1, 4)))))
        if rng.random() < 0.3:  # the ladder's /s' around a /D^2
            num, den = divide(num, den), Expr(ADD, (call("cos", Z), pick(leaves)))
        return divide(num, den)

    #: sha256 of the outcomes, one line each, of simplify(q) for 220
    #: quotients drawn with seed 20261022, each followed by that of q rebuilt
    #: from its simplified numerator and denominator, passed as simplified
    QUOTIENT_DIGEST = "929743c08def9e75768c91fb0c2882e6fbeb1e5aa3ca053a254de7686a7f5ae6"

    def test_quotients_match_recorded_digest(self):
        rng = np.random.default_rng(20261022)
        outcomes = []
        for _ in range(220):
            q = self.quotient(rng)
            outcomes.append(str(_outcome(simplify, q)))
            try:
                parts = tuple(simplify(a) for a in q.args)
            except (FuncSeriesError, ArithmeticError):
                continue
            outcomes.append(str(_outcome(simplify, Expr(DIVIDE, parts), parts)))
        assert sum(o.startswith("(") for o in outcomes) > 10  # the failing paths run too
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.QUOTIENT_DIGEST


def _outcome(fn, *args):
    """repr of the value (signed zeros included), or the exception raised."""
    try:
        return repr(fn(*args))
    except (FuncSeriesError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestEvaluator:
    """evaluate_many against per-point evaluate, bit for bit."""

    #: 0, both sides of the log/sqrt cut on the negative reals, integer
    #: points where random trees put poles, a generic point, and a point
    #: small enough for products to fall under the division floor
    POINTS = [0.0, -2.0, complex(-2.0, -0.0), 1.0, -1.0, 2.0,
              0.5 + 0.25j, 1e-200j]

    def assert_same(self, e, points):
        # every point alone, then all at once: the values, or what the
        # first failing point raises
        for z in points:
            assert _outcome(evaluate_many, e, [z]) == _outcome(
                lambda: [evaluate(e, z)]), (e, z)
        assert _outcome(evaluate_many, e, points) == _outcome(
            lambda: [evaluate(e, z) for z in points]), e

    def test_random_trees_match_evaluate(self):
        rng = np.random.default_rng(20261019)
        raised = 0
        for _ in range(1000):
            e = TestRandomizedTrees.random_tree(rng, int(rng.integers(2, 6)))
            self.assert_same(e, self.POINTS)
            raised += isinstance(_outcome(evaluate, e, 0.0), tuple)
        assert raised > 50  # the failing paths are exercised too

    @pytest.mark.parametrize("label,f_text,s_text,z0", CATALOG)
    def test_catalog_ladder_entries_match_evaluate(self, label, f_text, s_text, z0):
        chain = OperatorChain(parse(f_text), parse(s_text))
        points = [z0, 0.3, -0.4 + 0.2j, -1.0, 2.0, -2.0]
        for n in range(7):
            self.assert_same(chain.entry(n), points)

    @pytest.mark.parametrize("text", CORPUS + [
        "z^(1/2)", "(z-1)^(z/2)", "z^2.0", "(-z)^(1/3)", "z^(z^0.5)", "0*z^(-2)"])
    def test_corpus_and_real_powers_match_evaluate(self, text):
        # random trees only raise to integer powers; these put the base of
        # a real power on the branch cut, with either sign of zero
        e = parse(text)
        self.assert_same(e, self.POINTS)
        self.assert_same(differentiate(e), self.POINTS)

    def test_point_and_constant_checks_match_evaluate(self):
        # a constant beyond double range raises when evaluated, not when
        # compiled; a non-finite point is rejected before any node runs
        huge = parse("z*1" + "0" * 400)
        assert _outcome(evaluate_many, huge, [0.5])[0] is SingularEvaluation
        self.assert_same(huge, [0.5])
        self.assert_same(parse("z^1" + "0" * 400), [1.0, 0.0])  # never evaluated
        self.assert_same(parse("1/(1+z)"), [complex(math.nan, 0), math.inf])
        self.assert_same(parse("1/(1+z)"), [0.5, 0.25, math.inf, 0.0])

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
    def test_block_boundaries(self, count):
        chain = OperatorChain(parse("1/(1+z)"), parse("sin(z)"))
        points = [complex(x, 0.1 * x) for x in np.linspace(-0.5, 0.8, count)]
        for e in (chain.entry(4), Z, const(2), parse("-z")):
            bits = [(w.real.hex(), w.imag.hex()) for w in evaluate_many(e, points)]
            assert bits == [(w.real.hex(), w.imag.hex())
                            for w in (evaluate(e, z) for z in points)]

    def test_failing_point_in_second_block(self):
        # the first failing point wins, though the third block fails too
        points = [0.001 * k for k in range(600)]
        points[300], points[550] = 2.0, 1.5
        e = parse("exp(z)/(z-2) + log(z-1.5)")
        with pytest.raises(SingularEvaluation, match=r"^division by ~0 at z=\(2\+0j\)$"):
            evaluate_many(e, points)
        self.assert_same(e, points)
        assert len(evaluate_many(e, points[:300])) == 300

    def test_only_a_failing_block_runs_point_by_point(self, monkeypatch):
        walked = []
        reference = expr_module.evaluate

        def counting(e, z):
            walked.append(z)
            return reference(e, z)

        monkeypatch.setattr(expr_module, "evaluate", counting)
        points = [0.001 * k for k in range(600)]
        evaluate_many(OperatorChain(parse("1/(1+z)"), parse("sin(z)")).entry(4), points)
        assert walked == []
        points[300] = 2.0
        with pytest.raises(SingularEvaluation):
            evaluate_many(parse("exp(z)/(z-2)"), points)
        assert walked == points[256:301]

    def test_numerator_checked_before_denominator(self):
        # at 0 the denominator is ~0 too, but in tape order the numerator
        # fails first, as in the jets
        e = parse("log(z)/z")
        message = r"^log undefined at z=0j: math domain error$"
        with pytest.raises(SingularEvaluation, match=message):
            evaluate(e, 0.0)
        with pytest.raises(SingularEvaluation, match=message):
            evaluate_many(e, [0.5, 0.0])
        self.assert_same(e, [0.5, 0.0, 0.25])

    def test_tape_walk_matches_evaluate(self):
        # values bit for bit and messages, on every seeded input
        compared = raised = 0
        for label, e, points in seeded_inputs():
            for z in points:
                want = _outcome(lambda: _bits(evaluate(e, z)))
                assert _outcome(lambda: _bits(tape_walk(e, z))) == want, (label, e, z)
                compared += 1
                raised += isinstance(want, tuple)
        assert compared == 32189 and raised == 5284

    def test_shared_subtrees_match_evaluate(self):
        u = parse("sin(z) + 1/(z-1)")
        e = Expr(DIVIDE, (Expr(MULTIPLY, (u, u, const(3))), Expr(ADD, (u, Z))))
        self.assert_same(e, self.POINTS + [0.25j, 3.0])

    def test_memory_is_bounded_by_the_block(self):
        # entry 15 of 1/(1+z) in sin(z): 3362 tree nodes, 597 distinct.
        # Only one block's values are alive at a time, so from 2 to 8
        # blocks the peak grows by the per-point lists alone (about 110 B
        # a point), where values for every point at once would take
        # about 13 kB a point
        exp = expand(ExpansionRequest(parse("1/(1+z)"), parse("sin(z)"), 0.0, 14))
        exp.chain.entry(15)
        peaks = []
        for samples in (512, 2048):
            tracemalloc.start()
            try:
                lagrange_bound(exp, 0.4, 14, samples=samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * 2**20
        assert peaks[1] - peaks[0] < 2**20


def seeded_inputs():
    """(label, tree, points): the seeded trees and ladders evaluate is
    pinned on, in a fixed order."""
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        e = TestRandomizedTrees.random_tree(rng, int(rng.integers(2, 6)))
        yield "random", e, TestEvaluator.POINTS
    rng = np.random.default_rng(20261020)
    for _ in range(1000):
        yield "shared", TestRecordedDerivatives.tree(rng, 4, []), TestEvaluator.POINTS
    for label, f_text, s_text, z0 in CATALOG:
        chain = OperatorChain(parse(f_text), parse(s_text))
        for n in range(9):
            yield label, chain.entry(n), [z0, 0.3, -0.4 + 0.2j]


def _bits(w):
    return w.real.hex(), w.imag.hex()


def tape_walk(e, at):
    """evaluate(e, at) as a loop over expr._tape: the steps in order, each
    with _eval's check and message for its node.  The tape's one-point
    reference."""
    z = complex(at)
    v = [z]
    for kind, name, value, inputs in expr_module._tape(e):
        a = [v[i] for i in inputs]
        if kind == CONST:
            try:
                out = complex(value)
            except OverflowError as exc:
                raise SingularEvaluation(f"constant out of floating-point range: {exc}")
        elif kind == ADD:
            out = sum(a, complex(0))
        elif kind == NEGATE:
            out = -a[0]
        elif kind == MULTIPLY:
            out = complex(1)
            for x in a:
                out *= x
        elif kind == DIVIDE:
            if abs(a[1]) < expr_module.DIVISION_FLOOR:
                raise SingularEvaluation(f"division by ~0 at z={z}")
            out = a[0] / a[1]
        elif kind == POWER:
            try:
                out = (a[0] ** value if value is not None
                       else expr_module._on_principal_branch(a[0]) ** a[1])
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                raise SingularEvaluation(f"power undefined at z={z}: {exc}")
        else:
            u = a[0]
            if name in expr_module.PRINCIPAL_BRANCH:
                u = expr_module._on_principal_branch(u)
            try:
                out = expr_module.FUNCTIONS[name][0](u)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise SingularEvaluation(f"{name} undefined at z={z}: {exc}")
            if not cmath.isfinite(out):
                raise SingularEvaluation(f"{name} non-finite at z={z}")
        v.append(out)
    if not cmath.isfinite(v[-1]):
        raise SingularEvaluation(f"non-finite value at z={z}")
    return v[-1]


class TestRecordedEvaluations:
    """evaluate pinned bit for bit on seeded trees and ladders: each value
    as float.hex pairs, or the type of what it raises.  The message is
    left out; TestEvaluator pins it against the tape."""

    #: sha256 of the outcomes, one line each, of seeded_inputs(): 3000
    #: random trees (seed 20261019, depth 2-5) and 1000 depth-4 trees that
    #: share subtrees (seed 20261020) at each of TestEvaluator.POINTS, then
    #: CATALOG ladder entries 0-8 at z0, 0.3 and -0.4+0.2j
    DIGEST = "e6a1f9cc74fb3832889f2187a3bdf5334aeafb6f69371d02f20794ffed10af23"

    def test_outcomes_match_recorded_digest(self):
        lines = []
        for _, e, points in seeded_inputs():
            for z in points:
                try:
                    lines.append(repr(_bits(evaluate(e, z))))
                except FuncSeriesError as exc:
                    lines.append(type(exc).__name__)
        assert sum(line == "SingularEvaluation" for line in lines) > 5000
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST
