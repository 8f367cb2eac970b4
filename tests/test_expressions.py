"""Unit tests for the symbolic expression engine."""

import math

import pytest

from repro.errors import ExpressionError, UnboundVariableError
from repro.expressions import (
    Binary, Bool, Compare, Func, Num, Unary, Var, as_expr, evaluate,
    evaluate_bool, parse_expr, try_evaluate,
)


class TestParsing:
    def test_number(self):
        assert parse_expr("42") == Num(42)

    def test_float(self):
        assert parse_expr("2.5").evaluate({}) == 2.5

    def test_scientific(self):
        assert parse_expr("1e3").evaluate({}) == 1000

    @pytest.mark.parametrize("text,value", [
        ("4k", 4_000), ("2M", 2_000_000), ("1G", 1_000_000_000),
        ("1.5k", 1500),
    ])
    def test_magnitude_suffixes(self, text, value):
        assert parse_expr(text).evaluate({}) == value

    def test_variable(self):
        assert parse_expr("nx") == Var("nx")

    def test_precedence_mul_over_add(self):
        assert parse_expr("1 + 2 * 3").evaluate({}) == 7

    def test_precedence_parens(self):
        assert parse_expr("(1 + 2) * 3").evaluate({}) == 9

    def test_power_right_associative(self):
        assert parse_expr("2 ^ 3 ^ 2").evaluate({}) == 512

    def test_unary_minus(self):
        assert parse_expr("-n + 1").evaluate({"n": 5}) == -4

    def test_floor_division(self):
        assert parse_expr("7 // 2").evaluate({}) == 3

    def test_modulo(self):
        assert parse_expr("7 % 3").evaluate({}) == 1

    def test_function_call(self):
        assert parse_expr("max(2, 3)").evaluate({}) == 3

    def test_nested_functions(self):
        expr = parse_expr("min(max(a, b), 10)")
        assert expr.evaluate({"a": 3, "b": 7}) == 7

    def test_sqrt(self):
        assert parse_expr("sqrt(n)").evaluate({"n": 16}) == 4

    def test_log2(self):
        assert parse_expr("log2(1024)").evaluate({}) == 10

    def test_comparison(self):
        assert parse_expr("a < b").evaluate({"a": 1, "b": 2}) == 1
        assert parse_expr("a >= b").evaluate({"a": 1, "b": 2}) == 0

    def test_boolean_and_or(self):
        env = {"a": 1, "b": 0}
        assert parse_expr("a == 1 and b == 0").evaluate(env) == 1
        assert parse_expr("a == 0 or b == 0").evaluate(env) == 1
        assert parse_expr("not (a == 1)").evaluate(env) == 0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("1 + 2 )")

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("   ")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("(1 + 2")

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("frobnicate(1)")

    def test_bad_character_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("a $ b")

    def test_misplaced_keyword_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("and 1")


class TestGrammarCorners:
    """Tree shapes the operator table fixes (docs/skop-language.md)."""

    def test_unary_minus_binds_tighter_than_power(self):
        expr = parse_expr("-2^2")
        assert expr == Binary("^", Unary("-", Num(2)), Num(2))
        assert expr.evaluate({}) == 4

    def test_power_is_right_associative(self):
        expr = parse_expr("2^3^2")
        assert expr == Binary("^", Num(2), Binary("^", Num(3), Num(2)))
        assert expr.evaluate({}) == 512

    def test_not_binds_looser_than_a_comparison(self):
        assert parse_expr("not 1 < 2") == \
            Unary("not", Compare("<", Num(1), Num(2)))

    def test_and_or_are_n_ary(self):
        assert parse_expr("a and b and c or d") == Bool("or", [
            Bool("and", [Var("a"), Var("b"), Var("c")]), Var("d")])

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ExpressionError) as info:
            parse_expr("1 < 2 < 3")
        assert str(info.value) == \
            "trailing input '<' at offset 6 in '1 < 2 < 3'"

    def test_not_inside_a_comparison_is_misplaced(self):
        with pytest.raises(ExpressionError) as info:
            parse_expr("a < not b")
        assert str(info.value) == "misplaced keyword 'not' in 'a < not b'"


class TestEvaluation:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as info:
            parse_expr("n + 1").evaluate({})
        assert info.value.name == "n"

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            parse_expr("1 / n").evaluate({"n": 0})

    def test_domain_error(self):
        with pytest.raises(ExpressionError):
            parse_expr("sqrt(0 - 1)").evaluate({})

    def test_integer_coercion(self):
        result = parse_expr("10 / 2").evaluate({})
        assert result == 5 and isinstance(result, int)

    def test_evaluate_accepts_strings_and_numbers(self):
        assert evaluate("n * 2", {"n": 3}) == 6
        assert evaluate(7) == 7
        assert evaluate(Num(3) + Num(4)) == 7

    def test_evaluate_bool(self):
        assert evaluate_bool("n > 0", {"n": 1}) is True
        assert evaluate_bool("n > 0", {"n": 0}) is False

    def test_try_evaluate_unbound_returns_default(self):
        assert try_evaluate("n + 1", {}, default=None) is None
        assert try_evaluate("n + 1", {"n": 1}) == 2

    def test_try_evaluate_still_raises_on_domain_error(self):
        with pytest.raises(ExpressionError):
            try_evaluate("1 / 0", {})


class TestStructuralOps:
    def test_free_vars(self):
        expr = parse_expr("min(a, b) + c * 2 - a")
        assert expr.free_vars() == {"a", "b", "c"}

    def test_substitute(self):
        expr = parse_expr("n * m")
        result = expr.substitute({"n": Num(4)})
        assert result.evaluate({"m": 2}) == 8
        assert result.free_vars() == {"m"}

    def test_substitute_leaves_original_untouched(self):
        expr = parse_expr("n + 1")
        expr.substitute({"n": Num(0)})
        assert expr.free_vars() == {"n"}

    def test_structural_equality_and_hash(self):
        a = parse_expr("n * 2 + 1")
        b = parse_expr("n * 2 + 1")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert parse_expr("n + 1") != parse_expr("n + 2")

    def test_immutability(self):
        expr = parse_expr("n")
        with pytest.raises(AttributeError):
            expr.name = "m"

    def test_operator_sugar(self):
        expr = Var("n") * 2 + 1
        assert expr.evaluate({"n": 3}) == 7

    def test_str_round_trips_through_parser(self):
        original = parse_expr("min(a, 2) * (b + 1) ^ 2 // 3 % 7 - -c")
        reparsed = parse_expr(str(original))
        env = {"a": 1, "b": 2, "c": 3}
        assert reparsed.evaluate(env) == original.evaluate(env)

    def test_as_expr_rejects_junk(self):
        with pytest.raises(ExpressionError):
            as_expr(object())

    def test_bool_requires_two_operands(self):
        with pytest.raises(ExpressionError):
            Bool("and", [Num(1)])

    def test_invalid_operators_rejected(self):
        with pytest.raises(ExpressionError):
            Binary("@", Num(1), Num(2))
        with pytest.raises(ExpressionError):
            Compare("~", Num(1), Num(2))
        with pytest.raises(ExpressionError):
            Unary("+", Num(1))
        with pytest.raises(ExpressionError):
            Func("nope", [])

    def test_children(self):
        expr = parse_expr("a + b")
        assert [str(c) for c in expr.children()] == ["a", "b"]

    def test_is_constant(self):
        assert parse_expr("1 + 2").is_constant()
        assert not parse_expr("n + 2").is_constant()


class TestSemantics:
    """Evaluation semantics match Python's own arithmetic."""

    @pytest.mark.parametrize("text,pyexpr", [
        ("3 + 4 * 2", "3 + 4 * 2"),
        ("(3 + 4) * 2", "(3 + 4) * 2"),
        ("10 // 3", "10 // 3"),
        ("10 % 3", "10 % 3"),
        ("2 ^ 10", "2 ** 10"),
        ("7 / 2", "7 / 2"),
    ])
    def test_matches_python(self, text, pyexpr):
        assert parse_expr(text).evaluate({}) == eval(pyexpr)

    def test_short_circuit_and(self):
        # second operand would divide by zero; 'and' must not evaluate it
        expr = parse_expr("n > 0 and 1 / n > 0")
        assert expr.evaluate({"n": 0}) == 0

    def test_short_circuit_or(self):
        expr = parse_expr("n == 0 or 1 / n > 0")
        assert expr.evaluate({"n": 0}) == 1

    def test_exp_log_inverse(self):
        assert parse_expr("log(exp(3))").evaluate({}) == pytest.approx(3)

    def test_ceil_floor(self):
        assert parse_expr("ceil(7 / 2)").evaluate({}) == 4
        assert parse_expr("floor(7 / 2)").evaluate({}) == 3
        assert parse_expr("abs(0 - 5)").evaluate({}) == 5

    def test_pow_function(self):
        assert parse_expr("pow(2, 8)").evaluate({}) == 256

    def test_large_counts_stay_exact(self):
        # trip-count products must not lose integer precision
        expr = parse_expr("n * n * n")
        assert expr.evaluate({"n": 10_000}) == 10_000 ** 3
