"""Identity language: lexing, parsing, domains, evaluation, printing."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from hforge.dsl import (
    Add,
    Call,
    Diagnostic,
    Div,
    EvalError,
    Identity,
    IntLit,
    Mul,
    Neg,
    Pow,
    RatLit,
    Sub,
    Sum,
    Var,
    check,
    check_identity,
    load_corpus,
    parse,
    parse_corpus,
    parse_expr,
    pretty_print,
)
from hforge.bivar import FactoredFrac
from hforge.dsl import eval as dsl_eval
from hforge.special import harmonic

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.ids"


def diags(result):
    assert isinstance(result, list), f"expected diagnostics, got {result!r}"
    return [(d.span, d.message) for d in result]


def ok(result):
    assert not isinstance(result, list), f"unexpected diagnostics: {result!r}"
    return result


class TestParser:
    def test_integer_and_rational_literals(self):
        assert ok(parse_expr("42")) == IntLit(42)
        assert ok(parse_expr("3/4")) == RatLit(Fraction(3, 4))
        # a second slash returns to ordinary division
        assert ok(parse_expr("3/4/5")) == Div(RatLit(Fraction(3, 4)), IntLit(5))

    def test_rational_literal_yields_to_exponentiation(self):
        got = ok(parse_expr("1/2^k"))
        assert got == Div(IntLit(1), Pow(IntLit(2), Var("k")))

    def test_exponent_position_never_eats_a_fraction(self):
        got = ok(parse_expr("x^2/2"))
        assert got == Div(Pow(Var("x"), IntLit(2)), IntLit(2))

    def test_zero_denominator_literal(self):
        assert diags(parse_expr("1/0")) == [((0, 3), "zero denominator in rational literal")]

    def test_precedence_and_unary_minus(self):
        assert ok(parse_expr("-2^2")) == Neg(Pow(IntLit(2), IntLit(2)))
        assert ok(parse_expr("1+2*3")) == Add(
            IntLit(1), Mul(IntLit(2), IntLit(3))
        )
        assert ok(parse_expr("1-2-3")) == Sub(
            Sub(IntLit(1), IntLit(2)), IntLit(3)
        )

    def test_power_does_not_associate(self):
        assert diags(parse_expr("a^b^c")) == [((3, 4), "'^' is non-associative")]

    def test_sum_form(self):
        got = ok(parse_expr("sum(k=1..n, H(k))"))
        assert got == Sum("k", IntLit(1), Var("n"), Call("H", (Var("k"),)))

    def test_sum_form_errors(self):
        msgs = [m for _, m in diags(parse_expr("sum(2..n, k)"))]
        assert any("binder" in m for m in msgs)

    def test_identity_needs_the_separator(self):
        assert diags(parse("H(n) + 1")) == [
            ((8, 8), "expected '==' between the two sides, found end of input")
        ]
        assert diags(parse_expr("a == b")) == [
            ((2, 4), "unexpected trailing input '=='")
        ]

    def test_identity_parses_to_two_sides(self):
        got = ok(parse("H(n) == H(n-1) + 1/n"))
        assert isinstance(got, Identity)
        assert got.lhs == Call("H", (Var("n"),))

    def test_spans_point_into_the_source(self):
        got = ok(parse_expr("H(n) + 1"))
        assert got.span == (0, 8)
        assert got.left.span == (0, 4)
        assert got.right.span == (7, 8)

    def test_unexpected_character(self):
        (span_msg,) = diags(parse_expr("H(n) $ 1"))
        span, msg = span_msg
        assert span == (5, 6)
        assert "$" in msg


class TestGoldenDiagnostics:
    """Five malformed inputs with frozen spans."""

    def test_unclosed_call(self):
        ((span, msg),) = diags(parse_expr("H(n"))
        assert (span, msg) == ((3, 3), "unclosed '(' in call to H")

    def test_fractional_exponent(self):
        ((span, msg),) = diags(check(ok(parse_expr("2^(1/2)"))))
        assert (span, msg) == ((3, 6), "exponent must be integer-valued")

    def test_chained_power(self):
        ((span, msg),) = diags(parse_expr("a^b^c"))
        assert (span, msg) == ((3, 4), "'^' is non-associative")

    def test_wrong_argument_domain(self):
        ((span, msg),) = diags(check(ok(parse_expr("H(x)"))))
        assert (span, msg) == ((2, 3), "argument 1 of H must be integer-valued")

    def test_unknown_builtin(self):
        ((span, msg),) = diags(check(ok(parse_expr("G(2)"))))
        assert (span, msg) == ((0, 4), "unknown builtin 'G'")

    def test_unbound_binder(self):
        ((span, msg),) = diags(check(ok(parse_expr("PSID(n+1, n-k+1)"))))
        assert (span, msg) == ((12, 13), "unbound variable 'k'")


class TestChecker:
    def domain_of(self, src):
        ast = ok(parse_expr(src))
        return ok(check(ast)).domain

    def test_domain_ladder(self):
        assert self.domain_of("3") == "integer"
        assert self.domain_of("1/2") == "rational"
        assert self.domain_of("s") == "ratfunc"
        assert self.domain_of("x") == "bifrac"
        assert self.domain_of("n + 1") == "integer"
        assert self.domain_of("s + x") == "bifrac"

    def test_division_leaves_the_integers(self):
        assert self.domain_of("n/2") == "rational"
        assert self.domain_of("sum(k=1..n, 1/k)") == "rational"

    def test_power_keeps_integers_only_for_literal_exponents(self):
        assert self.domain_of("2^3") == "integer"
        assert self.domain_of("2^n") == "rational"
        assert self.domain_of("(0-1)^(k-1)" .replace("k", "n")) == "rational"

    def test_builtin_result_domains(self):
        assert self.domain_of("H(n)") == "rational"
        assert self.domain_of("Hr(n, 2)") == "rational"
        assert self.domain_of("C(2*n, n)") == "integer"
        assert self.domain_of("CS(n, n)") == "ratfunc"
        assert self.domain_of("PSID(n, 0)") == "ratfunc"
        assert self.domain_of("PSI1D(n, 0)") == "ratfunc"

    def test_builtin_arguments_must_be_integer(self):
        msgs = [m for _, m in diags(check(ok(parse_expr("C(s, 1)"))))]
        assert msgs == ["argument 1 of C must be integer-valued"]

    def test_arity_is_enforced(self):
        msgs = [m for _, m in diags(check(ok(parse_expr("H(1, 2)"))))]
        assert msgs == ["H takes 1 argument(s), got 2"]

    def test_sum_bounds_must_be_integer(self):
        ((span, msg),) = diags(check(ok(parse_expr("sum(k=1..s, k)"))))
        assert msg == "sum bounds must be integer-valued"
        assert span == (9, 10)

    def test_binder_is_integer_inside_the_body(self):
        ast = ok(check(ok(parse_expr("sum(k=1..n, H(k))"))))
        assert ast.domain == "rational"

    def test_declared_parameters_are_integers(self):
        node = ok(check(ok(parse_expr("C(m*n, n)/m")), params=("m",)))
        assert node.domain == "rational"
        assert diags(check(ok(parse_expr("C(m*n, n)")))) == [
            ((2, 3), "unbound variable 'm'")
        ]
        with pytest.raises(ValueError):
            check(ok(parse_expr("s")), params=("s",))

    def test_identity_checks_both_sides(self):
        got = check(ok(parse("H(y) == z")))
        msgs = sorted(m for _, m in diags(got))
        assert msgs == ["unbound variable 'y'", "unbound variable 'z'"]


class TestEvaluator:
    def const(self, src, n, **kw):
        return dsl_eval(ok(check(ok(parse_expr(src)))), n, **kw).as_constant()

    def test_spot_values(self):
        assert self.const("H(n)", 6) == Fraction(49, 20)
        assert self.const("Hr(n, 2)", 3) == Fraction(49, 36)
        assert self.const("C(2*n, n)", 3) == 20
        assert self.const("sum(k=0..n, H(k))", 2) == Fraction(5, 2)

    def test_symbolic_values(self):
        v = dsl_eval(ok(parse_expr("CS(2,1)")), 1)
        assert str(v.to_ratfunc()) == "s + 2"
        w = dsl_eval(ok(parse_expr("PSID(3,1)")), 1)
        assert w.subst_x(0).subst_s(0).as_constant() == Fraction(3, 2)

    def test_empty_sum_is_zero(self):
        assert self.const("sum(k=2..1, 1)", 1) == 0

    def test_negative_literal_powers_stay_exact(self):
        assert self.const("sum(k=0..0, (0-1)^(k-1))", 1) == -1

    def test_bindings_supply_free_names(self):
        v = dsl_eval(ok(parse_expr("k + 1")), 1, bindings={"k": 3})
        assert v.as_constant() == 4

    def test_division_by_zero_carries_a_span(self):
        with pytest.raises(EvalError) as exc:
            dsl_eval(ok(parse_expr("1/(n-1)")), 1)
        assert exc.value.span == (3, 6)

    def test_builtin_validation_becomes_eval_error(self):
        with pytest.raises(EvalError):
            dsl_eval(ok(parse_expr("H(0-n)")), 2)

    def test_rejects_whole_identities_and_bad_n(self):
        with pytest.raises(ValueError):
            dsl_eval(ok(parse("H(n) == n")), 1)
        with pytest.raises(ValueError):
            dsl_eval(ok(parse_expr("H(n)")), 0)

    def test_builtin_calls_are_shared_within_one_evaluation(self, monkeypatch):
        from hforge.dsl import evaluator

        calls = []
        real = evaluator.psi_factor

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(evaluator, "psi_factor", counting)
        ast = ok(check(ok(parse_expr("sum(k=1..n, PSID(n,1)^2 + s*PSID(k,1))"))))
        plain = dsl_eval(ast, 3)
        assert sorted(calls) == [(1, 1), (2, 1), (3, 1)]
        dsl_eval(ast, 3)
        assert len(calls) == 6
        want = sum(
            (real(3, 1) ** 2 + real(k, 1) * FactoredFrac.var_s() for k in (1, 2, 3)),
            FactoredFrac.from_scalar(0),
        )
        assert plain == want.to_bifrac()

    def test_factored_denominators_survive_nesting(self):
        v = dsl_eval(ok(parse_expr("sum(k=1..n, 1/(k*(1+x)^k))")), 2)
        got = v.subst_s(0).subst_x(1)
        assert got.as_constant() == Fraction(1, 2) + Fraction(1, 8)


class TestCheckIdentity:
    def test_recurrence_holds(self):
        ident = ok(parse("H(n) == H(n-1) + 1/n"))
        report = check_identity(ident.lhs, ident.rhs, range(1, 8))
        assert report.total == 7 and report.all_ok()

    def test_failures_carry_witnesses(self):
        ident = ok(parse("H(n) == n"))
        report = check_identity(ident.lhs, ident.rhs, [1, 2, 3], name="claim")
        outcomes = [(r.n, r.passed) for r in report.rows]
        assert outcomes == [(1, True), (2, False), (3, False)]
        assert all(r.id == "claim" for r in report.rows)
        bad = report.rows[1]
        assert bad.witness is not None
        assert bad.witness.lhs_probe == "3/2"

    def test_eval_errors_propagate(self):
        ident = ok(parse("1/(n-1) == n"))
        with pytest.raises(EvalError):
            check_identity(ident.lhs, ident.rhs, [1])


class TestPrinter:
    def test_canonical_forms(self):
        cases = [
            "-2^2",
            "1/(2^k)",
            "3/4/(5)",
            "sum(k=1..n, H(k))",
            "(x + 1)^2",
            "H(n) == H(n - 1) + 1/n",
        ]
        for src in cases:
            node = ok(parse(src)) if "==" in src else ok(parse_expr(src))
            assert pretty_print(node) == src.replace(" - 1", " - 1")

    def test_division_never_reglues_into_a_literal(self):
        assert pretty_print(Div(IntLit(1), IntLit(2))) == "1/(2)"
        assert pretty_print(RatLit(Fraction(1, 2))) == "1/2"

    def test_round_trip_is_stable(self):
        for src in ("x*(1+x)^3", "-(s + 1)", "2*s^2 - 1/4", "sum(j=0..n, C(n, j)*x^j)"):
            first = pretty_print(ok(parse_expr(src)))
            again = pretty_print(ok(parse_expr(first)))
            assert first == again
            assert ok(parse_expr(first)) == ok(parse_expr(again))


class TestCorpus:
    def test_entries_and_issues_are_split(self):
        text = "\n".join(
            [
                "# comment",
                "",
                "GOOD : H(n) == H(n-1) + 1/n",
                "BAD : H(n == n",
                "NO NAME HERE : 1 == 1",
            ]
        )
        entries, issues = parse_corpus(text)
        assert [e.name for e in entries] == ["GOOD"]
        assert entries[0].line_no == 3
        assert len(issues) == 2
        assert issues[0].line_no == 4

    def test_diagnostic_spans_are_global_to_the_line(self):
        entries, issues = parse_corpus("BAD : H(n == n\n")
        (issue,) = issues
        assert issue.diagnostic.span == (10, 12)

    def test_missing_separator(self):
        entries, issues = parse_corpus("JUSTTEXT\n")
        assert not entries and len(issues) == 1

    def test_shipped_corpus_is_clean(self):
        entries, issues = load_corpus(CORPUS)
        assert issues == []
        assert len(entries) == 38
        assert len({e.name for e in entries}) == 38
        for e in entries:
            ok(check(e.identity))
            assert pretty_print(ok(parse(pretty_print(e.identity)))) == pretty_print(e.identity)


def rand_ast(rng, depth, binders):
    """Random closed expression over n and active binders."""
    if depth <= 0:
        pick = rng.random()
        if pick < 0.4:
            return IntLit(rng.randint(-3, 3))
        if binders and pick < 0.7:
            return Var(rng.choice(binders))
        return Var("n")
    kind = rng.randint(0, 6)
    if kind == 0:
        return Add(rand_ast(rng, depth - 1, binders), rand_ast(rng, depth - 1, binders))
    if kind == 1:
        return Sub(rand_ast(rng, depth - 1, binders), rand_ast(rng, depth - 1, binders))
    if kind == 2:
        return Mul(rand_ast(rng, depth - 1, binders), rand_ast(rng, depth - 1, binders))
    if kind == 3:
        return Div(rand_ast(rng, depth - 1, binders), IntLit(rng.randint(1, 4)))
    if kind == 4:
        return Pow(rand_ast(rng, depth - 1, binders), IntLit(rng.randint(0, 3)))
    if kind == 5:
        arg = rand_ast(rng, depth - 1, binders)
        return Call("H", (Mul(arg, arg),))
    name = f"k{len(binders)}"
    return Sum(
        name,
        IntLit(rng.randint(0, 2)),
        Var("n"),
        rand_ast(rng, depth - 1, binders + [name]),
    )


def direct_eval(node, env):
    """Plain Fraction interpreter used as the reference semantics."""
    if isinstance(node, IntLit):
        return Fraction(node.value)
    if isinstance(node, RatLit):
        return node.value
    if isinstance(node, Var):
        return Fraction(env[node.name])
    if isinstance(node, Add):
        return direct_eval(node.left, env) + direct_eval(node.right, env)
    if isinstance(node, Sub):
        return direct_eval(node.left, env) - direct_eval(node.right, env)
    if isinstance(node, Mul):
        return direct_eval(node.left, env) * direct_eval(node.right, env)
    if isinstance(node, Div):
        return direct_eval(node.left, env) / direct_eval(node.right, env)
    if isinstance(node, Pow):
        return direct_eval(node.base, env) ** node.exponent.value
    if isinstance(node, Call):
        (arg,) = node.args
        return harmonic(int(direct_eval(arg, env)))
    if isinstance(node, Sum):
        lo = int(direct_eval(node.lo, env))
        hi = int(direct_eval(node.hi, env))
        total = Fraction(0)
        for j in range(lo, hi + 1):
            inner = dict(env)
            inner[node.binder] = j
            total += direct_eval(node.body, inner)
        return total
    raise AssertionError(node)


def test_evaluator_agrees_with_reference_semantics_on_random_trees():
    rng = random.Random(97)
    checked = 0
    while checked < 120:
        ast = rand_ast(rng, rng.randint(1, 3), [])
        for n in (1, 2, 3):
            try:
                want = direct_eval(ast, {"n": n})
            except (ZeroDivisionError, ValueError):
                continue
            try:
                got = dsl_eval(ast, n)
            except EvalError:
                # reference only diverges via 1/0, handled above
                continue
            assert got.as_constant() == want
            # printing and reparsing cannot change the value
            reparsed = parse_expr(pretty_print(ast))
            assert not isinstance(reparsed, list)
            assert dsl_eval(reparsed, n).as_constant() == want
            checked += 1
