import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from idapbc.expr import (
    Compiled,
    Const,
    ExprError,
    ParseError,
    Tables,
    compile_expr,
    parse,
    to_string,
)
from idapbc import expr
from idapbc.matching import evaluate_residuals
from idapbc.system import builtin

VARS2 = ["q1", "q2"]


def fd(f, point, index, h=1e-6):
    lo = list(point)
    hi = list(point)
    lo[index] -= h
    hi[index] += h
    return (f(hi) - f(lo)) / (2 * h)


class TestParse:
    def test_basic_eval(self):
        e = parse("10*cos(q1)", VARS2)
        assert e.eval([0.0, 0.0]) == 10.0

    def test_three_dof_entry(self):
        e = parse("5+cos(q3)", ["q1", "q2", "q3"])
        assert e.eval([0.0, 0.0, 0.0]) == 6.0

    def test_division_by_zero(self):
        e = parse("q1^2/(q1-q1)", VARS2)
        with pytest.raises(ExprError, match="division by zero"):
            e.eval([1.0, 0.0])

    def test_sum_at_point(self):
        e = parse("q1+q2", VARS2)
        assert e.eval([1.0, 2.0]) == 3.0

    def test_pendulum_determinant_entry(self):
        e = parse("2-cos(q1)^2", VARS2)
        # det of [[1, c], [c, 2]] at q1=0
        assert e.eval([0.0, 0.0]) == pytest.approx(1.0)

    def test_params_folded(self):
        e = parse("2*cos(q1)^2 - eps", VARS2, params={"eps": 0.5})
        assert e.eval([0.0, 0.0]) == pytest.approx(1.5)

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError, match="undeclared identifier 'q7'"):
            parse("sin(q7)", VARS2)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError, match="position"):
            parse("1 + * 2", VARS2)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("sin(q1", VARS2)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse("q1^1.5", VARS2)

    def test_negative_exponent(self):
        e = parse("q1^-2", VARS2)
        assert e.eval([2.0, 0.0]) == pytest.approx(0.25)

    def test_precedence(self):
        assert parse("1+2*3", VARS2).eval([0, 0]) == 7.0
        assert parse("(1+2)*3", VARS2).eval([0, 0]) == 9.0
        assert parse("-q1^2", VARS2).eval([3.0, 0]) == -9.0
        assert parse("2*q1^2", VARS2).eval([3.0, 0]) == 18.0

    def test_scientific_notation(self):
        assert parse("1.5e-3", VARS2).eval([0, 0]) == pytest.approx(1.5e-3)


class TestDifferentiate:
    def test_elementary(self):
        e = parse("10*cos(q1)", VARS2)
        d = e.diff(0)
        for x in (0.0, 0.3, -1.2):
            assert d.eval([x, 0.0]) == pytest.approx(-10 * math.sin(x), abs=1e-12)

    def test_chain_rule_vs_fd(self):
        # derivative of 2cos^2(q1) - 0.5 is -4 cos(q1) sin(q1)
        e = parse("2*cos(q1)^2 - 0.5", VARS2)
        d = e.diff(0)
        for x in (0.1, 0.7, -0.4):
            expect = -4 * math.cos(x) * math.sin(x)
            assert d.eval([x, 0.0]) == pytest.approx(expect, abs=1e-12)
            assert d.eval([x, 0.0]) == pytest.approx(
                fd(lambda p: e.eval(p), [x, 0.0], 0), abs=1e-6
            )

    def test_constant_in_other_var(self):
        d = parse("cos(q1)", VARS2).diff(1)
        assert isinstance(d, Const)
        assert d.value == 0.0

    def test_quotient_rule(self):
        e = parse("(4-0.5)^2*cos(q1)^2/(2*cos(q1)^2-0.5)", VARS2)
        d = e.diff(0)
        for x in (0.2, -0.6, 1.0):
            assert d.eval([x, 0.0]) == pytest.approx(
                fd(lambda p: e.eval(p), [x, 0.0], 0), rel=1e-6, abs=1e-6
            )

    def test_quotient_by_a_tiny_constant(self):
        # v*v = 1e-400 would fold to 0, and u*v'/(v*v) to 0/0
        d = parse("q1^2/1e-200", VARS2).diff(0)
        assert to_string(d) == "2*q1/1e-200"
        assert d.eval([0.5, 0.0]) == 1e200

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(3)
        e = parse("sin(q1*q2) + q1^3*cos(q2) - q2/(1+q1^2)", VARS2)
        d12 = e.diff(0).diff(1)
        d21 = e.diff(1).diff(0)
        for _ in range(20):
            pt = rng.uniform(-2, 2, size=2)
            a, b = d12.eval(pt), d21.eval(pt)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def random_expr(rng, depth=0):
    choice = rng.integers(0, 8 if depth < 4 else 2)
    if choice == 0:
        return repr(round(rng.uniform(-3, 3), 3))
    if choice == 1:
        return rng.choice(VARS2)
    a = random_expr(rng, depth + 1)
    b = random_expr(rng, depth + 1)
    if choice == 2:
        return f"({a}+{b})"
    if choice == 3:
        return f"({a}-{b})"
    if choice == 4:
        return f"({a}*{b})"
    if choice == 5:
        return f"sin({a})"
    if choice == 6:
        return f"cos({a})"
    return f"({a})^{rng.integers(1, 4)}"


def grouped_expr(rng, depth=0):
    """Text of a random tree over +, -, *, /, unary minus, sin, cos and powers
    with exponents -3..3, every operand in parentheses, so that right-nested
    sums and products and powers of powers are drawn as often as the rest."""
    choice = rng.integers(0, 11 if depth < 4 else 2)
    if choice == 0:
        return repr(round(rng.uniform(-3, 3), 3))
    if choice == 1:
        return str(rng.choice(VARS2))
    a = grouped_expr(rng, depth + 1)
    if choice < 6:
        return f"({a}{'+-*/'[choice - 2]}{grouped_expr(rng, depth + 1)})"
    if choice == 6:
        return f"-({a})"
    if choice == 7:
        return f"sin({a})"
    if choice == 8:
        return f"cos({a})"
    power = f"({a})^{rng.integers(-3, 4)}"
    return power if choice == 9 else f"({power})^{rng.integers(-3, 4)}"


# the seeded draw of the print/parse round trip on trees
ROUND_TRIP_SEED, ROUND_TRIP_COUNT = 19, 400


class TestProperties:
    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            text = random_expr(rng)
            e = parse(text, VARS2)
            idx = int(rng.integers(0, 2))
            d = e.diff(idx)
            pt = rng.uniform(-1.5, 1.5, size=2)
            val = d.eval(pt)
            approx = fd(lambda p: e.eval(p), pt, idx)
            # FD on wild random trees is only good to ~1e-5 relative
            assert val == pytest.approx(approx, rel=1e-5, abs=1e-4)
            checked += 1

    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            e = parse(random_expr(rng), VARS2)
            back = parse(to_string(e), VARS2)
            for _ in range(20):
                pt = rng.uniform(-2, 2, size=2)
                assert back.eval(pt) == pytest.approx(e.eval(pt), rel=1e-12, abs=1e-12)

    def test_derivative_round_trip_through_print(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            e = parse(random_expr(rng), VARS2).diff(0)
            back = parse(to_string(e), VARS2)
            for _ in range(5):
                pt = rng.uniform(-2, 2, size=2)
                assert back.eval(pt) == pytest.approx(e.eval(pt), rel=1e-12, abs=1e-12)

    def test_print_parses_to_the_same_tree(self):
        rng = np.random.default_rng(ROUND_TRIP_SEED)
        for _ in range(ROUND_TRIP_COUNT):
            e = parse(grouped_expr(rng), VARS2)
            for tree in (e, e.diff(0), e.diff(1)):
                assert parse(to_string(tree), VARS2) == tree, to_string(tree)

    @pytest.mark.parametrize("text", ["q1 + (q2 + q1*3)", "q1*(q2/q1)", "(q1^2)^3", "q1^-2"])
    def test_grouping_survives_printing(self, text):
        e = parse(text, VARS2)
        assert to_string(e) == text
        assert parse(text, VARS2) == e

    def test_compiled_matches_tree_eval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            e = parse(random_expr(rng), VARS2)
            f = compile_expr(e)
            for _ in range(5):
                pt = rng.uniform(-2, 2, size=2)
                assert f(pt) == e.eval(pt)
        # nested trees: one generated function per table, equal to the tree walk
        pend, shaped = builtin("pendulum_cart", eps=0.55, K=0.25)
        three, _ = builtin("three_dof")
        tables = [
            (shaped.C.tree, 2),
            (pend.M.diff(2).tree, 2),
            (shaped.Mhat.diff(2).tree, 2),
            (three.M.diff(3).tree, 3),
        ]
        for table, n in tables:
            f = compile_expr(table)
            exprs = np.array(table, dtype=object)
            for _ in range(20):
                pt = rng.uniform(-1, 1, size=n)
                expect = np.vectorize(lambda e: e.eval(pt), otypes=[float])(exprs)
                assert np.array_equal(f(pt), expect)

    def test_tables_compile_to_one_function(self):
        # each value is its tree's, bitwise; cos(q1) and the subtrees over it
        # that M, Mhat, dMhat and C share are evaluated once
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        trees = [(sys.M.tree, design.Mhat.tree), design.dMhat.tree, design.dVhat.tree,
                 design.C.tree, design.Vhat]
        f = compile_expr(Tables(trees))
        alone = [compile_expr(t) for t in trees]

        def temporaries(fn):
            return sum(name.startswith("_t") for name in fn.__code__.co_varnames)

        assert temporaries(f) < sum(map(temporaries, alone))
        for pt in np.random.default_rng(6).uniform(-1, 1, (20, 2)):
            values = f(pt)
            assert type(values) is tuple and len(values) == len(trees)
            for got, fn in zip(values, alone):
                expect = fn(pt)
                assert type(got) is type(expect) and np.shape(got) == np.shape(expect)
                assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
        with pytest.raises(ExprError, match="division by zero in 1/q2"):
            compile_expr(Tables([parse("q1", VARS2), [parse("1/q2", VARS2)]]))([1.0, 0.0])

    @pytest.mark.parametrize(
        "text, pos", [("1e400*q1", 0), ("1e200*1e200*q1", 5), ("10^400*q1", 3), ("-1e400", 1)]
    )
    def test_non_finite_constant_rejected(self, text, pos):
        # a literal that is not finite, a fold to infinity, a fold that overflows
        with pytest.raises(ParseError, match="constant is not finite") as err:
            parse(text, VARS2)
        assert err.value.pos == pos

    def test_infinite_trig_argument_names_the_node(self):
        for text in ("sin(q1*1e200*1e200)", "1 + cos(q1*1e200*1e200)"):
            e = parse(text, VARS2)
            node = "sin" if text.startswith("sin") else "cos"
            want = f"infinite argument in {node}(q1*1e+200*1e+200)"
            for f in (compile_expr(e), e.eval, compile_expr([[e]])):
                with pytest.raises(ExprError) as err:
                    f([2.0, 0.0])
                assert str(err.value) == want
            assert compile_expr(e)([0.0, 0.0]) == e.eval([0.0, 0.0])

    def test_non_finite_constant_prints(self):
        # differentiation folds 1e200*1e200 to inf, which a message then prints
        d = parse("1/(q1*1e200*1e200)", VARS2).diff(0)
        for f in (compile_expr(d), d.eval):
            with pytest.raises(ExprError) as err:
                f([0.0, 0.0])
            assert type(err.value) is ExprError
            assert str(err.value) == (
                "division by zero in inf/(q1*1e+200*1e+200*(q1*1e+200*1e+200))"
            )
        q1 = expr.Var("q1", 0)
        assert to_string(expr.Mul(q1, Const(-math.inf))) == "q1*(-inf)"
        assert to_string(expr.Add(q1, Const(math.nan))) == "q1 + nan"

    def test_overflow_raises_whatever_the_input_type(self):
        # the scalar evaluators raise OverflowError; the batch one flags the row
        e = parse("((q2 - 1e200) - sin(2))^3 - 0.5^2", VARS2)
        point = [-1.41, 0.087]
        for q in (point, tuple(point), np.array(point)):
            for f in (e.eval, compile_expr(e)):
                with pytest.raises(OverflowError):
                    f(q)
        _, flagged = compile_expr(e, batch=True)(np.array([point]))
        assert flagged.tolist() == [True]

    def test_variables_reported(self):
        assert parse("sin(q2)*q1", VARS2).variables() == {0, 1}
        assert parse("cos(q1)", VARS2).variables() == {0}
        assert parse("3.5", VARS2).variables() == set()


class TestBatch:
    def test_temporaries_deleted_after_last_use(self):
        # a chain of 80 temporaries (q1 + k, then times q1), each read once by
        # the next: a call holds a few row arrays at a time, not 80, and the
        # values are the scalar variant's
        x = parse("q1", ["q1"])
        chain = [x]
        for k in range(40):
            chain.append(expr.mul(expr.add(chain[-1], Const(k + 1.0)), x))
        tree = Tables((chain[-1], [chain[20], chain[40]]))
        fn = compile_expr(tree, batch=True)
        points = np.linspace(-1.0, 1.0, 20000)[:, None]
        tracemalloc.start()
        (last, pair), flagged = fn(points)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row_bytes = 8 * len(points)
        assert peak < 12 * row_bytes and not flagged.any()
        scalar = compile_expr(tree)
        for q, a, b in zip(points[::997], last[::997], pair[::997]):
            want = scalar(q)
            assert a.tobytes() == np.float64(want[0]).tobytes()
            assert b.tobytes() == want[1].tobytes()

    def test_batch_equals_scalar(self):
        pend, shaped = builtin("pendulum_cart", eps=0.55, K=0.25)
        three, _ = builtin("three_dof")
        tables = [
            (pend.M.tree, 2),
            (shaped.Mhat.tree, 2),
            (three.M.tree, 3),
            (pend.M.diff(2).tree, 2),
            (shaped.Mhat.diff(2).tree, 2),
            (three.M.diff(3).tree, 3),
            (shaped.C.tree, 2),
            # numpy's power rounds unlike Python's in a few percent of cases
            ([parse("q1^3*q2^-2 + (q1 + q2)^5 - q1^2", VARS2)], 2),
        ]
        rng = np.random.default_rng(5)
        for table, n in tables:
            points = rng.uniform(-1, 1, size=(500, n))
            values, flagged = compile_expr(table, batch=True)(points)
            scalar = compile_expr(table)
            assert not flagged.any()
            assert np.array_equal(values, np.stack([scalar(q) for q in points]))

    @pytest.mark.parametrize(
        "text",
        [
            "1/(1/(q1 - 0.5))",  # the infinite temporary is gone from the output
            "q1^-2",
            "(1e200*q1)^2",
            "sin(q2) + q2/(q1*q1 - 0.25)",
            "sin(q1*1e200*1e200)",
        ],
    )
    def test_flags_rows_where_scalar_raises(self, text):
        e = parse(text, VARS2)
        points = np.array([[v, 0.3] for v in (-1.0, -0.5, 0.0, 1e-250, 0.5, 2.0)])
        values, flagged = compile_expr(e, batch=True)(points)
        scalar = compile_expr(e)
        raises = []
        for q, value in zip(points, values):
            try:
                expect = scalar(q)
            except (ExprError, OverflowError):
                raises.append(True)
            else:
                raises.append(False)
                assert value == expect
        assert any(raises) and not all(raises)
        assert flagged.tolist() == raises

    def test_flags_an_overflow_the_scalar_absorbs(self):
        # the flagged rows are a superset of those where the scalar raises or
        # returns a non-finite value: the denominator's float * overflows to
        # inf without raising, and 3.25/inf is 0.0 in every evaluator
        e = parse("3.25/(q1*(1e200*(1e200 - q1)))", VARS2)
        q = [0.459, 0.3]
        values, flagged = compile_expr(e, batch=True)(np.array([q]))
        assert compile_expr(e)(q) == e.eval(q) == 0.0
        assert flagged.tolist() == [True]

    def test_division_by_a_constant_zero_flags_every_row(self):
        values, flagged = compile_expr(parse("q1 + 1/0", VARS2), batch=True)(np.ones((3, 2)))
        assert values.shape == (3,) and flagged.all()

    def test_tables_equal_each_trees_batch(self):
        # a zero denominator in one tree at q1 = 0.5 and a power overflowing
        # in another where |q2| > 1e-46, with cos(q1) shared between them
        trees = [
            [parse("cos(q1)/(q1 - 0.5)", VARS2), parse("q2", VARS2)],
            parse("cos(q1)*q2 + (q2*1e200)^2", VARS2),
            builtin("pendulum_cart", eps=0.55, K=0.25)[1].Mhat.tree,
        ]
        points = np.array([[a, b] for a in (-1.0, 0.0, 0.5, 1.0) for b in (0.0, 1e-100, 0.3)])
        values, flagged = Compiled(Tables(trees)).batch(points)
        alone = [Compiled(t).batch(points) for t in trees]
        masks = [mask for _, mask in alone]
        assert masks[0].any() and masks[1].any() and not (masks[0] == masks[1]).all()
        assert type(values) is tuple and len(values) == len(trees)
        assert flagged.tolist() == (masks[0] | masks[1] | masks[2]).tolist()
        assert not flagged.all()
        for got, (expect, _) in zip(values, alone):
            assert got.shape == expect.shape
            assert got[~flagged].tobytes() == expect[~flagged].tobytes()

    def test_compiled_on_first_batched_call(self, monkeypatch):
        compiled = []
        plain = expr.compile_expr

        def counting(tree, batch=False):
            compiled.append(batch)
            return plain(tree, batch)

        monkeypatch.setattr(expr, "compile_expr", counting)
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        sys.hamiltonian([0.1, 0.2], [0.3, 0.4])
        assert True not in compiled
        axes = [(name, np.linspace(-0.5, 0.5, 3)) for name in sys.vars]
        evaluate_residuals(sys, design, axes)
        # G and the pair function, once each
        assert compiled.count(True) == 2
        evaluate_residuals(sys, design, axes)
        assert compiled.count(True) == 2


def compile_references(path: Path) -> list[str]:
    """Names, attributes and imports that refer to ``compile_expr`` in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "compile_expr":
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_one_way_to_compile_expressions():
    src = Path(expr.__file__).resolve().parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "expr.py")
    assert modules
    refs = [r for p in modules for r in compile_references(p)]
    assert refs == [], "compile through idapbc.expr.Compiled: " + ", ".join(refs)


def test_guard_sees_a_reference(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from idapbc.expr import compile_expr\nexpr.compile_expr(t)\n"
        "f = compile_expr\nCompiled(t)\n"
    )
    assert sorted(compile_references(probe)) == ["probe.py:1", "probe.py:2", "probe.py:3"]


def source_runs(path: Path) -> list[str]:
    """Calls of the builtins exec and compile in a module."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "compile")
    ]


def test_one_module_generates_code():
    # expr.py is the one code generator: no other module runs Python source
    src = Path(expr.__file__).resolve().parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "expr.py")
    runs = [r for p in modules for r in source_runs(p)]
    assert runs == [], "generate code through idapbc.expr.Compiled: " + ", ".join(runs)
    assert source_runs(src / "expr.py")  # the guard sees expr's own


def shared_tree(rounds):
    """e = e*e + e from e = q1, ``rounds`` times: 2 rounds + 1 distinct nodes,
    whose expansion has about 3^rounds nodes; 0 at q1 = 0 and q1 = -1."""
    e = parse("q1", VARS2)
    for _ in range(rounds):
        e = expr.add(expr.mul(e, e), e)
    return e


class TestSharedSubtrees:
    # a walk or a code generator that expands the tree does not finish
    def test_walks_and_evaluators_finish(self):
        e = shared_tree(40)
        assert e.variables() == {0}
        compiled = Compiled(e)
        points = np.array([[0.0, 0.5], [-1.0, 0.5]])
        assert [compiled(q) for q in points] == [0.0, 0.0]
        values, flagged = compiled.batch(points)
        assert values.tolist() == [0.0, 0.0] and not flagged.any()

    def test_repr_is_clipped_as_messages_are(self):
        assert repr(parse("q1*cos(q2) + 1", VARS2)) == "Add(q1*cos(q2) + 1)"
        text = repr(shared_tree(40))
        assert "..." in text and len(text) < 2000

    def test_division_by_zero_at_a_shared_node_has_a_bounded_message(self):
        compiled = Compiled(expr.div(Const(1.0), shared_tree(40)))
        with pytest.raises(ExprError, match=r"^division by zero in 1/\(\(") as info:
            compiled([0.0, 0.5])
        assert "..." in str(info.value) and len(str(info.value)) < 2000
