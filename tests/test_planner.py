"""Tests for the declarative layer: AST, stratification, compilation."""

import math

import numpy as np
import pytest

from repro.planner.ast import (
    ANY,
    Atom,
    BinOp,
    Const,
    COUNT,
    EdbDecl,
    MAX,
    MIN,
    Program,
    Rel,
    Rule,
    SUM,
    Var,
    register_function,
    vars_,
)
from repro.planner.compile_rules import compile_program
from repro.planner.interpreter import interpret
from repro.planner.stratify import stratify
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine

x, y, z, w, n = vars_("x y z w n")
wild = Var("_")


def sssp_program():
    spath, edge, start = Rel("spath"), Rel("edge"), Rel("start")
    f, t, m, l, wt = vars_("f t m l wt")
    return Program(
        rules=[
            spath(n, n, 0) <= start(n),
            spath(f, t, MIN(l + wt)) <= (spath(f, m, l), edge(m, t, wt)),
        ],
        edb={"edge": (3, (0,)), "start": (1, (0,))},
    )


class TestDSL:
    def test_rel_call_builds_atom(self):
        r = Rel("r")
        atom = r(x, 5, y)
        assert atom.relation == "r"
        assert atom.terms == (x, Const(5), y)

    def test_le_builds_rule(self):
        r, s = Rel("r"), Rel("s")
        rule = r(x) <= s(x)
        assert isinstance(rule, Rule)
        assert rule.body == (s(x),)

    def test_le_with_tuple_body(self):
        r, s, t = Rel("r"), Rel("s"), Rel("t")
        rule = r(x, z) <= (s(x, y), t(y, z))
        assert rule.is_join

    def test_expr_operators(self):
        e = (x + 1) * y - 2
        assert isinstance(e, BinOp)
        assert set(v.name for v in e.variables()) == {"x", "y"}

    def test_floordiv(self):
        e = x // y
        assert e.op == "//"

    def test_vars_helper(self):
        a, b = vars_("a b")
        assert a == Var("a") and b == Var("b")

    def test_agg_constructors(self):
        assert MIN(x).func == "min"
        assert MAX(x + 1).func == "max"
        assert ANY(1).func == "any"
        assert SUM(x).func == "sum"
        assert COUNT().func == "count"
        assert COUNT().expr == Const(1)

    def test_repr_roundtrip_readable(self):
        rule = Rel("r")(x, MIN(y + 1)) <= Rel("s")(x, y)
        text = repr(rule)
        assert "$MIN" in text and "<=" in text

    def test_binop_unknown_operator(self):
        with pytest.raises(ValueError):
            BinOp("^", x, y)

    def test_register_function_validates_name(self):
        with pytest.raises(ValueError):
            register_function("not valid", min)

    def test_register_function_refuses_builtin_names(self):
        """Regression: registering ``max`` as ``a + b`` was accepted, and
        the engine kept evaluating numpy's maximum while the interpreter
        called the new function — two answers to one program."""
        for name in ("min", "max"):
            with pytest.raises(ValueError, match="built-in"):
                register_function(name, lambda a, b: a + b)
        o, e = Rel("o"), Rel("e")
        a, b = vars_("a b")
        prog = Program(
            rules=[o(a, BinOp("max", a, b)) <= e(a, b)], edb={"e": (2, (0,))}
        )
        facts = {"e": [(1, 5), (7, 2)]}
        engine = Engine(prog, EngineConfig(n_ranks=2))
        engine.load("e", facts["e"])
        assert engine.run().query("o") == interpret(prog, facts)["o"] == {(1, 5), (7, 7)}

    def test_register_function_replaces_custom_name(self):
        register_function("pick_test", lambda a, b: a)
        register_function("pick_test", lambda a, b: b)
        e = Rel("e")
        prog = Program(
            rules=[Rel("h")(x, BinOp("pick_test", x, y)) <= e(x, y)],
            edb={"e": (2, (0,))},
        )
        assert interpret(prog, {"e": [(1, 2)]})["h"] == {(1, 2)}


class TestRuleValidation:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="empty body"):
            Rule(head=Rel("r")(x), body=())

    def test_ternary_body_accepted(self):
        # n-ary bodies are legal; the compiler chains them through
        # auxiliary relations (tests/test_rewrites.py)
        s = Rel("s")
        rule = Rule(head=Rel("r")(x), body=(s(x, y), s(y, z), s(z, x)))
        assert len(rule.body) == 3

    def test_unbound_head_var_rejected(self):
        with pytest.raises(ValueError, match="unbound"):
            Rel("r")(x, y) <= Rel("s")(x)

    def test_agg_in_body_rejected(self):
        with pytest.raises(ValueError, match="not allowed in body"):
            Rel("r")(x) <= Rel("s")(MIN(x))

    def test_non_trailing_agg_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            Rel("r")(MIN(x), y) <= Rel("s")(x, y)


class TestProgram:
    def test_edb_mapping_form(self):
        p = Program(rules=[Rel("r")(x) <= Rel("e")(x)], edb={"e": (1, (0,))})
        assert p.edb[0] == EdbDecl("e", 1, (0,))

    def test_duplicate_edb_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Program(rules=[], edb=[EdbDecl("e", 1, (0,)), EdbDecl("e", 2, (0,))])

    def test_edb_derived_clash_rejected(self):
        with pytest.raises(ValueError, match="derived by rules"):
            Program(rules=[Rel("e")(x) <= Rel("f")(x)], edb={"e": (1, (0,))})

    def test_idb_relations(self):
        p = sssp_program()
        assert p.idb_relations() == ("spath",)
        assert p.edb_names() == ("edge", "start")


class TestStratify:
    def test_sssp_single_recursive_stratum(self):
        strata = stratify(sssp_program())
        assert len(strata) == 1
        assert strata[0].recursive
        assert strata[0].relations == ("spath",)

    def test_lsp_layers(self):
        from repro.queries.lsp import lsp_program

        strata = stratify(lsp_program())
        order = [s.relations for s in strata]
        assert order.index(("spath",)) < order.index(("spnorm",))
        assert order.index(("spnorm",)) < order.index(("lsp",))
        assert strata[order.index(("spnorm",))].recursive is False

    def test_mutual_recursion_one_stratum(self):
        a, b, e = Rel("a"), Rel("b"), Rel("e")
        p = Program(
            rules=[
                a(x) <= e(x),
                a(y) <= (b(x), Rel("e2")(x, y)),
                b(y) <= (a(x), Rel("e2")(x, y)),
            ],
            edb={"e": (1, (0,)), "e2": (2, (0,))},
        )
        strata = stratify(p)
        rec = [s for s in strata if s.recursive]
        assert len(rec) == 1
        assert set(rec[0].relations) == {"a", "b"}

    def test_dependencies_evaluated_first(self):
        r1, r2, r3, e = Rel("r1"), Rel("r2"), Rel("r3"), Rel("e")
        p = Program(
            rules=[
                r1(x) <= e(x),
                r2(x) <= r1(x),
                r3(x) <= r2(x),
            ],
            edb={"e": (1, (0,))},
        )
        strata = stratify(p)
        names = [s.relations[0] for s in strata]
        assert names == ["r1", "r2", "r3"]
        assert not any(s.recursive for s in strata)


class TestCompile:
    def test_sssp_schema_inference(self):
        cp = compile_program(sssp_program())
        spath = cp.schemas["spath"]
        assert spath.arity == 3
        assert spath.n_dep == 1
        assert spath.join_cols == (1,)  # position of the shared var m
        assert spath.aggregator.name == "min"
        edge = cp.schemas["edge"]
        assert edge.join_cols == (0,)
        assert not edge.is_aggregate

    def test_subbucket_overrides(self):
        cp = compile_program(sssp_program(), subbuckets={"edge": 8})
        assert cp.schemas["edge"].n_subbuckets == 8
        assert cp.schemas["spath"].n_subbuckets == 1

    def test_emit_join(self):
        cp = compile_program(sssp_program())
        join_rule = next(cr for cr in cp.compiled.values() if cr.is_join)
        # spath(f,t,MIN(l+w)) from lt=spath(f,m,l), rt=edge(m,t,w)
        lt, rt = np.array([[0, 5, 10]]), np.array([[5, 7, 3]])
        assert join_rule.emit_spec.eval_block(lt, rt).tolist() == [[0, 7, 13]]

    def test_emit_copy_with_constant(self):
        cp = compile_program(sssp_program())
        base = next(cr for cr in cp.compiled.values() if not cr.is_join)
        assert base.emit_spec.eval_block(np.array([[4]]), None).tolist() == [[4, 4, 0]]

    def test_probe_maps_swapped_variable_order(self):
        """L(a,b) ⋈ R(b,a): probe keys must reorder values per side."""
        L, R, H = Rel("L"), Rel("R"), Rel("H")
        a, b = vars_("a b")
        p = Program(
            rules=[H(a, b) <= (L(a, b), R(b, a))],
            edb={"L": (2, (0, 1)), "R": (2, (0, 1))},
        )
        cp = compile_program(p)
        cr = next(iter(cp.compiled.values()))
        lt = (10, 20)  # a=10, b=20
        # probing R's index (keyed by its cols (0,1) = (b, a)):
        assert tuple(lt[c] for c in cr.probe_from_left) == (20, 10)
        rt = (20, 10)  # R tuple: b=20, a=10
        assert tuple(rt[c] for c in cr.probe_from_right) == (10, 20)

    def test_conflicting_join_cols_resolved_by_index_copy(self):
        """A relation joined on two column sets gets an auto-materialized
        secondary index copy (Soufflé-style), not an error."""
        e, p_, q = Rel("e"), Rel("p"), Rel("q")
        prog = Program(
            rules=[
                p_(x, z) <= (q(x, y), e(y, z)),   # q keyed on col 1
                p_(z, x) <= (q(y, x), e(y, z)),   # q keyed on col 0
            ],
            edb={"e": (2, (0,)), "q": (2, (1,))},
        )
        cp = compile_program(prog)
        copies = [n for n in cp.schemas if n.startswith("__idx_q")]
        assert len(copies) == 1
        assert cp.schemas[copies[0]].join_cols == (0,)

    def test_aggregated_column_join_rejected(self):
        """The paper's restriction: dep columns never joined upon."""
        spath, edge, probe, out = Rel("spath"), Rel("edge"), Rel("probe"), Rel("out")
        f, t, m, l = vars_("f t m l")
        prog = Program(
            rules=[
                spath(f, t, MIN(l)) <= edge(f, t, l),
                # joins spath's dependent column l — forbidden!
                out(f) <= (spath(f, m, l), probe(m, l)),
            ],
            edb={"edge": (3, (0,)), "probe": (2, (0, 1))},
        )
        with pytest.raises(ValueError, match="aggregated column"):
            compile_program(prog)

    def test_fold_aggregate_in_recursion_rejected(self):
        r, e = Rel("r"), Rel("e")
        prog = Program(
            rules=[
                r(x, SUM(1)) <= e(x),
                r(y, SUM(w)) <= (r(x, w), Rel("e2")(x, y)),
            ],
            edb={"e": (1, (0,)), "e2": (2, (0,))},
        )
        with pytest.raises(ValueError, match="stratified-only"):
            compile_program(prog)

    def test_cartesian_product_rejected(self):
        a, b = Rel("a"), Rel("b")
        prog = Program(
            rules=[Rel("h")(x, y) <= (a(x), b(y))],
            edb={"a": (1, (0,)), "b": (1, (0,))},
        )
        with pytest.raises(ValueError, match="shared variable"):
            compile_program(prog)

    def test_arity_mismatch_rejected(self):
        e = Rel("e")
        prog = Program(
            rules=[Rel("h")(x) <= e(x), Rel("g")(x) <= e(x, y)],
            edb=[],
        )
        with pytest.raises(ValueError, match="arit"):
            compile_program(prog)

    def test_mixed_aggregate_functions_rejected(self):
        r, e = Rel("r"), Rel("e")
        prog = Program(
            rules=[
                r(x, MIN(y)) <= e(x, y),
                r(x, MAX(y)) <= e(x, y),
            ],
            edb={"e": (2, (0,))},
        )
        with pytest.raises(ValueError, match="multiple functions"):
            compile_program(prog)

    def test_match_constants(self):
        e = Rel("e")
        prog = Program(rules=[Rel("h")(x) <= e(7, x)], edb={"e": (2, (0,))})
        cp = compile_program(prog)
        cr = next(iter(cp.compiled.values()))
        match = cr.matches_block[0]
        assert match.mask(np.array([[7, 1], [8, 1]])).tolist() == [True, False]

    def test_match_repeated_vars(self):
        e = Rel("e")
        prog = Program(rules=[Rel("h")(x) <= e(x, x)], edb={"e": (2, (0,))})
        cp = compile_program(prog)
        match = next(iter(cp.compiled.values())).matches_block[0]
        assert match.mask(np.array([[3, 3], [3, 4]])).tolist() == [True, False]

    def test_wildcards_unconstrained(self):
        e = Rel("e")
        prog = Program(rules=[Rel("h")(x) <= e(x, wild, wild)],
                       edb={"e": (3, (0,))})
        cp = compile_program(prog)
        cr = next(iter(cp.compiled.values()))
        assert cr.matches_block[0] is None  # wildcards impose nothing

    def test_wildcard_in_head_rejected(self):
        e = Rel("e")
        prog = Program(rules=[Rel("h")(wild) <= e(wild, x)],
                       edb={"e": (2, (0,))})
        with pytest.raises(ValueError, match="wildcard"):
            compile_program(prog)

    def test_custom_function_in_emit(self):
        register_function("gcd_test", math.gcd)
        e = Rel("e")
        prog = Program(
            rules=[Rel("h")(x, BinOp("gcd_test", y, z)) <= e(x, y, z)],
            edb={"e": (3, (0,))},
        )
        cp = compile_program(prog)
        cr = next(iter(cp.compiled.values()))
        out = cr.emit_spec.eval_block(np.array([[1, 12, 18]]), None)
        assert out.tolist() == [[1, 6]]

    def test_rules_of_stratum(self):
        cp = compile_program(sssp_program())
        assert len(cp.rules_of(cp.strata[0])) == 2
