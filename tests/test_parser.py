"""Tests for the Datalog surface-syntax parser."""

import pytest

from repro import Engine, EngineConfig
from repro.planner.ast import AggTerm, BinOp, Const, Var
from repro.planner.interpreter import interpret
from repro.planner.parser import DatalogSyntaxError, parse_program

SSSP_SRC = """
// SSSP (paper §II-C)
.decl edge(x, y, w) keys(x) subbuckets(4)
.decl start(n) keys(n)

start(0).
edge(0, 1, 4).  edge(1, 2, 1).  edge(0, 2, 9).

spath(n, n, 0)           :- start(n).
spath(f, t, $min(l + w)) :- spath(f, m, l), edge(m, t, w).

.output spath
"""


class TestParsing:
    def test_decls(self):
        parsed = parse_program(SSSP_SRC)
        edge = next(d for d in parsed.program.edb if d.name == "edge")
        assert edge.arity == 3
        assert edge.join_cols == (0,)
        assert edge.n_subbuckets == 4

    def test_rules_and_aggregate(self):
        parsed = parse_program(SSSP_SRC)
        assert len(parsed.program.rules) == 2
        rec = parsed.program.rules[1]
        agg = rec.head.terms[2]
        assert isinstance(agg, AggTerm) and agg.func == "min"
        assert isinstance(agg.expr, BinOp) and agg.expr.op == "+"

    def test_inline_facts(self):
        parsed = parse_program(SSSP_SRC)
        assert parsed.facts["start"] == [(0,)]
        assert (1, 2, 1) in parsed.facts["edge"]

    def test_outputs(self):
        assert parse_program(SSSP_SRC).outputs == ("spath",)

    def test_comments_both_styles(self):
        parsed = parse_program(
            "# hash comment\n.decl e(x) keys(x)\ne(1). // trailing\n"
        )
        assert parsed.facts["e"] == [(1,)]

    def test_wildcard_and_constants(self):
        parsed = parse_program(
            ".decl e(x, y) keys(x)\nr(x) :- e(x, _).\ns(x) :- e(7, x).\n"
        )
        r, s = parsed.program.rules
        assert r.body[0].terms[1] == Var("_")
        assert s.body[0].terms[0] == Const(7)

    def test_division_and_precedence(self):
        parsed = parse_program(".decl e(a, b) keys(a)\nr(a, b * 2 + a / 3) :- e(a, b).\n")
        expr = parsed.program.rules[0].head.terms[1]
        assert expr.op == "+"
        assert expr.left.op == "*" and expr.right.op == "//"

    def test_parentheses(self):
        parsed = parse_program(".decl e(a, b) keys(a)\nr(a, (a + b) * 2) :- e(a, b).\n")
        expr = parsed.program.rules[0].head.terms[1]
        assert expr.op == "*" and expr.left.op == "+"

    def test_named_function_call(self):
        parsed = parse_program(
            ".decl e(a, b) keys(a)\nr(a, $max(min(a, b))) :- e(a, b).\n"
        )
        agg = parsed.program.rules[0].head.terms[1]
        assert agg.expr.op == "min"

    def test_negative_literals_and_unary_minus(self):
        parsed = parse_program(
            ".decl e(x, y) keys(x)\ne(5, -3).  e(-2, 7).\n"
            "r(x, -y, y - -1) :- e(x, y).\n"
        )
        assert parsed.facts == {"e": [(5, -3), (-2, 7)]}
        _, neg, sub = parsed.program.rules[0].head.terms
        assert neg == BinOp("-", Const(0), Var("y"))
        assert sub == BinOp("-", Var("y"), Const(-1))

    def test_count_lowers_to_one_per_substitution(self):
        parsed = parse_program(".decl e(x, w) keys(x)\nd(x, $count(w)) :- e(x, w).\n")
        assert parsed.program.rules[0].head.terms[1] == AggTerm("count", Const(1))

    def test_input_directive(self):
        parsed = parse_program('.decl e(x, y) keys(x)\n.input e "edges.tsv"\nr(x) :- e(x, _).\n')
        assert parsed.inputs == {"e": "edges.tsv"}

    def test_keys_multi_column(self):
        parsed = parse_program(".decl e(a, b, c) keys(b, a)\nr(a) :- e(a, b, c).\n")
        assert parsed.program.edb[0].join_cols == (0, 1)


class TestErrors:
    @pytest.mark.parametrize(
        "src,needle",
        [
            ("r(x) :- e(x)", "expected"),                     # missing '.'
            (".decl e(x) keys(y)\n", "not parameters"),
            (".frobnicate e\n", "unknown directive"),
            (".decl e(x) keys(x)\ne(y).\n", "must be ground"),
            ("f(1).\n", "undeclared relation"),
            (".decl e(x) keys(x)\nr(x) :- e($min(x)).\n", "only allowed in rule heads"),
            (".decl e(x, y) keys(x)\nr(x, frob(x, y)) :- e(x, y).\n", "unknown function"),
            (".decl e(x) keys(x)\n.output nope\n", "unknown relation"),
            ("@", "unexpected character"),
        ],
    )
    def test_messages(self, src, needle):
        with pytest.raises(DatalogSyntaxError, match=needle):
            parse_program(src)

    def test_error_carries_position(self):
        try:
            parse_program(".decl e(x) keys(x)\ne(y).\n")
        except DatalogSyntaxError as err:
            assert err.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


class TestEndToEnd:
    def test_parsed_program_runs(self):
        parsed = parse_program(SSSP_SRC)
        engine = Engine(parsed.program, EngineConfig(n_ranks=4))
        for name, rows in parsed.facts.items():
            engine.load(name, rows)
        result = engine.run()
        assert (0, 2, 5) in result.query("spath")

    def test_parsed_matches_oracle(self):
        parsed = parse_program(SSSP_SRC)
        oracle = interpret(parsed.program, parsed.facts)
        engine = Engine(parsed.program, EngineConfig(n_ranks=7))
        for name, rows in parsed.facts.items():
            engine.load(name, rows)
        assert engine.run().query("spath") == oracle["spath"]

    @pytest.mark.parametrize(
        "src,expected",
        [
            # $count(w) used to sum w (14 and 0); the interpreter shared the
            # wrong AggTerm, so the differential oracle agreed with it.
            (
                "e(1, 5).  e(1, 9).  e(4, 0).\ndeg(x, $count(w)) :- e(x, w).\n",
                {"deg": {(1, 2), (4, 1)}},
            ),
            (
                "e(5, -3).  e(5, 2).  e(-1, 0).\nlow(x, $min(w)) :- e(x, w).\n",
                {"low": {(5, -3), (-1, 0)}},
            ),
        ],
        ids=["count", "negative-literals"],
    )
    def test_count_and_negative_facts_run(self, src, expected):
        parsed = parse_program(".decl e(x, w) keys(x)\n" + src)
        oracle = interpret(parsed.program, parsed.facts)
        assert {name: oracle[name] for name in expected} == expected
        engine = Engine(parsed.program, EngineConfig(n_ranks=3))
        for name, rows in parsed.facts.items():
            engine.load(name, rows)
        result = engine.run()
        for name, want in expected.items():
            assert result.query(name) == want

    def test_cli_query_command(self, capsys, tmp_path):
        from repro.cli import main

        src = tmp_path / "prog.dl"
        src.write_text(SSSP_SRC)
        assert main(["query", str(src), "--ranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "spath(0, 2, 5)" in out

    def test_cli_query_with_facts_file(self, capsys, tmp_path):
        from repro.cli import main

        src = tmp_path / "prog.dl"
        src.write_text(
            ".decl e(x, y) keys(x)\n"
            "r(x, y) :- e(x, y).\n"
            "r(x, z) :- r(x, y), e(y, z).\n"
            ".output r\n"
        )
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n")
        assert main(
            ["query", str(src), "--ranks", "2", "--facts", f"e={edges}"]
        ) == 0
        assert "r(0, 2)" in capsys.readouterr().out

    def test_example_programs_parse_and_run(self, capsys):
        import pathlib

        from repro.cli import main

        programs = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "programs"
        )
        for prog in ("sssp.dl", "cc.dl"):
            assert main(["query", str(programs / prog), "--ranks", "4"]) == 0
