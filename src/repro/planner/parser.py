"""A textual Datalog front end for PARALAGG programs.

The library API builds programs from Python objects; this module adds the
surface language a standalone engine would ship, in the familiar
Soufflé/BigDatalog style with the paper's ``$MIN``-in-head aggregates::

    // single-source shortest paths (paper §II-C)
    .decl edge(x, y, w) keys(x) subbuckets(8)
    .decl start(n) keys(n)

    start(0).                          // inline facts
    edge(0, 1, 4).  edge(1, 2, 1).

    spath(n, n, 0)          :- start(n).
    spath(f, t, $min(l+w))  :- spath(f, m, l), edge(m, t, w).

    .output spath

Grammar (EBNF-ish)::

    program    := (decl | directive | clause)*
    decl       := ".decl" NAME "(" params ")" [ "keys" "(" names ")" ]
                                             [ "subbuckets" "(" INT ")" ]
    directive  := ".output" NAME | ".input" NAME STRING
    clause     := atom ":-" atom ("," atom)* "."     -- rule
                | atom "."                           -- ground fact
    atom       := NAME "(" term ("," term)* ")"
    term       := expr | "$" NAME "(" expr ")"       -- aggregate in heads
    expr       := additive with "+" "-" over "*" "/" (integer division),
                  unary "-" (so "-3" is a literal), parentheses, INT,
                  NAME (variable), "_" (wildcard), and registered binary
                  functions: min(a,b), max(a,b), ...
                  ("//" starts a comment, so division is spelled "/")

``$count(expr)`` counts body substitutions — one per match, whatever
``expr`` names — like the AST's ``COUNT()``; ``$sum(expr)`` adds ``expr``.

Comments: ``//`` and ``#`` to end of line.  The parser is a hand-written
recursive-descent over a regex tokenizer; errors carry line/column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.planner.ast import (
    AggTerm,
    Atom,
    BinOp,
    Const,
    EdbDecl,
    Expr,
    Program,
    Rule,
    Var,
    _BINOPS,
)

TupleT = Tuple[int, ...]


class DatalogSyntaxError(ValueError):
    """A parse failure, annotated with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>(//|\#)[^\n]*)
  | (?P<decl>\.[A-Za-z_][A-Za-z0-9_]*)
  | (?P<turnstile>:-)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<agg>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<punct>[(),.+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DatalogSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class ParsedProgram:
    """Result of parsing a source file."""

    program: Program
    #: ground facts given inline, per relation
    facts: Dict[str, List[TupleT]]
    #: ``.input name "path"`` directives (resolved by the caller/CLI)
    inputs: Dict[str, str]
    #: ``.output`` relations, in order
    outputs: Tuple[str, ...]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    # ------------------------------------------------------------- utilities

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def _error(self, message: str) -> DatalogSyntaxError:
        return DatalogSyntaxError(message, self.cur.line, self.cur.col)

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self._error(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self._advance()
        return None

    # --------------------------------------------------------------- program

    def parse(self) -> ParsedProgram:
        rules: List[Rule] = []
        decls: List[EdbDecl] = []
        facts: Dict[str, List[TupleT]] = {}
        inputs: Dict[str, str] = {}
        outputs: List[str] = []
        while self.cur.kind != "eof":
            if self.cur.kind == "decl":
                word = self.cur.text
                if word == ".decl":
                    decls.append(self._parse_decl())
                elif word == ".output":
                    self._advance()
                    outputs.append(self._expect("name").text)
                elif word == ".input":
                    self._advance()
                    name = self._expect("name").text
                    path = self._expect("string").text.strip('"')
                    inputs[name] = path
                else:
                    raise self._error(f"unknown directive {word!r}")
                continue
            clause = self._parse_clause()
            if isinstance(clause, Rule):
                rules.append(clause)
            else:
                name, row = clause
                facts.setdefault(name, []).append(row)
        derived = {r.head.relation for r in rules}
        program = Program(
            rules=rules,
            edb=[d for d in decls if d.name not in derived],
        )
        for name in facts:
            if name not in {d.name for d in decls} and name not in derived:
                raise DatalogSyntaxError(
                    f"facts given for undeclared relation {name!r}", 0, 0
                )
        for name in outputs:
            if name not in derived and name not in {d.name for d in decls}:
                raise DatalogSyntaxError(
                    f".output names unknown relation {name!r}", 0, 0
                )
        return ParsedProgram(
            program=program,
            facts=facts,
            inputs=inputs,
            outputs=tuple(outputs),
        )

    # ------------------------------------------------------------------ decl

    def _parse_decl(self) -> EdbDecl:
        self._expect("decl", ".decl")
        name = self._expect("name").text
        self._expect("punct", "(")
        params: List[str] = [self._expect("name").text]
        while self._accept("punct", ","):
            params.append(self._expect("name").text)
        self._expect("punct", ")")
        keys: Tuple[int, ...] = (0,)
        n_subbuckets = 1
        while self.cur.kind == "name" and self.cur.text in ("keys", "subbuckets"):
            word = self._advance().text
            self._expect("punct", "(")
            if word == "keys":
                key_names = [self._expect("name").text]
                while self._accept("punct", ","):
                    key_names.append(self._expect("name").text)
                missing = [k for k in key_names if k not in params]
                if missing:
                    raise self._error(
                        f"keys {missing} are not parameters of {name!r}"
                    )
                keys = tuple(sorted(params.index(k) for k in key_names))
            else:
                n_subbuckets = int(self._expect("int").text)
            self._expect("punct", ")")
        return EdbDecl(
            name=name, arity=len(params), join_cols=keys, n_subbuckets=n_subbuckets
        )

    # ---------------------------------------------------------------- clause

    def _parse_clause(self):
        start_tok = self.cur
        head = self._parse_atom(allow_agg=True)
        if self._accept("turnstile"):
            body = [self._parse_atom(allow_agg=False)]
            while self._accept("punct", ","):
                body.append(self._parse_atom(allow_agg=False))
            self._expect("punct", ".")
            return Rule(head=head, body=tuple(body))
        self._expect("punct", ".")
        row: List[int] = []
        for term in head.terms:
            if not isinstance(term, Const):
                raise DatalogSyntaxError(
                    f"fact {head.relation!r} must be ground (integer arguments)",
                    start_tok.line,
                    start_tok.col,
                )
            row.append(term.value)
        return head.relation, tuple(row)

    def _parse_atom(self, *, allow_agg: bool) -> Atom:
        name = self._expect("name").text
        self._expect("punct", "(")
        terms = [self._parse_term(allow_agg)]
        while self._accept("punct", ","):
            terms.append(self._parse_term(allow_agg))
        self._expect("punct", ")")
        return Atom(name, tuple(terms))

    def _parse_term(self, allow_agg: bool):
        if self.cur.kind == "agg":
            if not allow_agg:
                raise self._error("aggregates are only allowed in rule heads")
            func = self._advance().text[1:].lower()
            self._expect("punct", "(")
            expr = self._parse_expr()
            self._expect("punct", ")")
            if func == "count":
                # COUNT sums a 1 per body substitution, whatever it names.
                expr = Const(1)
            return AggTerm(func, expr)
        return self._parse_expr()

    # ------------------------------------------------------------ expressions

    def _parse_expr(self) -> Expr:
        left = self._parse_mul()
        while True:
            if self._accept("punct", "+"):
                left = BinOp("+", left, self._parse_mul())
            elif self._accept("punct", "-"):
                left = BinOp("-", left, self._parse_mul())
            else:
                return left

    def _parse_mul(self) -> Expr:
        left = self._parse_primary()
        while True:
            if self._accept("punct", "*"):
                left = BinOp("*", left, self._parse_primary())
            elif self._accept("punct", "/"):
                # surface '/' is integer division ('//' starts a comment)
                left = BinOp("//", left, self._parse_primary())
            else:
                return left

    def _parse_primary(self) -> Expr:
        if self._accept("punct", "("):
            inner = self._parse_expr()
            self._expect("punct", ")")
            return inner
        if self.cur.kind == "int":
            return Const(int(self._advance().text))
        if self._accept("punct", "-"):
            operand = self._parse_primary()
            if isinstance(operand, Const):  # a negative literal, e.g. in a fact
                return Const(-operand.value)
            return BinOp("-", Const(0), operand)
        if self.cur.kind == "name":
            name = self._advance().text
            # function call: a registered binary function like min(a, b)
            if self.cur.kind == "punct" and self.cur.text == "(":
                if name not in _BINOPS:
                    raise self._error(
                        f"unknown function {name!r}; register_function() first"
                    )
                self._advance()
                a = self._parse_expr()
                self._expect("punct", ",")
                b = self._parse_expr()
                self._expect("punct", ")")
                return BinOp(name, a, b)
            return Var(name)
        raise self._error(f"expected a term, found {self.cur.text!r}")


def parse_program(text: str) -> ParsedProgram:
    """Parse Datalog source text into a runnable :class:`ParsedProgram`."""
    return _Parser(text).parse()
