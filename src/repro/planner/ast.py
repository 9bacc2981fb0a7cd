"""AST for Datalog-with-recursive-aggregates, plus the user-facing DSL.

The surface mirrors the paper's notation.  ``Rel`` objects are callable and
produce :class:`Atom`; ``atom <= body`` builds a :class:`Rule`; arithmetic
on :class:`Var`/:class:`Expr` builds expression trees; ``MIN(expr)`` etc.
wrap an expression in an aggregate head term::

    spath(f, t, MIN(l + n)) <= (spath(f, m, l), edge(m, t, n))

All AST nodes are immutable and hashable so they can key caches and be
compared structurally in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union


# --------------------------------------------------------------------- terms


class Expr:
    """Base of arithmetic expression nodes (usable as head terms)."""

    def __add__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", self, _expr(other))

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", _expr(other), self)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", self, _expr(other))

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", _expr(other), self)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", self, _expr(other))

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", _expr(other), self)

    def __floordiv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("//", self, _expr(other))

    def __rfloordiv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("//", _expr(other), self)

    def variables(self) -> Tuple["Var", ...]:
        """All variables referenced, in first-occurrence order."""
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Expr):
    """A logic variable."""

    name: str

    def variables(self) -> Tuple["Var", ...]:
        return (self,)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expr):
    """An integer constant."""

    value: int

    def variables(self) -> Tuple[Var, ...]:
        return ()

    def __repr__(self) -> str:
        return repr(self.value)


_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
    "min": min,
    "max": max,
}

#: Operators rendered as infix by the pretty-printer; every other name
#: is rendered as a function call.
_INFIX_OPS = ("+", "-", "*", "//")

#: The built-in operators, which ``register_function`` may not replace:
#: the engine evaluates them with their own numpy ufuncs.
_BUILTIN_OPS = frozenset(_BINOPS)


def register_function(name: str, fn: Callable[[int, int], int]) -> None:
    """Register a custom binary scalar function usable in head expressions.

    The name must be a Python identifier; after registration,
    ``BinOp(name, a, b)`` may appear in rule heads (e.g. a ``gcd`` used
    inside a custom recursive aggregate — see examples/custom_aggregate.py).
    A built-in operator's name (``+ - * // min max``) is refused;
    registering a custom name again replaces its function.
    """
    if not name.isidentifier():
        raise ValueError(f"function name must be an identifier, got {name!r}")
    if name in _BUILTIN_OPS:
        raise ValueError(f"{name!r} is a built-in operator and cannot be replaced")
    _BINOPS[name] = fn


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic over terms (evaluated during head emission)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise ValueError(f"unsupported operator {self.op!r}; known: {sorted(_BINOPS)}")

    def variables(self) -> Tuple[Var, ...]:
        seen: List[Var] = []
        for v in self.left.variables() + self.right.variables():
            if v not in seen:
                seen.append(v)
        return tuple(seen)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


ExprLike = Union[Expr, int]


def _expr(x: ExprLike) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, int):
        return Const(x)
    raise TypeError(f"cannot use {x!r} as an expression term")


@dataclass(frozen=True)
class AggTerm:
    """An aggregate head term, e.g. ``$MIN(l + n)``.

    Only valid in rule heads, in trailing positions; the planner maps each
    aggregate term to one dependent column of the head relation.
    """

    func: str
    expr: Expr

    def variables(self) -> Tuple[Var, ...]:
        return self.expr.variables()

    def __repr__(self) -> str:
        return f"${self.func.upper()}({self.expr!r})"


def MIN(expr: ExprLike) -> AggTerm:
    """``$MIN`` head aggregate (paper Listing 2)."""
    return AggTerm("min", _expr(expr))


def MAX(expr: ExprLike) -> AggTerm:
    """``$MAX`` head aggregate."""
    return AggTerm("max", _expr(expr))


def MCOUNT(expr: ExprLike) -> AggTerm:
    """``$MCOUNT`` monotonic-count head aggregate."""
    return AggTerm("mcount", _expr(expr))


def ANY(expr: ExprLike) -> AggTerm:
    """``$ANY`` saturating-flag head aggregate."""
    return AggTerm("any", _expr(expr))


def UNION(expr: ExprLike) -> AggTerm:
    """``$UNION`` bitset-union head aggregate."""
    return AggTerm("union", _expr(expr))


def SUM(expr: ExprLike) -> AggTerm:
    """Stratified ``SUM`` aggregate (non-recursive strata only, §II-B)."""
    return AggTerm("sum", _expr(expr))


def COUNT() -> AggTerm:
    """Stratified ``COUNT`` aggregate — sums a 1 per body substitution."""
    return AggTerm("count", Const(1))


TermLike = Union[Expr, AggTerm, int]
Term = Union[Expr, AggTerm]


def _term(x: TermLike) -> Term:
    if isinstance(x, AggTerm):
        return x
    return _expr(x)


# --------------------------------------------------------------------- atoms


@dataclass(frozen=True)
class Atom:
    """``relation(term, ...)`` — in a head or a body."""

    relation: str
    terms: Tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)

    def agg_terms(self) -> Tuple[Tuple[int, AggTerm], ...]:
        return tuple(
            (i, t) for i, t in enumerate(self.terms) if isinstance(t, AggTerm)
        )

    def variables(self) -> Tuple[Var, ...]:
        seen: List[Var] = []
        for t in self.terms:
            for v in t.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def __le__(self, body: Union["Atom", Sequence["Atom"]]) -> "Rule":
        """``head <= body`` builds a rule (the DSL's ``←``)."""
        atoms = (body,) if isinstance(body, Atom) else tuple(body)
        return Rule(head=self, body=atoms)

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"


class Rel:
    """A relation-name handle; calling it builds an :class:`Atom`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __call__(self, *terms: TermLike) -> Atom:
        return Atom(self.name, tuple(_term(t) for t in terms))

    def __repr__(self) -> str:
        return f"Rel({self.name!r})"


# --------------------------------------------------------------------- rules


@dataclass(frozen=True)
class Rule:
    """A Horn clause, optionally with aggregate head terms."""

    head: Atom
    body: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError(f"rule for {self.head.relation!r} has an empty body")
        # Rules with more than two body atoms are legal at the surface; the
        # compiler decomposes them into a chain of binary joins through
        # auxiliary relations (the engine's kernels are binary, paper §III).
        aggs = self.head.agg_terms()
        if aggs:
            first = aggs[0][0]
            expected = tuple(range(first, self.head.arity))
            if tuple(i for i, _ in aggs) != expected:
                raise ValueError(
                    f"aggregate terms of {self.head!r} must occupy trailing "
                    "positions (dependent columns are trailing by convention)"
                )
        for atom in self.body:
            for t in atom.terms:
                if isinstance(t, AggTerm):
                    raise ValueError(
                        f"aggregate term {t!r} not allowed in body atom {atom!r}"
                    )
        # Range restriction: every head variable must be bound by the body.
        bound = {v for atom in self.body for v in atom.variables()}
        for v in self.head.variables():
            if v not in bound:
                raise ValueError(
                    f"head variable {v!r} of {self.head!r} is unbound in the body"
                )

    @property
    def n_dep(self) -> int:
        return len(self.head.agg_terms())

    @property
    def is_join(self) -> bool:
        return len(self.body) == 2

    def __repr__(self) -> str:
        return f"{self.head!r} <= {', '.join(repr(a) for a in self.body)}"


def vars_(names: str) -> Tuple[Var, ...]:
    """``f, t = vars_("f t")`` — convenience variable factory."""
    return tuple(Var(n) for n in names.split())


# ------------------------------------------------------------------- program


@dataclass(frozen=True)
class EdbDecl:
    """Declaration of an extensional (input) relation."""

    name: str
    arity: int
    join_cols: Tuple[int, ...]
    n_subbuckets: int = 1


@dataclass(frozen=True)
class Program:
    """A complete query: rules plus extensional relation declarations."""

    rules: Tuple[Rule, ...]
    edb: Tuple[EdbDecl, ...] = field(default=())

    def __init__(
        self,
        rules: Iterable[Rule],
        edb: Union[Mapping[str, Tuple[int, Tuple[int, ...]]], Iterable[EdbDecl]] = (),
    ):
        object.__setattr__(self, "rules", tuple(rules))
        if isinstance(edb, Mapping):
            decls = tuple(
                EdbDecl(name, arity, tuple(jc)) for name, (arity, jc) in edb.items()
            )
        else:
            decls = tuple(edb)
        object.__setattr__(self, "edb", decls)
        names = [d.name for d in decls]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate EDB declarations: {names}")
        heads = {r.head.relation for r in self.rules}
        clash = heads & set(names)
        if clash:
            raise ValueError(f"relations declared EDB but derived by rules: {sorted(clash)}")

    def idb_relations(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for r in self.rules:
            if r.head.relation not in seen:
                seen.append(r.head.relation)
        return tuple(seen)

    def edb_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.edb)
