"""Rule compilation: AST → positional join/copy kernels + inferred schemas.

This is the "query optimizer front half" of the reproduction.  For every
rule it precomputes everything the runtime's hot loops need:

* per-atom **match predicates** (constants and repeated variables) over
  row blocks,
* the **shared variables** of a join and both **probe-key columns**
  (outer may be either side under dynamic join planning, so both
  directions are compiled),
* a **head emitter** evaluating head terms (including aggregate
  expressions like ``MIN(l + n)``) over the matched body row blocks.

It also infers each IDB relation's :class:`~repro.relational.schema.Schema`
(arity, dependent columns, aggregator, canonical join columns) and enforces
the paper's static restriction: *aggregated columns are never joined upon
within a fixpoint* (§III-A) — the property that licenses communication-free
local aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.aggregators import make_aggregator
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
from repro.planner.stratify import Stratum, stratify
from repro.relational.schema import Schema

WILDCARD = "_"


def _is_wild(v: Var) -> bool:
    return v.name == WILDCARD


def _var_positions(atom: Atom) -> Dict[str, int]:
    """First-occurrence position of each (non-wildcard) variable."""
    out: Dict[str, int] = {}
    for i, t in enumerate(atom.terms):
        if isinstance(t, Var) and not _is_wild(t) and t.name not in out:
            out[t.name] = i
    return out


def _match_checks(atom: Atom) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Constant filters + repeated-variable equality pairs for one atom."""
    const_checks: List[Tuple[int, int]] = []
    eq_checks: List[Tuple[int, int]] = []
    first: Dict[str, int] = {}
    for i, t in enumerate(atom.terms):
        if isinstance(t, Const):
            const_checks.append((i, t.value))
        elif isinstance(t, Var) and not _is_wild(t):
            if t.name in first:
                eq_checks.append((first[t.name], i))
            else:
                first[t.name] = i
        elif isinstance(t, Var):
            continue
        else:
            raise ValueError(
                f"body atom {atom!r} may contain only variables and constants, "
                f"found {t!r}"
            )
    return const_checks, eq_checks


class BlockMatch:
    """One body atom's constant filters and repeated-variable equalities,
    as a predicate over a row block: rows → bool mask."""

    __slots__ = ("const_checks", "eq_checks")

    def __init__(
        self,
        const_checks: Sequence[Tuple[int, int]],
        eq_checks: Sequence[Tuple[int, int]],
    ):
        self.const_checks = tuple(const_checks)
        self.eq_checks = tuple(eq_checks)

    def mask(self, rows: np.ndarray) -> np.ndarray:
        mask = np.ones(rows.shape[0], dtype=bool)
        for i, v in self.const_checks:
            mask &= rows[:, i] == v
        for i, j in self.eq_checks:
            mask &= rows[:, i] == rows[:, j]
        return mask


def _compile_match_block(atom: Atom) -> Optional[BlockMatch]:
    const_checks, eq_checks = _match_checks(atom)
    if not const_checks and not eq_checks:
        return None
    return BlockMatch(const_checks, eq_checks)


Binding = Dict[str, Tuple[int, int]]  # var name -> (side, column); side 0=left


# Binary operators with a numpy ufunc.  ``//`` is handled separately
# (numpy yields 0 on zero divisors where Python raises); every operator
# added with ``register_function`` runs its own function over the two
# columns through ``np.frompyfunc`` — one Python call per row, exact.
_VECTOR_OPS: Dict[str, Callable[..., np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def _block_floordiv(a, b):
    if isinstance(b, (int, np.integer)):
        if b == 0:
            raise ZeroDivisionError("integer division or modulo by zero")
    elif not np.all(b):
        raise ZeroDivisionError("integer division or modulo by zero")
    return a // b


def _custom_op(fn: Callable[[int, int], int]) -> Callable:
    """A registered function's array form: ``fn`` over the two columns,
    one Python call per row, cast back to int64 (the call returns an
    object array, or a Python int when both sides are constant)."""
    ufunc = np.frompyfunc(fn, 2, 1)
    return lambda a, b: np.asarray(ufunc(a, b), dtype=np.int64)


def _compile_term_block(expr: Expr, binding: Binding) -> Callable:
    """Compile one head expression to a block evaluator over (lt, rt).

    The evaluator returns either an int64 column or a Python int (a
    constant subtree, broadcast at assignment).
    """
    if isinstance(expr, Const):
        v = int(expr.value)
        return lambda lt, rt: v
    if isinstance(expr, Var):
        if _is_wild(expr):
            raise ValueError("wildcard '_' cannot appear in a rule head")
        try:
            side, col = binding[expr.name]
        except KeyError:
            raise ValueError(f"head variable {expr.name!r} unbound in body") from None
        if side == 0:
            return lambda lt, rt: lt[:, col]
        return lambda lt, rt: rt[:, col]
    if isinstance(expr, BinOp):
        lf = _compile_term_block(expr.left, binding)
        rf = _compile_term_block(expr.right, binding)
        if expr.op == "//":
            return lambda lt, rt: _block_floordiv(lf(lt, rt), rf(lt, rt))
        op = _VECTOR_OPS.get(expr.op) or _custom_op(_BINOPS[expr.op])
        return lambda lt, rt: op(lf(lt, rt), rf(lt, rt))
    raise TypeError(f"cannot compile expression {expr!r}")


class EmitSpec:
    """Head emitter: evaluate every head term over row-blocks.

    ``eval_block(lt, rt)`` computes the ``(n, arity)`` head block for
    ``n`` matched pairs; ``lt``/``rt`` are the gathered left/right body
    blocks (``rt`` may be None for copy rules).
    """

    __slots__ = ("_fns", "arity")

    def __init__(self, head: Atom, binding: Binding):
        self._fns = tuple(
            _compile_term_block(t.expr if isinstance(t, AggTerm) else t, binding)
            for t in head.terms
        )
        self.arity = len(self._fns)

    def eval_block(self, lt: Optional[np.ndarray], rt: Optional[np.ndarray]) -> np.ndarray:
        n = lt.shape[0] if lt is not None else rt.shape[0]
        out = np.empty((n, self.arity), dtype=np.int64)
        for i, fn in enumerate(self._fns):
            out[:, i] = fn(lt, rt)
        return out


@dataclass
class CompiledRule:
    """Executable form of one rule."""

    rule: Rule
    head_name: str
    is_join: bool
    #: Per body atom: relation name.
    body_names: Tuple[str, ...]
    #: Join-only fields -------------------------------------------------
    #: Key columns in each atom (ascending) — these become the relations'
    #: canonical join columns.
    left_key_cols: Tuple[int, ...] = ()
    right_key_cols: Tuple[int, ...] = ()
    #: Probe the RIGHT index with key values drawn from a LEFT tuple at
    #: these positions (ordered to match right_key_cols), and vice versa.
    probe_from_left: Tuple[int, ...] = ()
    probe_from_right: Tuple[int, ...] = ()
    #: Per body atom: optional selection predicate; and the head emitter.
    matches_block: Tuple[Optional[BlockMatch], ...] = field(repr=False, default=())
    emit_spec: Optional[EmitSpec] = field(repr=False, default=None)

    def __repr__(self) -> str:
        return f"CompiledRule({self.rule!r})"


def _compile_rule(rule: Rule) -> CompiledRule:
    head = rule.head
    if not rule.is_join:
        (atom,) = rule.body
        binding: Binding = {
            name: (0, pos) for name, pos in _var_positions(atom).items()
        }
        return CompiledRule(
            rule=rule,
            head_name=head.relation,
            is_join=False,
            body_names=(atom.relation,),
            matches_block=(_compile_match_block(atom),),
            emit_spec=EmitSpec(head, binding),
        )

    left, right = rule.body
    lpos, rpos = _var_positions(left), _var_positions(right)
    shared = sorted(set(lpos) & set(rpos), key=lambda n: lpos[n])
    if not shared:
        raise ValueError(
            f"rule {rule!r} joins {left.relation} and {right.relation} with no "
            "shared variable (cartesian products are not supported — bind a "
            "shared key)"
        )
    left_key_cols = tuple(sorted(lpos[n] for n in shared))
    right_key_cols = tuple(sorted(rpos[n] for n in shared))
    var_at_left = {lpos[n]: n for n in shared}
    var_at_right = {rpos[n]: n for n in shared}
    # probe_from_left[i] = the LEFT column holding the variable stored at
    # the RIGHT relation's i-th key column (and symmetrically).
    probe_from_left = tuple(lpos[var_at_right[c]] for c in right_key_cols)
    probe_from_right = tuple(rpos[var_at_left[c]] for c in left_key_cols)
    binding = {name: (0, pos) for name, pos in lpos.items()}
    for name, pos in rpos.items():
        binding.setdefault(name, (1, pos))
    return CompiledRule(
        rule=rule,
        head_name=head.relation,
        is_join=True,
        body_names=(left.relation, right.relation),
        matches_block=(_compile_match_block(left), _compile_match_block(right)),
        emit_spec=EmitSpec(head, binding),
        left_key_cols=left_key_cols,
        right_key_cols=right_key_cols,
        probe_from_left=probe_from_left,
        probe_from_right=probe_from_right,
    )


def _decompose_rule(rule: Rule, counter: List[int]) -> List[Rule]:
    """Rewrite an n-atom rule (n > 2) into a chain of binary joins.

    ``H ← A₁, A₂, …, Aₙ`` becomes::

        aux₁(V₁) ← A₁, A₂
        aux₂(V₂) ← aux₁(V₁), A₃
        …
        H        ← auxₙ₋₂(Vₙ₋₂), Aₙ

    where each ``Vᵢ`` is the set of variables bound so far that later atoms
    or the head still need (the classic left-deep chain plan).  Aggregates
    stay in the final rule's head, so the engine's restriction analysis is
    unchanged.  Auxiliary relation names are ``__aux<i>_<head>`` — double
    underscore marks them internal; they appear in results like any IDB.
    """
    if len(rule.body) <= 2:
        return [rule]
    atoms = list(rule.body)
    head_vars = {v.name for v in rule.head.variables() if v.name != WILDCARD}
    out: List[Rule] = []
    prefix = atoms[0]
    bound = {v.name for v in prefix.variables() if v.name != WILDCARD}
    for i in range(1, len(atoms) - 1):
        atom = atoms[i]
        bound |= {v.name for v in atom.variables() if v.name != WILDCARD}
        needed_later = set(head_vars)
        for later in atoms[i + 1:]:
            needed_later |= {
                v.name for v in later.variables() if v.name != WILDCARD
            }
        carry = sorted(bound & needed_later)
        if not carry:
            raise ValueError(
                f"rule {rule!r}: no variables connect atoms {i + 1} and the "
                "rest — reorder the body so consecutive atoms share variables"
            )
        counter[0] += 1
        aux = Atom(
            f"__aux{counter[0]}_{rule.head.relation}",
            tuple(Var(name) for name in carry),
        )
        out.append(Rule(head=aux, body=(prefix, atom)))
        prefix = aux
    out.append(Rule(head=rule.head, body=(prefix, atoms[-1])))
    return out


def decompose_program(program: Program) -> Program:
    """Replace every n-ary (n > 2) rule with its binary chain."""
    if all(len(r.body) <= 2 for r in program.rules):
        return program
    counter = [0]
    rules: List[Rule] = []
    for rule in program.rules:
        rules.extend(_decompose_rule(rule, counter))
    return Program(rules=rules, edb=program.edb)


def _atom_key_cols(atom: Atom, other: Atom) -> Tuple[int, ...]:
    """The join-key columns this atom needs against ``other`` (ascending)."""
    apos, bpos = _var_positions(atom), _var_positions(other)
    return tuple(sorted(apos[n] for n in set(apos) & set(bpos)))


def add_index_copies(program: Program) -> Program:
    """Materialize copy relations for secondary access paths.

    BPRA stores one index per relation; when rules join a relation on two
    different column sets, real systems materialize an extra indexed copy
    kept in sync by a copy rule (Soufflé's auto-index / slog's indices).
    This rewrite does exactly that::

        tri(x,y,z) ← e(x,y), e(y,z), e(z,x)      -- e needed on (0), (1), (0,1)

    becomes (after chain decomposition) rules over ``e`` plus::

        __idx_e_1(v0, v1) ← e(v0, v1)            -- keyed on column 1
        ...

    Aggregate relations are copied *as aggregates* (the copy folds the
    same lattice), so a secondary index over e.g. ``spath`` holds exactly
    the current accumulators, never stale partial values.
    """
    # aggregate structure per relation, from head aggregate terms
    agg_at: Dict[str, Dict[int, str]] = {}
    arity_of: Dict[str, int] = {d.name: d.arity for d in program.edb}
    for rule in program.rules:
        arity_of.setdefault(rule.head.relation, rule.head.arity)
        for pos, term in rule.head.agg_terms():
            agg_at.setdefault(rule.head.relation, {})[pos] = term.func
        for atom in rule.body:
            arity_of.setdefault(atom.relation, atom.arity)

    canonical: Dict[str, Tuple[int, ...]] = {
        d.name: tuple(d.join_cols) for d in program.edb
    }
    copies: Dict[Tuple[str, Tuple[int, ...]], str] = {}
    new_rules: List[Rule] = []

    def atom_for(atom: Atom, key: Tuple[int, ...]) -> Atom:
        name = atom.relation
        if not key:
            return atom
        owner = canonical.setdefault(name, key)
        if owner == key:
            return atom
        copy_key = (name, key)
        copy_name = copies.get(copy_key)
        if copy_name is None:
            copy_name = f"__idx_{name}_" + "_".join(map(str, key))
            copies[copy_key] = copy_name
            canonical[copy_name] = key
        return Atom(copy_name, atom.terms)

    for rule in program.rules:
        if len(rule.body) != 2:
            new_rules.append(rule)
            continue
        left, right = rule.body
        lkey = _atom_key_cols(left, right)
        rkey = _atom_key_cols(right, left)
        new_left = atom_for(left, lkey)
        new_right = atom_for(right, rkey)
        if new_left is left and new_right is right:
            new_rules.append(rule)
        else:
            new_rules.append(Rule(head=rule.head, body=(new_left, new_right)))

    if not copies:
        return program

    # copy rules keeping each index in sync with its base relation
    for (base, _key), copy_name in copies.items():
        arity = arity_of[base]
        body_vars = tuple(Var(f"v{i}") for i in range(arity))
        head_terms: List = []
        for i in range(arity):
            func = agg_at.get(base, {}).get(i)
            head_terms.append(
                AggTerm(func, Var(f"v{i}")) if func else Var(f"v{i}")
            )
        new_rules.append(
            Rule(head=Atom(copy_name, tuple(head_terms)), body=(Atom(base, body_vars),))
        )
    return Program(rules=new_rules, edb=program.edb)


@dataclass
class RelationInfo:
    """Accumulated facts about one relation during schema inference."""

    name: str
    arity: Optional[int] = None
    dep_positions: Set[int] = field(default_factory=set)
    #: aggregate function name(s) used at each dependent position
    agg_funcs: Dict[int, Set[str]] = field(default_factory=dict)
    required_keys: Set[Tuple[int, ...]] = field(default_factory=set)
    is_edb: bool = False


@dataclass
class CompiledProgram:
    """Everything the runtime engine needs to execute a program."""

    program: Program
    schemas: Dict[str, Schema]
    strata: List[Stratum]
    compiled: Dict[Rule, CompiledRule]

    def rules_of(self, stratum: Stratum) -> List[CompiledRule]:
        return [self.compiled[r] for r in stratum.rules]


def compile_program(
    program: Program,
    *,
    subbuckets: Optional[Dict[str, int]] = None,
    default_subbuckets: int = 1,
) -> CompiledProgram:
    """Compile a program: rules → kernels, relations → schemas, strata.

    Parameters
    ----------
    subbuckets:
        Per-relation spatial load-balancing overrides (§IV-C); unlisted
        relations get ``default_subbuckets``.
    """
    subbuckets = subbuckets or {}
    program = decompose_program(program)
    program = add_index_copies(program)
    infos: Dict[str, RelationInfo] = {}

    def info(name: str) -> RelationInfo:
        return infos.setdefault(name, RelationInfo(name))

    for decl in program.edb:
        ri = info(decl.name)
        ri.arity = decl.arity
        ri.is_edb = True
        ri.required_keys.add(tuple(decl.join_cols))

    compiled: Dict[Rule, CompiledRule] = {}
    for rule in program.rules:
        cr = _compile_rule(rule)
        compiled[rule] = cr
        hi = info(rule.head.relation)
        if hi.arity is None:
            hi.arity = rule.head.arity
        elif hi.arity != rule.head.arity:
            raise ValueError(
                f"relation {rule.head.relation!r} used with arities "
                f"{hi.arity} and {rule.head.arity}"
            )
        for pos, aggt in rule.head.agg_terms():
            hi.dep_positions.add(pos)
            hi.agg_funcs.setdefault(pos, set()).add(aggt.func)
        for atom in rule.body:
            bi = info(atom.relation)
            if bi.arity is None:
                bi.arity = atom.arity
            elif bi.arity != atom.arity:
                raise ValueError(
                    f"relation {atom.relation!r} used with arities "
                    f"{bi.arity} and {atom.arity}"
                )
        if cr.is_join:
            info(cr.body_names[0]).required_keys.add(cr.left_key_cols)
            info(cr.body_names[1]).required_keys.add(cr.right_key_cols)

    # ------------------------------------------------------- build schemas
    schemas: Dict[str, Schema] = {}
    for name, ri in infos.items():
        if ri.arity is None:
            raise ValueError(f"relation {name!r} has unknown arity")
        for pos, funcs in ri.agg_funcs.items():
            if len(funcs) > 1:
                raise ValueError(
                    f"relation {name!r} column {pos} aggregated with multiple "
                    f"functions {sorted(funcs)}; one aggregate per column"
                )
        n_dep = len(ri.dep_positions)
        if n_dep and ri.dep_positions != set(range(ri.arity - n_dep, ri.arity)):
            raise ValueError(
                f"relation {name!r}: aggregate positions {sorted(ri.dep_positions)} "
                "must be the trailing columns in every rule"
            )
        n_indep = ri.arity - n_dep
        join_keys = {k for k in ri.required_keys}
        if len(join_keys) > 1:
            raise ValueError(
                f"relation {name!r} is joined on conflicting column sets "
                f"{sorted(join_keys)}; materialize a copy relation for the "
                "second access path (secondary indices are not supported)"
            )
        if join_keys:
            join_cols = next(iter(join_keys))
            bad = [c for c in join_cols if c >= n_indep]
            if bad:
                raise ValueError(
                    f"relation {name!r}: aggregated column(s) {bad} are joined "
                    "upon — this violates the restriction that licenses "
                    "communication-avoiding aggregation (paper §III-A)"
                )
        else:
            join_cols = tuple(range(n_indep))
        if n_dep == 0:
            aggregator = None
        else:
            per_pos = [
                make_aggregator(next(iter(ri.agg_funcs[pos])))
                for pos in sorted(ri.dep_positions)
            ]
            if len(per_pos) == 1:
                aggregator = per_pos[0]
            else:
                from repro.core.aggregators import TupleAggregator

                aggregator = TupleAggregator(per_pos)
        schemas[name] = Schema(
            name=name,
            arity=ri.arity,
            join_cols=join_cols,
            n_dep=n_dep,
            aggregator=aggregator,
            n_subbuckets=subbuckets.get(
                name,
                next(
                    (d.n_subbuckets for d in program.edb if d.name == name),
                    default_subbuckets,
                ),
            ),
        )

    # Rules deriving an aggregate relation without an aggregate term (e.g.
    # the SSSP base rule Spath(n, n, 0) ← Start(n)) are fine: the constant
    # lands in the dependent column and is absorbed through the lattice.
    strata = stratify(program)
    # Fold aggregates (SUM/COUNT) are stratified aggregation: only sound
    # when every body substitution is emitted exactly once, i.e. outside
    # recursion (paper §II-B vs §II-C).
    for stratum in strata:
        if not stratum.recursive:
            continue
        for name in stratum.relations:
            agg = schemas[name].aggregator
            if agg is not None and not agg.idempotent:
                raise ValueError(
                    f"relation {name!r} uses non-idempotent aggregate "
                    f"{agg.name!r} recursively; SUM/COUNT are stratified-"
                    "only — use $MCOUNT for monotonic recursive counting"
                )
    return CompiledProgram(
        program=program, schemas=schemas, strata=strata, compiled=compiled
    )
