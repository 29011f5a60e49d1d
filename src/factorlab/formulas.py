"""Existential DNF formulas: concrete grammar, parser, printer and evaluation.

Grammar (UTF-8, '#' starts a line comment):

    formula := ["exists" ident+ "."] dnf
    dnf     := conj { "or" conj }
    conj    := unit { "and" unit }
    unit    := literal | "(" conj ")"
    literal := term ("=" | "!=") term
    term    := atom [ infix atom ]
    atom    := ident | ident "(" term {"," term} ")" | "(" term ")"

Infix sugar exists for binary symbols named +, * (or the middle dot), /\\ and
\\/; nested infix terms need parentheses.  The free-variable roles are fixed
by name: x, y and z1..zl.  Everything declared after "exists" is bound.
Disequality s != t is sugar for a negated equation; no other negation exists,
and universal quantifiers are rejected rather than normalized away.
"""
from __future__ import annotations

import re

from .core import FiniteAlgebra, Signature
from .errors import EvalError, FormulaSyntaxError, ValidationError
from .terms import INFIX_SYMBOLS, App, Term, Var, _Record, free_vars, term_text

ROLE_X = "x"
ROLE_Y = "y"
KEYWORDS = ("exists", "forall", "and", "or")


def z_roles(l: int) -> tuple[str, ...]:
    return tuple(f"z{i + 1}" for i in range(l))


class Literal(_Record):
    __slots__ = ("lhs", "rhs", "positive")
    _defaults = {"positive": True}

    def text(self) -> str:
        op = "=" if self.positive else "!="
        return f"{term_text(self.lhs)} {op} {term_text(self.rhs)}"

    def variables(self) -> frozenset[str]:
        return free_vars(self.lhs) | free_vars(self.rhs)


def _formula_text(bound_vars: tuple[str, ...], disjuncts) -> str:
    parts = []
    for conj in disjuncts:
        body = " and ".join(lit.text() for lit in conj)
        parts.append(f"({body})" if len(conj) > 1 else body)
    text = " or ".join(parts)
    if bound_vars:
        text = f"exists {' '.join(bound_vars)} . {text}"
    return text


class ExistentialDnf(_Record):
    """exists w-vector, disjunction of conjunctions of literals."""

    __slots__ = ("bound_vars", "disjuncts", "l")

    def __init__(self, bound_vars: tuple[str, ...],
                 disjuncts: tuple[tuple[Literal, ...], ...], l: int = 1):
        if not disjuncts or any(not d for d in disjuncts):
            raise ValidationError("formula needs at least one literal per disjunct")
        allowed = {ROLE_X, ROLE_Y, *z_roles(l), *bound_vars}
        for conj in disjuncts:
            for lit in conj:
                extra = lit.variables() - allowed
                if extra:
                    raise ValidationError(
                        f"free variables {sorted(extra)} outside roles and bound list"
                    )
        super().__init__(bound_vars, disjuncts, l)

    def positive_indices(self, k: int) -> tuple[int, ...]:
        """Indices of the non-negated literals of disjunct k (recomputed)."""
        return tuple(j for j, lit in enumerate(self.disjuncts[k]) if lit.positive)

    def text(self) -> str:
        return _formula_text(self.bound_vars, self.disjuncts)


class PositiveExistential(_Record):
    """exists w-vector, one conjunction of positive literals."""

    __slots__ = ("bound_vars", "literals", "l")

    def __init__(self, bound_vars: tuple[str, ...], literals: tuple[Literal, ...],
                 l: int = 1):
        for lit in literals:
            if not lit.positive:
                raise ValidationError("negative literal in positive formula")
        super().__init__(bound_vars, literals, l)

    @property
    def is_trivially_true(self) -> bool:
        return not self.literals

    @property
    def disjuncts(self) -> tuple[tuple[Literal, ...], ...]:
        return (self.literals,)

    def text(self) -> str:
        if not self.literals:
            # the empty conjunction has no grammar form; x = x is the
            # canonical constantly-true rendering
            return _formula_text(self.bound_vars, ((Literal(Var("x"), Var("x")),),))
        return _formula_text(self.bound_vars, self.disjuncts)


def strip_to_positive(phi: ExistentialDnf, k: int) -> PositiveExistential:
    """Keep exactly the positive literals of disjunct k, bound variables and
    order preserved.  An all-negative disjunct yields the (flagged) empty
    conjunction, which is constantly true."""
    if not 0 <= k < len(phi.disjuncts):
        raise ValidationError(f"disjunct index {k} out of range")
    kept = tuple(lit for lit in phi.disjuncts[k] if lit.positive)
    return PositiveExistential(phi.bound_vars, kept, phi.l)


# -- tokenizer / parser --------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|#[^\n]*)"
    r"|(?P<op>!=|=|\(|\)|,|\.|\+|\*|·|/\\|\\/)"
    r"|(?P<ident>[A-Za-z0-9_]+)"
)

# Parsing recurses per open parenthesis: deeper input is refused up front.
MAX_NESTING = 100

_INFIX_ALIASES = {"*": ("*", "·"), "·": ("·", "*")}


class _Tok(_Record):
    __slots__ = ("kind", "text", "pos")  # kind: ident, op or eof


def _tokenize(text: str) -> list[_Tok]:
    out = []
    i = 0
    depth = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            out.append(_Tok(m.lastgroup, m.group(), i))
            if m.group() == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise FormulaSyntaxError(
                        f"nested too deeply (more than {MAX_NESTING} "
                        f"parentheses)", i
                    )
            elif m.group() == ")":
                depth -= 1
        i = m.end()
    out.append(_Tok("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, signature: Signature, l: int = 1):
        self.toks = _tokenize(text)
        self.i = 0
        self.signature = signature
        self.l = l
        self.roles = {ROLE_X, ROLE_Y, *z_roles(l)}
        self.bound: tuple[str, ...] = ()
        self.var_pos: dict[str, int] = {}

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise FormulaSyntaxError(f"expected '{text}', found {tok.text!r}", tok.pos)
        return self.next()

    # formula := ["exists" ident+ "."] dnf
    def parse_formula(self) -> ExistentialDnf:
        for role in (ROLE_X, ROLE_Y, *z_roles(self.l)):
            if self.signature.has(role):
                raise FormulaSyntaxError(f"symbol '{role}' shadows a role name")
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "forall":
            raise FormulaSyntaxError("not existential: universal quantifier", tok.pos)
        if tok.kind == "ident" and tok.text == "exists":
            self.next()
            names = []
            while self.peek().kind == "ident":
                v = self.next()
                if v.text in KEYWORDS:
                    raise FormulaSyntaxError(
                        f"keyword '{v.text}' cannot be a bound variable", v.pos
                    )
                if v.text in self.roles:
                    raise FormulaSyntaxError(
                        f"bound variable '{v.text}' shadows a role name", v.pos
                    )
                if self.signature.has(v.text):
                    raise FormulaSyntaxError(
                        f"bound variable '{v.text}' collides with a symbol", v.pos
                    )
                if v.text in names:
                    raise FormulaSyntaxError(
                        f"duplicate bound variable '{v.text}'", v.pos
                    )
                names.append(v.text)
            if not names:
                raise FormulaSyntaxError(
                    "expected bound variable names after 'exists'", self.peek().pos
                )
            self.expect_op(".")
            self.bound = tuple(names)
        disjuncts = [self.parse_conj()]
        while self._match_keyword("or"):
            disjuncts.append(self.parse_conj())
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
        self._check_free_variables(disjuncts)
        return ExistentialDnf(self.bound, tuple(tuple(c) for c in disjuncts), self.l)

    def _match_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == word:
            self.next()
            return True
        return False

    def parse_conj(self) -> list[Literal]:
        lits = list(self.parse_unit())
        while self._match_keyword("and"):
            lits.extend(self.parse_unit())
        return lits

    def parse_unit(self) -> tuple[Literal, ...]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            save = self.i
            try:
                self.next()
                lits = self.parse_conj()
                self.expect_op(")")
            except FormulaSyntaxError:
                self.i = save  # parenthesized term, not a group
            else:
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text in ("=", "!=", *INFIX_SYMBOLS):
                    self.i = save  # "(term)" followed by an operator
                else:
                    return tuple(lits)
        return (self.parse_literal(),)

    def parse_literal(self) -> Literal:
        lhs = self.parse_term()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("=", "!="):
            self.next()
        else:
            raise FormulaSyntaxError(
                f"expected '=' or '!=', found {tok.text!r}", tok.pos
            )
        rhs = self.parse_term()
        return Literal(lhs, rhs, tok.text == "=")

    def parse_term(self) -> Term:
        left = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text in INFIX_SYMBOLS:
            self.next()
            sym = self._resolve_infix(tok)
            right = self.parse_atom()
            after = self.peek()
            if after.kind == "op" and after.text in INFIX_SYMBOLS:
                raise FormulaSyntaxError(
                    "parentheses required for nested infix terms", after.pos
                )
            return App(sym, (left, right))
        return left

    def _resolve_infix(self, tok: _Tok) -> str:
        for cand in _INFIX_ALIASES.get(tok.text, (tok.text,)):
            if self.signature.has(cand) and self.signature.arity(cand) == 2:
                return cand
        raise FormulaSyntaxError(
            f"unknown binary symbol '{tok.text}'", tok.pos
        )

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            t = self.parse_term()
            self.expect_op(")")
            return t
        if tok.kind != "ident":
            raise FormulaSyntaxError(f"expected a term, found {tok.text!r}", tok.pos)
        if tok.text in KEYWORDS:
            raise FormulaSyntaxError(
                f"keyword '{tok.text}' in term position", tok.pos
            )
        self.next()
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "(":
            if not self.signature.has(tok.text):
                raise FormulaSyntaxError(f"unknown symbol '{tok.text}'", tok.pos)
            self.next()
            args = [self.parse_term()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.next()
                args.append(self.parse_term())
            self.expect_op(")")
            arity = self.signature.arity(tok.text)
            if arity != len(args):
                raise FormulaSyntaxError(
                    f"symbol '{tok.text}' takes {arity} arguments, got {len(args)}",
                    tok.pos,
                )
            return App(tok.text, tuple(args))
        if self.signature.has(tok.text):
            arity = self.signature.arity(tok.text)
            if arity != 0:
                raise FormulaSyntaxError(
                    f"symbol '{tok.text}' of arity {arity} used without arguments",
                    tok.pos,
                )
            return App(tok.text, ())
        self.var_pos.setdefault(tok.text, tok.pos)
        return Var(tok.text)

    def _check_free_variables(self, disjuncts: list[list[Literal]]) -> None:
        allowed = self.roles | set(self.bound)
        for conj in disjuncts:
            for lit in conj:
                for v in sorted(lit.variables()):
                    if v not in allowed:
                        raise FormulaSyntaxError(
                            f"free variable '{v}' outside roles "
                            f"x, y, z1..z{self.l} and bound variables",
                            self.var_pos.get(v, -1),
                        )


def parse_formula(text: str, signature: Signature, l: int = 1) -> ExistentialDnf:
    return _Parser(text, signature, l).parse_formula()


def parse_term_text(text: str, signature: Signature) -> Term:
    """Parse a single term (used for zero/one terms in context files)."""
    p = _Parser(text, signature)
    t = p.parse_term()
    tok = p.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
    return t


# -- evaluation ----------------------------------------------------------------


def _run(code, env: list[int], n: int) -> bool:
    """Execute one level's instructions, then check its positive literals."""
    instructions, checks = code
    for out, table, args in instructions:
        if len(args) == 2:
            env[out] = table[env[args[0]] * n + env[args[1]]]
        elif len(args) == 1:
            env[out] = table[env[args[0]]]
        else:
            i = 0
            for a in args:
                i = i * n + env[a]
            env[out] = table[i]
    for lhs, rhs in checks:
        if env[lhs] != env[rhs]:
            return False
    return True


class DnfEvaluator:
    """Compiled evaluator for one formula over one algebra.

    Each disjunct compiles to one program: instructions (output slot, table,
    argument slots) and positive-literal checks over one slot list: x, y,
    z1..zl, w1..w_nb, then one slot per distinct compound subterm.  Both sit
    at level j when w_j is the last bound variable they mention, at level 0
    when they mention none; closed subterms and closed literals are evaluated
    here, once, and a false closed positive literal drops its disjunct.  One
    search binds w1..w_nb depth first in lexicographic order and runs level j
    as soon as w_j is bound, so a false positive literal prunes every
    extension of the prefix.  Each assignment that passes every level is a
    hit, disjunct by disjunct in input order, and carries the failure mask
    of the disjunct's negative literals: bit j when the j-th one fails
    there, closed ones included.

    In a direct product a positive literal holds when it holds in every
    factor and a negative literal when it holds in some factor
    (Feferman-Vaught), so a disjunct holds at paired arguments exactly when
    the factors offer hits whose masks have no bit in common.  One algebra
    is the one-factor case: the disjunct holds at a hit whose mask is 0.
    `satisfied` stops at the first such hit; `failure_masks` and
    `masked_witnesses` report every hit.  Instances are safe to share.
    """

    def __init__(self, algebra: FiniteAlgebra, phi: ExistentialDnf | PositiveExistential):
        self.algebra = algebra
        self.bound = phi.bound_vars
        self._l = phi.l
        self._base = 2 + phi.l
        self._top = self._base + len(phi.bound_vars)
        self._n_disjuncts = len(phi.disjuncts)
        roles = (ROLE_X, ROLE_Y, *z_roles(phi.l))
        # name -> (slot, level); level -1 marks a closed subterm
        self._vars = {v: (i, 0) for i, v in enumerate(roles)}
        for j, w in enumerate(phi.bound_vars):
            self._vars[w] = (self._base + j, j + 1)
        # the slot list a search starts from: unbound w slots hold -1
        self._frame = [0] * self._base + [-1] * len(phi.bound_vars)
        self._programs = []  # (k, levels, negatives)
        for k, conj in enumerate(phi.disjuncts):
            compiled = self._compile(conj)
            if compiled is not None:
                self._programs.append((k, *compiled))

    def _compile(self, conj: tuple[Literal, ...]):
        """The program of one disjunct: the levels with their positive checks
        and the negative literals as (lhs slot, rhs slot, bit), bit j for the
        j-th negative literal.  None if a closed positive literal is false."""
        n_levels = len(self.bound) + 1
        instructions = [[] for _ in range(n_levels)]
        checks = [[] for _ in range(n_levels)]
        negatives = []
        memo: dict[Term, tuple[int, int]] = {}
        holds = True
        for lit in conj:
            lhs, lhs_level = self._term(lit.lhs, instructions, memo)
            rhs, rhs_level = self._term(lit.rhs, instructions, memo)
            level = max(lhs_level, rhs_level)
            if not lit.positive:
                negatives.append((lhs, rhs, 1 << len(negatives)))
            elif level >= 0:
                checks[level].append((lhs, rhs))
            elif self._frame[lhs] != self._frame[rhs]:
                holds = False
        if not holds:
            return None
        levels = [(tuple(i), tuple(c)) for i, c in zip(instructions, checks)]
        return levels, tuple(negatives)

    def _term(self, t: Term, instructions, memo) -> tuple[int, int]:
        """(slot, level) of a term, emitting the instructions it needs."""
        if isinstance(t, Var):
            try:
                return self._vars[t.name]
            except KeyError:
                raise EvalError(f"unbound variable '{t.name}'") from None
        found = memo.get(t)
        if found is not None:
            return found
        arity = self.algebra.signature.arity(t.symbol)
        if arity != len(t.args):
            raise EvalError(
                f"arity mismatch: '{t.symbol}' takes {arity} arguments, "
                f"got {len(t.args)}"
            )
        table = self.algebra.table(t.symbol)
        args = [self._term(a, instructions, memo) for a in t.args]
        slots = tuple(s for s, _ in args)
        level = max((lv for _, lv in args), default=-1)
        out = len(self._frame)
        if level < 0:
            self._frame.append(
                self.algebra.apply(t.symbol, [self._frame[s] for s in slots])
            )
        else:
            self._frame.append(0)
            instructions[level].append((out, table, slots))
        memo[t] = (out, level)
        return out, level

    def _search(self, x: int, y: int, zs: tuple[int, ...]):
        """Yield (disjunct index, failure mask, slot list) at every hit, in
        search order.  The slot list is live: read it before resuming."""
        if len(zs) != self._l:
            raise EvalError(f"expected {self._l} z-arguments, got {len(zs)}")
        base = self._base
        top = self._top
        n = self.algebra.size
        env = self._frame.copy()
        env[0] = x
        env[1] = y
        env[2:base] = zs
        for k, levels, negatives in self._programs:
            if not _run(levels[0], env, n):
                continue
            slot = base  # the bound variable being advanced; top on a hit
            while True:
                if slot == top:
                    mask = 0
                    for lhs, rhs, bit in negatives:
                        if env[lhs] == env[rhs]:
                            mask |= bit
                    yield k, mask, env
                    slot -= 1
                if slot < base:
                    break
                v = env[slot] + 1
                if v == n:
                    env[slot] = -1
                    slot -= 1
                    continue
                env[slot] = v
                if _run(levels[slot - base + 1], env, n):
                    slot += 1

    def satisfied(self, x: int, y: int, zs: tuple[int, ...]) -> bool:
        """True iff some disjunct holds: some hit has mask 0."""
        for _, mask, _ in self._search(x, y, zs):
            if not mask:
                return True
        return False

    def failure_masks(
        self, x: int, y: int, zs: tuple[int, ...]
    ) -> tuple[frozenset[int], ...]:
        """Per disjunct, the set of the masks of its hits."""
        found = [set() for _ in range(self._n_disjuncts)]
        for k, mask, _ in self._search(x, y, zs):
            found[k].add(mask)
        return tuple(map(frozenset, found))

    def masked_witnesses(self, x: int, y: int, zs: tuple[int, ...]):
        """Yield (disjunct index, failure mask, bound-variable assignment) at
        every hit, in search order."""
        base, top = self._base, self._top
        for k, mask, env in self._search(x, y, zs):
            yield k, mask, tuple(env[base:top])
