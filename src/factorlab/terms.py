"""Term syntax trees shared by the algebra evaluator and the formula grammar."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]

# Binary symbols with these names print (and parse) infix.
INFIX_SYMBOLS = ("+", "*", "·", "/\\", "\\/")


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= free_vars(a)
    return out


def is_closed(t: Term) -> bool:
    return not free_vars(t)


def _operand_text(t: Term) -> str:
    # Nested infix applications need parentheses in the grammar.
    if isinstance(t, App) and len(t.args) == 2 and t.symbol in INFIX_SYMBOLS:
        return f"({term_text(t)})"
    return term_text(t)


def term_text(t: Term) -> str:
    """Render a term in the concrete grammar (reparseable)."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    if len(t.args) == 2 and t.symbol in INFIX_SYMBOLS:
        return f"{_operand_text(t.args[0])} {t.symbol} {_operand_text(t.args[1])}"
    inner = ", ".join(term_text(a) for a in t.args)
    return f"{t.symbol}({inner})"
