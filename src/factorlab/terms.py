"""Term syntax trees shared by the algebra evaluator and the formula grammar,
and the base class of the package's immutable record classes."""
from __future__ import annotations

from typing import Union


class _Record:
    """Frozen-dataclass semantics with no code generated at import.  A subclass
    names its fields in `__slots__`, after those of the record it extends;
    slots with a leading underscore are private and left out.  Its `__init__`
    checks the values and passes them in field order to `_Record.__init__`;
    `_trusted` skips the checks.  Equality (within one class) and the hash
    read the values, the repr is Name(field=value, ...), and fields are fixed."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(s for s in vars(cls).get("__slots__", ()) if s[0] != "_")

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """An instance of values that are valid by construction, unchecked."""
        record = object.__new__(cls)
        _Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: field '{name}'")

    __delattr__ = __setattr__


class Var(_Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__(name)


class App(_Record):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple[Term, ...] = ()):
        super().__init__(symbol, args)


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
