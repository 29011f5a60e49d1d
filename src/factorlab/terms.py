"""Term syntax trees shared by the algebra evaluator and the formula grammar,
and the base class of the package's immutable record classes."""
from __future__ import annotations

from typing import Union


class _Record:
    """Frozen-dataclass semantics with no code generated at import.  A subclass
    names its fields in `__slots__`, after those of the record it extends;
    slots with a leading underscore are private and left out.  Fields are
    passed positionally or by keyword, missing trailing ones come from the
    class's `_defaults`, and a missing, extra or unknown argument is a
    TypeError.  Only records that check their values or take a non-field
    argument (`Signature`, `FiniteAlgebra`, `Congruence`, `ExistentialDnf`,
    `PositiveExistential`, `VarietyContext`, `FreeAlgebra`) have their own
    `__init__`, which passes every field on; `_trusted` skips it.  Equality
    (within one class) and the hash read the values, but an object equals
    itself at once; the repr is Name(field=value, ...), and fields are fixed."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields += tuple(s for s in vars(cls).get("__slots__", ()) if s[0] != "_")

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if (len(values) > len(fields) or named.keys() - set(rest)
                    or any(n not in named and n not in self._defaults for n in rest)):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{fields}, got {len(values)} positional, "
                                f"{sorted(named)} by keyword")
            values += tuple(named.get(n, self._defaults.get(n)) for n in rest)
        for name, value in zip(fields, values):
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
        if other is self:
            return True
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


class App(_Record):
    __slots__ = ("symbol", "args")
    _defaults = {"args": ()}


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


def _is_infix(t: Term) -> bool:
    return isinstance(t, App) and len(t.args) == 2 and t.symbol in INFIX_SYMBOLS


def term_text(t: Term) -> str:
    """Render a term in the concrete grammar (reparseable).  The tree is
    walked with an explicit stack of subterms and literal pieces, each node's
    pieces pushed last first, so any nesting depth renders."""
    out: list[str] = []
    todo: list = [t]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(item.name)
        elif not item.args:
            out.append(item.symbol)
        elif _is_infix(item):
            # nested infix operands need parentheses in the grammar
            left, right = item.args
            todo += (")", right, "(") if _is_infix(right) else (right,)
            todo.append(f" {item.symbol} ")
            todo += (")", left, "(") if _is_infix(left) else (left,)
        else:
            todo.append(")")
            for a in item.args[:0:-1]:
                todo += (a, ", ")
            todo += (item.args[0], f"{item.symbol}(")
    return "".join(out)
