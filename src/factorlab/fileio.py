"""On-disk formats.

Algebra files (JSON):
    { "name": str, "size": int,
      "ops": { symbol: { "arity": int, "table": [int, ...] } } }
with tables flat row-major: the entry for (a1..ak) sits at
a1*n^(k-1) + .. + ak.

Variety-context files (JSON):
    { "generator": path-or-inline-algebra, "l": int,
      "zero": [term text, ...], "one": [term text, ...] }
where term texts use the formula grammar and generator paths are resolved
relative to the context file.

Formula files are plain text in the formula grammar; '#' starts a comment.
"""
from __future__ import annotations

import json
from pathlib import Path

from .core import FiniteAlgebra, Signature
from .errors import ValidationError
from .formulas import ExistentialDnf, parse_formula, parse_term_text
from .terms import Term
from .variety import VarietyContext


def _read_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read '{path}': {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"'{path}' is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"'{path}': expected a JSON object")
    return data


def _int(value, what: str) -> int:
    """`value` itself if it is an integer; JSON floats, strings and booleans
    are rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def algebra_from_dict(data: dict, l: int = 1, origin: str = "<inline>") -> FiniteAlgebra:
    for key in ("name", "size", "ops"):
        if key not in data:
            raise ValidationError(f"{origin}: missing '{key}'")
    ops = data["ops"]
    if not isinstance(ops, dict) or not ops:
        raise ValidationError(f"{origin}: 'ops' must be a non-empty object")
    symbols = []
    tables = {}
    for sym, spec in ops.items():
        if not isinstance(spec, dict) or "arity" not in spec or "table" not in spec:
            raise ValidationError(
                f"{origin}: op '{sym}' needs 'arity' and 'table'"
            )
        what = f"{origin}: op '{sym}'"
        symbols.append((sym, _int(spec["arity"], f"{what} arity")))
        tables[sym] = [
            _int(v, f"{what} table entry {i}")
            for i, v in enumerate(_list(spec["table"], f"{what} table"))
        ]
    signature = Signature(tuple(symbols), l=l)
    return FiniteAlgebra.from_ops(
        signature, _int(data["size"], f"{origin}: 'size'"), tables,
        str(data["name"]),
    )


def algebra_to_dict(algebra: FiniteAlgebra) -> dict:
    return {
        "name": algebra.name,
        "size": algebra.size,
        "ops": {
            sym: {"arity": arity, "table": list(table)}
            for (sym, arity), table in zip(
                algebra.signature.symbols, algebra.tables
            )
        },
    }


def load_algebra(path: str | Path, l: int = 1) -> FiniteAlgebra:
    p = Path(path)
    return algebra_from_dict(_read_json(p), l=l, origin=str(p))


def _terms(texts, what: str, signature: Signature) -> tuple[Term, ...]:
    out = []
    for i, t in enumerate(_list(texts, what)):
        if not isinstance(t, str):
            raise ValidationError(f"{what} entry {i} must be a term text, got {t!r}")
        out.append(parse_term_text(t, signature))
    return tuple(out)


def load_context(path: str | Path) -> VarietyContext:
    p = Path(path)
    data = _read_json(p)
    for key in ("generator", "zero", "one"):
        if key not in data:
            raise ValidationError(f"{p}: missing '{key}'")
    l = _int(data.get("l", 1), f"{p}: 'l'")
    gen = data["generator"]
    if isinstance(gen, str):
        generator = load_algebra(p.parent / gen, l=l)
    elif isinstance(gen, dict):
        generator = algebra_from_dict(gen, l=l, origin=f"{p}:generator")
    else:
        raise ValidationError(f"{p}: 'generator' must be a path or an object")
    zero = _terms(data["zero"], f"{p}: 'zero'", generator.signature)
    one = _terms(data["one"], f"{p}: 'one'", generator.signature)
    return VarietyContext(generator, zero, one)


def load_formula(path: str | Path, signature: Signature, l: int) -> ExistentialDnf:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read '{p}': {exc}") from exc
    return parse_formula(text, signature, l)
