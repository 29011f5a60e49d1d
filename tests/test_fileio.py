import json
import subprocess
import sys

import pytest

from conftest import FIXTURES, REPO
from factorlab import ValidationError
from factorlab.fileio import (
    algebra_to_dict,
    load_algebra,
    load_context,
    load_formula,
)
from corpus import (
    boolean_context,
    context_to_dict,
    corpus,
    dump_algebra,
    lattice_context,
    ring_context,
)
from factorlab.terms import term_text


def test_fixture_files_match_builders():
    # the shipped corpus must stay in sync with the programmatic builders
    for stem, algebra in corpus().items():
        on_disk = load_algebra(FIXTURES / f"{stem}.alg")
        assert on_disk.name == algebra.name
        assert on_disk.size == algebra.size
        assert on_disk.signature.symbols == algebra.signature.symbols
        assert on_disk.tables == algebra.tables


def test_context_files_match_builders():
    algebras = corpus()
    expected = {
        "rings.ctx": ring_context(algebras["z2"]),
        "rings_z6.ctx": ring_context(algebras["z6"]),
        "lattices.ctx": lattice_context(algebras["c3"]),
        "boolean.ctx": boolean_context(algebras["b2"]),
    }
    for name, ctx in expected.items():
        on_disk = load_context(FIXTURES / name)
        assert on_disk.generator.tables == ctx.generator.tables
        assert on_disk.zero_terms == ctx.zero_terms
        assert on_disk.one_terms == ctx.one_terms


def test_make_fixtures_regenerates_every_fixture_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_fixtures.py"), str(tmp_path)],
        capture_output=True, text=True, cwd=REPO, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    shipped, written = files(FIXTURES), files(tmp_path)
    assert sorted(written) == sorted(shipped)
    for name, data in shipped.items():
        assert written[name] == data, name


def test_algebra_round_trip(tmp_path, z6):
    path = tmp_path / "z6.alg"
    dump_algebra(z6, path)
    again = load_algebra(path)
    assert again == z6


def test_inline_generator_context(tmp_path, z6):
    path = tmp_path / "inline.ctx"
    path.write_text(json.dumps({
        "generator": algebra_to_dict(z6),
        "l": 1,
        "zero": ["1"],
        "one": ["0"],
    }))
    ctx = load_context(path)
    assert ctx.generator.tables == z6.tables
    assert term_text(ctx.zero_terms[0]) == "1"


def test_context_with_term_expressions(tmp_path, z6):
    path = tmp_path / "terms.ctx"
    path.write_text(json.dumps({
        "generator": algebra_to_dict(z6),
        "l": 1,
        "zero": ["1 * 1"],
        "one": ["0 + 0"],
    }))
    ctx = load_context(path)
    assert ctx.zero_values(z6) == (1,)
    assert ctx.one_values(z6) == (0,)


def test_context_rejects_open_terms(tmp_path, z6):
    path = tmp_path / "open.ctx"
    path.write_text(json.dumps({
        "generator": algebra_to_dict(z6),
        "l": 1,
        "zero": ["w"],
        "one": ["0"],
    }))
    with pytest.raises(ValidationError, match="closed"):
        load_context(path)


def test_context_to_dict_round_trip(tmp_path):
    ctx = ring_context(corpus()["z2"])
    data = context_to_dict(ctx)
    assert data["zero"] == ["1"] and data["one"] == ["0"]


def test_load_formula_strips_comments(rings_ctx):
    phi = load_formula(
        FIXTURES / "formulas" / "ring_mixed.fm", rings_ctx.signature, 1
    )
    assert len(phi.disjuncts) == 2


def test_load_algebra_missing_key(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps({"name": "x", "size": 2}))
    with pytest.raises(ValidationError, match="missing 'ops'"):
        load_algebra(path)


def test_load_algebra_bad_json(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_algebra(path)
