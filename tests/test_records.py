"""The record classes against their dataclass twins in `oracles`, and the
modules that importing the CLI loads."""
import dataclasses
import os
import subprocess
import sys
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import factorlab.cli  # loads every module, so every record class is defined
from conftest import REPO
from factorlab.congruences import Congruence, principal_congruence
from factorlab.core import FiniteAlgebra, Signature
from factorlab.formulas import ExistentialDnf, Literal, PositiveExistential
from factorlab.freealg import FreeAlgebra
from factorlab.variety import PoolEntry, VarietyContext
from corpus import chain_lattice, cyclic_ring
from factorlab.terms import App, Var, _Record
from oracles import RECORD_TWINS

RECORDS = sorted(_Record.__subclasses__(), key=lambda cls: cls.__name__)
# a subclass extends a record by no field, and never equals it
SUBCLASSES = {
    cls: (type("Sub", (cls,), {"__slots__": ()}),
          type("Sub", (RECORD_TWINS[cls.__name__],), {}))
    for cls in RECORDS
}

# field values for records whose constructors check nothing
PLAIN = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["", "x", "A"]),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.builds(Var, st.sampled_from("xy")),
)
VARS = st.builds(Var, st.sampled_from(["x", "y", "z1"]))
CLOSED = st.sampled_from([(App("0"),), (App("1"),)])
GENERATORS = (cyclic_ring(2), chain_lattice(2))


@st.composite
def algebra_args(draw):
    symbols = draw(st.lists(
        st.tuples(st.sampled_from("fg0"), st.integers(0, 2)),
        max_size=3, unique_by=lambda s: s[0],
    ))
    signature = Signature(tuple(symbols))
    n = draw(st.integers(1, 2))
    tables = tuple(
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for _, k in symbols
    )
    return signature, n, tables, draw(st.sampled_from("AB"))


@st.composite
def congruence_args(draw):
    algebra = FiniteAlgebra(*draw(algebra_args()))
    a, b = draw(st.lists(st.integers(0, algebra.size - 1), min_size=2, max_size=2))
    return algebra, principal_congruence(algebra, a, b).rep


@st.composite
def context_args(draw):
    generator = draw(st.sampled_from(GENERATORS))
    pool = draw(st.sampled_from([(), (PoolEntry(generator, "generator"),)]))
    return generator, draw(CLOSED), draw(CLOSED), pool


def conjunction(literals, min_size):
    return st.lists(literals, min_size=min_size, max_size=2).map(tuple)


# arguments that pass the checks of the validating constructors
ARGS = {
    Signature: algebra_args().map(lambda args: (args[0].symbols,)),
    FiniteAlgebra: algebra_args(),
    Congruence: congruence_args(),
    ExistentialDnf: st.tuples(
        st.sampled_from([(), ("w0",)]),
        conjunction(conjunction(st.builds(Literal, VARS, VARS, st.booleans()), 1), 1),
        st.integers(1, 2),
    ),
    PositiveExistential: st.tuples(
        st.sampled_from([(), ("w0",)]),
        conjunction(st.builds(Literal, VARS, VARS), 0),
        st.integers(1, 2),
    ),
    VarietyContext: context_args(),
}


def _outcome(f, *args):
    try:
        return f(*args)
    except TypeError as error:
        return type(error)


def _rejects(f, *args, **named):
    try:
        f(*args, **named)
    except TypeError:
        return True
    return False


def test_every_record_class_has_a_twin():
    assert len(RECORDS) == len(RECORD_TWINS) == 23
    assert {cls.__name__ for cls in RECORDS} == set(RECORD_TWINS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_record_matches_dataclass_twin(cls, data):
    twin = RECORD_TWINS[cls.__name__]
    fields = dataclasses.fields(twin)
    strategy = ARGS.get(cls, st.tuples(*[PLAIN] * len(fields)))
    args1, args2 = data.draw(strategy), data.draw(strategy)
    new1, new2, again = cls(*args1), cls(*args2), cls(*args1)
    old1, old2 = twin(*args1), twin(*args2)

    assert repr(new1) == repr(old1)
    assert (new1 == new2) == (old1 == old2)
    assert (new1 != new2) == (old1 != old2)
    assert again == new1 and not again != new1
    assert new1 != old1
    sub, twin_sub = SUBCLASSES[cls]
    assert repr(sub(*args1)) == repr(twin_sub(*args1))
    assert (sub(*args1) == new1) == (twin_sub(*args1) == old1)
    assert _outcome(hash, new1) == _outcome(hash, old1) == _outcome(hash, again)
    if new1 == new2:
        assert _outcome(hash, new1) == _outcome(hash, new2)

    # keyword arguments, and the defaults the twin declares
    assert cls(**{f.name: value for f, value in zip(fields, args1)}) == new1
    required = [
        value for f, value in zip(fields, args1) if f.default is dataclasses.MISSING
    ]
    assert repr(cls(*required)) == repr(twin(*required))
    # an extra positional argument, an unknown keyword, and no arguments
    for args, named in (((*args1, 0), {}), (args1, {"extra": 0}), ((), {})):
        assert _rejects(cls, *args, **named) == _rejects(twin, *args, **named)

    for f, value in zip(fields, args2):
        with pytest.raises(AttributeError):
            setattr(new1, f.name, value)
        with pytest.raises(AttributeError):
            delattr(new1, f.name)
    with pytest.raises(AttributeError):
        new1.extra = 0
    assert repr(new1) == repr(old1)


def test_free_algebra_builds_its_carrier_once_on_first_read():
    base = GENERATORS[0]
    built = []

    def build():
        built.append(base)
        return base

    fa = FreeAlgebra(base, 0, (), build, (), (), ())
    assert built == []
    assert fa.algebra is base and fa.algebra is base
    assert built == [base]
    assert fa == FreeAlgebra(base, 0, (), list, (), (), ())


def test_cli_import_loads_no_code_generation_modules():
    # the modules `dataclasses` pulls in; the package imports none of them
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        "import sys; before = set(sys.modules); import factorlab.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, text=True,
        check=True,
    ).stdout.split()
    assert [name for name in heavy if name in out] == []
    # and it loads every module of the package, so that none is there for
    # the tests alone
    package = sorted(
        "factorlab" if path.stem == "__init__" else f"factorlab.{path.stem}"
        for path in (REPO / "src" / "factorlab").glob("*.py")
        if path.stem != "__main__"
    )
    assert [name for name in out if name.split(".")[0] == "factorlab"] == package


def test_package_root_binds_only_its_submodules():
    # each public object has one binding, in the module that defines it, so
    # the name of a submodule always reaches the submodule
    import factorlab
    import factorlab.positivize as m

    assert isinstance(m, types.ModuleType)
    assert [n for n, v in vars(factorlab).items()
            if not n.startswith("_") and not isinstance(v, types.ModuleType)] == []
