"""Every value class of src/hybridsem, built by `records.record`, against
a twin that `dataclasses.dataclass` builds from the same fields and
options: the same __init__ signature, fields set, equality, hash, repr
and frozenness.  The classes are found by reading the source, so a new
one cannot escape.  Hashes must match exactly: many sets hold only
Fraction-hashed values, whose order no hash seed moves."""

import ast
import copy
import dataclasses
import importlib
import inspect
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hybridsem import records
from hybridsem.affine import COMPARE

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridsem"

# the methods and attributes record adds; the twin gets dataclass's own
GENERATED = {"__init__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__record_compared__", "__dict__", "__weakref__"}
# hashable field values; empty containers and positive numbers satisfy
# every __post_init__ but on a field of ADMITTED, the others make some raise
POOL = (Q(1, 2), Q(3), 2, True, "a", None, (), ("a",), frozenset(), (Q(1), Q(2)))
# the values a __post_init__ admits for a field that no value of POOL
# satisfies (a constraint's comparison), drawn with POOL for that parameter
ADMITTED = {"op": tuple(COMPARE)}
# parameters that may only name what another parameter of the class
# defines (a system's edges and initial states name its schemas' modes):
# drawn from the drawn definitions, and no value of POOL defines a mode,
# so from POOL's empty containers
NAMING = {"HybridTransitionSystem": ("edges", "initial")}
NONE_NAMED = ((), frozenset())


def _decorated(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "record"
               for d in node.decorator_list)


def _record_classes() -> list:
    """Every class of src/hybridsem that `@record(...)` decorates."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and _decorated(node)]
    return found


CLASSES = _record_classes()


def _class(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"hybridsem.{module}"), name)


def _twin(cls):
    """cls rebuilt by dataclasses.dataclass from its fields and options."""
    ns = {k: v for k, v in vars(cls).items() if k not in GENERATED}
    if cls.__repr__ is records._repr:
        del ns["__repr__"]
    for name in cls.__annotations__:
        d = ns.get(name)
        if isinstance(d, records.factory):
            ns[name] = dataclasses.field(default_factory=d.make, init=d.init,
                                         repr=d.init, compare=d.init)
    frozen = cls.__setattr__ is records._refuse
    return dataclasses.dataclass(frozen=frozen)(type(cls.__name__, (), ns))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return "raised", type(exc)


def _seeded_args(cls, n=60):
    """n argument lists for cls, each of a seeded length, drawn from POOL."""
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    required = sum(p.default is p.empty for p in params)
    rng = random.Random(cls.__name__)
    naming = NAMING.get(cls.__name__, ())
    for _ in range(n):
        count = rng.randint(required, len(params))
        yield [rng.choice(NONE_NAMED if p.name in naming else ADMITTED.get(p.name, ()) + POOL)
               for p in params[:count]]


def _seeded_pairs(cls, twin):
    """(record instance, twin instance) built from the same seeded
    arguments; arguments that one refuses the other must refuse with the
    same exception type."""
    built = []
    for args in _seeded_args(cls):
        got, want = _outcome(cls, *args), _outcome(twin, *args)
        if got[0] == "raised" or want[0] == "raised":
            assert got == want, (args, got, want)
        else:
            built.append((got[1], want[1]))
    assert len(built) >= 8, f"only {len(built)} seeded {cls.__name__} instances built"
    return built


def test_every_record_class_is_found():
    built = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"hybridsem.{path.stem}" if path.stem != "__init__"
                                         else "hybridsem")
        built |= {f"{path.stem}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and "__record_compared__" in vars(obj)}
    assert sorted(built) == sorted(CLASSES)
    assert len(CLASSES) > 20


@pytest.mark.parametrize("dotted", CLASSES)
def test_record_matches_its_dataclass_twin(dotted):
    cls = _class(dotted)
    twin = _twin(cls)
    mine, theirs = inspect.signature(cls.__init__), inspect.signature(twin.__init__)
    assert [(p.name, p.kind) for p in mine.parameters.values()] == \
        [(p.name, p.kind) for p in theirs.parameters.values()]
    for p, q in zip(mine.parameters.values(), theirs.parameters.values()):
        assert p.default is q.default or (
            isinstance(p.default, records.factory) and repr(q.default) == "<factory>")
    compared = [f.name for f in dataclasses.fields(twin) if f.compare]

    pairs = _seeded_pairs(cls, twin)
    for a, ta in pairs:
        assert vars(a) == vars(ta)
        assert _outcome(repr, a) == _outcome(repr, ta)
        assert a.__eq__(object()) is NotImplemented and a.__eq__(ta) is NotImplemented
        if twin.__hash__ is None:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(ta) == hash(tuple(getattr(a, n) for n in compared))
        for b, tb in pairs:
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb)

    a, ta = pairs[0]
    frozen = twin.__dataclass_params__.frozen
    for name in (*cls.__annotations__, "not_a_field"):
        for act in (lambda: setattr(a, name, 1), lambda: delattr(a, name)):
            if frozen:
                with pytest.raises(AttributeError, match="field"):
                    act()
    if not frozen:
        first = compared[0]
        setattr(a, first, 1)
        assert getattr(a, first) == 1

    # a field left out of eq, hash and repr is left out whatever it holds
    for f in dataclasses.fields(twin):
        if not f.compare:
            b = copy.copy(a)
            vars(b)[f.name] = object()
            assert b == a and (repr(b), _outcome(hash, b)) == (repr(a), _outcome(hash, a))


@pytest.mark.parametrize("dotted", [d for d in CLASSES if "__post_init__" in vars(_class(d))])
def test_post_init_runs(dotted, monkeypatch):
    cls = _class(dotted)
    calls = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self))
    for args in _seeded_args(cls):
        assert cls(*args) is calls[-1]
    assert len(calls) == 60


def test_factory_defaults_are_fresh_per_instance():
    from hybridsem.relation import TimedStateRelation
    from hybridsem.simulation import SimReport

    a, b = SimReport(True), SimReport(True)
    for name in ("violations", "hypothesis_results", "notes"):
        assert getattr(a, name) == getattr(SimReport(False), name)
        assert getattr(a, name) is not getattr(b, name)
    r, s = TimedStateRelation(()), TimedStateRelation(())
    assert r._by_modes == {} and r._by_modes is not s._by_modes
    r._by_modes["key"] = 1
    assert r == s and hash(r) == hash(s)
    assert repr(r) == repr(s) == "TimedStateRelation(clauses=(), domain=None)"
    assert "_by_modes" not in inspect.signature(TimedStateRelation).parameters
    with pytest.raises(TypeError):
        hash(a)


def test_record_refuses_what_it_does_not_build():
    with pytest.raises(TypeError):
        records.record(frozen=True, order=True)
    with pytest.raises(TypeError):
        @records.record()
        class Own:
            x: int

            def __eq__(self, other):
                return True


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """The CLI's start-up imports neither module: building the value
    classes with them was the largest part of its import work."""
    code = ("import sys; before = set(sys.modules); import hybridsem.cli; "
            "hybridsem.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
