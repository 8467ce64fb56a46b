"""The value types built by ``qprop._record.record`` behave as the frozen
dataclasses they replace.

Each record class is checked against a twin made with
``dataclasses.dataclass`` from the same annotations, defaults and methods:
repr, equality and hash, frozen fields, construction by position, keyword
and default, ``TypeError`` on a bad call, ``__post_init__`` validation and
``__match_args__``. A record built by ``_record.unchecked`` is checked against
one built by its constructor.
"""
import dataclasses
import math

import numpy as np
import pytest

from qprop import _record, cli, decision, propensity, qubits

# The attributes record installs; everything else a twin copies.
INSTALLED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__match_args__", "__dict__", "__weakref__"}


def twin(cls):
    namespace = {key: value for key, value in cls.__dict__.items() if key not in INSTALLED}
    eq = "__eq__" in cls.__dict__
    return dataclasses.dataclass(frozen=True, eq=eq)(type(cls.__name__, (), namespace))


RECORDS = sorted((cls for module in (cli, decision, propensity, qubits)
                  for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and cls.__dict__.get("__setattr__") is _record._assign),
                 key=lambda cls: cls.__qualname__)

EVENTS = decision.EventDistribution(0.25, 0.25, 0.25, 0.25)
CERTAIN = decision.EventDistribution(1.0, 0.0, 0.0, 0.0)
CURVE = propensity.GaussianCurve(0.0, 1.0)

# Per class: two valid argument tuples that differ, then argument tuples that
# __post_init__ refuses.
SAMPLES = {
    "Command": [("help", (), print, ()), ("other", (), print, ("numpy",))],
    "CommandResult": [({"a": 1.0},), ({"a": 1.0}, {"x": [1.0]}, "failed")],
    "Param": [("x", "float"), ("x", "posint", True, 1, ("a",), "help")],
    "DecisionScenario": [(0.3, 0.2), (0.3, 0.2, decision.QuestionOrder.B_THEN_A),
                         (math.nan, 0.2), (0.3, 0.2, "ab"), (1e308, -1e308)],
    "EventDistribution": [(0.25, 0.25, 0.25, 0.25), (1.0, 0.0, 0.0, 0.0),
                          (0.5, 0.5, 0.5, 0.5), (math.nan, 0.0, 0.0, 1.0), (2.0, -1.0, 0.0, 0.0)],
    "OrderEffectSummary": [(0.3, 0.2, EVENTS, EVENTS), (0.3, 0.2, EVENTS, CERTAIN)],
    "EquivalenceReport": [(EVENTS, EVENTS, 0.0, 1e-12, True),
                          (EVENTS, CERTAIN, 0.75, 1e-12, False)],
    "EquivalenceSweep": [(10, 1e-12, 1e-16, 2e-16, 0), (10, 1e-12, 1e-16, 2e-16, 1)],
    "ReversalDecision": [(1.0, 4.0, 4.0, True), (1.0, 2.0, 2.0, False)],
    "GaussianCurve": [(0.0, 1.0), (0.5, 1.0), (0.0, -1.0), (0.0, 0.0), (math.inf, 1.0)],
    "PointMassCurve": [(0.5,), (-0.5,), (math.nan,)],
    "EntropicScale": [(1.0,), (2.0,), (0.0,), (math.inf,)],
    "OscillatorParams": [(1.0, 0.3), (1.0, 0.3, 2.0), (-1.0, 0.3), (1.0, 0.3, math.nan)],
    "JointPropensity": [(CURVE, CURVE, CURVE, 0.5, math.log(0.5)),
                        (CURVE, propensity.PointMassCurve(0.5), CURVE, 0.5, math.log(0.5))],
    "ReversalEnergy": [(1.1, 1.0), (1.0, 1.0)],
    "StateVector": [([1.0, 0.0],), ([0.0, 1.0, 0.0, 0.0],), ([1.0, 1.0],), ([math.nan, 1.0],),
                    ([1.0, 0.0, 0.0],)],
    "Gate": [(np.eye(2),), (np.eye(4),), ([[1.0, 1.0], [0.0, 1.0]],), ([1.0, 0.0],)],
    "_Column": [(4, 0, print, {}), (4, 1, print, {})],
}


def outcome(make):
    """What a call gives: the repr of its result, or its exception's type (and,
    but for a TypeError, whose wording Python's own signature check sets, its
    message)."""
    try:
        return "ok", repr(make())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), None if isinstance(exc, TypeError) else str(exc)


def test_every_value_type_is_a_record_with_samples():
    assert {cls.__name__ for cls in RECORDS} == set(SAMPLES)
    assert len(RECORDS) == 18


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pair(request):
    return request.param, twin(request.param)


def test_match_args_and_class_defaults(pair):
    cls, dc = pair
    names = tuple(field.name for field in dataclasses.fields(dc))
    assert cls.__match_args__ == dc.__match_args__ == names
    for name in names:
        assert getattr(cls, name, "unset") == getattr(dc, name, "unset")


def test_construction_and_repr(pair):
    cls, dc = pair
    names = cls.__match_args__
    for args in SAMPLES[cls.__name__]:
        calls = [lambda make: make(*args),
                 lambda make: make(**dict(zip(names, args)))]
        calls += [lambda make, k=k: make(*args[:k], **dict(zip(names[k:], args[k:])))
                  for k in range(1, len(args))]
        for call in calls:
            assert outcome(lambda: call(cls)) == outcome(lambda: call(dc))


def test_bad_calls_raise_type_error(pair):
    cls, dc = pair
    names = cls.__match_args__
    args = SAMPLES[cls.__name__][0]
    required = len([f for f in dataclasses.fields(dc)
                    if f.default is dataclasses.MISSING])
    full = args + tuple(getattr(dc, name) for name in names[len(args):])
    bad = [lambda make: make(*full, None),
           lambda make: make(*full[:required - 1]),
           lambda make: make(**dict(zip(names[1:], full[1:]))),
           lambda make: make(*full, bogus=1),
           lambda make: make(*full[:1], **dict(zip(names, full)))]
    for call in bad:
        assert outcome(lambda: call(cls))[0] is TypeError
        assert outcome(lambda: call(dc))[0] is TypeError


def test_equality_and_hash(pair):
    cls, dc = pair
    first, second = SAMPLES[cls.__name__][:2]
    seen = []
    for make in (cls, dc):
        a, same, other = make(*first), make(*first), make(*second)
        # Equal, unequal and other-type operands: a record of another type,
        # and one of a subclass with equal fields.
        operands = [a, same, other, first, None, 1.0,
                    CURVE if cls is decision.EventDistribution else EVENTS,
                    type("Sub", (make,), {})(*first)]
        comparisons = [(x == y, x != y) for x in (a, same, other) for y in operands]
        try:
            hashes = [hash(x) for x in (a, same, other)]
        except TypeError:             # a field holds a dict
            hashes = TypeError
        else:
            if "__eq__" not in cls.__dict__:      # identity: the hashes differ by object
                hashes = [h == object.__hash__(x) for h, x in zip(hashes, (a, same, other))]
        seen.append((comparisons, hashes))
    assert seen[0] == seen[1]


def test_fields_are_frozen(pair):
    cls, dc = pair
    args = SAMPLES[cls.__name__][0]
    for make in (cls, dc):
        obj = make(*args)
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        assert repr(obj) == repr(make(*args))


def test_a_field_without_default_after_one_with_it_is_refused():
    namespace = {"__annotations__": {"a": "int", "b": "int"}, "a": 1}
    with pytest.raises(TypeError):
        dataclasses.dataclass(type("Bad", (), dict(namespace)))
    with pytest.raises(TypeError):
        _record.record(type("Bad", (), dict(namespace)))


def test_post_init_sees_every_field_and_may_set_one():
    state = qubits.StateVector([1, 0])
    assert state.amplitudes.dtype == np.complex128 and not state.amplitudes.flags.writeable
    scenario = decision.DecisionScenario(0.3, 0.2)
    assert scenario.order is decision.QuestionOrder.A_THEN_B
    with pytest.raises(ValueError, match="sigma must be positive"):
        propensity.GaussianCurve(0.0, -1.0)


def test_unchecked_builds_what_the_constructor_builds(pair, monkeypatch):
    """``_record.unchecked`` gives, from a record's fields, a record that is
    frozen and has the constructor's repr, equality and hash; it never calls
    ``__post_init__``, so it also builds the samples the constructor refuses."""
    cls, _ = pair
    names = cls.__match_args__
    checked = cls(*SAMPLES[cls.__name__][0])
    fields = [getattr(checked, name) for name in names]

    def refuse(self):
        raise AssertionError("__post_init__ called")

    monkeypatch.setattr(cls, "__post_init__", refuse, raising=False)
    built = _record.unchecked(cls, *fields)
    assert type(built) is cls and repr(built) == repr(checked)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(built, names[0], None)
    if "__eq__" in cls.__dict__:
        assert built == checked and not built != checked
        assert outcome(lambda: hash(built)) == outcome(lambda: hash(checked))
    else:                             # identity, as for two constructed records
        assert built == built and built != checked
        assert hash(built) == object.__hash__(built)
    for args in SAMPLES[cls.__name__][2:]:
        full = (*args, *(getattr(cls, name) for name in names[len(args):]))
        text = ", ".join(f"{name}={value!r}" for name, value in zip(names, full))
        assert repr(_record.unchecked(cls, *full)) == f"{cls.__qualname__}({text})"
