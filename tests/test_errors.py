import pickle

import pytest

import kkdamp
from kkdamp import errors

# one instance of every KKDampError subclass, built with the arguments of its __init__
CASES = [
    errors.ValidationError("cfl", "must be > 0"),
    errors.ParseError(3, 5, "a: expected a number, got 'abc'", "bad.cfg"),
    errors.ParseError(1, 1, "empty key"),
    errors.StabilityViolation("dt=0.1 exceeds stable step 0.05", speed=2.5),
    errors.StabilityViolation("march reached 10000000 steps at t=0.5"),
    *(
        cls("message")
        for cls in (errors.ConfigError, errors.OutOfRange, errors.DegenerateState,
                    errors.AxisState, errors.QuadratureFailure, errors.NonFinite,
                    errors.InsufficientData)
    ),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_cases_cover_every_error_type():
    assert {type(e) for e in CASES} == set(_subclasses(errors.KKDampError))


def test_the_package_exports_exactly_the_error_types():
    exported = {name: obj for name, obj in vars(kkdamp).items()
                if isinstance(obj, type) and issubclass(obj, errors.KKDampError)}
    defined = {errors.KKDampError, *_subclasses(errors.KKDampError)}
    assert exported == {cls.__name__: cls for cls in defined}


@pytest.mark.parametrize("exc", CASES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    # a `run` worker sends its error back to the parent this way
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.__dict__ == exc.__dict__  # field, line, col, path, speed
