"""Checkers of refusals in the library suites: a refusal is checked by its
exception's exact type and its whole message. pytest does not rewrite the
asserts of this module, so each names what it compared.
"""
import pytest

READ_ONLY = "assignment destination is read-only"


def raises(error, message, function, *args):
    """True where function(*args) raises, which must then be exactly error
    with exactly message; False where it returns."""
    try:
        function(*args)
    except Exception as exc:
        assert (type(exc), str(exc)) == (error, message), (
            f"{type(exc).__name__}({str(exc)!r}) != {error.__name__}({message!r})")
        return True
    return False


def refused(*cases, ids=None):
    """A test that each case, (error, message, function, *args), raises,
    collected under the name that a suite assigns it to. With ids, each case
    is a test of its own; else one test runs them all."""
    def check(case):
        assert raises(*case), f"{case} returned"

    if ids is not None:
        return pytest.mark.parametrize("case", cases, ids=ids)(check)

    def test():
        for case in cases:
            check(case)
    return test
