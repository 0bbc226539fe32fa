import pickle

import pytest

from covertime import errors
from covertime.graphs import from_edge_list

# one instance of every exception class the package defines, as its raise
# sites build them
INSTANCES = [
    errors.CovertimeError("base"),
    errors.EdgeListParseError(3, "bad vertex count 'x'"),
    errors.VertexRangeError("vertex 9 outside [0, 4)"),
    errors.ContractViolation("n_grid needs >= 3 distinct points"),
    errors.DegenerateModelError("no usable component at n=5"),
    errors.StepLimitExceeded("walk ran past 1000 steps"),
]


def test_every_package_exception_is_listed():
    defined = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.CovertimeError)}
    assert defined == {type(exc) for exc in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda exc: type(exc).__name__)
def test_pickle_round_trip(exc):
    # a scaling-suite worker's exception crosses a pipe this way
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert getattr(back, "line_number", None) == getattr(exc, "line_number", None)


def test_parse_error_message_and_line():
    exc = errors.EdgeListParseError(3, "bad")
    assert str(exc) == "line 3: bad"
    assert exc.line_number == 3
    with pytest.raises(errors.EdgeListParseError, match=r"^line 2: non-integer field") as info:
        from_edge_list("0 1\nx y\n")
    assert pickle.loads(pickle.dumps(info.value)).line_number == 2
