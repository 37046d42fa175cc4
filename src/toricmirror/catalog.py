"""Ready-made fans and Kahler data for tests and documentation examples."""

from __future__ import annotations

from .fan import Fan, validate_fan
from .kahler import KahlerData


def projective_line() -> Fan:
    return validate_fan(1, [(1,), (-1,)], [(0,), (1,)])


def projective_plane() -> Fan:
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def p1_times_p1() -> Fan:
    return validate_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])


def hirzebruch(a: int) -> Fan:
    """The Hirzebruch surface F_a with rays (1,0), (0,1), (-1,-a), (0,-1)."""
    return validate_fan(2, [(1, 0), (0, 1), (-1, -a), (0, -1)])


# The F2 convention with the zero-section ray listed first and its opposite
# last, matching the moment polytope {x1 >= 0, x2 >= 0, x2 <= t2,
# x1 + 2*x2 <= t1 + 2*t2}.
F2_RAYS = ((0, -1), (1, 0), (-1, -2), (0, 1))
F2_LAMBDAS = ("-t2", "0", "-t1-2*t2", "0")


def hirzebruch2() -> Fan:
    return validate_fan(2, F2_RAYS)


def hirzebruch2_kahler() -> KahlerData:
    """F2 with its standard symbolic Kahler data; q1 tracks the base class,
    q2 the fiber class."""
    return KahlerData(hirzebruch2(), F2_LAMBDAS)
