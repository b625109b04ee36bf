import math

import numpy as np
import pytest

from quadarm import (DisturbanceFlags, PiecewiseConstant, QuadParams, QuadState,
                     Scenario, run)
from quadarm.sim import COLUMNS

DEG = math.pi / 180.0

#: files that hold a trace's header but not as their first line: after a UTF-8
#: byte-order mark, and as the start of one newline-less line
FOREIGN_TRACES = {
    "after_bom": "\ufeff" + ",".join(COLUMNS) + "\r\n" + ",".join(["0.0"] * len(COLUMNS)),
    "long_line": ",".join(COLUMNS * 100),
}


@pytest.fixture(params=list(FOREIGN_TRACES.values()), ids=list(FOREIGN_TRACES))
def foreign_trace(request, tmp_path):
    """Path of a CSV file whose first line is not a trace's header."""
    path = tmp_path / "foreign.csv"
    path.write_text(request.param, encoding="utf-8", newline="")
    return path


@pytest.fixture(scope="session")
def params():
    return QuadParams()


@pytest.fixture(scope="session")
def standard_trace(params):
    """Stock tracking scenario: 5 deg attitude / 5 m altitude set-points,
    all disturbance channels enabled."""
    return run(Scenario(duration=10.0), params)


@pytest.fixture(scope="session")
def estimation_scenario():
    """Hover-hold estimation benchmark: drag + wind + CoM coupling active,
    level attitude, constant 5 m altitude."""
    initial = QuadState(np.array([0, 0, 0, 0, 0, 0, 5.0, 0, 0, 0, 0, 0], float))
    zero = PiecewiseConstant.constant(0.0)
    return Scenario(
        duration=10.0,
        initial_state=initial,
        ref_roll=zero, ref_pitch=zero, ref_yaw=zero,
        ref_z=PiecewiseConstant.constant(5.0),
        flags=DisturbanceFlags(drag=True, wind=True, com=True),
    )


@pytest.fixture(scope="session")
def estimation_trace(estimation_scenario, params):
    return run(estimation_scenario, params)
