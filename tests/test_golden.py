"""Byte-for-byte pins of `quadarm simulate` traces and `quadarm tune` outputs.

The same config must always give the same CSV bytes; a change to the loop
that moves a single bit of any logged value fails here.  A tune's tuned
YAML and history CSV pin the cost path, the estimation oracle included, and
the text ``sim.run`` renders its loop from is pinned as well.
"""

import hashlib
import linecache

import pytest
from click.testing import CliRunner

from quadarm import render, sim
from quadarm.adrc import EsoGains, PdGains
from quadarm.cli import main
from quadarm.disturbances import DisturbanceFlags, DisturbanceParams
from quadarm.model import QuadParams

ARM_PROFILE = """\
scenario:
  duration: 4.0
  d1_profile: [[0, 0.8], [1, 0.2], [2.5, 0.5]]
disturbances:
  strict_signs: false
"""

OPEN_LOOP = """\
scenario:
  duration: 2.0
  open_loop: true
  initial_state: [0, 0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0]
  open_loop_u1: [[0, 19.62], [0.5, 25], [1.2, 15]]
"""

CHANNELS_OFF = """\
scenario: {duration: 2.0}
disturbances:
  enable: {drag: false, ground_effect: false, wind: false, com: false}
"""

COM_ONLY = """\
scenario: {duration: 2.0}
disturbances:
  enable: {drag: false, ground_effect: false, wind: false, com: true}
"""

TWO_SEGMENT_REFERENCE = """\
scenario:
  duration: 3.0
  references:
    roll_deg: [[0, 5], [1.5, -3]]
    z: [[0, 5], [1.0, 4]]
"""

# starts below the ground-effect floor z_min = 0.2 m and holds 0.3 m
LOW_ALTITUDE = """\
scenario:
  duration: 2.0
  initial_state: [0, 0, 0, 0, 0, 0, 0.1, 0, 0, 0, 0, 0]
  references:
    z: [[0, 0.3]]
"""

# the pitch limit saturates for 162 records of 2001
OBSERVER_OVERRIDES = """\
scenario: {duration: 2.0}
controller:
  eso_overrides:
    roll: {p1: 40.0, p2: 2000.0}
    altitude: {p3: 2500.0}
  u_limits:
    pitch: [-0.2, 0.2]
"""


@pytest.mark.parametrize("config, digest", [
    (None, "0c8626ba4ac5a1bc8d88a063d5dcd2cbdf310eee6e52771334acad9bbeed237d"),
    (ARM_PROFILE, "a7481e4a75ca6239ef3951305f099d571e476f22e507fcbc3cad5758b79545a6"),
    (OPEN_LOOP, "3203e463d4e68e0d3c91c8427914f212f8673a460a81706ac7ee728df710d736"),
    (CHANNELS_OFF, "a4fb61af501b3cc1223f0bb008ba7009b5fe51b71ea668967c373c3922ddcb18"),
    (COM_ONLY, "8cc002d048a4d073bb71e9402d6ad009400633595464ded1409486c689ec2eec"),
    (TWO_SEGMENT_REFERENCE, "05566eac510b5693b9cd2bdb79a3cd2c02525faf69b27cd8f9d313641dbc9a59"),
    (LOW_ALTITUDE, "d3f59529d84dbd11915ac425ae44d3e7fb189591318a19d5ffce5c82d1e22813"),
    (OBSERVER_OVERRIDES, "ecf3755440d7a9a88b9a5d749fdb3e2dc691d7288f140e487261eccf54427f1c"),
], ids=["stock", "arm_profile", "open_loop", "channels_off", "com_only",
        "two_segment_reference", "low_altitude", "observer_overrides"])
def test_simulate_csv_bytes(tmp_path, config, digest):
    args = ["simulate", "--out", str(tmp_path / "trace.csv")]
    if config is not None:
        (tmp_path / "config.yaml").write_text(config)
        args += ["--config", str(tmp_path / "config.yaml")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == digest


TUNE_SHARED = """\
scenario: {duration: 0.25}
tuner: {options: {max_iterations: 1}}
"""

# the stock gains: the shared observer gains once per loop, then the PD gains
TUNE_PER_SUBSYSTEM = """\
scenario: {duration: 0.25}
tuner:
  layout: per_subsystem
  initial: [29.5659, 2907.0, 3000.0, 29.5659, 2907.0, 3000.0, 29.5659, 2907.0, 3000.0,
            29.5659, 2907.0, 3000.0, 90.3979, 19.6321, 79.3794, 21.1666, 69.8457, 16.8096,
            10.5246, 9.5557]
  options: {max_iterations: 1}
"""


@pytest.mark.parametrize("config, tuned_digest, history_digest", [
    (TUNE_SHARED, "909d7f570dd497c6b4cd104b0c2fbcf5402b49f3e20ddba5d503deaff8982cf8",
     "f5f9051fb42cf80ee628e631631722ed3cfc05e071e5667fa4e63d59c736fd37"),
    (TUNE_PER_SUBSYSTEM, "cba5d0edca2e3f12b24bdbaabbd64b7f12d5e3236a8fc9caaf6dfd3405e9e50f",
     "0e6fc28ae03fe857ae69b92e0bcdd71d9132fbe785e79d4b5b4c7316938e1287"),
], ids=["shared", "per_subsystem"])
def test_tune_output_bytes(tmp_path, config, tuned_digest, history_digest):
    (tmp_path / "config.yaml").write_text(config)
    result = CliRunner().invoke(main, ["tune", "--config", str(tmp_path / "config.yaml"),
                                       "--out", str(tmp_path / "tuned.yaml")])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256((tmp_path / "tuned.yaml").read_bytes()).hexdigest() == tuned_digest
    history = (tmp_path / "tuned_history.csv").read_bytes()
    assert hashlib.sha256(history).hexdigest() == history_digest


#: sha256 of the source text of ``sim.run``'s rendered loop
LOOP_TEXT_DIGEST = "9bfda45698656bc0b00ac0d9ce5e438e1d9b659515378471b05c89ba61934944"


def rendered_loop(monkeypatch, *args, **kwargs) -> str:
    """The source text ``sim.run(*args, **kwargs)`` compiles its loop from."""
    loops, kernel = [], render.kernel
    monkeypatch.setattr(render, "kernel", lambda *a: loops.append(kernel(*a)) or loops[-1])
    sim.run(*args, **kwargs)
    monkeypatch.undo()
    (loop,) = loops
    return "".join(linecache.getlines(loop.__code__.co_filename))


def test_rendered_loop_text(monkeypatch):
    # one text serves every configuration: a changed formula moves this digest
    stock = rendered_loop(monkeypatch, sim.Scenario(duration=0.01), QuadParams())
    other = rendered_loop(
        monkeypatch,
        sim.Scenario(duration=0.02, dt=0.002, flags=DisturbanceFlags(com=True),
                     ref_roll=sim.PiecewiseConstant(((0.0, 0.1), (0.01, -0.1))),
                     d1_profile=sim.PiecewiseConstant(((0.0, 0.8), (0.01, 0.2)))),
        QuadParams(), DisturbanceParams(strict_signs=False),
        sim.ControllerGains(pd_roll=PdGains(3.0, 4.0), eso_overrides={"yaw": EsoGains(40.0)}))
    assert other == stock
    assert hashlib.sha256(stock.encode()).hexdigest() == LOOP_TEXT_DIGEST
