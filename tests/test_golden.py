"""Byte-for-byte pins of `quadarm simulate` traces and `quadarm tune` outputs.

The same config must always give the same CSV bytes; a change to the loop
that moves a single bit of any logged value fails here.  A tune's tuned
YAML and history CSV pin the cost path, the estimation oracle included.
"""

import hashlib

import pytest
from click.testing import CliRunner

from quadarm.cli import main

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


@pytest.mark.parametrize("config, digest", [
    (None, "0c8626ba4ac5a1bc8d88a063d5dcd2cbdf310eee6e52771334acad9bbeed237d"),
    (ARM_PROFILE, "a7481e4a75ca6239ef3951305f099d571e476f22e507fcbc3cad5758b79545a6"),
    (OPEN_LOOP, "3203e463d4e68e0d3c91c8427914f212f8673a460a81706ac7ee728df710d736"),
], ids=["stock", "arm_profile", "open_loop"])
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
