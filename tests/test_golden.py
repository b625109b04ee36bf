"""Byte-for-byte pins of `quadarm simulate` traces.

The same config must always give the same CSV bytes; a change to the loop
that moves a single bit of any logged value fails here.
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
