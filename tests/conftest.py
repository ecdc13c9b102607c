import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

import numpy as np

from io500kit.types import Phase, ProcessTimingTable


SUMMARY_BASIC = """\
IO500 version io500-sc22
[RESULT] ior-easy-write 113.000000 GiB/s : time 316.631000 seconds
[RESULT] mdtest-easy-write 25.751000 kIOPS : time 361.111000 seconds
[RESULT] ior-hard-write 2.325000 GiB/s : time 302.207000 seconds
[RESULT] mdtest-hard-write 4.118000 kIOPS : time 310.841000 seconds
[RESULT] find 1934.830000 kIOPS : time 5.291000 seconds
[RESULT] ior-easy-read 104.627000 GiB/s : time 341.984000 seconds
[RESULT] mdtest-easy-stat 238.446000 kIOPS : time 39.001000 seconds
[RESULT] ior-hard-read 2.915000 GiB/s : time 241.017000 seconds
[RESULT] mdtest-hard-stat 70.102000 kIOPS : time 18.253000 seconds
[RESULT] mdtest-easy-delete 30.514000 kIOPS : time 304.766000 seconds
[RESULT] mdtest-hard-read 14.662000 kIOPS : time 87.284000 seconds
[RESULT] mdtest-hard-delete 4.713000 kIOPS : time 271.533000 seconds
[SCORE ] Bandwidth 15.177613 GiB/s : IOPS 31.074327 kiops : TOTAL 21.719972
"""


@pytest.fixture
def summary_basic():
    return SUMMARY_BASIC


def make_timing(phase=Phase.IOR_EASY_WRITE, runtimes=(310.0, 312.0, 309.0, 311.0),
                stonewall=300.0, closes=None, items=None):
    n = len(runtimes)
    return ProcessTimingTable(
        phase=phase,
        rank=np.arange(n),
        start_s=np.zeros(n),
        end_s=np.asarray(runtimes, dtype=float),
        close_s=None if closes is None else np.asarray(closes, dtype=float),
        items=None if items is None else np.asarray(items, dtype=np.int64),
        stonewall_s=stonewall,
    )


@pytest.fixture
def timing_factory():
    return make_timing
