"""Deliberately bad module exercised by the linter fixture tests.

Never imported — parsed only.  Each construct below triggers exactly one
rule; the tests assert exact finding counts and messages against this file,
so edits here must be mirrored in ``tests/analysis/test_linter.py``.
"""

import numpy as np

__all__ = ["leak"]


def leak(values=[]):  # MUT001
    values.append(np.random.rand())  # RNG001
    return values


def helper():  # EXP002
    try:
        buf = np.zeros(4)  # DTY001 under the all-hot fixture config
    except:  # EXC001
        buf = None
    return buf


def poke(t):  # EXP002
    t.data += 1.0  # TEN001
    return t
