"""Tests of the benchmark's own checks: python3 -m pytest exafsbench"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for p in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if p not in sys.path:
        sys.path.insert(0, p)
