"""2D incompressible MHD on a staggered grid, with a verified-estimates harness."""

import ctypes
import sys

__version__ = "0.1.0"

# glibc raises its mmap threshold to the size of each large block it frees, so
# after the first 64^2 eigenbasis the operator factorizations come from a
# fragmenting heap and peak RSS grows with every experiment a process runs.
# Fix the threshold (M_MMAP_THRESHOLD = -3) at 1 MiB instead.
if sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt"):
    ctypes.CDLL(None).mallopt(-3, 1 << 20)
