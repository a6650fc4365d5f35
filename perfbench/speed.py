"""Host-speed probes: fixed reference computations timed next to the work.

The benchmark host is shared, and its speed switches between states that
differ by up to 1.7x and last from a fraction of a second to minutes.  Body
and step times are therefore reported at the host's reference speed: a
sample that took ``t`` seconds while the probe took ``k`` is reported as
``t * K_REF / k``.  The probe mixes what the workloads do (a sparse LU
solve, small numpy kernels and an interpreted loop), uses no part of mhd2d,
so no change to the package can move it, and takes about 0.1 ms.

Set-up time is mostly imports, which the slow state slows far less than it
slows that computation, so set-up samples are scaled by ``ImportProbe``
instead: it unmarshals and executes a fixed module body, as an import does.
"""

from __future__ import annotations

import marshal
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# probe times (s) in the host's fast state; they only set the scale
K_REF = 1.0e-4
K_IMPORT = 6.5e-4


class SpeedProbe:
    def __init__(self):
        n = 24
        t = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        a = sp.kronsum(t, t) + 0.5 * sp.identity(n * n)
        self._lu = splu(a.tocsc())
        self._rhs = np.linspace(0.0, 1.0, n * n)
        self._signal = np.cos(np.arange(2048) * 0.37)

    def __call__(self):
        """Run the reference computation once; return its duration in seconds."""
        t0 = time.perf_counter()
        y = self._lu.solve(self._rhs)
        c = np.fft.rfft(self._signal)
        acc = 0.0
        for v in y[::2]:
            acc += v * v
        float(acc + np.abs(c).sum())
        return time.perf_counter() - t0


class ImportProbe:
    def __init__(self):
        # functions and constants only: no reference cycles once the
        # namespace is cleared, so the probe leaves no garbage behind
        src = "\n".join(
            f"def f{i}(x, y=({i}, 'a{i}')):\n    return x + {i}\n"
            f"T{i} = {{'a': {i}, 'b': ({i}, {i + 1}), 'c': 'c{i}'}}\n"
            for i in range(300))
        self._blob = marshal.dumps(compile(src, "<import-probe>", "exec"))

    def __call__(self):
        """Unmarshal and run the module body once; return its duration in seconds."""
        t0 = time.perf_counter()
        ns = {}
        exec(marshal.loads(self._blob), ns)
        ns.clear()
        return time.perf_counter() - t0


def scale(probe_times):
    """Factor that takes times measured next to these probes to reference speed."""
    return K_REF / statistics.median(probe_times)


def rolling_scale(probe_times, half_width=1):
    """Per-sample factor from the median probe time in a window around it."""
    k = np.asarray(probe_times, dtype=float)
    out = np.empty(len(k))
    for i in range(len(k)):
        lo, hi = max(0, i - half_width), min(len(k), i + half_width + 1)
        out[i] = K_REF / np.median(k[lo:hi])
    return out
