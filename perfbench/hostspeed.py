"""Host-speed probe: a fixed ~20 ms kernel that never imports ``repro``.

Its time moves only with the host, so it is the yardstick every timed
interval of a run is read against.  On the 2-vCPU KVM guest (Sapphire
Rapids, shared host) the benchmark was built on, the host runs for seconds
to tens of minutes at a time up to ~2x slower, with no steal time and no
preemption visible to the guest.  The slowdown is not uniform: interpreted
Python slows by ~1.9-2.1x, small NumPy ops by ~1.5x.  So the kernel mixes
the kinds of code the program runs, in fixed shares of its time:

* 40% interpreted dict/list churn;
* 40% walking a dataclass graph into JSON and hashing it (the cache and
  serialization layers' kind of work);
* 20% small NumPy ops.

With that mix, an op's time over the mean of the probes just before and
after it moved by at most ~14% (30 s windows, every workload) between the
host's fast and slow states, against ~22% with the first two parts alone
and up to ~2x for raw times.

:data:`REFERENCE_S` is about the kernel's time on that guest in its fast
state.  A timed interval reported "at the reference host speed" is its raw
time times ``REFERENCE_S / probe``.  A change to the program moves that
figure one to one; a change of host speed mostly cancels.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import time

import numpy as np

#: The kernel's time (s) on the reference host in its fast state.
REFERENCE_S = 0.020

_BASE = np.linspace(1.0, 2.0, 4096)


@dataclasses.dataclass
class _Leaf:
    name: str
    value: float
    tags: tuple


@dataclasses.dataclass
class _Node:
    name: str
    children: list
    meta: dict


_TREE = [
    _Node(
        f"n{i}",
        [_Leaf(f"l{j}", j / 7.0, ("a", j, None)) for j in range(10)],
        {"k": i, "w": [1.5, 2.5]},
    )
    for i in range(30)
]


def _plain(obj):
    """Dataclasses, tuples and dicts as plain JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


def kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict = {}
    items = []
    for i in range(40000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        items.append(key)
    items.sort()
    digests = set()
    for _ in range(3):
        text = json.dumps(_plain(_TREE), sort_keys=True, separators=(",", ":"))
        digests.add(hashlib.sha256(text.encode()).hexdigest())
        json.loads(text)
    x = _BASE.copy()
    acc = 0.0
    for _ in range(390):
        x = np.sqrt(x * 1.0001 + 0.5)
        acc += float(x.sum())
    if acc <= 0 or len(table) != 1021 or len(digests) != 1:  # consume every part
        raise AssertionError("host-speed kernel miscomputed")
    return time.perf_counter() - t0


def probe() -> float:
    """The host's current speed: the faster of two kernels, collector off.

    The collector is off so that the program's heap, left by the op before,
    cannot slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(kernel(), kernel())
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, host: float) -> float:
    """``seconds`` measured where the probe took ``host`` s, at reference speed."""
    return seconds * REFERENCE_S / host
