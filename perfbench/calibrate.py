"""Host-speed calibration: a fixed reference kernel timed between ops.

The benchmark runs on shared machines whose speed drifts by tens of percent
within minutes, and switches between fast and slow regimes within seconds
(other tenants contend for the same cores, caches and memory bandwidth),
which swamps any code change.  Every run therefore times a kernel before
and after each timed span (an op, a service segment, a set-up sample) and
reports the span at a reference host speed: its measured time divided by
its host factor, the mean of the two kernel times around it over the
kernel's ``reference_s``.

A slow regime does not slow all code alike (JSON work slows about twice as
much as an interpreter loop), so each workload uses the kernel whose mix is
closest to its own: :class:`NumericClock` for the compute workloads,
:class:`TransportClock` for the service.  The kernels use only the standard
library, NumPy and SciPy, never the program, so a change to the program
cannot move them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import socket
import time
from pathlib import Path
from typing import List


class HostClock:
    """Times a reference kernel and turns the samples into host factors."""

    #: Kernel time that defines the reference host the figures are scaled
    #: to.  It is a fixed convention, not a measurement: a time at reference
    #: speed is the time on a host that runs the kernel in exactly this long.
    reference_s = 1.0

    def __init__(self, workdir: Path) -> None:
        self.samples: List[float] = []

    def _work(self) -> None:
        raise NotImplementedError

    def _kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> None:
        self.samples.append(self._kernel())

    def bracket(self, first: int, count: int) -> List[float]:
        """Host factors of ``count`` consecutive timed spans, each from the
        samples taken just before and just after it (``samples[first:]``);
        above 1 on a host slower than the reference."""
        samples = self.samples[first : first + count + 1]
        if len(samples) != count + 1:
            raise ValueError(f"{count} spans need {count + 1} samples, got {len(samples)}")
        return [
            (before + after) / 2 / self.reference_s
            for before, after in zip(samples, samples[1:])
        ]

    def close(self) -> None:
        """Release what the kernel holds open."""


class NumericClock(HostClock):
    """About half interpreter work (JSON, hashing, dicts), half native
    numerics (sparse LU, array maths); about 0.25 s a sample."""

    reference_s = 0.25

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        import numpy as np
        from scipy import sparse

        n = 12
        ones = np.ones(n)
        line = sparse.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
        eye = sparse.identity(n)
        laplacian = (
            sparse.kron(sparse.kron(line, eye), eye)
            + sparse.kron(sparse.kron(eye, line), eye)
            + sparse.kron(sparse.kron(eye, eye), line)
        )
        self._matrix = (laplacian + 0.1 * sparse.identity(n**3)).tocsc()
        self._vector = np.random.default_rng(0).random(20000)
        self._document = {
            f"key{i}": {"values": [i * 0.5, i * 1.5, i * 2.5], "name": f"item{i}"}
            for i in range(400)
        }
        self._kernel()  # untimed: loads SciPy's solver, warms the caches

    def _work(self) -> None:
        import numpy as np
        from scipy.sparse.linalg import splu

        for _ in range(30):
            text = json.dumps(self._document, sort_keys=True)
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            json.loads(text)
        counts = {}
        for i in range(150000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        for _ in range(2):
            splu(self._matrix, permc_spec="MMD_AT_PLUS_A")
        for _ in range(1600):
            np.sqrt(np.exp(self._vector) * self._vector + 1.0)


class TransportClock(HostClock):
    """What a store-served request does, on fixed data: read a JSON file,
    parse it, re-encode it with sorted keys, hash it and pass it through a
    socket pair; about 0.05 s a sample, so it fits between short segments."""

    reference_s = 0.05

    #: Reads of the kernel's files per sample.
    READS = 24

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        rng = random.Random(0)
        document = {
            f"section{i}": {
                "values": [rng.random() for _ in range(40)],
                "name": f"s{i}",
                "meta": {"index": i, "flag": True},
            }
            for i in range(40)
        }
        directory = workdir / "calibration"
        directory.mkdir(parents=True, exist_ok=True)
        self._files = []
        for i in range(4):
            path = directory / f"document{i}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            self._files.append(path)
        self._sender, self._receiver = socket.socketpair()
        self._kernel()  # untimed: warms the page cache

    def _work(self) -> None:
        for i in range(self.READS):
            document = json.loads(self._files[i % len(self._files)].read_bytes())
            text = json.dumps(document, sort_keys=True).encode("utf-8")
            hashlib.sha256(text).digest()
            chunk = text[:8000]
            self._sender.sendall(chunk)
            received = 0
            while received < len(chunk):
                received += len(self._receiver.recv(65536))

    def close(self) -> None:
        self._sender.close()
        self._receiver.close()
