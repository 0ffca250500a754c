"""Drive the repository's load-test client against one broadcast.

``run_loadtest`` -- the client ``repro-p2p loadtest`` runs -- connects
the subscribers and decodes every frame down to its columns.  From
outside, this module wraps two names that client calls, and restores
them afterwards:

``read_frames``
    hashes each subscriber's STAMP-free frame bytes (the part of the
    stream the reproducibility contract covers), and notes, per STAMP
    sequence number, when the stamped frame has been decoded: the
    client asks for the next frame only once it has decoded this one.
``decode_batch``
    times decoding, when asked to.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import time
from typing import Dict, List

import repro.service.loadtest as loadtest
from repro.service.framing import FRAME_DATA, FRAME_STAMP, decode_stamp, frame_header


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


class Probe:
    """What the wrappers saw, one entry per subscriber."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.digests: List[str] = []
        #: per subscriber: STAMP sequence -> STAMP to decoded, in ns
        self.latencies_ns: List[Dict[int, int]] = []
        self.decode_ns = 0
        self.threads = 0

    def wrap_read_frames(self, read_frames):
        async def wrapped(reader):
            digest = hashlib.sha256()
            latencies: Dict[int, int] = {}
            self.latencies_ns.append(latencies)
            stamp = None
            async for kind, payload in read_frames(reader):
                if kind == FRAME_STAMP:
                    stamp = decode_stamp(payload)
                    yield kind, payload
                    continue
                digest.update(frame_header(kind, len(payload)))
                digest.update(payload)
                yield kind, payload
                if kind == FRAME_DATA and stamp is not None:
                    latencies[stamp[0]] = time.monotonic_ns() - stamp[1]
                    stamp = None
            self.threads = max(self.threads, thread_count())
            self.digests.append(digest.hexdigest())

        return wrapped

    def wrap_decode_batch(self, decode_batch):
        def wrapped(payload):
            start = time.perf_counter_ns()
            batch = decode_batch(payload)
            self.decode_ns += time.perf_counter_ns() - start
            return batch

        return wrapped


@contextlib.contextmanager
def _wrapped(probe: Probe):
    saved = loadtest.read_frames, loadtest.decode_batch
    loadtest.read_frames = probe.wrap_read_frames(saved[0])
    if probe.timed:
        loadtest.decode_batch = probe.wrap_decode_batch(saved[1])
    try:
        yield
    finally:
        loadtest.read_frames, loadtest.decode_batch = saved


def subscribe(host: str, port: int, clients: int, timed: bool, timeout: float):
    """Run the load-test client to END on every subscriber, giving up
    after ``timeout`` seconds.  Returns its report and the probe."""
    probe = Probe(timed)
    config = loadtest.LoadtestConfig(host=host, port=port, clients=clients)
    with _wrapped(probe):
        report = asyncio.run(asyncio.wait_for(loadtest.run_loadtest(config), timeout))
    return report, probe
