"""repro.service: workload-as-a-service streaming layer.

The ROADMAP's "heavy traffic from millions of users" story made
concrete: a long-running asyncio server (:mod:`.server`) wraps the
columnar Fig. 12 generator and pushes the query/session event stream to
subscribed clients over length-prefix-framed TCP (:mod:`.framing`),
with token-bucket rate control (:mod:`.rate`), bounded per-client
buffering, and generation paused -- never unbounded growth -- when the
slowest subscriber falls behind.  The hot path is columnar end to end:
every wave batch is serialized once (:mod:`.stream`) and the same
immutable bytes are fanned out to every subscriber; clients decode
straight back into NumPy views with no per-event Python objects
(:mod:`.client`).  :mod:`.loadtest` drives N concurrent subscribers.

See ``docs/SERVICE.md`` for the protocol, the backpressure semantics,
and the reproducibility contract.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "framing": (
        "FRAME_DATA", "FRAME_END", "FRAME_HELLO", "FRAME_STAMP", "MANIFEST_FORMAT",
        "FrameDecoder", "decode_columns", "decode_json", "decode_manifest", "decode_stamp",
        "encode_columns", "encode_frame", "encode_json_frame",
        "encode_stamp_frame", "frame_header", "parse_header",
    ),
    "rate": ("TokenBucket",),
    "stream": (
        "StreamConfig", "WorkloadFrameSource", "batch_events", "decode_batch",
        "encode_batch", "window_seed",
    ),
    "server": ("ServerConfig", "ServerStats", "WorkloadStreamServer"),
    "client": ("StreamReceipt", "collect_stream", "read_frames"),
    "loadtest": ("LoadtestConfig", "run_loadtest", "run_loadtest_sync"),
})
