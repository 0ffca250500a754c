"""Gnutella protocol substrate: handshake, client-implementation
profiles, QRP keyword hashes, and the columnar overlay simulator."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "clients": (
        "CLIENT_PROFILES", "MEASUREMENT_USER_AGENT", "ClientProfile",
        "ExpandedQuery", "choose_profile", "expand_user_session",
    ),
    "handshake": (
        "HandshakeError", "HandshakeOffer", "HandshakeResponse", "negotiate",
        "parse_headers",
    ),
    "columnar_overlay": (
        "FloodContext", "FloodResult", "OverlayConfig", "OverlayRunResult",
        "flood_queries", "simulate_workload",
    ),
    "qrp": ("keyword_hashes", "text_hash_table"),
    "topology": ("CSRTopology",),
})
