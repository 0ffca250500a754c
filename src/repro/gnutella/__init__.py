"""Gnutella protocol substrate: messages, routing, handshake, peers,
client-implementation profiles, and the overlay simulator."""

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
    "messages": (
        "DEFAULT_TTL", "Bye", "Message", "MessageError", "Ping", "Pong", "Query",
        "QueryHit", "decode", "new_guid",
    ),
    "columnar_overlay": (
        "ENGINE_BACKENDS", "FloodContext", "FloodResult", "OverlayConfig",
        "OverlayRunResult", "compare_runs", "flood_context_from_overlay",
        "flood_queries", "simulate_workload",
    ),
    "overlay": ("OverlayNetwork", "QueryOutcome"),
    "peer": ("Action", "PeerMode", "PeerNode"),
    "qrp": (
        "PackedQRPTables", "QueryRouteTable", "keyword_hash", "keyword_hashes",
        "text_hash_table",
    ),
    "routing": ("DEFAULT_GUID_TTL_SECONDS", "RoutingTable"),
    "simulator": ("EventScheduler",),
    "topology": ("CSRTopology",),
    "wire": ("MessageStream",),
})
