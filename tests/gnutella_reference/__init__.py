"""The Gnutella object stack: the fidelity oracle of the columnar overlay.

One :class:`~gnutella_reference.peer.PeerNode` per peer, real
QUERY/QUERYHIT/PING/PONG messages (:mod:`.messages`, :mod:`.wire`), GUID
routing tables (:mod:`.routing`), pong caches (:mod:`.pongcache`), QRP
tables (:mod:`.qrp`) and a discrete-event scheduler (:mod:`.simulator`)
composed into an overlay (:mod:`.overlay`) and a measurement-in-the-
overlay run (:mod:`.livesim`).  :mod:`.backbone` builds the overlay
command's backbone from these objects; ``event_reference`` replays the
columnar engine's plan through them, and the flood property tests flood
the same queries through both.
"""
