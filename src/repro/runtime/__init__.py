"""The real execution backend: the tree protocol over processes and sockets.

Everything in :mod:`repro.sim` runs against the discrete-event simulator;
this package runs the *same* coordinator, site, lock, lease and retry
logic over real TCP connections, with each replica site a real OS
process.  asyncio is the coordinator's loop only: a site process runs
the small :class:`~repro.runtime.loop.SelectorLoop` and never imports
it, and both ends drive their sockets through one transport class.

* :mod:`~repro.runtime.interfaces` — the ``Clock``/``Transport`` seam
  both backends implement;
* :mod:`~repro.runtime.clock` — wall-clock ``Clock`` over an event loop
  (asyncio's or a site's ``SelectorLoop``);
* :mod:`~repro.runtime.loop` — the socket transport both ends share and
  the selector loop a site process runs;
* :mod:`~repro.runtime.codec` — length-prefixed JSON frames: positional
  arrays for the protocol messages, objects for control;
* :mod:`~repro.runtime.connection` — the one framed connection class
  both ends share (frame splitting, handshake, one write per peer per
  loop iteration, bounded send queue);
* :mod:`~repro.runtime.loopback` — the minimal in-process transport
  (seam conformance tests);
* :mod:`~repro.runtime.siteserver` — one replica site served over TCP
  (the ``repro serve`` entry point);
* :mod:`~repro.runtime.transport` — the coordinator-side TCP transport;
* :mod:`~repro.runtime.cluster` — spawn N local site processes, wire a
  coordinator front-end, serve a get/put KV API, and inject SIGKILL
  chaos (the ``repro cluster`` entry point).

Nothing here imports the simulator's event loop; nothing in the protocol
layer imports this package except through the seam.
"""

from repro.runtime.interfaces import CancelHandle, Clock, Endpoint, Transport

__all__ = ["CancelHandle", "Clock", "Endpoint", "Transport"]
