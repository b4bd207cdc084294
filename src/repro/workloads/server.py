"""Long-running sessioned server workload (the paper's ch. 4.2 claim).

The thesis closes by arguing CG's frame-pop reclamation should shine in
*long-running servers and servlets*: each request builds an object graph
that mostly dies when its handler frame pops, so CG reclaims it with no
marking pause — while a tracing collector accumulates request garbage
until an allocation failure stops the world mid-request.  This workload
restates that claim as a production SLO: serve N requests under a seeded
arrival schedule and measure p50/p99/p999 request latency per system.

Structure:

* **Request handlers are bytecode** (``Srv.handle``), invoked once per
  request through :meth:`Runtime.invoke`, so all four dispatch tiers
  execute the same handler program and CG counters stay bit-identical
  across tiers.  Each request allocates a request object, a three-header
  chain, and a response — all frame-local — plus a route-table read
  (section 3.4 keeps the request uncontaminated by the static route).
* **Session escape**: every ``escape_every``-th request allocates a
  session object and ``aastore``\\ s it into the static session table —
  the configurable escape rate (putstatic pinning via the array).
* **Connection churn**: the Python-side acceptor groups requests into
  connections; each connection is a mutator frame holding a ``SrvConn``
  object, so connection close is itself a frame-pop reclamation.
* **Arrival patterns** (``steady`` / ``bursty`` / ``diurnal``) are
  inter-arrival gaps in mutator ops from a seeded ``random.Random`` —
  integer arithmetic only, so schedules are deterministic everywhere.
* **Termination is requests served** (``requests``), optionally capped
  by an op budget (``max_ops``) — not a SIZES knob.  The legacy ``size=``
  shim maps 1/10/100 to fixed request counts, bit-identically.

When profiling is armed, the acceptor brackets each handler invocation
with ``profiler.request_begin()``/``request_end()``, attributing every
collector pause that lands inside the window (MSA, CG events, recycle
search) to that request — the raw material for the ``bench --sla`` SLO
tables.  The brackets never tick the runtime, so profiled and unprofiled
runs have identical counters.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..jvm.assembler import assemble
from ..jvm.model import Program
from ..jvm.mutator import Mutator
from ..jvm.runtime import Runtime
from .base import Param, Workload, register

#: Route-table slots (mirrors the ``const 8`` / ``mod`` in the bytecode).
ROUTES = 8

#: Baseline inter-arrival gap in mutator ops; patterns modulate it.
BASE_GAP = 32

#: The legacy ``size=`` shim: SPEC knob -> requests served.
SIZE_REQUESTS = {1: 150, 10: 600, 100: 2400}

SERVER_SOURCE = """
class SrvRequest
    field path
    field headers

class SrvHeader
    field name
    field next

class SrvResponse
    field status

class SrvSession
    field user

class SrvRoute
    field pattern
    field hits

class SrvConn
    field id
    field served

class Srv
    static routes
    static sessions

method Srv.boot(1) locals=4
    ; arg 0 = session-table slots; locals: 1=i, 2=route array, 3=route
    const 8
    newarray
    store 2
    const 0
    store 1
fill:
    load 1
    const 8
    if_icmpge filled
    new SrvRoute
    store 3
    load 3
    load 1
    putfield pattern
    load 3
    const 0
    putfield hits
    load 2
    load 1
    load 3
    aastore
    iinc 1 1
    goto fill
filled:
    load 2
    putstatic Srv.routes
    load 0
    newarray
    putstatic Srv.sessions
    return

method Srv.handle(3) locals=7
    ; args: 0=request id, 1=session escape slot (-1: none), 2=spin count
    ; locals: 3=request/header cursor, 4=scratch object, 5=i, 6=acc
    new SrvRequest
    store 3
    load 3
    load 0
    putfield path
    ; chain three headers off the request (frame-local garbage)
    new SrvHeader
    store 4
    load 4
    const 0
    putfield name
    load 3
    load 4
    putfield headers
    load 4
    store 3
    const 1
    store 5
hdrs:
    load 5
    const 3
    if_icmpge routed
    new SrvHeader
    store 4
    load 4
    load 5
    putfield name
    load 3
    load 4
    putfield next
    load 4
    store 3
    iinc 5 1
    goto hdrs
routed:
    ; route lookup: a static-table read plus a hit counter.  The route is
    ; already static, so the section 3.4 optimization keeps the request
    ; graph uncontaminated by it.
    getstatic Srv.routes
    load 0
    const 8
    mod
    aaload
    store 4
    load 4
    load 4
    getfield hits
    const 1
    add
    putfield hits
    ; business logic: a bounded integer spin
    const 0
    store 6
    const 0
    store 5
spin:
    load 5
    load 2
    if_icmpge spun
    load 6
    const 3
    mul
    load 0
    add
    const 65521
    mod
    store 6
    iinc 5 1
    goto spin
spun:
    ; the response dies with this frame: CG's frame-pop win
    new SrvResponse
    store 4
    load 4
    const 200
    putfield status
    ; session escape: pin one object per escaping request into the
    ; static session table
    load 1
    const 0
    if_icmplt done
    new SrvSession
    store 4
    load 4
    load 0
    putfield user
    getstatic Srv.sessions
    load 1
    load 4
    aastore
done:
    load 6
    retval
"""


def arrival_gaps(pattern: str, rng: random.Random,
                 base_gap: int = BASE_GAP) -> Iterator[int]:
    """Yield inter-arrival gaps (mutator ops) forever, deterministically.

    * ``steady``  — the base gap with small jitter.
    * ``bursty``  — runs of near-zero gaps (a burst) separated by long
      idle stretches; same long-run mean order, very different shape.
    * ``diurnal`` — an integer triangle wave over a 240-request "day",
      swinging between ~0.4x and ~1.6x of the base gap.  Integer
      arithmetic only: no libm in the schedule, so counters are
      reproducible across platforms.
    """
    i = 0
    burst_left = 0
    while True:
        if pattern == "steady":
            yield base_gap + rng.randrange(7)
        elif pattern == "bursty":
            if burst_left > 0:
                burst_left -= 1
                yield rng.randrange(3)
            else:
                burst_left = 4 + rng.randrange(12)
                yield base_gap * (4 + rng.randrange(8))
        else:  # diurnal
            t = i % 240
            swing = t if t < 120 else 240 - t
            yield max(1, base_gap * (40 + swing) // 100) + rng.randrange(5)
        i += 1


@register(params={
    "requests": Param(400, "requests to serve before shutdown", minimum=1),
    "pattern": Param("steady", "arrival-schedule shape",
                     choices=("steady", "bursty", "diurnal")),
    "escape_every": Param(50, "every Nth request escapes a session "
                              "(0: none escape)", minimum=0),
    "sessions": Param(64, "session-table slots", minimum=1),
    "conn_requests": Param(16, "mean requests served per connection",
                           minimum=1),
    "spin": Param(40, "handler business-logic iterations", minimum=0),
    "max_ops": Param(0, "op-budget cap (0: unlimited)", minimum=0),
})
class ServerWorkload(Workload):
    name = "server"
    description = "long-running sessioned request/response server"
    source_lines = "N/A"
    open_ended = True

    @classmethod
    def requests_for_size(cls, size: int) -> int:
        try:
            return SIZE_REQUESTS[size]
        except KeyError:
            raise ValueError(
                f"size must be one of {sorted(SIZE_REQUESTS)}, got {size}"
            ) from None

    def define_classes(self, program: Program) -> None:
        assemble(SERVER_SOURCE, program)

    def run(self, mutator: Mutator, size: int,
            rng: random.Random) -> None:  # pragma: no cover
        raise NotImplementedError(
            "the server workload drives its own accept loop"
        )

    def heap_words(self, size: int) -> int:
        # Small enough that the tracing systems must collect mid-run
        # (that is the pause being measured), with headroom for the
        # static route/session tables CG pins forever.
        return max(1536, 512 + 8 * self.params["sessions"])

    def execute(self, runtime: Runtime, size: int) -> None:
        p = self.params
        requests = p["requests"]
        escape_every = p["escape_every"]
        sessions = p["sessions"]
        conn_requests = p["conn_requests"]
        spin = p["spin"]
        max_ops = p["max_ops"] or None

        self.define_classes(runtime.program)
        mutator = Mutator(runtime)
        rng = random.Random(self.seed * 7919 + requests)
        gaps = arrival_gaps(p["pattern"], rng)
        profiler = runtime.profiler
        tick = mutator.tick
        invoke = runtime.invoke

        runtime.invoke("Srv.boot", [sessions])
        served = 0
        conn_id = 0
        with mutator.frame(name="server.accept"):
            while served < requests and (max_ops is None
                                         or runtime.ops < max_ops):
                conn_id += 1
                conn_len = 1 + rng.randrange(2 * conn_requests - 1)
                with mutator.frame(name="server.conn"):
                    conn = mutator.new("SrvConn")
                    mutator.putfield(conn, "id", conn_id)
                    mutator.root(conn)
                    handled = 0
                    while (handled < conn_len and served < requests
                           and (max_ops is None or runtime.ops < max_ops)):
                        gap = next(gaps)
                        if gap:
                            tick(gap)
                        slot = -1
                        if (escape_every
                                and served % escape_every
                                == escape_every - 1):
                            slot = rng.randrange(sessions)
                        profiler.request_begin()
                        invoke("Srv.handle", [served, slot, spin])
                        profiler.request_end()
                        served += 1
                        handled += 1
                        mutator.putfield(conn, "served", handled)
                # connection close: the conn object (and anything
                # contaminated to it) dies at this frame pop
