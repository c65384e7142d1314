"""Single-threaded HTTP/1.1 load generator for the serve workload.

One process, a few keep-alive connections, non-blocking sockets and one
selector. Requests may be pipelined on a connection; wsdd answers them in
order. wsdd closes a connection after a fixed number of requests; the
generator then reconnects and resends what was left unanswered, timed
from the original due time. Two loops share the connection code:

* open_loop: requests go out when they are due, whatever the server's
  state; latency is measured from the due time, so a stall also charges
  the requests queued behind it. The generator also reports how late it
  sent (lag), its own CPU share and how many requests it had in flight.
* closed_loop: each connection sends its next request only after the
  previous reply; the metric is the time to finish the whole sequence.

Every reply is checked: status 200 and a body equal, byte for byte, to
the one the in-process replay rendered for that target.
"""

import selectors
import socket
import time

DRAIN_S = 10.0  # how long to wait for replies after the last send
SPIN_S = 0.0015  # poll instead of sleeping this close to a due time


class _Conn:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=5)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inp = bytearray()
        self.pending = []  # [(request index, due time)], oldest first
        self.head = 0      # index into pending of the oldest unanswered

    def in_flight(self):
        return len(self.pending) - self.head

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def _parse_responses(conn, now, on_reply):
    """Consumes complete responses from conn.inp; returns False on a
    malformed response."""
    while True:
        end = conn.inp.find(b"\r\n\r\n")
        if end < 0:
            return True
        head = bytes(conn.inp[:end]).decode("latin-1")
        lines = head.split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            return False
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        total = end + 4 + length
        if len(conn.inp) < total:
            return True
        body = bytes(conn.inp[end + 4:total])
        del conn.inp[:total]
        if conn.head >= len(conn.pending):
            return False
        index, due = conn.pending[conn.head]
        conn.head += 1
        on_reply(index, int(parts[1]), body, now - due)


class Result:
    """Outcome of one load step. Latencies are in seconds, by request."""

    def __init__(self, n):
        self.latency = [None] * n
        self.status = [0] * n
        self.mismatch = [False] * n
        self.lag = []
        self.outstanding = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.connections = 0
        self.reconnects = 0

    @property
    def attempted(self):
        return len(self.latency)

    def failed(self):
        """Requests without a correct 200 reply (refused, errors, lost,
        wrong body)."""
        return sum(1 for lat, st, bad in
                   zip(self.latency, self.status, self.mismatch)
                   if lat is None or st != 200 or bad)

    def ok_latencies(self):
        return [lat for lat, st, bad in
                zip(self.latency, self.status, self.mismatch)
                if lat is not None and st == 200 and not bad]


def _run(host, port, targets, expected, connections, due_times):
    """Drives one step. `due_times` is None for a closed loop, otherwise
    the due time (s from start) of each request."""
    n = len(targets)
    res = Result(n)
    conns = [_Conn(host, port) for _ in range(connections)]
    res.connections = len(conns)
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    requests = [("GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" % t).encode()
                for t in targets]
    done = 0
    sent = 0

    def on_reply(index, status, body, latency):
        nonlocal done
        done += 1
        res.latency[index] = latency
        res.status[index] = status
        res.mismatch[index] = (status == 200 and
                               expected.get(targets[index]) != body)

    def send(conn, index, due):
        conn.pending.append((index, due))
        conn.out += requests[index]

    def reconnect(i):
        # The server closed (or reset) the connection: resend whatever it
        # left unanswered on a fresh one.
        old = conns[i]
        sel.unregister(old.sock)
        old.close()
        new = _Conn(host, port)
        sel.register(new.sock, selectors.EVENT_READ, new)
        conns[i] = new
        res.reconnects += 1
        for index, due in old.pending[old.head:]:
            send(new, index, due)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if due_times is None:
        for c in conns:
            if sent < n:
                send(c, sent, 0.0)
                sent += 1
    deadline = None
    broken = False
    while done < n and not broken:
        if res.reconnects > 4 * n:
            break  # the server keeps dropping connections: give up
        now = time.perf_counter() - t0
        if due_times is not None:
            while sent < n and due_times[sent] <= now:
                conn = min(conns, key=_Conn.in_flight)
                send(conn, sent, due_times[sent])
                res.lag.append(now - due_times[sent])
                res.outstanding.append(sent - done)
                sent += 1
        for i, c in enumerate(conns):
            if c.out:
                try:
                    written = c.sock.send(c.out)
                    del c.out[:written]
                except BlockingIOError:
                    pass
                except OSError:
                    reconnect(i)
        if sent == n and deadline is None:
            deadline = now + DRAIN_S
        if deadline is not None and now > deadline:
            break
        if due_times is not None and sent < n:
            # epoll sleeps in whole milliseconds: sleep to 1 ms before the
            # next due time, then poll, so sends are not late by a tick.
            timeout = due_times[sent] - now - SPIN_S
            timeout = timeout if timeout > 0 else 0.0
        else:
            timeout = 0.05
        if any(c.out for c in conns):
            timeout = 0.0
        for key, _mask in sel.select(timeout):
            c = key.data
            if c not in conns:
                continue  # replaced earlier in this round
            try:
                chunk = c.sock.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            if not chunk:
                reconnect(conns.index(c))
                continue
            c.inp += chunk
            closed_before = done
            if not _parse_responses(c, time.perf_counter() - t0, on_reply):
                broken = True
                break
            if due_times is None:
                # Closed loop: one reply frees the connection for the next.
                for _ in range(done - closed_before):
                    if sent < n:
                        send(c, sent, time.perf_counter() - t0)
                        sent += 1
    res.wall_s = time.perf_counter() - t0
    res.cpu_s = time.process_time() - cpu0
    for c in conns:
        sel.unregister(c.sock)
        c.close()
    sel.close()
    return res


def open_loop(host, port, schedule, expected, connections):
    """Sends [(due_s, target)] on time over `connections` connections."""
    targets = [t for _due, t in schedule]
    return _run(host, port, targets, expected, connections,
                [due for due, _t in schedule])


def closed_loop(host, port, targets, expected, connections):
    """Sends `targets` in order, one in flight per connection."""
    return _run(host, port, targets, expected, connections, None)
