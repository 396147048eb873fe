"""Load generation: one asyncio thread, at most ``nproc`` connections.

A single-threaded event loop issues every write, request and read, so
the generator never contends with itself for the GIL and a latency is
stamped by the same clock that scheduled the request.

Open-loop parts (:func:`release_on_schedule`) release work at fixed
due times whatever the system does; a latency is then counted from
the *due* time, so a stall is charged to every request it delays, and
the generator's own lateness is recorded next to it.
"""

import asyncio
import time

#: one SSE window of the live workload is a few hundred KiB of JSON
STREAM_LIMIT = 1 << 26


class HttpClient:
    """Minimal keep-alive HTTP/1.1 GET client over asyncio streams
    (``Content-Length`` and chunked bodies; no gzip is offered)."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port, limit=STREAM_LIMIT)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None

    async def _head(self):
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _chunk(self):
        """One chunked-encoding frame; ``b""`` is the terminator."""
        size = int((await self.reader.readline()).split(b";")[0], 16)
        data = await self.reader.readexactly(size)
        await self.reader.readexactly(2)
        return data

    async def send(self, path, accept="application/json"):
        self.writer.write((
            "GET %s HTTP/1.1\r\nHost: %s:%d\r\nAccept: %s\r\n\r\n"
            % (path, self.host, self.port, accept)).encode("latin-1"))
        await self.writer.drain()

    async def get(self, path):
        """``(status, body)`` with the body fully read."""
        if self.writer is None:
            await self.connect()
        await self.send(path)
        status, headers = await self._head()
        if headers.get("transfer-encoding") == "chunked":
            parts = []
            while True:
                data = await self._chunk()
                if not data:
                    break
                parts.append(data)
            body = b"".join(parts)
        else:
            body = await self.reader.readexactly(
                int(headers.get("content-length", "0")))
        if headers.get("connection") == "close":
            await self.close()
        return status, body

    async def events(self, path):
        """Server-Sent Events of *path*: yields ``(arrival, event, id,
        data)`` as each complete frame arrives, until the stream ends.
        The arrival stamp is taken before anything is decoded."""
        await self.connect()
        await self.send(path, accept="text/event-stream")
        status, _ = await self._head()
        if status != 200:
            raise ConnectionError("SSE subscribe answered %d" % status)
        pending = b""
        while True:
            try:
                data = await self._chunk()
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if not data:
                return
            arrival = time.perf_counter()
            pending += data
            while b"\n\n" in pending:
                frame, pending = pending.split(b"\n\n", 1)
                event = ident = None
                payload = b""
                for line in frame.split(b"\n"):
                    if line.startswith(b"event: "):
                        event = line[7:].decode("ascii")
                    elif line.startswith(b"id: "):
                        ident = line[4:].decode("ascii")
                    elif line.startswith(b"data: "):
                        payload = line[6:]
                if event is not None:
                    yield arrival, event, ident, payload


def batch_schedule(dues, tick):
    """Group a sorted due-time list into release batches of at most
    *tick* seconds each.  A batch is released at the due time of its
    *last* item, so nothing is ever sent early; its first item is then
    at most *tick* late, and that lateness is inside every latency
    because latencies count from each item's own due time.
    Returns ``[(release_due, first_index, end_index)]``."""
    batches = []
    start = 0
    for index in range(1, len(dues) + 1):
        if index == len(dues) or dues[index] - dues[start] >= tick:
            batches.append((dues[index - 1], start, index))
            start = index
    return batches


class Lateness:
    """How late the generator released its work (open-loop honesty:
    rising lateness means the offered rate is no longer the stated
    one)."""

    def __init__(self, threshold=0.010):
        self.threshold = threshold
        self.samples = []

    def record(self, due, released):
        self.samples.append(max(0.0, released - due))

    @property
    def late_count(self):
        return sum(1 for s in self.samples if s > self.threshold)


async def release_on_schedule(dues, action, lateness, t0,
                              clock=time.perf_counter,
                              sleep=asyncio.sleep):
    """Call ``await action(index)`` for each due time (seconds after
    *t0*), never early, and never skipping: when the previous action
    overran, the next one starts at once and its lateness is recorded.
    """
    for index, due in enumerate(dues):
        delay = t0 + due - clock()
        if delay > 0:
            await sleep(delay)
        lateness.record(t0 + due, clock())
        await action(index)


async def closed_loop(client, paths, out, keep_bodies=False):
    """One closed-loop client: next request only after the previous
    answer was fully read.  Appends ``(index, seconds, status,
    body_len, body|None)`` to *out*; bodies are only kept on the pass
    that parses them afterwards, outside the timed bracket."""
    for index, path in paths:
        started = time.perf_counter()
        try:
            status, body = await client.get(path)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            status, body = 599, b""
            await client.close()
        out.append((index, time.perf_counter() - started, status,
                    len(body), body if keep_bodies else None))
