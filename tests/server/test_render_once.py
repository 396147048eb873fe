"""Each window's ``/series`` entry is rendered once per file revision.

The text lives on the parsed window in the store LRU
(``TimeSeriesData.entry_json``), and every route that sends window
entries -- ``/series`` buffered and streamed, ``follow=`` and ``/stream``
-- joins those texts.  These tests hold the text to the dict entry it
replaced, the routes to one another, and a rewritten window to a new
render.
"""

import asyncio
import json
import os

import pytest

from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.observatory.tsv import TimeSeriesData, write_tsv
from repro.server.app import ObservatoryApp, _dumps
from repro.server.http import Request, StreamingResponse
from tests.util import make_txn

#: a threshold no fixture reaches: forces the buffered path
NEVER_STREAM = 1 << 30


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """Five minutes of srvip and qname windows, the ``_platform``
    telemetry series, and one srvip window edited outside the program
    to hold text cells in numeric columns."""
    directory = tmp_path_factory.mktemp("render")
    obs = Observatory(datasets=[("srvip", 64), ("qname", 512)],
                      output_dir=str(directory), use_bloom_gate=False,
                      skip_recent_inserts=False, telemetry=True)
    for i in range(600):
        obs.ingest(make_txn(ts=i * 0.5, delay_ms=3.0 + i % 7 * 1.25,
                            qname="host%03d.example.com" % (i % 150),
                            server_ip="192.0.2.%d" % (1 + i % 5)))
    obs.finish()
    path = sorted(p for p in os.listdir(directory)
                  if p.startswith("srvip.") and p.endswith(".tsv"))[1]
    path = os.path.join(directory, path)
    with open(path) as fh:
        lines = fh.read().split("\n")
    header, cells = lines[0].split("\t"), lines[1].split("\t")
    cells[header.index("hits")], cells[header.index("ok")] = "inf", "n/a"
    lines[1] = "\t".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return directory


def reference_entry(ref, data):
    """The ``/series`` window entry as the server built it before it
    kept the text: one dict per window, encoded per request."""
    return _dumps({
        "start_ts": data.start_ts,
        "end_ts": ref.end_ts,
        "stats": data.stats,
        "rows": [[key, row] for key, row in data.rows],
    })


def entries(body, tail_key="windows"):
    """The byte strings of a JSON document's *tail_key* array items,
    exactly as they appear in *body*."""
    text = body.decode("utf-8")
    at = text.index('"%s":[' % tail_key) + len(tail_key) + 4
    decoder = json.JSONDecoder()
    out = []
    while text[at] != "]":
        _, end = decoder.raw_decode(text, at)
        out.append(text[at:end].encode("utf-8"))
        at = end + (text[end] == ",")
    return out


async def get(app, target):
    """*target*'s status, headers and whole body, in process."""
    response = await app(Request("GET", target, {}))
    if isinstance(response, StreamingResponse):
        body = "".join(response.chunks).encode("utf-8")
    else:
        body = response.body
    return response.status, response.headers, body


async def sse_windows(app, target, count):
    """``{id: data bytes}`` of the first *count* ``event: window``
    frames of the SSE stream at *target*."""
    response = await app(Request("GET", target, {}))
    events = {}
    try:
        async for frame in response.chunks:
            if "event: window" in frame:
                fields = dict(line.split(": ", 1)
                              for line in frame.strip("\n").split("\n"))
                events[int(fields["id"])] = fields["data"].encode("utf-8")
                if len(events) == count:
                    break
    finally:
        await response.chunks.aclose()
    return events


def test_cached_text_equals_the_dict_entry(tree):
    """Every window of every dataset -- ``_platform`` and the window
    with text cells included -- renders to the bytes of the dict
    entry, and a second read serves the same text object."""
    store = SeriesStore(str(tree))
    app = ObservatoryApp(store)
    datasets = store.datasets()
    assert {"_platform", "srvip", "qname"} <= set(datasets)
    windows = 0
    for dataset in datasets:
        for ref in store.select(dataset):
            text = app._window_text(ref)
            assert text == reference_entry(ref, store.read_window(ref))
            assert app._window_text(ref) is text
            windows += 1
    assert any('"inf"' in store.read_window(ref).entry_json
               for ref in store.select("srvip"))
    assert (app.window_renders, app.window_reuses) == (windows, windows)


@pytest.mark.parametrize("cache_windows", [256, 2])
def test_one_form_across_routes(tree, cache_windows):
    """The ``data:`` of each SSE window event, the window's entry in a
    streamed ``/series``, in a buffered one and in a ``follow=`` answer
    are the same bytes -- also when the LRU (2 windows) has evicted
    the window and parsed it again between routes."""
    store = SeriesStore(str(tree), cache_windows=cache_windows)
    refs = store.select("qname")
    assert len(refs) >= 4

    async def scenario():
        buffered = ObservatoryApp(store, stream_threshold=NEVER_STREAM)
        streamed = ObservatoryApp(store, stream_threshold=0)
        sse = await sse_windows(streamed, "/stream/qname?cursor=-1",
                                len(refs))
        answers = [await get(buffered, "/series/qname"),
                   await get(streamed, "/series/qname"),
                   await get(buffered, "/series/qname?follow=-1&timeout=0")]
        return sse, answers, streamed.window_renders

    sse, answers, renders = asyncio.run(scenario())
    assert sorted(sse) == [ref.start_ts for ref in refs]
    for status, _, body in answers:
        assert status == 200
        assert entries(body) == [sse[ref.start_ts] for ref in refs]
    assert "Cache-Control" not in answers[0][1]
    assert answers[2][1]["Cache-Control"] == "no-store"
    assert answers[0][2] == answers[1][2]
    expected = [reference_entry(ref, store.read_window(ref)).encode()
                for ref in refs]
    assert entries(answers[0][2]) == expected
    if cache_windows == 2:
        # the stream rendered each window, the later routes again
        assert renders >= 2 * len(refs)


def write_rows(directory, start, hits):
    data = TimeSeriesData("srvip", "minutely", start,
                          columns=["hits", "ok"],
                          rows=[("192.0.2.1", {"hits": hits, "ok": 9})],
                          stats={"seen": 20, "kept": 15})
    return write_tsv(str(directory), data)


@pytest.mark.parametrize("follow", [False, True])
def test_rewritten_window_renders_again(tmp_path, follow):
    """A window rewritten in place after it was served: ``notify_flush``
    (the daemon's hook) or a follow store's ``refresh`` reconciles it,
    and ``/series`` answers the new rows under a new ETag, not the text
    rendered for the old revision."""
    write_rows(tmp_path, 0, 10)
    path = write_rows(tmp_path, 60, 11)
    store = SeriesStore(str(tmp_path), follow=follow)
    app = ObservatoryApp(store)

    async def scenario():
        first = await get(app, "/series/srvip")
        write_rows(tmp_path, 60, 777)
        if not follow:
            store.notify_flush(path)
        second = await get(app, "/series/srvip")
        return first, second

    first, second = asyncio.run(scenario())
    assert second[1]["ETag"] != first[1]["ETag"]
    hits = [[row[1]["hits"] for row in window["rows"]]
            for window in json.loads(second[2])["windows"]]
    assert hits == [[10], [777]]
    assert entries(second[2])[0] == entries(first[2])[0]
    assert (app.window_renders, app.window_reuses) == (3, 1)
