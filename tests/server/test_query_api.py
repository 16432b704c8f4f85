"""Edge cases of ``GET /api/estimates``: pagination, cursors, sorting,
empty stores, and queries racing concurrent uploads."""

import asyncio

import numpy as np

from repro.api import DeploymentConfig, PrivacyBudget, ShuffleSession
from repro.server import MAX_LIMIT, ServerClient, fetch_all_estimates

D = 8
SEED = 11
EPOCH_BATCHES = 3
BATCH = 100


def _serve(**kwargs):
    options = dict(port=0, epoch_size=300, admitted_epochs=6, seed=SEED)
    options.update(kwargs)
    return ShuffleSession(
        DeploymentConfig(mechanism="auto", d=D),
        PrivacyBudget(eps=1.0, delta=1e-9),
    ).serve(100, **options)


async def _feed_epochs(client, epochs: int) -> None:
    rng = np.random.default_rng(7)
    for __ in range(epochs):
        for __ in range(EPOCH_BATCHES):
            response = await client.submit(rng.integers(0, D, size=BATCH))
            assert response.status == 202
        await client.close_epoch()


def _query_test(test_body, epochs: int = 0):
    """Run one async test body against a served (and optionally fed) API."""

    async def run():
        async with _serve() as server:
            async with ServerClient("127.0.0.1", server.port) as client:
                if epochs:
                    await _feed_epochs(client, epochs)
                await test_body(client)

    asyncio.run(run())


def test_default_order_page_reads_only_its_epochs():
    """At any epoch count, a page reads at most ceil(limit / d) + 1
    epoch rows from the store."""
    epochs, limit = 30, 5
    reads = []

    async def run():
        async with _serve(admitted_epochs=epochs) as server:
            store = server.pipeline.store
            epoch_log = store.epoch_log

            def spy(*args, **kwargs):
                rows = epoch_log(*args, **kwargs)
                reads.append(len(rows))
                return rows

            store.epoch_log = spy
            async with ServerClient("127.0.0.1", server.port) as client:
                for value in range(epochs):
                    await client.submit([value % D])
                    await client.close_epoch()
                walked = await fetch_all_estimates(client, limit=limit)
                assert len(walked) == epochs * D
                assert reads and max(reads) <= -(-limit // D) + 1
                reads.clear()
                page = await client.estimates(epoch=epochs - 1)
                assert len(page["items"]) == D
                assert reads == [1]

    asyncio.run(run())


def test_huge_positions_are_empty_or_clamped_pages():
    async def body(client):
        huge = 10 ** 30
        page = await client.estimates(offset=huge)
        assert page["items"] == []
        assert page["page"] == {
            "total": 2 * D, "limit": 50, "offset": huge,
            "next_cursor": None, "has_more": False,
        }
        page = await client.estimates(cursor=f"{huge}|0")
        assert page["items"] == []
        assert page["page"]["offset"] == 2 * D
        page = await client.estimates(cursor=f"0|{huge}")
        assert [item["epoch"] for item in page["items"]] == [1] * D
        assert page["page"]["offset"] == D
        page = await client.estimates(epoch=huge)
        assert page["items"] == []
        assert page["page"]["total"] == 0

    _query_test(body, epochs=2)


def test_empty_state_store_is_an_empty_page():
    async def body(client):
        page = await client.estimates()
        assert page["items"] == []
        assert page["page"] == {
            "total": 0, "limit": 50, "offset": 0,
            "next_cursor": None, "has_more": False,
        }
        # a cursor into an empty log is also just an empty page
        page = await client.estimates(cursor="5|0")
        assert page["items"] == []

    _query_test(body)


def test_limit_is_clamped_to_max():
    async def body(client):
        page = await client.estimates(limit=100_000)
        assert page["page"]["limit"] == MAX_LIMIT
        assert len(page["items"]) == min(MAX_LIMIT, 2 * D)
        zero = await client.request("GET", "/api/estimates?limit=0")
        assert zero.status == 400
        assert zero.body["error"]["field"] == "limit"

    _query_test(body, epochs=2)


def test_offset_past_end_is_empty_not_error():
    async def body(client):
        page = await client.estimates(offset=10_000)
        assert page["items"] == []
        assert page["page"]["total"] == 2 * D
        assert page["page"]["has_more"] is False
        assert page["page"]["next_cursor"] is None

    _query_test(body, epochs=2)


def test_cursor_walk_reads_every_row_exactly_once():
    async def body(client):
        paged = []
        cursor = None
        pages = 0
        while True:
            params = {"limit": 3}
            if cursor is not None:
                params["cursor"] = cursor
            page = await client.estimates(**params)
            paged.extend(page["items"])
            pages += 1
            cursor = page["page"]["next_cursor"]
            if not page["page"]["has_more"]:
                break
        everything = (await client.estimates(limit=200))["items"]
        assert paged == everything
        assert pages == (2 * D + 2) // 3
        keys = [(item["epoch"], item["index"]) for item in paged]
        assert keys == sorted(keys)  # canonical order, no dupes

    _query_test(body, epochs=2)


def test_cursor_past_last_epoch_is_empty():
    async def body(client):
        page = await client.estimates(cursor="999|0")
        assert page["items"] == []
        assert page["page"]["has_more"] is False

    _query_test(body, epochs=1)


def test_malformed_cursor_is_400():
    async def body(client):
        for bad in ("zap", "1|2|3", "1|-2", "a|b", "|"):
            response = await client.request(
                "GET", f"/api/estimates?cursor={bad}"
            )
            assert response.status == 400, bad
            assert response.body["error"]["field"] == "cursor"

    _query_test(body, epochs=1)


def test_invalid_sort_field_is_400():
    async def body(client):
        for bad in ("bogus", "epoch,bogus", "estimate:sideways", ","):
            response = await client.request(
                "GET", f"/api/estimates?sort={bad}"
            )
            assert response.status == 400, bad
            assert response.body["error"]["field"] == "sort"

    _query_test(body, epochs=1)


def test_sort_directions_and_cursor_exclusivity():
    async def body(client):
        descending = await client.estimates(sort="-estimate", limit=200)
        values = [item["estimate"] for item in descending["items"]]
        assert values == sorted(values, reverse=True)
        spelled = await client.estimates(sort="estimate:desc", limit=200)
        assert spelled["items"] == descending["items"]
        # non-default sort never emits a cursor, and refuses one
        assert descending["page"]["next_cursor"] is None
        refused = await client.request(
            "GET", "/api/estimates?sort=-estimate&cursor=0|0"
        )
        assert refused.status == 400
        assert refused.body["error"]["field"] == "cursor"

    _query_test(body, epochs=1)


def test_epoch_filter():
    async def body(client):
        page = await client.estimates(epoch=1, limit=200)
        assert len(page["items"]) == D
        assert all(item["epoch"] == 1 for item in page["items"])

    _query_test(body, epochs=2)


def test_concurrent_upload_while_query():
    """Queries interleave with uploads without errors, and the final
    pages settle at the complete, canonically ordered log."""

    async def run():
        async with _serve() as server:
            async with ServerClient("127.0.0.1", server.port) as writer:
                reader = ServerClient("127.0.0.1", server.port)
                async with reader:
                    stop = asyncio.Event()
                    observed = []

                    async def query_loop():
                        while not stop.is_set():
                            page = await reader.estimates(limit=200)
                            observed.append(page["page"]["total"])
                            await asyncio.sleep(0.001)

                    querier = asyncio.create_task(query_loop())
                    await _feed_epochs(writer, 3)
                    stop.set()
                    await querier
                    # totals only ever grow, in whole epochs
                    assert all(total % D == 0 for total in observed)
                    assert observed == sorted(observed)
                    final = await fetch_all_estimates(reader)
                    assert len(final) == 3 * D
                    keys = [(i["epoch"], i["index"]) for i in final]
                    assert keys == sorted(keys)

    asyncio.run(run())
