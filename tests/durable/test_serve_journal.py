"""Serve-tier durability: dedupe ids, restart recovery, journaled answers.

The serving contract under ``ServeConfig.journal_dir``: a submit
carrying a ``dedupe_id`` is journaled *before* execution, its answer
is journaled after, and a resend of the same id -- on this connection,
after a reconnect, or against a freshly restarted server over the same
journal directory -- is answered from the journal without re-running
the job.
"""

import asyncio

from repro.durable import load_journal_state
from repro.engine import Engine, EngineConfig
from repro.serve import ServeClient
from repro.serve.server import GendpServer, ServeConfig

BSW = {"query": "ACGTACGTAC", "target": "ACGTTGCA"}


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def _start(sock, journal_dir, recover=True):
    engine = Engine(EngineConfig(max_queue=128))
    server = GendpServer(
        engine,
        ServeConfig(
            unix_socket=sock,
            journal_dir=journal_dir,
            journal_fsync="never",
            recover_on_start=recover,
        ),
    )
    await server.start()
    return server


async def _stop(server):
    await server.stop()
    server.engine.close()


class TestDedupe:
    def test_resend_is_answered_from_the_journal(self, tmp_path):
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            server = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    first = await client.submit("bsw", BSW, dedupe_id="req-1")
                    assert first["ok"], first
                    assert "deduped" not in first
                    again = await client.submit("bsw", BSW, dedupe_id="req-1")
                    assert again["ok"]
                    assert again["deduped"] is True
                    assert again["value"] == first["value"]
                    stats = await client.stats()
                    assert stats["counters"]["serve_deduped"] == 1
                    assert stats["counters"]["serve_journaled"] == 1
            finally:
                await _stop(server)

        run(scenario())

    def test_requests_without_dedupe_id_skip_the_journal(self, tmp_path):
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            server = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    response = await client.submit("bsw", BSW)
                    assert response["ok"]
                    stats = await client.stats()
                    assert stats["counters"]["serve_journaled"] == 0
            finally:
                await _stop(server)

        run(scenario())

    def test_journal_writes_count_the_durable_counters(self, tmp_path):
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            server = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    await client.submit("bsw", BSW, dedupe_id="a")
                    await client.submit("bsw", BSW, dedupe_id="b")
                    await client.submit("bsw", BSW, dedupe_id="a")
                return server.engine.metrics.snapshot()["counters"]
            finally:
                await _stop(server)

        counters = run(scenario())
        assert counters["serve_journaled"] == 2
        assert counters["durable_accepts_logged"] == 2
        assert counters["durable_completions_logged"] == 2
        assert counters["durable_write_errors"] == 0

    def test_a_failed_accept_write_rejects_and_counts(self, tmp_path):
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        def full_disk(*_args, **_fields):
            raise OSError(28, "No space left on device")

        async def scenario():
            server = await _start(sock, wal)
            server.journal.append = full_disk
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    response = await client.submit("bsw", BSW, dedupe_id="a")
                return response, server.engine.metrics.snapshot()["counters"]
            finally:
                await _stop(server)

        response, counters = run(scenario())
        assert response["rejected"] is True
        assert response["error"].startswith("journal write failed")
        assert counters["serve_errors"] == 1
        assert counters["durable_write_errors"] == 1
        assert counters["serve_journaled"] == 0
        assert counters["serve_dispatches"] == 0

    def test_journal_records_are_keyed_by_dedupe_id(self, tmp_path):
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            server = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    await client.submit("bsw", BSW, dedupe_id="alpha")
            finally:
                await _stop(server)

        run(scenario())
        state, _issues = load_journal_state(wal)
        assert set(state.accepted) == {"alpha"}
        assert state.terminal("alpha")


class TestRestart:
    def test_completed_requests_survive_a_restart(self, tmp_path):
        """The headline: restart the server, resend, no re-execution."""
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            first = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    original = await client.submit(
                        "bsw", BSW, dedupe_id="req-7"
                    )
                    assert original["ok"], original
            finally:
                await _stop(first)

            second = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    resend = await client.submit("bsw", BSW, dedupe_id="req-7")
                    assert resend["ok"]
                    assert resend["deduped"] is True
                    assert resend["value"] == original["value"]
                    stats = await client.stats()
                    # Answered from the recovered cache: the fresh
                    # engine executed nothing.
                    assert stats["counters"]["serve_deduped"] == 1
                    assert stats["counters"]["serve_dispatches"] == 0
            finally:
                await _stop(second)

        run(scenario())

    def test_orphaned_requests_reexecute_at_startup(self, tmp_path):
        """Accepted-but-unanswered requests finish during recovery."""
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            first = await _start(sock, wal)
            try:
                # Journal an accept by hand, as if the server died
                # between the accept write and the completion write.
                first.journal.append(
                    "accept",
                    job_id="lost-1",
                    kernel="bsw",
                    payload=dict(BSW),
                    priority=0,
                    tenant="anon",
                )
            finally:
                await _stop(first)

            second = await _start(sock, wal)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    stats = await client.stats()
                    assert stats["counters"]["serve_recovered"] == 1
                    # The resend is served from the recovered answer.
                    resend = await client.submit(
                        "bsw", BSW, dedupe_id="lost-1"
                    )
                    assert resend["ok"]
                    assert resend["deduped"] is True
            finally:
                await _stop(second)

        run(scenario())
        state, _issues = load_journal_state(wal)
        assert state.terminal("lost-1")
        assert state.duplicate_completions == 0

    def test_recover_on_start_off_skips_the_replay(self, tmp_path):
        sock = str(tmp_path / "gendp.sock")
        wal = str(tmp_path / "wal")

        async def scenario():
            first = await _start(sock, wal)
            try:
                first.journal.append(
                    "accept",
                    job_id="lost-2",
                    kernel="bsw",
                    payload=dict(BSW),
                    priority=0,
                    tenant="anon",
                )
            finally:
                await _stop(first)

            second = await _start(sock, wal, recover=False)
            try:
                async with await ServeClient.connect(unix_socket=sock) as client:
                    stats = await client.stats()
                    assert stats["counters"]["serve_recovered"] == 0
            finally:
                await _stop(second)

        run(scenario())
        state, _issues = load_journal_state(wal)
        assert not state.terminal("lost-2")  # still an orphan
