"""The journal's bytes, pinned per tier.

The engine, the cluster router and ``gendp-serve`` all write the same
four record types.  Each scenario here runs one tier over a fresh
journal directory and hashes its segment bytes; a change to the record
schema (a field, the field order, a ``seq``, the payload-stripping
rule) changes a digest.  ``DiskFaultPlan`` picks the writes it faults
by write index, so the record sequence is part of what the golden
fault campaigns pin too.

Job ids come from a process-global counter, so every ``"job_id"`` in
a payload (the serve tier nests the engine's id inside the answer it
records) is rebased to its first-seen position before hashing.  Each
frame is checked byte for byte first: magic, length and CRC as written.

Regenerate (only for a deliberate record-format change) with
``PYTHONPATH=src python -m tests.durable.test_journal_records``.
"""

import asyncio
import hashlib
import os
import re
import struct
import sys
import tempfile
import zlib

from repro.cluster import ClusterConfig, ClusterRouter
from repro.durable import DurabilityConfig
from repro.durable.journal import MAGIC, SEGMENT_PREFIX
from repro.engine import Engine, EngineConfig, make_job
from repro.serve import ServeClient
from repro.serve.server import GendpServer, ServeConfig

PAYLOADS = {
    "bsw": {"query": "ACGTACGT", "target": "ACGTTT"},
    "pairhmm": {"read": "ACGT", "haplotype": "AACGTT"},
    "lcs": {"x": "GATTACA", "y": "TACATACA"},
    "dtw": {"a": [3, 1, 4, 1, 5], "b": [2, 7, 1, 8]},
    "chain": {"anchors": [[1, 2, 19], [10, 12, 19], [40, 44, 19]]},
}

DIGESTS = {
    "engine": "f2514f5c8f09444eadc739605d8818fc7ef135c69d21aeef05eb0e2fd95fe38f",
    "router": "935e6a5a2a043ee8dfd5d5a3678b944566e741e8202aa3ba857583bc90168f1b",
    "serve": "506dba409d539b34adba6f89f2a0960f0cb8863c4ba1124160016fab426494d4",
}

_HEADER = struct.Struct("<2sII")
_JOB_ID = re.compile(rb'"job_id":("[^"]*"|-?\d+)')


def journal_digest(dir_path):
    """``(sha256, record types)`` of *dir_path*'s segments, ids rebased."""
    digest = hashlib.sha256()
    types = []
    ids = {}

    def rebase(match):
        rebased = ids.setdefault(match.group(1), len(ids))
        return b'"job_id":%d' % rebased

    names = sorted(n for n in os.listdir(dir_path) if n.startswith(SEGMENT_PREFIX))
    for name in names:
        with open(os.path.join(dir_path, name), "rb") as handle:
            blob = handle.read()
        digest.update(name.encode())
        offset = 0
        while offset < len(blob):
            magic, length, crc = _HEADER.unpack_from(blob, offset)
            payload = blob[offset + _HEADER.size : offset + _HEADER.size + length]
            assert magic == MAGIC and len(payload) == length
            assert zlib.crc32(payload) == crc
            types.append(re.search(rb'"t":"(\w+)"', payload).group(1).decode())
            rebased = _JOB_ID.sub(rebase, payload)
            digest.update(_HEADER.pack(MAGIC, len(rebased), zlib.crc32(rebased)))
            digest.update(rebased)
            offset += _HEADER.size + length
    return digest.hexdigest(), types


def _jobs():
    jobs = [make_job(kernel, dict(payload)) for kernel, payload in PAYLOADS.items()]
    jobs.append(make_job("lcs", dict(PAYLOADS["lcs"], _inject_fail=True)))
    return jobs


def engine_journal(dir_path):
    """One job per engine kernel plus one that fails into the DLQ."""
    config = EngineConfig(
        workers=0,
        durability=DurabilityConfig(dir_path=dir_path, fsync="never"),
    )
    with Engine(config) as engine:
        for job in _jobs():
            engine.submit(job)
        engine.drain()
    return journal_digest(dir_path)


def router_journal(dir_path):
    """The same jobs through a journaled two-shard inline router."""
    config = ClusterConfig(
        shards=2,
        engine=EngineConfig(workers=0),
        durability=DurabilityConfig(dir_path=dir_path, fsync="never"),
    )
    with ClusterRouter(config) as router:
        for job in _jobs():
            router.submit(job)
        router.drain_until_settled()
    return journal_digest(dir_path)


def serve_journal(dir_path):
    """Two ``dedupe_id`` requests and one resend of the first."""
    sock = os.path.join(dir_path, "gendp.sock")
    wal = os.path.join(dir_path, "wal")

    async def scenario():
        engine = Engine(EngineConfig(workers=0))
        server = GendpServer(
            engine,
            ServeConfig(unix_socket=sock, journal_dir=wal, journal_fsync="never"),
        )
        await server.start()
        try:
            async with await ServeClient.connect(unix_socket=sock) as client:
                await client.submit("bsw", PAYLOADS["bsw"], dedupe_id="req-1")
                await client.submit("lcs", PAYLOADS["lcs"], dedupe_id="req-2")
                resend = await client.submit("bsw", PAYLOADS["bsw"], dedupe_id="req-1")
                assert resend["deduped"] is True
        finally:
            await server.stop()
            engine.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    return journal_digest(wal)


SCENARIOS = {"engine": engine_journal, "router": router_journal, "serve": serve_journal}


def test_engine_writes_every_record_type(tmp_path):
    digest, types = engine_journal(str(tmp_path))
    assert set(types) == {"accept", "attempt", "complete", "dead_letter"}
    assert digest == DIGESTS["engine"]


def test_router_records_are_pinned(tmp_path):
    digest, types = router_journal(str(tmp_path))
    assert types == ["accept"] * 6 + ["complete"] * 6
    assert digest == DIGESTS["router"]


def test_serve_records_are_pinned(tmp_path):
    digest, types = serve_journal(str(tmp_path))
    assert types == ["accept", "complete", "accept", "complete"]
    assert digest == DIGESTS["serve"]


if __name__ == "__main__":
    for name, scenario in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as scratch:
            digest, types = scenario(scratch)
        sys.stdout.write(f'    "{name}": "{digest}",  # {len(types)} records\n')
