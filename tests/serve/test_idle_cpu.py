"""An idle ``gendp-serve`` sleeps: nothing in the serving tier polls.

A real server process with two shm workers answers one request, then
sits idle; the CPU time its whole session (server, workers, resource
tracker) spends meanwhile must stay under 5 % of one CPU.  The workers'
20 ms idle ticks cost under 2 %; a dispatcher that polled for arrivals,
or a gather timer left running, would cost far more.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

IDLE_S = 3.0
REPO = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
)


def _session_cpu_s(session: int) -> float:
    """User + system seconds of every live process in *session*."""
    ticks = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                # Fields after the parenthesised command name, from state.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[3]) == session:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


async def _one_request(sock: str, server: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client = await ServeClient.connect(unix_socket=sock)
            break
        except OSError:
            assert server.poll() is None, "gendp-serve exited during start-up"
            assert time.monotonic() < deadline, "gendp-serve did not come up"
            await asyncio.sleep(0.05)
    async with client:
        response = await client.submit("lcs", {"x": "ACGTACGT", "y": "ACGGTA"})
        assert response["ok"], response


def test_idle_server_uses_about_zero_cpu(tmp_path):
    sock = str(tmp_path / "gendp.sock")
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    server = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import serve_main; "
            "sys.exit(serve_main(sys.argv[1:]))",
            "--unix-socket", sock,
            "--transport", "shm",
            "--workers", "2",
        ],
        env=environment,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        asyncio.run(asyncio.wait_for(_one_request(sock, server), timeout=60))
        time.sleep(0.2)  # let the answered request's tail settle
        before = _session_cpu_s(server.pid)
        time.sleep(IDLE_S)
        busy = _session_cpu_s(server.pid) - before
        assert server.poll() is None
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        server.wait()
    assert busy / IDLE_S < 0.05, f"idle server used {busy / IDLE_S:.1%} of a CPU"
