"""Client side of the live protocol (used by the CLI and by tests).

A thin wrapper over :class:`repro.net.Client` — deliberately
single-threaded: every byte is read inside :meth:`recv`, and a command
waits for its own ``ack`` by seq while parking any interleaved graph
deltas on an internal buffer that later ``recv`` calls serve first.
That makes scripted sessions deterministic — there is no background
reader racing the assertions.

This module only adds the live plane's command verbs (pause/resume/
step/break/state); failures raise the transport's
:class:`~repro.net.NetTimeout` / :class:`~repro.net.NetClosed`.
"""

from __future__ import annotations

from typing import Optional

from ..net.client import Client

__all__ = ["LiveClient"]


class LiveClient(Client):
    """Attach to a live session; stream deltas; drive the gate."""

    def __init__(self, address: str, timeout: float = 10.0):
        super().__init__(address, timeout=timeout, expect_hello=True)

    # ------------------------------------------------------------------
    # live-plane command verbs
    # ------------------------------------------------------------------
    def pause(self) -> dict:
        return self.command("pause")

    def resume(self) -> dict:
        return self.command("resume")

    def step(self, n: int = 1) -> dict:
        return self.command("step", n=n)

    def set_break(self, name: Optional[str] = None,
                  task_id: Optional[int] = None) -> dict:
        fields: dict = {}
        if name is not None:
            fields["name"] = name
        if task_id is not None:
            fields["id"] = task_id
        return self.command("break", **fields)

    def clear_breaks(self) -> dict:
        return self.command("clear")

    def state(self) -> dict:
        return self.command("state")

    def ping(self) -> dict:
        return self.command("ping")

    def __enter__(self) -> "LiveClient":
        return self
