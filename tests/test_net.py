"""repro.net: the shared transport every networked surface rides on.

The live/health suites already exercise the transport end to end;
this file pins the extraction contract itself — the live client IS a
net client, the wire helpers are shared, and the generic Server/Client
pair works standalone (including deferred-hello servers, which the
live plane never exercises directly).
"""

import threading

import pytest

import repro.net as net
from repro.net import Client, NetClosed, Server

pytestmark = pytest.mark.live


class TestExtractionContract:
    def test_live_client_is_a_net_client(self):
        from repro.live.client import LiveClient

        assert issubclass(LiveClient, Client)

    def test_wire_helpers_are_shared(self):
        import repro.live.protocol as live_protocol
        import repro.net.protocol as net_protocol

        for name in ("encode", "decode", "parse_address",
                     "format_address", "connect"):
            assert getattr(live_protocol, name) is getattr(
                net_protocol, name
            ), name

    def test_exposition_rides_the_shared_server(self):
        from repro.obs.exposition import ExpositionServer

        server = ExpositionServer("tcp:127.0.0.1:0")
        try:
            assert isinstance(server._server, Server)
        finally:
            server.close()


class TestStandaloneServer:
    def _serve(self, **kwargs):
        def handler(command):
            if command.get("cmd") == "echo":
                return {"echo": command.get("value")}
            raise ValueError(f"unknown command {command.get('cmd')!r}")

        return Server(
            "tcp:127.0.0.1:0", handler, hello={"service": "test"}, **kwargs
        )

    def test_hello_then_command_roundtrip(self):
        server = self._serve()
        try:
            with Client(server.address, timeout=5.0) as client:
                assert client.hello.get("service") == "test"
                assert client.command("echo", value=7) == {"echo": 7}
                with pytest.raises(RuntimeError, match="unknown command"):
                    client.command("nope")
        finally:
            server.close()

    def test_publish_reaches_connected_clients(self):
        server = self._serve()
        try:
            with Client(server.address, timeout=5.0) as client:
                server.publish({"ev": "tick", "n": 1})
                record = client.recv(timeout=5.0)
                assert record == {"ev": "tick", "n": 1}
        finally:
            server.close()

    def test_history_replayed_to_late_attacher(self):
        server = self._serve()
        try:
            server.publish({"ev": "tick", "n": 1})
            server.publish({"ev": "tick", "n": 2}, retain=False)
            server.publish({"ev": "tick", "n": 3})
            with Client(server.address, timeout=5.0) as client:
                assert client.recv(timeout=5.0)["n"] == 1
                # n=2 was not retained; next retained line is n=3.
                assert client.recv(timeout=5.0)["n"] == 3
        finally:
            server.close()

    def test_deferred_hello_with_http_responder(self):
        # With an http_responder the hello only lands after the first
        # client bytes identify the protocol — expect_hello=False plus
        # a first command is the JSON-lines handshake.
        def responder(handler, path):
            body = b"hi"
            return (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                    b"Connection: close\r\n\r\n" + body)

        server = self._serve(http_responder=responder)
        try:
            client = Client(server.address, timeout=5.0, expect_hello=False)
            try:
                assert client.command("echo", value="x") == {"echo": "x"}
                # The deferred hello arrived before the ack and was
                # parked on the pending buffer.
                hellos = [r for r in client.drain(idle=0.05)
                          if r.get("ev") == "hello"]
                assert len(hellos) == 1
            finally:
                client.detach()
        finally:
            server.close()

    def test_http_get_served_on_same_port(self):
        import socket as socketmod

        def responder(handler, path):
            body = path.encode()
            head = (f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode()
            return head + body

        server = self._serve(http_responder=responder)
        try:
            host, port = server.address[4:].rsplit(":", 1)
            sock = socketmod.create_connection((host, int(port)), timeout=5.0)
            try:
                sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
                page = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    page += chunk
            finally:
                sock.close()
            assert page.startswith(b"HTTP/1.1 200 OK")
            assert page.endswith(b"/metrics")
        finally:
            server.close()

    def test_close_says_bye(self):
        server = self._serve()
        client = Client(server.address, timeout=5.0)
        barrier = threading.Event()
        try:
            server.close()
            barrier.wait(0.05)
            with pytest.raises(NetClosed):
                # bye (or the dropped socket) surfaces as NetClosed.
                while True:
                    client.recv(timeout=5.0)
        finally:
            client.close()


# ---------------------------------------------------------------------------
# client hardening: bounded connect retries with exponential backoff
# ---------------------------------------------------------------------------

class TestConnectRetry:
    def test_gives_up_after_bounded_attempts(self):
        from repro.net import connect_retry

        sleeps = []
        with pytest.raises(ConnectionError) as exc:
            connect_retry(
                "tcp:127.0.0.1:1",  # reserved port: nothing listens
                timeout=0.2, attempts=4,
                backoff_base=0.05, backoff_max=0.2,
                sleep=sleeps.append,
            )
        # 3 sleeps between 4 attempts, doubling and capped.
        assert sleeps == [0.05, 0.1, 0.2]
        assert "4 attempt(s)" in str(exc.value)

    def test_backoff_is_capped(self):
        from repro.net import connect_retry

        sleeps = []
        with pytest.raises(ConnectionError):
            connect_retry(
                "tcp:127.0.0.1:1", timeout=0.2, attempts=6,
                backoff_base=0.1, backoff_max=0.25,
                sleep=sleeps.append,
            )
        assert sleeps == [0.1, 0.2, 0.25, 0.25, 0.25]

    def test_attempts_must_be_positive(self):
        from repro.net import connect_retry

        with pytest.raises(ValueError):
            connect_retry("tcp:127.0.0.1:1", attempts=0)

    def test_succeeds_once_server_appears(self):
        import socket as socketmod

        from repro.net import connect_retry

        listener = socketmod.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        spec = f"tcp:127.0.0.1:{port}"

        calls = []

        def late_listen(delay):
            calls.append(delay)
            listener.listen(1)  # only now do connects succeed

        sock = connect_retry(
            spec, timeout=2.0, attempts=5, backoff_base=0.01,
            sleep=late_listen,
        )
        try:
            assert calls  # first attempt failed, retry happened
        finally:
            sock.close()
            listener.close()

    def test_client_exposes_connect_knobs(self):
        server = Server(
            "tcp:127.0.0.1:0", lambda cmd: {"ok": True},
            hello={"service": "test"},
        )
        try:
            client = Client(
                server.address, timeout=5.0,
                connect_timeout=2.0, connect_attempts=3,
                backoff_base=0.01, backoff_max=0.05,
            )
            assert client.hello.get("service") == "test"
            client.close()
        finally:
            server.close()
