"""Prometheus text exposition for the metrics registry.

The health layer's outward-facing surface: render a
:class:`~repro.obs.metrics.MetricsRegistry` (or a saved snapshot) in
the Prometheus text format, and serve it over the shared
:class:`repro.net.Server` transport.  A scrape works two ways over
the same socket:

* the JSON-lines protocol every other live surface speaks —
  ``{"cmd": "metrics", "seq": 1}`` answered with the text in the ack
  (what :func:`scrape` and ``python -m repro obs scrape`` use);
* a plain HTTP ``GET`` — the server sniffs the first bytes of a
  connection, so ``curl http://host:port/metrics`` (or a Prometheus
  scrape target) works against the same port.  ``GET /health`` returns
  the findings/state JSON instead.

Naming: series are prefixed ``repro_`` with dots/invalid characters
mapped to underscores (``scheduler.pops_high`` →
``repro_scheduler_pops_high``).  Counters and gauges map directly;
histograms are rendered as Prometheus *summaries* — p50/p95/p99 via
:meth:`HistogramMetric.quantile` plus ``_sum``/``_count`` — because
the power-of-two bucket layout has no fixed ``le`` schema worth
promising to dashboards.
"""

from __future__ import annotations

import json
import re
import socket
from typing import Optional

from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    default_metrics,
)

__all__ = [
    "CONTENT_TYPE",
    "render_registry",
    "render_snapshot",
    "build_http_response",
    "ExpositionServer",
    "scrape",
]

#: The Prometheus text-format content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles published for every histogram series.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str) -> str:
    out = prefix + _NAME_RE.sub("_", name)
    if out[0].isdigit():
        out = "_" + out
    return out


def _label_str(labels, extra: Optional[dict] = None) -> str:
    pairs = [(k, v) for k, v in labels]
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    rendered = []
    for key, value in pairs:
        key = _LABEL_RE.sub("_", str(key))
        value = str(value).replace("\\", "\\\\").replace('"', '\\"')
        value = value.replace("\n", "\\n")
        rendered.append(f'{key}="{value}"')
    return "{" + ",".join(rendered) + "}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        return "0"


def render_registry(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Prometheus text for every series in *registry*.

    Reads metric objects without folding or mutating them, so a scrape
    concurrent with a running workload never corrupts the tallies; a
    series that races a writer mid-read is skipped for this scrape
    rather than poisoning the whole page.
    """

    groups: dict[str, list] = {}
    for metric in registry:
        groups.setdefault(metric.name, []).append(metric)
    lines: list[str] = []
    for name in sorted(groups):
        metrics = groups[name]
        pname = _metric_name(name, prefix)
        first = metrics[0]
        if isinstance(first, CounterMetric):
            ptype = "counter"
        elif isinstance(first, GaugeMetric):
            ptype = "gauge"
        else:
            ptype = "summary"
        lines.append(f"# HELP {pname} repro series {name}")
        lines.append(f"# TYPE {pname} {ptype}")
        for metric in sorted(metrics, key=lambda m: m.labels):
            try:
                if isinstance(metric, HistogramMetric):
                    # Non-mutating reads: quantile() never folds, and
                    # count/sum are recomposed from the tallies plus the
                    # pending buffer directly.
                    raw = list(metric._raw)
                    count = metric._count + len(raw)
                    total = metric._sum + sum(raw)
                    for q in QUANTILES:
                        value = metric.quantile(q)
                        if value is None:
                            continue
                        labels = _label_str(
                            metric.labels, {"quantile": q}
                        )
                        lines.append(f"{pname}{labels} {_fmt(value)}")
                    labels = _label_str(metric.labels)
                    lines.append(f"{pname}_sum{labels} {_fmt(total)}")
                    lines.append(f"{pname}_count{labels} {count}")
                else:
                    labels = _label_str(metric.labels)
                    lines.append(
                        f"{pname}{labels} {_fmt(metric.snapshot())}"
                    )
            except Exception:  # noqa: BLE001 - skip racing series
                continue
    return "\n".join(lines) + "\n"


def render_snapshot(snapshot: dict, prefix: str = "repro_") -> str:
    """Prometheus text for a *saved* registry snapshot dict.

    Accepts the :meth:`MetricsRegistry.snapshot` shape (what
    ``*.metrics.json`` files and ``registry.to_json()`` hold):
    scalars become gauges; histogram dicts surface ``_sum``/``_count``
    and ``_mean`` (the folded snapshot has no raw values left, so no
    quantiles are invented for it).
    """

    lines: list[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        pname = _metric_name(name, prefix)
        series: list[tuple[str, object]] = []
        if isinstance(value, dict) and value and all(
            isinstance(v, dict) for v in value.values()
        ):
            # labelled histograms: {label_repr: {count, sum, ...}}
            hist_like = True
            for label_repr, item in value.items():
                series.append((label_repr, item))
        elif isinstance(value, dict) and {"count", "sum"} <= set(value):
            hist_like = True
            series.append(("", value))
        elif isinstance(value, dict):
            hist_like = False
            for label_repr, item in value.items():
                series.append((label_repr, item))
        else:
            hist_like = False
            series.append(("", value))

        def labels_of(label_repr: str) -> str:
            if not label_repr:
                return ""
            pairs = []
            for part in label_repr.split(","):
                key, _, val = part.partition("=")
                pairs.append((key, val))
            return _label_str(pairs)

        if hist_like:
            lines.append(f"# TYPE {pname} summary")
            for label_repr, item in series:
                labels = labels_of(label_repr)
                lines.append(f"{pname}_sum{labels} {_fmt(item.get('sum', 0))}")
                lines.append(
                    f"{pname}_count{labels} {_fmt(item.get('count', 0))}"
                )
                lines.append(
                    f"{pname}_mean{labels} {_fmt(item.get('mean', 0))}"
                )
        else:
            lines.append(f"# TYPE {pname} gauge")
            for label_repr, item in series:
                if not isinstance(item, (int, float, bool)):
                    continue
                lines.append(f"{pname}{labels_of(label_repr)} {_fmt(item)}")
    return "\n".join(lines) + "\n"


class ExpositionServer:
    """Serve metrics (and health state) over the live transport.

    Three sources, in priority order: a *runtime* (scrapes refresh the
    runtime's mirrored gauges and the health monitor's utilization
    gauges first), an explicit *registry*, or — with neither — the
    process-wide default registry.  A *snapshot* dict serves a saved
    metrics file instead (the ``python -m repro obs serve`` offline
    mode).
    """

    def __init__(
        self,
        address: str,
        runtime=None,
        monitor=None,
        registry: Optional[MetricsRegistry] = None,
        snapshot: Optional[dict] = None,
    ):
        self._runtime = runtime
        self._monitor = monitor
        self._registry = registry
        self._snapshot = snapshot
        from ..net.server import Server  # local import: obs must not
        # hard-depend on the transport at module import time

        self._server = Server(
            address,
            self._handle,
            hello={"service": "repro.obs.health"},
            http_responder=http_response_for,
            name="repro-obs",
        )
        self.address = self._server.address

    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        if self._snapshot is not None:
            return render_snapshot(self._snapshot)
        runtime = self._runtime
        if runtime is not None:
            try:
                if runtime._metrics_on and runtime.scheduler is not None:
                    runtime._sync_metrics()
            except Exception:  # noqa: BLE001 - racy mirror, best effort
                pass
            if self._monitor is not None:
                self._monitor.note_scrape()
            return render_registry(runtime.metrics)
        registry = self._registry
        if registry is None:
            registry = default_metrics()
        return render_registry(registry)

    def _handle(self, command: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "metrics":
            return {"content_type": CONTENT_TYPE, "text": self.metrics_text()}
        if cmd == "health":
            if self._monitor is not None:
                return self._monitor.state()
            return {"findings": [], "sample": {}}
        if cmd == "dump":
            if self._monitor is None:
                raise ValueError("no health monitor attached")
            return self._monitor.dump(reason="remote")
        if cmd == "ping":
            return {"service": "repro.obs.health"}
        raise ValueError(f"unknown command {cmd!r}")

    @property
    def client_count(self) -> int:
        return self._server.client_count

    def close(self) -> None:
        self._server.close()


def scrape(address: str, timeout: float = 5.0, command: str = "metrics"):
    """One-shot scrape of an exposition endpoint; returns the ack data.

    For ``command="metrics"`` the interesting field is ``data["text"]``
    (the Prometheus page); ``"health"`` returns the findings/state
    dict.  Speaks the JSON-lines protocol — for plain HTTP use any
    HTTP client against the same address.
    """

    from ..net.protocol import connect, decode, encode

    sock = connect(address, timeout=timeout)
    try:
        sock.sendall(encode({"cmd": command, "seq": 1}))
        buffer = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout as exc:
                raise TimeoutError(
                    f"no ack from {address} within {timeout}s"
                ) from exc
            if not chunk:
                raise ConnectionError(
                    f"server at {address} closed before answering"
                )
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                record = decode(line)
                if record is None:
                    continue
                if record.get("ev") == "ack" and record.get("seq") == 1:
                    if not record.get("ok"):
                        raise RuntimeError(
                            f"scrape failed: {record.get('error')}"
                        )
                    return record.get("data", {})
    finally:
        sock.close()


def build_http_response(status: str, content_type: str, body: bytes) -> bytes:
    """One complete ``Connection: close`` HTTP response (used by every
    surface that serves plain GETs over the shared transport)."""

    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body


# Historical internal name.
_http_body_parts = build_http_response


def http_response_for(handler, path: str) -> bytes:
    """Shared GET routing for the transport layer: ``/health`` answers
    the health state as JSON, anything else the metrics page."""

    cmd = "health" if path.startswith("/health") else "metrics"
    try:
        data = handler({"cmd": cmd, "http": True})
    except Exception as exc:  # noqa: BLE001 - reported to the client
        return _http_body_parts(
            "500 Internal Server Error", "text/plain",
            str(exc).encode("utf-8", "replace"),
        )
    if cmd == "health":
        body = json.dumps(data, default=str).encode("utf-8")
        return _http_body_parts("200 OK", "application/json", body)
    body = data.get("text", "").encode("utf-8")
    return _http_body_parts(
        "200 OK", data.get("content_type", CONTENT_TYPE), body
    )
