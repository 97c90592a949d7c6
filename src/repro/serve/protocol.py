"""Wire codecs for task-graph submissions.

Rides the same JSON-lines transport as every other repro surface
(:mod:`repro.net`); this module only defines the payload shapes.

A ``run`` command ships one whole graph::

    {"cmd": "run", "seq": N,
     "data":  {datum_id: datum_payload, ...},
     "tasks": [{"def": [module, qualname], "args": [argspec, ...]}, ...]}

and its ack returns every datum's post-barrier content::

    {"results": {datum_id: datum_payload, ...},
     "tasks": N, "seconds": s}

A datum payload is the shared blob codec's meta
(:func:`~repro.core.transfer.encode_blob`) plus its payload in base64
under ``"b64"``: plain ndarrays ship dtype/shape and the raw C-order
buffer, so a round trip is bitwise; everything else (structured and
object dtypes, list/bytearray/dict) ships pickled.  Results land back
through :func:`~repro.core.transfer.land`.  Task *definitions* are
referenced by module/qualname and resolved server-side to the full
pragma the server's dependency analysis needs.  Scalar arguments whose
JSON rendering round-trips exactly (int/float/bool/str/None) go
inline; every other by-value type (tuple, complex, numpy scalars, ...)
ships pickled.
"""

from __future__ import annotations

import base64
import pickle
from typing import Any

from ..core.dependencies import _SCALAR_TYPES
from ..core.transfer import (
    PROTOCOL,
    WRITABLE_TYPES,
    TransferError,
    decode_blob,
    definition_ref,
    encode_blob,
    land,
    resolve_definition,
)
from .errors import ServeError

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "encode_datum",
    "decode_datum",
    "write_back_into",
    "encode_value",
    "decode_value",
    "definition_ref",
    "resolve_definition",
    "is_datum",
]

SERVE_PROTOCOL_VERSION = 1

#: Scalars whose JSON rendering round-trips exactly.
_JSON_EXACT = (bool, int, float, str, type(None))


def is_datum(value: Any) -> bool:
    """Would the dependency tracker track *value* (ship by reference)?"""

    return not isinstance(value, _SCALAR_TYPES)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def encode_datum(obj: Any) -> dict:
    """Exact JSON payload for one tracked datum."""

    if not isinstance(obj, WRITABLE_TYPES):
        raise TransferError(
            f"cannot ship tracked datum of type {type(obj).__name__}: "
            f"results must land back in place, so the serve surface "
            f"supports ndarray, list, bytearray and dict"
        )
    meta, payload = encode_blob(obj)
    meta["b64"] = _b64(payload)
    return meta


def decode_datum(payload: dict) -> Any:
    return decode_blob(payload, _unb64(payload["b64"]))


def write_back_into(target: Any, payload: dict) -> None:
    """Land a result payload in the client's original object."""

    land(target, decode_datum(payload))


def encode_value(value: Any) -> dict:
    """Argspec for one by-value argument."""

    if isinstance(value, _JSON_EXACT):
        # Python's json renders floats with repr (and accepts the
        # NaN/Infinity extensions), so the round trip is exact.
        return {"v": value}
    try:
        return {"p": _b64(pickle.dumps(value, protocol=PROTOCOL))}
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        raise ServeError(
            f"argument of type {type(value).__name__} is not "
            f"serialisable: {exc}"
        ) from exc


def decode_value(spec: dict) -> Any:
    if "v" in spec:
        return spec["v"]
    if "p" in spec:
        return pickle.loads(_unb64(spec["p"]))
    raise ServeError(f"unknown value spec {spec!r}")
