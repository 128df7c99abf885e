"""The wire protocol: newline-delimited JSON request/response frames.

One request per line, one response per line, UTF-8.  Kept deliberately
minimal — six operations, every response self-describing — so a client
in any language is a socket, a JSON codec, and a line reader:

``{"op": "query", "query": "q(X) :- path(a, X)."}``
    → ``{"ok": true, "answers": [["b"], ...], "version": 3, ...}``
``{"op": "update", "changes": "+edge(d, e).\\n-edge(a, b)."}``
    → ``{"ok": true, "version": 4, "added": 1, "dropped": 1, ...}``
``{"op": "lint", "program": "t(X) :- e(X, Y).\\n..."}``
    → ``{"ok": true, "diagnostics": [...], "summary": "...", ...}``
    (omit ``"program"`` to lint the server's loaded program)
``{"op": "stats"}`` / ``{"op": "ping"}`` / ``{"op": "shutdown"}``

Every request may carry an ``"id"``; the response echoes it, so a
pipelining client can match responses to requests.  Failures are
responses, not disconnects: ``{"ok": false, "error": <message>,
"kind": <exception class>}`` — the connection survives a bad query.
The one exception is a request line longer than
:data:`MAX_REQUEST_BYTES`: it gets such a reply and the connection is
closed (mid-line there is nothing to resynchronise on).  End of stream
ends the last frame too: the bytes a client sent before closing its
side are decoded as one line, so a cut-off frame gets a
``ProtocolError`` reply and changes nothing, a complete frame without
its newline is answered, and then the connection closes.
"""

from __future__ import annotations

import json
from typing import Optional

from .service import ReasoningService

__all__ = [
    "MAX_REQUEST_BYTES",
    "OPS",
    "ProtocolError",
    "decode_request",
    "encode_response",
    "error_response",
    "handle_request",
]

OPS = ("query", "update", "lint", "stats", "ping", "shutdown")

#: The longest request line the daemon buffers, newline included: far
#: above any frame the CLI, the client library or the e2e driver sends
#: (the largest is a ``lint`` op carrying a program's text), and a bound
#: on what a client that never sends a newline can make it hold.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Engine kwargs a query request may carry, mirroring the CLI's knobs.
QUERY_OPTIONS = (
    "method",
    "rewrite",
    "first",
    "variant",
    "max_atoms",
    "max_steps",
    "strict",
    "probe_depth",
    "probe_atoms",
)

#: Every key a query frame may carry; anything else is a ProtocolError.
_QUERY_KEYS = frozenset({"op", "id", "query", *QUERY_OPTIONS})


def _at_least(least: int):
    # ``type(...) is int``: JSON ``true`` is a Python int, and not a count.
    return lambda value: type(value) is int and value >= least


#: What the value of each query option must be — (test, wording) — so
#: that no engine is handed a value of the wrong type.
_OPTION_VALUES = {
    **dict.fromkeys(
        ("method", "rewrite", "variant"),
        (lambda value: isinstance(value, str), "a string"),
    ),
    **dict.fromkeys(
        ("max_atoms", "max_steps", "probe_depth", "probe_atoms"),
        (_at_least(0), "a non-negative integer"),
    ),
    "first": (_at_least(1), "a positive integer"),
    "strict": (lambda value: isinstance(value, bool), "a boolean"),
}


class ProtocolError(ValueError):
    """A malformed frame: not JSON, not an object, or not a known op."""


def decode_request(line: str) -> dict:
    """Parse one request frame, validating shape and operation."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not valid JSON: {error}") from None
    except RecursionError:
        # A frame like "[[[[..." nests past the interpreter's limit.
        raise ProtocolError("JSON nested too deeply") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    return request


def encode_response(response: dict) -> str:
    """Render one response frame (compact, single line)."""
    return json.dumps(response, separators=(",", ":"), default=str)


def error_response(error: BaseException, request_id=None) -> dict:
    response = {
        "ok": False,
        "error": str(error),
        "kind": type(error).__name__,
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def handle_request(
    service: ReasoningService, request: dict
) -> Optional[dict]:
    """Execute one decoded request against *service*.

    Returns the response dict, or ``None`` for ``shutdown`` (the caller
    owns the lifecycle; it acknowledges and stops the server).  Engine
    errors become error responses here; only protocol-level failures
    (undecodable frames) are the caller's problem.
    """
    op = request["op"]
    request_id = request.get("id")

    def done(payload: dict) -> dict:
        response = {"ok": True, "op": op, **payload}
        if request_id is not None:
            response["id"] = request_id
        return response

    if op == "ping":
        return done({"version": service.current_version})
    if op == "stats":
        return done({"stats": service.stats()})
    if op == "shutdown":
        return None
    try:
        if op == "query":
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                raise ProtocolError("query op needs a non-empty 'query'")
            unknown = request.keys() - _QUERY_KEYS
            if unknown:
                raise ProtocolError(
                    f"unknown query option(s) {', '.join(sorted(unknown))}; "
                    f"valid options: {', '.join(QUERY_OPTIONS)}"
                )
            options = {
                key: request[key]
                for key in QUERY_OPTIONS
                if request.get(key) is not None
            }
            for key, value in options.items():
                accepts, wording = _OPTION_VALUES[key]
                if not accepts(value):
                    raise ProtocolError(
                        f"{key!r} must be {wording}, got {value!r}"
                    )
            result = service.query(text, **options)
            return done(result.as_payload())
        if op == "lint":
            program = request.get("program")
            if program is not None and not isinstance(program, str):
                raise ProtocolError(
                    "lint op takes 'program' as a text block (omit it "
                    "to lint the server's loaded program)"
                )
            prefixes = {}
            for key in ("select", "ignore"):
                value = prefixes[key] = request.get(key)
                if value is not None and not (
                    isinstance(value, list)
                    and all(isinstance(code, str) for code in value)
                ):
                    raise ProtocolError(
                        f"{key!r} must be a list of diagnostic-code "
                        f"prefixes (strings), got {value!r}"
                    )
            return done(service.lint(program, **prefixes))
        # op == "update"
        changes = request.get("changes")
        if isinstance(changes, list):
            for line in changes:
                if not isinstance(line, str):
                    raise ProtocolError(
                        f"'changes' lines must be strings, got {line!r}"
                    )
            changes = "\n".join(changes)
        if not isinstance(changes, str) or not changes.strip():
            raise ProtocolError(
                "update op needs 'changes' (a +atom/-atom text block "
                "or list of lines)"
            )
        result = service.apply(changes)
        return done(result.as_payload())
    except Exception as error:  # noqa: BLE001 — every engine/parse error
        return error_response(error, request_id)
