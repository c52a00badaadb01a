"""Small JSON-over-HTTP POST helper with bounded retries.

Both remote services this library can talk to (embedding, text
generation) use the same discipline: POST a JSON body, expect a JSON
object back, retry transient failures with exponential backoff, and
surface a single error carrying the attempt count once the budget is
exhausted.  The HTTP client is the standard library's, imported on the
first request, so an offline run never loads it.  Redirects are not
followed: ``urllib`` would resend every header, the bearer token
included, to whatever host the reply names, over plain http too.
"""

from __future__ import annotations

import functools
import json
import logging
import time

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 60.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF = 0.5


class TransportError(RuntimeError):
    """All attempts against a remote endpoint failed."""

    def __init__(self, message: str, attempts: int):
        self.attempts = attempts
        self.message = message
        super().__init__(f"{message} (after {attempts} attempt(s))")


@functools.cache
def _opener():
    """A ``urllib`` opener that reports every 30x reply as an ``HTTPError``."""
    import urllib.request

    class _NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(_NoRedirect)


def post_json(
    url: str,
    payload: dict,
    token: str | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff: float = DEFAULT_BACKOFF,
) -> tuple[dict, int]:
    """POST ``payload`` to ``url`` and return ``(response_json, retries)``.

    Retries on connection errors, timeouts, non-2xx statuses (a redirect
    included: it is not followed), and bodies that are not a JSON object,
    sleeping ``backoff * 2**i`` between attempts.  Raises :class:`TransportError` once ``max_attempts`` have
    failed, and ``ValueError`` before any request for a URL that is not
    ``http``/``https`` or a payload holding NaN or an infinity, which
    JSON cannot carry.
    """
    import http.client
    import urllib.error
    import urllib.request

    if url.partition(":")[0].lower() not in ("http", "https"):
        raise ValueError(f"endpoint URL must be http or https, got {url!r}")
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    last_failure = "no attempt made"
    for attempt in range(max_attempts):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            with _opener().open(request, timeout=timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:  # any non-2xx status, 30x included
            exc.close()
            last_failure = f"HTTP {exc.code}"
            logger.debug("attempt %d against %s returned %d", attempt + 1, url, exc.code)
            continue
        except (OSError, http.client.HTTPException) as exc:  # refused, reset, timed out
            last_failure = f"request failed: {exc}"
            logger.debug("attempt %d against %s failed: %s", attempt + 1, url, exc)
            continue
        try:
            body = json.loads(raw)
        except ValueError as exc:
            last_failure = f"response is not JSON: {exc}"
            continue
        if not isinstance(body, dict):
            last_failure = "response JSON is not an object"
            continue
        return body, attempt
    raise TransportError(last_failure, attempts=max_attempts)
