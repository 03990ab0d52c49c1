"""The stdlib client for the simulation job service.

:class:`ServiceClient` wraps the daemon's JSON-over-HTTP surface with
``urllib.request`` (zero new dependencies) and encodes the etiquette
the server's admission control expects: 429/503 rejections carry a
``Retry-After`` the client honors when asked to retry, result polling
backs off on 202, and :meth:`watch` tails a job's progress stream by
byte offset without re-reading history.  :meth:`wait` and :meth:`watch`
long-poll (``?wait=``): the server answers the moment the job settles
or its stream grows, so a poll interval bounds the time between answers
rather than adding to a job's latency.

This is also the programmatic facade re-exported as
``repro.api.ServiceClient`` — tests and notebooks drive a daemon with
it directly.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from pathlib import Path
from typing import Iterator

from repro.experiments.cellcache import read_checked_json
from repro.service.clock import SYSTEM_CLOCK, ServiceClock
from repro.service.jobs import MAX_WAIT_SECONDS, TERMINAL_STATES

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request the server refused (or could not be delivered).

    ``status`` is the HTTP status (None when the connection itself
    failed); ``payload`` is the server's JSON error document when one
    was returned; ``retry_after`` echoes the server's advice, if any.
    """

    def __init__(self, message: str, *, status: int | None = None,
                 payload: dict | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after


class ServiceClient:
    """Talk to one ``repro-sim serve`` daemon."""

    def __init__(self, endpoint: str, *, timeout: float = 30.0,
                 clock: ServiceClock = SYSTEM_CLOCK):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.clock = clock

    @classmethod
    def from_endpoint_file(cls, path: str | Path, **kwargs) -> "ServiceClient":
        """Connect via the ``endpoint.json`` the daemon writes on start."""
        document = read_checked_json(path)
        if not isinstance(document, dict) or "endpoint" not in document:
            raise ServiceError(f"{path} is not a daemon endpoint file")
        return cls(str(document["endpoint"]), **kwargs)

    # -- transport ------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> tuple[int, dict, dict]:
        """One round trip; returns (status, body, headers-of-interest)."""
        url = f"{self.endpoint}{path}"
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=body, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                status = reply.status
                raw = reply.read()
                retry_after = reply.headers.get("Retry-After")
        except urllib.error.HTTPError as exc:
            status = exc.code
            raw = exc.read()
            retry_after = exc.headers.get("Retry-After")
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {url}: {exc.reason}", status=None
            ) from None
        try:
            document = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            document = {"error": raw.decode("utf-8", errors="replace")}
        if not isinstance(document, dict):
            document = {"value": document}
        meta = {}
        if retry_after is not None:
            try:
                meta["retry_after"] = float(retry_after)
            except ValueError:
                pass
        return status, document, meta

    def _checked(self, method: str, path: str, payload: dict | None = None,
                 accept: tuple[int, ...] = (200,)) -> dict:
        status, document, meta = self._request(method, path, payload)
        if status not in accept:
            raise ServiceError(
                document.get("error", f"HTTP {status} from {path}"),
                status=status, payload=document,
                retry_after=meta.get("retry_after"),
            )
        return document

    # -- endpoints ------------------------------------------------------
    def health(self) -> dict:
        return self._checked("GET", "/v1/health")

    def stats(self) -> dict:
        return self._checked("GET", "/v1/stats")

    def submit(self, payload: dict, *, admission_retries: int = 0) -> dict:
        """Submit a job; the summary's ``created`` flag marks dedup.

        With ``admission_retries`` > 0, a 429 (queue full) is retried
        after the server's ``Retry-After``; 503 (draining) is not — a
        draining daemon will not come back.
        """
        attempt = 0
        while True:
            status, document, meta = self._request("POST", "/v1/jobs", payload)
            if status in (200, 201):
                return document
            error = ServiceError(
                document.get("error", f"HTTP {status} from /v1/jobs"),
                status=status, payload=document,
                retry_after=meta.get("retry_after"),
            )
            if status != 429 or attempt >= admission_retries:
                raise error
            attempt += 1
            self.clock.sleep(error.retry_after
                             if error.retry_after is not None else 1.0)

    def status(self, job_id: str, *, wait: float | None = None) -> dict:
        """One job's summary.  With ``wait``, the server holds the answer
        until the job settles, the daemon drains, or ``wait`` seconds
        pass (clamped to :data:`~repro.service.jobs.MAX_WAIT_SECONDS`)."""
        query = "" if wait is None else f"?wait={wait}"
        return self._checked("GET", f"/v1/jobs/{job_id}{query}")

    def list_jobs(self) -> list[dict]:
        return self._checked("GET", "/v1/jobs").get("jobs", [])

    def cancel(self, job_id: str) -> dict:
        return self._checked("POST", f"/v1/jobs/{job_id}/cancel")

    def result(self, job_id: str) -> dict:
        """The finished result document (raises while not ready)."""
        return self._checked("GET", f"/v1/jobs/{job_id}/result")

    def events(self, job_id: str, offset: int = 0, *,
               wait: float | None = None) -> dict:
        """A page of the progress stream from byte ``offset``.  With
        ``wait``, held like :meth:`status` and also released once the
        stream has moved past ``offset``."""
        query = f"?offset={offset}" + ("" if wait is None else f"&wait={wait}")
        return self._checked("GET", f"/v1/jobs/{job_id}/events{query}")

    # -- polling conveniences ------------------------------------------
    def _hold(self, poll_seconds: float) -> float:
        """The ``?wait=`` to ask for: the poll interval, kept within the
        server's cap and well inside this client's socket timeout."""
        return min(poll_seconds, MAX_WAIT_SECONDS, self.timeout / 2)

    def wait(self, job_id: str, *, poll_seconds: float = 0.5,
             timeout: float | None = None) -> dict:
        """Long-poll until the job reaches a terminal state; returns the
        summary.

        Each request is held up to ``poll_seconds``, and a held answer is
        followed at once by the next request.  Only an answer released
        early without the job settling (the daemon is draining) is
        followed by a ``poll_seconds`` sleep, so the loop never spins.
        """
        started = self.clock.monotonic()
        while True:
            hold = self._hold(poll_seconds)
            asked = self.clock.monotonic()
            summary = self.status(job_id, wait=hold)
            early = self.clock.monotonic() - asked < hold
            if summary.get("state") in TERMINAL_STATES:
                return summary
            if (timeout is not None
                    and self.clock.monotonic() - started > timeout):
                raise ServiceError(
                    f"job {job_id} still {summary.get('state')!r} "
                    f"after {timeout}s", payload=summary,
                )
            if early:
                self.clock.sleep(poll_seconds)

    def watch(self, job_id: str, *, poll_seconds: float = 0.5,
              timeout: float | None = None) -> Iterator[dict]:
        """Yield progress events until the job is terminal.

        The final yielded item is the job summary itself, marked with
        ``{"kind": "job.state", ...}``.  Requests long-poll as in
        :meth:`wait`; a page released early with no events and the job
        unsettled is followed by a ``poll_seconds`` sleep.
        """
        started = self.clock.monotonic()
        offset = 0
        while True:
            hold = self._hold(poll_seconds)
            asked = self.clock.monotonic()
            page = self.events(job_id, offset, wait=hold)
            early = self.clock.monotonic() - asked < hold
            offset = page.get("next_offset", offset)
            events = page.get("events", [])
            for event in events:
                yield event
            if page.get("state") in TERMINAL_STATES:
                summary = self.status(job_id)
                yield {"kind": "job.state", **summary}
                return
            if (timeout is not None
                    and self.clock.monotonic() - started > timeout):
                raise ServiceError(f"watch timed out after {timeout}s")
            if early and not events:
                self.clock.sleep(poll_seconds)
