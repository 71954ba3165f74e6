"""Wire protocol for the simulation service.

Everything the server and client exchange is JSON over HTTP; this
module is the shared vocabulary — job states, route shapes, the
submission parser, and the per-job status payload — so the server,
the client, and the tests cannot drift apart.

Canonical identity is the heart of the protocol: a submission is
parsed into a :class:`~repro.exec.jobs.JobSpec` and its **job id is
the spec's SHA-256 content address** — the exact key
:class:`~repro.exec.cache.ResultCache` stores results under. That one
decision buys the service's headline property for free: two clients
submitting the same experiment compute the same id, so the server can
coalesce them onto one queue entry, and a warm cache can answer either
of them without simulating anything.

Routes
------
``POST /jobs``
    Body ``{"client": NAME, "job": {...}}`` or
    ``{"client": NAME, "jobs": [{...}, ...]}`` where each job is a
    canonical :meth:`JobSpec.to_dict` payload. Responds with one
    receipt per job (id, state, whether it was coalesced or served
    from cache), or 429 ``{"error": "backpressure"}`` when the global
    queue cannot take the batch.
``GET /jobs/<id>``
    Status payload for one job (state, provenance, queue facts,
    wall time).
``GET /jobs/<id>/result``
    The serialised :class:`RunResult` once the job is ``done`` (409
    while it is still queued/running, 404 for unknown ids).
``GET /jobs``
    Summary list of every job the server knows about.
``GET /metrics``
    JSON snapshot: serve-level gauges (queue depth, in-flight, cache
    hit rate) plus the whole process metrics registry.
``GET /healthz``
    Liveness probe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServeError
from ..exec.jobs import JobSpec

# Lifecycle of one job record. ``queued -> running -> done`` is the
# normal path; ``failed`` is terminal for the record but not for the
# key (a resubmission of a failed key starts a fresh attempt).
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED)

#: Client name used when a submission does not identify itself.
DEFAULT_CLIENT = "anonymous"

#: Default TCP port; override with ``repro serve --port``.
DEFAULT_PORT = 8421

#: Submissions larger than this are rejected with 413 before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024

_HEX = set("0123456789abcdef")


def is_job_id(text: str) -> bool:
    """True for a well-formed content address (64 lowercase hex chars)."""
    return isinstance(text, str) and len(text) == 64 and set(text) <= _HEX


def parse_submission(body: bytes) -> Tuple[str, List[JobSpec]]:
    """Decode a ``POST /jobs`` body into ``(client_name, specs)``.

    Accepts the single-job form (``"job"``) and the batch form
    (``"jobs"``); raises :class:`ServeError` (status 400) for anything
    malformed, naming the offending part.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"submission body is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ServeError("submission must be a JSON object")
    client = data.get("client", DEFAULT_CLIENT)
    if not isinstance(client, str) or not client:
        raise ServeError("'client' must be a non-empty string")

    if "job" in data and "jobs" in data:
        raise ServeError("submission carries both 'job' and 'jobs'; pick one")
    if "job" in data:
        raw_jobs = [data["job"]]
    elif "jobs" in data:
        raw_jobs = data["jobs"]
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ServeError("'jobs' must be a non-empty list of job specs")
    else:
        raise ServeError("submission needs a 'job' (or 'jobs') spec")

    specs: List[JobSpec] = []
    for n, raw in enumerate(raw_jobs):
        if not isinstance(raw, dict):
            raise ServeError(f"jobs[{n}] is not a JSON object")
        try:
            specs.append(JobSpec.from_dict(raw))
        except Exception as exc:
            raise ServeError(f"jobs[{n}] is not a valid job spec: {exc}") from None
    return client, specs


def submission_body(
    specs: List[JobSpec], client: str = DEFAULT_CLIENT
) -> Dict[str, Any]:
    """The JSON body :meth:`ServeClient.submit` posts for ``specs``."""
    if len(specs) == 1:
        return {"client": client, "job": specs[0].to_dict()}
    return {"client": client, "jobs": [spec.to_dict() for spec in specs]}


def job_status_payload(
    job_id: str,
    state: str,
    client: str,
    *,
    coalesced: int = 0,
    source: Optional[str] = None,
    error: Optional[str] = None,
    submitted_s: Optional[float] = None,
    wall_s: Optional[float] = None,
    workload: Optional[str] = None,
    policy: Optional[str] = None,
    system: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``GET /jobs/<id>`` (and receipt) shape, one place only."""
    return {
        "id": job_id,
        "state": state,
        "client": client,
        "coalesced": coalesced,
        "source": source,
        "error": error,
        "submitted_s": submitted_s,
        "wall_s": wall_s,
        "workload": workload,
        "policy": policy,
        "system": system,
    }


def error_payload(message: str, *, error: str = "bad-request") -> Dict[str, str]:
    """Uniform error body: ``{"error": <code>, "detail": <message>}``."""
    return {"error": error, "detail": message}


#: The machine-readable error codes the server emits.
ERROR_BACKPRESSURE = "backpressure"
ERROR_BAD_REQUEST = "bad-request"
ERROR_NOT_FOUND = "not-found"
ERROR_NOT_DONE = "not-done"
ERROR_TOO_LARGE = "too-large"
ERROR_INTERNAL = "internal"
