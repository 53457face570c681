"""Wire protocol of the simulation service: requests, responses, errors.

A client POSTs one JSON object to ``/simulate`` describing a single
simulation — the same parameters :class:`~repro.runner.planner.SimJob`
carries, plus service-level fields (a client key for rate limiting and
an optional per-request deadline).  Validation happens here, eagerly
and completely, so a malformed request is a clean 400 before it costs
the scheduler anything; everything past this module operates on a
checked :class:`SimRequest`.

Responses are shaped for **bit-identity**: the result payload is the
deterministic :meth:`MetricsRegistry.snapshot` projection of the
:class:`SimulationResult` (wall-clock timings excluded), so the same
configuration served twice — from a worker, the memo, or the disk
cache — renders byte-identical JSON.  Every response also carries a
provenance block derived from the server's
:class:`~repro.obs.manifest.RunManifest` (schema hash, git revision,
run options, engine), answering "which code computed this?" without a
round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..common.errors import ConfigurationError, RequestError
from ..hierarchy.config import HierarchyConfig, HierarchyKind
from ..obs.metrics import registry_from_result
from ..runner.planner import SimJob
from ..trace.workloads import workload_names

#: Hierarchy organisations a request may name (the enum's wire values).
KINDS: tuple[str, ...] = tuple(kind.value for kind in HierarchyKind)

#: Upper bound on the trace scale a request may ask for; 1.0 is the
#: paper's full 3.3M-reference trace, already seconds of work per job.
MAX_SCALE = 1.0

#: Fields a ``/simulate`` body may carry (anything else is a 400 — a
#: misspelt knob silently ignored would be worse than an error).
_ALLOWED_FIELDS = frozenset(
    {
        "trace",
        "scale",
        "l1",
        "l2",
        "kind",
        "split_l1",
        "block_size",
        "seed",
        "config_overrides",
        "deadline_s",
        "client",
    }
)


@dataclass(frozen=True)
class SimRequest:
    """One validated ``/simulate`` request.

    The simulation-identity fields mirror :class:`SimJob`; the service
    fields are:

    Attributes:
        deadline_s: how long this client will wait, in seconds.  The
            scheduler bounds both the client's await and the worker's
            wall-clock budget with it; None means "the server default".
        client: rate-limiting key (defaults to ``"anon"``; the server
            prefers the ``X-Client-Key`` header when present).
    """

    trace: str
    scale: float
    l1: str
    l2: str
    kind: HierarchyKind
    split_l1: bool = False
    block_size: int = 16
    seed: int = 0
    config_overrides: tuple[tuple[str, object], ...] = ()
    deadline_s: float | None = None
    client: str = "anon"

    def job(self) -> SimJob:
        """The pool job this request resolves to."""
        return SimJob(
            trace=self.trace,
            scale=self.scale,
            l1=self.l1,
            l2=self.l2,
            kind=self.kind,
            split_l1=self.split_l1,
            block_size=self.block_size,
            seed=self.seed,
            config_overrides=self.config_overrides,
        )


def _field(data: dict[str, Any], name: str, types: tuple[type, ...], default: Any) -> Any:
    value = data.get(name, default)
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        expected = "/".join(t.__name__ for t in types)
        raise RequestError(f"field {name!r} must be {expected}", value=value)
    return value


def parse_request(body: bytes, max_scale: float = MAX_SCALE) -> SimRequest:
    """Validate a ``/simulate`` JSON body into a :class:`SimRequest`.

    Raises :class:`RequestError` (mapped to HTTP 400) on anything a
    client got wrong: bad JSON, unknown fields, an unknown trace or
    hierarchy kind, out-of-range scale, or a geometry the configuration
    layer rejects.  The hierarchy configuration is *built* here (it is
    cheap — no trace, no tag store) so geometry errors surface at
    admission, never inside a worker.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RequestError("request body must be a JSON object")
    unknown = sorted(set(data) - _ALLOWED_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown request field(s) {unknown}; "
            f"allowed: {sorted(_ALLOWED_FIELDS)}"
        )

    trace = _field(data, "trace", (str,), "pops")
    if trace not in workload_names():
        # file: traces are deliberately not served — a network client
        # must not be able to make the server open arbitrary paths.
        raise RequestError(
            f"unknown trace {trace!r}; choose from {workload_names()}"
        )
    scale = float(_field(data, "scale", (int, float), 0.05))
    if not 0.0 < scale <= max_scale:
        raise RequestError(
            f"scale must be in (0, {max_scale:g}]", value=scale
        )
    kind_name = _field(data, "kind", (str,), "vr")
    try:
        kind = HierarchyKind(kind_name)
    except ValueError:
        raise RequestError(
            f"unknown hierarchy kind {kind_name!r}; choose from {list(KINDS)}"
        ) from None
    l1 = _field(data, "l1", (str,), "4K")
    l2 = _field(data, "l2", (str,), "64K")
    split_l1 = _field(data, "split_l1", (bool,), False)
    block_size = _field(data, "block_size", (int,), 16)
    seed = _field(data, "seed", (int,), 0)

    raw_overrides = _field(data, "config_overrides", (dict,), {})
    for key, value in raw_overrides.items():
        if not isinstance(value, (str, int, float, bool)):
            raise RequestError(
                f"config override {key!r} must be a JSON scalar", value=value
            )
    overrides = tuple(sorted(raw_overrides.items()))

    deadline_raw = data.get("deadline_s")
    deadline_s: float | None = None
    if deadline_raw is not None:
        deadline_s = float(_field(data, "deadline_s", (int, float), 0.0))
        if deadline_s <= 0.0:
            raise RequestError("deadline_s must be > 0", value=deadline_s)
    client = _field(data, "client", (str,), "anon") or "anon"

    # Build (and discard) the hierarchy configuration: this is where
    # bad sizes, bad block sizes and bad overrides are diagnosed.
    try:
        HierarchyConfig.sized(
            l1,
            l2,
            block_size=block_size,
            kind=kind,
            split_l1=split_l1,
            **dict(overrides),
        )
    except ConfigurationError as exc:
        raise RequestError(f"bad hierarchy configuration: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad configuration override: {exc}") from exc

    return SimRequest(
        trace=trace,
        scale=scale,
        l1=l1,
        l2=l2,
        kind=kind,
        split_l1=split_l1,
        block_size=block_size,
        seed=seed,
        config_overrides=overrides,
        deadline_s=deadline_s,
        client=client,
    )


# -- service-level rejections ------------------------------------------------


class ServeRejection(Exception):
    """A request the service declines to run, with its HTTP shape.

    Subclasses fix the status code and machine-readable reason; the
    optional ``retry_after_s`` becomes a ``Retry-After`` header so
    well-behaved clients back off instead of hammering a shedding or
    degraded server.
    """

    status = 503
    reason = "unavailable"

    def __init__(self, detail: str, retry_after_s: float | None = None) -> None:
        super().__init__(detail)
        self.detail = detail
        self.retry_after_s = retry_after_s


class QueueFullError(ServeRejection):
    """The admission queue is full: shed with 429 + Retry-After."""

    status = 429
    reason = "queue_full"


class RateLimitedError(ServeRejection):
    """The client's token bucket is empty: 429 + Retry-After."""

    status = 429
    reason = "rate_limited"


class DegradedError(ServeRejection):
    """Breaker open: cache-only mode, misses refused with 503."""

    status = 503
    reason = "degraded"


class DrainingError(ServeRejection):
    """The server is draining for shutdown: new misses refused."""

    status = 503
    reason = "draining"


class DeadlineExceededError(ServeRejection):
    """The request's deadline expired before a result: 504."""

    status = 504
    reason = "deadline_exceeded"


class JobFailedError(ServeRejection):
    """The simulation was quarantined or timed out server-side: 500."""

    status = 500
    reason = "job_failed"


# -- response shaping --------------------------------------------------------


def result_payload(result: Any) -> dict[str, Any]:
    """The deterministic JSON body for one simulation result.

    Uses the unified metrics projection (counters and histograms, no
    wall-clock), so a cached
    and a freshly computed result for the same configuration serialise
    byte-identically.
    """
    snapshot = registry_from_result(result).snapshot()
    return {
        "refs_processed": result.refs_processed,
        "h1": round(result.h1, 10),
        "h2": round(result.h2, 10),
        "counters": snapshot["counters"],
        "histograms": snapshot["histograms"],
    }


def error_payload(status: int, reason: str, detail: str) -> dict[str, Any]:
    """The JSON body every non-2xx response carries."""
    return {"error": reason, "status": status, "detail": detail}
