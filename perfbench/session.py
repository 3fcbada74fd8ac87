"""Set up the daemon, compute the reference twins, serve measured rounds.

One run of the benchmark is a *session*:

1. **Set-up**, timed ``plan.setup_repeats`` times from cold: take the
   raw LLM client a default ``ServiceStack`` builds, construct a
   :class:`~repro.service.ServiceStack` on the recording clock, warm
   ``chat_client()`` and ``decoder(kind, …)`` for every job kind
   (cascade detector training included), and start a
   :class:`~repro.service.SurveyService`.  The clock stops where the
   first submit could be admitted.  The median is reported.
2. **Twin pass**, untimed: each distinct job runs once through the
   standalone engine (``survey_async``, or ``survey_stream_async`` for
   classify jobs) on a latency-free reference stack.  Its report digest
   is what every served copy must match, and the scenes it fetched are
   the ground truth for indicator accuracy.
3. **Rounds**, until the run's seconds are spent: a fresh stack and
   daemon (cold LLM cache, the set-up's clients and trained cascade),
   the whole burst submitted through :class:`~repro.service.ServiceProtocol`
   at t=0, then drained.  Every round is checked: each job ``done``,
   each report digest equal to its twin, settled fees equal to
   $0.007 × billed images.  The kernel's resident-memory high-water
   mark is reset before the first round, so the peak it reports after
   the last one covers serving only, not set-up or the twin pass.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import re
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.core.indicators import ALL_INDICATORS
from repro.gsv.api import FEE_PER_IMAGE_USD, IMAGERY_STAGE, StreetViewClient
from repro.perf import LatencyChatClient
from repro.service import ServiceProtocol, ServiceStack, SurveyService

from .tracing import RecordingClock, Tracer
from .workloads import Plan, work_key

FEE_TOLERANCE_USD = 1e-9
#: A burst that has not drained by then counts as failed; a daemon
#: whose scheduler died would otherwise never go idle.
ROUND_TIMEOUT_S = 90.0


class CheckFailed(Exception):
    """A served output differs from what the benchmark expects."""


@dataclass
class Parts:
    """The heavy pieces a timed set-up builds, reused by every round."""

    clients: dict
    raw_clients: dict
    cascade: object | None


@dataclass
class Twin:
    digest: str
    locations: int
    correct_decisions: int


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    requested: int
    completed: int
    latencies_s: list[float]
    queue_waits_s: list[float]
    runs_s: list[float]
    fees_usd: float
    decisions: int
    correct_decisions: int
    images_billed: int
    cache: dict[str, int]
    cascade: dict[str, int]
    sim_wait_s: dict[str, float]
    tracer: Tracer | None = None

    @property
    def locations_per_s(self) -> float:
        return self.completed / self.wall_s


@dataclass
class Session:
    plan: Plan
    setups_s: list[float] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    traced: list[Round] = field(default_factory=list)
    twins: dict[tuple, Twin] = field(default_factory=dict)
    #: Peak resident memory while the rounds ran.
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(r.requested for r in self.rounds + self.traced)

    @property
    def failed(self) -> int:
        return sum(r.requested - r.completed for r in self.rounds + self.traced)


def digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def stack_clients() -> dict:
    """The raw LLM client a default ``ServiceStack`` builds, by model."""
    with ServiceStack() as probe:
        return {probe.model_id: probe.chat_client().inner}


def reset_peak_rss() -> None:
    """Restart the process's resident-memory high-water mark (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last reset, in MB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024


def tier_fees_usd(cascade) -> float:
    """Cascade tier fees booked so far (everything but imagery)."""
    if cascade is None:
        return 0.0
    return sum(
        stage["fees_usd"]
        for name, stage in cascade.meter.stage_totals().items()
        if name != IMAGERY_STAGE
    )


def round_stack(plan: Plan, parts: Parts, clock: RecordingClock) -> ServiceStack:
    cascade = parts.cascade
    return ServiceStack(
        clients=parts.clients,
        clock=clock,
        gsv_latency_s=plan.gsv_latency_s,
        cascade_builder=(lambda: cascade) if cascade is not None else None,
    )


def new_service(stack: ServiceStack, plan: Plan, state_dir: Path) -> SurveyService:
    return SurveyService(
        stack,
        state_dir,
        default_quota=plan.quota,
        max_queue_depth=max(16, len(plan.specs)),
    )


async def cold_setup(
    plan: Plan, clock: RecordingClock, state_dir: Path
) -> tuple[float, Parts]:
    """Time one cold set-up; return it and the pieces rounds reuse."""
    started = time.perf_counter()
    raw = stack_clients()
    clients = raw
    if plan.llm_latency_s:
        clients = {
            model: LatencyChatClient(client, plan.llm_latency_s, clock=clock)
            for model, client in raw.items()
        }
    stack = ServiceStack(
        clients=clients, clock=clock, gsv_latency_s=plan.gsv_latency_s
    )
    stack.chat_client()
    decoders = [
        stack.decoder(kind, county_seed) for kind, county_seed in plan.kinds
    ]
    service = new_service(stack, plan, state_dir)
    await service.start()
    elapsed = time.perf_counter() - started
    await service.close()
    cascade = next(
        (d.cascade for d in decoders if d.cascade is not None), None
    )
    return elapsed, Parts(clients, raw, cascade)


def _score(locations: list[dict], truth: dict) -> int:
    correct = 0
    for location in locations:
        actual = truth[(location["latitude"], location["longitude"])]
        predicted = set(location["present"])
        correct += sum(
            (ind.value in predicted) == (ind.value in actual)
            for ind in ALL_INDICATORS
        )
    return correct


async def twin_pass(plan: Plan, parts: Parts) -> dict[tuple, Twin]:
    """Standalone engine run of each distinct job, plus its ground truth.

    Classify jobs run ``survey_stream_async`` with ``keep_locations``
    so accuracy can be scored; their digest is taken over the payload
    with the location list emptied, which is the aggregate-mode
    payload the daemon serves.
    """
    truth: dict[tuple[float, float], set[str]] = {}
    fetch = vars(StreetViewClient)["fetch_capture"]

    def recording_fetch(client, capture, *args, **kwargs):
        served = fetch(client, capture, *args, **kwargs)
        where = capture.point.location
        truth.setdefault((where.lat, where.lon), set()).update(
            ind.value for ind in served.scene.presence.present
        )
        return served

    cascade = parts.cascade
    twins: dict[tuple, Twin] = {}
    StreetViewClient.fetch_capture = recording_fetch
    try:
        with ServiceStack(
            clients=parts.raw_clients,
            cascade_builder=(lambda: cascade) if cascade is not None else None,
        ) as stack:
            for spec in plan.unique_specs:
                truth.clear()
                decoder = stack.decoder(spec.kind, spec.county_seed)
                county = stack.county(spec.county_seed)
                if spec.kind == "classify":
                    report = await decoder.survey_stream_async(
                        county,
                        spec.n_locations,
                        seed=spec.seed,
                        max_inflight=spec.max_inflight,
                        microbatch=spec.microbatch,
                        keep_locations=True,
                    )
                else:
                    report = await decoder.survey_async(
                        county,
                        spec.n_locations,
                        seed=spec.seed,
                        max_inflight=spec.max_inflight,
                        microbatch=spec.microbatch,
                    )
                payload = report.payload()
                locations = payload["locations"]
                if len(locations) != spec.n_locations:
                    raise CheckFailed(
                        f"twin of {spec} completed {len(locations)} of "
                        f"{spec.n_locations} locations"
                    )
                if spec.kind == "classify":
                    payload["locations"] = []
                twins[work_key(spec)] = Twin(
                    digest(payload), len(locations), _score(locations, truth)
                )
    finally:
        StreetViewClient.fetch_capture = fetch
    return twins


async def _verb(protocol: ServiceProtocol, op: str, **fields) -> dict:
    [response] = await protocol.handle_request({"op": op, **fields})
    if not response["ok"]:
        raise CheckFailed(f"{op} refused: {response}")
    return response


async def serve_round(
    plan: Plan,
    parts: Parts,
    clock: RecordingClock,
    twins: dict[tuple, Twin],
    state_dir: Path,
    tracer: Tracer | None = None,
) -> Round:
    """One burst through a fresh stack and daemon, checked against the twins."""
    cascade = parts.cascade
    stack = round_stack(plan, parts, clock)
    chat = stack.chat_client()
    service = new_service(stack, plan, state_dir)
    protocol = ServiceProtocol(service)
    await service.start()
    fees_before = tier_fees_usd(cascade)
    routed_before = cascade.stats.snapshot() if cascade is not None else {}
    slept_before = Counter(clock.slept_by_layer)
    try:
        if tracer is not None:
            tracer.install()
        try:
            cpu_start = time.process_time()
            started = time.perf_counter()
            job_ids = [
                (await _verb(protocol, "submit", spec=spec.to_dict()))["job_id"]
                for spec in plan.specs
            ]
            try:
                await asyncio.wait_for(service.drain(), ROUND_TIMEOUT_S)
            except asyncio.TimeoutError:
                raise CheckFailed(
                    f"daemon not idle {ROUND_TIMEOUT_S:.0f} s after the burst"
                ) from None
            wall_s = time.perf_counter() - started
            cpu_s = time.process_time() - cpu_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        records = [
            (await _verb(protocol, "status", job_id=job_id))["job"]
            for job_id in job_ids
        ]
        reports = [
            (await _verb(protocol, "result", job_id=job_id))["report"]
            for job_id in job_ids
        ]
        cache = {
            "hits": chat.hits,
            "misses": chat.misses,
            "coalesced": chat.coalesced,
        }
        images_billed = stack.usage().images_served
    finally:
        await service.close()

    settled = 0.0
    decisions = correct = 0
    for spec, record, report in zip(plan.specs, records, reports):
        if record["state"] != "done":
            raise CheckFailed(
                f"{record['job_id']} ended {record['state']}: {record['error']}"
            )
        twin = twins[work_key(spec)]
        if digest(report) != twin.digest:
            raise CheckFailed(
                f"{record['job_id']}: served report differs from its twin"
            )
        fee = record["fees_settled_usd"]
        expected = FEE_PER_IMAGE_USD * report["images_classified"]
        if abs(fee - expected) > FEE_TOLERANCE_USD:
            raise CheckFailed(
                f"{record['job_id']}: settled ${fee} for "
                f"{report['images_classified']} images"
            )
        settled += fee
        decisions += twin.locations * len(ALL_INDICATORS)
        correct += twin.correct_decisions
    if abs(settled - FEE_PER_IMAGE_USD * images_billed) > FEE_TOLERANCE_USD * len(
        records
    ):
        raise CheckFailed(
            f"settled ${settled:.9f} in total for {images_billed} billed images"
        )
    routed = (
        {
            name: count - routed_before[name]
            for name, count in cascade.stats.snapshot().items()
        }
        if cascade is not None
        else {}
    )
    return Round(
        wall_s=wall_s,
        cpu_s=cpu_s,
        requested=sum(spec.n_locations for spec in plan.specs),
        completed=sum(record["progress"] for record in records),
        latencies_s=[r["finished_at"] - r["submitted_at"] for r in records],
        queue_waits_s=[r["started_at"] - r["submitted_at"] for r in records],
        runs_s=[r["finished_at"] - r["started_at"] for r in records],
        fees_usd=settled + tier_fees_usd(cascade) - fees_before,
        decisions=decisions,
        correct_decisions=correct,
        images_billed=images_billed,
        cache=cache,
        cascade=routed,
        sim_wait_s={
            layer: clock.slept_by_layer[layer] - slept_before[layer]
            for layer in ("gsv", "llm")
        },
        tracer=tracer,
    )


async def run_session(
    plan: Plan, seconds: float, trace: bool, work_dir: Path
) -> Session:
    """Set up, compute twins, then serve rounds for ``seconds``.

    A traced session alternates untraced and traced rounds (at least
    one of each), so the tracing overhead is measured in one process.
    """
    session = Session(plan)
    clock = RecordingClock()
    state = work_dir / f"state-{plan.name}-{os.getpid()}"
    try:
        for index in range(1 if trace else plan.setup_repeats):
            elapsed, parts = await cold_setup(
                plan, clock, state / f"setup-{index}"
            )
            session.setups_s.append(elapsed)
        session.twins = await twin_pass(plan, parts)
        gc.collect()
        reset_peak_rss()
        started = time.perf_counter()
        index = 0
        while not session.rounds or (trace and not session.traced) or (
            time.perf_counter() - started < seconds
        ):
            tracer = Tracer() if trace and index % 2 else None
            result = await serve_round(
                plan, parts, clock, session.twins, state / f"round-{index}",
                tracer,
            )
            (session.traced if tracer else session.rounds).append(result)
            index += 1
        session.peak_rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return session


def end_to_end(session: Session) -> dict[str, float]:
    rounds = session.rounds
    decisions = sum(r.decisions for r in rounds)
    return {
        "setup_s": median(session.setups_s),
        "locations_per_s": median(r.locations_per_s for r in rounds),
        "job_latency_p50_s": median(
            latency for r in rounds for latency in r.latencies_s
        ),
        "job_latency_max_s": median(max(r.latencies_s) for r in rounds),
        "cpu_ms_per_location": median(
            1000.0 * r.cpu_s / r.completed for r in rounds
        ),
        "peak_rss_mb": session.peak_rss_mb,
        "fee_usd_per_location": median(r.fees_usd / r.completed for r in rounds),
        "indicator_accuracy": sum(r.correct_decisions for r in rounds) / decisions,
    }


def cache_hit_rate(cache: dict[str, int]) -> float:
    lookups = cache["hits"] + cache["misses"] + cache["coalesced"]
    return cache["hits"] / lookups if lookups else 0.0


def tier0_share(routed: dict[str, int]) -> float:
    decisions = routed.get("images", 0) * len(ALL_INDICATORS)
    return routed["tier0_indicators"] / decisions if decisions else 0.0


def _layers(plan: Plan, r: Round) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    t = r.tracer
    assert t is not None
    pipeline = [report.pipeline_stats for report in t.reports]
    batches = [report.batch_stats for report in t.reports if report.batch_stats]
    n_batches = sum(b["batches"] for b in batches)
    retries = sum(
        report.retry_stats.retries for report in t.reports
    )
    routed = r.cascade
    return {
        "workload.jobs": len(plan.specs),
        "workload.locations_per_job": plan.specs[0].n_locations,
        "workload.repeated_job_share": plan.repeated_job_share,
        "geo.plan.calls": t.calls("geo.plan"),
        "geo.plan.busy_s": t.busy_s("geo.plan"),
        "geo.roadnet.busy_s": t.busy_s("geo.roadnet"),
        "geo.frame.busy_s": t.busy_s("geo.frame"),
        "geo.frame.points": t.counters["geo.frame.points"],
        "gsv.fetch.calls": t.calls("gsv.fetch"),
        "gsv.fetch.busy_s": t.busy_s("gsv.fetch"),
        "gsv.fetch.sim_wait_s": r.sim_wait_s["gsv"],
        "gsv.retries": t.errors("gsv.fetch"),
        "gsv.images_billed": r.images_billed,
        "gsv.render.calls": t.calls("gsv.render"),
        "gsv.render.busy_s": t.busy_s("gsv.render"),
        "detect.predict.calls": t.calls("detect.predict"),
        "detect.predict.images": t.counters["detect.predict.images"],
        "detect.predict.busy_s": t.busy_s("detect.predict"),
        "detect.predict.cpu_s": t.cpu_s("detect.predict"),
        "llm.classify.calls": t.calls("llm.classify"),
        "llm.classify.busy_s": t.busy_s("llm.classify"),
        "llm.classify.cpu_s": t.cpu_s("llm.classify"),
        "llm.sim_wait_s": r.sim_wait_s["llm"],
        "llm.cache.hit_rate": cache_hit_rate(r.cache),
        "llm.cache.coalesced": r.cache["coalesced"],
        "llm.retries": retries - t.errors("gsv.fetch"),
        "cascade.route.calls": t.calls("cascade.route"),
        "cascade.route.self_s": t.self_s("cascade.route"),
        "cascade.tier0_share": tier0_share(routed),
        "cascade.scout_calls": routed.get("scout_calls", 0),
        "cascade.deep_escalations": routed.get("deep_escalations", 0),
        "voting.vote.calls": t.calls("voting.vote"),
        "voting.vote.busy_s": t.busy_s("voting.vote"),
        "voting.members_skipped": t.counters["voting.members_skipped"],
        "aio.bridge.calls": t.calls("aio.bridge"),
        "aio.bridge.wait_s": t.counters["aio.bridge.wait_s"],
        "pipeline.peak_inflight": max(p["peak_inflight"] for p in pipeline),
        "pipeline.final_limit": min(p["final_limit"] for p in pipeline),
        "pipeline.throttle_events": sum(p["throttle_events"] for p in pipeline),
        "pipeline.microbatch_mean_size": (
            sum(b["batched_requests"] for b in batches) / n_batches
            if n_batches
            else 0.0
        ),
        "checkpoint.record.calls": t.calls("checkpoint.record"),
        "checkpoint.record.busy_s": t.busy_s("checkpoint.record"),
        "checkpoint.bytes_written": t.counters["checkpoint.bytes_written"],
        "service.submit.busy_s": t.busy_s("service.submit"),
        "service.queue_wait_p50_s": median(r.queue_waits_s),
        "service.run_p50_s": median(r.runs_s),
        "service.flush.calls": t.calls("service.flush"),
        "service.flush.busy_s": t.busy_s("service.flush"),
        "service.settle.busy_s": t.busy_s("service.settle"),
        "service.report_write.busy_s": t.busy_s("service.report_write"),
    }


def per_layer(session: Session) -> dict[str, float]:
    """Median over traced rounds of each per-layer figure."""
    rounds = [_layers(session.plan, r) for r in session.traced]
    metrics = {
        name: median(layer[name] for layer in rounds) for name in rounds[0]
    }
    metrics["trace_overhead"] = median(
        r.locations_per_s for r in session.rounds
    ) / median(r.locations_per_s for r in session.traced)
    return metrics
