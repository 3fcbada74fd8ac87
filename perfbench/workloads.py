"""The benchmark's three daemon workloads, generated from a seed.

Each workload is a burst of jobs submitted at t=0 by one logical
client (a batch, not an arrival schedule).  Every county seed and job
seed is drawn from ``random.Random(f"{name}/{seed}")``, so the same
``--seed`` always yields the same jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.service import JobSpec, TenantQuota

#: Simulated per-request latency of the stream workload, for both the
#: street-view fetch and the LLM call.
STREAM_LATENCY_S = 0.010


@dataclass(frozen=True)
class Plan:
    """One workload's jobs and the stack settings they run under."""

    name: str
    specs: tuple[JobSpec, ...]
    quota: TenantQuota
    gsv_latency_s: float = 0.0
    llm_latency_s: float = 0.0
    #: Cold set-ups timed per run, of which the median is reported.
    setup_repeats: int = 7

    @property
    def unique_specs(self) -> list[JobSpec]:
        """Specs that decode distinct work, first submission first."""
        seen: dict[tuple, JobSpec] = {}
        for spec in self.specs:
            seen.setdefault(work_key(spec), spec)
        return list(seen.values())

    @property
    def repeated_job_share(self) -> float:
        return 1.0 - len(self.unique_specs) / len(self.specs)

    @property
    def kinds(self) -> list[tuple[str, int]]:
        """``(kind, county_seed)`` of each job kind's first job."""
        first: dict[str, int] = {}
        for spec in self.specs:
            first.setdefault(spec.kind, spec.county_seed)
        return sorted(first.items())


def work_key(spec: JobSpec) -> tuple:
    """What a job decodes; jobs with equal keys repeat each other's work."""
    return (
        spec.kind,
        spec.county_seed,
        spec.n_locations,
        spec.seed,
        spec.max_inflight,
        spec.microbatch,
    )


def _draws(rng: random.Random, count: int) -> list[tuple[int, int]]:
    counties = rng.sample(range(1, 100_000), count)
    return [(county, rng.randrange(1_000_000)) for county in counties]


def survey_burst(seed: int) -> Plan:
    """Two tenants, twelve 6-location survey jobs, half of them repeats.

    Tenant A submits six distinct specs; tenant B resubmits the same
    six ``(county_seed, seed)`` pairs, so six of the twelve jobs decode
    work the shared LLM cache has already seen.
    """
    rng = random.Random(f"survey-burst/{seed}")
    draws = _draws(rng, 6)
    specs = [
        JobSpec(tenant=tenant, kind="survey", county_seed=county,
                n_locations=6, seed=job_seed)
        for tenant in ("tenant-a", "tenant-b")
        for county, job_seed in draws
    ]
    return Plan("survey-burst", tuple(specs), TenantQuota())


def cascade_served(seed: int) -> Plan:
    """Two tenants, four distinct 6-location cascade jobs.

    Set-up trains the detector (25–35 s), so it is timed once per run:
    more set-ups do not fit the benchmark's time budget.
    """
    rng = random.Random(f"cascade-served/{seed}")
    specs = [
        JobSpec(tenant=("tenant-a", "tenant-b")[index % 2], kind="cascade",
                county_seed=county, n_locations=6, seed=job_seed)
        for index, (county, job_seed) in enumerate(_draws(rng, 4))
    ]
    return Plan("cascade-served", tuple(specs), TenantQuota(), setup_repeats=1)


def stream_latency(seed: int) -> Plan:
    """One 500-location classify job behind 10 ms simulated latency."""
    rng = random.Random(f"stream-latency/{seed}")
    [(county, job_seed)] = _draws(rng, 1)
    spec = JobSpec(tenant="tenant-a", kind="classify", county_seed=county,
                   n_locations=500, seed=job_seed, max_inflight=8)
    return Plan(
        "stream-latency",
        (spec,),
        TenantQuota(max_locations_per_job=spec.n_locations),
        gsv_latency_s=STREAM_LATENCY_S,
        llm_latency_s=STREAM_LATENCY_S,
    )


WORKLOADS = {
    "survey-burst": survey_burst,
    "cascade-served": cascade_served,
    "stream-latency": stream_latency,
}
