"""The benchmark's workloads, built through phtlink's public API.

Each workload is one input shape: synthetic data from a seed, a signed train
manifest per run, and the transport the run goes over. The reference result
for the output check is computed directly through the library on the same
inputs: pool filter, pseudonymize, link, merge, analyse, validate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from phtlink.analysis import AnalysisSpec, DisclosurePolicy, ValidatedResult, run_analysis, validate
from phtlink.encoding import canonical_json_bytes
from phtlink.envelope import generate_encryption_keypair, generate_signing_keys
from phtlink.linkage import LinkageParams, link, merge
from phtlink.manifest import DataRequest, PoolFilter, TrainManifest, sign_manifest
from phtlink.model import Dataset, Record
from phtlink.network import RunOutcome, RunSetup, run_network
from phtlink.pseudonym import Salt, pseudonymize
from phtlink.stations import DataStationConfig, TseConfig, apply_pool_filter
from phtlink.synth import SyntheticPopulationSpec, generate_population, generate_vertical_demo

K_MIN = 10
TSE_ID = "TSE"
RESEARCHER_ID = "researcher"

# Deadlines for TCP runs. They belong to the workload definition: a run that
# stalls costs this long, and both commits of a comparison use the same
# values. A normal tcp-1k run takes about 0.15 s.
TCP_TSE_TIMEOUT_S = 2.0
TCP_RUN_TIMEOUT_S = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "vertical" | "population"
    sizes: tuple[int, int]
    variables: tuple[tuple[str, ...], tuple[str, ...]]  # requested from A, from B
    linkage: LinkageParams
    analysis: AnalysisSpec
    transport: str
    pool_a: PoolFilter | None = None


# Why each workload was chosen is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-100k",
            generator="vertical",
            sizes=(100_000, 10_000),
            variables=(("age",), ("income",)),
            linkage=LinkageParams(mode="exact"),
            analysis=AnalysisSpec("binned_association", ("age", "income"), bin_width=10),
            transport="inproc",
            pool_a=PoolFilter(age_min=40, age_max=75, as_of="2026-01-01"),
        ),
        Workload(
            name="prob-gender-4k",
            generator="population",
            sizes=(4000, 400),
            variables=(("age",), ("activity",)),
            linkage=LinkageParams(mode="probabilistic", blocking_fields=("gender",)),
            analysis=AnalysisSpec("binned_association", ("age", "activity"), bin_width=10),
            transport="inproc",
        ),
        Workload(
            name="tcp-1k",
            generator="vertical",
            sizes=(1000, 100),
            variables=(("age",), ("income",)),
            linkage=LinkageParams(mode="exact"),
            analysis=AnalysisSpec("descriptive", ("age", "income")),
            transport="tcp",
        ),
    )
}


@dataclass
class Inputs:
    """What the stations hold, plus the ground truth only the benchmark sees."""

    ds_a: Dataset
    ds_b: Dataset
    truth: frozenset[tuple[int, int]]  # (row in A, row in B)
    generate_s: float


def generate(workload: Workload, seed: int) -> Inputs:
    started = time.perf_counter()
    n_a, n_b = workload.sizes
    if workload.generator == "vertical":
        ds_a, ds_b, truth = generate_vertical_demo(n_a, n_b, seed=seed)
    else:
        ds_a, ds_b, truth = generate_population(
            SyntheticPopulationSpec(
                n_large=n_a,
                n_small=n_b,
                overlap_fraction=0.8,
                perturbation_rate=0.05,
                seed=seed,
            )
        )
    return Inputs(ds_a, ds_b, frozenset(truth.pairs), time.perf_counter() - started)


def make_setup(workload: Workload, inputs: Inputs, run_id: str) -> RunSetup:
    """Fresh keys and a signed manifest for one run, as a researcher and the
    stations would hold them."""
    anchor = generate_signing_keys()
    tse_enc = generate_encryption_keypair(run_id)
    a_enc, b_enc = generate_encryption_keypair(run_id), generate_encryption_keypair(run_id)
    a_sign, b_sign = generate_signing_keys(run_id), generate_signing_keys(run_id)
    vars_a, vars_b = workload.variables
    manifest = sign_manifest(
        TrainManifest(
            train_id=f"train-{workload.name}",
            run_id=run_id,
            researcher_id=RESEARCHER_ID,
            tse_station_id=TSE_ID,
            data_requests=(
                DataRequest("A", vars_a, workload.pool_a),
                DataRequest("B", vars_b),
            ),
            analysis=workload.analysis,
            disclosure=DisclosurePolicy(k_min=K_MIN),
            linkage=workload.linkage,
            tse_public_encryption_key=tse_enc.public_encryption_key,
            tse_encryption_key_id=tse_enc.key_id,
            station_verification_keys=(
                ("A", a_sign.verification_key),
                ("B", b_sign.verification_key),
            ),
            expiry="2099-01-01T00:00:00Z",
        ),
        anchor,
    )
    return RunSetup(
        manifest=manifest,
        stations=[
            DataStationConfig("A", inputs.ds_a, vars_a, anchor.verification_key,
                              a_enc, a_sign, peer_encryption_keys={"B": b_enc.public_only()}),
            DataStationConfig("B", inputs.ds_b, vars_b, anchor.verification_key,
                              b_enc, b_sign, peer_encryption_keys={"A": a_enc.public_only()}),
        ],
        tse=TseConfig(TSE_ID, anchor.verification_key, tse_enc),
    )


def run_once(workload: Workload, setup: RunSetup) -> RunOutcome:
    if workload.transport == "tcp":
        return run_network(
            setup, transport="tcp",
            tse_timeout=TCP_TSE_TIMEOUT_S, run_timeout=TCP_RUN_TIMEOUT_S,
        )
    return run_network(setup, transport=workload.transport)


# ---------------------------------------------------------------------------
# Reference result and output check
# ---------------------------------------------------------------------------

@dataclass
class Reference:
    tables: bytes  # canonical JSON of the validated tables
    pairs: frozenset[tuple[int, int]]
    truth: frozenset[tuple[int, int]]  # ground truth among rows A releases


def _extract(ds: Dataset, variables: tuple[str, ...], pool, salt: Salt) -> tuple[Dataset, list[int]]:
    kept = apply_pool_filter(ds.rows, pool)
    position = {id(row): i for i, row in enumerate(ds.rows)}
    rows = [
        Record(payload={v: row.payload[v] for v in variables},
               pseudonym=pseudonymize(row.qid, salt))
        for row in kept
    ]
    schema = tuple((v, dict(ds.schema)[v]) for v in variables)
    extract = Dataset(ds.station_id, schema, rows,
                      replace(ds.descriptor, row_count=len(rows)))
    return extract, [position[id(row)] for row in kept]


def tables_bytes(result: ValidatedResult) -> bytes:
    return canonical_json_bytes([t.to_dict() for t in result.tables])


def reference(workload: Workload, inputs: Inputs) -> Reference:
    """The released tables computed directly through the library.

    Neither linkage mode depends on the salt's value (equal inputs give equal
    digests under any salt), so any salt reproduces what the stations send.
    """
    salt = Salt(bytes=b"\x5a" * 32, run_id="reference")
    vars_a, vars_b = workload.variables
    ext_a, kept_a = _extract(inputs.ds_a, vars_a, workload.pool_a, salt)
    ext_b, kept_b = _extract(inputs.ds_b, vars_b, None, salt)
    result = link(ext_a, ext_b, workload.linkage)
    merged = merge(result, ext_a, ext_b)
    validated = validate(run_analysis(merged, workload.analysis), DisclosurePolicy(k_min=K_MIN))
    # ground truth in the index space the TSE links in: rows A released
    pos_a = {row: i for i, row in enumerate(kept_a)}
    pos_b = {row: j for j, row in enumerate(kept_b)}
    truth = frozenset(
        (pos_a[a], pos_b[b]) for a, b in inputs.truth if a in pos_a and b in pos_b
    )
    return Reference(tables_bytes(validated), frozenset(result.pairs), truth)


@dataclass
class RunResult:
    """What the output check needs from one run; the outcome itself, with
    every frame the TSE received, is dropped as soon as the run ends."""

    seconds: float
    completed: bool
    reason: str | None
    tables: bytes | None
    storage_clean: bool  # TSE storage wiped, inventory empty
    pairs: frozenset[tuple[int, int]] | None  # what the TSE's link call returned
    tse_ingress_bytes: int


def summarize(outcome: RunOutcome, seconds: float, pairs) -> RunResult:
    return RunResult(
        seconds=seconds,
        completed=outcome.completed,
        reason=outcome.reason,
        tables=tables_bytes(outcome.result) if outcome.result is not None else None,
        storage_clean=outcome.storage.wiped and not outcome.storage.inventory(),
        pairs=frozenset(pairs) if pairs is not None else None,
        tse_ingress_bytes=sum(len(f) for f in outcome.received_bytes.get(TSE_ID, ())),
    )


def check(workload: Workload, ref: Reference, run: RunResult) -> str | None:
    """None when the run is correct, else the first condition it failed."""
    if not run.completed:
        return f"aborted:{run.reason}"
    if run.tables != ref.tables:
        return "check:tables"
    if not run.storage_clean:
        return "check:storage"
    if run.pairs != ref.pairs:
        return "check:pairs"
    if workload.linkage.mode == "exact" and run.pairs != ref.truth:
        return "check:truth"
    return None


class LinkCapture:
    """Keeps the pairs of the last ``link`` call the TSE made, by wrapping
    the name in ``phtlink.stations``; used as a context manager."""

    def __init__(self, stations):
        self._stations = stations
        self._original = stations.link
        self.pairs = None

    def _link(self, *args, **kwargs):
        result = self._original(*args, **kwargs)
        self.pairs = result.pairs
        return result

    def __enter__(self) -> "LinkCapture":
        self._stations.link = self._link
        return self

    def __exit__(self, *exc) -> None:
        self._stations.link = self._original
