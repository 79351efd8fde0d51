"""The feasibility scenario end to end, in one process.

Station A holds identifiers with age for 10^4 people; station B holds
identifiers with income for 10^3 of the same people. A signed train manifest
authorizes one analysis. Each station derives the run's salt from its own
key and the other station's public key, so no salt travels and the analysis
station cannot compute it; each then pseudonymizes, seals, and sends. The
analysis station verifies, decrypts, verifies, checks that both stations
hashed under the same salt, links, analyzes, validates, answers the
researcher, and deletes everything it held. The stations never message each
other.
"""

import time

from phtlink.analysis import AnalysisSpec, DisclosurePolicy, table_to_csv
from phtlink.envelope import generate_encryption_keypair, generate_signing_keys
from phtlink.linkage import LinkageParams
from phtlink.manifest import DataRequest, PoolFilter, TrainManifest, sign_manifest
from phtlink.network import RunSetup, run_network
from phtlink.stations import DataStationConfig, TseConfig
from phtlink.synth import generate_vertical_demo

run_id = "run-feasibility"
ds_a, ds_b, truth = generate_vertical_demo(10_000, 1_000, seed=2026)

# per-run keys: encryption for the analysis station and the two stations,
# signing pairs for the stations, one long-lived trust anchor
anchor = generate_signing_keys()
tse_enc = generate_encryption_keypair(run_id)
a_enc, b_enc = generate_encryption_keypair(run_id), generate_encryption_keypair(run_id)
a_sign, b_sign = generate_signing_keys(run_id), generate_signing_keys(run_id)

manifest = sign_manifest(
    TrainManifest(
        train_id="train-feasibility",
        run_id=run_id,
        researcher_id="researcher",
        tse_station_id="TSE",
        data_requests=(
            DataRequest("A", ("age",), PoolFilter(age_min=40, age_max=75,
                                                  as_of="2026-01-01")),
            DataRequest("B", ("income",)),
        ),
        analysis=AnalysisSpec("binned_association", ("age", "income"), bin_width=10),
        disclosure=DisclosurePolicy(k_min=10),
        linkage=LinkageParams(mode="exact"),
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

setup = RunSetup(
    manifest=manifest,
    stations=[
        DataStationConfig("A", ds_a, ("age",), anchor.verification_key,
                          a_enc, a_sign, peer_encryption_keys={"B": b_enc.public_only()}),
        DataStationConfig("B", ds_b, ("income",), anchor.verification_key,
                          b_enc, b_sign, peer_encryption_keys={"A": a_enc.public_only()}),
    ],
    tse=TseConfig("TSE", anchor.verification_key, tse_enc),
)

started = time.perf_counter()
out = run_network(setup, transport="inproc")
elapsed = time.perf_counter() - started

print(f"outcome: {out.outcome} in {elapsed:.2f}s")
print(f"records linked: {out.result.audit['run']['records_linked']} "
      f"of {len(truth)} true pairs\n")
print("validated age-bin x mean-income table:")
print(table_to_csv(out.result.tables[0]))
print("TSE storage after the run:", out.storage.inventory(),
      f"(wiped={out.storage.wiped})")

print("\nmessage channels seen:")
for (sender, dest), entries in sorted(out.traces.items()):
    print(f"  {sender:11s} -> {dest:11s} {[e[0] for e in entries]}")
