"""Operator and researcher command line.

Commands:
    keygen   write one party's key files (encryption, signing, trust anchor)
    synth    generate synthetic station datasets from a spec file
    station  run a data-station daemon from a config file
    tse      run the analysis-station daemon from a config file
    submit   sign a manifest draft, dispatch the run, collect the result
    report   pretty-print a run report

Everything file-shaped is JSON, read strictly into one dataclass per kind of
file: StationConfigFile, TseConfigFile, Draft, RunReport, and model.Sidecar
for a dataset CSV's descriptor. PHT_LOG selects log verbosity
(DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import datetime as dt
import logging
import os
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click

from .analysis import AnalysisSpec, DisclosurePolicy, table_to_csv
from .encoding import canonical_json_bytes, check_types, from_json_bytes
from .envelope import (
    KeyPair,
    PublicEncryptionKey,
    SigningKeys,
    derive_key_id,
    encryption_keypair_from_pem,
    encryption_keypair_to_pem,
    generate_encryption_keypair,
    generate_signing_keys,
    public_key_from_pem,
    signing_keys_from_pem,
    signing_keys_to_pem,
)
from .errors import BadConfig, InvalidSpec, PhtError
from .linkage import LinkageParams
from .manifest import DataRequest, TrainManifest, block_from_dict, sign_manifest
from .model import read_dataset_csv, write_dataset_csv
from .network import Router, TcpNode, researcher_verdict
from .stations import (
    DataStationActor,
    DataStationConfig,
    ResearcherActor,
    TseActor,
    TseConfig,
)
from .synth import SyntheticPopulationSpec, generate_population, generate_vertical_demo

PRIVATE_MODE = 0o600


def _fail(reason: str, detail: str = "", code: int = 2):
    line = f"error: {reason}" + (f": {detail}" if detail else "")
    click.echo(line, err=True)
    sys.exit(code)


def _write_private(path: Path, data: bytes, force: bool = False) -> None:
    """Create ``path`` owner-only from the start, so the key is never
    readable by others, whatever the umask."""
    if force:
        path.unlink(missing_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, PRIVATE_MODE)
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)


def _load_json(path: Path) -> dict:
    """A JSON file whose top level is an object; anything else is BadConfig."""
    try:
        doc = from_json_bytes(path.read_bytes())
    except (OSError, ValueError) as exc:
        raise BadConfig(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadConfig(f"{path}: top level must be a JSON object, not {type(doc).__name__}")
    return doc


def _resolve(base: Path, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else base / path


@click.group()
@click.option(
    "--log-level",
    envvar="PHT_LOG",
    default="WARNING",
    show_default=True,
    help="Log verbosity; also read from PHT_LOG.",
)
def main(log_level: str):
    """Privacy-preserving linkage across train/station endpoints."""
    logging.basicConfig(
        level=getattr(logging, log_level.upper(), logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

KEY_FILES = (
    "enc_private.pem",
    "enc_public.pem",
    "sign_private.pem",
    "sign_verify.pem",
    "anchor_private.pem",
    "anchor_verify.pem",
)


@main.command()
@click.argument("out_dir", type=click.Path(path_type=Path))
@click.option("--force", is_flag=True, help="Overwrite existing key files.")
def keygen(out_dir: Path, force: bool):
    """Generate one party's key files into OUT_DIR.

    Writes an encryption keypair, a signing pair, and a trust-anchor signing
    pair; private halves are written with owner-only permissions.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    existing = [name for name in KEY_FILES if (out_dir / name).exists()]
    if existing and not force:
        _fail("KeyFilesExist", f"refusing to overwrite {existing} (use --force)")

    enc = generate_encryption_keypair()
    sign = generate_signing_keys()
    anchor = generate_signing_keys()
    enc_priv, enc_pub = encryption_keypair_to_pem(enc)
    sign_priv, sign_pub = signing_keys_to_pem(sign)
    anchor_priv, anchor_pub = signing_keys_to_pem(anchor)

    _write_private(out_dir / "enc_private.pem", enc_priv, force)
    (out_dir / "enc_public.pem").write_bytes(enc_pub)
    _write_private(out_dir / "sign_private.pem", sign_priv, force)
    (out_dir / "sign_verify.pem").write_bytes(sign_pub)
    _write_private(out_dir / "anchor_private.pem", anchor_priv, force)
    (out_dir / "anchor_verify.pem").write_bytes(anchor_pub)
    click.echo(f"wrote {len(KEY_FILES)} key files to {out_dir}")


def _load_encryption_keys(path: Path) -> KeyPair:
    return encryption_keypair_from_pem(path.read_bytes())


def _load_signing_keys(path: Path) -> SigningKeys:
    return signing_keys_from_pem(path.read_bytes())


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@main.command()
@click.argument("spec_file", type=click.Path(exists=True, path_type=Path))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=Path("."))
def synth(spec_file: Path, out_dir: Path):
    """Generate synthetic datasets plus the ground-truth map from SPEC_FILE.

    The spec is JSON with the population parameters; set "variant" to
    "vertical_demo" for the two-station feasibility split (station A holds
    age, station B holds income for the same people).
    """
    try:
        doc = _load_json(spec_file)
    except BadConfig as exc:
        _fail("InvalidSpec", str(exc))
    out_dir.mkdir(parents=True, exist_ok=True)
    variant = doc.pop("variant", "population")
    try:
        if variant == "vertical_demo":
            # the variant fixes overlap and perturbation: every B row has an
            # unperturbed counterpart in A, so a spec may not set them
            fixed = {"overlap_fraction": 1.0, "perturbation_rate": 0.0}
            spec = check_types(block_from_dict(SyntheticPopulationSpec, doc, fixed))
            ds_a, ds_b, truth = generate_vertical_demo(
                spec.n_large, spec.n_small, spec.seed, spec.age_range,
                spec.region_zip_prefixes, spec.as_of,
            )
            names = ("station_a", "station_b")
        elif variant == "population":
            spec = check_types(block_from_dict(SyntheticPopulationSpec, doc))
            ds_a, ds_b, truth = generate_population(spec)
            names = ("large", "small")
        else:
            _fail("InvalidSpec", f"unknown variant {variant!r}")
    except (InvalidSpec, ValueError, TypeError) as exc:
        _fail("InvalidSpec", str(exc))

    for ds, name in zip((ds_a, ds_b), names):
        write_dataset_csv(ds, out_dir / f"{name}.csv", out_dir / f"{name}.descriptor.json")
    (out_dir / "ground_truth.json").write_bytes(
        canonical_json_bytes({"pairs": [list(p) for p in truth.pairs]}) + b"\n"
    )
    click.echo(
        f"wrote {names[0]}.csv ({len(ds_a.rows)} rows), {names[1]}.csv "
        f"({len(ds_b.rows)} rows), ground_truth.json ({len(truth)} pairs) to {out_dir}"
    )


# ---------------------------------------------------------------------------
# daemons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationConfigFile:
    """A data station's config file; paths resolve relative to the file."""

    station_id: str
    role: str
    listen: str  # host:port
    dataset_csv: str
    trust_anchor_verify_key: str
    encryption_private_key: str
    signing_private_key: str
    allow_variables: tuple[str, ...] = ()
    peer_encryption_public_keys: dict[str, str] = field(default_factory=dict)  # id -> PEM
    descriptor: str | None = None
    audit_log: str | None = None


@dataclass(frozen=True)
class TseConfigFile:
    """The analysis station's config file; paths resolve relative to the file."""

    station_id: str
    role: str
    listen: str  # host:port
    trust_anchor_verify_key: str
    encryption_private_key: str
    audit_log: str | None = None
    timeout_s: float = 60.0


def _read_config(path: Path, cls, role: str):
    """A daemon config: only the keys ``cls`` declares, each of its declared
    type, so a misspelt key fails instead of leaving a setting at its
    default."""
    doc = _load_json(path)
    if doc.get("role") != role:
        raise BadConfig(f"{path}: role must be {role!r}")
    try:
        return check_types(block_from_dict(cls, doc))
    except ValueError as exc:
        raise BadConfig(f"{path}: {exc}") from None


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


def _serve(cfg: StationConfigFile | TseConfigFile, listen: tuple[str, int], new_actor,
           timeout_s: float | None = None):
    """Serve runs until SIGTERM/SIGINT, one ``new_actor()`` per dispatched run,
    which answers the run's parties at the addresses its dispatch names; a
    run still live ``timeout_s`` after its dispatch is ended here. A data
    station takes none: its run ends in its dispatch's step."""
    router = Router(lambda dispatch: new_actor(), timeout_s)
    try:
        node = TcpNode(cfg.station_id, router, host=listen[0], port=listen[1])
    except OSError as exc:
        _fail("BindError", str(exc))
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    node.start()
    click.echo(f"listening on {node.address}")
    sys.stdout.flush()
    stop.wait()
    node.stop()  # its worker has ended: the router's actors are ours now
    # only a TSE holds a live run here: a data station's ends in its dispatch's step
    for actor in router.actors.values():
        actor.wipe("terminated")


def _audit_path(base: Path, audit_log: str | None) -> str | None:
    return None if audit_log is None else str(_resolve(base, audit_log))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, path_type=Path))
def station(config_path: Path):
    """Run a data-station daemon; serves runs until terminated."""
    base = config_path.parent
    try:
        cfg = _read_config(config_path, StationConfigFile, "data")
        dataset = read_dataset_csv(
            _resolve(base, cfg.dataset_csv),
            None if cfg.descriptor is None else _resolve(base, cfg.descriptor),
        )
        if dataset.station_id != cfg.station_id:
            raise BadConfig(f"dataset of station {dataset.station_id!r}, "
                            f"not of the configured station {cfg.station_id!r}")
        anchor_verify = public_key_from_pem(
            _resolve(base, cfg.trust_anchor_verify_key).read_bytes()
        )
        enc_keys = _load_encryption_keys(_resolve(base, cfg.encryption_private_key))
        sign_keys = _load_signing_keys(_resolve(base, cfg.signing_private_key))
        peer_keys = {}
        for sid, path in cfg.peer_encryption_public_keys.items():
            raw = public_key_from_pem(_resolve(base, path).read_bytes())
            peer_keys[sid] = PublicEncryptionKey(raw, derive_key_id(raw, "enc"))
        listen = _parse_listen(cfg.listen)
        config = DataStationConfig(
            station_id=cfg.station_id,
            dataset=dataset,
            allowed_variables=cfg.allow_variables,
            trust_anchor_verify=anchor_verify,
            enc_keys=enc_keys,
            sign_keys=sign_keys,
            peer_encryption_keys=peer_keys,
            audit_path=_audit_path(base, cfg.audit_log),
        )
    except (BadConfig, PhtError, OSError, ValueError, KeyError) as exc:
        _fail("BadConfig", str(exc))
    _serve(cfg, listen, lambda: DataStationActor(config))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, path_type=Path))
def tse(config_path: Path):
    """Run the analysis-station daemon; serves runs until terminated."""
    base = config_path.parent
    try:
        cfg = _read_config(config_path, TseConfigFile, "tse")
        anchor_verify = public_key_from_pem(
            _resolve(base, cfg.trust_anchor_verify_key).read_bytes()
        )
        enc_keys = _load_encryption_keys(_resolve(base, cfg.encryption_private_key))
        listen = _parse_listen(cfg.listen)
        config = TseConfig(
            station_id=cfg.station_id,
            trust_anchor_verify=anchor_verify,
            enc_keys=enc_keys,
            audit_path=_audit_path(base, cfg.audit_log),
        )
    except (BadConfig, PhtError, OSError, ValueError, KeyError) as exc:
        _fail("BadConfig", str(exc))
    _serve(cfg, listen, lambda: TseActor(config), cfg.timeout_s)


# ---------------------------------------------------------------------------
# submit / report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Draft:
    """A manifest draft, with key files in place of keys, and where the
    parties listen; paths resolve relative to the file."""

    train_id: str
    tse_station_id: str
    data_requests: tuple[DataRequest, ...]
    analysis: AnalysisSpec
    tse_public_encryption_key_file: str
    station_verification_key_files: dict[str, str]  # station id -> PEM path
    endpoints: dict[str, str]  # actor id -> host:port
    disclosure: DisclosurePolicy = field(default_factory=DisclosurePolicy)
    linkage: LinkageParams = field(default_factory=LinkageParams)
    run_id: str | None = None  # a fresh one if absent
    researcher_id: str = "researcher"
    expiry: str | None = None  # an hour from now if absent


def _manifest_from_draft(doc: dict | Draft, base: Path) -> TrainManifest:
    """The unsigned manifest a draft, or its JSON object, describes."""
    draft = doc if isinstance(doc, Draft) else check_types(block_from_dict(Draft, doc))
    tse_pub = public_key_from_pem(
        _resolve(base, draft.tse_public_encryption_key_file).read_bytes()
    )
    verification = tuple(sorted(
        (sid, public_key_from_pem(_resolve(base, path).read_bytes()))
        for sid, path in draft.station_verification_key_files.items()
    ))
    expiry = draft.expiry or (
        dt.datetime.now(dt.timezone.utc) + dt.timedelta(hours=1)
    ).isoformat()
    return TrainManifest(
        train_id=draft.train_id, run_id=draft.run_id or f"run-{os.urandom(6).hex()}",
        researcher_id=draft.researcher_id, tse_station_id=draft.tse_station_id,
        data_requests=draft.data_requests, analysis=draft.analysis,
        disclosure=draft.disclosure, linkage=draft.linkage,
        tse_public_encryption_key=tse_pub, tse_encryption_key_id=derive_key_id(tse_pub, "enc"),
        station_verification_keys=verification, expiry=expiry,
    )


@dataclass
class AuditSummary:
    """A run report's audit summary; the counts only after a result."""

    #: the sender of each Ack the researcher received; older reports hold
    #: "sender:OK" strings here, which load and print as they are
    acks: tuple[str, ...]
    timings: dict[str, float]
    linkage_class_counts: dict[str, int] | None = None
    records_linked: int | None = None
    cells_suppressed: int | None = None


@dataclass
class RunReport:
    """run_report.json, as `pht submit` writes it and `pht report` reads it."""

    run_id: str
    outcome: str
    audit_summary: AuditSummary
    reason: str | None = None
    result_files: tuple[str, ...] = ()


@main.command()
@click.argument("draft_file", type=click.Path(exists=True, path_type=Path))
@click.option("--anchor-key", required=True, type=click.Path(exists=True, path_type=Path),
              help="Trust-anchor signing key (PEM) used to sign the manifest.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=Path("run-out"))
@click.option("--timeout", "timeout_s", type=float, default=60.0, show_default=True)
def submit(draft_file: Path, anchor_key: Path, out_dir: Path, timeout_s: float):
    """Sign the manifest DRAFT_FILE, dispatch the run, wait for the result.

    Exits 0 only when the run completes; the validated tables and a run
    report land in --out.
    """
    try:
        draft = check_types(block_from_dict(Draft, _load_json(draft_file)))
        manifest = _manifest_from_draft(draft, draft_file.parent)
        manifest = sign_manifest(manifest, _load_signing_keys(anchor_key))
    except (BadConfig, PhtError, OSError, ValueError) as exc:
        _fail("BadDraft", str(exc))

    started = time.perf_counter()
    # at the deadline the researcher aborts with Timeout and cancels the run
    # at the TSE, the one party that still holds it
    router = Router(timeout_s=timeout_s)
    node = TcpNode(manifest.researcher_id, router)
    endpoints = {**draft.endpoints, manifest.researcher_id: node.address}
    researcher = ResearcherActor(manifest.researcher_id, manifest, endpoints)
    done = router.add(manifest.run_id, researcher)
    node.post(researcher.start())  # before the worker runs
    node.start()
    try:
        done.wait()  # the deadline ends the run; no shorter timer may stop the cancel
    finally:
        node.stop()

    out_dir.mkdir(parents=True, exist_ok=True)
    elapsed = time.perf_counter() - started
    outcome, reason, result = researcher_verdict(researcher, silent="Timeout")

    result_files = []
    summary = AuditSummary(tuple(researcher.acks), {"total_s": elapsed})
    if result is not None:
        result_path = out_dir / "result.json"
        result_path.write_bytes(result.to_canonical_json() + b"\n")
        result_files.append(str(result_path))
        for table in result.tables:
            table_path = out_dir / f"{table.name}.csv"
            table_path.write_text(table_to_csv(table), encoding="utf-8")
            result_files.append(str(table_path))
        run_block = result.audit.get("run", {})
        summary.linkage_class_counts = run_block.get("linkage", {}).get("class_counts")
        summary.records_linked = run_block.get("records_linked")
        summary.cells_suppressed = len(
            result.audit.get("disclosure", {}).get("suppressed_cells", [])
        )

    report_doc = RunReport(manifest.run_id, outcome.capitalize(), summary, reason,
                           tuple(result_files))
    report_path = out_dir / "run_report.json"
    report_path.write_bytes(canonical_json_bytes(asdict(report_doc)) + b"\n")

    if outcome == "completed":
        click.echo(f"completed: {manifest.run_id} report={report_path}")
        sys.exit(0)
    click.echo(f"aborted: {reason}", err=True)
    sys.exit(1)


@main.command()
@click.argument("report_file", type=click.Path(exists=True, path_type=Path))
def report(report_file: Path):
    """Pretty-print RUN_REPORT.json."""
    try:
        run = check_types(block_from_dict(RunReport, _load_json(report_file)))
        summary = check_types(run.audit_summary)
    except (BadConfig, ValueError) as exc:
        _fail("BadConfig", str(exc))
    click.echo(f"run      {run.run_id}")
    click.echo(f"outcome  {run.outcome}" + (f" ({run.reason})" if run.reason else ""))
    if summary.acks:
        click.echo(f"acks     {', '.join(summary.acks)}")
    if summary.records_linked is not None:
        click.echo(f"linked   {summary.records_linked} records")
    if summary.cells_suppressed is not None:
        click.echo(f"suppressed cells  {summary.cells_suppressed}")
    if summary.timings:
        click.echo(f"total    {summary.timings.get('total_s') or 0:.3f}s")
    for path in run.result_files:
        click.echo(f"file     {path}")


if __name__ == "__main__":
    main()
