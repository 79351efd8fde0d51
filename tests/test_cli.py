"""Command-line surface: keygen, synth, daemons, submit, report."""

import contextlib
import json
import os
import signal
import socket
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from phtlink.cli import main
from phtlink.encoding import canonical_json_bytes


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestKeygen:
    def test_writes_six_key_files(self, tmp_path):
        result = run_cli("keygen", tmp_path / "keys")
        assert result.exit_code == 0
        files = sorted(p.name for p in (tmp_path / "keys").iterdir())
        assert files == [
            "anchor_private.pem", "anchor_verify.pem",
            "enc_private.pem", "enc_public.pem",
            "sign_private.pem", "sign_verify.pem",
        ]

    def test_private_files_restricted(self, tmp_path):
        run_cli("keygen", tmp_path / "keys")
        for name in ("enc_private.pem", "sign_private.pem", "anchor_private.pem"):
            mode = stat.S_IMODE((tmp_path / "keys" / name).stat().st_mode)
            assert mode == 0o600

    def test_private_files_created_restricted(self, tmp_path, monkeypatch):
        # the mode must come from the create call itself, not a later chmod
        monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
        old_umask = os.umask(0o022)
        try:
            run_cli("keygen", tmp_path / "keys")
            run_cli("keygen", tmp_path / "keys", "--force")
        finally:
            os.umask(old_umask)
        for name in ("enc_private.pem", "sign_private.pem", "anchor_private.pem"):
            mode = stat.S_IMODE((tmp_path / "keys" / name).stat().st_mode)
            assert mode == 0o600, name

    def test_refuses_overwrite_without_force(self, tmp_path):
        run_cli("keygen", tmp_path / "keys")
        marker = (tmp_path / "keys" / "enc_private.pem").read_bytes()
        refused = CliRunner().invoke(main, ["keygen", str(tmp_path / "keys")])
        assert refused.exit_code != 0
        assert "KeyFilesExist" in refused.output
        assert (tmp_path / "keys" / "enc_private.pem").read_bytes() == marker
        forced = run_cli("keygen", tmp_path / "keys", "--force")
        assert forced.exit_code == 0
        assert (tmp_path / "keys" / "enc_private.pem").read_bytes() != marker

    def test_generated_keys_roundtrip_a_seal_open(self, tmp_path):
        from phtlink.cli import _load_encryption_keys, _load_signing_keys
        from phtlink.envelope import open_package, seal

        run_cli("keygen", tmp_path / "keys")
        enc = _load_encryption_keys(tmp_path / "keys" / "enc_private.pem")
        sign = _load_signing_keys(tmp_path / "keys" / "sign_private.pem")
        pkg = seal(b"round trip", "run-z", "A", enc.public_only(), sign)
        assert open_package(pkg, enc, sign.verification_key) == b"round trip"


class TestSynth:
    def spec_file(self, tmp_path, **overrides):
        doc = dict(n_large=60, n_small=20, seed=5)
        if overrides.get("variant") != "vertical_demo":
            # the vertical_demo variant fixes these two and refuses them
            doc.update(overlap_fraction=0.8, perturbation_rate=0.05)
        doc.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_population_files(self, tmp_path):
        result = run_cli("synth", self.spec_file(tmp_path), "--out", tmp_path / "data")
        assert result.exit_code == 0
        names = sorted(p.name for p in (tmp_path / "data").iterdir())
        assert names == [
            "ground_truth.json",
            "large.csv", "large.descriptor.json",
            "small.csv", "small.descriptor.json",
        ]
        truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
        assert len(truth["pairs"]) == 16

    def test_seed_repetition_identical_files(self, tmp_path):
        run_cli("synth", self.spec_file(tmp_path), "--out", tmp_path / "one")
        run_cli("synth", self.spec_file(tmp_path), "--out", tmp_path / "two")
        for name in ("large.csv", "small.csv", "ground_truth.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_vertical_demo_variant(self, tmp_path):
        spec = self.spec_file(tmp_path, variant="vertical_demo", n_large=50, n_small=10)
        result = run_cli("synth", spec, "--out", tmp_path / "demo")
        assert result.exit_code == 0
        assert (tmp_path / "demo" / "station_a.csv").exists()
        assert (tmp_path / "demo" / "station_b.csv").exists()
        truth = json.loads((tmp_path / "demo" / "ground_truth.json").read_text())
        assert len(truth["pairs"]) == 10

    def test_unknown_population_key_is_invalid_spec(self, tmp_path):
        spec = self.spec_file(tmp_path, overlap_fracton=0.5)
        result = CliRunner().invoke(main, ["synth", str(spec)])
        assert result.exit_code != 0
        assert "InvalidSpec" in result.output and "overlap_fracton" in result.output

    def test_unknown_vertical_demo_key_is_invalid_spec(self, tmp_path):
        spec = self.spec_file(tmp_path, variant="vertical_demo", sead=7)
        result = CliRunner().invoke(main, ["synth", str(spec), "--out", str(tmp_path / "d")])
        assert result.exit_code == 2
        assert "InvalidSpec" in result.output and "sead" in result.output
        assert not (tmp_path / "d" / "station_a.csv").exists()

    @pytest.mark.parametrize("key, value", [("overlap_fraction", 0.5),
                                            ("perturbation_rate", 0.1)])
    def test_vertical_demo_refuses_the_keys_it_fixes(self, tmp_path, key, value):
        spec = self.spec_file(tmp_path, variant="vertical_demo", **{key: value})
        result = CliRunner().invoke(main, ["synth", str(spec), "--out", str(tmp_path / "d")])
        assert result.exit_code == 2
        assert "InvalidSpec" in result.output and key in result.output
        assert not list((tmp_path / "d").glob("*.csv"))

    @pytest.mark.parametrize("variant", ["population", "vertical_demo"])
    @pytest.mark.parametrize("key, value", [("n_large", True), ("n_small", 10.0),
                                            ("seed", "7"), ("age_range", [40])])
    def test_ill_typed_key_is_invalid_spec_naming_it(self, tmp_path, variant, key, value):
        spec = self.spec_file(tmp_path, variant=variant, **{key: value})
        result = CliRunner().invoke(main, ["synth", str(spec), "--out", str(tmp_path / "d")])
        assert result.exit_code == 2
        assert "InvalidSpec" in result.output and repr(key) in result.output
        assert not list((tmp_path / "d").glob("*.csv"))

    def test_vertical_demo_honours_zip_prefixes(self, tmp_path):
        spec = self.spec_file(tmp_path, variant="vertical_demo", region_zip_prefixes=["9999"])
        result = run_cli("synth", spec, "--out", tmp_path / "demo")
        assert result.exit_code == 0
        lines = (tmp_path / "demo" / "station_a.csv").read_text().splitlines()
        assert lines[0].startswith("zip_code,")
        assert all(line.startswith("9999") for line in lines[1:])

    def test_invalid_spec_fails_with_reason(self, tmp_path):
        spec = self.spec_file(tmp_path, n_large=5, n_small=50, overlap_fraction=1.0)
        result = CliRunner().invoke(main, ["synth", str(spec)])
        assert result.exit_code != 0
        assert "InvalidSpec" in result.output


# ---------------------------------------------------------------------------
# Full TCP deployment
# ---------------------------------------------------------------------------

def _wait_listening(proc, stderr_log: Path) -> str:
    line = proc.stdout.readline().decode()
    assert "listening on" in line, (
        f"no 'listening on' line (got {line!r}); stderr:\n"
        + stderr_log.read_text(errors="replace")
    )
    return line.strip().rsplit(" ", 1)[-1]


def _child_env() -> dict[str, str]:
    """Environment for spawned daemons: they run with cwd=tmp_path, where a
    relative PYTHONPATH resolves to nothing, so put the directory this
    process imported phtlink from first."""
    import phtlink

    package_root = str(Path(phtlink.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env


@contextlib.contextmanager
def _deploy(tmp_path, tse_timeout_s, start=("A", "B", "TSE")):
    """keygen for every party, synthetic data, configs, and a running daemon
    for each party in ``start``.

    Yields the endpoints, the config paths and ``spawn(command, cfg)``,
    which starts one more daemon and returns its address."""
    runner = CliRunner()
    for party in ("a", "b", "tse", "researcher"):
        assert runner.invoke(main, ["keygen", str(tmp_path / "keys" / party)]).exit_code == 0
    anchor_dir = tmp_path / "keys" / "researcher"

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(
        n_large=400, n_small=120, variant="vertical_demo", seed=12,
    )))
    assert runner.invoke(
        main, ["synth", str(spec), "--out", str(tmp_path / "data")]
    ).exit_code == 0

    def config(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_bytes(canonical_json_bytes(doc))
        return path

    cfg_a = config("station_a", {
        "station_id": "A", "role": "data", "listen": "127.0.0.1:0",
        "dataset_csv": "data/station_a.csv",
        "allow_variables": ["age"],
        "trust_anchor_verify_key": "keys/researcher/anchor_verify.pem",
        "encryption_private_key": "keys/a/enc_private.pem",
        "signing_private_key": "keys/a/sign_private.pem",
        "peer_encryption_public_keys": {"B": "keys/b/enc_public.pem"},
        "audit_log": "audit_a.jsonl",
    })
    cfg_b = config("station_b", {
        "station_id": "B", "role": "data", "listen": "127.0.0.1:0",
        "dataset_csv": "data/station_b.csv",
        "allow_variables": ["income"],
        "trust_anchor_verify_key": "keys/researcher/anchor_verify.pem",
        "encryption_private_key": "keys/b/enc_private.pem",
        "signing_private_key": "keys/b/sign_private.pem",
        "peer_encryption_public_keys": {"A": "keys/a/enc_public.pem"},
        "audit_log": "audit_b.jsonl",
    })
    cfg_tse = config("tse", {
        "station_id": "TSE", "role": "tse", "listen": "127.0.0.1:0",
        "trust_anchor_verify_key": "keys/researcher/anchor_verify.pem",
        "encryption_private_key": "keys/tse/enc_private.pem",
        "audit_log": "audit_tse.jsonl",
        "timeout_s": tse_timeout_s,
    })

    procs = []
    env = _child_env()

    def spawn(command, cfg):
        # stderr goes to a file: an undrained pipe can fill and block a daemon
        stderr_log = tmp_path / f"{cfg.stem}.stderr.log"
        with open(stderr_log, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "phtlink.cli", command, "--config", str(cfg)],
                stdout=subprocess.PIPE, stderr=stderr, cwd=tmp_path, env=env,
            )
        procs.append(proc)
        return _wait_listening(proc, stderr_log)

    # every daemon started is stopped again, also when a later one fails to start
    try:
        configs = {"A": cfg_a, "B": cfg_b, "TSE": cfg_tse}
        endpoints = {
            party: spawn("tse" if party == "TSE" else "station", configs[party])
            for party in start
        }
        yield dict(tmp_path=tmp_path, endpoints=endpoints, anchor_dir=anchor_dir, procs=procs,
                   configs=configs, spawn=spawn)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


@pytest.fixture
def deployment(tmp_path):
    with _deploy(tmp_path, tse_timeout_s=30) as deploy:
        yield deploy


def _draft(deploy, run_id, **overrides):
    doc = {
        "train_id": "train-cli",
        "run_id": run_id,
        "researcher_id": "researcher",
        "tse_station_id": "TSE",
        "data_requests": [
            {"station_id": "A", "variables": ["age"],
             "pool": {"age_min": 40, "age_max": 75, "as_of": "2026-01-01"}},
            {"station_id": "B", "variables": ["income"]},
        ],
        "analysis": {"kind": "binned_association", "variables": ["age", "income"],
                     "bin_width": 10},
        "disclosure": {"k_min": 5},
        "linkage": {"mode": "exact"},
        "expiry": "2099-01-01T00:00:00Z",
        "tse_public_encryption_key_file": "keys/tse/enc_public.pem",
        "station_verification_key_files": {
            "A": "keys/a/sign_verify.pem",
            "B": "keys/b/sign_verify.pem",
        },
        "endpoints": deploy["endpoints"],
    }
    doc.update(overrides)
    path = deploy["tmp_path"] / f"draft_{run_id}.json"
    path.write_text(json.dumps(doc))
    return path


class TestBadDraft:
    def test_misspelt_pool_key_fails_before_any_frame_is_sent(self, tmp_path):
        runner = CliRunner()
        for party in ("a", "b", "tse", "researcher"):
            assert runner.invoke(main, ["keygen", str(tmp_path / "keys" / party)]).exit_code == 0
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = "{}:{}".format(*listener.getsockname())
            deploy = dict(tmp_path=tmp_path, endpoints=dict.fromkeys(("A", "B", "TSE"), address))
            draft = _draft(deploy, "run-cli-bad", data_requests=[
                {"station_id": "A", "variables": ["age"], "pool": {"age_mn": 40}},
                {"station_id": "B", "variables": ["income"]},
            ])
            result = runner.invoke(main, [
                "submit", str(draft),
                "--anchor-key", str(tmp_path / "keys" / "researcher" / "anchor_private.pem"),
                "--out", str(tmp_path / "out"), "--timeout", "5",
            ])
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()  # nobody connected
        assert result.exit_code == 2
        assert "BadDraft" in result.output and "age_mn" in result.output


    def test_misspelt_block_names_fail_before_any_frame_is_sent(self, tmp_path):
        runner = CliRunner()
        for party in ("a", "b", "tse", "researcher"):
            assert runner.invoke(main, ["keygen", str(tmp_path / "keys" / party)]).exit_code == 0
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = "{}:{}".format(*listener.getsockname())
            deploy = dict(tmp_path=tmp_path, endpoints=dict.fromkeys(("A", "B", "TSE"), address))
            draft = _draft(deploy, "run-cli-bad-blocks")
            doc = json.loads(draft.read_text())
            for key in ("disclosure", "linkage", "expiry"):
                del doc[key]
            doc.update(disclosur={"k_min": 50}, linkge={"mode": "exact"},
                       expiri="2099-01-01T00:00:00Z")
            draft.write_text(json.dumps(doc))
            result = runner.invoke(main, [
                "submit", str(draft),
                "--anchor-key", str(tmp_path / "keys" / "researcher" / "anchor_private.pem"),
                "--out", str(tmp_path / "out"), "--timeout", "5",
            ])
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()  # nobody connected
        assert result.exit_code == 2
        assert "BadDraft" in result.output
        for key in ("disclosur", "linkge", "expiri"):
            assert key in result.output


    @pytest.mark.parametrize("endpoints", [{"A": 7101}, [["A", "127.0.0.1:7101"]], 7101])
    def test_ill_typed_endpoints_fail_before_any_frame_is_sent(self, tmp_path, endpoints):
        draft = _draft(dict(tmp_path=tmp_path, endpoints=endpoints), "run-cli-bad-endpoints")
        (tmp_path / "anchor.pem").write_text("unused")
        result = CliRunner().invoke(main, [
            "submit", str(draft), "--anchor-key", str(tmp_path / "anchor.pem"),
            "--out", str(tmp_path / "out"), "--timeout", "5",
        ])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2, result.output
        assert "error: BadDraft" in result.output and "endpoints" in result.output


class TestSubmitEndToEnd:
    def test_demo_run_produces_result_tables(self, deployment):
        draft = _draft(deployment, "run-cli-1")
        out_dir = deployment["tmp_path"] / "out"
        result = CliRunner().invoke(main, [
            "submit", str(draft),
            "--anchor-key", str(deployment["anchor_dir"] / "anchor_private.pem"),
            "--out", str(out_dir), "--timeout", "30",
        ])
        assert result.exit_code == 0, result.output
        assert "completed" in result.output
        assert "PRIVATE KEY" not in result.output

        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["outcome"] == "Completed"
        assert report["audit_summary"]["records_linked"] == 120
        # one Ack from the TSE and one from each station, by sender id
        assert sorted(report["audit_summary"]["acks"]) == ["A", "B", "TSE"]

        result_doc = json.loads((out_dir / "result.json").read_text())
        table = result_doc["tables"][0]
        assert table["key_fields"] == ["bin"]
        assert "mean_income" in table["value_fields"]
        csvs = list(out_dir.glob("*.csv"))
        assert csvs, "expected a plot-ready table csv"
        for path in out_dir.iterdir():
            assert b"PRIVATE KEY" not in path.read_bytes()

        # report command renders the run report
        shown = CliRunner().invoke(main, ["report", str(out_dir / "run_report.json")])
        assert shown.exit_code == 0
        assert "run-cli-1" in shown.output and "Completed" in shown.output

    def test_expired_manifest_exits_nonzero(self, deployment):
        draft = _draft(deployment, "run-cli-2", expiry="2000-01-01T00:00:00Z")
        result = CliRunner().invoke(main, [
            "submit", str(draft),
            "--anchor-key", str(deployment["anchor_dir"] / "anchor_private.pem"),
            "--out", str(deployment["tmp_path"] / "out2"), "--timeout", "20",
        ])
        assert result.exit_code == 1
        assert "aborted: Expired" in result.output
        report = json.loads(
            (deployment["tmp_path"] / "out2" / "run_report.json").read_text()
        )
        assert report["outcome"] == "Aborted" and report["reason"] == "Expired"

    def test_unauthorized_variable_exits_nonzero(self, deployment):
        draft = _draft(deployment, "run-cli-3", data_requests=[
            {"station_id": "A", "variables": ["age", "blood_pressure"]},
            {"station_id": "B", "variables": ["income"]},
        ])
        result = CliRunner().invoke(main, [
            "submit", str(draft),
            "--anchor-key", str(deployment["anchor_dir"] / "anchor_private.pem"),
            "--out", str(deployment["tmp_path"] / "out3"), "--timeout", "20",
        ])
        assert result.exit_code == 1
        assert "aborted: UnauthorizedVariable" in result.output


class TestSubmitTimeout:
    def test_submit_cancels_the_run_at_its_deadline(self, tmp_path):
        """With station B not listening the run cannot finish: at --timeout
        submit aborts with Timeout and cancels the run at the TSE, which
        still awaits B's data."""
        with _deploy(tmp_path, tse_timeout_s=30, start=("A", "TSE")) as deploy:
            with socket.create_server(("127.0.0.1", 0)) as unused:
                deploy["endpoints"]["B"] = "{}:{}".format(*unused.getsockname())
            result = CliRunner().invoke(main, [
                "submit", str(_draft(deploy, "run-cli-timeout")),
                "--anchor-key", str(deploy["anchor_dir"] / "anchor_private.pem"),
                "--out", str(tmp_path / "out"), "--timeout", "3",
            ])
            assert result.exit_code == 1, result.output
            assert "aborted: Timeout" in result.output

            def tse_events():
                lines = (tmp_path / "audit_tse.jsonl").read_text().splitlines()
                return [(e["event"], e["detail"]) for e in map(json.loads, lines)
                        if e["run_id"] == "run-cli-timeout"]

            deadline = time.monotonic() + 10.0
            while ("abort_wiped", "researcher: Timeout") not in tse_events() \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [event for event, _ in tse_events()] == [
                "train_validated", "awaiting_data", "data_received", "abort_wiped",
            ]
            assert tse_events()[-1] == ("abort_wiped", "researcher: Timeout")


class TestDaemonLifecycle:
    def test_station_repeats_runs(self, deployment):
        for run_id in ("run-multi-1", "run-multi-2"):
            result = CliRunner().invoke(main, [
                "submit", str(_draft(deployment, run_id)),
                "--anchor-key", str(deployment["anchor_dir"] / "anchor_private.pem"),
                "--out", str(deployment["tmp_path"] / f"out_{run_id}"),
                "--timeout", "30",
            ])
            assert result.exit_code == 0, result.output

    def test_sigterm_wipes_active_run_before_exit(self, deployment):
        # park a run at the TSE (dispatch only, no data), then terminate it
        from phtlink.manifest import manifest_from_dict
        from phtlink.cli import _load_signing_keys, _manifest_from_draft
        from phtlink.manifest import sign_manifest
        from phtlink.wire import TrainDispatch, encode

        draft_path = _draft(deployment, "run-sigterm")
        doc = json.loads(draft_path.read_text())
        anchor = _load_signing_keys(deployment["anchor_dir"] / "anchor_private.pem")
        manifest = sign_manifest(
            _manifest_from_draft(doc, deployment["tmp_path"]), anchor
        )
        dispatch = TrainDispatch(
            manifest.run_id, 1, "researcher", manifest,
            tuple(sorted({**deployment["endpoints"],
                          "researcher": "127.0.0.1:9"}.items())),
        )
        host, port = deployment["endpoints"]["TSE"].rsplit(":", 1)
        with socket.create_connection((host, int(port))) as conn:
            conn.sendall(encode(dispatch))
        audit_path = deployment["tmp_path"] / "audit_tse.jsonl"
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if audit_path.exists() and "awaiting_data" in audit_path.read_text():
                break
            time.sleep(0.05)

        tse_proc = deployment["procs"][2]
        tse_proc.send_signal(signal.SIGTERM)
        tse_proc.wait(timeout=10)
        audit = (deployment["tmp_path"] / "audit_tse.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in audit]
        assert any(e["event"] == "awaiting_data" for e in events)
        assert any(
            e["event"] == "wiped" and e["detail"] == "terminated" for e in events
        )


def _proc_status(pid: int, key: str) -> int:
    """The first number on the ``key:`` line of /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(f"{key}:"):
            return int(line.split()[1])
    raise AssertionError(f"no {key}: line for pid {pid}")


def _threads(pid: int) -> int:
    return _proc_status(pid, "Threads")


class TestDaemonSoak:
    """Many runs against one set of long-lived daemons: completed runs,
    manifests the TSE refuses, a run station B refuses, and a run whose
    station B is SIGKILLed mid-run and restarted. Every broken run is wiped
    at the TSE, the next run completes, and at the end the TSE holds no more
    threads than after its first run, and at most RSS_GROWTH_KB more
    resident memory."""

    TSE_TIMEOUT_S = 2.0
    # growth over the whole plan measured about 0.2 MB (2-core VM, Python 3.11)
    RSS_GROWTH_KB = 4 * 1024
    # manifests every party, the TSE included, refuses at dispatch
    REFUSED = {
        "expired": {"expiry": "2000-01-01T00:00:00Z"},
        "foreign_anchor": {"anchor": "a"},  # signed by a key no station trusts
    }
    # a manifest the TSE accepts and B refuses: B does not release "age"
    B_REFUSES = {"data_requests": [
        {"station_id": "A", "variables": ["age"]},
        {"station_id": "B", "variables": ["income", "age"]},
    ]}

    @pytest.fixture
    def soak(self, tmp_path):
        with _deploy(tmp_path, tse_timeout_s=self.TSE_TIMEOUT_S) as deploy:
            yield deploy

    def submit(self, deploy, run_id, anchor="researcher", **overrides):
        return CliRunner().invoke(main, [
            "submit", str(_draft(deploy, run_id, **overrides)),
            "--anchor-key", str(deploy["tmp_path"] / "keys" / anchor / "anchor_private.pem"),
            "--out", str(deploy["tmp_path"] / f"out_{run_id}"), "--timeout", "20",
        ])

    def tse_events(self, deploy, run_id):
        lines = (deploy["tmp_path"] / "audit_tse.jsonl").read_text().splitlines()
        return [e for e in map(json.loads, lines) if e["run_id"] == run_id]

    def wait_for(self, predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)
        return True

    def kill_b_mid_run(self, deploy, run_id):
        """Freeze B, start a run, SIGKILL B once the TSE awaits data, let
        the TSE's deadline end the run, then start a fresh B."""
        b_proc = deploy["b_proc"]
        b_proc.send_signal(signal.SIGSTOP)
        submit = subprocess.Popen(
            [sys.executable, "-m", "phtlink.cli", "submit", str(_draft(deploy, run_id)),
             "--anchor-key", str(deploy["anchor_dir"] / "anchor_private.pem"),
             "--out", str(deploy["tmp_path"] / f"out_{run_id}"), "--timeout", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            cwd=deploy["tmp_path"], env=_child_env(),
        )
        try:
            assert self.wait_for(lambda: any(
                e["event"] == "awaiting_data" for e in self.tse_events(deploy, run_id)
            )), "the run never reached the TSE"
            b_proc.kill()
            b_proc.wait(timeout=5)
            output = submit.communicate(timeout=20)[0].decode()
        finally:
            if submit.poll() is None:
                submit.kill()
                submit.communicate()
        assert submit.returncode == 1 and "aborted: Timeout" in output, output
        deploy["endpoints"]["B"] = deploy["spawn"]("station", deploy["configs"]["B"])
        deploy["b_proc"] = deploy["procs"][-1]

    def test_daemons_survive_broken_runs(self, soak):
        tse_pid = soak["procs"][2].pid
        soak["b_proc"] = soak["procs"][1]
        plan = [
            "ok", "expired", "ok", "foreign_anchor", "ok", "kill_b", "ok", "b_refuses",
            "expired", "ok", "kill_b", "ok", "foreign_anchor", "ok", "b_refuses", "ok",
        ]
        baseline = rss_baseline = None
        for n, kind in enumerate(plan):
            run_id = f"run-soak-{n:02d}-{kind}"
            if kind == "kill_b":
                self.kill_b_mid_run(soak, run_id)
            else:
                overrides = self.B_REFUSES if kind == "b_refuses" else self.REFUSED.get(kind, {})
                result = self.submit(soak, run_id, **overrides)
                assert result.exit_code == (0 if kind == "ok" else 1), (run_id, result.output)
            if kind == "ok":
                events = [e["event"] for e in self.tse_events(soak, run_id)]
                assert "result_returned" in events and "abort_wiped" not in events, events
            elif kind == "b_refuses":
                assert "aborted: UnauthorizedVariable" in result.output, result.output
                # B's Abort can reach the TSE before the TSE's own dispatch
                # and be dropped; the researcher's cancel then wipes it
                assert self.wait_for(lambda: [
                    e["detail"] for e in self.tse_events(soak, run_id)
                    if e["event"] in ("abort_wiped", "wiped")
                ] in (["B: UnauthorizedVariable"], ["researcher: UnauthorizedVariable"])), (
                    run_id, self.tse_events(soak, run_id))
            else:
                # the researcher may hear B's refusal before the TSE has
                # refused the dispatch it was sent first
                assert self.wait_for(lambda: any(
                    e["event"] == "abort_wiped" for e in self.tse_events(soak, run_id)
                )), (run_id, self.tse_events(soak, run_id))
            if baseline is None:
                # the TSE's reader of the researcher's connection ends a
                # moment after the run: take the lowest count over a short wait
                counts = []
                for _ in range(25):
                    counts.append(_threads(tse_pid))
                    time.sleep(0.02)
                baseline = min(counts)
                rss_baseline = _proc_status(tse_pid, "VmRSS")
        assert self.wait_for(lambda: _threads(tse_pid) <= baseline, timeout=5.0), (
            f"TSE threads grew from {baseline} to {_threads(tse_pid)}"
        )
        rss = _proc_status(tse_pid, "VmRSS")
        assert rss - rss_baseline <= self.RSS_GROWTH_KB, (rss_baseline, rss)


class TestLogging:
    def test_pht_log_env_sets_verbosity(self, tmp_path, monkeypatch):
        import logging

        monkeypatch.setenv("PHT_LOG", "DEBUG")
        logging.root.handlers.clear()
        result = run_cli("keygen", tmp_path / "keys")
        assert result.exit_code == 0
        assert logging.root.level == logging.DEBUG
        logging.root.handlers.clear()
        logging.root.setLevel(logging.WARNING)


# a JSON file the commands must refuse: its top level is not an object, or
# it is not JSON at all
NOT_AN_OBJECT = ["[1, 2]", '["x"]', "null", "{not json"]


class TestJsonTopLevel:
    """Each command that reads a JSON file exits 2 with its named reason when
    the file's top level is not an object, instead of a traceback."""

    @pytest.mark.parametrize("text", NOT_AN_OBJECT)
    @pytest.mark.parametrize("command, reason", [
        (["synth"], "InvalidSpec"),
        (["report"], "BadConfig"),
        (["submit", "--timeout", "1"], "BadDraft"),
        (["station", "--config"], "BadConfig"),
        (["tse", "--config"], "BadConfig"),
    ])
    def test_refused_with_named_reason(self, tmp_path, text, command, reason):
        path = tmp_path / "doc.json"
        path.write_text(text)
        args = [*command, str(path)]
        if command[0] == "submit":
            (tmp_path / "anchor.pem").write_text("unused")
            args += ["--anchor-key", str(tmp_path / "anchor.pem"), "--out", str(tmp_path / "out")]
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2, result.output
        assert f"error: {reason}" in result.output
        assert not (tmp_path / "out").exists()


#: run reports as earlier versions of `pht submit` wrote them, with no null
#: counts and each Ack as "sender:status", then one listing Acks by sender
#: as `pht submit` writes it now, and what `pht report` prints for each
PRINTED_REPORTS = [
    ('{"audit_summary":{"acks":["B:OK","TSE:OK","A:OK","A:OK","B:OK"],"cells_suppressed":0,'
     '"linkage_class_counts":{"match":120,"non_match":0,"possible":0},"records_linked":120,'
     '"timings":{"total_s":1.2344}},"outcome":"Completed","reason":null,'
     '"result_files":["out/result.json","out/binned.csv"],"run_id":"run-1"}',
     "run      run-1\noutcome  Completed\nacks     B:OK, TSE:OK, A:OK, A:OK, B:OK\n"
     "linked   120 records\nsuppressed cells  0\ntotal    1.234s\n"
     "file     out/result.json\nfile     out/binned.csv\n"),
    ('{"audit_summary":{"acks":["B:OK"],"timings":{"total_s":0.5}},"outcome":"Aborted",'
     '"reason":"Expired","result_files":[],"run_id":"run-2"}',
     "run      run-2\noutcome  Aborted (Expired)\nacks     B:OK\ntotal    0.500s\n"),
    ('{"audit_summary":{"acks":["TSE","A"],"cells_suppressed":null,"linkage_class_counts":null,'
     '"records_linked":null,"timings":{"total_s":0.25}},"outcome":"Aborted",'
     '"reason":"MissingPeerKey(A)","result_files":[],"run_id":"run-3"}',
     "run      run-3\noutcome  Aborted (MissingPeerKey(A))\nacks     TSE, A\ntotal    0.250s\n"),
]


class TestReport:
    @pytest.mark.parametrize("doc, key", [
        ({}, "run_id"),
        ({"run_id": "run-1", "outcome": "Completed", "audit_summary": []}, "audit_summary"),
        ({**json.loads(PRINTED_REPORTS[1][0]), "extra": 1}, "extra"),
        ({**json.loads(PRINTED_REPORTS[1][0]), "result_files": "out/result.json"},
         "result_files"),
        ({"run_id": "run-1", "outcome": "Completed",
          "audit_summary": {"acks": [], "timings": {}, "records_linkd": 3}}, "records_linkd"),
        ({"run_id": "run-1", "outcome": "Completed",
          "audit_summary": {"acks": [], "timings": {"total_s": "1"}}}, "timings"),
        ({"run_id": "run-1", "outcome": "Completed",
          "audit_summary": {"acks": [7], "timings": {}}}, "acks"),
    ])
    def test_missing_or_ill_typed_key_is_bad_config(self, tmp_path, doc, key):
        path = tmp_path / "run_report.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2, result.output
        assert "error: BadConfig" in result.output and repr(key) in result.output

    @pytest.mark.parametrize("text, printed", PRINTED_REPORTS)
    def test_earlier_reports_print_as_before(self, tmp_path, text, printed):
        path = tmp_path / "run_report.json"
        path.write_text(text + "\n")
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output == printed

    def test_non_finite_number_is_bad_config(self, tmp_path):
        path = tmp_path / "run_report.json"
        path.write_text(PRINTED_REPORTS[1][0].replace("0.5", "NaN"))
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 2, result.output
        assert "error: BadConfig" in result.output and "non-finite" in result.output


class TestDaemonConfigErrors:
    def test_missing_anchor_key_refuses_to_start(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "station_id": "A", "role": "data", "listen": "127.0.0.1:0",
            "dataset_csv": "nope.csv",
            "trust_anchor_verify_key": "missing.pem",
            "encryption_private_key": "missing.pem",
            "signing_private_key": "missing.pem",
        }))
        result = CliRunner().invoke(main, ["station", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "BadConfig" in result.output

    def test_busy_port_is_bind_error(self, tmp_path):
        blocker = socket.create_server(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        runner = CliRunner()
        assert runner.invoke(main, ["keygen", str(tmp_path / "k")]).exit_code == 0
        cfg = tmp_path / "tse.json"
        cfg.write_text(json.dumps({
            "station_id": "TSE", "role": "tse", "listen": f"127.0.0.1:{port}",
            "trust_anchor_verify_key": "k/anchor_verify.pem",
            "encryption_private_key": "k/enc_private.pem",
        }))
        result = runner.invoke(main, ["tse", "--config", str(cfg)])
        blocker.close()
        assert result.exit_code == 2
        assert "BindError" in result.output


    def test_encrypted_private_key_is_bad_config(self, tmp_path):
        from cryptography.hazmat.primitives import serialization

        runner = CliRunner()
        assert runner.invoke(main, ["keygen", str(tmp_path / "k")]).exit_code == 0
        key_path = tmp_path / "k" / "enc_private.pem"
        key = serialization.load_pem_private_key(key_path.read_bytes(), password=None)
        key_path.write_bytes(key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(b"secret"),
        ))
        # a busy port: a TSE that got past its key would fail to bind
        blocker = socket.create_server(("127.0.0.1", 0))
        cfg = tmp_path / "tse.json"
        cfg.write_text(json.dumps({
            "station_id": "TSE", "role": "tse",
            "listen": f"127.0.0.1:{blocker.getsockname()[1]}",
            "trust_anchor_verify_key": "k/anchor_verify.pem",
            "encryption_private_key": "k/enc_private.pem",
        }))
        with blocker:
            result = runner.invoke(main, ["tse", "--config", str(cfg)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2, result.output
        assert "error: BadConfig" in result.output and "encrypted" in result.output

    @pytest.mark.parametrize("command, changes, key", [
        ("station", {"listen": 7101}, "listen"),
        ("station", {"allow_variables": "age"}, "allow_variables"),
        ("station", {"peer_encryption_public_keys": {"B": 1}}, "peer_encryption_public_keys"),
        ("station", {"audit": "a.jsonl"}, "audit"),
        ("tse", {"audit_lg": "a.jsonl"}, "audit_lg"),
        ("tse", {"timeout": 5}, "timeout"),
        ("tse", {"timeout_s": "5"}, "timeout_s"),
        ("tse", {"endpoints": [["A", "127.0.0.1:1"]]}, "endpoints"),
    ])
    def test_unknown_or_ill_typed_key_is_bad_config_naming_it(self, tmp_path, command,
                                                              changes, key):
        doc = {
            "station_id": "X", "role": "data" if command == "station" else "tse",
            "listen": "127.0.0.1:0",
            "trust_anchor_verify_key": "k/anchor_verify.pem",
            "encryption_private_key": "k/enc_private.pem",
        }
        if command == "station":
            doc.update(dataset_csv="a.csv", signing_private_key="k/sign_private.pem")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, **changes}))
        result = CliRunner().invoke(main, [command, "--config", str(cfg)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2, result.output
        assert "error: BadConfig" in result.output and repr(key) in result.output


class TestStationCsvWithoutQids:
    def test_csv_without_gender_refuses_to_start(self, tmp_path):
        runner = CliRunner()
        assert runner.invoke(main, ["keygen", str(tmp_path / "k")]).exit_code == 0
        (tmp_path / "a.csv").write_text(
            "zip_code,house_number,date_of_birth,age\n6211AB,12,1960-03-15,66\n"
        )
        (tmp_path / "a.descriptor.json").write_text(json.dumps({
            "station_id": "A", "extracted_at": "2026-01-01T00:00:00Z", "row_count": 1,
            "schema": [["age", "numeric"]],
        }))
        # a busy port: a station that got past its dataset would fail to bind
        blocker = socket.create_server(("127.0.0.1", 0))
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps({
            "station_id": "A", "role": "data",
            "listen": f"127.0.0.1:{blocker.getsockname()[1]}",
            "dataset_csv": "a.csv",
            "trust_anchor_verify_key": "k/anchor_verify.pem",
            "encryption_private_key": "k/enc_private.pem",
            "signing_private_key": "k/sign_private.pem",
        }))
        with blocker:
            result = runner.invoke(main, ["station", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "error: BadConfig" in result.output and "gender" in result.output


class TestStationDatasetReadStrictly:
    """A sidecar with an unknown or ill-typed key or of another station than
    the config's, and a CSV row with the wrong cell count or a non-finite
    number, stop `pht station` at start-up with BadConfig naming what is
    wrong, never a traceback."""

    SIDECAR = {"station_id": "A", "extracted_at": "2026-01-01T00:00:00Z", "row_count": 1,
               "schema": [["age", "numeric"]]}
    CSV = "zip_code,house_number,gender,date_of_birth,age\n"

    @pytest.mark.parametrize("row, sidecar, named", [
        ("6211AB,12,F,1960-03-15,66", {**SIDECAR, "sorce": "registry"}, "'sorce'"),
        ("6211AB,12,F,1960-03-15,66", {**SIDECAR, "station_id": 5}, "'station_id'"),
        ("6211AB,12,F,1960-03-15,66", {**SIDECAR, "row_count": 1.0}, "'row_count'"),
        ("6211AB,12,F,1960-03-15,66", [1, 2], "Sidecar must be a JSON object"),
        ("6211AB,12,F,1960-03-15,66", {**SIDECAR, "station_id": "B"},
         "dataset of station 'B', not of the configured station 'A'"),
        ("6211AB,12,F,1960-03-15", SIDECAR, "line 2"),
        ("6211AB,12,F,1960-03-15,66,67", SIDECAR, "line 2"),
        ("6211AB,12,F,1960-03-15,nan", SIDECAR, "line 2"),
        ("6211AB,12,F,1960-03-15,1e999", SIDECAR, "line 2"),
        ("6211AB,12,F,1960-03-15," + "9" * 200_000, SIDECAR, "line 2: field larger"),
    ], ids=["unknown_key", "station_id_int", "row_count_float", "top_level_array",
            "station_id_of_another_station",
            "short_row", "long_row", "nan_cell", "overflowing_cell", "cell_past_csv_limit"])
    def test_refuses_to_start(self, tmp_path, row, sidecar, named):
        runner = CliRunner()
        assert runner.invoke(main, ["keygen", str(tmp_path / "k")]).exit_code == 0
        (tmp_path / "a.csv").write_text(self.CSV + row + "\n")
        (tmp_path / "a.descriptor.json").write_text(json.dumps(sidecar))
        # a busy port: a station that got past its dataset would fail to bind
        blocker = socket.create_server(("127.0.0.1", 0))
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps({
            "station_id": "A", "role": "data",
            "listen": f"127.0.0.1:{blocker.getsockname()[1]}",
            "dataset_csv": "a.csv",
            "trust_anchor_verify_key": "k/anchor_verify.pem",
            "encryption_private_key": "k/enc_private.pem",
            "signing_private_key": "k/sign_private.pem",
        }))
        with blocker:
            result = runner.invoke(main, ["station", "--config", str(cfg)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2, result.output
        assert "error: BadConfig" in result.output and named in result.output
