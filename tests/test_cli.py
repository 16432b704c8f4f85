"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).parent.parent


def _env() -> dict:
    """This process's environment with the source tree on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return env


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.n == 602_325

    def test_plan_requires_targets(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--eps1", "0.5"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.epochs == 4
        assert args.budget_epochs is None  # resolved to epochs - 1 at run time
        assert args.backend == "plain"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.max_pending == 64
        assert args.budget_epochs == 4
        assert args.state_db is None
        assert args.fold_backend == "serial"


class TestCommands:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--eps", "0.25", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "BBGN19" in out

    def test_fig3_runs_small(self, capsys):
        assert main([
            "fig3", "--scale", "0.01", "--repeats", "1", "--eps", "0.8",
        ]) == 0
        out = capsys.readouterr().out
        assert "SOLH" in out and "IPUMS-like" in out

    def test_table2_runs_small(self, capsys):
        assert main([
            "table2", "--scale", "0.02", "--repeats", "1", "--eps", "0.6",
        ]) == 0
        out = capsys.readouterr().out
        assert "RAP_R" in out

    def test_fig4_runs_small(self, capsys):
        assert main([
            "fig4", "--scale", "0.05", "--eps", "1.0",
            "--methods", "SOLH", "--k", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "SOLH" in out

    def test_stream_runs_small(self, capsys):
        assert main([
            "stream", "--epochs", "3", "--epoch-size", "200",
            "--flush-size", "100", "--d", "8", "--budget-epochs", "2",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "lifetime budget" in out
        assert "budget refusals" in out  # epoch 2's flushes are rejected
        assert "final estimates over 400 released reports" in out

    def test_stream_sharded_prints_transport_summary(self, capsys):
        assert main([
            "stream", "--epochs", "2", "--epoch-size", "200",
            "--flush-size", "100", "--d", "8", "--budget-epochs", "2",
            "--seed", "7", "--shards", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "transport (" in out  # bytes_moved / shm peak summary

    def test_invalid_eps_exits_cleanly(self, capsys):
        # Facade validation surfaces as exit code 2, not a traceback.
        assert main(["fig3", "--scale", "0.01", "--eps", "-0.5"]) == 2
        assert "eps" in capsys.readouterr().err

    def test_unbounded_fold_timeout_exits_cleanly(self, capsys):
        # inf passes a bare "> 0" check but overflows every fold's wait.
        assert main([
            "stream", "--epochs", "2", "--epoch-size", "200",
            "--flush-size", "100", "--d", "8", "--seed", "7",
            "--shards", "2", "--fold-backend", "process",
            "--fold-timeout", "inf",
        ]) == 2
        assert "fold_timeout" in capsys.readouterr().err

    def test_plan_runs(self, capsys):
        assert main([
            "plan", "--eps1", "0.5", "--eps2", "2.0", "--eps3", "5.0",
            "--n", "100000", "--d", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "mechanism" in out and "n_r" in out

    def test_infeasible_plan_exits_cleanly(self, capsys):
        assert main([
            "plan", "--eps1", "0.01", "--eps2", "0.02", "--eps3", "0.03",
            "--n", "10", "--d", "4",
        ]) == 2
        assert "no PEOS configuration meets" in capsys.readouterr().err


#: one bad value per deployment flag, and the field the library names
BAD_DEPLOYMENT_VALUES = [
    (["--flush-size", "0"], "flush_size"),
    (["--epoch-size", "0"], "epoch_size"),
    (["--budget-epochs", "0"], "admitted_epochs"),
    (["--shards", "0"], "shards"),
    (["--fold-retries", "-1"], "fold_retries"),
]


class TestDeploymentFlags:
    """``stream`` and ``serve`` share one flag group and one validator."""

    def test_shared_flags_share_defaults(self):
        stream = vars(build_parser().parse_args(["stream"]))
        serve = vars(build_parser().parse_args(["serve"]))
        shared = (stream.keys() & serve.keys()) - {"command", "func"}
        assert len(shared) == 21
        assert {k: stream[k] for k in shared if k != "budget_epochs"} == {
            k: serve[k] for k in shared if k != "budget_epochs"
        }

    @pytest.mark.parametrize("flags,field", BAD_DEPLOYMENT_VALUES)
    def test_stream_names_the_bad_field(self, capsys, flags, field):
        assert main(["stream", "--d", "8", *flags]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", BAD_DEPLOYMENT_VALUES)
    def test_serve_names_the_bad_field(self, flags, field):
        # A subprocess with a timeout: a value nothing checks would serve
        # forever.  A bad --state-db cannot guard this, because serve
        # opens the store before it plans.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--d", "8", *flags],
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60,
        )
        assert completed.returncode == 2, completed.stderr
        assert field in completed.stderr


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """``python -m repro`` is identical to ``python -m repro.cli``."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "table1", "--eps", "0.25"],
            capture_output=True, text=True, env=_env(), cwd=ROOT,
        )
        assert completed.returncode == 0
        assert "BBGN19" in completed.stdout


class TestServeCommand:
    def test_invalid_network_knobs_exit_cleanly(self, capsys, tmp_path):
        assert main(["serve", "--max-pending", "0"]) == 2
        assert "max_pending" in capsys.readouterr().err
        assert main(["serve", "--port", "70000"]) == 2
        assert "port" in capsys.readouterr().err
        assert main(["serve", "--flush-size", "0"]) == 2
        assert "flush_size" in capsys.readouterr().err
        # inf passes a bare "> 0" check but cannot fill a Retry-After.
        # The bad --state-db makes a missed check exit, not serve forever.
        bad = str(tmp_path / "missing" / "state.db")
        assert main([
            "serve", "--port", "0", "--retry-after", "inf",
            "--state-db", bad,
        ]) == 2
        assert "retry_after_s" in capsys.readouterr().err

    def test_bad_state_db_parent_exits_cleanly(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "state.db")
        assert main(["serve", "--port", "0", "--state-db", bad]) == 2
        assert "state_db" in capsys.readouterr().err

    def test_serve_sigterm_is_a_clean_exit(self, tmp_path):
        """Drive a separate ``repro serve`` process over HTTP, SIGTERM it.

        Two shards folded by worker processes over shm, a sqlite journal
        and a two-slot ingest queue.  The estimates it serves equal an
        in-process replay of the accepted batches in ``submit_seq``
        order, bit for bit; SIGTERM drains and exits 0; and none of its
        shm segments outlives it.
        """
        import asyncio
        import re
        import signal

        from repro.persistence.records import config_from_dict
        from repro.server import ServerClient, fetch_all_estimates
        from repro.service import ShardedPipeline
        from repro.service.shm import SEGMENT_PREFIX, leaked_segments

        d, seed, epochs = 8, 7, 2
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--d", str(d), "--flush-size", "100", "--epoch-size", "300",
             "--budget-epochs", str(epochs), "--seed", str(seed),
             "--shards", "2", "--fold-backend", "process",
             "--max-pending", "2",
             "--state-db", str(tmp_path / "serve.db")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_env(), cwd=ROOT, start_new_session=True,
        )

        def server_segments():
            prefix = f"{SEGMENT_PREFIX}_{process.pid}_"
            return [name for name in leaked_segments()
                    if name.startswith(prefix)]

        async def post(client, target, payload=None):
            # A 429 from the two-slot queue is retried, never dropped:
            # backpressure sheds load, not data.  Many short retries ride
            # out the fold pool's first spawn on a slow machine.
            return await client.request_with_retry(
                "POST", target, payload, retry_statuses=(429,),
                max_attempts=64, max_delay_s=0.25,
            )

        async def drive(port):
            clients = [ServerClient("127.0.0.1", port) for __ in range(2)]
            try:
                deployment = (await clients[0].config())["deployment"]
                rng = np.random.default_rng(99)
                recorded = []  # per epoch: [(submit_seq, values), ...]

                async def upload(client, batches):
                    accepted = []
                    for values in batches:
                        response = await post(
                            client, "/api/reports",
                            {"values": [int(v) for v in values]},
                        )
                        assert response.status == 202, response.body
                        assert response.body["accepted"] == len(values)
                        accepted.append((response.body["submit_seq"], values))
                    return accepted

                for __ in range(epochs):
                    shares = [
                        [rng.integers(0, d, size=75) for __ in range(2)]
                        for __ in clients
                    ]
                    accepted = await asyncio.gather(*(
                        upload(client, batches)
                        for client, batches in zip(clients, shares)
                    ))
                    recorded.append(sorted(
                        (pair for part in accepted for pair in part),
                        key=lambda pair: pair[0],
                    ))
                    response = await post(clients[0], "/api/epochs")
                    assert response.status == 200, response.body
                # Two clients upload two 75-report batches per epoch.
                health = await clients[0].health()
                assert health["accepted_reports"] == epochs * 2 * 2 * 75
                items = await fetch_all_estimates(clients[1], limit=5)
            finally:
                for client in clients:
                    await client.close()
            return deployment, recorded, items

        try:
            banner = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            # A hung fold or epoch close fails the test instead of
            # stalling it; the finally below then kills the server.
            deployment, recorded, items = asyncio.run(asyncio.wait_for(
                drive(int(match.group(1))), timeout=120,
            ))
            if os.path.isdir("/dev/shm"):
                assert server_segments(), "the server folded without shm"
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
            assert process.returncode == 0, err
            assert "shutdown complete" in out
        finally:
            if process.poll() is None:
                process.terminate()  # a clean stop unlinks the segments
                try:
                    process.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    # A stuck server's fold workers hold its pipes open.
                    os.killpg(process.pid, signal.SIGKILL)
                    process.communicate()
        assert server_segments() == []

        assert len(items) == epochs * d
        served = {}
        for item in sorted(items, key=lambda i: (i["epoch"], i["index"])):
            served.setdefault(item["epoch"], []).append(item["estimate"])
        with ShardedPipeline(
            config_from_dict(deployment), np.random.default_rng(seed)
        ) as replay:
            for batches in recorded:
                for __, values in batches:
                    replay.submit(values)
                replay.end_epoch()
            replayed = {
                int(epoch): [float(x) for x in estimates]
                for epoch, estimates in replay.store.epoch_log()
            }
        assert served == replayed


class TestStreamPersistence:
    STREAM_ARGS = [
        "stream", "--epochs", "3", "--epoch-size", "200",
        "--flush-size", "100", "--d", "8", "--budget-epochs", "2",
        "--seed", "7",
    ]

    def test_resume_requires_state_db(self, capsys):
        assert main(self.STREAM_ARGS + ["--resume"]) == 2
        assert "--state-db" in capsys.readouterr().err

    def test_bad_state_db_parent_exits_cleanly(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "state.db")
        assert main(self.STREAM_ARGS + ["--state-db", bad]) == 2
        assert "state_db" in capsys.readouterr().err

    def test_stored_run_refuses_a_fresh_start(self, capsys, tmp_path):
        db = str(tmp_path / "run.db")
        assert main(self.STREAM_ARGS + ["--state-db", db]) == 0
        capsys.readouterr()
        assert main(self.STREAM_ARGS + ["--state-db", db]) == 2
        assert "already holds a run" in capsys.readouterr().err
        assert main([
            "serve", "--port", "0", "--d", "8", "--flush-size", "100",
            "--epoch-size", "200", "--state-db", db,
        ]) == 2
        assert "already holds a run" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--epoch-size", "0"], "epoch_size"),
        (["--budget-epochs", "-3"], "admitted_epochs"),
    ])
    def test_resume_names_bad_sizes(self, capsys, tmp_path, flags, field):
        # The stored run ignores these flags, but they still size the
        # synthetic workload and the printed admitted-flush count.
        db = str(tmp_path / "run.db")
        assert main(self.STREAM_ARGS + ["--state-db", db]) == 0
        capsys.readouterr()
        assert main(
            self.STREAM_ARGS + ["--state-db", db, "--resume", *flags]
        ) == 2
        assert field in capsys.readouterr().err

    def test_resume_of_empty_db_exits_cleanly(self, capsys, tmp_path):
        empty = str(tmp_path / "state.db")
        assert main(
            self.STREAM_ARGS + ["--state-db", empty, "--resume"]
        ) == 2
        assert "no run" in capsys.readouterr().err

    def test_estimates_out_round_trips(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "estimates.json"
        assert main(
            self.STREAM_ARGS + ["--estimates-out", str(out_path)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert len(payload["estimates"]) == 8
        assert payload["epochs"] == 3
        assert payload["n_rejected"] > 0

    def test_crash_and_resume_matches_clean_run(self, tmp_path):
        """Kill a persisted run mid-stream (exit 3), resume, compare."""
        import json

        env = _env()
        base = [sys.executable, "-m", "repro"] + self.STREAM_ARGS
        clean_json = str(tmp_path / "clean.json")
        resumed_json = str(tmp_path / "resumed.json")
        db = str(tmp_path / "state.db")

        clean = subprocess.run(
            base + ["--estimates-out", clean_json],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert clean.returncode == 0, clean.stderr

        crashed = subprocess.run(
            base + ["--state-db", db, "--crash-after-epoch", "2"],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert crashed.returncode == 3, crashed.stderr
        assert "simulated crash" in crashed.stderr

        resumed = subprocess.run(
            base + ["--state-db", db, "--resume",
                    "--estimates-out", resumed_json],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from" in resumed.stdout

        with open(clean_json) as a, open(resumed_json) as b:
            assert json.load(a) == json.load(b)
