import csv
import subprocess
import sys

import numpy as np
import pytest

from agentauth.cli import EXPERIMENT_DEFAULTS, LENGTH_SWEEP_GRID, main
from agentauth.engine import derive_key, run_interaction, save_transcript
from agentauth.models import PdtAgent, generate_random_pdt, load_pdt, node_count, save_pdt


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestGenModels:
    @pytest.mark.parametrize("experiment", ["clf", "probe"])
    def test_dimensions_match_experiment(self, tmp_path, experiment):
        out = tmp_path / experiment
        assert main([
            "gen-models", "--experiment", experiment,
            "--out", str(out), "--seed", "5",
        ]) == 0
        cfg = EXPERIMENT_DEFAULTS[experiment]
        for name in ("server.json", "user.json"):
            model = load_pdt(out / name)
            assert model.n_actions == cfg["n"]
            assert model.depth == cfg["k"]
            assert model.nodes.shape[0] == node_count(cfg["n"], cfg["k"])

    def test_dimension_overrides(self, tmp_path):
        out = tmp_path / "m"
        main([
            "gen-models", "--experiment", "hypo", "--out", str(out),
            "--seed", "5", "--k", "2",
        ])
        server = load_pdt(out / "server.json")
        user = load_pdt(out / "user.json")
        assert server.n_actions == 10 and server.depth == 2
        assert server.temperature == 1.0
        assert user.temperature == 0.1

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen-models", "--experiment", "probe", "--out", str(out), "--seed", "9"])
        assert (a / "user.json").read_bytes() == (b / "user.json").read_bytes()


class TestDeriveKey:
    def test_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        model = generate_random_pdt(3, 2, 0.5, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        history = run_interaction(PdtAgent(server), PdtAgent(model), 12, rng, rng)
        model_path = tmp_path / "model.json"
        transcript_path = tmp_path / "t.jsonl"
        save_pdt(model, model_path)
        save_transcript(history, transcript_path)
        assert main([
            "derive-key", "--model", str(model_path),
            "--transcript", str(transcript_path),
        ]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == derive_key(history, model).hex()


class TestEvalAuth:
    def _run(self, tmp_path, name):
        out = tmp_path / name
        main([
            "eval-auth", "--out", str(out), "--seed", "3",
            "--n", "3", "--k", "1", "--l", "10",
            "--mc-samples", "100", "--trials", "5",
        ])
        return out

    def test_csv_contents(self, tmp_path):
        out = self._run(tmp_path, "auth.csv")
        rows = read_rows(out)
        assert len(rows) == 4
        assert sorted(r["metric"] for r in rows) == ["legit", "mle", "random", "replay"]
        assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)
        assert all(r["seed"] == "3" for r in rows)

    def test_rerun_byte_identical(self, tmp_path):
        a = self._run(tmp_path, "a.csv")
        b = self._run(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestLengthSweep:
    def test_grid_and_determinism(self, tmp_path):
        def run(name):
            out = tmp_path / name
            main([
                "length-sweep", "--out", str(out), "--seed", "4",
                "--n", "3", "--k", "1", "--grid", "5", "10",
                "--mc-samples", "100", "--trials", "5",
            ])
            return out

        a = run("a.csv")
        rows = read_rows(a)
        assert len(rows) == 8
        assert sorted(set(r["l"] for r in rows)) == ["10", "5"]
        assert a.read_bytes() == run("b.csv").read_bytes()

    def test_default_grid(self):
        assert LENGTH_SWEEP_GRID == [10, 25, 50, 100, 200]


class TestProbeCommands:
    def test_train_then_eval(self, tmp_path):
        policy_path = tmp_path / "policy.json"
        log_path = tmp_path / "log.csv"
        assert main([
            "train-probe", "--out", str(policy_path), "--log", str(log_path),
            "--seed", "7", "--n", "3", "--k", "1", "--l", "5",
            "--steps", "2500", "--population", "3",
        ]) == 0
        assert policy_path.exists()
        log_rows = read_rows(log_path)
        assert len(log_rows) >= 1

        curves = tmp_path / "curves.csv"
        replay = tmp_path / "replay.csv"
        assert main([
            "eval-probe", "--policy", str(policy_path),
            "--out", str(curves), "--replay-out", str(replay),
            "--seed", "7", "--n", "3", "--k", "1", "--l", "5",
            "--mc-samples", "50", "--trials", "3",
        ]) == 0
        rows = read_rows(curves)
        assert len(rows) == 3 * 5
        assert sorted(set(r["series"] for r in rows)) == [
            "trained-eps0.25", "trained-greedy", "uniform",
        ]
        assert all(0.0 < float(r["mean_p"]) <= 1.0 for r in rows)
        replay_rows = read_rows(replay)
        assert len(replay_rows) == 3
        assert all(0.0 <= float(r["reject_rate"]) <= 1.0 for r in replay_rows)


class TestServeClient:
    @pytest.fixture()
    def setup(self, tmp_path):
        rng = np.random.default_rng(8)
        legit = generate_random_pdt(3, 2, 0.3, rng)
        server_model = generate_random_pdt(3, 2, 1.0, rng)
        registry = tmp_path / "registry"
        registry.mkdir()
        save_pdt(legit, registry / "alice.json")
        server_path = tmp_path / "server.json"
        save_pdt(server_model, server_path)
        impostor_path = tmp_path / "impostor.json"
        save_pdt(generate_random_pdt(3, 2, 0.3, rng), impostor_path)

        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "agentauth.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--registry", str(registry),
                "--server-model", str(server_path),
                "--l", "60", "--seed", "12",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        assert line.startswith("listening on")
        port = line.strip().rsplit(":", 1)[1]
        yield registry, port
        proc.terminate()
        proc.wait(timeout=10)

    def test_serve_refuses_l_above_client_limit(self, tmp_path):
        rng = np.random.default_rng(9)
        registry = tmp_path / "registry"
        registry.mkdir()
        save_pdt(generate_random_pdt(3, 2, 0.3, rng), registry / "alice.json")
        save_pdt(generate_random_pdt(3, 2, 1.0, rng), tmp_path / "server.json")
        proc = subprocess.run(
            [
                sys.executable, "-u", "-m", "agentauth.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--registry", str(registry),
                "--server-model", str(tmp_path / "server.json"),
                "--l", "20000",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "listening on" not in proc.stdout
        assert "l must be" in proc.stderr

    def test_accept_and_reject_exit_codes(self, setup, tmp_path):
        registry, port = setup
        code = main([
            "client", "--connect", f"127.0.0.1:{port}", "--user", "alice",
            "--model", str(registry / "alice.json"), "--seed", "30",
        ])
        assert code == 0
        code = main([
            "client", "--connect", f"127.0.0.1:{port}", "--user", "alice",
            "--model", str(tmp_path / "impostor.json"), "--seed", "31",
        ])
        assert code == 2
