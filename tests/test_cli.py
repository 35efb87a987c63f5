import csv
import hashlib
import json
import socket
import subprocess
import sys

import numpy as np
import pytest

from agentauth import adv, clf, net
from agentauth.cli import (
    EXPERIMENT_DEFAULTS,
    LENGTH_SWEEP_GRID,
    METRICS,
    fit_mle_client,
    generate_models,
    main,
)
from agentauth.engine import derive_key, run_interaction, save_transcript
from agentauth.models import PdtAgent, generate_random_pdt, load_pdt, node_count, save_pdt
from agentauth.rl import ProbePolicy


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def assert_refused(argv, capsys, *needles):
    """The command exits 1 with one stderr line naming every needle."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    for needle in needles:
        assert needle in captured.err


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
            assert model.num_nodes == node_count(cfg["n"], cfg["k"])

    def test_dimension_overrides(self, tmp_path):
        out = tmp_path / "m"
        main([
            "gen-models", "--experiment", "hypo", "--out", str(out),
            "--seed", "5", "--k", "2",
        ])
        server = load_pdt(out / "server.json")
        user = load_pdt(out / "user.json")
        assert server.n_actions == 10 and server.depth == 2
        want = generate_models({**EXPERIMENT_DEFAULTS["hypo"], "k": 2}, 5)
        assert server.probs.tobytes() == want[0].probs.tobytes()
        assert user.probs.tobytes() == want[1].probs.tobytes()

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

    def test_out_of_range_action_refused(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        transcript_path = tmp_path / "t.jsonl"
        save_pdt(generate_random_pdt(3, 2, 0.5, np.random.default_rng(6)), model_path)
        transcript_path.write_text(
            '{"n": 3, "l": 1}\n{"t": 0, "s": 1, "c": 2}\n{"t": 1, "s": 2, "c": 0}\n'
        )
        assert main([
            "derive-key", "--model", str(model_path),
            "--transcript", str(transcript_path),
        ]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "outside 1..3" in captured.err

    @staticmethod
    def _refused(model_path, transcript_path, capsys, needle):
        assert_refused(
            ["derive-key", "--model", str(model_path), "--transcript", str(transcript_path)],
            capsys, needle,
        )

    def test_model_missing_field_refused(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_pdt(generate_random_pdt(3, 2, 0.5, np.random.default_rng(6)), model_path)
        header, body = model_path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        del doc["n_actions"]
        model_path.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        transcript_path = tmp_path / "t.jsonl"
        transcript_path.write_text('{"n": 3, "l": 0}\n{"t": 0, "s": 1, "c": 2}\n')
        self._refused(model_path, transcript_path, capsys, "n_actions")

    @pytest.mark.parametrize(
        "header, needle", [('{"n": "3", "l": 0}', "n_actions"), ('{"n": 3, "l": "0"}', "l='0'")]
    )
    def test_non_integer_header_refused(self, tmp_path, capsys, header, needle):
        model_path = tmp_path / "model.json"
        save_pdt(generate_random_pdt(3, 2, 0.5, np.random.default_rng(6)), model_path)
        transcript_path = tmp_path / "t.jsonl"
        transcript_path.write_text(header + '\n{"t": 0, "s": 1, "c": 2}\n')
        self._refused(model_path, transcript_path, capsys, needle)


class TestModelFileErrors:
    """serve and client report an unreadable model file as one stderr line
    and exit 1, as derive-key does, instead of a traceback."""

    @pytest.fixture()
    def server_model(self, tmp_path):
        path = tmp_path / "server.json"
        save_pdt(generate_random_pdt(3, 2, 1.0, np.random.default_rng(10)), path)
        return path

    def test_serve_registry_file_without_fields(self, tmp_path, capsys, server_model):
        registry = tmp_path / "registry"
        registry.mkdir()
        (registry / "alice.json").write_text('{"version": 2}')
        assert_refused(
            ["serve", "--listen", "127.0.0.1:0", "--registry", str(registry),
             "--server-model", str(server_model)],
            capsys, "agentauth serve:", "alice.json", "ModelFormatError",
        )

    def test_serve_missing_server_model(self, tmp_path, capsys, server_model):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_pdt(generate_random_pdt(3, 2, 0.3, np.random.default_rng(11)), registry / "alice.json")
        missing = tmp_path / "absent.json"
        assert_refused(
            ["serve", "--listen", "127.0.0.1:0", "--registry", str(registry),
             "--server-model", str(missing)],
            capsys, "agentauth serve:", str(missing), "FileNotFoundError",
        )

    def test_client_missing_model(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert_refused(
            ["client", "--connect", "127.0.0.1:1", "--user", "alice", "--model", str(missing)],
            capsys, "agentauth client:", str(missing), "FileNotFoundError",
        )


class TestExperimentInputErrors:
    """Every file an experiment command reads is reported as one stderr line
    and exit 1 when it is missing or malformed, not as a traceback."""

    SMALL = ["--n", "3", "--k", "1", "--l", "5", "--trials", "2"]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("eval-auth", []),
            ("length-sweep", []),
            ("train-probe", ["--steps", "10"]),
            ("eval-probe", ["--policy", "unused.json"]),
        ],
    )
    def test_missing_models_dir(self, tmp_path, capsys, command, extra):
        models = tmp_path / "nodir"
        assert_refused(
            [command, "--out", str(tmp_path / "out"), "--models", str(models), *extra],
            capsys, f"agentauth {command}:", str(models / "server.json"), "FileNotFoundError",
        )

    def test_malformed_models_file(self, tmp_path, capsys):
        models = tmp_path / "models"
        assert main(["gen-models", "--experiment", "probe", "--k", "1", "--out", str(models)]) == 0
        (models / "user.json").write_text('{"version": 2}')
        capsys.readouterr()
        assert_refused(
            ["eval-auth", "--out", str(tmp_path / "a.csv"), "--models", str(models), *self.SMALL],
            capsys, "agentauth eval-auth:", "user.json", "ModelFormatError",
        )

    @pytest.mark.parametrize(
        "text, needle", [(None, "FileNotFoundError"), ('{"epsilon": 0.25}', "KeyError")]
    )
    def test_bad_policy(self, tmp_path, capsys, text, needle):
        policy = tmp_path / "policy.json"
        if text is not None:
            policy.write_text(text)
        assert_refused(
            ["eval-probe", "--policy", str(policy), "--out", str(tmp_path / "c.csv"), *self.SMALL],
            capsys, "agentauth eval-probe:", str(policy), needle,
        )

    @pytest.mark.parametrize("text, needle", [(None, "FileNotFoundError"), ("{", "JSONDecodeError")])
    def test_bad_classifier(self, tmp_path, capsys, text, needle):
        classifier = tmp_path / "clf.json"
        if text is not None:
            classifier.write_text(text)
        assert_refused(
            ["eval-auth", "--classifier", str(classifier), "--out", str(tmp_path / "a.csv"),
             *self.SMALL],
            capsys, "agentauth eval-auth:", str(classifier), needle,
        )

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("epsilon", 5.0, "epsilon must be a number in [0, 1], got 5.0"),
            ("preferences", [[float("nan")] * 3] * 4, "preferences must be a finite table"),
            ("values", [0.0, 0.0], "values must be 4 finite numbers"),
        ],
    )
    def test_invalid_policy_file_refused(self, tmp_path, capsys, field, value, needle):
        # SMALL's n=3, k=1 tree has 4 nodes.
        policy = tmp_path / "policy.json"
        ProbePolicy.zeros(4, 3).save(policy)
        doc = json.loads(policy.read_text())
        policy.write_text(json.dumps({**doc, field: value}))
        out = tmp_path / "c.csv"
        assert_refused(
            ["eval-probe", "--policy", str(policy), "--out", str(out), *self.SMALL],
            capsys, "agentauth eval-probe:", str(policy), "ValueError", needle,
        )
        assert not out.exists()

    def test_classifier_of_other_width_refused_before_any_session(self, tmp_path, capsys):
        # SMALL runs at n=3, l=5; this checkpoint was saved for l=20.
        classifier = tmp_path / "clf.json"
        clf.save_classifier(clf.Mlp(2 * 21 * 3, 4), classifier, 3, 20)
        out = tmp_path / "a.csv"
        assert_refused(
            ["eval-auth", "--classifier", str(classifier), "--out", str(out), *self.SMALL],
            capsys, "agentauth eval-auth:", str(classifier), "n=3, l=20", "n=3, l=5",
        )
        assert not out.exists()

    def test_classifier_of_other_n_and_l_refused_at_equal_width(self, tmp_path, capsys):
        # n=2, l=8 encodes to 2·9·2 = 36 inputs, as SMALL's n=3, l=5 does.
        classifier = tmp_path / "clf.json"
        clf.save_classifier(clf.Mlp(36, 4), classifier, 2, 8)
        out = tmp_path / "a.csv"
        assert_refused(
            ["eval-auth", "--classifier", str(classifier), "--out", str(out), *self.SMALL],
            capsys, "agentauth eval-auth:", str(classifier), "n=2, l=8", "n=3, l=5",
        )
        assert not out.exists()

    def test_classifier_without_n_and_l_refused(self, tmp_path, capsys):
        classifier = tmp_path / "clf.json"
        classifier.write_text(json.dumps(clf.Mlp(36, 4).to_dict()))
        assert_refused(
            ["eval-auth", "--classifier", str(classifier), "--out", str(tmp_path / "a.csv"),
             *self.SMALL],
            capsys, "agentauth eval-auth:", str(classifier), "n=None, l=None",
        )

    def test_policy_of_other_dimensions_refused(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main([
            "train-probe", "--out", str(policy), "--n", "3", "--k", "2", "--l", "5",
            "--steps", "50", "--population", "2",
        ]) == 0
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert_refused(
            ["eval-probe", "--policy", str(policy), "--out", str(out),
             "--n", "3", "--k", "5", "--l", "5", "--trials", "2"],
            capsys, "agentauth eval-probe:", str(policy), "(13, 3)", "(364, 3)",
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value", [("--steps", "0"), ("--steps", "-5"), ("--population", "0")]
    )
    def test_train_probe_count_below_one_refused(self, tmp_path, capsys, option, value):
        out = tmp_path / "policy.json"
        assert_refused(
            ["train-probe", "--out", str(out), "--n", "3", "--k", "2", "--l", "5",
             option, value],
            capsys, "agentauth train-probe:", f"{option} {value}",
        )
        assert not out.exists()

    def test_classifier_of_matching_width_runs(self, tmp_path):
        classifier = tmp_path / "clf.json"
        clf.save_classifier(clf.Mlp(36, 4), classifier, 3, 5)
        out = tmp_path / "a.csv"
        argv = ["eval-auth", "--classifier", str(classifier), "--out", str(out), *self.SMALL]
        assert main(argv) == 0
        tests = sorted(row["test"] for row in read_rows(out))
        assert tests == ["clf"] * len(METRICS) + ["hypo"] * len(METRICS)

    @pytest.mark.parametrize("text, needle", [(None, "FileNotFoundError"), ("[1, 2]", "TypeError")])
    def test_bad_config(self, tmp_path, capsys, text, needle):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        assert_refused(
            ["length-sweep", "--config", str(config), "--out", str(tmp_path / "s.csv")],
            capsys, "agentauth length-sweep:", str(config), needle,
        )

    @pytest.fixture()
    def models(self, tmp_path, capsys):
        """A models directory at n=3, k=2, neither the hypo nor the probe default."""
        models = tmp_path / "models"
        assert main(["gen-models", "--n", "3", "--k", "2", "--out", str(models)]) == 0
        capsys.readouterr()
        return models

    def test_models_set_n_and_k(self, tmp_path, models):
        out = tmp_path / "a.csv"
        assert main(["eval-auth", "--models", str(models), "--trials", "2", "--out", str(out)]) == 0
        assert len(read_rows(out)) == len(METRICS)

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("eval-auth", []),
            ("length-sweep", []),
            ("train-probe", ["--steps", "10"]),
            ("eval-probe", ["--policy", "unused.json"]),
        ],
    )
    @pytest.mark.parametrize("flag, value", [("--n", "4"), ("--k", "5")])
    def test_dimension_disagreeing_with_models(
        self, tmp_path, capsys, models, command, extra, flag, value
    ):
        assert_refused(
            [command, "--out", str(tmp_path / "out"), "--models", str(models), flag, value, *extra],
            capsys, f"agentauth {command}:", f"{flag} {value}", str(models),
        )


class TestConfigRanges:
    """Every experiment setting is checked once, in load_config: a value out
    of range, from a flag or a config file, is one stderr line and exit 1."""

    DIMS = ["--n", "3", "--k", "1", "--l", "5"]

    @pytest.mark.parametrize(
        "command, flag, value, needle",
        [
            ("eval-auth", "--alpha", "0", "alpha must be in (0, 1), got 0.0"),
            ("eval-auth", "--alpha", "1", "alpha must be in (0, 1), got 1.0"),
            ("eval-auth", "--l", "-1", "l must be an integer >= 0, got -1"),
            ("eval-auth", "--n", "1", "n must be an integer >= 2, got 1"),
            ("eval-auth", "--k", "0", "k must be an integer >= 1, got 0"),
            ("eval-auth", "--tau-client", "0", "tau_client must be a number above 0, got 0.0"),
            ("length-sweep", "--tau-server", "-1", "tau_server must be a number above 0, got -1.0"),
            ("eval-auth", "--trials", "0", "trials must be an integer >= 1, got 0"),
            ("eval-auth", "--trials", "-3", "trials must be an integer >= 1, got -3"),
            ("length-sweep", "--trials", "0", "trials must be an integer >= 1, got 0"),
            ("eval-probe", "--l", "0", "l must be an integer >= 1, got 0"),
            ("eval-probe", "--trials", "1", "trials must be an integer >= 2, got 1"),
            ("eval-probe", "--trials", "0", "trials must be an integer >= 2, got 0"),
        ],
    )
    def test_flag_out_of_range_refused(self, tmp_path, capsys, command, flag, value, needle):
        out = tmp_path / "out.csv"
        extra = ["--policy", "unused.json"] if command == "eval-probe" else []
        assert_refused(
            [command, "--out", str(out), *extra, *self.DIMS, flag, value],
            capsys, f"agentauth {command}:", needle,
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"alpha": 1.5}', "alpha must be in (0, 1), got 1.5"),
            ('{"n": "3"}', "n must be an integer >= 2, got '3'"),
            ('{"l": 2.5}', "l must be an integer >= 0, got 2.5"),
            ('{"tau_client": null}', "tau_client must be a number above 0, got None"),
        ],
    )
    def test_config_file_value_out_of_range_refused(self, tmp_path, capsys, text, needle):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert_refused(
            ["eval-auth", "--config", str(config), "--out", str(tmp_path / "a.csv")],
            capsys, "agentauth eval-auth:", needle,
        )

    @pytest.mark.parametrize(
        "command", [["train-probe", "--steps", "10"], ["gen-models", "--experiment", "probe"]]
    )
    @pytest.mark.parametrize("value", ["1", "7"])
    def test_trials_only_on_commands_that_read_it(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out), *self.DIMS, "--trials", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_grid_value_refused(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert_refused(
            ["length-sweep", "--grid", "5", "-2", "--out", str(out), *self.DIMS],
            capsys, "agentauth length-sweep:", "--grid -2 is below 0",
        )
        assert not out.exists()

    def test_trials_from_the_config_file(self, tmp_path):
        """Without --trials, every command takes the config's trials."""
        config = tmp_path / "config.json"
        config.write_text('{"trials": 2}')
        policy, curves, sweep = tmp_path / "policy.json", tmp_path / "c.csv", tmp_path / "s.csv"
        common = ["--config", str(config), *self.DIMS]
        assert main(["train-probe", "--out", str(policy), "--steps", "50", *common]) == 0
        assert main(["eval-probe", "--policy", str(policy), "--out", str(curves), *common]) == 0
        assert len(read_rows(curves)) == 3 * 5
        assert main(["length-sweep", "--grid", "3", "--out", str(sweep), *common]) == 0
        assert {r["trials"] for r in read_rows(sweep)} == {"2"}


class TestAddressErrors:
    """A malformed --connect or --listen is one stderr line and exit 1."""

    @pytest.fixture()
    def model(self, tmp_path):
        path = tmp_path / "model.json"
        save_pdt(generate_random_pdt(3, 2, 0.3, np.random.default_rng(12)), path)
        return path

    @pytest.mark.parametrize("addr", ["foo", "127.0.0.1:70000", "127.0.0.1:-1", "localhost:"])
    def test_client_connect(self, capsys, model, addr):
        assert_refused(
            ["client", "--connect", addr, "--user", "alice", "--model", str(model)],
            capsys, "agentauth client:", repr(addr),
        )

    @pytest.mark.parametrize("addr", ["foo", "127.0.0.1:65536"])
    def test_serve_listen(self, tmp_path, capsys, model, addr):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_pdt(load_pdt(model), registry / "alice.json")
        assert_refused(
            ["serve", "--listen", addr, "--registry", str(registry), "--server-model", str(model)],
            capsys, "agentauth serve:", repr(addr),
        )

    def test_serve_port_in_use(self, tmp_path, capsys, model):
        registry = tmp_path / "registry"
        registry.mkdir()
        save_pdt(load_pdt(model), registry / "alice.json")
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            addr = f"127.0.0.1:{holder.getsockname()[1]}"
            assert_refused(
                ["serve", "--listen", addr, "--registry", str(registry), "--server-model", str(model)],
                capsys, "agentauth serve:", addr, "OSError",
            )


class TestClientFailures:
    """The client reports an unreachable server or a protocol error as one
    stderr line and exit 1, apart from 2 (reject) and 3 (tag mismatch)."""

    @pytest.fixture()
    def models(self, tmp_path):
        rng = np.random.default_rng(8)
        legit = generate_random_pdt(3, 2, 0.3, rng)
        save_pdt(legit, tmp_path / "user.json")
        return legit, generate_random_pdt(3, 2, 1.0, rng), tmp_path / "user.json"

    def test_closed_port(self, capsys, models):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert_refused(
            ["client", "--connect", f"127.0.0.1:{port}", "--user", "alice",
             "--model", str(models[2])],
            capsys, "agentauth client:", f"127.0.0.1:{port}", "ConnectionRefusedError",
        )

    def test_unknown_user(self, capsys, models):
        legit, server_model, model_path = models
        server = net.AmiServer(
            ("127.0.0.1", 0), {"alice": legit}, lambda: PdtAgent(server_model),
            net.ServerConfig(l=10, timeout=5.0, seed=1),
        )
        server.start_background()
        try:
            assert_refused(
                ["client", "--connect", f"127.0.0.1:{server.server_address[1]}",
                 "--user", "bob", "--model", str(model_path)],
                capsys, "agentauth client:", "ProtocolError", "unknown user 'bob'",
            )
        finally:
            server.shutdown()
            server.server_close()


class TestAccuracyLoop:
    """eval-auth and length-sweep share one loop; their CSVs are pinned to
    digests taken before the two commands were merged."""

    def test_eval_auth_is_length_sweep_at_its_l(self, tmp_path):
        dims = ["--seed", "3", "--n", "3", "--k", "2", "--trials", "10"]
        auth, sweep = tmp_path / "auth.csv", tmp_path / "sweep.csv"
        assert main(["eval-auth", "--l", "20", "--out", str(auth), *dims]) == 0
        assert main(["length-sweep", "--grid", "20", "--out", str(sweep), *dims]) == 0
        auth_rows, sweep_rows = read_rows(auth), read_rows(sweep)
        assert {r.pop("test") for r in auth_rows} == {"hypo"}
        assert {r.pop("l") for r in sweep_rows} == {"20"}
        assert auth_rows == sweep_rows

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["eval-auth", "--seed", "3", "--n", "3", "--k", "2", "--l", "20",
                 "--trials", "10"],
                "bf33ae50e63beb4527acbdc33cc699aaaf707473c77333c4cc08e023fdb0f395",
            ),
            (
                ["length-sweep", "--seed", "4", "--n", "3", "--k", "2",
                 "--grid", "5", "10", "20", "--trials", "10"],
                "aa2399c03378cf7f2541171ac17d9eca9235075ff11ddd0dace0098c005dbbf1",
            ),
        ],
    )
    def test_golden_digest(self, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestFitMleClient:
    def test_equals_scalar_loop(self):
        rng = np.random.default_rng(12)
        server = generate_random_pdt(3, 3, 1.0, rng)
        legit = generate_random_pdt(3, 3, 0.1, rng)
        cfg = {"n": 3, "k": 3}
        batched, scalar = np.random.default_rng(13), np.random.default_rng(13)
        got = fit_mle_client(server, legit, cfg, 30, batched)
        seen = [run_interaction(PdtAgent(server), PdtAgent(legit), 30, scalar, scalar) for _ in range(100)]
        want = adv.make_mle_adversary(seen, 3, 3)
        assert got.pdt.probs.tobytes() == want.pdt.probs.tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestEvalAuth:
    def _run(self, tmp_path, name):
        out = tmp_path / name
        main([
            "eval-auth", "--out", str(out), "--seed", "3",
            "--n", "3", "--k", "1", "--l", "10",
            "--trials", "5",
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
                "--trials", "5",
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
            "--trials", "3",
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

    def test_serve_refuses_alpha_outside_unit_interval(self, tmp_path):
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
                "--alpha", "1.5",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "listening on" not in proc.stdout
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "alpha must be" in proc.stderr

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
