"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single pass or fail
line.  Every run is seeded, so the observed numbers are reproducible; the
tolerances leave room for a different but correct implementation of the
same procedures.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import collections
import dataclasses
import itertools
import socket

import numpy as np
import pytest
from scipy import stats

from agentauth import adv, clf, net, rl
from agentauth.engine import run_interaction
from agentauth.hypo import p_value
from agentauth.models import PdtAgent, generate_random_pdt
from oracles import action_scores, steps_to_threshold


def _report(num, name, checks):
    failed = [k for k, ok in checks.items() if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"\n[criterion {num}] {name}: {status}"
          + (f" (failed: {', '.join(failed)})" if failed else ""))
    assert not failed, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="module")
def probe_setup():
    """Train the probing policy once; shared by the efficiency and replay
    criteria."""
    ss = np.random.SeedSequence(31)
    r = [np.random.default_rng(s) for s in ss.spawn(3)]
    legit = generate_random_pdt(3, 5, 0.5, r[0])
    train_pop = adv.sample_population(3, 5, 0.5, 100, 1001)
    cfg = rl.ProbeEnvConfig(legit=legit, population=train_pop, episode_length=100)
    result = rl.train_probe(cfg, r[1], total_steps=200_000)
    return legit, result.policy, r[2]


class TestCriterion1:
    def test_null_calibration(self):
        # 500 legitimate sessions: acceptance near 1 - alpha and p-values
        # close to uniform
        ss = np.random.SeedSequence(42)
        r = [np.random.default_rng(s) for s in ss.spawn(4)]
        server = generate_random_pdt(10, 5, 1.0, r[0])
        user = generate_random_pdt(10, 5, 0.1, r[1])
        rng = r[2]
        ps = []
        for _ in range(500):
            h = run_interaction(PdtAgent(server), PdtAgent(user), 200, rng, rng)
            ps.append(p_value(h, user))
        ps = np.array(ps)
        accept_rate = float(np.mean(ps >= 0.1))
        grid = np.sort(ps)
        ecdf = np.arange(1, 501) / 500
        ks = max(np.max(np.abs(ecdf - grid)), np.max(np.abs(ecdf - 1 / 500 - grid)))
        _report(1, "null calibration", {
            f"accept rate {accept_rate:.3f} in [0.87, 0.93]": 0.87 <= accept_rate <= 0.93,
            f"p-value ECDF sup distance {ks:.3f} < 0.08": ks < 0.08,
        })


class TestCriterion2:
    def test_adversary_rejection(self):
        ss = np.random.SeedSequence(7)
        r = [np.random.default_rng(s) for s in ss.spawn(4)]
        server = generate_random_pdt(10, 5, 1.0, r[0])
        user = generate_random_pdt(10, 5, 0.1, r[1])
        rng = r[2]

        def reject_rate(make_client, trials, l):
            rejected = 0
            for _ in range(trials):
                h = run_interaction(PdtAgent(server), make_client(), l, rng, rng)
                if p_value(h, user) < 0.1:
                    rejected += 1
            return rejected / trials

        rand_200 = reject_rate(
            lambda: adv.make_random_adversary(10, 5, 0.1, rng), 100, 200)
        rand_100 = reject_rate(
            lambda: adv.make_random_adversary(10, 5, 0.1, rng), 100, 100)

        def replay_client():
            rec = run_interaction(PdtAgent(server), PdtAgent(user), 200, rng, rng)
            return adv.ReplayAgent(rec.client_actions())

        replay_200 = reject_rate(replay_client, 100, 200)
        observed = [
            run_interaction(PdtAgent(server), PdtAgent(user), 200, rng, rng)
            for _ in range(100)
        ]
        mle = adv.make_mle_adversary(observed, 10, 5)
        mle_200 = reject_rate(lambda: mle, 100, 200)
        _report(2, "adversary rejection", {
            f"random l=200 rate {rand_200:.2f} >= 0.95": rand_200 >= 0.95,
            f"replay l=200 rate {replay_200:.2f} >= 0.95": replay_200 >= 0.95,
            f"mle l=200 rate {mle_200:.2f} >= 0.95": mle_200 >= 0.95,
            f"random l=100 rate {rand_100:.2f} >= 0.95": rand_100 >= 0.95,
        })


class TestCriterion3:
    def test_length_monotonicity(self):
        ss = np.random.SeedSequence(11)
        r = [np.random.default_rng(s) for s in ss.spawn(3)]
        server = generate_random_pdt(10, 5, 1.0, r[0])
        user = generate_random_pdt(10, 5, 0.1, r[1])
        rng = r[2]
        grid = [10, 25, 50, 100, 200]
        accs = {m: [] for m in ("legit", "random", "replay", "mle")}
        for l in grid:
            acc = 0
            for _ in range(200):
                h = run_interaction(PdtAgent(server), PdtAgent(user), l, rng, rng)
                acc += p_value(h, user) >= 0.1
            accs["legit"].append(acc / 200)
            for name, mk in [
                ("random", lambda: adv.make_random_adversary(10, 5, 0.1, rng)),
                ("replay", lambda: adv.ReplayAgent(
                    run_interaction(PdtAgent(server), PdtAgent(user), l, rng, rng)
                    .client_actions())),
            ]:
                acc = 0
                for _ in range(200):
                    h = run_interaction(PdtAgent(server), mk(), l, rng, rng)
                    acc += p_value(h, user) < 0.1
                accs[name].append(acc / 200)
            observed = [
                run_interaction(PdtAgent(server), PdtAgent(user), l, rng, rng)
                for _ in range(100)
            ]
            mle = adv.make_mle_adversary(observed, 10, 5)
            acc = 0
            for _ in range(200):
                h = run_interaction(PdtAgent(server), mle, l, rng, rng)
                acc += p_value(h, user) < 0.1
            accs["mle"].append(acc / 200)

        checks = {}
        for m in ("random", "replay", "mle"):
            series = accs[m]
            ok = all(b >= a - 0.05 for a, b in zip(series, series[1:]))
            checks[f"{m} non-decreasing within 0.05: {series}"] = ok
        spread = max(accs["legit"]) - min(accs["legit"])
        checks[f"legit spread {spread:.3f} <= 0.08"] = spread <= 0.08
        _report(3, "length monotonicity", checks)


class TestCriterion4:
    def test_classifier(self):
        ss = np.random.SeedSequence(21)
        r = [np.random.default_rng(s) for s in ss.spawn(3)]
        server = generate_random_pdt(3, 5, 1.0, r[0])
        user = generate_random_pdt(3, 5, 0.1, r[1])
        rng = r[2]
        cfg = clf.TrainConfig(seed=3)
        ds = clf.generate_dataset(
            server, user,
            lambda rg: adv.make_random_adversary(3, 5, 0.1, rg),
            cfg, 200, rng,
        )
        model = clf.train_classifier(ds, cfg)
        holdout = clf.accuracy(model, ds.x_test, ds.y_test)

        shuffled = dataclasses.replace(
            ds, y_train=np.random.default_rng(99).permutation(ds.y_train))
        control = clf.accuracy(
            clf.train_classifier(shuffled, cfg), ds.x_test, ds.y_test)

        grad_ok = self._gradient_check()
        _report(4, "classifier test", {
            f"holdout accuracy {holdout:.3f} >= 0.8": holdout >= 0.8,
            "gradients match finite differences within 1e-4": grad_ok,
            f"shuffled-label control {control:.3f} in [0.4, 0.6]":
                0.4 <= control <= 0.6,
        })

    @staticmethod
    def _gradient_check():
        rng = np.random.default_rng(4)
        model = clf.Mlp(5, 4, seed=5)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 2, size=6).astype(float)
        _, gw, gb = model.loss_and_grads(x, y)
        eps = 1e-6
        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for layer, grad in zip(params, grads):
                flat, gflat = layer.reshape(-1), grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = model.loss_and_grads(x, y)[0]
                    flat[i] = orig - eps
                    down = model.loss_and_grads(x, y)[0]
                    flat[i] = orig
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                    if abs(numeric - gflat[i]) / denom >= 1e-4:
                        return False
        return True


class TestCriterion5:
    def test_probing_efficiency(self, probe_setup):
        legit, policy, rng = probe_setup
        eval_pop = adv.sample_population(3, 5, 0.5, 100, 2002)
        steps = {}
        for label, factory in [
            ("eps", lambda: rl.PolicyAgent(policy, legit, rl.MODE_EPS_GREEDY)),
            ("greedy", lambda: rl.PolicyAgent(policy, legit, rl.MODE_GREEDY)),
            ("uniform", lambda: rl.UniformAgent(3)),
        ]:
            res = rl.evaluate_policy(factory, eval_pop, legit, 100, rng)
            steps[label] = steps_to_threshold(res.mean_p, 0.2)
        reached = steps["eps"] is not None and steps["uniform"] is not None
        ratio_ok = reached and steps["uniform"] >= 1.15 * steps["eps"]
        _report(5, "probing efficiency", {
            f"both policies reach p<=0.2 ({steps})": reached,
            f"uniform steps >= 1.15 x eps-greedy steps ({steps})": ratio_ok,
        })


class TestCriterion6:
    def test_replay_security(self, probe_setup):
        legit, policy, _ = probe_setup
        rng = np.random.default_rng(777)
        results = {}
        for mode in (rl.MODE_GREEDY, rl.MODE_EPS_GREEDY, rl.MODE_UNIFORM):
            finals, reject = rl.evaluate_replay(
                policy, legit, mode, 100, 100, rng, alpha=0.1)
            results[mode] = (float(finals.mean()), reject)
        greedy_p = results[rl.MODE_GREEDY][0]
        eps_reject = results[rl.MODE_EPS_GREEDY][1]
        _report(6, "replay security of probing", {
            f"greedy mean final p {greedy_p:.3f} in [0.35, 0.65]":
                0.35 <= greedy_p <= 0.65,
            f"eps-greedy replay reject rate {eps_reject:.2f} >= 0.9":
                eps_reject >= 0.9,
        })


class TestCriterion7:
    def test_key_agreement(self):
        ss = np.random.SeedSequence(71)
        r = [np.random.default_rng(s) for s in ss.spawn(3)]
        legit = generate_random_pdt(3, 2, 0.3, r[0])
        server_model = generate_random_pdt(3, 2, 1.0, r[1])
        # force_accept makes every session emit a tag, so key agreement is
        # observable independently of the statistical verdict
        config = net.ServerConfig(
            l=60, timeout=10.0, seed=6, force_accept=True)
        srv = net.AmiServer(
            ("127.0.0.1", 0), {"u": legit}, lambda: PdtAgent(server_model), config)
        srv.start_background()
        addr = srv.server_address
        try:
            crng = np.random.default_rng(72)
            legit_ok = sum(
                bool((res := net.client_authenticate(addr, "u", legit, crng)).accepted
                     and res.tag_ok)
                for _ in range(100)
            )
            obs_rng = r[2]
            observed = [
                run_interaction(
                    PdtAgent(server_model), PdtAgent(legit), 60, obs_rng, obs_rng)
                for _ in range(100)
            ]
            mle = adv.make_mle_adversary(observed, 3, 2)
            mle_ok = sum(
                bool(net.client_authenticate(addr, "u", mle.pdt, crng).tag_ok)
                for _ in range(100)
            )
            tampered = self._tampered_reveals(addr)
        finally:
            srv.shutdown()
            srv.server_close()
        fuzz_ok = self._fuzz_frames()
        _report(7, "key agreement", {
            f"legitimate tag matches {legit_ok}/100 == 100": legit_ok == 100,
            f"mle-adversary tag matches {mle_ok}/100 == 0": mle_ok == 0,
            "frame codec round-trips 10^5 fuzzed frames": fuzz_ok,
            f"tampered reveals detected {tampered}/100": tampered == 100,
        })

    @staticmethod
    def _tampered_reveals(addr):
        detected = 0
        for i in range(100):
            with socket.create_connection(addr, timeout=5.0) as sock:
                sock.settimeout(5.0)
                net.send_frame(sock, net.FRAME_HELLO, b"u")
                ftype, _ = net.recv_frame(sock)
                assert ftype == net.FRAME_PARAMS
                ftype, _ = net.recv_frame(sock)
                assert ftype == net.FRAME_COMMIT
                nonce = bytes([i % 256]) * 16
                net.send_frame(sock, net.FRAME_COMMIT, net.commit_digest(1, nonce))
                ftype, _ = net.recv_frame(sock)
                assert ftype == net.FRAME_REVEAL
                net.send_frame(sock, net.FRAME_REVEAL, bytes([2]) + nonce)
                ftype, payload = net.recv_frame(sock)
                detected += (ftype == net.FRAME_ERROR and b"commitment" in payload)
        return detected

    @staticmethod
    def _fuzz_frames():
        rng = np.random.default_rng(73)
        types = sorted(net.FRAME_TYPES)
        writer, reader = socket.socketpair()
        reader.settimeout(5.0)
        with writer, reader:
            for _ in range(100_000):
                ftype = types[rng.integers(len(types))]
                payload = rng.bytes(int(rng.integers(0, 64)))
                writer.sendall(net.encode_frame(ftype, payload))
                if net.recv_frame(reader) != (ftype, payload):
                    return False
        return True


class TestCriterion8:
    def test_oracle_equivalence(self):
        checks = {}
        checks.update(self._enumeration_check())
        checks.update(self._network_frequency_check())
        _report(8, "oracle equivalence", checks)

    @staticmethod
    def _enumeration_check():
        # exact p for micro-instances by enumerating every client outcome
        rng = np.random.default_rng(7)
        model = generate_random_pdt(2, 1, 0.5, rng)
        M = 2000  # the bound is a Monte-Carlo estimate's at this many draws
        worst = 0.0
        for server_actions in ([1], [2, 1]):
            steps_count = len(server_actions)
            qs = [model.action_distribution(server_actions[:t])
                  for t in range(steps_count)]
            scores = [action_scores(q) for q in qs]
            outcomes = []
            for seq in itertools.product(range(2), repeat=steps_count):
                prob = float(np.prod([qs[t][a] for t, a in enumerate(seq)]))
                z = float(np.mean([scores[t][a] for t, a in enumerate(seq)]))
                outcomes.append((seq, prob, z))
            mean = sum(p * z for _, p, z in outcomes)
            for seq, _, z in outcomes:
                d = abs(z - mean)
                exact = sum(p2 for _, p2, z2 in outcomes if abs(z2 - mean) >= d - 1e-12)
                from agentauth.engine import InteractionHistory
                h = InteractionHistory(
                    steps=[(s, a + 1) for s, a in zip(server_actions, seq)],
                    n_actions=2)
                worst = max(worst, abs(p_value(h, model) - exact))
        bound = 2 / np.sqrt(M)
        return {
            f"null tail vs enumeration worst gap {worst:.4f} <= {bound:.4f}":
                worst <= bound,
        }

    @staticmethod
    def _network_frequency_check():
        rng_m = np.random.default_rng(np.random.SeedSequence(61))
        legit = generate_random_pdt(3, 1, 0.4, rng_m)
        server_model = generate_random_pdt(3, 1, 1.0, rng_m)
        config = net.ServerConfig(
            l=1, timeout=10.0, seed=5, force_accept=True)
        srv = net.AmiServer(
            ("127.0.0.1", 0), {"u": legit}, lambda: PdtAgent(server_model), config)
        srv.start_background()
        try:
            crng = np.random.default_rng(62)
            net_counts = collections.Counter()
            for _ in range(10_000):
                res = net.client_authenticate(srv.server_address, "u", legit, crng)
                for t, (a_s, a_c) in enumerate(res.history.steps):
                    net_counts[(t, "s", a_s)] += 1
                    net_counts[(t, "c", a_c)] += 1
        finally:
            srv.shutdown()
            srv.server_close()
        rng_s, rng_c = np.random.default_rng(63), np.random.default_rng(64)
        loc_counts = collections.Counter()
        for _ in range(10_000):
            h = run_interaction(PdtAgent(server_model), PdtAgent(legit), 1, rng_s, rng_c)
            for t, (a_s, a_c) in enumerate(h.steps):
                loc_counts[(t, "s", a_s)] += 1
                loc_counts[(t, "c", a_c)] += 1
        checks = {}
        for t in range(2):
            for side in ("s", "c"):
                table = np.array([
                    [net_counts[(t, side, a)] for a in (1, 2, 3)],
                    [loc_counts[(t, side, a)] for a in (1, 2, 3)],
                ])
                _, p, _, _ = stats.chi2_contingency(table)
                checks[f"step {t} {side}-side frequencies chi2 p {p:.3f} > 0.01"] = \
                    p > 0.01
        return checks
