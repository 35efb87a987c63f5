"""The four benchmark workloads.

Each workload builds its inputs from the seed, sets itself up several times
(the set-up is timed and the last one is kept), runs a closed loop of
operations for the timed window, and checks what the program returned.  The
program is called only through its public functions, looked up on the module
at call time so that the tracing wrappers see every call.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refclock
from agentauth import adv, clf, engine, hypo, models, net, rl

HERE = Path(__file__).resolve().parent

# Paper defaults (hypo experiment) for the two authentication workloads.
N, K, L = 10, 5, 200
TAU_SERVER, TAU_CLIENT = 1.0, 0.1
ALPHA, MC_SAMPLES = 0.1, 1000
# clf experiment dimensions.
CLF_N, CLF_K, CLF_L = 3, 5, 200
# probe experiment dimensions.
PROBE_N, PROBE_K, PROBE_L, PROBE_TAU, PROBE_POPULATION = 3, 5, 100, 0.5, 100

# In-process client mix: 3/5 legitimate, 1/5 random tree, 1/10 replay, 1/10 MLE.
INPROC_SCHEDULE = (
    "legit", "random", "legit", "replay", "legit", "random", "legit", "mle", "legit", "legit"
)
RANDOM_POOL = 2  # random impostor trees built in set-up and reused
MLE_OBSERVED = 100  # transcripts the MLE impostor is fitted from, as in criterion 2
# One client thread and connection.  The server and the client then keep the
# two cores busy between them; with two client threads the server's session
# threads shared one GIL and a core with the load generator, sessions were
# slower, and run-to-run spreads of ops_per_s and p95_ms went past their bounds.
TCP_CLIENTS = 1
TCP_IMPOSTOR_EVERY = 5  # every 5th session of a client thread is an impostor
TCP_USER = "alice"
DATASET_HALF = 5  # generate_dataset call: 5 legitimate + 5 adversarial transcripts
PROBE_CHUNK = 600  # train_probe call: 600 environment steps (a multiple of rollout=30)

# A set-up runs at least 3 times and until 3 s of set-up has been timed.
SETUP_MIN_REPEATS, SETUP_MIN_TOTAL_S, SETUP_MAX_REPEATS = 3, 3.0, 1000
IMPOSTOR_ACCEPT_MAX = 0.05  # criterion 2: each impostor kind is rejected >= 95%
CHECK_TAIL = 1e-6  # chance that a correct program fails a binomial check
SERVER_READY_TIMEOUT_S = 120.0
SERVER_STOP_TIMEOUT_S = 15.0


@dataclass
class Run:
    root: Path
    seed: int
    seconds: float
    tracer: object  # spans.Tracer, or None for an untraced run
    clock: object  # refclock.RefClock, sampled after every timed call
    workdir: Path  # scratch directory inside the checkout
    servers: list = field(default_factory=list)  # live servers, stopped on exit


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    window: tuple = (0.0, 0.0)  # wall (start, end) of the timed window
    calls: list = field(default_factory=list)  # wall (start, end, operations) per timed call
    setups: list = field(default_factory=list)  # wall (start, end) per set-up
    threads: int = 1  # callers in the closed loop
    peak_rss_mb: float = 0.0
    checks: list = field(default_factory=list)  # (description, ok)
    errors: dict = field(default_factory=dict)  # exception class -> count
    layer: dict = field(default_factory=dict)  # per-layer values measured here
    server_trace: dict | None = None
    detail: dict = field(default_factory=dict)

    def check(self, description: str, ok: bool) -> None:
        self.checks.append((description, bool(ok)))

    def fail(self, exc: BaseException, ops: int = 1) -> None:
        self.failed += ops
        name = type(exc).__name__
        if name not in self.errors:
            print(f"operation failed: {name}: {exc}", file=sys.stderr)
        self.errors[name] = self.errors.get(name, 0) + ops

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.completed += other.completed
        self.calls += other.calls
        for name, n in other.errors.items():
            self.errors[name] = self.errors.get(name, 0) + n


def rngs(seed: int, count: int) -> list:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def repeat_setup(run: Run, setup, teardown=None):
    """Run setup() several times; returns the last state and every (start, end).
    Set-ups shorter than the clock's smoothing run back to back between gauge
    bursts, so the gauge does not leave each of them starting cold."""
    times, gauged = [], time.perf_counter()
    while True:
        state = None  # the previous set-up is released before the next starts
        t0 = time.perf_counter()
        state = setup()
        times.append((t0, time.perf_counter()))
        if times[-1][1] - gauged >= refclock.SMOOTH_S:
            run.clock.sample(refclock.BURST)
            gauged = time.perf_counter()
        enough = sum(b - a for a, b in times) >= SETUP_MIN_TOTAL_S
        if (enough and len(times) >= SETUP_MIN_REPEATS) or len(times) >= SETUP_MAX_REPEATS:
            return state, times
        if teardown is not None:
            teardown(state)


def binomial_bounds(n: int, p: float, tail: float = CHECK_TAIL) -> tuple[int, int]:
    """Smallest lo and hi with P(X < lo) <= tail and P(X > hi) <= tail for
    X ~ Binomial(n, p)."""
    if n == 0:
        return 0, 0
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + (j * math.log(p) if j else 0.0) + ((n - j) * math.log1p(-p) if n - j else 0.0)
        for j in range(n + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    lo, below = 0, 0.0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def check_accept_rates(out: Outcome, tally: dict) -> None:
    """tally: client kind -> [sessions, accepted]."""
    n, acc = tally.get("legit", (0, 0))
    lo, hi = binomial_bounds(n, 1 - ALPHA)
    out.check(f"legit accepted {acc}/{n}, within [{lo}, {hi}] around 1-alpha", n and lo <= acc <= hi)
    for kind, (n, acc) in sorted(tally.items()):
        if kind != "legit":
            _, hi = binomial_bounds(n, IMPOSTOR_ACCEPT_MAX)
            out.check(f"{kind} accepted {acc}/{n}, at most {hi}", acc <= hi)


def proc_status_mb(pid, field_name: str = "VmHWM") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field_name} in /proc/{pid}/status")


def proc_cpu_s(pid) -> float:
    """User plus system CPU seconds of a process, all threads."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _die_with_parent():
    """A preexec_fn: with Linux PR_SET_PDEATHSIG the server gets SIGTERM when
    the benchmark dies, even by SIGKILL, so no run leaves a server behind.
    prctl is looked up here, in the parent, not in the forked child."""
    prctl, parent = ctypes.CDLL(None, use_errno=True).prctl, os.getpid()

    def hook():
        prctl(1, signal.SIGTERM)
        if os.getppid() != parent:  # the benchmark died before prctl took effect
            os._exit(1)

    return hook


class Server:
    """`agentauth serve` in a child process, started as a deployment starts it:
    only --listen, --registry and --server-model.  A traced run starts it
    through serve_traced.py, which installs the span wrappers first."""

    def __init__(self, run: Run, registry: Path, server_model: Path):
        self.run = run
        self.trace_path = None
        cmd = [sys.executable, "-u"]
        if run.tracer is not None:
            self.trace_path = run.workdir / f"server-{len(run.servers)}-spans.json"
            cmd += [str(HERE / "serve_traced.py"), str(self.trace_path)]
        else:
            cmd += ["-m", "agentauth.cli"]
        cmd += ["serve", "--listen", "127.0.0.1:0", "--registry", str(registry),
                "--server-model", str(server_model)]
        src = str(run.root / "src")
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=run.root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            preexec_fn=_die_with_parent(),
        )
        run.servers.append(self)
        line = self._read_listening_line(t0 + SERVER_READY_TIMEOUT_S)
        t1 = time.perf_counter()
        if run.tracer is not None:
            run.tracer.record("cli.serve_ready", t0, t1)
        host, port = re.search(r"listening on (\S+):(\d+)", line).groups()
        self.address = (host, int(port))

    def _read_listening_line(self, deadline: float) -> str:
        fd, buf = self.proc.stdout.fileno(), b""
        while True:
            for line in buf.decode(errors="replace").splitlines(keepends=True):
                if line.endswith("\n") and "listening on" in line:
                    return line
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError("server printed no 'listening on' line in time")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited with code {self.proc.wait()} before listening")
                buf += chunk

    def stop(self) -> None:
        """Stop and reap the server; a traced server writes its spans first."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self in self.run.servers:
            self.run.servers.remove(self)


def _paper_models(rng):
    server = models.generate_random_pdt(N, K, TAU_SERVER, rng)
    user = models.generate_random_pdt(N, K, TAU_CLIENT, rng)
    return server, user


def auth_inproc(run: Run) -> Outcome:
    """One caller: run_interaction, hypothesis_test, and derive_key when accepted."""
    out = Outcome()

    def setup():
        r_models, r_adv = rngs(run.seed, 4)[:2]
        server, user = _paper_models(r_models)
        randoms = [adv.make_random_adversary(N, K, TAU_CLIENT, r_adv) for _ in range(RANDOM_POOL)]
        observed = [
            engine.run_interaction(models.PdtAgent(server), models.PdtAgent(user), L, r_adv, r_adv)
            for _ in range(MLE_OBSERVED)
        ]
        return server, user, randoms, adv.make_mle_adversary(observed, N, K)

    (server, user, randoms, mle), out.setups = repeat_setup(run, setup)
    r_server, r_client = rngs(run.seed, 4)[2:]
    server_agent, user_agent = models.PdtAgent(server), models.PdtAgent(user)
    tally = {kind: [0, 0] for kind in set(INPROC_SCHEDULE)}
    keys, bad_keys, last_legit = set(), 0, None
    start = time.perf_counter()
    deadline = start + run.seconds
    i = 0
    while time.perf_counter() < deadline:
        kind = INPROC_SCHEDULE[i % len(INPROC_SCHEDULE)]
        if kind == "replay" and last_legit is None:
            kind = "random"
        # Impostors are built before the timed call.
        if kind == "replay":
            client = adv.make_replay_adversary(last_legit)
        else:
            client = {"legit": user_agent, "random": randoms[i % RANDOM_POOL], "mle": mle}[kind]
        i += 1
        out.attempted += 1
        if run.tracer is not None:
            run.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            history = engine.run_interaction(server_agent, client, L, r_server, r_client)
            verdict = hypo.hypothesis_test(history, user, ALPHA, MC_SAMPLES, r_server)
            key = engine.derive_key(history, user) if verdict.accept else None
        except Exception as exc:  # counted as a failed operation; the loop goes on
            out.fail(exc)
            continue
        out.calls.append((t0, time.perf_counter(), 1))
        run.clock.sample()
        out.completed += 1
        tally[kind][0] += 1
        tally[kind][1] += verdict.accept
        if kind == "legit":
            last_legit = history
            if key is not None:
                bad_keys += not (isinstance(key, bytes) and len(key) == 32)
                keys.add(key)
    out.window = (start, time.perf_counter())
    out.peak_rss_mb = proc_status_mb("self")
    check_accept_rates(out, tally)
    out.check(f"{tally['legit'][1]} legit keys: 32 bytes each ({bad_keys} not)", bad_keys == 0)
    out.check(f"legit keys pairwise distinct ({len(keys)} distinct)", len(keys) == tally["legit"][1])
    out.detail["sessions"] = {kind: {"run": n, "accepted": a} for kind, (n, a) in tally.items()}
    return out


def tcp_loopback(run: Run) -> Outcome:
    """`agentauth serve` in a child process; TCP_CLIENTS threads loop on
    net.client_authenticate in a closed loop."""
    out = Outcome(threads=TCP_CLIENTS)
    registry = run.workdir / "registry"
    server_model = run.workdir / "server.json"

    def setup():
        r_models, r_adv, r_client = rngs(run.seed, 3 + TCP_CLIENTS)[:3]
        server_m, user_m = _paper_models(r_models)
        pool = [adv.make_random_adversary(N, K, TAU_CLIENT, r_adv).pdt for _ in range(TCP_CLIENTS)]
        registry.mkdir(parents=True, exist_ok=True)
        models.save_pdt(server_m, server_model)
        run.clock.sample(refclock.BURST)  # set-up takes seconds; gauge it on the way
        models.save_pdt(user_m, registry / f"{TCP_USER}.json")
        run.clock.sample(refclock.BURST)
        server = Server(run, registry, server_model)
        run.clock.sample(refclock.BURST)
        # One completed session per registered user belongs to set-up, so
        # work a later version makes lazy is still counted here.
        net.client_authenticate(server.address, TCP_USER, user_m, r_client)
        return server, user_m, pool

    (server, user_m, pool), out.setups = repeat_setup(run, setup, teardown=lambda state: state[0].stop())
    thread_rngs = rngs(run.seed, 3 + TCP_CLIENTS)[3:]
    results = [Outcome() for _ in range(TCP_CLIENTS)]
    tallies = [{"legit": [0, 0], "random": [0, 0], "replay": [0, 0]} for _ in range(TCP_CLIENTS)]
    tag_errors = [[0, 0] for _ in range(TCP_CLIENTS)]  # legit without tag, impostor with tag
    start = time.perf_counter()
    deadline = start + run.seconds

    def client(idx: int):
        res, tally, rng = results[idx], tallies[idx], thread_rngs[idx]
        impostor_model = pool[idx]  # an impostor does not hold the user's model
        last_legit, i = None, 0
        while time.perf_counter() < deadline:
            kind, agent, model = "legit", None, user_m
            if i % TCP_IMPOSTOR_EVERY == TCP_IMPOSTOR_EVERY - 1 and last_legit is not None:
                impostors = i // TCP_IMPOSTOR_EVERY
                kind = "random" if impostors % 2 == 0 else "replay"
                model = impostor_model
                if kind == "replay":
                    agent = adv.make_replay_adversary(last_legit)
            i += 1
            res.attempted += 1
            if run.tracer is not None:
                run.tracer.begin_op()
            t0 = time.perf_counter()
            try:
                r = net.client_authenticate(server.address, TCP_USER, model, rng, client_agent=agent)
            except Exception as exc:  # FrameError, ProtocolError, timeouts: a failed session
                res.fail(exc)
                continue
            t1 = time.perf_counter()
            if kind == "legit" and r.accepted and not r.tag_ok:
                tag_errors[idx][0] += 1
                res.fail(RuntimeError("accepted legit session without a matching confirmation tag"))
                continue
            if kind != "legit" and r.accepted and r.tag_ok:
                tag_errors[idx][1] += 1
            res.calls.append((t0, t1, 1))
            run.clock.sample()
            res.completed += 1
            tally[kind][0] += 1
            tally[kind][1] += r.accepted
            if kind == "legit":
                last_legit = r.history

    cpu0, client_cpu0 = proc_cpu_s(server.proc.pid), _own_cpu_s()
    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(TCP_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=run.seconds + 2 * net.DEFAULT_TIMEOUT + 30)
        if t.is_alive():
            raise RuntimeError("a client thread did not finish")
    out.window = (start, time.perf_counter())
    wall = out.window[1] - start
    out.layer["net.server_cpu_frac"] = (proc_cpu_s(server.proc.pid) - cpu0) / wall
    out.layer["bench.client_cpu_frac"] = (_own_cpu_s() - client_cpu0) / wall
    out.peak_rss_mb = proc_status_mb(server.proc.pid)
    server.stop()
    if server.trace_path is not None:
        with open(server.trace_path) as f:
            out.server_trace = json.load(f)

    tally = {kind: [0, 0] for kind in tallies[0]}
    for res, t in zip(results, tallies):
        out.merge(res)
        for kind, (n, a) in t.items():
            tally[kind][0] += n
            tally[kind][1] += a
    check_accept_rates(out, tally)
    legit_tag_errors = sum(e[0] for e in tag_errors)
    out.check(f"every accepted legit session has tag_ok ({legit_tag_errors} did not)",
              legit_tag_errors == 0)
    impostor_tags = sum(e[1] for e in tag_errors)
    out.check(f"no impostor session holds the key ({impostor_tags} did)", impostor_tags == 0)
    out.detail["sessions"] = {kind: {"run": n, "accepted": a} for kind, (n, a) in tally.items()}
    return out


def _own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def dataset_gen(run: Run) -> Outcome:
    """clf.generate_dataset at the clf dimensions; one operation is one transcript."""
    out = Outcome()

    def setup():
        r_models, r_data = rngs(run.seed, 2)
        server = models.generate_random_pdt(CLF_N, CLF_K, TAU_SERVER, r_models)
        legit = models.generate_random_pdt(CLF_N, CLF_K, TAU_CLIENT, r_models)
        return server, legit, r_data

    (server, legit, rng), out.setups = repeat_setup(run, setup)
    cfg = clf.TrainConfig(n_legit=DATASET_HALF, n_adv=DATASET_HALF)
    per_call = 2 * DATASET_HALF

    def factory(r):
        return adv.make_random_adversary(CLF_N, CLF_K, TAU_CLIENT, r)

    width = 2 * (CLF_L + 1) * CLF_N
    bad_rows = bad_labels = 0
    start = time.perf_counter()
    deadline = start + run.seconds
    while time.perf_counter() < deadline:
        out.attempted += per_call
        if run.tracer is not None:
            run.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            ds = clf.generate_dataset(server, legit, factory, cfg, CLF_L, rng)
        except Exception as exc:  # counted as failed operations; the loop goes on
            out.fail(exc, per_call)
            continue
        out.calls.append((t0, time.perf_counter(), per_call))
        run.clock.sample()
        out.completed += per_call
        x = np.concatenate([ds.x_train, ds.x_test])
        y = np.concatenate([ds.y_train, ds.y_test])
        blocks = x.reshape(len(x), -1, CLF_N) if x.shape == (per_call, width) else None
        one_hot = blocks is not None and np.isin(x, (0.0, 1.0)).all() and (blocks.sum(axis=2) == 1).all()
        bad_rows += not one_hot
        bad_labels += not (np.isin(y, (0.0, 1.0)).all() and y.sum() == DATASET_HALF)
    out.window = (start, time.perf_counter())
    out.peak_rss_mb = proc_status_mb("self")
    calls = out.completed // per_call
    out.check(f"{calls} datasets: rows of width {width} are valid one-hot ({bad_rows} not)",
              calls and bad_rows == 0)
    out.check(f"{calls} datasets: labels balanced {DATASET_HALF}/{DATASET_HALF} ({bad_labels} not)",
              calls and bad_labels == 0)
    return out


def probe_train(run: Run) -> Outcome:
    """rl.train_probe at the probe dimensions, continued PROBE_CHUNK steps at a
    time from the previous policy; one operation is one environment step."""
    out = Outcome()

    def setup():
        r_models, r_train = rngs(run.seed, 2)
        legit = models.generate_random_pdt(PROBE_N, PROBE_K, PROBE_TAU, r_models)
        population_seed = int(np.random.SeedSequence(run.seed).generate_state(1)[0])
        population = adv.sample_population(
            PROBE_N, PROBE_K, PROBE_TAU, PROBE_POPULATION, population_seed
        )
        return rl.ProbeEnvConfig(legit=legit, population=population, episode_length=PROBE_L), r_train

    (cfg, rng), out.setups = repeat_setup(run, setup)
    shape = (cfg.legit.num_nodes, PROBE_N)
    policy, bad_tables = None, 0
    start = time.perf_counter()
    deadline = start + run.seconds
    while time.perf_counter() < deadline:
        out.attempted += PROBE_CHUNK
        if run.tracer is not None:
            run.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            policy = rl.train_probe(cfg, rng, total_steps=PROBE_CHUNK, initial_policy=policy).policy
        except Exception as exc:  # counted as failed operations; the loop goes on
            out.fail(exc, PROBE_CHUNK)
            continue
        out.calls.append((t0, time.perf_counter(), PROBE_CHUNK))
        run.clock.sample()
        out.completed += PROBE_CHUNK
        bad_tables += not (
            policy.preferences.shape == shape and policy.values.shape == shape[:1]
            and np.isfinite(policy.preferences).all() and np.isfinite(policy.values).all()
        )
    out.window = (start, time.perf_counter())
    out.peak_rss_mb = proc_status_mb("self")
    calls = out.completed // PROBE_CHUNK
    out.check(f"{calls} policies: tables of shape {shape} and finite ({bad_tables} not)",
              calls and bad_tables == 0)
    return out


WORKLOADS = {
    "auth_inproc": auth_inproc,
    "tcp_loopback": tcp_loopback,
    "dataset_gen": dataset_gen,
    "probe_train": probe_train,
}
