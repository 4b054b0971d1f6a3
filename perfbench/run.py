#!/usr/bin/env python3
"""Host-time benchmark of the SpGEMM reproduction, in three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload highp-squaring --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-history --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steadiness

The last line of a run is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A failed output check prints
``correct: false`` and exits 1.  ``--steadiness`` runs each workload of
``BENCHMARK.json`` ten times, with seeds 1..10, and prints every end-to-end
metric's median, quartiles and spread against its bound.
See ``perfbench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
clock = time.perf_counter

WORKLOADS = ("highp-squaring", "lowp-kernel", "serve-history")
#: set-ups timed per run; ``setup_s`` is their median
SETUP_REPEATS = {"highp-squaring": 9, "lowp-kernel": 9, "serve-history": 5}
#: runs per workload in ``--steadiness``, seeds 1..STEADINESS_RUNS
STEADINESS_RUNS = 10
#: rows of the grown serve-history store
STORE_ROWS = 3000
#: a serve-history round: jobs, each with cache hits and fresh configs
JOBS_PER_ROUND = 4
HITS_PER_JOB = 6
SERVE_WORKERS = 2


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_environment(work: str) -> None:
    """Keep every file the program writes inside the checkout."""
    for sub in ("datasets", "tmp"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    os.environ["REPRO_DATASET_CACHE_DIR"] = os.path.join(work, "datasets")
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [SRC, HERE]


def peak_rss_mb(pids) -> float:
    """Summed VmHWM (peak resident set) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def children_of(pid: int):
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


# ----------------------------------------------------------------------
# workload make-up
# ----------------------------------------------------------------------

def highp_configs(seed: int):
    """Fig 9 strong-scaling points at high process counts."""
    from repro.experiments import RunConfig

    return [
        RunConfig(dataset=d, algorithm=a, strategy=s, nprocs=p,
                  block_split=32, scale=0.5, seed=seed)
        for d in ("hv15r", "queen")
        for a, s in (("1d", "none"), ("2d", "random"), ("3d", "random"))
        for p in (256, 1024)
    ]


def lowp_configs(seed: int):
    """Kernel-heavy inputs at P=16."""
    from repro.experiments import RunConfig

    squaring = [
        RunConfig(dataset="eukarya", algorithm=a, strategy=s, nprocs=16,
                  block_split=32, scale=2.0, seed=seed)
        for a, s in (("1d", "none"), ("2d", "random"), ("3d", "random"), ("1d", "metis"))
    ]
    triangles = [
        RunConfig(dataset=d, workload="triangles", algorithm="1d", nprocs=16,
                  block_split=32, scale=2.0, seed=seed)
        for d in ("eukarya", "queen")
    ]
    chained = [
        RunConfig(dataset="hv15r", workload="chained-squaring", square_k=2,
                  algorithm="1d", nprocs=16, block_split=32, scale=2.0, seed=seed)
    ]
    return squaring + triangles + chained


def store_configs(seed: int):
    """Distinct configs whose records make up the grown store."""
    from repro.experiments import RunConfig

    return [
        RunConfig(dataset=d, algorithm=a, strategy=s, nprocs=p,
                  block_split=32, scale=0.5, seed=seed)
        for d in ("hv15r", "stokes", "nlpkkt", "eukarya", "queen")
        for a, s in (("1d", "none"), ("2d", "random"), ("3d", "random"))
        for p in (16, 64)
    ]


def fresh_configs(seed: int, serial: int):
    """Two configs no store row or earlier job holds (distinct ``seed``)."""
    from repro.experiments import RunConfig

    unique = seed * 1_000_000 + serial
    return [
        RunConfig(dataset="eukarya", algorithm="1d", strategy="random",
                  nprocs=64, block_split=32, scale=1.0, seed=unique),
        RunConfig(dataset="hv15r", algorithm="2d", strategy="random",
                  nprocs=64, block_split=32, scale=1.0, seed=unique),
    ]


# ----------------------------------------------------------------------
# set-up timing of the sweeps
# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child process: time the program's set-up for a sweep.

    From the first line here (interpreter start excluded): import the
    program, generate the workload's datasets into a cold disk cache, and
    construct the sweep's scheduler.  Prints the seconds.
    """
    t0 = clock()
    from repro.experiments import Scheduler
    from repro.matrices import load_dataset

    for name, scale in sorted({(c.dataset, c.scale) for c in sweep_configs(workload, seed)}):
        load_dataset(name, scale=scale)
    Scheduler(workers=0).shutdown()
    print(repr(clock() - t0))


def sweep_configs(workload: str, seed: int):
    return (highp_configs if workload == "highp-squaring" else lowp_configs)(seed)


def time_sweep_setup(workload: str, seed: int, work: str) -> float:
    samples = []
    for i in range(SETUP_REPEATS[workload]):
        env = dict(os.environ)
        # The first probe fills the run's own dataset cache; the rest start cold.
        if i:
            env["REPRO_DATASET_CACHE_DIR"] = os.path.join(work, f"probe-{i}")
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", workload,
             "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# sweeps: highp-squaring and lowp-kernel
# ----------------------------------------------------------------------

def run_sweep(args, work: str) -> dict:
    import checks
    from spans import Tracer

    from repro.experiments import run_grid

    configs = sweep_configs(args.workload, args.seed)
    setup_s = None if args.trace else time_sweep_setup(args.workload, args.seed, work)
    # Traced runs alternate untraced and traced rounds.  Round 0 is left out
    # of the tracing overhead: it alone generates the datasets, makes the
    # program's lazy imports and fills its caches.  So a traced run needs
    # at least three rounds.
    min_rounds = 3 if args.trace else 2
    tracer = Tracer() if args.trace else None
    rounds = []
    first_records = None
    stores = []
    errors = []
    attempted = failed = 0
    rss = None
    started = clock()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        store = os.path.join(work, f"round-{len(rounds)}.jsonl")
        if traced:
            tracer.install()
        attempted += len(configs)
        try:
            span = tracer.span("bench.job") if traced else contextlib.nullcontext()
            t0 = clock()
            with span:
                result = run_grid(configs, workers=0, store=store)
            t1 = clock()
        except Exception as exc:  # a failed config fails its whole job
            failed += len(configs)
            errors.append(f"round {len(rounds)}: {type(exc).__name__}: {exc}")
            result, t1 = None, clock()
        finally:
            if traced:
                tracer.uninstall()
        if result is not None:
            failed += len(configs) - len(result.records)
            if first_records is None:
                first_records = result.records
            rounds.append({
                "traced": traced, "wall": t1 - t0, "configs": len(result.records),
                "stats": result.stats,
            })
            with open(store, "rb") as fh:
                stores.append(fh.read())
            if rss is None:
                # Read after one round, so the figure does not depend on how
                # many rounds fit in the run.
                rss = peak_rss_mb([os.getpid()])
        else:
            rounds.append({"traced": traced, "wall": t1 - t0, "configs": 0})
        if clock() - started >= args.seconds and len(rounds) >= min_rounds:
            break

    faults = [r["stats"] for r in rounds if r["configs"]]
    print(f"perfbench: {len(rounds)} rounds, {attempted} configs attempted, {failed} failed; "
          f"retries {sum(s.retries for s in faults)} timeouts {sum(s.timeouts for s in faults)} "
          f"respawns {sum(s.respawns for s in faults)}; round walls "
          + " ".join(f"{r['wall']:.3f}" for r in rounds))
    if first_records:
        errors += checks.check_records(first_records)
        errors += checks.check_assembled_products(configs)
    if len(set(stores)) > 1:
        errors.append("stores differ between rounds (passes"
                      + (" with and without the timing wrappers)" if args.trace else ")"))
    untimed = [r for r in rounds if not r["traced"] and r["configs"]]
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"] and r["configs"]]
        metrics = layer_metrics(tracer.spans(), len(traced_rounds))
        cps_u = statistics.median(r["configs"] / r["wall"] for r in untimed if r is not rounds[0])
        cps_t = statistics.median(r["configs"] / r["wall"] for r in traced_rounds)
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - cps_t / cps_u), "%")
        stats = [r["stats"] for r in traced_rounds]
        for name, field in (("residency_hits", "residency_hits"),
                            ("residency_misses", "residency_misses"),
                            ("cache_hits", "cached")):
            per_round = sum(getattr(s, field) for s in stats) / len(stats)
            metrics[f"experiments.{name}"] = (per_round, "count")
        metrics["experiments.store_bytes"] = (len(stores[0]), "B")
        add_record_counts(metrics, first_records or [])
        report_layers(args, tracer.spans(), metrics, len(traced_rounds))
        values = metrics
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "configs_per_s": (
                sum(r["configs"] for r in untimed) / sum(r["wall"] for r in untimed), "1/s"),
            "job_latency_p50_s": (statistics.median(r["wall"] for r in untimed), "s"),
            # run_grid is blocking: it acknowledges a job only by returning
            # its records, so a sweep's submit latency is its job latency.
            "submit_latency_p50_s": (statistics.median(r["wall"] for r in untimed), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    return {"errors": errors, "attempted": attempted, "failed": failed, "values": values}


# ----------------------------------------------------------------------
# per-layer metrics from a traced run
# ----------------------------------------------------------------------

#: (metric stem, layer, name of its call count or None); times are self times
LAYERS = [
    ("runtime.window_get", "runtime.window_get", "runtime.window_get_calls"),
    ("runtime.charge", "runtime.charge", "runtime.charge_calls"),
    ("runtime.cluster", "runtime.cluster", None),
    ("core.plan", "core.plan", "core.plan_calls"),
    ("core.estimate", "core.estimate", "core.estimate_calls"),
    ("core.prepare", "core.prepare", None),
    ("core.execute", "core.execute", None),
    ("sparse.kernel", "sparse.kernel", "sparse.kernel_calls"),
    ("sparse.assemble", "sparse.assemble", None),
    ("partition.ordering", "partition.ordering", None),
    ("matrices.load", "matrices.load", "matrices.load_calls"),
    ("experiments.record_build", "experiments.record_build", None),
    ("experiments.store_load", "experiments.store_load", "experiments.store_load_calls"),
    ("experiments.store_append", "experiments.store_append", "experiments.store_appends"),
    ("experiments.journal_append", "experiments.journal_append", "experiments.journal_appends"),
    ("experiments.submit", "experiments.submit", None),
    ("service.results", "service.results", None),
]


def layer_metrics(spans: list, rounds: float, since: float = float("-inf")) -> dict:
    """Per-round per-layer metrics: self seconds, call counts, derived rates."""
    from spans import layer_totals

    totals, counts = layer_totals(spans, since)
    per = 1.0 / rounds
    out = {}
    for stem, layer, calls_name in LAYERS:
        calls, _total, own = totals.get(layer, (0, 0.0, 0.0))
        out[f"{stem}_s"] = (own * per, "s")
        if calls_name:
            out[calls_name] = (calls * per, "count")
    flops = counts.get("sparse.flops", 0) * per
    out["sparse.flops"] = (flops, "count")
    kernel_s = out["sparse.kernel_s"][0]
    out["sparse.kernel_flops_per_s"] = (flops / kernel_s if kernel_s else 0.0, "1/s")
    # Queue wait: each executed config waits from its job's submit returning
    # until it starts; one job is in flight at a time in every workload, so
    # its job is the latest submit that ended before it started.
    timed = [s for s in spans if s["start"] >= since]
    submits = sorted(s["end"] for s in timed if s["name"] == "experiments.submit")
    wait = 0.0
    for s in timed:
        if s["name"] == "experiments.config":
            before = [end for end in submits if end <= s["start"]]
            if before:
                wait += s["start"] - before[-1]
    out["experiments.queue_wait_s"] = (wait * per, "s")
    _calls, config_total, unattributed = totals.get("experiments.config", (0, 0.0, 0.0))
    out["trace.unattributed_s"] = (unattributed * per, "s")
    out["trace.coverage_pct"] = (
        100.0 * (1.0 - unattributed / config_total) if config_total else 0.0, "%"
    )
    return out


def add_record_counts(metrics: dict, records) -> None:
    """Modelled counters summed over one round's records (exact repeats)."""
    metrics["runtime.modelled_bytes"] = (sum(r.communication_volume for r in records), "B")
    metrics["runtime.modelled_messages"] = (sum(r.message_count for r in records), "count")
    metrics["runtime.rdma_gets"] = (sum(r.rdma_gets for r in records), "count")


#: layers that run around configs rather than inside them; ``service.*``
#: are the client's side of the socket verbs
AROUND_CONFIGS = ("experiments.submit", "experiments.store_load",
                  "experiments.store_append", "experiments.journal_append",
                  "service.submit", "service.stream", "service.results")


def report_layers(args, spans: list, metrics: dict, rounds: float,
                  since: float = float("-inf")) -> None:
    """Print the per-layer table; write it and a Chrome trace to .perfbench-out.

    Layers inside configs are shown as a share of config wall time, the
    layers around them as a share of job wall time (submit to results).
    """
    from spans import chrome_trace, layer_totals

    totals, _counts = layer_totals(spans, since)
    config_wall = totals.get("experiments.config", (0, 0.0, 0.0))[1] / rounds
    job_wall = totals.get("bench.job", (0, 0.0, 0.0))[1] / rounds
    lines = [f"per-layer self time, {args.workload} seed {args.seed}, per round",
             f"{'layer':34s} {'calls':>10s} {'self s':>10s} {'share':>7s}"]

    def row(layer, wall):
        calls, _total, own = totals.get(layer, (0, 0.0, 0.0))
        share = 100.0 * own / rounds / wall if wall else 0.0
        lines.append(f"{layer:34s} {calls / rounds:10.0f} {own / rounds:10.4f} {share:6.1f}%")

    lines.append(f"-- inside configs: share of {config_wall:.3f}s config wall per round")
    inside = [layer for layer in totals
              if layer not in AROUND_CONFIGS and not layer.startswith("bench.")]
    for layer in sorted(inside, key=lambda name: -totals[name][2]):
        row(layer, config_wall)
    lines.append(f"{'(unattributed within configs)':34s} {'':10s} "
                 f"{metrics['trace.unattributed_s'][0]:10.4f} "
                 f"{100.0 - metrics['trace.coverage_pct'][0]:6.1f}%")
    lines.append(f"-- around configs: share of {job_wall:.3f}s job wall per round")
    for layer in AROUND_CONFIGS:
        row(layer, job_wall)
    lines.append(f"tracing overhead on configs_per_s: {metrics['trace.overhead_pct'][0]:.1f}%")
    table = "\n".join(lines)
    print(table)
    out = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "layers.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    with open(os.path.join(out, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh)
    print(f"perfbench: wrote {out}/layers.txt and trace.json")


# ----------------------------------------------------------------------
# serve-history: one closed-loop client of `repro serve --journal`
# ----------------------------------------------------------------------

def grow_store(path: str, seed: int):
    """Write STORE_ROWS real records: each distinct config's record, re-appended
    as ``force`` re-runs append it.  Returns {hash: record}."""
    from repro.experiments import ResultStore, execute_config

    records = [execute_config(c) for c in store_configs(seed)]
    rows = [records[i % len(records)] for i in range(STORE_ROWS)]
    ResultStore(path).append(rows)
    return {r.config_hash: r for r in records}


class Service:
    """One ``repro serve --journal`` process and a client connected to it."""

    def __init__(self, work: str, store: str, journal: str, trace_dir=None):
        from repro.experiments import ServiceClient

        cmd = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["--", "--port", "0", "--workers", str(SERVE_WORKERS),
                "--records", store, "--journal", journal]
        self.log = open(os.path.join(work, "serve.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log)
        t0 = None
        address = None
        deadline = time.monotonic() + 120
        while address is None and time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            if line.startswith("t0 "):
                t0 = float(line.split()[1])
            elif "listening on tcp:" in line:
                address = line.rsplit("tcp:", 1)[1].strip()
        if address is None or t0 is None:
            self.stop()
            with open(os.path.join(work, "serve.log"), "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            raise RuntimeError(f"repro serve did not start:\n{tail}")
        host, port = address.rsplit(":", 1)
        self.client = ServiceClient(host=host, port=int(port), timeout=120.0)
        if not self.client.ping().get("pong"):
            self.stop()
            raise RuntimeError("repro serve did not answer ping")
        self.setup_s = clock() - t0

    def rss_mb(self) -> float:
        return peak_rss_mb([self.proc.pid] + children_of(self.proc.pid))

    def stop(self) -> None:
        """Ask the service to shut down and wait; kill it if it cannot be
        asked or does not stop within a minute."""
        client = getattr(self, "client", None)
        asked = False
        if client is not None:
            try:
                asked = bool(client.shutdown().get("ok"))
            except (OSError, ValueError):
                pass
            client.close()
            self.client = None
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=60 if asked else 0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def run_job(client, configs, tracer=None):
    """Submit, drain the progress stream, fetch results.  Returns timings.

    With ``tracer``, the client's side of the job is recorded as spans too.
    """
    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    with span("bench.job") as job:
        t0 = clock()
        with span("service.submit"):
            ack = client.submit(configs=[c.as_dict() for c in configs], stream=True)
        t_ack = clock()
        if not ack.get("ok"):
            return {"ok": False, "error": ack.get("error"), "rejected": ack.get("rejected")}
        if job is not None:
            job.ctx = job.owner["ctx"] = ack["job_id"]
        with span("service.stream"):
            for _event in client.events():
                pass
        with span("service.results"):
            reply = client.results(ack["job_id"])
        t1 = clock()
    return {"ok": bool(reply.get("ok")), "error": reply.get("error"),
            "job_id": ack["job_id"], "records": reply.get("records") or [],
            "submit": t_ack - t0, "latency": t1 - t0,
            "cached": ack["counters"].get("cached", 0)}


def serve_phase(args, work, store, journal, hits, *, serial0, seconds,
                trace_dir=None, tracer=None, setups=1):
    """Start the service ``setups`` times (keeping the last), warm it with
    one untimed job, then run whole rounds of jobs for ``seconds``."""
    import random

    setup_times = []
    service = None
    try:
        for i in range(setups):
            service = Service(work, store, journal,
                              trace_dir=trace_dir if i == setups - 1 else None)
            setup_times.append(service.setup_s)
            if i < setups - 1:
                service.stop()
        hit_hashes = sorted(hits)
        rng = random.Random(args.seed)
        warm = run_job(service.client, fresh_configs(args.seed, serial0)
                       + [hits[hit_hashes[0]].config])
        if not warm["ok"]:
            raise RuntimeError(f"warm-up job failed: {warm['error']}")
        jobs = []
        serial = serial0 + 1
        started = clock()
        while not jobs or clock() - started < seconds:
            for _ in range(JOBS_PER_ROUND):
                chosen = rng.sample(hit_hashes, HITS_PER_JOB)
                fresh = fresh_configs(args.seed, serial)
                serial += 1
                configs = [hits[h].config for h in chosen] + fresh
                job = run_job(service.client, configs, tracer)
                job.update(configs=configs, hit_hashes=chosen, fresh=fresh)
                jobs.append(job)
        wall = clock() - started
        stats = service.client.stats()
        rss = service.rss_mb()
    finally:
        if service is not None:
            service.stop()
    return {"jobs": jobs, "started": started, "wall": wall, "setup": setup_times,
            "stats": stats, "rss": rss}


def check_serve(phase, hits) -> list:
    """Hits come back as the store's rows; fresh configs byte-equal an
    in-process ``execute_config`` (first round); every record passes the
    scipy checks."""
    import checks
    from repro.experiments import RunRecord, execute_config

    errors = []
    first = phase["jobs"][:JOBS_PER_ROUND]
    delivered = []
    for job in phase["jobs"]:
        if not job["ok"]:
            continue
        by_hash = {r["config_hash"]: r for r in job["records"]}
        for h in job["hit_hashes"]:
            if by_hash.get(h) != hits[h].to_dict():
                errors.append(f"{job['job_id']}: cache hit {h} differs from its store row")
        delivered += [RunRecord.from_dict(r) for r in job["records"]]
    for job in first:
        if not job["ok"]:
            continue
        by_hash = {r["config_hash"]: r for r in job["records"]}
        for config in job["fresh"]:
            want = execute_config(config).to_json_line()
            got = RunRecord.from_dict(by_hash[config.config_hash()]).to_json_line()
            if got != want:
                errors.append(f"{job['job_id']}: fresh record {config.config_hash()} "
                              "differs from in-process execute_config")
    errors += checks.check_records(delivered)
    return errors


def run_serve(args, work: str) -> dict:
    from spans import Tracer, load_dumps

    store = os.path.join(work, "store.jsonl")
    journal = os.path.join(work, "journal")
    hits = grow_store(store, args.seed)
    grown_bytes = os.path.getsize(store)
    phases = []
    if args.trace:
        # Untraced then traced service on the same store, half the time each.
        trace_dir = os.path.join(work, "spans")
        client_tracer = Tracer()
        phases.append(serve_phase(args, work, store, journal, hits, serial0=0,
                                  seconds=args.seconds / 2))
        phases.append(serve_phase(args, work, store, journal, hits, serial0=500_000,
                                  seconds=args.seconds / 2, trace_dir=trace_dir,
                                  tracer=client_tracer))
    else:
        phases.append(serve_phase(args, work, store, journal, hits, serial0=0,
                                  seconds=args.seconds, setups=SETUP_REPEATS["serve-history"]))
    errors = []
    attempted = failed = 0
    for phase in phases:
        for job in phase["jobs"]:
            attempted += len(job["configs"])
            if not job["ok"]:
                failed += len(job["configs"])
                errors.append(f"job failed: {job['error']}")
        errors += check_serve(phase, hits)
    jobs = [j for p in phases for j in p["jobs"]]
    faults = phases[-1]["stats"].get("faults", {})
    print(f"perfbench: {len(jobs)} jobs, {attempted} configs attempted, {failed} failed, "
          f"{sum(1 for j in jobs if j.get('rejected'))} rejected; service faults: "
          f"retries {faults.get('retries')} timeouts {faults.get('timeouts')} "
          f"respawns {faults.get('respawns')}")

    def cps(phase):
        done = sum(len(j["records"]) for j in phase["jobs"] if j["ok"])
        return done / phase["wall"]

    ok_jobs = [j for j in phases[-1]["jobs"] if j["ok"]]
    if args.trace:
        spans = load_dumps(os.path.join(work, "spans")) + client_tracer.spans()
        since = phases[-1]["started"]
        rounds = len(phases[-1]["jobs"]) / JOBS_PER_ROUND
        metrics = layer_metrics(spans, rounds, since)
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - cps(phases[1]) / cps(phases[0])), "%")
        # The service's residency counters run from its start, so they
        # include the warm-up job's loads.
        residency = phases[-1]["stats"].get("residency", {})
        metrics["experiments.residency_hits"] = (residency.get("hits", 0) / rounds, "count")
        metrics["experiments.residency_misses"] = (residency.get("misses", 0) / rounds, "count")
        metrics["experiments.cache_hits"] = (sum(j["cached"] for j in ok_jobs) / rounds, "count")
        metrics["experiments.store_bytes"] = (grown_bytes, "B")
        from repro.experiments import RunRecord

        add_record_counts(metrics, [RunRecord.from_dict(r) for j in ok_jobs[:JOBS_PER_ROUND]
                                    for r in j["records"]])
        report_layers(args, spans, metrics, rounds, since)
        values = metrics
    else:
        phase = phases[0]
        values = {
            "setup_s": (statistics.median(phase["setup"]), "s"),
            "configs_per_s": (cps(phase), "1/s"),
            "job_latency_p50_s": (statistics.median(j["latency"] for j in ok_jobs), "s"),
            "submit_latency_p50_s": (statistics.median(j["submit"] for j in ok_jobs), "s"),
            "peak_rss_mb": (phase["rss"], "MB"),
        }
    return {"errors": errors, "attempted": attempted, "failed": failed, "values": values}


# ----------------------------------------------------------------------
# steadiness mode
# ----------------------------------------------------------------------

def steadiness(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        shares = []
        for seed in range(1, STEADINESS_RUNS + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode or not result["correct"]:
                print(out.stdout + out.stderr)
                status = 1
            shares.append(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        print(f"{workload}: {STEADINESS_RUNS} runs of {seconds}s, failed share "
              f"{sorted(set(shares))}")
        print(f"  {'metric':24s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}  spread < bound/3")
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = spread < bounds[name] / 3
            print(f"  {name:24s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{100 * spread:6.1f}% {100 * bounds[name]:5.0f}%  {'yes' if steady else 'NO'}")
    return status


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--setup-probe", choices=WORKLOADS[:2], default=None)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail_setup(f"no program source at {SRC}/repro; run from a checkout root")
    if args.setup_probe:
        sys.path[:0] = [SRC, HERE]
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.steadiness:
        return steadiness(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")

    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    prepare_environment(work)
    try:
        run = run_serve if args.workload == "serve-history" else run_sweep
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in result["errors"]:
        print(f"perfbench: CHECK FAILED: {error}")
    correct = not result["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["values"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
