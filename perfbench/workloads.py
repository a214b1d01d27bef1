"""The benchmark's four workloads.

Each workload writes its inputs from the seed, runs whole rounds of the
same operations, checks every output against a computation made apart
from the simulator (or a property the method must have), and turns the
measurements into metrics.  Untraced operations go through the sstsim /
sstdse binaries; traced ones go through the per-layer driver
(perfbench_layers), which times its calls into the libraries.
"""

import collections
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import threading
import time

import gen

PARALLEL = min(4, os.cpu_count() or 1)  # ranks of a parallel leg
# Sweep concurrency: one CPU fewer than the parallel legs, so the sstdse
# parent, which dispatches points and appends the ledger while its jobs
# run, does not compete with them.  On a shared 4-vCPU host, 4-job sweep
# times swung twice as much as 3-job ones from one 25 s stretch to the next.
SWEEP_JOBS = max(1, PARALLEL - 1)
OP_TIMEOUT_S = 60
DONE_RE = re.compile(r"done: t=(\d+) ps, (\d+) events, (\S+) s wall")

# Per-layer metrics reported with --trace 1 (name -> unit).  A workload
# reports 0 for a layer it does not exercise.
PER_LAYER = {
    "sdl.parse_s": "s", "sdl.validate_s": "s", "sdl.build_s": "s",
    "core.init_s": "s", "core.run_s": "s", "core.host_ns_per_event": "ns",
    "core.events": "count", "core.clock_ticks": "count",
    "core.vortex_depth_mean": "count", "core.sync_windows": "count",
    "core.cross_rank_events": "count", "core.mailbox_received": "count",
    "core.exchange_flushes": "count", "core.barrier_wait_s": "s",
    "core.barrier_wait_share": "ratio", "core.rank_event_imbalance": "ratio",
    "proc.instructions": "count", "proc.ipc": "instr/cycle",
    "proc.host_ns_per_instr": "ns",
    "mem.l1_accesses": "count", "mem.l1_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio", "mem.dram_accesses": "count",
    "mem.dram_row_hit_ratio": "ratio", "mem.bus_transactions": "count",
    "vm.translations": "count", "vm.tlb_miss_ratio": "ratio",
    "vm.walks": "count", "vm.pte_reads": "count",
    "vm.walk_cache_hit_ratio": "ratio", "vm.shootdowns": "count",
    "vm.host_overhead_s": "s",
    "net.tokens_forwarded": "count", "net.tokens_in_flight": "count",
    "ckpt.checkpoints": "count", "ckpt.write_s": "s",
    "ckpt.snapshot_bytes": "B", "ckpt.restore_s": "s",
    "ckpt.rebalance_passes": "count", "ckpt.components_migrated": "count",
    "ckpt.imbalance_before": "ratio", "ckpt.imbalance_after": "ratio",
    "obs.stats_write_s": "s", "obs.stats_bytes": "B",
    "dse.points": "count", "dse.exec_s": "s", "dse.point_s": "s",
    "dse.dispatch_overhead_s": "s", "dse.ledger_append_s": "s",
    "dse.aggregate_s": "s",
    "daemon.point_s": "s",
    "e2e.serial_events_per_s": "events/s",
    "e2e.speedup_vs_serial": "x", "e2e.sim_instr_per_s": "instr/s",
    "e2e.points_per_s": "points/s",
    "bench.trace_overhead_s": "s",
}

# Driver phase -> span name (the layer that owns the call).
PHASE_SPANS = {
    "read": "sdl.read", "parse": "sdl.parse", "validate": "sdl.validate",
    "build": "sdl.build", "init": "core.init", "run": "core.run",
    "stats_write": "obs.stats_write", "restore": "ckpt.restore",
    "sweep": "dse.run_sweep", "aggregate": "dse.report",
}


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def median(xs):
    return statistics.median(xs)


def fast_tail(xs, higher_is_better=False):
    """The 10th percentile of a series (the 90th if higher is better)."""
    if len(xs) < 2:
        return xs[0]
    q = statistics.quantiles(xs, n=10, method="inclusive")
    return q[-1] if higher_is_better else q[0]


# One finished process: exit code, monotonic time just before the spawn,
# spawn-to-exit wall seconds, peak RSS in MiB (the largest of the process
# and the children it waited for, wait4 ru_maxrss), stdout and stderr.
Proc = collections.namedtuple("Proc", "rc start wall rss out err")


def launch(argv, cwd, log):
    """Runs one process to its end and returns its Proc."""
    out_path, err_path = log + ".out", log + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t = time.monotonic()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL)
        timer = threading.Timer(OP_TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.monotonic() - t
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return Proc(p.returncode, t, wall, usage.ru_maxrss / 1024.0, stdout,
                stderr)


def load_stats(path):
    with open(path) as f:
        return {(r["component"], r["statistic"]): r["fields"]
                for r in json.load(f)}


def model_stats(path):
    """The stats file without the engine's own (rank-dependent) entries."""
    with open(path) as f:
        return [r for r in json.load(f)
                if not r["component"].startswith("engine.")]


def count(stats, comp, stat):
    return stats[(comp, stat)]["count"]


def total(stats, stat):
    return sum(f["count"] for (c, s), f in stats.items() if s == stat
               and not c.startswith("engine."))


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


class Workload:
    """Shared machinery: operations, round loop, traced driver calls."""

    name = ""

    def __init__(self, bins, wdir, seed, tracer):
        self.bins, self.wdir, self.seed, self.tracer = bins, wdir, seed, tracer
        self.attempted = self.failed = 0
        self.samples = {}   # metric series from untraced operations
        self.layers = {}    # per-layer series from traced operations
        self.rounds = 0

    # -- helpers ----------------------------------------------------------
    def path(self, *parts):
        return os.path.join(self.wdir, *parts)

    def add(self, key, value, series=None):
        (self.samples if series is None else series).setdefault(
            key, []).append(value)

    def sim(self, tag, model, ranks, extra=()):
        """One untraced sstsim run writing JSON stats; counts as one
        attempted operation.  Returns the run record, or None if it
        failed."""
        stats = self.path(f"{tag}.stats.json")
        argv = [self.bins["sstsim"], model, "--ranks", str(ranks),
                "--stats", stats] + list(extra)
        p = launch(argv, self.wdir, self.path(tag))
        self.attempted += 1
        m = DONE_RE.search(p.err)
        if p.rc != 0 or m is None:
            self.failed += 1
            return None
        return {"wall": p.wall, "rss": p.rss, "stats": stats,
                "events": int(m.group(2)), "engine_wall": float(m.group(3))}

    def driver(self, span, args):
        """One traced call of the per-layer driver; its phases become
        child spans.  A failing driver call is a failed check."""
        with self.tracer.span(span) as rec:
            p = launch([self.bins["layers"]] + args, self.wdir,
                       self.path("driver"))
        check(p.rc == 0,
              f"driver {' '.join(args)} exited {p.rc}: {p.err[-500:]}")
        res = json.loads(p.out.strip().splitlines()[-1])
        for phase, name in PHASE_SPANS.items():
            if "t_" + phase in res:
                start = res["t_" + phase]
                self.tracer.add(name, start, start + res[phase + "_s"],
                                parent=rec["id"])
        res["wall"] = p.wall
        return res

    def measure(self, seconds):
        """Whole rounds until `seconds` have passed (at least one).  An
        untraced round starts with one cold set-up of the workload's
        model."""
        t0 = time.monotonic()
        while True:
            if self.tracer is None:
                self.add("setup_s", self.cold_setup())
                self.round(self.rounds)
            else:
                with self.tracer.span("round"):
                    if self.round(self.rounds):
                        self.traced_round(self.rounds)
            self.rounds += 1
            if time.monotonic() - t0 >= seconds:
                break

    def setup_args(self):
        """Model and overrides of the set-up setup_s times: those of the
        run wall_s times (of one point, on the sweep)."""
        return [self.model]

    def cold_setup(self):
        """Seconds from the spawn of a fresh driver process to its first
        simulated event: exec and loading, then read, parse, validate,
        build and initialize of the workload's model."""
        p = launch([self.bins["layers"], "model"] + self.setup_args()
                   + ["--setup-only"], self.wdir, self.path("setup"))
        check(p.rc == 0, f"set-up of {self.model} failed: {p.err[-500:]}")
        return json.loads(p.out.strip().splitlines()[-1])["t_initialized"] \
            - p.start

    def layer_metrics(self):
        out = {k: (0, u) for k, u in PER_LAYER.items()}
        for k, series in self.layers.items():
            out[k] = (median(series), PER_LAYER[k])
        out["e2e.serial_events_per_s"] = (
            fast_tail(self.samples["serial_events_per_s"], True), "events/s")
        return out

    def model_layers(self, res, stats_path):
        """sdl/core/obs figures of one traced driver run."""
        lay = self.layers
        for phase in ("parse", "validate", "build"):
            self.add(f"sdl.{phase}_s", res[phase + "_s"], lay)
        self.add("core.init_s", res["init_s"], lay)
        self.add("core.run_s", res["run_s"], lay)
        self.add("core.host_ns_per_event", res["run_s"] * 1e9 / res["events"],
                 lay)
        self.add("core.events", res["events"], lay)
        self.add("core.clock_ticks", res["clock_ticks"], lay)
        self.add("core.sync_windows", res["sync_windows"], lay)
        self.add("core.cross_rank_events", res["cross_rank_events"], lay)
        self.add("core.exchange_flushes", res["exchange_flushes"], lay)
        self.add("obs.stats_write_s", res["stats_write_s"], lay)
        self.add("obs.stats_bytes", res["stats_bytes"], lay)
        stats = load_stats(stats_path)
        ranks = [c for (c, s) in stats if s == "events_processed"]
        if len(ranks) > 1:
            waits = [stats[(c, "barrier_wait_seconds")]["sum"] for c in ranks]
            events = [count(stats, c, "events_processed") for c in ranks]
            self.add("core.barrier_wait_s", sum(waits), lay)
            self.add("core.barrier_wait_share",
                     sum(waits) / (len(ranks) * res["run_s"]), lay)
            self.add("core.rank_event_imbalance",
                     max(events) / (sum(events) / len(events)), lay)
            self.add("core.mailbox_received",
                     sum(count(stats, c, "mailbox_received") for c in ranks),
                     lay)
            self.add("core.vortex_depth_mean",
                     sum(stats[(c, "vortex_depth")]["mean"] for c in ranks),
                     lay)
        return stats

    def same_model_output(self, traced_stats, untraced_stats):
        check(model_stats(traced_stats) == model_stats(untraced_stats),
              f"{traced_stats}: simulated counts differ between the traced "
              f"and the untraced run")

    def overhead(self, traced_wall, untraced_wall):
        self.add("bench.trace_overhead_s", traced_wall - untraced_wall,
                 self.layers)

    def final_checks(self):
        pass

    def end_to_end(self):
        """Times are the 10th percentile of the run's repeats and rates the
        90th.  On a shared host, interference from other tenants only adds
        time, in episodes that move the median of a run's repeats far more
        than its fast tail; the fastest repeat alone is no better, since a
        parallel leg now and then finishes well ahead of its usual pace."""
        s = self.samples
        return {"wall_s": (fast_tail(s["wall_s"]), "s"),
                "setup_s": (fast_tail(s["setup_s"]), "s"),
                "events_per_s": (fast_tail(s["events_per_s"], True),
                                 "events/s"),
                "peak_rss_mb": (median(s["rss"]), "MiB")}


# ---------------------------------------------------------------------------

class NodeTranslate(Workload):
    """One serial node: GUPS behind a TLB and page-table walker plus an
    HPCCG core, over a shared bus, L1, L2 and DDR3 controller."""

    name = "node_translate"

    def generate(self):
        self.model = self.path("node.json")
        write_json(self.model, gen.node_translate(self.seed))
        self.gups, self.hpccg = gen.gups_expected(), gen.hpccg_expected()

    def round(self, i):
        r = self.sim("node", self.model, 1)
        if r is None:
            return False
        self.check_node(load_stats(r["stats"]))
        rate = r["events"] / r["engine_wall"]
        self.add("wall_s", r["wall"])
        self.add("events_per_s", rate)
        self.add("serial_events_per_s", rate)  # the node only runs serially
        self.add("rss", r["rss"])
        self.add("instr_per_s",
                 (self.gups["instructions"] + self.hpccg["instructions"])
                 / r["engine_wall"])
        self.last = r
        return True

    def check_node(self, s):
        for core, exp in (("gups", self.gups), ("hpccg", self.hpccg)):
            for stat in ("instructions", "loads", "stores"):
                check(count(s, core, stat) == exp[stat],
                      f"{core}.{stat} = {count(s, core, stat)}, the kernel "
                      f"defines {exp[stat]}")
            cyc = s[(core, "final_cycles")]["sum"]
            ipc = s[(core, "final_ipc")]["sum"]
            check(abs(ipc - exp["instructions"] / cyc) <= 1e-9 * ipc,
                  f"{core}.final_ipc {ipc} != instructions / final_cycles")
        lookups = count(s, "tlb", "l1_hits") + count(s, "tlb", "l1_misses")
        check(lookups == self.gups["loads"] + self.gups["stores"],
              f"TLB lookups {lookups} != GUPS loads + stores")
        check(count(s, "tlb", "walks") == count(s, "ptw", "walks"),
              "tlb.walks != ptw.walks")
        l1 = count(s, "l1", "hits") + count(s, "l1", "misses")
        demand = self.gups["requests"] + self.hpccg["requests"]
        check(l1 == demand + count(s, "ptw", "pte_reads"),
              f"L1 accesses {l1} != demand requests {demand} + PTE reads")
        # Every L2 fetch reaches DRAM: misses that did not join an
        # in-flight miss, plus prefetches.  A miss parked on a full MSHR
        # table may hit when replayed, so stalls bound the difference.
        fetches = (count(s, "l2", "misses") - count(s, "l2", "mshr_merges")
                   + count(s, "l2", "prefetches"))
        reads = count(s, "mc", "reads")
        check(fetches - count(s, "l2", "stalls") <= reads <= fetches,
              f"DRAM reads {reads} vs L2 fetches {fetches}")
        # Writes: L2 victims, plus L1 victims that missed in the L2.
        writes, wb2 = count(s, "mc", "writes"), count(s, "l2", "writebacks")
        check(wb2 <= writes <= wb2 + count(s, "l1", "writebacks"),
              f"DRAM writes {writes} outside the writeback bounds")

    def traced_round(self, i):
        stats = self.path("node.traced.json")
        res = self.driver("node", ["model", self.model, "--profile",
                                   "--stats", stats])
        self.same_model_output(stats, self.last["stats"])
        self.overhead(res["wall"], self.last["wall"])
        s = self.model_layers(res, stats)
        off = self.driver("node.vm_off", [
            "model", self.model, "--override", "/vm/enable=false"])
        lay = self.layers
        self.add("vm.host_overhead_s", res["run_s"] - off["run_s"], lay)
        instr = count(s, "gups", "instructions") + count(s, "hpccg",
                                                         "instructions")
        cycles = s[("gups", "final_cycles")]["sum"] + s[
            ("hpccg", "final_cycles")]["sum"]
        self.add("proc.instructions", instr, lay)
        self.add("proc.ipc", instr / cycles, lay)
        self.add("proc.host_ns_per_instr", res["run_s"] * 1e9 / instr, lay)
        l1 = count(s, "l1", "hits") + count(s, "l1", "misses")
        l2 = count(s, "l2", "hits") + count(s, "l2", "misses")
        dram = count(s, "mc", "reads") + count(s, "mc", "writes")
        self.add("mem.l1_accesses", l1, lay)
        self.add("mem.l1_miss_ratio", count(s, "l1", "misses") / l1, lay)
        self.add("mem.l2_miss_ratio", count(s, "l2", "misses") / l2, lay)
        self.add("mem.dram_accesses", dram, lay)
        self.add("mem.dram_row_hit_ratio", count(s, "mc", "row_hits") /
                 (count(s, "mc", "row_hits") + count(s, "mc", "row_misses")),
                 lay)
        self.add("mem.bus_transactions", count(s, "bus", "transactions"), lay)
        tr = count(s, "tlb", "l1_hits") + count(s, "tlb", "l1_misses")
        walks, ptes = count(s, "ptw", "walks"), count(s, "ptw", "pte_reads")
        self.add("vm.translations", tr, lay)
        self.add("vm.tlb_miss_ratio", count(s, "tlb", "l2_misses") / tr, lay)
        self.add("vm.walks", walks, lay)
        self.add("vm.pte_reads", ptes, lay)
        hits = count(s, "ptw", "walk_cache_hits")
        self.add("vm.walk_cache_hit_ratio", hits / (hits + ptes), lay)
        self.add("vm.shootdowns", count(s, "tlb", "shootdowns"), lay)
        self.add("e2e.sim_instr_per_s", self.samples["instr_per_s"][-1], lay)


# ---------------------------------------------------------------------------

class TorusWorkload(Workload):
    """A serial leg and a PARALLEL-rank leg of the same torus model per
    round, alternating which goes first.  The parallel leg may run the
    model with extra SDL sections (parallel_model) that leave its
    statistics unchanged."""

    def parallel_extra(self, i):
        return []

    def setup_args(self):
        # The parallel leg's set-up, mincut partition included.
        return [self.parallel_model, "--override",
                f"/config/num_ranks={PARALLEL}"]

    def round(self, i):
        legs = [("serial", 1), ("parallel", PARALLEL)]
        if i % 2:
            legs.reverse()
        runs = {}
        for leg, ranks in legs:
            if leg == "parallel":
                runs[leg] = self.sim(f"{leg}{i % 2}", self.parallel_model,
                                     ranks, self.parallel_extra(i))
            else:
                runs[leg] = self.sim(f"{leg}{i % 2}", self.model, ranks)
        ser, par = runs["serial"], runs["parallel"]
        if ser is None or par is None:
            return False
        self.check_torus(ser, par)
        self.add("wall_s", par["wall"])
        self.add("events_per_s", par["events"] / par["engine_wall"])
        self.add("serial_events_per_s", ser["events"] / ser["engine_wall"])
        self.add("rss", par["rss"])
        self.add("speedup", ser["wall"] / par["wall"])
        self.last = runs
        return True

    def check_torus(self, ser, par):
        with open(ser["stats"], "rb") as a, open(par["stats"], "rb") as b:
            check(a.read() == b.read(),
                  f"{PARALLEL}-rank stats differ from the serial stats")
        check(par["events"] == ser["events"],
              "parallel and serial event counts differ")
        s = load_stats(ser["stats"])
        received = total(s, "received")
        self.check_tokens(total(s, "forwarded") - received, received,
                          ser["events"])

    def traced_legs(self, par_args=()):
        lay = self.layers
        ser_stats = self.path("serial.traced.json")
        par_stats = self.path("parallel.traced.json")
        self.driver("serial", ["model", self.model, "--profile",
                               "--stats", ser_stats])
        par = self.driver("parallel", [
            "model", self.parallel_model, "--profile", "--override",
            f"/config/num_ranks={PARALLEL}", "--stats", par_stats]
            + list(par_args))
        self.same_model_output(ser_stats, self.last["serial"]["stats"])
        self.same_model_output(par_stats, self.last["serial"]["stats"])
        self.overhead(par["wall"], self.last["parallel"]["wall"])
        s = self.model_layers(par, par_stats)
        self.add("net.tokens_forwarded", total(s, "forwarded"), lay)
        self.add("net.tokens_in_flight",
                 total(s, "forwarded") - total(s, "received"), lay)
        self.add("e2e.speedup_vs_serial", self.samples["speedup"][-1], lay)
        return par, s


class PholdTorus(TorusWorkload):
    """Uniform PHOLD on a 64x64 torus: no bias, no service, 4 tokens per
    node, mincut partition."""

    name = "phold_torus"

    def generate(self):
        self.model = self.parallel_model = self.path("phold.json")
        write_json(self.model, gen.phold_torus(self.seed))
        self.tokens = gen.PHOLD_TOKENS * gen.PHOLD_SIDE ** 2

    def check_tokens(self, in_flight, received, events):
        check(in_flight == self.tokens,
              f"forwarded - received = {in_flight}, "
              f"{self.tokens} tokens were injected")
        check(events == received,
              f"engine events {events} != tokens received {received}")

    def traced_round(self, i):
        self.traced_legs()


class HotspotRebalance(TorusWorkload):
    """Moving-hotspot PHOLD with online rebalancing and periodic
    checkpoints at PARALLEL ranks, plus its serial twin (no checkpoints)."""

    name = "hotspot_rebalance"

    def generate(self):
        model = gen.hotspot_rebalance(self.seed)
        self.model = self.path("hotspot.json")
        write_json(self.model, model)
        self.parallel_model = self.path("hotspot_ckpt.json")
        write_json(self.parallel_model, gen.checkpointed(model))
        self.tokens = gen.HOTSPOT_TOKENS * gen.HOTSPOT_SIDE ** 2

    def ckpt_dir(self, i):
        return self.path(f"ckpt{i % 2}")

    def parallel_extra(self, i):
        shutil.rmtree(self.ckpt_dir(i), ignore_errors=True)
        return ["--checkpoint-dir", self.ckpt_dir(i)]

    def check_tokens(self, in_flight, received, events):
        check(0 <= in_flight <= self.tokens,
              f"forwarded - received = {in_flight}, outside "
              f"[0, {self.tokens}]")

    def snapshot(self, directory):
        """The middle snapshot of a run, so a resume redoes half of it."""
        files = sorted(os.listdir(directory))
        check(len(files) >= 2, f"{directory}: expected periodic snapshots")
        return os.path.join(directory, files[len(files) // 2 - 1])

    def final_checks(self):
        # Resuming from a mid-run snapshot reproduces the uninterrupted run.
        snap = self.snapshot(self.ckpt_dir(self.rounds - 1))
        stats = self.path("resume.stats.json")
        p = launch([self.bins["sstsim"], "--restart", snap, "--ranks",
                    str(PARALLEL), "--stats", stats], self.wdir,
                   self.path("resume"))
        check(p.rc == 0, f"restart from {snap} exited {p.rc}: {p.err[-500:]}")
        with open(stats, "rb") as a, open(self.last["serial"]["stats"],
                                          "rb") as b:
            check(a.read() == b.read(),
                  f"resumed from {snap}: final stats differ from the "
                  f"uninterrupted run")

    def traced_round(self, i):
        d = self.path("ckpt.traced")
        shutil.rmtree(d, ignore_errors=True)
        par, s = self.traced_legs(["--ckpt-dir", d])
        lay = self.layers
        snaps = [os.path.join(d, f) for f in sorted(os.listdir(d))]
        self.add("ckpt.checkpoints", par["checkpoints"], lay)
        self.add("ckpt.write_s", par["checkpoint_s"], lay)
        self.add("ckpt.snapshot_bytes",
                 sum(map(os.path.getsize, snaps)) / len(snaps), lay)
        self.add("ckpt.rebalance_passes", par["rebalances"], lay)
        self.add("ckpt.components_migrated", par["components_migrated"], lay)
        if ("engine.rebalance", "imbalance_before") in s:
            self.add("ckpt.imbalance_before",
                     s[("engine.rebalance", "imbalance_before")]["mean"], lay)
            self.add("ckpt.imbalance_after",
                     s[("engine.rebalance", "imbalance_after")]["mean"], lay)
        res = self.driver("resume", ["restore", self.snapshot(d), "--stats",
                                     self.path("resume.traced.json")])
        self.same_model_output(self.path("resume.traced.json"),
                               self.last["serial"]["stats"])
        self.add("ckpt.restore_s", res["restore_s"], lay)


# ---------------------------------------------------------------------------

class SweepPoints(Workload):
    """sstdse over a seeded cross product of light GUPS-node points, at
    SWEEP_JOBS jobs and at 1 job, alternating which goes first."""

    name = "sweep_points"

    def generate(self):
        self.model = self.path("model.json")
        write_json(self.model, gen.sweep_model(self.seed))
        self.spec_doc = gen.sweep_spec("model.json", SWEEP_JOBS)
        self.spec = self.path("sweep.json")
        write_json(self.spec, self.spec_doc)
        self.points = 1
        for axis in self.spec_doc["axes"]:
            self.points *= len(axis["values"])

    def sweep(self, tag, jobs):
        out = self.path(tag)
        shutil.rmtree(out, ignore_errors=True)
        p = launch([self.bins["sstdse"], "run", self.spec, "--out", out,
                    "--jobs", str(jobs), "-q"], self.wdir, self.path(tag))
        self.attempted += 1
        if p.rc != 0:
            self.failed += 1
            return None
        return {"wall": p.wall, "rss": p.rss, "out": out}

    def round(self, i):
        legs = [("par", SWEEP_JOBS), ("ser", 1)]
        if i % 2:
            legs.reverse()
        runs = {tag: self.sweep(f"sweep_{tag}", jobs) for tag, jobs in legs}
        par, ser = runs["par"], runs["ser"]
        if par is None or ser is None:
            return False
        with open(os.path.join(par["out"], "results.csv")) as f:
            csv_par = f.read()
        with open(os.path.join(ser["out"], "results.csv")) as f:
            check(f.read() == csv_par,
                  "results.csv differs between 1 job and "
                  f"{SWEEP_JOBS} jobs")
        rows = csv_par.strip().splitlines()[1:]
        check(len(rows) == self.points,
              f"{len(rows)} result rows, the spec expands to {self.points}")
        check(all(r.split(",")[1] == "ok" for r in rows),
              "a sweep point did not end ok")
        events = instr = 0
        for p in range(self.points):
            with open(os.path.join(par["out"], "points", f"p{p:06d}",
                                   "run.log")) as f:
                m = DONE_RE.search(f.read())
            check(m is not None, f"point {p}: no end-of-run line in run.log")
            events += int(m.group(2))
        for line in open(os.path.join(par["out"], "results.jsonl")):
            instr += json.loads(line)["objectives"]["cpu.instructions"]
        # events is the same every round, so on this workload events_per_s
        # is wall_s seen as a rate.  The points' own engine run times were
        # tried in its place and spread twice as much between runs.
        self.add("wall_s", par["wall"])
        self.add("events_per_s", events / par["wall"])
        self.add("serial_events_per_s", events / ser["wall"])
        self.add("rss", par["rss"])
        self.add("speedup", ser["wall"] / par["wall"])
        self.add("instr_per_s", instr / par["wall"])
        self.last = runs
        return True

    def final_checks(self):
        # A seeded sample of points, run directly with the same overrides,
        # gives the objectives the sweep recorded.
        with open(os.path.join(self.last["par"]["out"],
                               "results.jsonl")) as f:
            results = [json.loads(line) for line in f]
        rng = random.Random(self.seed)
        for rec in rng.sample(results, 3):
            argv = [self.bins["sstsim"], self.model, "--stats",
                    self.path("direct.stats.json")]
            # results.jsonl lists a point's values in axis order.
            for axis, value in zip(self.spec_doc["axes"],
                                   rec["values"].values()):
                argv += ["--override", f"{axis['path']}={value}"]
            p = launch(argv, self.wdir, self.path("direct"))
            check(p.rc == 0,
                  f"direct run of point {rec['point']} exited {p.rc}")
            s = load_stats(self.path("direct.stats.json"))
            for name, value in rec["objectives"].items():
                comp, stat = name.split(".", 1)
                check(count(s, comp, stat) == value,
                      f"point {rec['point']}: {name} {value} in the sweep, "
                      f"{count(s, comp, stat)} when run directly")
        if self.tracer is not None:
            self.daemon_sweep()

    def daemon_sweep(self):
        """The same points through a 1-worker sstsimd (traced run only)."""
        sock, out = "daemon.sock", self.path("sweep.daemon")
        shutil.rmtree(out, ignore_errors=True)
        with open(self.path("daemon.log"), "w") as log:
            daemon = subprocess.Popen(
                [self.bins["sstsimd"], "--socket", sock, "--workers", "1",
                 "--state", "daemon.state"], cwd=self.wdir, stdout=log,
                stderr=log, stdin=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 10
            while not os.path.exists(self.path(sock)):
                check(daemon.poll() is None and time.monotonic() < deadline,
                      "sstsimd did not come up")
                time.sleep(0.01)
            with self.tracer.span("daemon.sweep"):
                p = launch(
                    [self.bins["sstdse"], "run", self.spec, "--out", out,
                     "--jobs", "1", "--daemon", sock, "-q"], self.wdir,
                    self.path("sweep_daemon"))
            check(p.rc == 0,
                  f"sweep through sstsimd exited {p.rc}: {p.err[-500:]}")
            with open(os.path.join(out, "results.csv")) as a, open(
                    os.path.join(self.last["par"]["out"],
                                 "results.csv")) as b:
                check(a.read() == b.read(),
                      "sweep results through sstsimd differ")
            self.add("daemon.point_s", p.wall / self.points, self.layers)
            launch([self.bins["sstsimd"], "--socket", sock, "--drain"],
                   self.wdir, self.path("drain"))
            daemon.wait(timeout=OP_TIMEOUT_S)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def traced_round(self, i):
        lay = self.layers
        out = self.path("sweep.traced")
        shutil.rmtree(out, ignore_errors=True)
        res = self.driver("sweep", ["sweep", self.spec, "--out", out,
                                    "--sstsim", self.bins["sstsim"],
                                    "--jobs", str(SWEEP_JOBS)])
        self.overhead(res["wall"], self.last["par"]["wall"])
        with open(os.path.join(out, "results.csv")) as a, open(
                os.path.join(self.last["par"]["out"], "results.csv")) as b:
            check(a.read() == b.read(),
                  "traced sweep results differ from the untraced sweep")
        agg = self.driver("report", ["report", out])
        self.add("dse.aggregate_s", agg["aggregate_s"], lay)
        led = self.driver("ledger", ["ledger", self.path("ledger.jsonl"),
                                     str(self.points)])
        self.add("dse.ledger_append_s", led["ledger_append_s"], lay)
        stats = self.path("point.traced.json")
        one = self.driver("point.layers", ["model", self.model, "--profile",
                                           "--stats", stats])
        self.model_layers(one, stats)
        with self.tracer.span("dse.exec"):
            ex = launch([self.bins["sstsim"], "--version"], self.wdir,
                        self.path("exec"))
        check(ex.rc == 0, "sstsim --version failed")
        with self.tracer.span("dse.point"):
            pt = launch([self.bins["sstsim"], self.model, "--stats",
                         self.path("point.json")], self.wdir,
                        self.path("point"))
        check(pt.rc == 0, "direct point run failed")
        self.add("dse.exec_s", ex.wall, lay)
        self.add("dse.point_s", pt.wall, lay)
        self.add("dse.dispatch_overhead_s",
                 self.last["ser"]["wall"] / self.points - pt.wall, lay)
        self.add("dse.points", self.points, lay)
        self.add("e2e.points_per_s", self.points / self.last["par"]["wall"],
                 lay)
        self.add("e2e.speedup_vs_serial", self.samples["speedup"][-1], lay)
        self.add("e2e.sim_instr_per_s", self.samples["instr_per_s"][-1], lay)



WORKLOADS = {w.name: w for w in (NodeTranslate, PholdTorus, HotspotRebalance,
                                 SweepPoints)}
