"""Seeded input generators for the benchmark's workloads.

Each generator takes the workload seed and returns plain data (a system
description or a sweep spec) that is written out as JSON and given to
the simulator.  The seed only reseeds the model's random streams, so the
amount of work, and with it the host time of a run, does not depend on it.
"""

import random

# ---------------------------------------------------------------------------
# node_translate: one serial node, GUPS behind a TLB + page-table walker and
# an HPCCG core, sharing a bus, L1, L2 and a DDR3 controller.

NODE_GUPS_UPDATES = 8000
NODE_HPCCG_GRID = (12, 12, 12)
NODE_HPCCG_ITERATIONS = 1
LINE = 64  # proc.Core line_split default and mem.Cache line size


def node_translate(seed):
    rng = random.Random(seed)
    nx, ny, nz = NODE_HPCCG_GRID
    return {
        "config": {"seed": rng.randrange(1, 1 << 31)},
        "vm": {
            "enable": True,
            "tlb": {"levels": 2, "l1_sets": 16, "l1_ways": 4,
                    "l2_sets": 128, "l2_ways": 8,
                    "page_sizes": "4KiB,2MiB"},
            "walker": {"walk_depth": 4, "walk_cache_entries": 16,
                       "page_sizes": "4KiB,2MiB", "huge_pages": "promote",
                       "promote_threshold": 48,
                       "seed": rng.randrange(1, 1 << 31)},
        },
        "components": [
            {"name": "gups", "type": "proc.Core",
             "params": {"clock": "2GHz", "issue_width": 4, "max_loads": 16,
                        "workload": "gups", "updates": NODE_GUPS_UPDATES,
                        "table": "16MiB"}},
            {"name": "hpccg", "type": "proc.Core",
             "params": {"clock": "2GHz", "issue_width": 4, "max_loads": 48,
                        "workload": "hpccg", "nx": nx, "ny": ny, "nz": nz,
                        "iterations": NODE_HPCCG_ITERATIONS}},
            {"name": "tlb", "type": "vm.Tlb"},
            {"name": "ptw", "type": "vm.PageTableWalker"},
            {"name": "bus", "type": "mem.Bus", "params": {"num_ports": 3}},
            {"name": "l1", "type": "mem.Cache",
             "params": {"size": "32KiB", "assoc": 4, "hit_latency": "1ns",
                        "mshrs": 16}},
            {"name": "l2", "type": "mem.Cache",
             "params": {"size": "512KiB", "assoc": 8, "hit_latency": "4ns",
                        "mshrs": 32, "prefetch": "nextline"}},
            {"name": "mc", "type": "mem.MemoryController",
             "params": {"backend": "dram", "preset": "DDR3"}},
        ],
        "links": [
            _link("gups", "mem", "tlb", "cpu", "500ps"),
            _link("tlb", "mem", "bus", "up0", "500ps"),
            _link("ptw", "mem", "bus", "up1", "500ps"),
            _link("hpccg", "mem", "bus", "up2", "500ps"),
            _link("tlb", "ptw", "ptw", "tlb0", "500ps"),
            _link("ptw", "inval0", "tlb", "inval", "500ps"),
            _link("bus", "down", "l1", "cpu", "1ns"),
            _link("l1", "mem", "l2", "cpu", "1ns"),
            _link("l2", "mem", "mc", "cpu", "2ns"),
        ],
    }


def hpccg_expected():
    """Instruction, load, store and memory-request counts of the HPCCG
    kernel, computed from its definition (27-point SpMV over the grid,
    then three two-element-wide vector phases), independent of the
    simulator.  A 16-byte access that straddles a 64-byte line is issued
    as two memory requests."""
    nx, ny, nz = NODE_HPCCG_GRID
    rows = nx * ny * nz
    units = (rows + 1) // 2
    # SpMV row: 14 value loads (16 B), 7 index loads (16 B), 27 x gathers,
    # 54 flops, 7 int ops, 1 store, 1 branch.  Vector units: dot (1 load,
    # 4 flops, branch), two axpys (2 loads, 4 flops, 1 store, branch).
    instr = rows * (14 + 7 + 27 + 54 + 7 + 1 + 1) + units * (6 + 8 + 8)
    loads = rows * (14 + 7 + 27) + units * (1 + 2 + 2)
    stores = rows + units * 2
    splits = 0
    for row in range(rows):
        for b in range(14):
            splits += _straddles(row * 27 * 8 + b * 16, 16)
        for b in range(7):
            splits += _straddles(row * 27 * 4 + b * 16, 16)
    it = NODE_HPCCG_ITERATIONS
    return {"instructions": instr * it, "loads": loads * it,
            "stores": stores * it, "requests": (loads + stores + splits) * it}


def gups_expected():
    """GUPS update: 2 index int ops, a load, 1 xor, a store."""
    u = NODE_GUPS_UPDATES
    return {"instructions": 5 * u, "loads": u, "stores": u,
            "requests": 2 * u}


def _straddles(offset, size):
    # Kernel regions start on line boundaries, so the offset decides.
    return 1 if offset // LINE != (offset + size - 1) // LINE else 0


# ---------------------------------------------------------------------------
# phold_torus / hotspot_rebalance: net.HotspotPhold on a 2-D torus.

PHOLD_SIDE = 64
PHOLD_TOKENS = 4
PHOLD_END = "40us"
PHOLD_LATENCY = "200ns"

HOTSPOT_SIDE = 16
HOTSPOT_TOKENS = 4
HOTSPOT_END = "120us"
HOTSPOT_DRIFT = "30us"
HOTSPOT_LATENCY = "200ns"
HOTSPOT_CKPT_PERIOD = "30us"
HOTSPOT_CKPT_KEEP = 8  # more than the 4 snapshots a run writes: keep all


def _link(a, pa, b, pb, latency):
    return {"from": a, "from_port": pa, "to": b, "to_port": pb,
            "latency": latency}


def _torus(side, node_params, latency, config):
    comps, links = [], []
    for y in range(side):
        for x in range(side):
            params = {"x": x, "y": y, "size_x": side, "size_y": side}
            params.update(node_params)
            comps.append({"name": f"h{x}_{y}", "type": "net.HotspotPhold",
                          "params": params})
    for y in range(side):
        for x in range(side):
            links.append(_link(f"h{x}_{y}", "port0",
                               f"h{(x + 1) % side}_{y}", "port1", latency))
            links.append(_link(f"h{x}_{y}", "port2",
                               f"h{x}_{(y + 1) % side}", "port3", latency))
    return {"config": config, "components": comps, "links": links}


def phold_torus(seed):
    rng = random.Random(seed)
    return _torus(
        PHOLD_SIDE,
        {"service_hops": 0, "bias_pct": 0, "initial_tokens": PHOLD_TOKENS},
        PHOLD_LATENCY,
        {"seed": rng.randrange(1, 1 << 31), "end_time": PHOLD_END,
         "partition": "mincut"})


def hotspot_rebalance(seed):
    rng = random.Random(seed)
    return _torus(
        HOTSPOT_SIDE,
        {"service_hops": 12, "hot_span": 1, "bias_pct": 85,
         "drift_period": HOTSPOT_DRIFT, "initial_tokens": HOTSPOT_TOKENS},
        HOTSPOT_LATENCY,
        {"seed": rng.randrange(1, 1 << 31), "end_time": HOTSPOT_END,
         "partition": "mincut", "rebalance_mode": "on",
         "rebalance_threshold": 1.5, "rebalance_period": 8,
         "rebalance_max_moves": 8})


def checkpointed(model):
    """The same model with a snapshot every HOTSPOT_CKPT_PERIOD, through
    the SDL "checkpointing" section; the directory is chosen per run."""
    return dict(model, checkpointing={"period": HOTSPOT_CKPT_PERIOD,
                                      "keep": HOTSPOT_CKPT_KEEP})


# ---------------------------------------------------------------------------
# sweep_points: a light GUPS node swept over cache and link parameters.

# A fixed grid: 4 x 2 x 4 x 4 = 128 points.  The seed reseeds the point
# model only, so every seed sweeps the same amount of work.
SWEEP_AXES = [
    ("/components/l1/params/size", ["8KiB", "16KiB", "32KiB", "64KiB"]),
    ("/components/l2/params/assoc", [4, 8]),
    ("/links/1/latency", ["500ps", "1ns", "2ns", "4ns"]),
    ("/links/2/latency", ["1ns", "2ns", "3ns", "6ns"]),
]
SWEEP_UPDATES = 1500


def sweep_model(seed):
    rng = random.Random(seed)
    return {
        "config": {"seed": rng.randrange(1, 1 << 31)},
        "components": [
            {"name": "cpu", "type": "proc.Core",
             "params": {"clock": "2GHz", "issue_width": 4, "max_loads": 16,
                        "workload": "gups", "updates": SWEEP_UPDATES,
                        "table": "4MiB"}},
            {"name": "l1", "type": "mem.Cache",
             "params": {"size": "32KiB", "assoc": 4, "hit_latency": "1ns",
                        "mshrs": 16}},
            {"name": "l2", "type": "mem.Cache",
             "params": {"size": "256KiB", "assoc": 8, "hit_latency": "4ns",
                        "mshrs": 32}},
            {"name": "mc", "type": "mem.MemoryController",
             "params": {"backend": "dram", "preset": "DDR3"}},
        ],
        "links": [
            _link("cpu", "mem", "l1", "cpu", "500ps"),
            _link("l1", "mem", "l2", "cpu", "1ns"),
            _link("l2", "mem", "mc", "cpu", "2ns"),
        ],
    }


def sweep_spec(model_file, concurrency):
    return {
        "name": "perfbench_sweep",
        "model": model_file,
        "axes": [{"path": path, "values": values}
                 for path, values in SWEEP_AXES],
        "objectives": [
            {"component": "cpu", "statistic": "instructions", "goal": "max"},
            {"component": "l1", "statistic": "misses", "goal": "min"},
            {"component": "mc", "statistic": "reads", "goal": "min"},
        ],
        "run": {"concurrency": concurrency, "timeout_seconds": 120},
    }
