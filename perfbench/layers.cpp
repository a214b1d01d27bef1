// Per-layer driver for the benchmark.  It links the simulator's libraries
// and times its own calls into their public entry points, so each layer
// is measured from outside without changing the program.  Every mode
// prints one JSON object on stdout; times are host seconds, and "t_*"
// fields are CLOCK_MONOTONIC timestamps (comparable with Python's
// time.monotonic()) so the caller can place them on its own timeline.
//
//   perfbench_layers model <system.json> [--override /p=v]... [--profile]
//       [--stats out.json] [--setup-only] [--ckpt-dir DIR]
//   perfbench_layers restore <snapshot> [--stats out.json]
//   perfbench_layers sweep <spec.json> --out DIR --sstsim PATH --jobs N
//   perfbench_layers report <sweep-dir>
//   perfbench_layers ledger <path> <appends>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/simulation.h"
#include "dse/driver.h"
#include "dse/ledger.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "sdl/config_graph.h"
#include "vm/vm_lib.h"

namespace {

using Clock = std::chrono::steady_clock;

double mono(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Flat JSON object writer: numbers only.
class Out {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  // A timed call: "<name>_s" is its duration, "t_<name>" its start.
  void phase(const std::string& name, Clock::time_point start) {
    num(name + "_s", since(start));
    num("t_" + name, mono(start));
  }
  void print() const { std::cout << "{" << body_.str() << "}\n"; }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!first_) body_ << ",";
    first_ = false;
    body_ << "\"" << key << "\":" << v;
  }
  std::ostringstream body_;
  bool first_ = true;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void put_run_stats(Out& o, const sst::RunStats& rs) {
  o.count("events", rs.events_processed);
  o.count("clock_ticks", rs.clock_ticks);
  o.count("sync_windows", rs.sync_windows);
  o.count("cross_rank_events", rs.cross_rank_events);
  o.count("final_time_ps", rs.final_time);
  o.num("engine_wall_s", rs.wall_seconds);
  o.count("checkpoints", rs.checkpoints);
  o.num("checkpoint_s", rs.checkpoint_seconds);
  o.count("exchange_flushes", rs.exchange_flushes);
  o.count("rebalances", rs.rebalances);
  o.count("components_migrated", rs.components_migrated);
}

// Writes the stats the way sstsim --stats x.json does, timed.
void write_stats(Out& o, sst::Simulation& sim, const std::string& path) {
  if (path.empty()) return;
  const auto t = Clock::now();
  {
    std::ofstream out(path);
    sim.stats().write_json(out);
  }
  o.phase("stats_write", t);
  o.count("stats_bytes", std::filesystem::file_size(path));
}

int cmd_model(const std::string& input, int argc, char** argv) {
  bool profile = false, setup_only = false;
  std::string stats, ckpt_dir;
  std::vector<std::pair<std::string, std::string>> overrides;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--override") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) throw std::runtime_error("bad " + kv);
      overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (a == "--profile") {
      profile = true;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--stats") {
      stats = next();
    } else if (a == "--ckpt-dir") {
      ckpt_dir = next();
    } else {
      throw std::runtime_error("unknown option " + a);
    }
  }
  Out o;
  auto t = Clock::now();
  const std::string text = read_file(input);
  o.phase("read", t);

  t = Clock::now();
  auto graph = sst::sdl::ConfigGraph::from_json_text(text);
  for (const auto& [path, value] : overrides) graph.apply_override(path, value);
  sst::SimConfig& sc = graph.sim_config();
  if (profile) sc.profile_engine = true;
  // The cadence comes from the model's "checkpointing" section.
  if (!ckpt_dir.empty()) sc.checkpoint_dir = ckpt_dir;
  o.phase("parse", t);

  t = Clock::now();
  const auto problems = graph.validate(sst::Factory::instance());
  o.phase("validate", t);
  if (!problems.empty()) {
    for (const auto& p : problems) std::cerr << "invalid: " << p << "\n";
    return 2;
  }

  t = Clock::now();
  auto sim = graph.build();
  if (sc.checkpoint_period > 0) {
    sst::ckpt::install_writer(*sim, graph.to_json().dump());
  }
  o.phase("build", t);

  t = Clock::now();
  sim->initialize();
  o.phase("init", t);
  o.num("t_initialized", mono(Clock::now()));
  if (setup_only) {
    o.print();
    return 0;
  }

  t = Clock::now();
  const sst::RunStats rs = sim->run();
  o.phase("run", t);
  put_run_stats(o, rs);
  write_stats(o, *sim, stats);
  o.print();
  return 0;
}

int cmd_restore(const std::string& snapshot, int argc, char** argv) {
  std::string stats;
  for (int i = 0; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) != "--stats") {
      throw std::runtime_error(std::string("unknown option ") + argv[i]);
    }
    stats = argv[i + 1];
  }
  Out o;
  const auto t = Clock::now();
  auto data = sst::ckpt::load_checkpoint(snapshot);
  auto graph = sst::sdl::ConfigGraph::from_json_text(data.graph_json);
  auto sim = graph.build();
  sim->initialize();
  sst::ckpt::CheckpointEngine::restore(*sim, std::move(data.state));
  o.phase("restore", t);
  o.count("snapshot_seq", data.seq);
  o.count("snapshot_time_ps", data.sim_time);
  const auto t_run = Clock::now();
  const sst::RunStats rs = sim->run();
  o.phase("run", t_run);
  put_run_stats(o, rs);
  write_stats(o, *sim, stats);
  o.print();
  return 0;
}

int cmd_sweep(const std::string& spec, int argc, char** argv) {
  sst::dse::DriverOptions opts;
  opts.spec_path = spec;
  opts.quiet = true;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--out") {
      opts.out_dir = argv[i + 1];
    } else if (a == "--sstsim") {
      opts.sstsim_path = argv[i + 1];
    } else if (a == "--jobs") {
      opts.jobs = static_cast<unsigned>(std::stoul(argv[i + 1]));
    } else {
      throw std::runtime_error("unknown option " + a);
    }
  }
  std::ostringstream report, err;
  const auto t = Clock::now();
  const int rc = sst::dse::run_sweep(opts, report, err);
  Out o;
  o.phase("sweep", t);
  o.count("rc", static_cast<std::uint64_t>(rc));
  o.print();
  if (rc != 0) std::cerr << err.str();
  return rc;
}

int cmd_report(const std::string& dir) {
  std::ostringstream report, err;
  const auto t = Clock::now();
  const int rc = sst::dse::report_sweep(dir, report, err);
  Out o;
  o.phase("aggregate", t);
  o.count("rc", static_cast<std::uint64_t>(rc));
  o.print();
  if (rc != 0) std::cerr << err.str();
  return rc;
}

int cmd_ledger(const std::string& path, unsigned appends) {
  std::filesystem::remove(path);
  sst::dse::Ledger ledger(path);
  (void)ledger.load("perfbench", appends);
  const auto t = Clock::now();
  for (unsigned p = 0; p < appends; ++p) {
    sst::dse::LedgerRecord rec;
    rec.point = p;
    rec.status = "ok";
    rec.values = {"32KiB", "1ns"};
    ledger.append(rec, "perfbench", appends);
  }
  Out o;
  o.num("ledger_append_s", since(t) / appends);
  o.count("appends", appends);
  o.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sst::mem::register_library();
  sst::proc::register_library();
  sst::vm::register_library();
  sst::net::register_library();
  if (argc < 3) {
    std::cerr << "usage: " << argv[0]
              << " model|restore|sweep|report|ledger <input> [options]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const std::string input = argv[2];
  try {
    if (mode == "model") return cmd_model(input, argc - 3, argv + 3);
    if (mode == "restore") return cmd_restore(input, argc - 3, argv + 3);
    if (mode == "sweep") return cmd_sweep(input, argc - 3, argv + 3);
    if (mode == "report") return cmd_report(input);
    if (mode == "ledger") {
      return cmd_ledger(input, static_cast<unsigned>(std::stoul(argv[3])));
    }
  } catch (const std::exception& e) {
    std::cerr << mode << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown mode " << mode << "\n";
  return 2;
}
