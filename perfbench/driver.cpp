// perfbench driver: the benchmark of record for one LPPA round.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <result.json>
//
// Workloads (one sim::Scenario world each: area 3, k = 40 channels,
// lambda = 1000 m, advanced PPBS with bmax 15, rd 3, cr 4 and a linear
// 0.3 zero-disguise policy):
//   engine_fp_hmac       LppaAuction::run, n = 2000, HMAC, first price
//   engine_sp_paillier   LppaAuction::run, n = 1000, Paillier, second price
//   socket_small_rounds  net::run_recoverable_socket_auction, 4 SUs over
//                        TCP loopback, HMAC, first price
//
// The world and keys are built once (setup, repeated at least kSetupReps
// times and for kSetupMinSeconds, reported as the median); rounds then run back to back until --seconds
// have passed, round r drawing its seed from (--seed, r).  --trace 0
// times whole rounds; --trace 1 times every layer through its public
// functions (no instrumentation inside src/) and replays each round next
// to the untraced call to prove the replay is faithful.
//
// Every run checks its outputs; a failed check marks the round failed,
// is listed under "failures", and makes the exit status 1.  The result
// is one strict-JSON document written to --out; perfbench/run.py turns
// it into the one-line summary.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "auction/conflict.h"
#include "common/thread_pool.h"
#include "core/lppa_auction.h"
#include "core/submission_validator.h"
#include "crypto/sha256.h"
#include "net/session_port.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "proto/session.h"
#include "sim/scenario.h"

namespace {

using namespace lppa;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupReps = 3;
constexpr double kSetupMinSeconds = 1.0;
// glibc adapts its mmap threshold at run time, so whether a round's large
// buffers (envelopes, journal, table images) come from fresh page-faulted
// mmaps or from recycled heap depends on the first frees of the process:
// socket rounds then land in one of two modes ~25% apart.  Fixing both
// thresholds (32 MiB is glibc's ceiling) keeps every run in the
// recycled-heap mode.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = 256 << 20;
constexpr std::size_t kChannels = 40;
constexpr auction::Money kBmax = 15;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- Workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t num_users;
  crypto::BidBackendId backend;
  core::ChargingRule rule;
  bool socket;
};

constexpr Workload kWorkloads[] = {
    {"engine_fp_hmac", 2000, crypto::BidBackendId::kHmacPrefix,
     core::ChargingRule::kFirstPrice, false},
    {"engine_sp_paillier", 1000, crypto::BidBackendId::kPaillier,
     core::ChargingRule::kSecondPrice, false},
    {"socket_small_rounds", 4, crypto::BidBackendId::kHmacPrefix,
     core::ChargingRule::kFirstPrice, true},
};

// The TTP's keys do not follow --seed: the Paillier modulus size, and with
// it the cost of every oracle operation, varies by ~5% between key seeds,
// which would read as a change between runs on different seeds.
constexpr std::uint64_t kTtpSeed = 20130708;

// Domain tags separating the streams derived from the workload seed.
constexpr std::uint64_t kDomainWorld = 0x776f726c64ULL;  // "world"
constexpr std::uint64_t kDomainWarm = 0x7761726dULL;     // "warm"
constexpr std::uint64_t kDomainRound = 0x726f756e64ULL;  // "round"

std::uint64_t round_seed(std::uint64_t seed, std::size_t r) {
  return derive_stream_seed(derive_stream_seed(seed, kDomainRound), r);
}

/// The world of one workload: the scenario (coverage dataset + SU
/// population), the round configuration and the current round's
/// plaintext inputs.  Each round draws a fresh population from its own
/// seed, so one run averages over many populations instead of timing a
/// single draw.
struct World {
  std::unique_ptr<sim::Scenario> scenario;
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig config;
  std::uint64_t ttp_seed = 0;

  void draw(std::uint64_t seed) {
    scenario->resample_users(seed);
    locations = scenario->locations();
    bids = scenario->bids();
  }
};

World make_world(const Workload& w, std::uint64_t seed) {
  sim::ScenarioConfig sc;
  sc.area_id = 3;
  sc.fcc.num_channels = static_cast<int>(kChannels);
  sc.num_users = w.num_users;
  sc.bmax = kBmax;
  sc.lambda_m = 1000;
  sc.seed = derive_stream_seed(seed, kDomainWorld);

  World world;
  world.scenario = std::make_unique<sim::Scenario>(sc);
  core::LppaConfig& c = world.config;
  c.num_channels = kChannels;
  c.lambda = sc.lambda_m;
  c.coord_width = world.scenario->coord_width();
  c.bid = core::PpbsBidConfig::advanced(
      kBmax, 3, 4, core::ZeroDisguisePolicy::linear(kBmax, 0.3));
  c.bid.backend = w.backend;
  c.charging_rule = w.rule;
  c.num_threads = 2;
  world.ttp_seed = kTtpSeed;
  return world;
}

// --- Output checks -----------------------------------------------------------

/// Collects failed checks; a round with any failure counts as failed.
struct Checks {
  std::vector<std::string> failures;
  std::size_t rounds_attempted = 0;
  std::size_t rounds_failed = 0;
  std::size_t sus_attempted = 0;
  std::size_t sus_excluded = 0;

  /// Records the outcome of one round (or one once-per-run check).
  void round(const std::vector<std::string>& problems, std::size_t index) {
    ++rounds_attempted;
    if (problems.empty()) return;
    ++rounds_failed;
    for (const auto& p : problems) {
      if (failures.size() < 20) {
        failures.push_back("round " + std::to_string(index) + ": " + p);
      }
    }
  }
};

/// Award sanity against the plaintext ground truth: every award names a
/// real (SU, channel) cell; a positive true bid wins validly and pays at
/// most its bid (exactly its bid under first price); a zero bid (true or
/// disguised) wins invalidly for free; no SU wins a channel twice; no two
/// winners of one channel interfere.
void check_awards(const std::vector<auction::Award>& awards,
                  const World& world, std::vector<std::string>& problems) {
  const std::size_t n = world.bids.size();
  std::vector<std::vector<std::size_t>> winners(kChannels);
  for (const auto& a : awards) {
    if (a.user >= n || a.channel >= kChannels) {
      problems.push_back("award outside the bid table");
      return;
    }
    const auction::Money bid = world.bids[a.user][a.channel];
    const bool first = world.config.charging_rule ==
                       core::ChargingRule::kFirstPrice;
    if (bid > 0 && !(a.valid && (first ? a.charge == bid : a.charge <= bid))) {
      problems.push_back("wrong charge for SU " + std::to_string(a.user) +
                         " on channel " + std::to_string(a.channel));
    }
    if (bid == 0 && (a.valid || a.charge != 0)) {
      problems.push_back("zero bid charged for SU " + std::to_string(a.user));
    }
    for (const std::size_t other : winners[a.channel]) {
      if (other == a.user) {
        problems.push_back("SU won a channel twice");
      } else if (auction::locations_conflict(world.locations[a.user],
                                             world.locations[other],
                                             world.config.lambda)) {
        problems.push_back("interfering winners share channel " +
                           std::to_string(a.channel));
      }
    }
    winners[a.channel].push_back(a.user);
  }
  if (awards.empty()) problems.push_back("round produced no awards");
}

// --- Counting backend (the ge() seam) ------------------------------------------

/// Forwards every hook to the real backend and counts ge() calls.
class CountingBackend final : public crypto::BidBackend {
 public:
  explicit CountingBackend(const crypto::BidBackend& inner) : inner_(inner) {}

  crypto::BidBackendId id() const noexcept override { return inner_.id(); }
  const char* name() const noexcept override { return inner_.name(); }
  void encode_cell(core::ChannelBidSubmission& cell,
                   const crypto::BidEncodeCtx& ctx, std::uint64_t scaled,
                   Rng& rng) const override {
    inner_.encode_cell(cell, ctx, scaled, rng);
  }
  bool ge(const core::ChannelBidSubmission& a,
          const core::ChannelBidSubmission& b) const override {
    ge_calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.ge(a, b);
  }
  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission& cell) const override {
    return inner_.validate_cell(cell);
  }

  std::size_t ge_calls() const noexcept {
    return ge_calls_.load(std::memory_order_relaxed);
  }

 private:
  const crypto::BidBackend& inner_;
  mutable std::atomic<std::size_t> ge_calls_{0};
};

// --- Results -------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// The per-layer metric names every traced run reports (0 where the
/// workload never enters the layer).
const char* const kLayerMetrics[] = {
    "core.submit.ms",          "core.submit.us_per_su_p50",
    "core.validate.ms",        "core.conflict_graph.ms",
    "core.conflict_graph.edges", "core.bid_table.ms",
    "core.bid_table.ge_calls", "auction.allocate.ms",
    "auction.allocate.awards", "auction.allocate.valid_frac",
    "core.charging.ms",        "core.charging.ge_calls",
    "crypto.paillier.oracle_compares", "crypto.paillier.oracle_decrypts",
    "proto.su_envelopes.ms",   "proto.retry_waves",
    "proto.journal_bytes",     "net.server_start.ms",
    "net.publish.ms",          "net.announce.ms",
    "net.teardown.ms",         "net.round_us_p50",
    "net.frames_in",           "net.frames_out",
    "net.nacks",               "net.reconnects",
    "trace.round.ms",          "trace.coverage",
    "trace.overhead_frac",
};

/// Per-round layer samples, reduced to medians at the end.
struct LayerSamples {
  std::map<std::string, std::vector<double>> samples;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
  Metrics medians() const {
    Metrics out;
    for (const char* name : kLayerMetrics) out[name] = 0.0;
    for (const auto& [name, v] : samples) out[name] = median(v);
    return out;
  }
};

struct RunResult {
  Checks checks;
  Metrics metrics;
  Metrics info;  ///< context numbers that are not contract metrics
};

/// Mean of the middle half of the sample: a throughput figure that a few
/// rounds stalled by a busy host (socket rounds of 20 ms and more next to
/// a 4 ms median) cannot drag, unlike the plain mean.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(v.size() - v.size() / 4, lo + 1);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// The 90th percentile of round time.  With enough rounds (the socket
/// workload) it is taken in each block of kTailBlock consecutive rounds,
/// which leaves 10 rounds above it, and reported as the median over the
/// blocks: a host stall that slows a few seconds of a run then moves one
/// block, not the whole run's tail.  Engine runs hold too few rounds for
/// two blocks and report the percentile over all their rounds.
double round_p90(const std::vector<double>& round_ms) {
  constexpr std::size_t kTailBlock = 100;
  if (round_ms.size() < 2 * kTailBlock) return quantile(round_ms, 0.9);
  std::vector<double> block_p90;
  for (std::size_t b = 0; b + kTailBlock <= round_ms.size(); b += kTailBlock) {
    block_p90.push_back(quantile(
        {round_ms.begin() + static_cast<std::ptrdiff_t>(b),
         round_ms.begin() + static_cast<std::ptrdiff_t>(b + kTailBlock)},
        0.9));
  }
  return median(block_p90);
}

/// Shared end-to-end reduction of the timed rounds.
void end_to_end(RunResult& res, const std::vector<double>& round_ms,
                std::size_t n, double setup_s, double wire_bytes_per_su) {
  res.metrics["round_ms_p50"] = median(round_ms);
  res.metrics["round_ms_p90"] = round_p90(round_ms);
  const double typical_ms = interquartile_mean(round_ms);
  res.metrics["sus_per_s"] =
      typical_ms > 0 ? static_cast<double>(n) / (typical_ms / 1000.0) : 0.0;
  res.metrics["wire_bytes_per_su"] = wire_bytes_per_su;
  res.metrics["setup_s"] = setup_s;
  res.info["timed_rounds"] = static_cast<double>(round_ms.size());
}

/// A traced run reports the per-layer medians instead; the tracing
/// overhead is the traced round against the untraced rounds of this run.
void use_layer_metrics(RunResult& res, const LayerSamples& layers) {
  Metrics lm = layers.medians();
  lm["trace.overhead_frac"] =
      lm["trace.round.ms"] / res.metrics["round_ms_p50"] - 1.0;
  res.metrics = std::move(lm);
}

/// Runs `setup` (each call builds the world and keys and runs one warm-up
/// round) at least kSetupReps times and until kSetupMinSeconds have
/// passed, and returns the median wall time in seconds.  A socket setup
/// takes ~50 ms, so it gets ~20 repetitions; an engine setup gets 3.
double repeated_setup(const std::function<void()>& setup) {
  std::vector<double> s;
  const auto t_min = Clock::now() + std::chrono::duration<double>(
                                        kSetupMinSeconds);
  while (s.size() < kSetupReps || Clock::now() < t_min) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(s);
}

// --- Engine workloads ------------------------------------------------------------

struct EngineTrace {
  Metrics layers;
  std::vector<auction::Award> awards;
  /// The separately timed allocation picked the same (SU, channel)
  /// sequence as allocate_and_charge; otherwise the charging split is void.
  bool probe_matches = false;
};

std::size_t oracle_compares(const core::LppaAuction& a) {
  const auto* o = a.ttp().paillier_oracle();
  return o != nullptr ? o->compares() : 0;
}
std::size_t oracle_decrypts(const core::LppaAuction& a) {
  const auto* o = a.ttp().paillier_oracle();
  return o != nullptr ? o->decrypts() : 0;
}

/// One round replayed layer by layer with LppaAuction::run's RNG
/// discipline (one SU-master fork, per-SU forks, then the caller's stream
/// for allocation), timing each public call from outside.  `traced` runs
/// with `counting` as its backend; its ge() forwards to `reference`'s
/// TTP oracle, so Paillier compares land on both engines' oracles.
EngineTrace replay_engine_round(core::LppaAuction& traced,
                                const core::LppaAuction& reference,
                                const CountingBackend& counting,
                                const World& world, std::uint64_t seed) {
  const core::LppaConfig& cfg = traced.config();
  const std::size_t n = world.locations.size();
  EngineTrace out;
  Metrics& m = out.layers;
  const auto compares = [&] {
    return oracle_compares(traced) + oracle_compares(reference);
  };
  const auto decrypts = [&] {
    return oracle_decrypts(traced) + oracle_decrypts(reference);
  };

  const auto t_round = Clock::now();
  Rng rng(seed);
  const core::SuKeyBundle keys = traced.ttp().su_keys();
  const core::PpbsLocation location_protocol(keys.g0, cfg.coord_width,
                                             cfg.lambda,
                                             cfg.pad_location_ranges);
  const core::BidSubmitter submitter(traced.ttp().config(), keys.gb_master,
                                     keys.gc, keys.paillier);
  Rng su_master = rng.fork();
  std::vector<Rng> su_rngs;
  su_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) su_rngs.push_back(su_master.fork());

  std::vector<core::LocationSubmission> locations(n);
  std::vector<core::BidSubmission> bids(n);
  std::vector<double> su_us(n);
  auto t = Clock::now();
  parallel_for(n, cfg.num_threads, [&](std::size_t i) {
    const auto t_su = Clock::now();
    locations[i] = location_protocol.submit(world.locations[i], su_rngs[i]);
    bids[i] = submitter.submit(world.bids[i], su_rngs[i]);
    su_us[i] = ms_between(t_su, Clock::now()) * 1000.0;
  });
  m["core.submit.ms"] = ms_between(t, Clock::now());
  m["core.submit.us_per_su_p50"] = median(su_us);

  t = Clock::now();
  const core::SubmissionValidator validator(cfg);
  for (std::size_t i = 0; i < n; ++i) {
    validator.check_location(locations[i]);
    validator.check_bid(bids[i]);
  }
  m["core.validate.ms"] = ms_between(t, Clock::now());

  t = Clock::now();
  const auction::ConflictGraph conflicts =
      core::PpbsLocation::build_conflict_graph(locations, cfg.num_threads);
  m["core.conflict_graph.ms"] = ms_between(t, Clock::now());
  m["core.conflict_graph.edges"] = static_cast<double>(conflicts.edge_count());

  std::size_t ge0 = counting.ge_calls();
  t = Clock::now();
  core::EncryptedBidTable table(bids, cfg.num_channels, cfg.argmax_strategy,
                                cfg.num_threads, cfg.backend);
  m["core.bid_table.ms"] = ms_between(t, Clock::now());
  m["core.bid_table.ge_calls"] = static_cast<double>(counting.ge_calls() - ge0);

  // Allocation alone, on an identical table and RNG copy: this is the
  // part of allocate_and_charge that is not charging.  The copy is
  // measurement overhead and is taken out of the round.
  const auto t_probe = Clock::now();
  core::EncryptedBidTable probe_table = table;
  Rng probe_rng = rng;
  ge0 = counting.ge_calls();
  std::size_t cmp0 = compares();
  std::size_t dec0 = decrypts();
  t = Clock::now();
  const auto probe_awards =
      auction::greedy_allocate(probe_table, conflicts, probe_rng);
  const double allocate_ms = ms_between(t, Clock::now());
  const double probe_ms = ms_between(t_probe, Clock::now());
  const std::size_t alloc_ge = counting.ge_calls() - ge0;
  const std::size_t alloc_cmp = compares() - cmp0;
  const std::size_t alloc_dec = decrypts() - dec0;

  const std::vector<bool> all_live(n, true);
  ge0 = counting.ge_calls();
  cmp0 = compares();
  dec0 = decrypts();
  t = Clock::now();
  core::MaintainedRoundOutcome round =
      traced.allocate_and_charge(bids, conflicts, table, all_live, rng);
  const double aac_ms = ms_between(t, Clock::now());
  const double round_ms = ms_between(t_round, Clock::now()) - probe_ms;

  m["auction.allocate.ms"] = allocate_ms;
  m["auction.allocate.awards"] = static_cast<double>(round.awards.size());
  std::size_t valid = 0;
  for (const auto& a : round.awards) valid += a.valid ? 1 : 0;
  m["auction.allocate.valid_frac"] =
      round.awards.empty() ? 0.0
                           : static_cast<double>(valid) /
                                 static_cast<double>(round.awards.size());
  m["core.charging.ms"] = aac_ms - allocate_ms;
  m["core.charging.ge_calls"] =
      static_cast<double>(counting.ge_calls() - ge0 - alloc_ge);
  m["crypto.paillier.oracle_compares"] =
      static_cast<double>(compares() - cmp0 - alloc_cmp);
  m["crypto.paillier.oracle_decrypts"] =
      static_cast<double>(decrypts() - dec0 - alloc_dec);

  double children = 0;
  for (const char* layer :
       {"core.submit.ms", "core.validate.ms", "core.conflict_graph.ms",
        "core.bid_table.ms", "auction.allocate.ms", "core.charging.ms"}) {
    children += m[layer];
  }
  m["trace.round.ms"] = round_ms;
  m["trace.coverage"] = children / round_ms;

  out.awards = std::move(round.awards);
  out.probe_matches = probe_awards.size() == out.awards.size();
  for (std::size_t i = 0; out.probe_matches && i < probe_awards.size(); ++i) {
    out.probe_matches = probe_awards[i].user == out.awards[i].user &&
                        probe_awards[i].channel == out.awards[i].channel;
  }
  return out;
}

RunResult run_engine(const Workload& w, std::uint64_t seed, double seconds,
                     bool trace) {
  RunResult res;
  World world;
  std::unique_ptr<core::LppaAuction> engine;
  const double setup_s = repeated_setup([&] {
    engine.reset();
    world = make_world(w, seed);
    engine = std::make_unique<core::LppaAuction>(world.config, world.ttp_seed);
    const std::uint64_t warm_seed = derive_stream_seed(seed, kDomainWarm);
    world.draw(warm_seed);
    Rng warm(warm_seed);
    (void)engine->run(world.locations, world.bids, warm);
  });
  const std::size_t n = w.num_users;

  // The traced engine: same TTP seed (hence identical keys), ge() counted.
  std::unique_ptr<CountingBackend> counting;
  std::unique_ptr<core::LppaAuction> traced;
  if (trace) {
    counting = std::make_unique<CountingBackend>(engine->ttp().bid_backend());
    core::LppaConfig cfg = world.config;
    cfg.backend = counting.get();
    traced = std::make_unique<core::LppaAuction>(cfg, world.ttp_seed);
  }

  std::vector<double> round_ms;
  std::vector<double> wire;
  LayerSamples layers;
  std::vector<auction::Award> first_awards;
  const auto t_end =
      Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t r = 0; r == 0 || Clock::now() < t_end; ++r) {
    std::vector<std::string> problems;
    const std::uint64_t s = round_seed(seed, r);
    world.draw(s);
    Rng rng(s);
    core::LppaOutcome out;
    const auto t0 = Clock::now();
    try {
      out = engine->run(world.locations, world.bids, rng);
    } catch (const std::exception& e) {
      problems.push_back(std::string("run() threw: ") + e.what());
    }
    const double ms = ms_between(t0, Clock::now());
    res.checks.sus_attempted += n;
    res.checks.sus_excluded += out.manipulations_detected;
    if (problems.empty()) {
      round_ms.push_back(ms);
      wire.push_back(static_cast<double>(out.view.location_wire_bytes +
                                         out.view.bid_wire_bytes) /
                     static_cast<double>(n));
      check_awards(out.outcome.awards, world, problems);
      if (out.manipulations_detected != 0) {
        problems.push_back("TTP flagged manipulated bids");
      }
      if (r == 0) {
        first_awards = out.outcome.awards;
        if (!(out.view.conflicts ==
              auction::ConflictGraph::from_locations_sweep(
                  world.locations, world.config.lambda))) {
          problems.push_back("masked conflict graph != plaintext graph");
        }
      }
    }
    if (trace && problems.empty()) {
      try {
        const EngineTrace t =
            replay_engine_round(*traced, *engine, *counting, world, s);
        if (t.awards != out.outcome.awards) {
          problems.push_back("traced replay awards/charges differ from run()");
        }
        if (!t.probe_matches) {
          problems.push_back("separately timed allocation diverged");
        }
        for (const auto& [name, v] : t.layers) layers.add(name, v);
      } catch (const std::exception& e) {
        problems.push_back(std::string("traced replay threw: ") + e.what());
      }
    }
    res.checks.round(problems, r);
  }

  // Once per run: the awards of round 0 at num_threads 1 equal those at 2.
  {
    std::vector<std::string> problems;
    core::LppaConfig serial = world.config;
    serial.num_threads = 1;
    core::LppaAuction serial_engine(serial, world.ttp_seed);
    world.draw(round_seed(seed, 0));
    Rng rng(round_seed(seed, 0));
    try {
      const auto out = serial_engine.run(world.locations, world.bids, rng);
      if (out.outcome.awards != first_awards) {
        problems.push_back("awards differ between num_threads 1 and 2");
      }
    } catch (const std::exception& e) {
      problems.push_back(std::string("num_threads=1 run threw: ") + e.what());
    }
    res.checks.round(problems, 0);
  }

  end_to_end(res, round_ms, n, setup_s, median(wire));
  if (trace) use_layer_metrics(res, layers);
  return res;
}

// --- Socket workload ---------------------------------------------------------------

struct SocketTrace {
  Metrics layers;
  Bytes announcement;
};

/// One socket round composed from AuctioneerServer + ClientPool exactly
/// the way net::run_recoverable_socket_auction drives a crash-free round,
/// with each stage timed from outside and the program's own net.*
/// counters read back through ServerConfig::metrics.
SocketTrace compose_socket_round(const World& world,
                                 core::TrustedThirdParty& ttp,
                                 std::uint64_t seed) {
  const core::LppaConfig& cfg = world.config;
  const std::size_t n = world.locations.size();
  SocketTrace out;
  Metrics& m = out.layers;
  obs::MetricsRegistry registry;
  net::ServerConfig server_config;
  server_config.metrics = &registry;
  const net::SocketRoundOptions round;
  proto::RoundJournal journal;
  proto::RoundReport report;
  report.num_users = n;

  const auto t_round = Clock::now();
  auto t = t_round;
  const core::SuKeyBundle keys = ttp.su_keys();
  std::vector<net::SuEnvelopes> endpoints(n);
  {
    Rng boot(seed);
    Rng su_master = boot.fork();
    std::vector<Rng> su_rngs;
    su_rngs.reserve(n);
    for (std::size_t u = 0; u < n; ++u) su_rngs.push_back(su_master.fork());
    parallel_for(n, 0, [&](std::size_t u) {
      const proto::SuClient client(u, cfg, keys);
      endpoints[u].su = u;
      endpoints[u].location =
          client.location_envelope(world.locations[u], su_rngs[u]);
      endpoints[u].bid = client.bid_envelope(world.bids[u], su_rngs[u]);
    });
  }
  m["proto.su_envelopes.ms"] = ms_between(t, Clock::now());

  t = Clock::now();
  auto server = std::make_unique<net::AuctioneerServer>(
      cfg, n, server_config, round, std::vector<bool>(n, true), ttp, seed,
      &journal, &report, /*crashes=*/nullptr, /*start_ticks=*/0);
  m["net.server_start.ms"] = ms_between(t, Clock::now());

  const auto wall_ceiling = Clock::now() + std::chrono::seconds(60);
  const auto check_wall = [&] {
    LPPA_PROTOCOL_CHECK(Clock::now() < wall_ceiling,
                        "socket round wedged: wall ceiling reached");
  };
  t = Clock::now();
  net::ClientPoolConfig client_config;
  client_config.endpoint = server_config.endpoint;
  client_config.backoff = round.hardened;
  client_config.tick = server_config.tick;
  client_config.limits = server_config.limits;
  client_config.metrics = &registry;
  auto pool = std::make_unique<net::ClientPool>(std::move(client_config),
                                                std::move(endpoints));
  while (server->status() == net::AuctioneerServer::Status::kRunning) {
    pool->run(std::chrono::milliseconds(20));
    check_wall();
  }
  const auto status = server->await_terminal();
  if (status != net::AuctioneerServer::Status::kPublished) {
    server->rethrow_failure();
  }
  m["net.publish.ms"] = ms_between(t, Clock::now());

  t = Clock::now();
  while (!pool->run(std::chrono::milliseconds(50))) check_wall();
  m["net.announce.ms"] = ms_between(t, Clock::now());
  out.announcement = pool->announcement();
  m["net.round_us_p50"] = median(pool->round_latencies_us());
  m["net.reconnects"] = static_cast<double>(pool->reconnects());

  t = Clock::now();
  server.reset();
  pool.reset();
  m["net.teardown.ms"] = ms_between(t, Clock::now());
  const double round_ms = ms_between(t_round, Clock::now());

  m["net.frames_in"] =
      static_cast<double>(registry.counter("net.frames_in").value());
  m["net.frames_out"] =
      static_cast<double>(registry.counter("net.frames_out").value());
  m["net.nacks"] = static_cast<double>(registry.counter("net.nacks").value());
  m["proto.retry_waves"] = static_cast<double>(report.retry_waves);
  m["proto.journal_bytes"] = static_cast<double>(journal.data().size());
  double children = 0;
  for (const char* layer : {"proto.su_envelopes.ms", "net.server_start.ms",
                            "net.publish.ms", "net.announce.ms",
                            "net.teardown.ms"}) {
    children += m[layer];
  }
  m["trace.round.ms"] = round_ms;
  m["trace.coverage"] = children / round_ms;
  return out;
}

/// Location + bid envelope bytes one SU sends, averaged over the SUs
/// (built with the drivers' RNG discipline at `seed`).
double envelope_bytes_per_su(const World& world,
                             const core::TrustedThirdParty& ttp,
                             std::uint64_t seed) {
  const std::size_t n = world.locations.size();
  Rng boot(seed);
  Rng su_master = boot.fork();
  std::size_t total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    Rng su_rng = su_master.fork();
    const proto::SuClient client(u, world.config, ttp.su_keys());
    total += client.location_envelope(world.locations[u], su_rng).size();
    total += client.bid_envelope(world.bids[u], su_rng).size();
  }
  return static_cast<double>(total) / static_cast<double>(n);
}

RunResult run_socket(const Workload& w, std::uint64_t seed, double seconds,
                     bool trace) {
  RunResult res;
  World world;
  std::unique_ptr<core::TrustedThirdParty> ttp;
  const double setup_s = repeated_setup([&] {
    ttp.reset();
    world = make_world(w, seed);
    ttp = std::make_unique<core::TrustedThirdParty>(
        world.config.bid, world.ttp_seed, world.config.charging_rule);
    const std::uint64_t warm_seed = derive_stream_seed(seed, kDomainWarm);
    world.draw(warm_seed);
    (void)net::run_recoverable_socket_auction(world.config, *ttp,
                                              world.locations, world.bids,
                                              warm_seed, net::ServerConfig{});
  });
  const std::size_t n = w.num_users;

  std::vector<double> round_ms;
  double wire_bytes_per_su = 0;
  LayerSamples layers;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t r = 0; r == 0 || Clock::now() < t_end; ++r) {
    std::vector<std::string> problems;
    const std::uint64_t s = round_seed(seed, r);
    world.draw(s);
    net::SocketAuctionResult out;
    const auto t0 = Clock::now();
    try {
      out = net::run_recoverable_socket_auction(
          world.config, *ttp, world.locations, world.bids, s,
          net::ServerConfig{});
    } catch (const std::exception& e) {
      problems.push_back(std::string("socket round threw: ") + e.what());
    }
    const double ms = ms_between(t0, Clock::now());
    res.checks.sus_attempted += n;
    if (problems.empty()) {
      round_ms.push_back(ms);
      res.checks.sus_excluded += out.report.excluded.size();
      if (!out.report.completed) problems.push_back("round not completed");
      if (!out.report.excluded.empty()) {
        problems.push_back(std::to_string(out.report.excluded.size()) +
                           " SU(s) excluded");
      }
      check_awards(out.awards, world, problems);
    }
    if (r == 0 && problems.empty()) {
      wire_bytes_per_su = envelope_bytes_per_su(world, *ttp, s);
      // Once per run: the socket announcement equals the bus driver's.
      proto::MessageBus bus;
      const auto wire = proto::run_recoverable_wire_auction(
          world.config, *ttp, world.locations, world.bids, bus, s);
      if (wire.announcement != out.announcement) {
        problems.push_back("socket announcement != bus announcement");
      }
    }
    if (trace && problems.empty()) {
      try {
        const SocketTrace t = compose_socket_round(world, *ttp, s);
        if (t.announcement != out.announcement) {
          problems.push_back("composed round announcement != driver's");
        }
        for (const auto& [name, v] : t.layers) layers.add(name, v);
      } catch (const std::exception& e) {
        problems.push_back(std::string("composed round threw: ") + e.what());
      }
    }
    res.checks.round(problems, r);
  }

  end_to_end(res, round_ms, n, setup_s, wire_bytes_per_su);
  if (trace) use_layer_metrics(res, layers);
  return res;
}

// --- Entry point -------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "perfbench_driver: " << what
            << "\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <path>\n";
  std::exit(2);
}

void write_result(const std::string& path, const Workload& w,
                  std::uint64_t seed, double seconds, bool trace,
                  const RunResult& res) {
  std::ofstream file(path);
  if (!file) usage_error("cannot open '" + path + "' for writing");
  obs::JsonWriter j(file, 2);
  const Checks& c = res.checks;
  j.begin_object();
  j.key("workload").value(w.name);
  j.key("seed").value(seed);
  j.key("seconds").value(seconds);
  j.key("trace").value(trace);
  j.key("fingerprint").begin_object();
  j.key("nproc").value(static_cast<std::uint64_t>(
      std::thread::hardware_concurrency()));
  j.key("sha256_accelerated").value(crypto::Sha256::accelerated());
  j.key("build_type").value(PERFBENCH_BUILD_TYPE);
  j.key("compiler").value(PERFBENCH_COMPILER);
  j.key("malloc_mmap_threshold").value(kMmapThreshold);
  j.key("malloc_trim_threshold").value(kTrimThreshold);
  j.key("seed").value(seed);
  j.end_object();
  j.key("num_users").value(w.num_users);
  j.key("rounds_attempted").value(c.rounds_attempted);
  j.key("rounds_failed").value(c.rounds_failed);
  j.key("round_failed_frac")
      .value(static_cast<double>(c.rounds_failed) /
             static_cast<double>(std::max<std::size_t>(c.rounds_attempted, 1)));
  j.key("su_excluded_frac")
      .value(static_cast<double>(c.sus_excluded) /
             static_cast<double>(std::max<std::size_t>(c.sus_attempted, 1)));
  j.key("failures").begin_array();
  for (const auto& f : c.failures) j.value(f);
  j.end_array();
  j.key("metrics").begin_object();
  for (const auto& [name, v] : res.metrics) j.key(name).value(v);
  j.end_object();
  j.key("info").begin_object();
  for (const auto& [name, v] : res.info) j.key(name).value(v);
  j.end_object();
  j.end_object();
  file << "\n";
  file.flush();
  if (!file.good()) usage_error("write to '" + path + "' failed");
}

}  // namespace

int main(int argc, char** argv) {
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
  std::string workload, out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--out") out = value;
    else usage_error("unknown flag " + flag);
  }
  if (out.empty()) usage_error("--out is required");
  if (!(seconds > 0)) usage_error("--seconds must be positive");
  if (trace != 0 && trace != 1) usage_error("--trace must be 0 or 1");
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage_error("unknown workload '" + workload + "'");

  RunResult res = w->socket ? run_socket(*w, seed, seconds, trace == 1)
                            : run_engine(*w, seed, seconds, trace == 1);
  if (trace == 0) res.metrics["peak_rss_mb"] = peak_rss_mb();
  if (trace == 1 && res.metrics["trace.coverage"] < 0.95) {
    res.checks.failures.push_back("coverage gate: child layers cover " +
                                  std::to_string(res.metrics["trace.coverage"]) +
                                  " of trace.round.ms (< 0.95)");
  }
  write_result(out, *w, seed, seconds, trace == 1, res);
  const bool ok = res.checks.failures.empty();
  std::cerr << w->name << ": " << res.checks.rounds_attempted << " rounds, "
            << res.checks.rounds_failed << " failed"
            << (ok ? "" : " — CHECKS FAILED") << "\n";
  for (const auto& f : res.checks.failures) std::cerr << "  " << f << "\n";
  return ok ? 0 : 1;
}
