// Microbenchmark for the crypto hot path behind PPBS submission and the
// auctioneer's masked comparisons.
//
// Four questions, one JSON artifact (BENCH_micro_crypto.json):
//   1. Raw SHA-256 compression throughput (streaming a large buffer) —
//      the hard ceiling every HMAC number divides into.
//   2. One-shot HMAC-SHA-256 over u64 messages (4 compressions: ipad,
//      inner finalise, opad, outer finalise) vs the midstate-cached
//      HmacKeyCtx path (2 fixed-block compressions) — the per-digest win
//      behind the submit-phase speedup.
//   3. The batched API, which is what prefix/hashed_set actually calls:
//      one large batch, and back-to-back batches of 8 and 12 values (a
//      w=7 value family and its range cover, the production shapes).
//   4. The masked comparison itself: a w=7 value family intersected with
//      a padded range cover, on pairs that all hit and pairs that all
//      miss (the bid-table comparator's shape).
//
// Every HMAC row is checked against the streaming HmacKeyCtx::mac over
// the 8-byte encoding, and every intersection row against
// std::set_intersection, so a run can never publish numbers for a
// broken fast path.
//
// Schema matches perf_scaling's conventions: a JSON array of flat
// objects, one per (bench, iters) sample, throughput in ops/s (or MB/s
// for the stream bench, flagged by the unit field).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>

#include "bench_util.h"
#include "crypto/hmac.h"
#include "prefix/hashed_set.h"

namespace {

using namespace lppa;

struct Sample {
  std::string bench;
  std::size_t iters = 0;
  double wall_ms = 0.0;
  double throughput = 0.0;
  std::string unit;  // "ops/s" or "MB/s"
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void write_json(const std::string& path, const std::vector<Sample>& samples) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_array();
  for (const Sample& s : samples) {
    w.begin_object()
        .field("bench", std::string_view(s.bench))
        .field("iters", s.iters)
        .field("wall_ms", s.wall_ms)
        .field("throughput", s.throughput)
        .field("unit", std::string_view(s.unit))
        .end_object();
  }
  w.end_array();
  out << "\n";
  bench::close_output_or_die(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = lppa::bench::BenchArgs::parse(argc, argv);

  const std::size_t stream_mib = args.smoke ? 4 : (args.full ? 64 : 16);
  const std::size_t hmac_iters =
      args.smoke ? 50'000 : (args.full ? 1'000'000 : 250'000);

  Rng rng(20130708);
  const auto key = crypto::SecretKey::generate(rng);
  std::vector<Sample> samples;

  std::cout << "sha256 compression: "
            << (crypto::Sha256::accelerated() ? "x86 SHA extensions"
                                              : "portable scalar")
            << "\n";

  // --- 1. SHA-256 compression throughput --------------------------------
  {
    std::vector<std::uint8_t> buf(stream_mib * 1024 * 1024);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    crypto::Digest d;
    const double ms = time_ms([&] {
      d = crypto::Sha256::hash(std::span<const std::uint8_t>(buf));
    });
    Sample s;
    s.bench = "sha256_stream";
    s.iters = buf.size() / 64;  // compression-function invocations
    s.wall_ms = ms;
    s.throughput = bench::rate_per_sec(static_cast<double>(stream_mib), ms);
    s.unit = "MB/s";
    samples.push_back(s);
    // Keep the digest observable so the hash is not dead code.
    std::cout << "sha256(" << stream_mib << " MiB) = " << d.hex().substr(0, 16)
              << "...  " << s.throughput << " MB/s\n";
  }

  // --- 2. one-shot vs midstate-cached HMAC over u64 ----------------------
  std::vector<std::uint64_t> values(hmac_iters);
  for (auto& v : values) v = rng.next();

  // Reference: the generic streaming HMAC over each value's 8-byte LE
  // encoding (untimed).  ref_prefix[i] is the XOR of the first i
  // fingerprints, so a row that hashed only a prefix checks against it.
  const crypto::HmacKeyCtx ctx(key);
  std::vector<std::uint64_t> ref_prefix(values.size() + 1, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint8_t le[8];
    for (int b = 0; b < 8; ++b) {
      le[b] = static_cast<std::uint8_t>(values[i] >> (8 * b));
    }
    ref_prefix[i + 1] =
        ref_prefix[i] ^ ctx.mac(std::span<const std::uint8_t>(le)).fingerprint();
  }
  bool hmac_ok = true;
  const auto check_hmac = [&](std::size_t hashed, std::uint64_t acc) {
    hmac_ok = hmac_ok && acc == ref_prefix[hashed];
  };

  {
    std::uint64_t acc = 0;
    const double ms = time_ms([&] {
      for (const std::uint64_t v : values) {
        acc ^= crypto::hmac_sha256_u64(key, v).fingerprint();
      }
    });
    check_hmac(values.size(), acc);
    samples.push_back({"hmac_u64_oneshot", hmac_iters, ms,
                       bench::rate_per_sec(static_cast<double>(hmac_iters), ms),
                       "ops/s"});
  }
  {
    std::uint64_t acc = 0;
    const double ms = time_ms([&] {
      for (const std::uint64_t v : values) acc ^= ctx.mac_u64(v).fingerprint();
    });
    check_hmac(values.size(), acc);
    samples.push_back({"hmac_u64_midstate", hmac_iters, ms,
                       bench::rate_per_sec(static_cast<double>(hmac_iters), ms),
                       "ops/s"});
  }

  // --- 3. the batch API (what hashed_set calls) ---------------------------
  {
    std::vector<crypto::Digest> out(values.size());
    const double ms = time_ms([&] {
      crypto::hmac_sha256_u64_batch(key, values, out);
    });
    std::uint64_t acc = 0;
    for (const auto& d : out) acc ^= d.fingerprint();
    check_hmac(values.size(), acc);
    samples.push_back({"hmac_u64_batch", hmac_iters, ms,
                       bench::rate_per_sec(static_cast<double>(hmac_iters), ms),
                       "ops/s"});
  }
  for (const std::size_t batch : {std::size_t{8}, std::size_t{12}}) {
    const std::size_t hashed = values.size() / batch * batch;
    std::vector<crypto::Digest> out(batch);
    std::uint64_t acc = 0;
    const double ms = time_ms([&] {
      for (std::size_t i = 0; i < hashed; i += batch) {
        ctx.mac_u64_batch(std::span<const std::uint64_t>(values).subspan(i, batch),
                          out);
        for (const auto& d : out) acc ^= d.fingerprint();
      }
    });
    check_hmac(hashed, acc);
    samples.push_back({"hmac_u64_batch" + std::to_string(batch), hashed, ms,
                       bench::rate_per_sec(static_cast<double>(hashed), ms),
                       "ops/s"});
  }
  if (!hmac_ok) {
    std::cerr << "FATAL: an HMAC row disagrees with the streaming reference\n";
    return 1;
  }

  // --- 4. masked comparison: w=7 family vs padded range cover ------------
  // Pairs (family of s_a, cover of [s_b, smax] padded to 2w-2): the
  // bid table's ge(a, b).  Hit pairs have s_a >= s_b, miss pairs not.
  {
    const int w = 7;
    const std::uint64_t smax = (1u << w) - 1;
    const std::size_t pairs = 1024;
    const std::size_t passes = args.smoke ? 50 : (args.full ? 1000 : 250);
    for (const bool hit : {true, false}) {
      std::vector<prefix::HashedPrefixSet> families, covers;
      for (std::size_t p = 0; p < pairs; ++p) {
        std::uint64_t a = rng.below(smax + 1), b = rng.below(smax + 1);
        if (a == b) b = (b + 1) % (smax + 1);
        if ((a >= b) != hit) std::swap(a, b);
        families.push_back(prefix::HashedPrefixSet::of_value(ctx, a, w));
        covers.push_back(prefix::HashedPrefixSet::of_range(ctx, b, smax, w));
        covers.back().pad_to(prefix::max_range_prefixes(w), rng);
      }
      bool ref_ok = true;
      for (std::size_t p = 0; p < pairs; ++p) {
        std::vector<crypto::Digest> common;
        std::set_intersection(
            families[p].digests().begin(), families[p].digests().end(),
            covers[p].digests().begin(), covers[p].digests().end(),
            std::back_inserter(common));
        ref_ok = ref_ok && common.empty() != hit;
      }
      std::size_t hits = 0;
      const double ms = time_ms([&] {
        for (std::size_t pass = 0; pass < passes; ++pass) {
          for (std::size_t p = 0; p < pairs; ++p) {
            hits += families[p].intersects(covers[p]);
          }
        }
      });
      const std::size_t calls = pairs * passes;
      if (!ref_ok || hits != (hit ? calls : 0)) {
        std::cerr << "FATAL: masked intersection disagrees with the "
                     "set_intersection reference\n";
        return 1;
      }
      samples.push_back({hit ? "masked_intersect_hit" : "masked_intersect_miss",
                         calls, ms,
                         bench::rate_per_sec(static_cast<double>(calls), ms),
                         "ops/s"});
    }
  }

  Table table({"bench", "iters", "wall_ms", "throughput", "unit"});
  for (const Sample& s : samples) {
    table.add_row({s.bench, Table::cell(s.iters), Table::cell(s.wall_ms, 3),
                   Table::cell(s.throughput, 1), s.unit});
  }
  lppa::bench::emit(table, args,
                    "crypto micro: SHA-256 blocks, HMAC paths, masked intersection");

  const double one = samples[1].wall_ms, mid = samples[2].wall_ms;
  if (mid > 0.0) {
    std::cout << "midstate-cached HMAC speedup over one-shot: " << one / mid
              << "x\n";
  }

  const std::string json_path =
      args.json_path.empty() ? "BENCH_micro_crypto.json" : args.json_path;
  write_json(json_path, samples);
  std::cout << "wrote " << json_path << " (" << samples.size() << " samples)\n";

  obs::MetricsRegistry registry;
  for (const Sample& s : samples) {
    registry.record_span("bench." + s.bench, registry.next_span_id(),
                         /*parent=*/0, s.wall_ms * 1000.0);
  }
  lppa::bench::dump_metrics(registry, args);
  return 0;
}
