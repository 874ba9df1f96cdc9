// Crypto-backend head-to-head: LPPA's hash-based masking (HmacPrefix)
// vs the Paillier tier built on the paper's [7] (Pan et al., JSAC'11).
//
// The paper dismisses [7] as requiring "a large number of communication
// costs, which does not fit an efficient auction mechanism".  Since the
// BidBackend refactor both schemes run the SAME auction end to end —
// conflict graph, greedy allocation, TTP charging, recovery — so the
// comparison is no longer a synthetic floor: phase 3 runs full
// LppaAuction rounds per backend and reports submit/auction wall time,
// masked-bid bytes on the wire, and the Paillier oracle's per-op
// counters at growing key sizes.
//
// Paillier runs at toy key sizes (n^2 must fit 64 bits); the primitive
// table reports the measured scaling across sizes, the per-pair compare
// next to the prepared-column compare the bid-table sort runs, beside
// the wire costs at the 2048-bit modulus [7] actually needs
// (ciphertext = 4096 bits).  JSON dump: BENCH_abl_paillier.json (passes
// tools/bench_compare.py --validate).
#include <chrono>
#include <fstream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/bid_backend.h"
#include "core/lppa_auction.h"
#include "crypto/paillier.h"

using namespace lppa;

namespace {

template <typename Fn>
double time_per_op_us(std::size_t iterations, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         static_cast<double>(iterations);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct PrimitiveRow {
  int prime_bits = 0;
  int ct_bits = 0;
  double encrypt_us = 0.0;
  double decrypt_us = 0.0;
  double compare_us = 0.0;
  double prepared_compare_us = 0.0;  ///< oracle compare, column prepared
};

struct HeadToHeadCell {
  std::string backend;
  int prime_bits = 0;  ///< 0 = HMAC (no Paillier key)
  int ct_bits = 0;     ///< Paillier ciphertext bits (0 for HMAC)
  std::size_t users = 0;
  std::size_t rounds = 0;
  double submit_ms = 0.0;   ///< SU-side bid encoding, all users x rounds
  double auction_ms = 0.0;  ///< full rounds: submit+conflict+alloc+charge
  std::size_t bid_wire_bytes = 0;  ///< masked bids on the wire, one round
  std::size_t oracle_compares = 0;  ///< Paillier ge() round-trips, total
  std::size_t oracle_decrypts = 0;  ///< Paillier charging decrypts, total
  std::size_t awards = 0;
  std::size_t valid_awards = 0;
};

/// One backend through the full engine: `rounds` complete auctions over
/// a fixed world, SU submission cost measured separately.
HeadToHeadCell run_head_to_head(crypto::BidBackendId backend, int prime_bits,
                                std::size_t n, std::size_t rounds) {
  core::LppaConfig cfg;
  cfg.num_channels = 3;
  cfg.lambda = 100;
  cfg.coord_width = 14;
  cfg.bid = core::PpbsBidConfig::advanced(15, 3, 4,
                                          core::ZeroDisguisePolicy::none(15));
  cfg.bid.backend = backend;
  if (backend == crypto::BidBackendId::kPaillier) {
    cfg.bid.paillier_prime_bits = prime_bits;
  }
  cfg.charging_rule = core::ChargingRule::kSecondPrice;  // strategyproof tier
  cfg.ttp_batch_size = 8;

  core::LppaAuction engine(cfg, /*ttp_seed=*/77);

  Rng world_rng(21);
  std::vector<auction::SuLocation> locations;
  std::vector<core::BidVector> bids;
  for (std::size_t i = 0; i < n; ++i) {
    locations.push_back({world_rng.below(5000), world_rng.below(5000)});
    auction::BidVector bv(cfg.num_channels);
    for (auto& b : bv) b = world_rng.below(16);
    bids.push_back(bv);
  }

  HeadToHeadCell cell;
  cell.backend = engine.config().backend->name();
  cell.prime_bits =
      backend == crypto::BidBackendId::kPaillier ? prime_bits : 0;
  cell.users = n;
  cell.rounds = rounds;

  // SU-side encoding cost in isolation (what each bidder's device pays).
  const core::SuKeyBundle keys = engine.ttp().su_keys();
  if (keys.paillier.has_value()) {
    cell.ct_bits = keys.paillier->ciphertext_bits();
  }
  const core::BidSubmitter submitter(engine.ttp().config(), keys.gb_master,
                                     keys.gc, keys.paillier);
  {
    Rng rng(5);
    std::size_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        sink += submitter.submit(bids[i], rng).wire_size();
      }
    }
    cell.submit_ms = ms_since(t0);
    cell.bid_wire_bytes = sink / rounds;
  }

  // Full rounds through the engine (its own submissions included — this
  // is the end-to-end wall time an auction round costs on each backend).
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng round_rng(1000 + 13 * r);
    const auto out = engine.run(locations, bids, round_rng);
    if (r + 1 == rounds) {
      cell.awards = out.outcome.awards.size();
      for (const auto& a : out.outcome.awards) {
        if (a.valid) ++cell.valid_awards;
      }
    }
  }
  cell.auction_ms = ms_since(t0);

  if (const auto* oracle = engine.ttp().paillier_oracle()) {
    cell.oracle_compares = oracle->compares();
    cell.oracle_decrypts = oracle->decrypts();
  }
  return cell;
}

void write_json(const std::string& path,
                const std::vector<PrimitiveRow>& primitives,
                const std::vector<HeadToHeadCell>& cells) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_object();
  w.key("primitives").begin_array();
  for (const PrimitiveRow& p : primitives) {
    w.begin_object()
        .field("prime_bits", p.prime_bits)
        .field("ct_bits", p.ct_bits)
        .field("encrypt_us", p.encrypt_us)
        .field("decrypt_us", p.decrypt_us)
        .field("compare_us", p.compare_us)
        .field("prepared_compare_us", p.prepared_compare_us)
        .end_object();
  }
  w.end_array();
  w.key("head_to_head").begin_array();
  for (const HeadToHeadCell& c : cells) {
    w.begin_object()
        .field("backend", c.backend)
        .field("prime_bits", c.prime_bits)
        .field("ct_bits", c.ct_bits)
        .field("users", c.users)
        .field("rounds", c.rounds)
        .field("submit_ms", c.submit_ms)
        .field("auction_ms", c.auction_ms)
        .field("bid_wire_bytes", c.bid_wire_bytes)
        .field("oracle_compares", c.oracle_compares)
        .field("oracle_decrypts", c.oracle_decrypts)
        .field("awards", c.awards)
        .field("valid_awards", c.valid_awards)
        .end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
  bench::close_output_or_die(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t iters = args.full ? 20000 : (args.smoke ? 2000 : 5000);
  Rng rng(7);

  std::vector<PrimitiveRow> primitives;
  {
    Table table({"prime_bits", "ct_bits", "encrypt_us", "decrypt_us",
                 "compare_us(hom+dec)", "prepared_compare_us"});
    for (int bits : {8, 12, 16}) {
      const auto keys = crypto::paillier_keygen(bits, rng);
      std::uint64_t sink = 0;
      const double enc_us = time_per_op_us(iters, [&](std::size_t i) {
        sink ^= keys.pub.encrypt(i % keys.pub.n, rng);
      });
      std::vector<std::uint64_t> cts;
      for (int i = 0; i < 64; ++i) {
        cts.push_back(keys.pub.encrypt(static_cast<std::uint64_t>(i), rng));
      }
      const double dec_us = time_per_op_us(iters, [&](std::size_t i) {
        sink ^= keys.priv.decrypt(cts[i % cts.size()], keys.pub);
      });
      const double cmp_us = time_per_op_us(iters, [&](std::size_t i) {
        // Hom. subtraction (a * b^(n-1)), blinding, then a decryption.
        const auto& a = cts[i % cts.size()];
        const auto& b = cts[(i + 1) % cts.size()];
        const std::uint64_t diff =
            keys.pub.add(a, keys.pub.scale(b, keys.pub.n - 1));
        const std::uint64_t blinded =
            keys.pub.scale(diff, 1 + (i % 97));
        sink ^= keys.priv.decrypt(blinded, keys.pub);
      });
      // The bid-table sort's compare: the oracle's blinded compare on a
      // column prepared once (Montgomery forms and negations), outside
      // the timer, as a sort prepares each column once.
      const auto oracle = std::make_shared<const crypto::PaillierCompareOracle>(
          keys, /*scaled_max=*/1);
      const crypto::PaillierBackend backend(keys.pub, oracle);
      std::vector<core::ChannelBidSubmission> cells(cts.size());
      std::vector<const core::ChannelBidSubmission*> column;
      for (std::size_t i = 0; i < cts.size(); ++i) {
        cells[i].paillier_ct = cts[i];
        column.push_back(&cells[i]);
      }
      const auto prepared = backend.prepare_column(column);
      const double prep_us = time_per_op_us(iters, [&](std::size_t i) {
        sink ^= prepared->ge(i % cts.size(), (i + 1) % cts.size()) ? 1 : 2;
      });
      table.add_row({Table::cell(bits),
                     Table::cell(keys.pub.ciphertext_bits()),
                     Table::cell(enc_us, 2), Table::cell(dec_us, 2),
                     Table::cell(cmp_us, 2), Table::cell(prep_us, 2)});
      primitives.push_back({bits, keys.pub.ciphertext_bits(), enc_us, dec_us,
                            cmp_us, prep_us});
      if (sink == 0xdeadbeef) std::cout << "";  // keep the sink alive
    }
    bench::emit(table, args,
                "Paillier primitive costs across toy key sizes");
  }

  // Head-to-head: full LppaAuction rounds per backend, second-price rule
  // on both sides (the Paillier strategyproof tier and its HMAC twin).
  std::vector<HeadToHeadCell> cells;
  {
    const std::size_t n = args.full ? 64 : (args.smoke ? 12 : 24);
    const std::size_t rounds = args.full ? 10 : (args.smoke ? 2 : 4);
    cells.push_back(run_head_to_head(crypto::BidBackendId::kHmacPrefix,
                                     /*prime_bits=*/0, n, rounds));
    for (int bits : {8, 12, 16}) {
      cells.push_back(
          run_head_to_head(crypto::BidBackendId::kPaillier, bits, n, rounds));
    }

    Table table({"backend", "prime_bits", "users", "rounds", "submit_ms",
                 "auction_ms", "bid_wire_B", "oracle_cmp", "oracle_dec"});
    for (const HeadToHeadCell& c : cells) {
      table.add_row({c.backend, Table::cell(c.prime_bits),
                     Table::cell(c.users), Table::cell(c.rounds),
                     Table::cell(c.submit_ms, 2), Table::cell(c.auction_ms, 2),
                     Table::cell(c.bid_wire_bytes),
                     Table::cell(c.oracle_compares),
                     Table::cell(c.oracle_decrypts)});
    }
    bench::emit(table, args,
                "Head-to-head: full second-price rounds per crypto backend");
    std::cout
        << "Expected: HMAC submission builds w+1 digests per cell but its\n"
           "comparisons are local set intersections; the Paillier tier's\n"
           "cells are one u64 ciphertext (smaller wire at toy sizes — a\n"
           "real 2048-bit modulus ships 512 B/cell) while every masked\n"
           "comparison is a homomorphic-subtract + blinded decryption\n"
           "round-trip through the TTP oracle, visible in oracle_cmp and\n"
           "auction_ms growth with prime_bits — the paper's \"large\n"
           "communication costs\" claim, now measured inside the very\n"
           "same auction loop.\n";
  }

  write_json(
      args.json_path.empty() ? "BENCH_abl_paillier.json" : args.json_path,
      primitives, cells);
  return 0;
}
