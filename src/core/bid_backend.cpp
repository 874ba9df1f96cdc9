#include "core/bid_backend.h"

#include <vector>

#include "common/error.h"
#include "core/ppbs_bid.h"
#include "prefix/prefix.h"

namespace lppa::crypto {

namespace {

/// id 0: the seed scheme, verbatim.  encode_cell reproduces the exact
/// RNG draw order of the pre-backend BidSubmitter (of_value and of_range
/// draw nothing; pad_to draws iff padding is on), which is what keeps
/// the refactor byte-identical — the differential test pins it against
/// pre-refactor golden digests.
class HmacPrefixBackend final : public BidBackend {
 public:
  BidBackendId id() const noexcept override {
    return BidBackendId::kHmacPrefix;
  }
  const char* name() const noexcept override { return "hmac-prefix"; }

  void encode_cell(core::ChannelBidSubmission& cell, const BidEncodeCtx& ctx,
                   std::uint64_t scaled, Rng& rng) const override {
    LPPA_REQUIRE(ctx.key_ctx != nullptr,
                 "HMAC backend needs a channel key context");
    cell.value_family =
        prefix::HashedPrefixSet::of_value(*ctx.key_ctx, scaled, ctx.width);
    cell.range_set = prefix::HashedPrefixSet::of_range(
        *ctx.key_ctx, scaled, ctx.scaled_max, ctx.width);
    if (ctx.pad_range_sets) {
      cell.range_set.pad_to(prefix::max_range_prefixes(ctx.width), rng);
    }
  }

  bool ge(const core::ChannelBidSubmission& a,
          const core::ChannelBidSubmission& b) const override {
    // a >= b  iff  s_a ∈ [s_b, smax]  iff  G(s_a) ∩ Q([s_b, smax]) != ∅.
    return a.value_family.intersects(b.range_set);
  }

  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission&) const override {
    return std::nullopt;  // SubmissionValidator keeps the legacy checks
  }
};

}  // namespace

const BidBackend& hmac_backend() noexcept {
  static const HmacPrefixBackend instance;
  return instance;
}

// ------------------------------------------------------------- oracle

PaillierCompareOracle::PaillierCompareOracle(PaillierKeyPair keys,
                                             std::uint64_t scaled_max)
    : keys_(keys), scaled_max_(scaled_max) {
  LPPA_REQUIRE(keys_.pub.n > 0, "oracle requires a generated key pair");
  LPPA_REQUIRE(scaled_max_ >= 1, "scaled_max must be at least 1");
  // Sign-test exactness (see the class comment): blinded differences
  // must stay strictly inside (-n/2, n/2).
  LPPA_REQUIRE(keys_.pub.n / 128 > scaled_max_,
               "Paillier modulus too small for the bid range: need "
               "n > 128 * scaled_max for exact blinded comparisons");
}

std::uint64_t PaillierCompareOracle::decrypt(std::uint64_t ct) const {
  decrypts_.fetch_add(1, std::memory_order_relaxed);
  return keys_.priv.decrypt(ct, keys_.pub);
}

std::uint64_t PaillierCompareOracle::to_mont(std::uint64_t ct) const noexcept {
  return keys_.pub.mont.to_mont(keys_.pub.reduced(ct));
}

std::uint64_t PaillierCompareOracle::negation(
    std::uint64_t ct_mont) const noexcept {
  // Scaling by n-1 is homomorphic negation: E(b)^(n-1) = E(-b).
  return keys_.pub.mont.pow(ct_mont, keys_.pub.n - 1);
}

bool PaillierCompareOracle::blinded_ge(std::uint64_t ct_a,
                                       std::uint64_t a_mont,
                                       std::uint64_t ct_b,
                                       std::uint64_t neg_b_mont) const {
  const PaillierPublicKey& pub = keys_.pub;
  // E(a - b) = E(a) * E(-b), public-key operations only.
  const std::uint64_t diff = pub.mont.mul(a_mont, neg_b_mont);
  // Multiplicative blind before decryption, derived from the ciphertext
  // pair so replays of the same query are deterministic.  What the
  // decryptor learns is k*(a-b), i.e. the sign and a blinded magnitude —
  // the standard blinded-comparison leakage model.
  const std::uint64_t k = 1 + ((ct_a ^ ct_b) & 63u);
  const std::uint64_t plain =
      keys_.priv.decrypt_mont(pub.mont.pow(diff, k), pub);
  // a >= b  ⇒  plain = k*(a-b) <= 64*scaled_max < n/2;
  // a <  b  ⇒  plain = n - k*(b-a) > n/2.
  return plain <= pub.n / 2;
}

bool PaillierCompareOracle::ge(std::uint64_t ct_a, std::uint64_t ct_b) const {
  compares_.fetch_add(1, std::memory_order_relaxed);
  return blinded_ge(ct_a, to_mont(ct_a), ct_b, negation(to_mont(ct_b)));
}

/// The Paillier prepared column: every cell's Montgomery form and
/// negation computed once, so a compare is one multiply, the blind and
/// the decryption.  Compares are counted locally and added to the
/// oracle's counter once, when the column is destroyed (also on unwind,
/// so a compare that throws is still counted, as ge() counts it).
class PaillierPreparedColumn final : public PreparedColumn {
 public:
  PaillierPreparedColumn(
      const PaillierCompareOracle& oracle,
      std::span<const core::ChannelBidSubmission* const> cells)
      : oracle_(oracle) {
    cells_.reserve(cells.size());
    for (const core::ChannelBidSubmission* cell : cells) {
      const std::uint64_t mont = oracle_.to_mont(cell->paillier_ct);
      cells_.push_back({cell->paillier_ct, mont, oracle_.negation(mont)});
    }
  }
  ~PaillierPreparedColumn() override {
    oracle_.compares_.fetch_add(compares_, std::memory_order_relaxed);
  }

  bool ge(std::size_t i, std::size_t j) override {
    ++compares_;
    const Cell& a = cells_[i];
    const Cell& b = cells_[j];
    return oracle_.blinded_ge(a.ct, a.mont, b.ct, b.neg_mont);
  }

 private:
  struct Cell {
    std::uint64_t ct = 0;        ///< as submitted: the blind derives from it
    std::uint64_t mont = 0;      ///< Montgomery form, as the left operand
    std::uint64_t neg_mont = 0;  ///< E(-b), Montgomery form, as the right
  };

  const PaillierCompareOracle& oracle_;
  std::vector<Cell> cells_;
  std::size_t compares_ = 0;
};

// ------------------------------------------------------------ paillier

PaillierBackend::PaillierBackend(
    PaillierPublicKey pub, std::shared_ptr<const PaillierCompareOracle> oracle)
    : pub_(pub), oracle_(std::move(oracle)) {
  LPPA_REQUIRE(pub_.n > 0 && pub_.n_squared == pub_.n * pub_.n &&
                   pub_.mont.m == pub_.n_squared,
               "malformed Paillier public key");
}

void PaillierBackend::encode_cell(core::ChannelBidSubmission& cell,
                                  const BidEncodeCtx&, std::uint64_t scaled,
                                  Rng& rng) const {
  cell.paillier_ct = pub_.encrypt(scaled, rng);
}

bool PaillierBackend::ge(const core::ChannelBidSubmission& a,
                         const core::ChannelBidSubmission& b) const {
  if (oracle_ == nullptr) {
    lppa::detail::raise(ErrorKind::kState,
                        "Paillier order test requires the TTP comparison oracle; "
                        "this backend instance is encode-only");
  }
  return oracle_->ge(a.paillier_ct, b.paillier_ct);
}

std::unique_ptr<PreparedColumn> PaillierBackend::prepare_column(
    std::span<const core::ChannelBidSubmission* const> cells) const {
  if (oracle_ == nullptr) return nullptr;
  return std::make_unique<PaillierPreparedColumn>(*oracle_, cells);
}

std::optional<std::string> PaillierBackend::validate_cell(
    const core::ChannelBidSubmission& cell) const {
  if (cell.value_family.size() != 0 || cell.range_set.size() != 0) {
    return std::string(
        "Paillier cell carries HMAC prefix digests (backend mismatch)");
  }
  if (cell.paillier_ct == 0 || cell.paillier_ct >= pub_.n_squared) {
    return "Paillier ciphertext outside Z*_{n^2}: " +
           std::to_string(cell.paillier_ct);
  }
  return std::nullopt;
}

}  // namespace lppa::crypto
