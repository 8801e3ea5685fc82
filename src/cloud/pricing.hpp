#pragma once
// Deterministic IaaS pricing model (DESIGN.md §12).
//
// The paper's provider sells one VM size at one fixed hourly price. Real
// IaaS economics add three axes that portfolio scheduling should exploit:
// heterogeneous VM families (sizes × price points, each with its own boot
// delay and capacity), a spot market (cheaper leases that the provider may
// revoke with a short warning), and time-varying prices (piecewise-constant
// schedules, optionally perturbed by a seeded random walk) plus pre-paid
// reserved-capacity commitments.
//
// Everything here is deterministic by construction (psched-lint D1/D3):
// spot revocation delays and price-walk steps come from independent
// named-seed streams ("spot", "walk") derived from one root seed via
// `derive_stream_seed`, the same idiom as the failure model — enabling or
// re-parameterizing one pricing feature never perturbs the draws of
// another. A spot revocation is mechanically a crash carrying a price
// signal: the engine reuses the PR 5 kill/resubmit machinery, so the
// determinism argument for crashes (DESIGN.md §10) transfers verbatim.
//
// With the default config `PricingConfig::enabled()` is false and the
// engine never constructs a model — pricing-off runs are provably
// bit-identical to a build without this header.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/state_digest.hpp"
#include "util/types.hpp"

namespace psched::cloud {

/// Purchase tier of one lease. On-demand is the paper's baseline; spot
/// leases are cheaper but revocable; reserved leases draw from a pre-paid
/// capacity commitment at zero marginal cost.
enum class PurchaseTier : unsigned char {
  kOnDemand = 0,
  kSpot = 1,
  kReserved = 2,
};

[[nodiscard]] const char* to_string(PurchaseTier tier) noexcept;

/// One VM size/price point. Families share the single-slot VM model
/// (allocation stays family-agnostic); they differ in price, boot delay,
/// and concurrency cap — exactly the surface tier-aware provisioning
/// policies trade over.
struct VmFamily {
  std::string name = "std";
  /// On-demand price per billing quantum at market multiplier 1.0 ($).
  double price = 1.0;
  /// Boot delay for leases of this family, sim seconds (overrides
  /// ProviderConfig::boot_delay when pricing is on).
  SimDuration boot_delay = 120.0;
  /// Max concurrently live leases of this family; 0 = provider cap only.
  std::size_t max_vms = 0;
};

/// Piecewise-constant market-multiplier step: from `at` (inclusive) the
/// multiplier is `multiplier` until the next step. Before the first step
/// the multiplier is 1.0.
struct PricePoint {
  SimTime at = 0.0;
  double multiplier = 1.0;
};

/// Pricing knobs. All-default means "pricing off"; see `enabled()`.
struct PricingConfig {
  /// VM families on offer. When any other knob turns pricing on with no
  /// families listed, the model substitutes a single default family.
  std::vector<VmFamily> families;
  /// Spot price as a fraction of the on-demand price (0.3 = 70% cheaper).
  /// 0 disables the spot market.
  double spot_price_fraction = 0.0;
  /// Mean time between spot revocations per lease, sim seconds
  /// (exponential draw per spot lease from the "spot" stream). 0 means
  /// spot leases are never revoked.
  SimDuration spot_mtbf_seconds = 0.0;
  /// Deterministic lead time between a revocation warning (the VM stops
  /// accepting work) and the kill.
  SimDuration spot_warning_seconds = 120.0;
  /// Piecewise-constant market-multiplier schedule, sorted by `at`.
  std::vector<PricePoint> schedule;
  /// Seeded random-walk option: per price epoch the multiplier takes a
  /// multiplicative step drawn from the "walk" stream, clamped to
  /// [walk_min, walk_max]; composes with `schedule`. 0 disables.
  double walk_step = 0.0;
  /// Epoch length of the walk, sim seconds.
  SimDuration walk_epoch_seconds = 3600.0;
  double walk_min = 0.25;
  double walk_max = 4.0;
  /// Reserved-capacity commitment: this many family-0 instances pre-paid
  /// for `reserved_term_seconds` at `reserved_price_fraction` of the
  /// on-demand price, billed up front. Reserved leases then run at zero
  /// marginal cost but may never exceed the commitment.
  std::size_t reserved_count = 0;
  double reserved_price_fraction = 0.6;
  SimDuration reserved_term_seconds = 7.0 * 24.0 * kSecondsPerHour;
  /// Root seed for the named pricing streams ("spot", "walk").
  std::uint64_t seed = 0x951ce;

  /// True when any pricing feature is active. False (the default) makes
  /// the whole layer a no-op: the engine skips model construction, the
  /// profile carries no pricing view, and the round snapshot carries no
  /// pricing columns.
  [[nodiscard]] bool enabled() const noexcept {
    return !families.empty() || spot_price_fraction > 0.0 ||
           !schedule.empty() || walk_step > 0.0 || reserved_count > 0;
  }
};

/// What a provisioning policy asks the provider for in one tick: `count`
/// leases of one family at one tier. The pre-pricing `vms_to_lease` count
/// maps to {count, family 0, kOnDemand}.
struct LeaseRequest {
  std::size_t count = 0;
  std::uint32_t family = 0;
  PurchaseTier tier = PurchaseTier::kOnDemand;
};

/// Read-only pricing snapshot for one scheduling instant, embedded in
/// CloudProfile (and copied into RoundSnapshot for the selector fast
/// path). Prices are effective — base price × current multiplier.
struct PricingView {
  struct Family {
    double price = 1.0;           ///< on-demand $/quantum at current multiplier
    SimDuration boot_delay = 120.0;
    std::size_t cap = 0;          ///< effective cap (provider cap resolved in)
    std::size_t in_use = 0;       ///< live leases of this family
  };

  bool enabled = false;
  double multiplier = 1.0;        ///< market multiplier at snapshot time
  std::uint64_t epoch = 0;        ///< price epoch index at snapshot time
  double spot_price_fraction = 0.0;
  std::size_t reserved_total = 0;
  std::size_t reserved_in_use = 0;
  std::vector<Family> families;

  [[nodiscard]] bool spot_enabled() const noexcept {
    return spot_price_fraction > 0.0;
  }
  [[nodiscard]] std::size_t reserved_free() const noexcept {
    return reserved_in_use < reserved_total ? reserved_total - reserved_in_use
                                            : 0;
  }
  /// Index of the cheapest family by effective on-demand price (ties break
  /// to the lower index; deterministic).
  [[nodiscard]] std::size_t cheapest_family() const noexcept;
  /// Remaining lease headroom of family `i` under its own cap (the
  /// provider-wide cap is enforced separately by the caller).
  [[nodiscard]] std::size_t family_free(std::size_t i) const noexcept;
};

/// Draws pricing outcomes from independent named-seed streams and prices
/// lease intervals. Mutable (revocation draws and walk materialization
/// advance streams); single-threaded by design — the engine event loop
/// owns it (PSCHED_CONFINED_TO: coordinating thread). Multiplier queries
/// must be non-decreasing in their maximum `t` (the engine only asks at
/// event times, which are monotone): walk epochs are materialized lazily
/// and never rewound, while queries at already-materialized past times
/// stay valid (lease settlement prices each started quantum at its start).
class PricingModel {
 public:
  explicit PricingModel(const PricingConfig& config);

  [[nodiscard]] const PricingConfig& config() const noexcept {
    return config_;
  }

  /// Families after normalization: at least one (the default family when
  /// the config lists none).
  [[nodiscard]] std::size_t family_count() const noexcept {
    return families_.size();
  }
  [[nodiscard]] const VmFamily& family(std::size_t i) const {
    return families_[i];
  }

  [[nodiscard]] bool spot_enabled() const noexcept {
    return config_.spot_price_fraction > 0.0;
  }

  /// Market multiplier at `t`: schedule step × walk factor of t's epoch.
  [[nodiscard]] double multiplier_at(SimTime t);

  /// Price epoch index of `t` (walk grid).
  [[nodiscard]] std::uint64_t epoch_of(SimTime t) const noexcept;

  /// Draw the revocation delay for one new spot lease ("spot" stream);
  /// kTimeNever when spot_mtbf_seconds == 0. Always advances the stream
  /// when revocations are enabled.
  [[nodiscard]] SimDuration spot_revocation_delay();

  /// Price fraction applied to the on-demand price for `tier` (on-demand
  /// 1, spot spot_price_fraction, reserved 0 — commitment pre-paid).
  [[nodiscard]] double tier_fraction(PurchaseTier tier) const noexcept;

  /// Effective $ price of one quantum starting at `t` for `family` at
  /// `tier`.
  [[nodiscard]] double quantum_price(std::size_t family, PurchaseTier tier,
                                     SimTime t);

  /// Dollars charged for a lease [lease_time, release]: elapsed rounded up
  /// to the next quantum (minimum one, mirroring charged_seconds_for),
  /// each started quantum priced at the multiplier at its start.
  [[nodiscard]] double lease_cost(std::size_t family, PurchaseTier tier,
                                  SimTime lease_time, SimTime release,
                                  SimDuration quantum);

  /// Up-front reserved-commitment bill: reserved_count × family-0 price ×
  /// reserved_price_fraction × term quanta. 0 when no commitment.
  [[nodiscard]] double commitment_cost(SimDuration quantum) const noexcept;

  /// Most VMs any single moment can hold under the family caps:
  /// `provider_cap` when any family is uncapped, else the capped sum. A job
  /// whose procs exceed this can never start — the engine rejects it at
  /// enqueue instead of waiting forever.
  [[nodiscard]] std::size_t max_schedulable_vms(
      std::size_t provider_cap) const noexcept;

  /// Fill `view` for a snapshot at `now` given the provider-wide cap and
  /// per-family live counts (indexed like families()).
  void fill_view(PricingView& view, SimTime now, std::size_t provider_cap,
                 const std::vector<std::size_t>& family_in_use,
                 std::size_t reserved_in_use);

  /// Checkpoint support (DESIGN.md §14): both stream positions plus every
  /// materialized walk factor, bit-exactly. The walk vector is ordered
  /// (epoch index), so an order-sensitive fold is deterministic.
  void capture_digest(util::StateDigest& digest) const {
    digest.add_u64("pricing.spot_rng", spot_rng_.state());
    digest.add_u64("pricing.walk_rng", walk_rng_.state());
    digest.add_size("pricing.walk_epochs", walk_.size());
    std::uint64_t walk_hash = 0;
    for (const double factor : walk_) walk_hash = util::digest_mix(walk_hash, factor);
    digest.add_u64("pricing.walk_factors", walk_hash);
  }

 private:
  /// Walk factor of `epoch`, materializing every epoch up to it.
  [[nodiscard]] double walk_factor(std::uint64_t epoch);
  /// Schedule step active at `t` (1.0 before the first step).
  [[nodiscard]] double schedule_multiplier(SimTime t) const noexcept;

  PricingConfig config_;
  std::vector<VmFamily> families_;
  util::Rng spot_rng_;
  util::Rng walk_rng_;
  std::vector<double> walk_;  ///< materialized per-epoch walk factors
};

}  // namespace psched::cloud
